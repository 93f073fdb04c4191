"""Test-wide set-up: child-process import path and the Hypothesis profile.

pyproject.toml puts `src/` on the test process's own path; children see
only PYTHONPATH, so `src/` goes in front of it too.

The exact-arithmetic examples have no stable run time, so the profile
sets no deadline and lets slow data generation pass; each suite keeps its
own `max_examples`.
"""

import os
from pathlib import Path

from hypothesis import HealthCheck, settings

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile("valrep", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("valrep")
