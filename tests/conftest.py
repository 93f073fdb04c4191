"""Let the `python -m valrep.cli` child processes of the tests import this checkout.

pyproject.toml puts `src/` on the test process's own path; children see
only PYTHONPATH, so `src/` goes in front of it too.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
