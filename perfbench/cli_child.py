"""`python -m valrep.cli` with the per-layer tracer installed in-process.

    python3 perfbench/cli_child.py <valrep cli arguments>

The traced run of the cli workload starts this instead of `valrep.cli`.
It prints the CLI's report on stdout as usual, then writes the tracer's
aggregates and spans as one JSON line to stderr, after TRACE_MARKER.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import valrep.cli  # noqa: E402  (import after the path is set)

from tracer import Tracer  # noqa: E402
from workloads import TRACE_MARKER  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = valrep.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARKER + json.dumps(tracer.export()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
