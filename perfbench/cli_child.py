"""`python -m pcalc.cli` with the per-layer tracer installed.

Used only by the traced run of the cli workload.  Behaves like the real
entry point (same exit code, same output, same traceback on a crash) and
writes its counters as JSON to the file named by PERFBENCH_STATS.
"""

import json
import os
import sys

import pcalc
import pcalc.cli

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer  # noqa: E402


def main() -> None:
    tracer = Tracer()
    tracer.install()
    try:
        code = pcalc.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_STATS"], "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
