"""Time a fresh ``pcalc`` process on two checkouts, alternating.

    python3 tools/cold_start.py --parent DIR --change DIR [--runs N] [ARGV ...]

Each run spawns ``python -m pcalc.cli ARGV`` with ``PYTHONPATH=DIR/src``
and ``PYTHONDONTWRITEBYTECODE=1``, so both sides start from source the
same way, and times it from spawn to exit.  The sides alternate, the
parent first on even pairs, so that drift on the host falls on both
alike.  ARGV defaults to a closed-form ``deriv``.  The script prints each
side's median and quartiles in ms, the change's median as a share of the
parent's and the pairs the change won.  A run that exits non-zero stops
the script: it would time an error path.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

DERIV = ["deriv", "--family", "khalil", "--alpha", "0.5", "--f", "t^2", "--t", "4"]


def spawn_ms(root: Path, argv: list[str]) -> float:
    env = {**os.environ, "PYTHONPATH": str(root.resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pcalc.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = 1e3 * (time.perf_counter() - start)
    if done.returncode:
        raise SystemExit(f"{root}: exit {done.returncode}: {done.stderr.decode()}")
    return elapsed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--runs", type=int, default=15, help="spawns per side")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="pcalc arguments")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    cli = args.argv[1:] if args.argv[:1] == ["--"] else args.argv or DERIV
    times: dict[str, list[float]] = {"parent": [], "change": []}
    for k in range(args.runs):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            times[side].append(spawn_ms(getattr(args, side), cli))
    print(f"pcalc {' '.join(cli)}: {args.runs} fresh processes per side")
    for side, ms in times.items():
        q1, med, q3 = statistics.quantiles(ms, n=4)
        print(f"{side:7} median {med:7.1f} ms  quartiles {q1:7.1f} {q3:7.1f} ms")
    share = statistics.median(times["change"]) / statistics.median(times["parent"])
    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"change/parent {share:.3f}, change faster in {won}/{args.runs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
