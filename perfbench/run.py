"""pcalc benchmark: one workload, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload {calculus,scan,riccati,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a pcalc checkout; pcalc is imported from ./src.
With --trace 0 it prints the end-to-end metrics (ops_per_s, op_p50_ms,
op_tail_ms, success_ratio, setup_s, peak_rss_mb); with --trace 1 the
per-layer metrics, the tracing overhead and the named probes.  The last
line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 6  # fresh set-up processes besides the measuring one
DEADLINE_S = 175.0


def _worker(args, mode: str, started: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    left = DEADLINE_S - (time.monotonic() - started)
    # own session, so a timeout also stops the pcalc processes it started
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark worker ({mode}) ran past {DEADLINE_S:g} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"benchmark worker ({mode}) exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pcalc" / "__init__.py").is_file():
        raise SystemExit(f"no pcalc sources under {ROOT / 'src'}; run from a pcalc checkout")
    started = time.monotonic()

    if args.trace:
        res = _worker(args, "trace", started)
        metrics = res["per_layer"]
    else:
        setups = [_worker(args, "setup", started) for _ in range(SETUP_RUNS)]
        res = _worker(args, "measure", started)
        setups.append(res)
        metrics = dict(res["metrics"])
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        res["detail"]["setup_samples_s"] = [s["setup_s"] for s in setups]
        res["detail"]["setup_wall_samples_s"] = [s["setup_wall_s"] for s in setups]

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed,
                                 "attempted": res["attempted"], "failed": res["failed"],
                                 "wrong_answers": res["wrong"], **res["detail"]}}))
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
