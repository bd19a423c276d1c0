"""Run the benchmark on two checkouts in alternating pairs and save the runs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \
        [--seeds 301-310] [--trace-seed S] [--what TEXT]

Each checkout runs its own ``perfbench/run.py`` on its own sources, one
process at a time, for every workload of the change's ``BENCHMARK.json``
and for its ``run_seconds``.  For every workload and seed the two sides
form a pair; the pair for the first seed runs the parent first, the next
the change first, and so on, so that drift on the host falls on both
sides alike.  The output holds every run's result and detail lines, a
per-metric summary (median and quartiles per side, pairs the change won,
how much worse the change's median is, against the bound in the change's
``BENCHMARK.json``) and, with ``--trace-seed``, one traced calculus run
of ``TRACE_SECONDS`` per side with its per-layer metrics and the span
time per name over the traced pass.  The parent's revision is read from
its checkout with git.  The file is rewritten after every pair, so an
interrupted run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
TRACE_SECONDS = 10


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(argv[1:])} exited with {proc.returncode}\n"
                         f"{proc.stderr}")
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return {"result": json.loads(result), "detail": json.loads(detail)["detail"]}


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed: dict[int, dict] = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in by_seed.values() if len(p) == 2]
        entry: dict = {}
        for spec in metrics:
            name, higher = spec["name"], spec["better"] == "higher"
            if not pairs or name not in pairs[0]["parent"]:
                continue
            vals = {s: [p[s][name]["value"] for p in pairs] for s in SIDES}
            wins = sum((c > q) if higher else (c < q) for q, c in zip(*vals.values()))
            ties = sum(c == q for q, c in zip(*vals.values()))
            med = {s: statistics.median(vals[s]) for s in SIDES}
            worse = ((med["parent"] - med["change"]) if higher
                     else (med["change"] - med["parent"])) / med["parent"]
            entry[name] = {"parent": _quartiles(vals["parent"]),
                           "change": _quartiles(vals["change"]),
                           "pairs": len(pairs), "change_wins": wins, "ties": ties,
                           "change_worse_by": worse, "bound": spec["bound"],
                           "within_bound": worse <= spec["bound"]}
        out[workload] = {"correct_all": all(r["result"]["correct"] for r in mine),
                         "failed_ops": sum(r["result"]["failed"] for r in mine),
                         "metrics": entry}
    return out


def _revision(root: Path) -> str:
    return subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()


def _span_seconds(root: Path, workload: str, seed: int) -> dict:
    """Time per span name over the one pass the traced run dumps."""
    dump = json.loads((root / "perfbench" / "out" / f"spans-{workload}-{seed}.json")
                      .read_text(encoding="utf-8"))
    total: dict[str, float] = {}
    for name, start, end, _, _ in dump["spans"]:
        total[name] = total.get(name, 0.0) + (end - start)
    return dict(sorted(total.items()))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", default="301-310", help="LO-HI or a comma list")
    ap.add_argument("--trace-seed", type=int, help="add one traced calculus run per side")
    ap.add_argument("--what", default="perfbench end-to-end runs, parent commit vs this "
                    "change, alternating which side runs first per pair")
    args = ap.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = _seeds(args.seeds)
    doc = {"what": args.what,
           "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                      "--trace 0",
           "parent": _revision(roots["parent"]), "seeds": seeds,
           "order": "the 1st, 3rd, ... seed of a workload runs the parent first, "
                    "the 2nd, 4th, ... the change first",
           "environment": {}, "summary": {}, "runs": []}
    load_before = list(os.getloadavg())

    def save() -> None:
        doc["summary"] = _summary(doc["runs"], bench["end_to_end"])
        if doc["runs"]:
            env = dict(doc["runs"][0]["detail"]["environment"])
            env.update(loadavg_before=load_before, loadavg_after=list(os.getloadavg()))
            doc["environment"] = env
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    for workload in workloads:
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                started = time.monotonic()
                run = _run(roots[side], workload, seed, seconds, 0)
                doc["runs"].append({"workload": workload, "seed": seed, "side": side, **run})
                ops = run["result"]["metrics"]["ops_per_s"]["value"]
                print(f"{workload} seed {seed} {side:6s} ops_per_s {ops:10.2f} "
                      f"({time.monotonic() - started:.0f} s)", file=sys.stderr, flush=True)
            save()
    if args.trace_seed is not None:
        doc["traced"] = {
            "command": f"python3 perfbench/run.py --workload calculus --seed {args.trace_seed} "
                       f"--seconds {TRACE_SECONDS} --trace 1",
            "note": "one traced run per side, parent first; per-pass layer figures, "
                    "span times and probes are single samples and noisy"}
        for side in SIDES:
            run = _run(roots[side], "calculus", args.trace_seed, TRACE_SECONDS, 1)
            doc["traced"][side] = {
                "per_layer": {k: v["value"] for k, v in run["result"]["metrics"].items()},
                "span_s_per_pass": _span_seconds(roots[side], "calculus", args.trace_seed)}
    save()
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
