"""Time perfbench passes of two pcalc trees, alternating, in one process.

    python3 tools/ab_passes.py --parent DIR --change DIR [--passes N] [--seed S]

Each DIR is a pcalc checkout; its ``src/pcalc`` is imported under its own
name space.  One tree is imported in full (every submodule, and every
export bound in the package, since ``pcalc.__getattr__`` imports through
``sys.modules``), then its ``sys.modules`` entries are moved aside before
the other is imported, and put back whenever that tree runs, so that an
import inside a function finds its own tree.  The ``calculus``, ``scan`` and ``riccati``
workloads of the change's ``perfbench/`` are built against each tree with
the same seed.  Whole passes then alternate, the parent first on even
pairs, and the script prints per workload the median pass time of each
side, the median of the per-pair change/parent ratios and the pairs the
change won; under it, the median per-pair ratio of each slot kind of the
workload (``riccati_n64`` ... ``riccati_n512``, say), which tells fixed
per-operation cost from cost that grows with the input.  Operations that
raise are counted, not judged.

Both sides share one process, so drift on the host falls on both alike;
whole-process runs of the same tree can differ by up to 1.5x on a shared
host.  This is a quick check while working.  ``BENCHMARK.json``, run by
``tools/bench_pairs.py``, still judges a change.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("calculus", "scan", "riccati")


def load_pcalc(root: Path) -> dict:
    """Import pcalc from root/src in full and take its modules out of
    sys.modules; put them back (sys.modules.update) while it runs."""
    src = str(root.resolve() / "src")
    sys.path.insert(0, src)
    importlib.invalidate_caches()
    try:
        pcalc = importlib.import_module("pcalc")
        for name in pcalc._EXPORTS:
            importlib.import_module(f"pcalc.{name}")
        for name in pcalc.__all__:
            getattr(pcalc, name)
    finally:
        sys.path.remove(src)
    where = Path(pcalc.__file__).resolve()
    if Path(src) not in where.parents:
        raise SystemExit(f"pcalc imported from {where}, not from {src}")
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "pcalc" or name.startswith("pcalc.")}


def one_pass(wl) -> tuple[dict[str, float], int]:
    """Seconds the operations of one pass took per slot kind, and how many raised."""
    clock = time.perf_counter
    busy: dict[str, float] = {}
    raised = 0
    for slot in wl.slots:
        start = clock()
        try:
            slot.call()
        except Exception:  # an expected error is an outcome like any other
            raised += 1
        busy[slot.kind] = busy.get(slot.kind, 0.0) + clock() - start
    return busy, raised


def compare(builds: dict, trees: dict, passes: int) -> dict:
    times: dict[str, list[dict[str, float]]] = {side: [] for side in builds}
    raised = dict.fromkeys(builds, 0)
    for side, wl in builds.items():
        sys.modules.update(trees[side])
        wl.warm_up()
    for k in range(passes):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            sys.modules.update(trees[side])
            dt, bad = one_pass(builds[side])
            times[side].append(dt)
            raised[side] += bad
    totals = {side: [sum(t.values()) for t in times[side]] for side in builds}
    ratios = [c / p for p, c in zip(totals["parent"], totals["change"])]
    pairs = list(zip(times["parent"], times["change"]))
    return {"parent_ms": 1e3 * statistics.median(totals["parent"]),
            "change_ms": 1e3 * statistics.median(totals["change"]),
            "ratio": statistics.median(ratios),
            "won": sum(r < 1.0 for r in ratios), "raised": raised,
            "kinds": {kind: statistics.median(c[kind] / p[kind] for p, c in pairs)
                      for kind in times["parent"][0]}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--passes", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    trees = {"parent": load_pcalc(args.parent), "change": load_pcalc(args.change)}
    sys.path.insert(0, str(args.change.resolve() / "perfbench"))
    from workloads import WORKLOADS as BUILDERS

    print(f"{args.passes} alternating passes per side, seed {args.seed}")
    print(f"{'workload':10} {'parent ms':>10} {'change ms':>10} {'ratio':>7} {'won':>7}  raised")
    for name in WORKLOADS:
        builds = {}
        for side, modules in trees.items():
            sys.modules.update(modules)
            builds[side] = BUILDERS[name](modules["pcalc"], args.seed)
        r = compare(builds, trees, args.passes)
        print(f"{name:10} {r['parent_ms']:10.2f} {r['change_ms']:10.2f} {r['ratio']:7.3f} "
              f"{r['won']:>3}/{args.passes:<3}  parent {r['raised']['parent']}, "
              f"change {r['raised']['change']}")
        for kind, ratio in r["kinds"].items():
            print(f"  {kind:30} {ratio:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
