"""Compare the answers two pcalc trees give on the in-process perfbench workloads.

    python3 tools/answer_diff.py --parent DIR --change DIR [--seeds 301-310]

Both trees are loaded with ``ab_passes.load_pcalc``, and the calculus,
scan and riccati workloads of the change's ``perfbench/workloads.py`` are
built against each tree for every seed.  Every slot runs once per tree; the two outcomes are the ``repr``
of the answer, or the type name and message of the error it raised.  The
script prints, per workload, the number of slots whose outcomes differ
and the first few of them, and exits 1 if any differ.  A change meant to
leave every answer as it was should report 0 everywhere.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ab_passes import WORKLOADS, load_pcalc
from bench_pairs import _seeds

SHOWN = 3  # differing slots printed per workload and seed
CONTEXT = 60  # characters of each outcome printed around the first difference


def outcome(slot) -> str:
    try:
        return repr(slot.call())
    except Exception as exc:  # a documented error is an answer like any other
        return f"{type(exc).__name__}: {exc}"


def gap(a: str, b: str) -> tuple[str, str]:
    """The two outcomes around the first character where they differ."""
    i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    lo = max(0, i - CONTEXT // 2)
    return a[lo:lo + CONTEXT], b[lo:lo + CONTEXT]


def outcomes(trees: dict, side: str, make, seed: int) -> list[tuple[str, str]]:
    sys.modules.update(trees[side])
    wl = make(trees[side]["pcalc"], seed)
    return [(slot.kind, outcome(slot)) for slot in wl.slots]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seeds", default="301-310", help="LO-HI or a comma list")
    args = ap.parse_args(argv)
    trees = {"parent": load_pcalc(args.parent), "change": load_pcalc(args.change)}
    sys.path.insert(0, str(args.change.resolve() / "perfbench"))
    from workloads import WORKLOADS as MAKERS

    seeds, total = _seeds(args.seeds), 0
    for name in WORKLOADS:
        slots = differ = 0
        for seed in seeds:
            old = outcomes(trees, "parent", MAKERS[name], seed)
            new = outcomes(trees, "change", MAKERS[name], seed)
            if len(old) != len(new):
                raise SystemExit(f"{name} seed {seed}: {len(old)} slots against {len(new)}")
            bad = [(i, a, b) for i, (a, b) in enumerate(zip(old, new)) if a != b]
            for i, (kind, was), (_, now) in bad[:SHOWN]:
                was, now = gap(was, now)
                print(f"  {name} seed {seed} slot {i} ({kind}): ...{was!r}... -> ...{now!r}...")
            slots, differ = slots + len(old), differ + len(bad)
        print(f"{name:10} {differ} of {slots} slots differ (seeds {args.seeds})")
        total += differ
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
