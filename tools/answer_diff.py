"""Compare the answers two pcalc trees give on the in-process perfbench workloads.

    python3 tools/answer_diff.py --parent DIR --change DIR [--seeds 301-310]

Both trees are loaded with ``ab_passes.load_pcalc``, and the calculus,
scan and riccati workloads of the change's ``perfbench/workloads.py`` are
built against each tree for every seed.  Every slot runs once per tree;
the two outcomes are the ``repr`` of the answer, or the type name and
message of the error it raised.  The script prints, per workload, the
number of slots whose outcomes differ and the first few of them.

It then compares the expression engine on random trees.  For every seed
it draws TREES trees over t, x, pi, 0 and -0 with every operation of the
parent's table and unary minus, at most MAX_DEPTH nodes deep, builds each
in both trees, and compares the ``repr`` of ``_differentiate`` in t with
kinks off and on and the value of ``compile_expr`` over (t, x) at POINTS,
each or the error it raised.  It prints ``expr N of M trees differ``.
The script exits 1 if any slot or tree differs.  A change meant to leave
every answer as it was should report 0 everywhere.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from ab_passes import WORKLOADS, load_pcalc
from bench_pairs import _seeds

BINARY = ("+", "-", "*", "/", "^")

SHOWN = 3  # differing slots printed per workload and seed
CONTEXT = 60  # characters of each outcome printed around the first difference
TREES = 2000  # random expression trees per seed
MAX_DEPTH = 5
LEAVES = (("Var", "t"), ("Var", "x"), ("Var", "pi"), ("Num", 0.0), ("Num", -0.0))
POINTS = ((0.5, 2.0), (-1.5, 0.25), (3.0, -0.75))  # (t, x) where compile_expr runs


def outcome(call) -> str:
    try:
        return repr(call())
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
    return [(slot.kind, outcome(slot.call)) for slot in wl.slots]


def random_tree(rng: random.Random, ops: list[str], depth: int = MAX_DEPTH) -> tuple:
    """A tree as nested (class name, fields...) tuples, at most depth nodes deep."""
    if depth == 1 or rng.random() < 0.1:
        return rng.choice(LEAVES)
    op = rng.choice(ops)
    if op == "neg":
        return ("Neg", random_tree(rng, ops, depth - 1))
    if op in BINARY:
        return ("BinOp", op, random_tree(rng, ops, depth - 1), random_tree(rng, ops, depth - 1))
    return ("Call", op, random_tree(rng, ops, depth - 1))


def build(expr, tree: tuple):
    """The tree made of one pcalc tree's node classes."""
    name, *fields = tree
    return getattr(expr, name)(*(build(expr, f) if isinstance(f, tuple) else f for f in fields))


def tree_outcome(expr, tree: tuple) -> str:
    e = build(expr, tree)
    fn = expr.compile_expr(e, ("t", "x"))
    parts = [outcome(lambda: expr._differentiate(e, "t", kinks)) for kinks in (False, True)]
    return " | ".join(parts + [outcome(lambda: fn(*point)) for point in POINTS])


def expr_diff(trees: dict, seeds: list[int], label: str) -> int:
    """Print the differing trees of every seed and their count; return it."""
    ops = [*BINARY, *sorted(trees["parent"]["pcalc.expr"].FUNCTIONS), "neg"]
    total = differ = 0
    for seed in seeds:
        rng, shown = random.Random(seed), 0
        for _ in range(TREES):
            tree = random_tree(rng, ops)
            old, new = (tree_outcome(trees[side]["pcalc.expr"], tree) for side in trees)
            total, differ = total + 1, differ + (old != new)
            if old != new and shown < SHOWN:
                shown += 1
                was, now = gap(old, new)
                print(f"  expr seed {seed} {tree!r}: ...{was!r}... -> ...{now!r}...")
    print(f"{'expr':10} {differ} of {total} trees differ (seeds {label})")
    return differ


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
    total += expr_diff(trees, seeds, args.seeds)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
