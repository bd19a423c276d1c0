"""One benchmark process: set up a workload, then measure or trace it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes:
  setup    import pcalc, build the seeded inputs and families, warm up;
           print the set-up time and stop.
  measure  set up, compute the reference answers, then run whole passes
           of the schedule in a closed loop (one client, one thread)
           until the operations have taken S seconds; print end-to-end
           figures.
  trace    set up, run untraced passes for S/2 seconds, install the
           per-layer wrappers, run at least two traced passes for S/2
           seconds, check that every count repeats exactly from pass to
           pass, then run the named probes; print per-layer figures.

The last line of standard output is one JSON object.  run.py starts this
process and is the command to use.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
from probes import run_probes  # noqa: E402
from workloads import NAMES, OUT, ROOT, WORKLOADS, NoAnswer  # noqa: E402

# Host-speed calibration.  The CPU speed of a shared host swings by up to
# 2x with its neighbours' load, in spells from seconds to minutes.  A fixed
# pure-Python loop is timed after every CAL_EVERY_S of operation time, and
# each operation's wall time is scaled by CAL_REF_S over the mean of the
# two loop times around it: times are "reference-speed" seconds, where
# CAL_REF_S is the loop's median time on the 2-vCPU Xeon host on which the
# benchmark was defined.  Raw wall times are kept beside them.
CAL_LOOPS = 20_000
CAL_REF_S = 1.5e-3
CAL_EVERY_S = 0.05


def calibrate() -> float:
    """Seconds the fixed loop takes at the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i
    return time.perf_counter() - start


def _import_pcalc():
    sys.path.insert(0, str(ROOT / "src"))
    import pcalc

    where = Path(pcalc.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"pcalc imported from {where}, not from {ROOT / 'src'}")
    return pcalc


class Run:
    """Outcome of a sequence of passes over one schedule."""

    def __init__(self, slots) -> None:
        # per-slot samples in compact arrays (the measuring process's peak
        # RSS is a metric): reference-speed and raw wall seconds
        self.slot_times = [array("d") for _ in slots]
        self.raw_times = [array("d") for _ in slots]
        self.kinds = [slot.kind for slot in slots]
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}  # slot kind -> reasons
        self.wrong = 0
        self.passes = 0
        self.pass_stats: list[dict] = []

    def fail(self, kind: str, reason: str, wrong: bool) -> None:
        self.failures.setdefault(kind, []).append(reason)
        self.wrong += int(wrong)

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.failures.values())


def _judge(slot, out, exc, P) -> tuple[str | None, bool]:
    """(failure reason or None, whether the failure is a wrong answer)."""
    if exc is not None:
        if slot.raises is not None and P is not None and isinstance(
                exc, getattr(P, slot.raises)):
            return None, False
        return f"{type(exc).__name__}: {str(exc)[:200]}", False
    if slot.raises is not None:
        return f"returned an answer where {slot.raises} was due", True
    try:
        reason = slot.check(out, slot.ref)
    except Exception as err:  # a malformed answer the check could not read
        reason = f"check could not read the answer: {err!r}"
    return reason, reason is not None and not isinstance(reason, NoAnswer)


def run_passes(wl, P, seconds: float, min_passes: int, run: Run,
               fingerprints: dict, tracer=None, child_stats=None) -> Run:
    clock = time.perf_counter
    busy = 0.0
    pending: list[tuple[int, float]] = []  # (slot, wall seconds) since `cal`
    since = 0.0
    cal = calibrate()

    def flush() -> float:
        after = calibrate()
        scale = CAL_REF_S / (0.5 * (cal + after))
        for j, dt in pending:
            run.slot_times[j].append(dt * scale)
            run.raw_times[j].append(dt)
        pending.clear()
        return after

    while run.passes < min_passes or busy < seconds:
        before = tracer.snapshot() if tracer else None
        children: dict = {}
        for i, slot in enumerate(wl.slots):
            out = exc = None
            start = clock()
            try:
                out = tracer.run_op(i, slot.kind, slot.call) if tracer else slot.call()
            except Exception as err:  # every outcome is recorded, none stops the run
                exc = err
            dt = clock() - start
            busy += dt
            pending.append((i, dt))
            since += dt
            if since >= CAL_EVERY_S:
                cal, since = flush(), 0.0
            run.attempted += 1
            if child_stats is not None:
                tr.add(children, child_stats())
            reason, wrong = _judge(slot, out, exc, P)
            fp = repr(out) if exc is None else f"{type(exc).__name__}: {exc}"
            if fingerprints.setdefault(i, fp) != fp and reason is None:
                reason, wrong = "answer differs from the previous pass", True
            if reason is not None:
                run.fail(slot.kind, reason, wrong)
        run.passes += 1
        if tracer:
            stats = tr.diff(tracer.snapshot(), before)
            tr.add(stats, children)
            run.pass_stats.append(stats)
    if pending:
        flush()
    return run


def _latency(groups: list[tuple[float, int]]) -> dict:
    """ops_per_s, median and tail of a sample given as (time, count) pairs."""
    groups = sorted(groups)
    n = sum(c for _, c in groups)
    idx = max(n - 11, 0)  # highest sample with ten or more beyond it

    def at(k: int) -> float:
        for t, c in groups:
            if k < c:
                return t
            k -= c
        raise IndexError(k)

    return {"ops_per_s": n / sum(t * c for t, c in groups),
            "op_p50_ms": 1e3 * 0.5 * (at((n - 1) // 2) + at(n // 2)),
            "op_tail_ms": 1e3 * at(idx), "tail_percentile": 100.0 * (idx + 1) / n,
            "samples": n}


def steady(run: Run) -> dict:
    """Latency figures over each operation's steady time: the median of
    its repetitions, counted once per repetition.

    The CPU speed of a shared host swings by up to 2x with its neighbours'
    load, in spells from seconds to minutes.  Every slot repeats the same
    work in every pass, so its median is the operation's typical time; a
    slow spell then moves a figure only when it covers half the run.
    """
    return _latency([(statistics.median(ts), len(ts)) for ts in run.slot_times])


def end_to_end(run: Run, in_process: bool) -> tuple[dict, dict]:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # before the raw lists below
    fig = steady(run)
    metrics = {
        "ops_per_s": (fig["ops_per_s"], "1/s"),
        "op_p50_ms": (fig["op_p50_ms"], "ms"),
        "op_tail_ms": (fig["op_tail_ms"], "ms"),
        "success_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = _latency([(t, 1) for ts in run.raw_times for t in ts])
    kinds: dict[str, list[float]] = {}
    for kind, ts in zip(run.kinds, run.raw_times):
        kinds.setdefault(kind, []).extend(ts)
    detail = {"tail_percentile": fig["tail_percentile"], "samples": fig["samples"],
              "raw_wall": {k: raw[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
              "kind_p50_ms": {k: 1e3 * statistics.median(v) for k, v in sorted(kinds.items())}}
    return metrics, detail


def _med(passes: list[dict], key: str, i: int) -> float:
    return statistics.median(p.get(key, [0, 0.0, 0.0, 0])[i] for p in passes)


def layer_metrics(passes: list[dict]) -> dict:
    """Per-layer figures per pass: counts from one pass, times as medians."""
    first = passes[0]

    def calls(key):
        return (first.get(key, [0])[0], "count")

    def raised(key):
        return (first.get(key, [0, 0, 0, 0])[3], "count")

    def total(key):
        return (_med(passes, key, 1), "s")

    def self_s(key):
        return (_med(passes, key, 2), "s")

    def ratio(num, den):
        d = first.get(den, [0])[0]
        return (first.get(num, [0])[0] / d if d else 0.0, "ratio")

    graded_returns = (first.get("quadrature.integrate_graded", [0])[0]
                      - first.get("quadrature.integrate_graded", [0, 0, 0, 0])[3])
    m = {
        "expr.parse.calls": calls("expr.parse"),
        "expr.differentiate.calls": calls("expr.differentiate"),
        "expr.differentiate.s": total("expr.differentiate"),
        "expr.evaluate.calls": calls("expr.evaluate"),
        "expr.evaluate.s": total("expr.evaluate"),
        "expr.evaluate.raised": raised("expr.evaluate"),
        "families.ph_zero.calls": calls("families.ph_zero"),
        "families.ph_zero.s": total("families.ph_zero"),
        "families.p.calls": calls("families.p"),
        "families.p.s": total("families.p"),
        "families.check_l1.s": total("families.check_l1"),
        "families.check_l1.levels": calls("families.check_l1.levels"),
        "families.check_offset_solvability.s": total("families.check_offset_solvability"),
        "quadrature.gk15.calls": calls("quadrature.gk15"),
        "quadrature.gk15.self_s": self_s("quadrature.gk15"),
        "quadrature.integrate_graded.calls": calls("quadrature.integrate_graded"),
        "quadrature.integrate_graded.self_s": self_s("quadrature.integrate_graded"),
        "quadrature.integrate_graded.raised": raised("quadrature.integrate_graded"),
        "quadrature.endpoint_exponent.calls": calls("quadrature.endpoint_exponent"),
        "quadrature.panels": calls("quadrature.panels"),
        "quadrature.graded_ratio": (
            first.get("quadrature.graded", [0])[0] / graded_returns
            if graded_returns else 0.0, "ratio"),
        "derivatives.p_derivative_limit.calls": calls("derivatives.p_derivative_limit"),
        "derivatives.p_derivative_limit.self_s": self_s("derivatives.p_derivative_limit"),
        "derivatives.ladder_levels": calls("derivatives.ladder_levels"),
        "derivatives.converged_ratio": ratio("derivatives.converged",
                                             "derivatives.estimates"),
        "riccati.contraction_precheck.s": total("riccati.contraction_precheck"),
        "riccati.solve_riccati.self_s": self_s("riccati.solve_riccati"),
        "riccati.riccati_residual.self_s": self_s("riccati.riccati_residual"),
        "riccati.sweeps": calls("riccati.sweeps"),
        "weierstrass.divergence_report.s": total("weierstrass.divergence_report"),
    }
    for fn in ("p_integral", "ftc_forward", "ftc_backward", "integration_by_parts_check"):
        m[f"integrals.{fn}.self_s"] = self_s(f"integrals.{fn}")
    for fn in ("find_mvt_point", "find_rolle_point", "find_cauchy_mvt_point",
               "max_principle_check"):
        m[f"theorems.{fn}.self_s"] = self_s(f"theorems.{fn}")
    return m


def environment(load_before) -> dict:
    from importlib.metadata import version

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def _failure_detail(*runs: Run) -> dict:
    reasons: dict[str, list[str]] = {}
    for run in runs:
        for kind, r in run.failures.items():
            reasons.setdefault(kind, []).extend(r)
    return {kind: {"count": len(r), "first": r[0]} for kind, r in reasons.items()}


def _write_spans(tracer, first_span: int, path: Path) -> None:
    rows = tracer.spans[first_span:]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "start_s", "end_s", "parent", "op"],
                   "spans": [[n, s, e, p - first_span if p >= 0 else -1, o]
                             for n, s, e, p, o in rows],
                   "dropped": tracer.spans_dropped}, fh)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()
    load_before = os.getloadavg()

    cal = calibrate()
    start = time.perf_counter()
    P = _import_pcalc() if args.workload != "cli" else None
    wl = WORKLOADS[args.workload](P, args.seed)
    wl.warm_up()
    wall = time.perf_counter() - start
    setup_s = wall * CAL_REF_S / (0.5 * (cal + calibrate()))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": wall}))
        return

    wl.prepare()
    fingerprints: dict = {}
    result: dict = {"setup_s": setup_s, "setup_wall_s": wall}
    if args.mode == "measure":
        run = run_passes(wl, P, args.seconds, wl.min_passes, Run(wl.slots), fingerprints)
        metrics, detail = end_to_end(run, wl.in_process)
        result.update(metrics=metrics, attempted=run.attempted, failed=run.failed,
                      wrong=run.wrong, detail={
                          **detail, "passes": run.passes, "slots": len(wl.slots),
                          "failures": _failure_detail(run)})
    else:
        half = args.seconds / 2.0
        plain = run_passes(wl, P, half, 1, Run(wl.slots), fingerprints)
        tracer = tr.Tracer()
        child_stats = None
        if wl.in_process:
            tracer.install()
        else:
            stats_file = OUT / f"child-stats-{os.getpid()}.json"
            wl.launcher["argv"] = [sys.executable, str(HERE / "cli_child.py")]
            wl.launcher["env"] = {"PERFBENCH_STATS": str(stats_file)}

            def child_stats():
                with open(stats_file, encoding="utf-8") as fh:
                    data = json.load(fh)
                stats_file.unlink()
                return data
        first_span_of_pass = []
        traced = Run(wl.slots)
        while traced.passes < 2 or sum(map(sum, traced.raw_times)) < half:
            first_span_of_pass.append(len(tracer.spans))
            run_passes(wl, P, 0.0, traced.passes + 1, traced, fingerprints,
                       tracer, child_stats)
        tracer.uninstall()
        signatures = [tr.count_signature(p) for p in traced.pass_stats]
        mismatch = [i for i, s in enumerate(signatures) if s != signatures[0]]
        OUT.mkdir(exist_ok=True)
        _write_spans(tracer, first_span_of_pass[-1],
                     OUT / f"spans-{args.workload}-{args.seed}.json")
        per_layer = layer_metrics(traced.pass_stats)
        plain_rate = steady(plain)["ops_per_s"]
        traced_rate = steady(traced)["ops_per_s"]
        per_layer["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
        per_layer["trace.traced_ops_per_s"] = (traced_rate, "1/s")
        per_layer["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
        per_layer.update(run_probes(P or _import_pcalc()))
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        result.update(per_layer=per_layer, attempted=attempted, failed=failed,
                      wrong=plain.wrong + traced.wrong + len(mismatch), detail={
                          "untraced_passes": plain.passes, "traced_passes": traced.passes,
                          "count_mismatch_passes": mismatch,
                          "failures": _failure_detail(plain, traced),
                          "spans_kept": len(tracer.spans) - first_span_of_pass[-1]})
    result["detail"]["environment"] = environment(load_before)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
