"""Per-layer tracing installed from outside the package.

Wrappers replace each traced function in every pcalc module namespace
where callers look it up (``pcalc.riccati.gk15``, ``pcalc.derivatives.
evaluate``, ``PFunction.ph_zero``, ...).  Every wrapped call is counted
and timed; its self time is its duration minus the time covered by the
wrapped calls nested inside it.  Operations and layer-entry calls also
get a span (name, start, end, parent span, operation) kept in memory.
Hot leaves are aggregated only, so a 470k-call ``ph_zero`` stream costs
counters rather than span records.

``expr.evaluate`` and ``expr.differentiate`` recurse through their own
module globals; those globals are left alone so only calls from other
modules are counted.  ``check_l1`` reads ``PFunction._ph0`` directly, so
its weight evaluations are not in ``families.ph_zero``.
"""

from __future__ import annotations

import sys
import time

# (module, function, kind, hook).  kind "span" records a span per call,
# "leaf" only aggregates.  hook names a result counter, see _HOOKS.
TRACED = (
    ("expr", "parse", "leaf", None),
    ("expr", "evaluate", "leaf", None),
    ("expr", "differentiate", "leaf", None),
    ("families", "PFunction.ph_zero", "leaf", None),
    ("families", "PFunction.p", "leaf", None),
    ("families", "check_l1", "span", "l1_levels"),
    ("families", "check_offset_solvability", "span", None),
    ("quadrature", "gk15", "leaf", None),
    ("quadrature", "integrate_graded", "span", "graded"),
    ("quadrature", "endpoint_exponent", "span", None),
    ("derivatives", "p_derivative_limit", "span", "ladder"),
    ("derivatives", "p_derivative_formula", "leaf", None),
    ("derivatives", "compare_definitions", "span", None),
    ("integrals", "p_integral", "span", "panels"),
    ("integrals", "ftc_forward", "span", None),
    ("integrals", "ftc_backward", "span", None),
    ("integrals", "integration_by_parts_check", "span", None),
    ("theorems", "find_mvt_point", "span", None),
    ("theorems", "find_rolle_point", "span", None),
    ("theorems", "find_cauchy_mvt_point", "span", None),
    ("theorems", "max_principle_check", "span", None),
    ("theorems", "polygonal_derivative_scan", "span", None),
    ("riccati", "contraction_precheck", "span", None),
    ("riccati", "solve_riccati", "span", "sweeps"),
    ("riccati", "riccati_residual", "span", None),
    ("weierstrass", "divergence_report", "span", None),
)

# functions that recurse through their own module global
_RECURSIVE = {"evaluate", "differentiate"}

_HOOKS = {
    "ladder": lambda r: (("derivatives.ladder_levels", len(r.h_sequence)),
                         ("derivatives.converged", int(r.converged)),
                         ("derivatives.estimates", 1)),
    "panels": lambda r: (("quadrature.panels", r.subdivisions),),
    "graded": lambda r: (("quadrature.graded", int(r[3])),),
    "l1_levels": lambda r: (("families.check_l1.levels", r.levels),),
    "sweeps": lambda r: (("riccati.sweeps", r.iterations),),
}

MAX_SPANS = 300_000


class Tracer:
    """Counters, self times and spans for one process."""

    def __init__(self) -> None:
        # name -> [calls, total_s, self_s, raised]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        # span rows: [name, start, end, parent_span, op_index]
        self.spans: list[list] = []
        self.spans_dropped = 0
        self.op_index = -1
        self._frames: list[list] = []  # [child_time, span_index]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "pcalc" or name.startswith("pcalc.")]
        pcalc = sys.modules["pcalc"]
        for mod_name, func, kind, hook in TRACED:
            home = getattr(pcalc, mod_name)
            name = f"{mod_name}.{func.split('.')[-1]}"
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth), kind, hook))
                continue
            orig = getattr(home, func)
            wrapper = self._wrap(name, orig, kind, hook)
            for mod in mods:
                if mod is home and func in _RECURSIVE:
                    continue
                if mod.__dict__.get(func) is orig:
                    self._patch(mod, func, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def _patch(self, obj: object, attr: str, new: object) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str, hook: str | None):
        row = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        frames = self._frames
        spans = self.spans
        clock = time.perf_counter
        with_span = kind == "span"
        on_result = _HOOKS[hook] if hook else None
        counts = self.counts

        def wrapper(*args, **kwargs):
            span = -1
            if with_span:
                span = self._open_span(name, clock())
            frame = [0.0, span]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                row[3] += 1
                raise
            finally:
                end = clock()
                frames.pop()
                dur = end - start
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                if span >= 0:
                    spans[span][2] = end
            if on_result is not None:
                for key, inc in on_result(result):
                    counts[key] = counts.get(key, 0) + inc
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _open_span(self, name: str, start: float) -> int:
        if len(self.spans) >= MAX_SPANS:
            self.spans_dropped += 1
            return -1
        parent = -1
        for frame in reversed(self._frames):
            if frame[1] >= 0:
                parent = frame[1]
                break
        self.spans.append([name, start, start, parent, self.op_index])
        return len(self.spans) - 1

    def run_op(self, index: int, kind: str, call):
        """Run one benchmark operation as a root span."""
        self.op_index = index
        return self._wrap(f"op.{kind}", call, "span", None)()

    def snapshot(self) -> dict:
        """Counters as plain data: {name: [calls, total, self, raised]}."""
        snap = {k: list(v) for k, v in self.stats.items()}
        for key, value in self.counts.items():
            snap[key] = [value, 0.0, 0.0, 0]
        return snap


def diff(after: dict, before: dict) -> dict:
    out = {}
    for key, row in after.items():
        base = before.get(key, [0, 0.0, 0.0, 0])
        out[key] = [row[i] - base[i] for i in range(4)]
    return out


def add(total: dict, part: dict) -> None:
    for key, row in part.items():
        acc = total.setdefault(key, [0, 0.0, 0.0, 0])
        for i in range(4):
            acc[i] += row[i]


def count_signature(snap: dict) -> dict:
    """The machine-independent part of a snapshot: calls, raised, counters."""
    return {k: (v[0], v[3]) for k, v in sorted(snap.items()) if v[0] or v[3]}
