"""The four workloads: seeded inputs, one fixed schedule each, and checks.

A workload is a fixed schedule ("pass") of operation slots.  The seed
draws only parameters (orders, points, intervals, horizons), never which
operations run or how many, so the work per pass is comparable across
seeds.  Each slot knows how to run itself, what answer or documented
error its input calls for, and how to compute its reference answer; the
references are computed after set-up and outside every timed window.

Reference answers come from closed forms, from hand-derived multipliers
with mpmath derivatives and integrals, or, for Riccati problems without a
closed form, from the answer's own residual.  The caps are those of
tests/test_acceptance.py and tests/test_integrals.py.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

@dataclass
class Slot:
    """One operation of the schedule.

    call() runs the operation.  raises names the documented error class
    the input calls for (None: an answer is expected).  check(result, ref)
    returns None for a right answer and a reason otherwise; ref is what
    reference() returned.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object, object], str | None] = lambda r, ref: None
    reference: Callable[[], object] = lambda: None
    raises: str | None = None
    ref: object = None


class NoAnswer(str):
    """A check's reason for a failure that produced no answer to judge
    (a crash, a traceback, a wrong exit code), as opposed to a wrong one."""


@dataclass
class Workload:
    name: str
    slots: list[Slot]
    warm_up: Callable[[], None]
    in_process: bool = True
    # fewest whole passes per measured run: with few operations per pass,
    # this keeps the tail sample in the same latency group on every run
    min_passes: int = 1
    # how cli operations start a process: {"argv": [...], "env": {...}}
    launcher: dict | None = None

    def prepare(self) -> None:
        """Compute every reference answer (outside the timed windows)."""
        for slot in self.slots:
            slot.ref = slot.reference()


# --- small helpers -------------------------------------------------------------

def _mp():
    import mpmath
    mpmath.mp.dps = 30
    return mpmath


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _cap(label: str, err: float, cap: float) -> str | None:
    if err < cap and math.isfinite(err):
        return None
    return f"{label} {err:.3g} not below {cap:g}"


def _first(*reasons: str | None) -> str | None:
    for reason in reasons:
        if reason is not None:
            return reason
    return None


@dataclass(frozen=True)
class Fam:
    """A family as the benchmark sees it: constructor args and multiplier."""

    kind: str
    alpha: float | None = None
    beta: float | None = None
    F: str | None = None

    def make(self, P):
        return P.make_family(self.kind, self.alpha, beta=self.beta, F=self.F)

    def c0(self) -> float:
        return math.gamma(self.beta) / math.gamma(self.beta - self.alpha + 1.0)

    def mult(self, mp, t):
        """ph_zero(t), derived by hand from the family's p(t, h)."""
        a = self.alpha
        if self.kind in ("khalil", "katugampola"):
            return mp.mpf(t) ** (1 - mp.mpf(a))
        if self.kind == "gfd":
            c0 = mp.gamma(self.beta) / mp.gamma(self.beta - mp.mpf(a) + 1)
            return c0 * mp.mpf(t) ** (1 - mp.mpf(a))
        if self.kind == "nderiv":
            return mp.exp(mp.mpf(t) ** (-mp.mpf(a)))
        if self.kind == "cosine":
            return mp.cos(t) ** (1 - mp.mpf(a))
        if self.kind == "power":
            return mp.mpf(0)
        if self.kind == "custom" and self.F == CUSTOM_P:
            return 1 + mp.mpf(t) ** 2
        raise ValueError(f"no multiplier for {self}")

    def tau(self, t: float) -> float:
        """Closed-form integral of 1/ph_zero over [0, t] (power-law kinds)."""
        a = self.alpha
        base = t ** a / a
        return base / self.c0() if self.kind == "gfd" else base


CUSTOM_P = "t + h*(1+t^2)"

# The corpus by name: source text and an mpmath equivalent.  Setup fails
# loudly when pcalc's corpus names differ from these.
CORPUS = {
    "linear": ("t", lambda mp, t: t),
    "square": ("t^2", lambda mp, t: t ** 2),
    "cube": ("t^3", lambda mp, t: t ** 3),
    "sin": ("sin(t)", lambda mp, t: mp.sin(t)),
    "cos": ("cos(t)", lambda mp, t: mp.cos(t)),
    "exp": ("exp(t)", lambda mp, t: mp.exp(t)),
    "ln": ("ln(t)", lambda mp, t: mp.log(t)),
    "sqrt": ("sqrt(t)", lambda mp, t: mp.sqrt(t)),
    "lorentz": ("1/(1+t^2)", lambda mp, t: 1 / (1 + t ** 2)),
    "gauss": ("exp(-(t^2))", lambda mp, t: mp.exp(-(t ** 2))),
    "abs": ("abs(t)", lambda mp, t: abs(t)),
    "constant": ("1", lambda mp, t: mp.mpf(1)),
}


def _dref(fam: Fam, name: str, t: float) -> float:
    """Reference deformation derivative ph_zero(t) * f'(t)."""
    mp = _mp()
    fn = CORPUS[name][1]
    return float(fam.mult(mp, t) * mp.diff(lambda x: fn(mp, x), mp.mpf(t)))


def _families(rng: random.Random) -> dict[str, Fam]:
    return {
        "khalil": Fam("khalil", rng.uniform(0.4, 0.9)),
        "katugampola": Fam("katugampola", rng.uniform(0.4, 0.9)),
        "gfd": Fam("gfd", rng.uniform(0.4, 0.9), rng.uniform(1.2, 1.8)),
        "nderiv": Fam("nderiv", rng.uniform(0.3, 0.8)),
        "cosine": Fam("cosine", rng.uniform(0.3, 0.95)),
        "power": Fam("power", 2.0),
        "custom": Fam("custom", None, None, CUSTOM_P),
    }


def _point(rng: random.Random, fam: Fam) -> float:
    return rng.uniform(0.1, 1.4) if fam.kind == "cosine" else rng.uniform(0.3, 2.5)


# --- calculus ------------------------------------------------------------------

def _deriv_pair(P, fam, src: str, t: float):
    est = P.p_derivative_limit(fam, src, t)
    try:
        formula = P.p_derivative_formula(fam, src, t)
    except P.PcalcError as exc:
        formula = type(exc).__name__
    return est, formula


def _check_pair(expect_formula: str | None):
    """Limit vs formula to 1e-6 relative; formula vs reference to 1e-9."""

    def check(res, ref) -> str | None:
        est, formula = res
        if expect_formula is not None:
            if formula != expect_formula:
                return f"formula route gave {formula!r}, expected {expect_formula}"
            return _cap("limit vs reference", _rel(est.value, ref), 1e-6)
        if isinstance(formula, str):
            return f"formula route raised {formula}"
        return _first(_cap("formula vs reference", _rel(formula, ref), 1e-9),
                      _cap("limit vs formula", _rel(est.value, formula), 1e-6))

    return check


def build_calculus(P, seed: int) -> Workload:
    rng = random.Random(seed)
    specs = _families(rng)
    fams = {k: s.make(P) for k, s in specs.items()}
    names = [e.name for e in P.corpus_list()]
    if sorted(names) != sorted(CORPUS):
        raise SystemExit(f"pcalc corpus changed: {names}")
    slots: list[Slot] = []

    # many small ops: both derivative routes, every family kind x corpus
    for kind, spec in specs.items():
        fam = fams[kind]
        for name in names:
            src = CORPUS[name][0]
            t = _point(rng, spec)
            expect = None
            if kind == "power":
                expect = "EvaluationError"  # vanishing multiplier
            elif name == "abs":
                expect = "DifferentiationError"
            slots.append(Slot(
                "deriv_pair",
                lambda fam=fam, src=src, t=t: _deriv_pair(P, fam, src, t),
                _check_pair(expect),
                lambda spec=spec, name=name, t=t: _dref(spec, name, t)))

    # near the domain edge: the ladder skips the levels that leave (0, inf)
    for kind, name in (("khalil", "ln"), ("khalil", "sqrt"), ("gfd", "ln")):
        spec, fam, src = specs[kind], fams[kind], CORPUS[name][0]
        t = rng.uniform(1e-5, 1e-4)
        slots.append(Slot(
            "deriv_edge",
            lambda fam=fam, src=src, t=t: _deriv_pair(P, fam, src, t),
            _check_pair(None),
            lambda spec=spec, name=name, t=t: _dref(spec, name, t)))

    # two families whose derivatives coincide, and a fixed-ratio pair
    fam_ka = Fam("katugampola", specs["khalil"].alpha).make(P)
    for name in ("sin", "exp", "square", "lorentz"):
        t = rng.uniform(0.3, 2.5)
        slots.append(Slot(
            "compare_same",
            lambda src=CORPUS[name][0], t=t: P.compare_definitions(
                fams["khalil"], fam_ka, src, t, tol=1e-10),
            lambda r, ref: _cap("khalil/katugampola diff", r.abs_diff, 1e-7)))
    gspec = specs["gfd"]
    fam_kg = Fam("khalil", gspec.alpha).make(P)
    for name in ("exp", "cube", "sqrt", "square"):
        t = rng.uniform(0.3, 2.5)
        slots.append(Slot(
            "compare_ratio",
            lambda src=CORPUS[name][0], t=t: P.compare_definitions(
                fams["gfd"], fam_kg, src, t, tol=1e-10),
            lambda r, ref: _first(
                _cap("gfd ratio", abs(r.ratio - r.expected_ratio), 1e-8),
                _cap("expected ratio vs gamma quotient",
                     _rel(r.expected_ratio, ref), 1e-12)),
            gspec.c0))

    # weighted integrals: closed forms to 1e-9 at tol 1e-10
    def integral(kind, src, a, b, want):
        fam = fams[kind]
        slots.append(Slot(
            "p_integral",
            lambda: P.p_integral(fam, src, a, b, tol=1e-10),
            lambda r, ref: _cap("p_integral error", abs(r.value - ref), 1e-9),
            want))

    ak = specs["khalil"].alpha
    for k, src in ((0, "1"), (1, "t"), (2, "t^2")):
        T = rng.uniform(1.0, 4.0)
        integral("khalil", src, 0.0, T,
                 lambda T=T, k=k: T ** (k + ak) / (k + ak))
    akg = specs["katugampola"].alpha
    a, b = rng.uniform(0.2, 1.0), rng.uniform(1.5, 3.0)
    integral("katugampola", "t", a, b,
             lambda a=a, b=b: (b ** (1 + akg) - a ** (1 + akg)) / (1 + akg))
    T = rng.uniform(1.0, 4.0)
    integral("gfd", "1", 0.0, T, lambda T=T: specs["gfd"].tau(T))
    acos = specs["cosine"].alpha
    Tc = rng.uniform(0.5, 1.4)
    integral("cosine", "sin(t)", 0.0, Tc, lambda: (1.0 - math.cos(Tc) ** acos) / acos)
    Ts = rng.uniform(1.0, 4.0)

    def mp_sin_weight():
        mp = _mp()
        return float(mp.quad(lambda x: mp.sin(x) * x ** (ak - 1), [0, Ts]))

    integral("khalil", "sin(t)", 0.0, Ts, mp_sin_weight)
    a2, b2 = rng.uniform(0.3, 1.0), rng.uniform(1.5, 3.0)
    an = specs["nderiv"].alpha

    def mp_nderiv_one():
        mp = _mp()
        return float(mp.quad(lambda x: mp.exp(-(x ** -an)), [a2, b2]))

    integral("nderiv", "1", a2, b2, mp_nderiv_one)

    # inputs that call for the documented non-integrable outcome
    slots.append(Slot(
        "p_integral_error",
        lambda a=rng.uniform(0.2, 1.0): P.p_integral(fams["power"], "1", a, a + 1.0),
        raises="NonIntegrableError"))
    slots.append(Slot(
        "p_integral_error",
        lambda T=rng.uniform(1.0, 3.0): P.p_integral(fams["khalil"], "1/t", 0.0, T),
        raises="NonIntegrableError"))
    power15 = P.make_family("power", 1.5)
    slots.append(Slot(
        "deriv_error",
        lambda: P.p_derivative_limit(power15, "sqrt(t)", 0.0, side="left"),
        raises="EvaluationError"))

    # fundamental theorem both ways, integration by parts.  Functions and
    # endpoints are fixed per slot (the seed draws only the points), since
    # a singular endpoint or a harder integrand changes the work per pass.
    ftc_fams = (("khalil", 0.0), ("gfd", 0.0), ("katugampola", 0.1), ("khalil", 0.0))
    for (kind, a), name in zip(ftc_fams, ("sin", "square", "exp", "lorentz")):
        t = rng.uniform(1.0, 2.5)
        slots.append(Slot(
            "ftc_forward",
            lambda fam=fams[kind], src=CORPUS[name][0], a=a, t=t: P.ftc_forward(
                fam, src, a, t, tol=1e-8),
            lambda r, ref: _cap("forward residual", r, 1e-5)))
    for (kind, a), name in zip(ftc_fams, ("cube", "cos", "sqrt", "gauss")):
        t = rng.uniform(1.0, 2.5)
        slots.append(Slot(
            "ftc_backward",
            lambda fam=fams[kind], src=CORPUS[name][0], a=a, t=t: P.ftc_backward(
                fam, src, a, t, tol=1e-8),
            lambda r, ref: _cap("backward residual", r, 1e-6)))
    for f, g, a in (("t", "sin(t)", 0.0), ("t^2", "exp(t)", None), ("cos(t)", "sqrt(t)", None)):
        a = rng.uniform(0.3, 0.7) if a is None else a
        b = rng.uniform(1.5, 2.5)
        slots.append(Slot(
            "ibp",
            lambda f=f, g=g, a=a, b=b: P.integration_by_parts_check(
                fams["khalil"], f, g, a, b, tol=1e-9),
            lambda r, ref: _cap("parts residual", r, 1e-7)))

    # L1 norm of the weight: closed forms, and one divergent weight
    def l1(fam, a, b, want):
        slots.append(Slot(
            "check_l1",
            lambda: P.check_l1(fam, a, b),
            lambda r, ref: "did not converge" if not r.converged or r.diverged
            else _cap("L1 rel error", abs(r.estimate - ref) / ref, 1e-8),
            want))

    T = rng.uniform(0.02, 1.0)
    l1(fams["khalil"], 0.0, T, lambda T=T: specs["khalil"].tau(T))
    a3, b3 = rng.uniform(0.5, 1.0), rng.uniform(2.0, 4.0)
    l1(fams["katugampola"], a3, b3,
       lambda: specs["katugampola"].tau(b3) - specs["katugampola"].tau(a3))
    T2 = rng.uniform(0.02, 1.0)
    l1(fams["gfd"], 0.0, T2, lambda: specs["gfd"].tau(T2))
    log_weight = P.make_family("nderiv", 0.5, F="t")
    slots.append(Slot(
        "check_l1",
        lambda b=rng.uniform(0.5, 2.0): P.check_l1(log_weight, 0.0, b),
        lambda r, ref: None if r.diverged and not r.converged and math.isinf(r.estimate)
        else "log-divergent weight not reported as divergent"))

    # a small share of the remaining surface
    tk = rng.uniform(0.5, 2.0)
    slots.append(Slot(
        "offset",
        lambda: P.check_offset_solvability(fams["khalil"], tk),
        lambda r, ref: None if r.both else "khalil offsets not two-sided"))
    tp = rng.uniform(0.25, 2.0)
    slots.append(Slot(
        "offset",
        lambda: P.check_offset_solvability(fams["power"], tp),
        lambda r, ref: None if r.verdict_plus and not r.verdict_minus
        else "power minus-side verdict not false"))
    # a prime denominator keeps the exact-rational work the same per seed
    params = P.WeierstrassParams(a=41, b=0.9, alpha=2.0)
    x = Fraction(rng.randint(1, 22), 23)
    slots.append(Slot(
        "divergence",
        lambda: P.divergence_report(params, x, m_max=4),
        lambda r, ref: None if len(r) == 4 and all(
            s.quotient >= s.lower_bound for s in r) else "quotient below its floor"))
    xs = sorted(rng.uniform(-2.0, 3.0) for _ in range(5))
    verts = [(x_, rng.uniform(-1.0, 2.0)) for x_ in xs]
    slots.append(Slot(
        "polygon",
        lambda: P.polygonal_derivative_scan(verts, fams["power"], xs),
        lambda r, ref: _cap("polygon derivative", max(abs(e.value) for e in r), 1e-6)))

    def warm_up() -> None:
        fam = fams["khalil"]
        P.p_derivative_limit(fam, "sin(t)", 1.0)
        P.p_derivative_formula(fam, "sin(t)", 1.0)
        P.p_integral(fam, "1", 0.0, 1.0)
        P.check_l1(fam, 0.0, 0.5)

    return Workload("calculus", slots, warm_up)


# --- scan ----------------------------------------------------------------------

def _interval(rng: random.Random, fam: Fam) -> tuple[float, float]:
    if fam.kind == "cosine":
        a = rng.uniform(0.1, 0.4)
        return a, a + rng.uniform(0.4, 0.9)
    a = rng.uniform(0.5, 1.5)
    return a, a + rng.uniform(0.5, 1.5)


def build_scan(P, seed: int) -> Workload:
    rng = random.Random(seed)
    specs = [
        Fam("khalil", rng.uniform(0.3, 0.9)),
        Fam("katugampola", rng.uniform(0.3, 0.9)),
        Fam("gfd", rng.uniform(0.3, 0.9), rng.uniform(1.2, 1.8)),
        Fam("cosine", rng.uniform(0.3, 0.95)),
    ]
    fams = [s.make(P) for s in specs]
    searches = ("mvt", "rolle", "cauchy", "maxp")
    slots: list[Slot] = []
    for si, search in enumerate(searches):
        for fi, (spec, fam) in enumerate(zip(specs, fams)):
            kinked = fi == si  # a fixed quarter, one per search and family
            a, b = _interval(rng, spec)
            c0 = a + (b - a) * rng.uniform(0.3, 0.7)
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            if search == "mvt":
                src = f"abs(t-{c0!r})" if kinked else "t^2"
                call = lambda fam=fam, src=src, a=a, b=b: P.find_mvt_point(fam, src, a, b)
                want = c0 if kinked else mid
            elif search == "rolle":
                src = f"abs(t-{mid!r})-{half!r}" if kinked else f"(t-{a!r})*({b!r}-t)"
                call = lambda fam=fam, src=src, a=a, b=b: P.find_rolle_point(fam, src, a, b)
                want = mid
            elif search == "cauchy":
                src = f"abs(t-{c0!r})" if kinked else "t^2"
                call = lambda fam=fam, src=src, a=a, b=b: P.find_cauchy_mvt_point(
                    fam, src, "t", a, b)
                want = c0 if kinked else mid
            else:
                src = f"-abs(t-{c0!r})" if kinked else f"-((t-{c0!r})^2)"
                call = lambda fam=fam, src=src, a=a, b=b: P.max_principle_check(fam, src, a, b)
                want = c0
            kind = f"{search}_kink" if kinked else search
            slots.append(Slot(kind, call, _check_point(search, want, kinked)))

    def warm_up() -> None:
        P.find_mvt_point(fams[0], "t^2", 1.0, 2.0)
        P.max_principle_check(fams[0], "-((t-1.5)^2)", 1.0, 2.0)

    return Workload("scan", slots, warm_up)


def _check_point(search: str, want: float, kinked: bool):
    """The located point to 1e-6, and the search's own promise.

    A smooth maximum must be interior with a vanishing derivative; at a
    kinked maximum the two one-sided derivatives differ, so only the
    location is checked there.  Smooth roots must reach their tol.
    """

    def check(r, ref) -> str | None:
        err = _cap("point error", abs(r.c - want), 1e-6)
        if search == "maxp":
            if not r.interior or not (kinked or r.vanishes):
                return "maximum not interior or derivative not vanishing"
            return err
        if kinked:
            return err
        return _first(err, _cap("residual", r.residual, 1e-8))

    return check


# --- riccati -------------------------------------------------------------------

def _l1_cosine(alpha: float, T: float) -> float:
    # composite Simpson on a smooth integrand (T <= 1.2 < pi/2)
    n = 64
    h = T / n
    s = 1.0 + math.cos(T) ** (alpha - 1.0)
    for i in range(1, n):
        s += (4 if i % 2 else 2) * math.cos(i * h) ** (alpha - 1.0)
    return s * h / 3.0


def _horizon(spec: Fam, u0: float, q: str, c: float, frac: float) -> float:
    """T where the weight's L1 norm is frac of the largest feasible one.

    The certificate is feasible while l1 <= 1 / (2 max(|u0|, sqrt(q_inf))).
    """
    t_max = 1.2 if spec.kind == "cosine" else 4.0

    def slack(T: float) -> float:
        q_inf = {"0": 0.0, "c": c, "t": T, "sin": math.sin(min(T, math.pi / 2))}[q]
        l1 = _l1_cosine(spec.alpha, T) if spec.kind == "cosine" else spec.tau(T)
        return frac / (2.0 * max(abs(u0), math.sqrt(q_inf))) - l1

    lo, hi = 0.0, t_max
    if slack(hi) > 0.0:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slack(mid) > 0.0 else (lo, mid)
    return lo


# (family, q, grid_n): one operation per grid size, so each latency group
# repeats a single problem; each family and each q kind once.  q = 0 and
# constant q go to families whose tau has a closed form.
_RICCATI_PLAN = (
    ("khalil", "0", 64), ("katugampola", "c", 128),
    ("gfd", "sin", 256), ("cosine", "t", 512),
)


def _closed_form(spec: Fam, q: str, c: float, u0: float, ts) -> list[float]:
    out = []
    for t in ts:
        tau = spec.tau(t) if t > 0.0 else 0.0
        if q == "0":
            out.append(u0 / (1.0 + u0 * tau))
        else:
            r = math.sqrt(c)
            th = math.tanh(r * tau)
            out.append(r * (u0 + r * th) / (r + u0 * th))
    return out


def build_riccati(P, seed: int) -> Workload:
    rng = random.Random(seed)
    specs = {
        "khalil": Fam("khalil", rng.uniform(0.3, 0.8)),
        "katugampola": Fam("katugampola", rng.uniform(0.3, 0.8)),
        "gfd": Fam("gfd", rng.uniform(0.3, 0.8), rng.uniform(1.2, 1.8)),
        "cosine": Fam("cosine", rng.uniform(0.4, 0.9)),
    }
    fams = {k: s.make(P) for k, s in specs.items()}
    slots: list[Slot] = []
    for kind, q, n in _RICCATI_PLAN:
        spec, fam = specs[kind], fams[kind]
        u0 = rng.uniform(0.5, 1.5)
        c = rng.uniform(0.5, 2.0)
        T = _horizon(spec, u0, q, c, rng.uniform(0.4, 0.7))
        q_src = {"0": "0", "c": repr(c), "t": "t", "sin": "sin(t)"}[q]
        problem = P.RiccatiProblem(family=fam, q=q_src, u0=u0, T=T, grid_n=n)

        def call(problem=problem, fam=fam, q_src=q_src):
            sol = P.solve_riccati(problem)
            return sol, P.riccati_residual(fam, sol, q_src)

        def check(res, ref, spec=spec, q=q, c=c, u0=u0) -> str | None:
            sol, resid = res
            err = _first(_cap("midpoint residual", resid, 1e-5),
                         _cap("grid residual", sol.residual, 1e-5))
            if err is None and q in ("0", "c") and spec.kind != "cosine":
                exact = _closed_form(spec, q, c, u0, sol.grid)
                worst = max(abs(u - e) for u, e in zip(sol.u, exact))
                err = _cap("closed-form error", worst, 1e-5)
            return err

        slots.append(Slot(f"riccati_n{n}", call, check))

    def warm_up() -> None:
        fam = fams["khalil"]
        T = _horizon(specs["khalil"], 1.0, "0", 0.0, 0.5)
        sol = P.solve_riccati(P.RiccatiProblem(family=fam, q="0", u0=1.0, T=T, grid_n=16))
        P.riccati_residual(fam, sol, "0")

    return Workload("riccati", slots, warm_up, min_passes=11)


# --- cli -----------------------------------------------------------------------

def _parse_output(text: str, fmt: str):
    """JSON envelope -> result dict; CSV -> list of row dicts."""
    if fmt == "json":
        doc = json.loads(text)
        if sorted(doc) != ["command", "diagnostics", "inputs", "result"]:
            raise ValueError(f"envelope keys {sorted(doc)}")
        return doc["result"]
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")

    def cell(v: str):
        if v == "":
            return None
        if v in ("true", "false"):
            return v == "true"
        return float(v)

    return [dict(zip(header, map(cell, ln.split(",")))) for ln in lines[1:]]


def _one(out):
    return out[0] if isinstance(out, list) else out


def build_cli(P, seed: int) -> Workload:
    """P is None here: the operations are fresh `pcalc` processes."""
    rng = random.Random(seed)
    OUT.mkdir(exist_ok=True)
    vert_file = OUT / f"vertices-{os.getpid()}.csv"
    xs = sorted(rng.uniform(-2.0, 3.0) for _ in range(5))
    vert_file.write_text("".join(f"{x!r},{rng.uniform(-1.0, 2.0)!r}\n" for x in xs))
    launcher = {"argv": [sys.executable, "-m", "pcalc.cli"], "env": {}}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PCALC_TOL", None)

    def run(args: list[str]):
        proc = subprocess.run(launcher["argv"] + args, cwd=ROOT, capture_output=True,
                              text=True, env={**env, **launcher["env"]}, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    kh = Fam("khalil", rng.uniform(0.3, 0.9))
    fam_args = ["--family", "khalil", "--alpha", repr(kh.alpha)]
    slots: list[Slot] = []

    def ok_slot(kind, args, fmt, check, reference=lambda: None):
        def judge(res, ref):
            code, out, err = res
            if code != 0:
                return NoAnswer(f"exit {code}: {err.strip()[-200:]}")
            try:
                return check(_parse_output(out, fmt), ref)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return f"unreadable output: {exc!r}"
        slots.append(Slot(f"cli.{kind}.{fmt}", lambda: run(args + ["--format", fmt]),
                          judge, reference))

    for fmt in ("json", "csv"):
        t = rng.uniform(0.5, 2.5)
        name = rng.choice(("sin", "exp", "square", "lorentz"))
        ok_slot("deriv", ["deriv", *fam_args, "--f", CORPUS[name][0], "--t", repr(t)], fmt,
                lambda r, ref: _first(
                    _cap("formula vs reference", _rel(_one(r)["formula"], ref), 1e-9),
                    _cap("limit vs formula",
                         _rel(_one(r)["limit"], _one(r)["formula"]), 1e-6)),
                lambda name=name, t=t: _dref(kh, name, t))
        T = rng.uniform(1.0, 4.0)
        ok_slot("integral", ["integral", *fam_args, "--f", "1", "--a", "0", "--b", repr(T),
                             "--tol", "1e-10"], fmt,
                lambda r, ref, T=T: _cap("integral error", abs(_one(r)["value"] - kh.tau(T)),
                                         1e-9))
        direction, cap = ("forward", 1e-5) if fmt == "json" else ("backward", 1e-6)
        ok_slot("ftc", ["ftc", *fam_args, "--direction", direction, "--f",
                        CORPUS[rng.choice(("sin", "square", "exp", "cos"))][0],
                        "--a", "0", "--b", repr(rng.uniform(1.0, 2.5))], fmt,
                lambda r, ref, cap=cap: _cap("ftc residual", _one(r)["residual"], cap))
        ok_slot("ibp", ["ibp", *fam_args, "--f", "t", "--g", "sin(t)", "--a",
                        repr(rng.uniform(0.3, 0.7)), "--b", repr(rng.uniform(1.5, 2.5)),
                        "--tol", "1e-9"], fmt,
                lambda r, ref: _cap("parts residual", _one(r)["residual"], 1e-7))
        a = rng.uniform(0.5, 1.5)
        b = a + rng.uniform(0.5, 1.5)
        mid = 0.5 * (a + b)
        ok_slot("mvt", ["mvt", *fam_args, "--f", "t^2", "--a", repr(a), "--b", repr(b)], fmt,
                lambda r, ref, mid=mid: _cap("point error", abs(_one(r)["c"] - mid), 1e-6))
        ok_slot("rolle", ["rolle", *fam_args, "--f", f"(t-{a!r})*({b!r}-t)", "--a", repr(a),
                          "--b", repr(b)], fmt,
                lambda r, ref, mid=mid: _cap("point error", abs(_one(r)["c"] - mid), 1e-6))
        ok_slot("maxprinciple", ["maxprinciple", *fam_args, f"--f=-((t-{mid!r})^2)",
                                 "--a", repr(a), "--b", repr(b)], fmt,
                lambda r, ref, mid=mid: _first(
                    None if _one(r)["vanishes"] and _one(r)["interior"]
                    else "maximum not interior or not vanishing",
                    _cap("point error", abs(_one(r)["c"] - mid), 1e-6)))
        ok_slot("hypothesis", ["hypothesis", "--family", "power", "--alpha", "2",
                               "--t", repr(rng.uniform(0.25, 2.0))], fmt,
                _check_hypothesis)
        u0 = rng.uniform(0.5, 1.5)
        T = _horizon(kh, u0, "0", 0.0, rng.uniform(0.4, 0.7))
        ok_slot("riccati", ["riccati", *fam_args, "--q", "0", "--u0", repr(u0),
                            "--T", repr(T)], fmt,
                lambda r, ref, u0=u0: _check_riccati_rows(r, kh, u0))
        x = f"{rng.randint(1, 22)}/23"
        ok_slot("weierstrass", ["weierstrass", "--a", "41",
                                "--b", "0.9", "--alpha", "2", "--x", x, "--m", "4"], fmt,
                lambda r, ref: None if all(
                    s["quotient"] >= s["lower_bound"]
                    for s in (r["steps"] if isinstance(r, dict) else r))
                else "quotient below its floor")
        ok_slot("polygon", ["polygon", "--family", "power", "--alpha", "2",
                            "--vertices", str(vert_file.relative_to(ROOT))], fmt,
                lambda r, ref: _cap("polygon derivative", max(
                    abs(p["value"]) for p in (r["points"] if isinstance(r, dict) else r)),
                    1e-6))
        ok_slot("compare", ["compare", *fam_args, "--family2", "katugampola",
                            "--alpha2", repr(kh.alpha), "--f",
                            CORPUS[rng.choice(("sin", "exp", "cube"))][0],
                            "--t", repr(rng.uniform(0.5, 2.5)), "--tol", "1e-10"], fmt,
                lambda r, ref: _cap("khalil/katugampola diff", _one(r)["abs_diff"], 1e-7))

    # inputs that call for a documented error exit
    def err_slot(kind, args, code, json_type=None):
        def judge(res, ref):
            got, out, err = res
            if "Traceback" in err:
                return NoAnswer("traceback: " + err.strip().splitlines()[-1][:160])
            if got != code:
                return NoAnswer(f"exit {got}, expected {code}")
            if json_type is not None:
                try:
                    typ = json.loads(err)["error"]["type"]
                except (ValueError, KeyError, TypeError):
                    return NoAnswer(f"stderr is not the JSON error document: {err[:120]!r}")
                return None if typ == json_type else NoAnswer(f"error type {typ}")
            return None if err.startswith("error: ") else NoAnswer(f"stderr {err[:120]!r}")
        slots.append(Slot(f"cli.error.{kind}", lambda: run(args), judge))

    err_slot("malformed", ["deriv", *fam_args, "--f",
                           rng.choice(("sin(t", "t+*2", "2^", "foo(t)")), "--t", "1"], 1)
    depth = rng.randint(300, 600)
    err_slot("depth", ["deriv", *fam_args, "--f", "(" * depth + "t" + ")" * depth,
                       "--t", "1"], 1)
    err_slot("tol", ["integral", *fam_args, "--f", "1", "--a", "0", "--b", "1",
                     "--tol", repr(rng.uniform(0.05, 0.5))], 1)
    missing = OUT / f"no-such-dir-{seed}" / "x.json"
    err_slot("output", ["integral", *fam_args, "--f", "1", "--a", "0", "--b", "1",
                        "--output", str(missing.relative_to(ROOT))], 1)
    err_slot("infeasible", ["riccati", *fam_args, "--q", "0", "--u0", "1",
                            "--T", repr(rng.uniform(5.0, 9.0)), "--format", "json"], 2,
             "InfeasibleCertificateError")

    def warm_up() -> None:
        run(["deriv", *fam_args, "--f", "sin(t)", "--t", "1"])

    return Workload("cli", slots, warm_up, in_process=False, min_passes=5,
                    launcher=launcher)


def _check_hypothesis(r, ref) -> str | None:
    if isinstance(r, dict):
        if not r["verdict_plus"] or r["verdict_minus"]:
            return "power offsets: expected plus true, minus false"
        rows = r["records"]
    else:
        rows = r
    for row in rows:
        if row["h_minus"] is not None:
            return "power family solved the minus side"
        err = _cap("h_plus vs sqrt(eps)",
                   abs(row["h_plus"] - math.sqrt(row["epsilon"])) / math.sqrt(row["epsilon"]),
                   1e-4)
        if err:
            return err
    return None


def _check_riccati_rows(r, spec: Fam, u0: float) -> str | None:
    if isinstance(r, dict):
        ts, us = r["grid"], r["u"]
    else:
        ts, us = [row["t"] for row in r], [row["u"] for row in r]
    exact = _closed_form(spec, "0", 0.0, u0, ts)
    return _cap("closed-form error", max(abs(u - e) for u, e in zip(us, exact)), 1e-5)


WORKLOADS = {
    "calculus": build_calculus,
    "scan": build_scan,
    "riccati": build_riccati,
    "cli": build_cli,
}
NAMES = tuple(WORKLOADS)
