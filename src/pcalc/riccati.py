"""Quadratic initial-value problems driven by a deformation derivative.

Solves D u = q(t) - u(t)^2 on [0, T], u(0) = u0, by Picard iteration on
the equivalent integral form u = u0 + I(q - u^2).  A contraction
certificate (ball radius b, contraction factor k = 2 b |1/ph_zero|_L1)
gates the iteration; an infeasible certificate raises unless the caller
overrides, and the override is recorded in the solution.

Discretization: nodes are uniform in the transformed time tau(t) =
integral of 1/ph_zero (_TauMachine), where the problem is an ordinary
du/dtau = q - u^2.  The running integral is summed per grid panel at the
15 Kronrod nodes, whose weights fold in 1/ph_zero; past the first
interval each node reads tau from its own panel's samples (the spectral
integration matrix, Greengard 1991; _gk15_tables solves it once).  A
panel reads the iterate through one cubic stencil in tau, so its sum of
q - u^2 is a quadratic form A_p - U_p' M_p U_p in four stencil values;
a Picard sweep is a gather, two small einsums and a running sum into the
spare of two buffers.  On arrays this small numpy's Python-level wrappers
(np.clip, np.select, np.max) cost more than the arithmetic, so each step
calls a ufunc or its reduce directly.  Set-up samples ph_zero and q
through their marked array forms; expr.resolve gives the marked points
to the scalar forms in index order, and _weight checks ph_zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .derivatives import as_array_fn
from .errors import (DivergenceError, InfeasibleCertificateError, NonIntegrableError,
                     ParameterError)
from .expr import resolve
from .families import PFunction, check_l1
from .quadrature import _NODES, _WEIGHTS_K, endpoint_exponent

__all__ = ["RiccatiProblem", "ContractionCertificate", "RiccatiSolution",
           "contraction_precheck", "solve_riccati", "riccati_residual"]

_MAX_SWEEPS = 200
_REF_CELLS = 512
_NEWTON_STEPS = 64
_NODES_A, _WEIGHTS_K_A = np.array(_NODES), np.array(_WEIGHTS_K)  # the GK15 rule as arrays
_LAGRANGE = ((1, 2, 3, -6.0), (0, 2, 3, 2.0), (0, 1, 3, -2.0), (0, 1, 2, 6.0))


@functools.cache
def _gk15_tables() -> tuple[np.ndarray, np.ndarray]:
    """Maps of a cell's 15 Kronrod samples, solved on first use, not at import
    (LAPACK costs RSS): samples @ G are the power coefficients, constant
    first, of the integral from r = -1 of the samples' interpolant, and
    samples @ S_T that integral at each node."""
    vander, powers = np.vander(_NODES_A, 15, increasing=True), np.arange(1, 16)
    G = np.linalg.solve(vander.T, np.eye(15)) / powers
    node_integrals = (_NODES_A[:, None] ** powers - (-1.0) ** powers) / powers  # row k: node k
    return (np.column_stack([-(G @ (-1.0) ** powers), G]),
            np.linalg.solve(vander.T, node_integrals.T))


@dataclass(frozen=True)
class RiccatiProblem:
    family: PFunction
    q: object  # Expr, source text, or callable of t
    u0: float
    T: float
    grid_n: int = 64
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ParameterError(f"horizon T must be finite and positive, got {self.T!r}")
        if not math.isfinite(self.u0):
            raise ParameterError("u0 must be finite")
        if not isinstance(self.grid_n, int) or self.grid_n < 16:
            raise ParameterError(f"grid_n must be an int >= 16, got {self.grid_n!r}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ParameterError("tol must be positive")


@dataclass(frozen=True)
class ContractionCertificate:
    """Feasibility data for the Picard iteration on a ball of radius b.

    feasible means some b with |u0| <= b satisfies both
    l1_norm <= b / (q_inf + b^2) (the ball maps into itself) and
    k = 2 b l1_norm < 1 (the map contracts).  margin = min(b / (q_inf + b^2),
    1 / (2 b)) - l1_norm is largest exactly at b = max(|u0|, 1e-6, sqrt(q_inf)).
    """

    feasible: bool
    b: float
    k: float
    l1_norm: float
    q_inf: float
    margin: float


@dataclass(frozen=True)
class RiccatiSolution:
    grid: tuple[float, ...]
    u: tuple[float, ...]
    tau: tuple[float, ...]
    iterations: int
    final_delta: float
    residual: float
    certificate: ContractionCertificate
    updates: tuple[float, ...]
    max_iterate_norm: float
    override: bool
    _machine: object = field(repr=False, compare=False, default=None)
    _t_mid: object = field(repr=False, compare=False, default=None)  # t at the tau-midpoints

    def interpolate(self, t: float) -> float:
        """Cubic readout of u at an arbitrary time in [0, T]."""
        if self._machine is None:
            raise ParameterError("solution carries no mesh; cannot interpolate")
        s, dtau = self._machine.tau_of(t), self.tau[1] - self.tau[0]
        i0, _, w = _value_weights(s, dtau, len(self.u) - 1)
        return float(np.asarray(self.u)[i0[0]:i0[0] + 4] @ w[0])


def _clamp(x, lo, hi) -> np.ndarray:
    return np.minimum(np.maximum(x, lo), hi)  # np.clip's values without its Python wrapper


def _weight(fam: PFunction, m: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t = y^m and W(y) = (dt/dy) / ph_zero(t), 0 where t underflows.  After resolve,
    refuses the first sample with t > 0 where ph_zero or W is not finite, or ph_zero <= 0."""
    t = y ** m
    live = t > 0.0
    ph, x = np.full(t.shape, math.inf), t[live]
    ph[live] = resolve(fam.ph_zero_array(x), x, fam.ph_zero)
    with np.errstate(divide="ignore", over="ignore"):
        w = m * y ** (m - 1.0) / ph
    bad = live & ~(np.isfinite(ph) & (ph > 0.0) & np.isfinite(w))
    if bad.any():
        tb, pb = float(t[bad][0]), float(ph[bad][0])  # the first, in resolve's order
        raise ParameterError(f"solver needs ph_zero > 0 on (0, T]; found {pb!r} at t={tb:g}")
    return t, w


def _horner_value(C: np.ndarray, r: np.ndarray) -> np.ndarray:
    p = C[15].copy()  # tau - taus[j] at cell coordinate r, C = _coef[:, j]; in place on a copy
    for k in range(14, -1, -1):
        p *= r
        p += C[k]
    return p


def _horner(C: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p, dp = C[15].copy(), np.zeros(r.shape)  # the value and its r-derivative
    for k in range(14, -1, -1):
        dp *= r
        dp += p
        p *= r
        p += C[k]
    return p, dp


class _TauMachine:
    """Transformed time tau(t) = integral_0^t 1/ph_zero and its inverse.

    Works in y = t^(1/m), m fitted to the left-endpoint exponent of 1/ph_zero,
    so each reference cell sees a nearly linear weight W(y), sampled at its
    15 Kronrod nodes: taus accumulates the GK15 cell sums, and _coef (a row
    per power of the cell coordinate r) the integral from r = -1 of the
    samples' polynomial.  tau_of reads it by a value-only Horner loop;
    t_of_tau inverts the solver's grid and tau-midpoints in one call by
    Newton steps (_horner: value and slope) from each cell's linear guess,
    bisecting when a step leaves a shrinking bracket (3-4 passes).
    """

    __slots__ = ("fam", "T", "m", "ys", "taus", "tau_total", "_coef", "_mid", "_half")

    def __init__(self, fam: PFunction, T: float) -> None:
        self.fam, self.T = fam, T
        gamma = endpoint_exponent(lambda x: 1.0 / fam.ph_zero(x), 0.0, T, "left")
        self.m = 1.0 if gamma is None else min(2.0 / (1.0 - gamma), 64.0)
        ys = self.ys = T ** (1.0 / self.m) * np.arange(_REF_CELLS + 1) / _REF_CELLS
        mid, half = self._mid, self._half = 0.5 * (ys[:-1] + ys[1:]), 0.5 * (ys[1:] - ys[:-1])
        _, vals = _weight(fam, self.m, mid[:, None] + half[:, None] * _NODES_A)
        self.taus = np.concatenate([[0.0], np.cumsum(half * (vals @ _WEIGHTS_K_A))])
        self.tau_total = float(self.taus[-1])
        self._coef = (half[:, None] * (vals @ _gk15_tables()[0])).T  # one row per power

    def tau_of(self, t) -> np.ndarray:
        t = np.array(t, dtype=float, copy=None, ndmin=1)
        y = np.minimum(np.maximum(t, 0.0) ** (1.0 / self.m), self.ys[-1])
        j = _clamp(self.ys.searchsorted(y) - 1, 0, len(self.ys) - 2)
        r = (y - self._mid[j]) / self._half[j]
        tau = self.taus[j] + _horner_value(self._coef[:, j], r)
        return np.where(t <= 0.0, 0.0, np.where(t >= self.T, self.tau_total, tau))

    def t_of_tau(self, s) -> np.ndarray:
        s = np.array(s, dtype=float, copy=None, ndmin=1)
        j = _clamp(self.taus.searchsorted(s) - 1, 0, len(self.taus) - 2)
        goal = s - self.taus[j]
        inside = (s > 0.0) & (s < self.tau_total)  # the others are set below
        width = self.taus[j + 1] - self.taus[j]  # Newton starts from the cell's linear guess
        lo, hi, C = np.full(s.shape, -1.0), np.ones(s.shape), self._coef[:, j]
        r = _clamp(np.divide(2.0 * goal, width, out=hi.copy(), where=width > 0.0) - 1.0, lo, hi)
        for _ in range(_NEWTON_STEPS):
            f, d = _horner(C, r)
            f -= goal
            below, rising = f < 0.0, d > 0.0
            lo, hi = np.where(below, r, lo), np.where(below, hi, r)
            step = np.divide(f, d, out=np.zeros(f.shape), where=rising)
            prev, r = r, _clamp(r - step, -1.0, 1.0)  # a root on a cell edge
            r = np.where(rising & (lo <= r) & (r <= hi), r, 0.5 * (lo + hi))
            if np.logical_and.reduce((np.abs(r - prev) <= 1e-15) | ~inside):
                break
        t = (self._mid[j] + self._half[j] * r) ** self.m
        return np.where(inside, t, np.where(s <= 0.0, 0.0, self.T))


def _value_weights(s: np.ndarray, dtau: float, n: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Cubic Lagrange stencils reading a grid function uniform in tau at s:
    each one's first grid index, distances to its four nodes in units of
    dtau, and value weights (basis j: other nodes a, b, c, prod(j - k))."""
    pos = s / dtau
    i0 = _clamp(np.floor(pos).astype(int) - 1, 0, n - 3)
    xi = pos - i0
    d = (xi, xi - 1.0, xi - 2.0, xi - 3.0)
    return i0, d, _columns(d, lambda a, b, c: a * b * c)


def _columns(d: tuple, term) -> np.ndarray:
    out = np.empty((len(d[0]), 4))  # a row of four weights per point, filled a column at a time
    for j, (a, b, c, den) in enumerate(_LAGRANGE):
        np.divide(term(d[a], d[b], d[c]), den, out=out[:, j])
    return out


def _stencil_rows(s: np.ndarray, dtau: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid indices, value weights and derivative weights (per unit of
    s / dtau) of the stencils _value_weights places at s."""
    i0, d, w = _value_weights(s, dtau, n)
    dw = _columns(d, lambda a, b, c: b * c + a * c + a * b)
    return i0[:, None] + np.arange(4), w, dw


@dataclass
class _Discretization:
    t_nodes: np.ndarray
    t_mid: np.ndarray
    tau_nodes: np.ndarray
    stencil: np.ndarray  # grid panel p reads U[stencil[p]]
    A: np.ndarray  # panel p adds A[p] - U[stencil[p]] @ M[p] @ U[stencil[p]]
    M: np.ndarray
    q_grid: np.ndarray


def _build_discretization(qa, machine: _TauMachine, n: int) -> _Discretization:
    targets = machine.tau_total * np.arange(2 * n + 1) / (2 * n)  # even entries: the grid
    t_all = machine.t_of_tau(targets)
    t_nodes = t_all[::2]
    # panels in y: the first grid interval is split to resolve the endpoint
    y_nodes = t_nodes ** (1.0 / machine.m)
    nsub0 = max(1, math.ceil(machine.m / 6.0))
    first = y_nodes[0] + (y_nodes[1] - y_nodes[0]) * np.arange(nsub0 + 1) / nsub0
    edges = np.concatenate([first, y_nodes[2:]])
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    X, W = _weight(machine.fam, machine.m, mid[:, None] + half[:, None] * _NODES_A)
    WT = _WEIGHTS_K_A * half[:, None] * W
    # tau at the nodes from each panel's samples; the first interval, where
    # W may be a fractional power of y (m is fitted), reads the table
    local = targets[2:2 * n:2, None] + half[nsub0:, None] * (W[nsub0:] @ _gk15_tables()[1])
    tau_at = np.concatenate([machine.tau_of(X[:nsub0].ravel()), local.ravel()])
    Lw = _value_weights(tau_at, float(targets[2]), n)[2].reshape(*W.shape, 4)
    # every node of grid panel p reads U through the stencil starting at clip(p - 1, 0, n - 3)
    panels = np.concatenate([[0], nsub0 + np.arange(n - 1)])
    A = np.add.reduceat(np.add.reduce(WT * qa(X.ravel()).reshape(W.shape), axis=1), panels)
    M = np.add.reduceat((WT[..., None] * Lw).swapaxes(1, 2) @ Lw, panels)
    stencil = _clamp(np.arange(n) - 1, 0, n - 3)[:, None] + np.arange(4)
    return _Discretization(t_nodes, t_all[1::2], targets[::2], stencil, A, M, qa(t_nodes))


def contraction_precheck(fam: PFunction, q, T: float, u0: float) -> ContractionCertificate:
    """The self-map-plus-contraction certificate at its exact best radius.

    The L1 norm of 1/ph_zero over [0, T] must be finite (its check must
    converge at tol 1e-9); q is bounded by dense sampling.  k is the
    contraction factor at b (see ContractionCertificate), feasible or not.
    """
    return _certificate(fam, as_array_fn(q), T, u0)


def _certificate(fam: PFunction, qa, T: float, u0: float) -> ContractionCertificate:
    rep = check_l1(fam, 0.0, T, tol=1e-9)
    if rep.diverged or not rep.converged:
        raise NonIntegrableError(f"the L1 check of 1/ph_zero on [0, {T:g}] did not converge; "
                                 "no contraction setup exists")
    l1 = rep.estimate
    qs = np.abs(qa(np.linspace(0.0, T, 2049)))
    q_inf = float(qs[0] if math.isnan(qs[0]) else np.fmax.reduce(qs))  # as max() over the points
    # sqrt last: a NaN q_inf leaves b alone; b / (...) first: NaN margin if q_inf is not finite
    b = max(abs(u0), 1e-6, math.sqrt(q_inf))
    margin = min(b / (q_inf + b * b), 1.0 / (2.0 * b)) - l1
    return ContractionCertificate(feasible=margin > 0.0, b=b, k=2.0 * b * l1,
                                  l1_norm=l1, q_inf=q_inf, margin=margin)


def solve_riccati(problem: RiccatiProblem, *, override: bool = False,
                  start: float | None = None) -> RiccatiSolution:
    """Picard-iterate the integral form of the quadratic problem.

    start chooses the constant initial iterate (defaults to u0); it must
    lie inside the certified ball for the contraction argument to apply.
    Raises InfeasibleCertificateError when the certificate fails and override
    is not set, then ParameterError where _weight refuses ph_zero on (0, T],
    then DivergenceError if updates grow five sweeps in a row or hit the cap.
    """
    fam, T, u0, n, tol = problem.family, problem.T, problem.u0, problem.grid_n, problem.tol
    if start is not None and not math.isfinite(start):
        raise ParameterError("start must be finite")
    qa = as_array_fn(problem.q)

    cert = _certificate(fam, qa, T, u0)
    if not cert.feasible and not override:
        raise InfeasibleCertificateError(
            f"contraction certificate infeasible (k={cert.k:.6g}, "
            f"margin={cert.margin:.3g}); pass override=True to iterate anyway")

    machine = _TauMachine(fam, T)
    if not machine.tau_total / n > 0.0:
        raise ParameterError(f"transformed horizon tau(T) = {machine.tau_total!r} underflows")
    disc = _build_discretization(qa, machine, n)

    U, new = np.full(n + 1, float(u0) if start is None else float(start)), np.empty(n + 1)
    updates: list[float] = []
    max_norm, growth = float(np.maximum.reduce(np.abs(U))), 0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends in the finiteness check
        for _ in range(_MAX_SWEEPS):
            Up = U[disc.stencil]
            panel = disc.A - np.einsum("pi,pi->p", Up, np.einsum("pij,pj->pi", disc.M, Up))
            new[0] = u0
            np.add(np.add.accumulate(panel, out=new[1:]), u0, out=new[1:])
            delta = float(np.maximum.reduce(np.abs(new - U)))
            if not math.isfinite(delta):
                raise DivergenceError("iterate became non-finite")
            growth = growth + 1 if updates and delta > updates[-1] else 0
            updates.append(delta)
            U, new = new, U  # the old iterate's buffer takes the next sweep
            max_norm = max(max_norm, float(np.maximum.reduce(np.abs(U))))
            if delta <= tol:
                break
            if growth >= 5:
                raise DivergenceError(f"updates grew for five consecutive sweeps (last {delta:g})")
        else:
            raise DivergenceError(
                f"no convergence within {_MAX_SWEEPS} sweeps; last update {updates[-1]:g}")

    # interior residual of the converged grid function, 4th-order in tau
    i = np.arange(2, n - 1)
    du = (U[i - 2] - 8.0 * U[i - 1] + 8.0 * U[i + 1] - U[i + 2]) / (12.0 * disc.tau_nodes[1])
    residual = float(np.maximum.reduce(np.abs(du + U[i] ** 2 - disc.q_grid[i])))

    return RiccatiSolution(
        grid=tuple(disc.t_nodes.tolist()), u=tuple(U.tolist()),
        tau=tuple(disc.tau_nodes.tolist()), iterations=len(updates), final_delta=updates[-1],
        residual=residual, certificate=cert, updates=tuple(updates), max_iterate_norm=max_norm,
        override=override, _machine=machine, _t_mid=disc.t_mid)


def riccati_residual(fam: PFunction, sol: RiccatiSolution, q) -> float:
    """Sup-norm defect |du/dtau + u^2 - q| at the tau-midpoints of the grid.

    Reads the solution through its cubic tau-interpolant, so a perturbed
    grid value shows up as a large defect.
    """
    qa, u = as_array_fn(q), np.asarray(sol.u)
    n, dtau = len(u) - 1, sol.tau[1] - sol.tau[0]
    s = (np.arange(n) + 0.5) * dtau
    idx, w, dw = _stencil_rows(s, dtau, n)
    val = np.einsum("ij,ij->i", w, u[idx])
    der = np.einsum("ij,ij->i", dw, u[idx]) / dtau
    t_mid = sol._t_mid if sol._t_mid is not None else (  # a detached solution inverts again
        sol._machine or _TauMachine(fam, sol.grid[-1])).t_of_tau(s)
    return float(np.maximum.reduce(np.abs(der + val * val - qa(t_mid))))
