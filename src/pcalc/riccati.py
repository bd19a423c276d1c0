"""Quadratic initial-value problems driven by a deformation derivative.

Solves D u = q(t) - u(t)^2 on [0, T], u(0) = u0, by Picard iteration on
the equivalent integral form u = u0 + I(q - u^2).  A contraction
certificate (ball radius b, contraction factor k = 2 b |1/ph_zero|_L1)
gates the iteration; an infeasible certificate raises unless the caller
overrides, and the override is recorded in the solution.

Discretization: nodes are placed uniformly in the transformed time
tau(t) = integral of 1/ph_zero, where the problem is an ordinary
du/dtau = q - u^2.  tau is one table: on each reference cell the weight
is sampled at the 15 Kronrod nodes, and tau is the integral of the
polynomial interpolating those samples, read by polynomial evaluation
and inverted by safeguarded Newton steps.  The running integral is
accumulated per panel with fixed Kronrod nodes whose weights fold in the
1/ph_zero factor, and the iterate is read at quadrature abscissae through
cubic stencils in tau.  All per-sweep work is plain numpy array
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .derivatives import as_scalar_fn
from .errors import (
    DivergenceError,
    InfeasibleCertificateError,
    NonIntegrableError,
    ParameterError,
)
from .families import PFunction, check_l1
from .quadrature import _NODES, _WEIGHTS_K, endpoint_exponent

__all__ = [
    "RiccatiProblem", "ContractionCertificate", "RiccatiSolution",
    "contraction_precheck", "solve_riccati", "riccati_residual",
]

_MAX_SWEEPS = 200
_REF_CELLS = 512
_NEWTON_STEPS = 64
_VANDER = np.vander(_NODES, 15, increasing=True)


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
    k = 2 b l1_norm < 1 (the map contracts).
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

    def interpolate(self, t: float) -> float:
        """Cubic readout of u at an arbitrary time in [0, T]."""
        machine: _TauMachine = self._machine  # type: ignore[assignment]
        if machine is None:
            raise ParameterError("solution carries no mesh; cannot interpolate")
        u = np.asarray(self.u)
        dtau = self.tau[1] - self.tau[0]
        idx, w, _ = _stencil_rows(machine.tau_of(t), dtau, len(u) - 1)
        return float(u[idx[0]] @ w[0])


def _weight(fam: PFunction, m: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t = y^m and the weight W(y) = (dt/dy) / ph_zero(t); W is 0 where t underflows."""
    t = y ** m
    ph = np.array([fam.ph_zero(float(x)) if x > 0.0 else math.inf for x in t.flat])
    with np.errstate(divide="ignore", over="ignore"):
        w = m * y ** (m - 1.0) / ph.reshape(t.shape)
    if not np.all(np.isfinite(w)):
        raise NonIntegrableError("weight 1/ph_zero is not finite on (0, T]")
    return t, w


class _TauMachine:
    """Transformed time tau(t) = integral_0^t 1/ph_zero and its inverse.

    Works in y = t^(1/m), m chosen from the left-endpoint exponent of
    1/ph_zero, so that every reference cell sees a nearly linear weight
    W(y).  Each cell samples W at the 15 Kronrod nodes: taus accumulates
    the GK15 cell sums, and _coef holds the power-series coefficients, in
    the cell's reference coordinate r in [-1, 1], of the integral from
    r = -1 of the polynomial through those samples (GK15 integrates it
    exactly, so the table is continuous).  tau_of evaluates the table on
    arrays; t_of_tau inverts it by Newton steps on the W interpolant
    inside a shrinking bracket, bisecting when a step leaves it.
    """

    __slots__ = ("fam", "T", "m", "ys", "taus", "tau_total", "_coef")

    def __init__(self, fam: PFunction, T: float, n_ref: int = _REF_CELLS) -> None:
        self.fam = fam
        self.T = T
        gamma = endpoint_exponent(lambda x: 1.0 / fam.ph_zero(x), 0.0, T, "left")
        self.m = 1.0 if gamma is None else min(2.0 / (1.0 - gamma), 64.0)
        ys = T ** (1.0 / self.m) * np.arange(n_ref + 1) / n_ref
        mid, half = 0.5 * (ys[:-1] + ys[1:]), 0.5 * (ys[1:] - ys[:-1])
        _, vals = _weight(fam, self.m, mid[:, None] + half[:, None] * _NODES)
        self.ys = ys
        self.taus = np.concatenate([[0.0], np.cumsum(half * (vals @ _WEIGHTS_K))])
        self.tau_total = float(self.taus[-1])
        # an LU solve keeps the interpolant accurate between the nodes
        coef = np.zeros((n_ref, 16))
        coef[:, 1:] = np.linalg.solve(_VANDER, vals.T).T / np.arange(1, 16)
        coef[:, 0] = -(coef[:, 1:] @ (-1.0) ** np.arange(1, 16))
        self._coef = half[:, None] * coef

    def _horner(self, j: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # tau - taus[j] at reference coordinate r of cell j, and its r-derivative
        p, dp = self._coef[j, 15], np.zeros_like(r)
        for k in range(14, -1, -1):
            dp = dp * r + p
            p = p * r + self._coef[j, k]
        return p, dp

    def tau_of(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        y = np.minimum(np.maximum(t, 0.0) ** (1.0 / self.m), self.ys[-1])
        j = np.clip(np.searchsorted(self.ys, y) - 1, 0, len(self.ys) - 2)
        a, b = self.ys[j], self.ys[j + 1]
        tau = self.taus[j] + self._horner(j, (y - 0.5 * (a + b)) / (0.5 * (b - a)))[0]
        return np.select([t <= 0.0, t >= self.T], [0.0, self.tau_total], tau)

    def t_of_tau(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        j = np.clip(np.searchsorted(self.taus, s) - 1, 0, len(self.taus) - 2)
        goal = s - self.taus[j]
        inside = (s > 0.0) & (s < self.tau_total)  # the others are set below
        lo, hi, r = -np.ones_like(s), np.ones_like(s), np.zeros_like(s)
        for _ in range(_NEWTON_STEPS):
            f, d = self._horner(j, r)
            f = f - goal
            lo, hi = np.where(f < 0.0, r, lo), np.where(f < 0.0, hi, r)
            step = np.divide(f, d, out=np.zeros_like(f), where=d > 0.0)
            prev, r = r, np.clip(r - step, -1.0, 1.0)  # a root on a cell edge
            r = np.where((d > 0.0) & (lo <= r) & (r <= hi), r, 0.5 * (lo + hi))
            if np.all((np.abs(r - prev) <= 1e-15) | ~inside):
                break
        a, b = self.ys[j], self.ys[j + 1]
        t = (0.5 * (a + b) + 0.5 * (b - a) * r) ** self.m
        return np.where(inside, t, np.where(s <= 0.0, 0.0, self.T))


def _stencil_rows(s: np.ndarray, dtau: float,
                  n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cubic Lagrange stencils reading a grid function uniform in tau at s.

    Returns grid indices, value weights and derivative weights; the
    derivative weights are per unit of s / dtau.
    """
    pos = s / dtau
    i0 = np.clip(np.floor(pos).astype(int) - 1, 0, n - 3)
    xi = pos - i0
    d0, d1, d2, d3 = xi, xi - 1.0, xi - 2.0, xi - 3.0
    w = np.stack([
        d1 * d2 * d3 / -6.0,
        d0 * d2 * d3 / 2.0,
        d0 * d1 * d3 / -2.0,
        d0 * d1 * d2 / 6.0,
    ], axis=1)
    dw = np.stack([
        (d2 * d3 + d1 * d3 + d1 * d2) / -6.0,
        (d2 * d3 + d0 * d3 + d0 * d2) / 2.0,
        (d1 * d3 + d0 * d3 + d0 * d1) / -2.0,
        (d1 * d2 + d0 * d2 + d0 * d1) / 6.0,
    ], axis=1)
    idx = i0[:, None] + np.arange(4)[None, :]
    return idx, w, dw


@dataclass
class _Discretization:
    t_nodes: np.ndarray
    tau_nodes: np.ndarray
    dtau: float
    WT: np.ndarray
    QV: np.ndarray
    offsets: np.ndarray
    Lidx: np.ndarray
    Lw: np.ndarray
    q_grid: np.ndarray


def _build_discretization(qfn, machine: _TauMachine, n: int) -> _Discretization:
    m = machine.m
    targets = machine.tau_total * np.arange(n + 1) / n
    t_nodes = machine.t_of_tau(targets)

    # panels in y: the first grid interval is split to resolve the endpoint
    y_nodes = t_nodes ** (1.0 / m)
    nsub0 = max(1, math.ceil(m / 6.0))
    first = y_nodes[0] + (y_nodes[1] - y_nodes[0]) * np.arange(nsub0 + 1) / nsub0
    edges = np.concatenate([first, y_nodes[2:]])
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    X, W = _weight(machine.fam, m, mid[:, None] + half[:, None] * _NODES)
    X = X.ravel()
    WT = (_WEIGHTS_K * half[:, None] * W).ravel()
    offsets = 15 * np.concatenate([[0], nsub0 + np.arange(n - 1)])

    QV = np.array([qfn(float(x)) for x in X])
    dtau = float(targets[1] - targets[0])
    Lidx, Lw, _ = _stencil_rows(machine.tau_of(X), dtau, n)
    q_grid = np.array([qfn(float(t)) for t in t_nodes])
    return _Discretization(t_nodes, targets, dtau, WT, QV, offsets, Lidx, Lw, q_grid)


def contraction_precheck(fam: PFunction, q, T: float, u0: float,
                         tol: float = 1e-9) -> ContractionCertificate:
    """Search ball radii for a self-map-plus-contraction certificate.

    The L1 norm of 1/ph_zero over [0, T] must be finite (its check must
    converge); q is bounded by dense sampling.  The returned k is the
    contraction factor at the best radius found, feasible or not.
    """
    qfn, _ = as_scalar_fn(q)
    rep = check_l1(fam, 0.0, T, tol=min(tol, 1e-9))
    if rep.diverged or not rep.converged:
        raise NonIntegrableError(
            f"the L1 check of 1/ph_zero on [0, {T:g}] did not converge; "
            "no contraction setup exists"
        )
    l1 = rep.estimate
    q_inf = max(abs(qfn(float(t))) for t in np.linspace(0.0, T, 2049))
    b_lo = max(abs(u0), 1e-6)
    b_hi = 10.0 * (abs(u0) + math.sqrt(q_inf + 1.0))
    bs = np.geomspace(b_lo, b_hi, 200)
    margins = np.minimum(bs / (q_inf + bs * bs), 1.0 / (2.0 * bs)) - l1
    i = int(np.argmax(margins))
    b = float(bs[i])
    return ContractionCertificate(
        feasible=bool(margins[i] > 0.0),
        b=b,
        k=2.0 * b * l1,
        l1_norm=l1,
        q_inf=q_inf,
        margin=float(margins[i]),
    )


def solve_riccati(problem: RiccatiProblem, *, override: bool = False,
                  start: float | None = None) -> RiccatiSolution:
    """Picard-iterate the integral form of the quadratic problem.

    start chooses the constant initial iterate (defaults to u0); it must
    lie inside the certified ball for the contraction argument to apply.
    Raises InfeasibleCertificateError when the certificate fails and
    override is not set, and DivergenceError when updates grow for five
    consecutive sweeps or the sweep cap is reached.
    """
    fam = problem.family
    T, u0, n, tol = problem.T, problem.u0, problem.grid_n, problem.tol
    qfn, _ = as_scalar_fn(problem.q)

    cert = contraction_precheck(fam, problem.q, T, u0)
    if not cert.feasible and not override:
        raise InfeasibleCertificateError(
            f"contraction certificate infeasible (k={cert.k:.6g}, "
            f"margin={cert.margin:.3g}); pass override=True to iterate anyway"
        )

    for t in np.geomspace(T * 1e-6, T, 128):
        v = fam.ph_zero(float(t))
        if not (math.isfinite(v) and v > 0.0):
            raise ParameterError(
                f"solver needs ph_zero > 0 on (0, T]; found {v!r} at t={float(t):g}"
            )

    machine = _TauMachine(fam, T)
    disc = _build_discretization(qfn, machine, n)

    U = np.full(n + 1, float(u0) if start is None else float(start))
    updates: list[float] = []
    max_norm = float(np.max(np.abs(U)))
    growth = 0
    converged = False
    for _ in range(_MAX_SWEEPS):
        u_at_nodes = np.einsum("ij,ij->i", disc.Lw, U[disc.Lidx])
        v = disc.QV - u_at_nodes * u_at_nodes
        panel = np.add.reduceat(disc.WT * v, disc.offsets)
        new = np.empty(n + 1)
        new[0] = u0
        new[1:] = u0 + np.cumsum(panel)
        delta = float(np.max(np.abs(new - U)))
        if not math.isfinite(delta):
            raise DivergenceError("iterate became non-finite")
        growth = growth + 1 if updates and delta > updates[-1] else 0
        updates.append(delta)
        U = new
        max_norm = max(max_norm, float(np.max(np.abs(U))))
        if delta <= tol:
            converged = True
            break
        if growth >= 5:
            raise DivergenceError(
                f"updates grew for five consecutive sweeps (last {delta:g})"
            )
    if not converged:
        raise DivergenceError(
            f"no convergence within {_MAX_SWEEPS} sweeps; last update {updates[-1]:g}"
        )

    # interior residual of the converged grid function, 4th-order in tau
    i = np.arange(2, n - 1)
    du = (U[i - 2] - 8.0 * U[i - 1] + 8.0 * U[i + 1] - U[i + 2]) / (12.0 * disc.dtau)
    rho = du + U[i] ** 2 - disc.q_grid[i]
    residual = float(np.max(np.abs(rho)))

    return RiccatiSolution(
        grid=tuple(float(t) for t in disc.t_nodes),
        u=tuple(float(x) for x in U),
        tau=tuple(float(s) for s in disc.tau_nodes),
        iterations=len(updates),
        final_delta=updates[-1],
        residual=residual,
        certificate=cert,
        updates=tuple(updates),
        max_iterate_norm=max_norm,
        override=override,
        _machine=machine,
    )


def riccati_residual(fam: PFunction, sol: RiccatiSolution, q) -> float:
    """Sup-norm defect |du/dtau + u^2 - q| at the tau-midpoints of the grid.

    Reads the solution through its cubic tau-interpolant, so a perturbed
    grid value shows up as a large defect.
    """
    qfn, _ = as_scalar_fn(q)
    machine: _TauMachine = sol._machine  # type: ignore[assignment]
    if machine is None:
        machine = _TauMachine(fam, sol.grid[-1])
    u = np.asarray(sol.u)
    n = len(u) - 1
    dtau = sol.tau[1] - sol.tau[0]
    s = (np.arange(n) + 0.5) * dtau
    idx, w, dw = _stencil_rows(s, dtau, n)
    val = np.einsum("ij,ij->i", w, u[idx])
    der = np.einsum("ij,ij->i", dw, u[idx]) / dtau
    q = np.array([qfn(float(t)) for t in machine.t_of_tau(s)])
    return float(np.max(np.abs(der + val * val - q)))
