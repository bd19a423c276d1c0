import dataclasses
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from pcalc.derivatives import as_array_fn
from pcalc.errors import (
    DivergenceError,
    EvaluationError,
    InfeasibleCertificateError,
    NonIntegrableError,
    ParameterError,
)
from pcalc.families import L1Report, PFunction, make_family
from pcalc.riccati import (
    _LAGRANGE,
    _NODES_A,
    _WEIGHTS_K_A,
    RiccatiProblem,
    _build_discretization,
    _certificate,
    _gk15_tables,
    _horner,
    _horner_value,
    _stencil_rows,
    _TauMachine,
    _value_weights,
    _weight,
    contraction_precheck,
    riccati_residual,
    solve_riccati,
)

KHALIL = make_family("khalil", 0.5)
CLASSIC = make_family("custom", F="t + h")


def sqrt_decay_problem(**kw):
    # D u = -u^2 under the sqrt multiplier: u(t) = 1/(1 + 2 sqrt(t))
    defaults = dict(family=KHALIL, q="0", u0=1.0, T=0.05)
    defaults.update(kw)
    return RiccatiProblem(**defaults)


class TestCertificate:
    def test_frozen_sqrt_case(self):
        cert = contraction_precheck(KHALIL, "0", 0.05, 1.0)
        assert cert.feasible
        # l1 = 2 sqrt(0.05) = 0.4472135954999579  [tools/oracles.py]
        assert cert.l1_norm == pytest.approx(0.4472135954999579, rel=1e-8)
        # k = 2 b l1 with b pinned at |u0| = 1  [tools/oracles.py]
        assert cert.b == pytest.approx(1.0, rel=1e-12)
        assert cert.k == pytest.approx(0.8944271909999159, rel=1e-8)
        assert cert.q_inf == 0.0
        assert cert.margin > 0.0

    def test_long_horizon_infeasible(self):
        cert = contraction_precheck(KHALIL, "0", 10.0, 1.0)
        assert not cert.feasible
        assert cert.margin < 0.0

    def test_solver_gates_on_certificate(self):
        with pytest.raises(InfeasibleCertificateError) as exc:
            solve_riccati(sqrt_decay_problem(T=10.0))
        assert "override" in str(exc.value)

    def test_best_radius_is_sqrt_q_inf(self):
        # q = 4 pushes the best radius past |u0| = 0.1 to sqrt(4) = 2, where
        # both terms of the margin are 1/4; l1 = 2 sqrt(0.01) = 0.2
        cert = contraction_precheck(KHALIL, "4", 0.01, 0.1)
        assert (cert.b, cert.q_inf) == (2.0, 4.0)
        assert cert.l1_norm == pytest.approx(0.2, rel=1e-12)
        assert cert.k == 4.0 * cert.l1_norm
        assert cert.margin == 0.25 - cert.l1_norm
        assert cert.feasible

    @given(u0=st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, 1e300, -1e300])),
           q_inf=st.one_of(st.sampled_from([0.0, math.nan, math.inf]), st.floats(1e-14, 1e8)),
           l1=st.floats(1e-12, 1e6))
    @example(u0=0.1, q_inf=4.0, l1=0.2)
    def test_radius_formula_against_a_radius_search(self, u0, q_inf, l1):
        # the closed-form radius against the 200-radius search it replaced:
        # the same certificate wherever the search starts at the maximiser,
        # elsewhere a margin never smaller, taken at b = sqrt(q_inf)
        with mock.patch("pcalc.riccati.check_l1",
                        return_value=L1Report((0.0, 1.0), l1, True, 1, False)):
            got = dataclasses.astuple(_certificate(
                KHALIL, lambda ts: np.full(np.shape(ts), q_inf), 1.0, u0))
        ref = _searched_certificate(u0, q_inf, l1)
        b0 = max(abs(u0), 1e-6)
        if not math.isfinite(q_inf) or b0 >= math.sqrt(q_inf):
            assert repr(got) == repr(ref)  # bit for bit, nan and -0.0 included
            assert [type(x) for x in got] == [bool, *[float] * 5]
            return
        feasible, b, k, l1_norm, q, margin = got
        assert (b, k, l1_norm, q) == (math.sqrt(q_inf), 2.0 * b * l1, l1, q_inf)
        assert margin >= ref[5]
        assert feasible == (margin > 0.0) == (1.0 / (2.0 * b) > l1)


def _searched_certificate(u0, q_inf, l1):
    # the geometric search over 200 radii that the closed form replaced
    with np.errstate(over="ignore", invalid="ignore"):
        bs = np.geomspace(max(abs(u0), 1e-6), 10.0 * (abs(u0) + math.sqrt(q_inf + 1.0)), 200)
        margins = np.minimum(bs / (q_inf + bs * bs), 1.0 / (2.0 * bs)) - l1
    i = int(np.argmax(margins))
    b = float(bs[i])
    return (bool(margins[i] > 0.0), b, 2.0 * b * l1, l1, q_inf, float(margins[i]))


class TestSqrtDecay:
    def test_solution_matches_closed_form(self):
        sol = solve_riccati(sqrt_decay_problem())
        grid = np.array(sol.grid)
        exact = 1.0 / (1.0 + 2.0 * np.sqrt(grid))
        assert float(np.max(np.abs(np.array(sol.u) - exact))) < 1e-8
        # u(0.05) = 0.6909830056250526  [tools/oracles.py]
        assert sol.u[-1] == pytest.approx(0.6909830056250526, abs=1e-8)

    def test_interpolation_off_grid(self):
        sol = solve_riccati(sqrt_decay_problem())
        # u(0.04) = 1/1.4  [tools/oracles.py]
        assert sol.interpolate(0.04) == pytest.approx(0.7142857142857143, abs=1e-8)

    def test_grid_shape(self):
        sol = solve_riccati(sqrt_decay_problem(grid_n=32))
        assert len(sol.grid) == 33
        assert sol.grid[0] == 0.0
        assert sol.grid[-1] == 0.05
        assert all(a < b for a, b in zip(sol.grid, sol.grid[1:]))
        # nodes are uniform in transformed time
        steps = np.diff(sol.tau)
        assert float(np.std(steps)) < 1e-12 * float(np.mean(steps))

    def test_update_sequence_contracts(self):
        sol = solve_riccati(sqrt_decay_problem())
        # first sweep moves by exactly the weight mass: |I(-u0^2)| = l1
        assert sol.updates[0] == pytest.approx(0.4472135954999579, rel=1e-6)
        cap = sol.certificate.k + 0.05
        for prev, nxt in zip(sol.updates[1:], sol.updates[2:]):
            assert nxt <= cap * prev
        assert sol.iterations == len(sol.updates)
        assert sol.final_delta <= 1e-8

    def test_start_inside_ball_lands_on_same_fixpoint(self):
        a = solve_riccati(sqrt_decay_problem())
        b = solve_riccati(sqrt_decay_problem(), start=0.2)
        diff = max(abs(x - y) for x, y in zip(a.u, b.u))
        assert diff <= 1e-7
        assert not a.override


class TestForcedCase:
    def test_tanh_solution(self):
        # classic deformation, q = 1, u0 = 0: u(t) = tanh(t)
        prob = RiccatiProblem(family=CLASSIC, q="1", u0=0.0, T=0.4)
        sol = solve_riccati(prob)
        grid = np.array(sol.grid)
        err = np.abs(np.array(sol.u) - np.tanh(grid))
        assert float(np.max(err)) < 1e-8
        # tanh(0.4) = 0.3799489622552249  [tools/oracles.py]
        assert sol.u[-1] == pytest.approx(0.3799489622552249, abs=1e-8)
        # tanh(0.2) = 0.1973753202249040  [tools/oracles.py]
        assert sol.interpolate(0.2) == pytest.approx(0.1973753202249040, abs=1e-8)
        assert sol.certificate.feasible
        assert 0.75 < sol.certificate.k < 0.85

    def test_negative_branch_tracks_pole(self):
        # u(t) = -1/(1 - t) blows up at t = 1; short of it the iteration
        # still certifies and converges
        prob = RiccatiProblem(family=CLASSIC, q="0", u0=-1.0, T=0.4)
        sol = solve_riccati(prob)
        grid = np.array(sol.grid)
        err = np.abs(np.array(sol.u) + 1.0 / (1.0 - grid))
        assert float(np.max(err)) < 1e-7

    def test_horizon_past_pole_diverges(self):
        prob = RiccatiProblem(family=CLASSIC, q="0", u0=-1.0, T=1.2)
        with pytest.raises(InfeasibleCertificateError):
            solve_riccati(prob)
        with pytest.raises(DivergenceError, match="grew"):
            solve_riccati(prob, override=True)

    def test_growing_updates_end_the_sweeps(self):
        # q = 50 on [0, 2] is far past the certificate; overridden, the
        # updates grow from the first sweeps on
        prob = RiccatiProblem(family=make_family("khalil", 0.5), q="50", u0=3.0, T=2.0,
                              grid_n=16)
        with pytest.raises(DivergenceError, match=r"^updates grew for five consecutive "
                                                  r"sweeps \(last \d\.\d+e\+\d+\)$"):
            solve_riccati(prob, override=True)


    def test_sweep_cap_ends_the_iteration(self, monkeypatch):
        monkeypatch.setattr("pcalc.riccati._MAX_SWEEPS", 3)
        with pytest.raises(DivergenceError, match=r"^no convergence within 3 sweeps; "
                                                  r"last update \d\.\d+$"):
            solve_riccati(sqrt_decay_problem(tol=1e-300))


class TestOverflowingMultiplier:
    @pytest.mark.parametrize("T", [0.3, 1.0])
    def test_nderiv_decay_matches_closed_form(self, T):
        # ph_zero = exp(t^-0.5) overflows below t = 2.0e-6, under the
        # solver's samples; q = 0 gives u = u0 / (1 + u0 tau(t)), with
        # tau(t) the integral of exp(-s^-0.5) from 0 to t
        sol = solve_riccati(RiccatiProblem(family=make_family("nderiv", 0.5), q="0",
                                           u0=0.1, T=T))
        tau, prev = mpmath.mpf(0), mpmath.mpf(0)
        worst = 0.0
        for t, u in zip(sol.grid, sol.u):
            tau += mpmath.quad(lambda s: mpmath.exp(-1 / mpmath.sqrt(s)), [prev, t])
            prev = mpmath.mpf(t)
            worst = max(worst, abs(u - float(0.1 / (1 + 0.1 * tau))))
        assert worst <= 1e-5  # the ACCEPTANCE 7 cap


class TestResidual:
    def test_converged_solution_has_small_defect(self):
        sol = solve_riccati(sqrt_decay_problem())
        assert riccati_residual(KHALIL, sol, "0") < 1e-5

    def test_perturbed_node_is_detected(self):
        sol = solve_riccati(sqrt_decay_problem())
        u = list(sol.u)
        u[len(u) // 2] += 0.01
        bad = dataclasses.replace(sol, u=tuple(u))
        assert riccati_residual(KHALIL, bad, "0") > 1e-3

    def test_interior_residual_reported(self):
        sol = solve_riccati(sqrt_decay_problem())
        assert math.isfinite(sol.residual)
        assert sol.residual < 1e-4


# one family of each kind the tau table grades differently, with a horizon inside its domain
PANEL_CASES = [
    (KHALIL, 0.05),
    (make_family("gfd", 0.6, beta=1.4), 0.3),
    (make_family("cosine", 0.7), 1.2),
    (make_family("custom", F="t + h*sqrt(t)*(1 + t)"), 0.2),
]
PANEL_IDS = [fam.kind for fam, _ in PANEL_CASES]


class TestTauTable:
    def test_closed_form_and_round_trip(self):
        # khalil(0.5): tau(t) = integral of t^(-1/2) = 2 sqrt(t)
        T = 0.05
        machine = _TauMachine(KHALIL, T)
        x = T * np.linspace(1e-6, 1.0 - 1e-6, 997) ** 1.3  # off the cell edges
        assert np.max(np.abs(machine.tau_of(x) - 2.0 * np.sqrt(x))) < 1e-13
        assert np.max(np.abs(machine.t_of_tau(machine.tau_of(x)) - x)) < 1e-13 * T

    @pytest.mark.parametrize("fam,T", PANEL_CASES, ids=PANEL_IDS)
    def test_table_matches_per_cell_lu_coefficients(self, fam, T):
        # the cached G against an LU solve of each cell's Vandermonde system
        machine = _TauMachine(fam, T)
        ys = machine.ys
        mid, half = 0.5 * (ys[:-1] + ys[1:]), 0.5 * (ys[1:] - ys[:-1])
        _, vals = _weight(fam, machine.m, mid[:, None] + half[:, None] * _NODES_A)
        powers = np.arange(1, 16)
        ref = np.zeros((len(mid), 16))
        ref[:, 1:] = np.linalg.solve(np.vander(_NODES_A, 15, increasing=True), vals.T).T / powers
        ref[:, 0] = -(ref[:, 1:] @ (-1.0) ** powers)
        gap = np.sum(np.abs(machine._coef - (half[:, None] * ref).T), axis=0)
        # summed over the powers, the gap bounds the two cell polynomials' distance on [-1, 1]
        assert np.max(gap) < 1e-14 * machine.tau_total

    @pytest.mark.parametrize("fam,T", PANEL_CASES, ids=PANEL_IDS)
    def test_inverse_round_trips_in_few_newton_passes(self, fam, T, monkeypatch):
        machine = _TauMachine(fam, T)
        passes = [0]

        def counted(C, r):
            passes[0] += 1
            return _horner(C, r)

        monkeypatch.setattr("pcalc.riccati._horner", counted)
        for n in (16, 64, 512):  # the solver's grid and tau-midpoints in one call
            s = machine.tau_total * np.arange(2 * n + 1) / (2 * n)
            passes[0] = 0
            t = machine.t_of_tau(s)
            assert passes[0] <= 4  # Newton starts from each cell's linear guess
            assert np.max(np.abs(machine.tau_of(t) - s)) < 1e-14 * machine.tau_total
        # off the grid too, where a point in a steep first cell may take more passes
        s = machine.tau_total * np.random.default_rng(5).uniform(0.0, 1.0, 997)
        assert np.max(np.abs(machine.tau_of(machine.t_of_tau(s)) - s)) < 1e-14 * machine.tau_total

    def test_ph_zero_call_budget(self, monkeypatch):
        calls = [0]
        ph_zero = PFunction.ph_zero

        def counted(self, t):
            calls[0] += 1
            return ph_zero(self, t)

        monkeypatch.setattr(PFunction, "ph_zero", counted)
        sol = solve_riccati(sqrt_decay_problem(grid_n=512))
        riccati_residual(KHALIL, sol, "0")
        assert calls[0] < 50_000

    @pytest.mark.parametrize("fam,T", PANEL_CASES, ids=PANEL_IDS)
    def test_tau_of_pins_the_ends(self, fam, T):
        machine = _TauMachine(fam, T)
        got = machine.tau_of([-1.0, 0.0, T, 2.0 * T, math.inf, math.nan])
        total = machine.tau_total
        assert got[:5].tolist() == [0.0, 0.0, total, total, total]
        assert math.isnan(got[5])

    @pytest.mark.parametrize("fam,T", PANEL_CASES, ids=PANEL_IDS)
    def test_t_of_tau_pins_the_ends(self, fam, T):
        # a NaN target is not inside (0, tau_total) and not <= 0, so it maps to T
        machine = _TauMachine(fam, T)
        total = machine.tau_total
        got = machine.t_of_tau([-1.0, 0.0, total, 2.0 * total, math.nan])
        assert got.tolist() == [0.0, 0.0, T, T, T]


def _plain_horner(C, r):
    # the reference loop: a new array per step
    p, dp = C[15], np.zeros_like(r)
    for k in range(14, -1, -1):
        dp = dp * r + p
        p = p * r + C[k]
    return p, dp


def _plain_stencils(s, dtau, n):
    # the reference stencils, built with np.clip and np.column_stack
    pos = s / dtau
    i0 = np.clip(np.floor(pos).astype(int) - 1, 0, n - 3)
    xi = pos - i0
    d = (xi, xi - 1.0, xi - 2.0, xi - 3.0)
    w = np.column_stack([d[a] * d[b] * d[c] / den for a, b, c, den in _LAGRANGE])
    dw = np.column_stack([(d[b] * d[c] + d[a] * d[c] + d[a] * d[b]) / den
                          for a, b, c, den in _LAGRANGE])
    return i0, w, dw


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernelsMatchPlainForms:
    @given(npst.arrays(np.float64, st.tuples(st.just(16), st.integers(1, 12)),
                       elements=st.floats(-1.0, 1.0)),
           st.data())
    def test_horner_loops_are_bit_identical(self, C, data):
        r = data.draw(npst.arrays(np.float64, C.shape[1], elements=st.floats(-1.0, 1.0)))
        kept = C.copy()
        p, dp = _plain_horner(C, r)
        got_p, got_dp = _horner(C, r)
        assert _same_bits(got_p, p) and _same_bits(got_dp, dp)
        assert _same_bits(_horner_value(C, r), p)
        assert _same_bits(C, kept)  # the loops work on a copy of C[15]

    @given(npst.arrays(np.float64, st.integers(1, 40), elements=st.floats(-1.0, 1.0)),
           st.sampled_from([1.0, 0.37, 1e-3]))
    def test_stencil_columns_are_bit_identical(self, r, dtau):
        n = 16
        s = (r + 1.0) * (0.5 * n * dtau)  # spans the whole grid, both ends included
        i0, w, dw = _plain_stencils(s, dtau, n)
        got_i0, _, got_w = _value_weights(s, dtau, n)
        idx, got_w2, got_dw = _stencil_rows(s, dtau, n)
        assert _same_bits(got_i0, i0) and _same_bits(idx, i0[:, None] + np.arange(4))
        for got in (got_w, got_w2):
            assert _same_bits(got, w) and got.flags.c_contiguous
        assert _same_bits(got_dw, dw) and got_dw.flags.c_contiguous


def _grid_panels(machine, n):
    """Kronrod nodes and weights of the solver's grid panels, laid out independently.

    Returns the node times (sub-panel x 15), their weights folding in
    1/ph_zero, the grid panel of each sub-panel, and the grid's tau.
    """
    tau_grid = machine.tau_total * np.arange(n + 1) / n
    y = machine.t_of_tau(tau_grid) ** (1.0 / machine.m)
    nsub0 = max(1, math.ceil(machine.m / 6.0))  # the first interval is split
    edges = np.concatenate([np.linspace(y[0], y[1], nsub0 + 1), y[2:]])
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    X, W = _weight(machine.fam, machine.m, mid[:, None] + half[:, None] * _NODES_A)
    owner = np.concatenate([np.zeros(nsub0, dtype=int), np.arange(1, n)])
    return X, _WEIGHTS_K_A * half[:, None] * W, owner, tau_grid


class TestPanelForms:
    @pytest.mark.parametrize("fam,T", PANEL_CASES, ids=PANEL_IDS)
    def test_quadratic_forms_match_nodewise_sweep(self, fam, T):
        # reference: read U at every node through its own stencil at tau_of(node)
        n = 64
        qa = as_array_fn("1 + t")
        machine = _TauMachine(fam, T)
        disc = _build_discretization(qa, machine, n)
        X, WT, owner, tau_grid = _grid_panels(machine, n)
        idx, w, _ = _stencil_rows(machine.tau_of(X.ravel()), tau_grid[1], n)
        rng = np.random.default_rng(11)
        for U in (np.full(n + 1, 0.5), rng.uniform(0.2, 0.6, n + 1)):
            u = np.sum(w * U[idx], axis=1)
            nodes = np.sum(WT * (qa(X.ravel()) - u * u).reshape(X.shape), axis=1)
            ref = np.bincount(owner, weights=nodes)
            Up = U[disc.stencil]
            got = disc.A - np.einsum("pi,pij,pj->p", Up, disc.M, Up)
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13

    @pytest.mark.parametrize("fam,T", PANEL_CASES, ids=PANEL_IDS)
    def test_panel_local_tau_stays_inside_its_interval(self, fam, T, monkeypatch):
        # the taus at which _build_discretization reads its stencils
        seen = []

        def spy(s, dtau, n):
            seen.append(s)
            return _value_weights(s, dtau, n)

        monkeypatch.setattr("pcalc.riccati._value_weights", spy)
        n = 64
        machine = _TauMachine(fam, T)
        disc = _build_discretization(as_array_fn("0"), machine, n)
        X, _, owner, tau_grid = _grid_panels(machine, n)
        tau = seen[0].reshape(X.shape)
        assert np.max(np.abs(tau - machine.tau_of(X.ravel()).reshape(X.shape))) < 1e-12
        # strictly inside, so one stencil serves every node of a grid panel
        assert np.all(tau > tau_grid[owner][:, None])
        assert np.all(tau < tau_grid[owner + 1][:, None])
        idx = _stencil_rows(seen[0], tau_grid[1], n)[0].reshape(*X.shape, 4)
        assert np.array_equal(idx, np.broadcast_to(disc.stencil[owner][:, None], idx.shape))

    def test_integration_matrix_is_exact_on_monomials(self):
        # S @ samples integrates the interpolant from -1 to each node, as the panels build it
        S = _gk15_tables()[1].T
        for d in range(15):
            exact = (_NODES_A ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
            assert np.max(np.abs(S @ _NODES_A ** d - exact)) < 1e-14

    @pytest.mark.parametrize("fam,q,T", [(KHALIL, "sin(40*t)", 0.05),
                                         (make_family("cosine", 0.7), "t", 0.3)],
                             ids=["khalil", "cosine"])
    def test_stored_midpoints_match_detached_residual(self, fam, q, T):
        sol = solve_riccati(RiccatiProblem(family=fam, q=q, u0=0.5, T=T))
        stored = riccati_residual(fam, sol, q)
        for detached in (dataclasses.replace(sol, _t_mid=None),
                         dataclasses.replace(sol, _machine=None, _t_mid=None)):
            assert abs(riccati_residual(fam, detached, q) - stored) <= 1e-12


class TestArrayKernels:
    def test_scalar_ph_zero_budget(self, monkeypatch):
        # set-up samples the multiplier through ph_zero_array; counted as
        # in test_ph_zero_call_budget (15,497 calls before the array kernels)
        calls = [0]
        ph_zero = PFunction.ph_zero

        def counted(self, t):
            calls[0] += 1
            return ph_zero(self, t)

        monkeypatch.setattr(PFunction, "ph_zero", counted)
        sol = solve_riccati(sqrt_decay_problem(grid_n=512))
        riccati_residual(KHALIL, sol, "0")
        assert calls[0] < 1_000

    def test_q_error_is_the_scalar_one(self):
        with pytest.raises(EvaluationError, match=r"^domain error in ln\(0\.0\)$"):
            contraction_precheck(KHALIL, "ln(t)", 0.05, 1.0)
        with pytest.raises(EvaluationError, match=r"^division by zero$"):
            solve_riccati(sqrt_decay_problem(q="1/(t - 0.025)"))

    def test_q_is_compiled_once_per_solve(self, monkeypatch):
        seen = []

        def counted(q):
            seen.append(q)
            return as_array_fn(q)

        monkeypatch.setattr("pcalc.riccati.as_array_fn", counted)
        solve_riccati(sqrt_decay_problem(q="t"))
        assert seen == ["t"]

    def test_callable_q_matches_expression(self):
        a = solve_riccati(sqrt_decay_problem(q="t*t", u0=0.5))
        b = solve_riccati(sqrt_decay_problem(q=lambda t: t * t, u0=0.5))
        assert a.u == b.u
        assert riccati_residual(KHALIL, a, "t*t") == riccati_residual(KHALIL, b, lambda t: t * t)

    def test_bad_multiplier_value_before_a_failing_point_is_reported_first(self):
        # ph_zero = 1/(t - c) is negative below c and divides by zero at c,
        # which no sample hits; _weight refuses the first negative sample
        T = 0.05
        c = float(np.geomspace(T * 1e-6, T, 128)[100])
        fam = make_family("custom", F=f"t + h/(t - {c!r})")
        with pytest.raises(ParameterError, match=r"found -\d"):
            solve_riccati(RiccatiProblem(family=fam, q="0", u0=0.1, T=T), override=True)

    def test_extreme_inputs_end_in_typed_errors(self):
        # tau(T) underflows for T = 1e-300 under t^0.5 weights; a huge u0
        # overflows the certificate's ball radii and the sweeps
        with pytest.raises(ParameterError, match="underflows"):
            solve_riccati(RiccatiProblem(family=make_family("khalil", 1.5), q="t^2",
                                         u0=1.0, T=1e-300))
        with pytest.raises(InfeasibleCertificateError):
            solve_riccati(sqrt_decay_problem(u0=1e300))
        with pytest.raises(DivergenceError, match="non-finite"):
            solve_riccati(sqrt_decay_problem(u0=1e300), override=True)


class TestValidation:
    def test_grid_too_small(self):
        with pytest.raises(ParameterError):
            sqrt_decay_problem(grid_n=8)

    def test_bad_horizon(self):
        with pytest.raises(ParameterError):
            sqrt_decay_problem(T=0.0)
        with pytest.raises(ParameterError):
            sqrt_decay_problem(T=math.inf)

    def test_bad_initial_value(self):
        with pytest.raises(ParameterError):
            sqrt_decay_problem(u0=math.nan)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tolerance(self, tol):
        with pytest.raises(ParameterError, match="^tol must be positive$"):
            sqrt_decay_problem(tol=tol)

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_non_finite_start(self, start, monkeypatch):
        # rejected like a non-finite u0, before the certificate is computed
        def precheck(*args, **kw):
            raise AssertionError("the certificate was computed")
        monkeypatch.setattr("pcalc.riccati._certificate", precheck)
        for override in (False, True):
            with pytest.raises(ParameterError, match="start must be finite"):
                solve_riccati(sqrt_decay_problem(), override=override, start=start)

    def test_vanishing_multiplier_has_no_certificate(self):
        # ph_zero identically 0 makes the weight non-integrable
        power = make_family("power", 2.0)
        with pytest.raises(NonIntegrableError):
            solve_riccati(RiccatiProblem(family=power, q="0", u0=0.5, T=0.1))

    def test_multiplier_negative_below_every_old_probe_is_refused(self):
        # ph_zero = sqrt(t) sign(t - 1e-9) is negative only on (0, 1e-9)
        fam = make_family("custom", F="t + h*sqrt(t)*(t - 1e-9)/abs(t - 1e-9)")
        with pytest.raises(ParameterError, match=r"^solver needs ph_zero > 0 on \(0, T\]; "
                                                 r"found -\d"):
            solve_riccati(RiccatiProblem(family=fam, q="0", u0=0.1, T=0.05))

    def test_detached_solution_cannot_interpolate(self):
        sol = solve_riccati(sqrt_decay_problem())
        detached = dataclasses.replace(sol, _machine=None)
        with pytest.raises(ParameterError):
            detached.interpolate(0.01)
