import dataclasses
import math

import numpy as np
import pytest

from pcalc.errors import (
    DivergenceError,
    InfeasibleCertificateError,
    NonIntegrableError,
    ParameterError,
)
from pcalc.families import PFunction, make_family
from pcalc.riccati import (
    RiccatiProblem,
    _TauMachine,
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


class TestTauTable:
    def test_closed_form_and_round_trip(self):
        # khalil(0.5): tau(t) = integral of t^(-1/2) = 2 sqrt(t)
        T = 0.05
        machine = _TauMachine(KHALIL, T)
        x = T * np.linspace(1e-6, 1.0 - 1e-6, 997) ** 1.3  # off the cell edges
        assert np.max(np.abs(machine.tau_of(x) - 2.0 * np.sqrt(x))) < 1e-13
        assert np.max(np.abs(machine.t_of_tau(machine.tau_of(x)) - x)) < 1e-13 * T

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

    def test_vanishing_multiplier_has_no_certificate(self):
        # ph_zero identically 0 makes the weight non-integrable
        power = make_family("power", 2.0)
        with pytest.raises(NonIntegrableError):
            solve_riccati(RiccatiProblem(family=power, q="0", u0=0.5, T=0.1))

    def test_detached_solution_cannot_interpolate(self):
        sol = solve_riccati(sqrt_decay_problem())
        detached = dataclasses.replace(sol, _machine=None)
        with pytest.raises(ParameterError):
            detached.interpolate(0.01)
