import itertools
import math

import numpy as np
import pytest

from advdiff.errors import SolverAbort
from advdiff.grid import ScalarField, TorusGrid, lp_norm
from advdiff.library import FieldSpec, instantiate
from advdiff.solver import LQ_COLUMNS, REGISTERED_BETAS, SolverConfig, _cumulative_simpson, beta_dissipation, solve

import oracles
from conftest import count_calls, count_transforms, random_field
from lab import ARCTAN_PRIMITIVE, HALF_SQUARE, ConvexFunction, TestFunction, lq_dissipation_check, snapshot_beta_dissipation, weak_residual


def sine_mode(grid, axis=0):
    coords = grid.coordinate_mesh()
    return ScalarField(grid, np.broadcast_to(np.sin(2 * np.pi * coords[axis]), grid.shape))


class TestSolverConfig:
    def test_requires_exactly_one_step_policy(self):
        with pytest.raises(ValueError, match="exactly one"):
            SolverConfig(t_final=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            SolverConfig(t_final=1.0, dt=0.1, cfl_safety=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(t_final=-1.0, dt=0.1)
        with pytest.raises(ValueError):
            SolverConfig(t_final=1.0, cfl_safety=1.5)
        with pytest.raises(ValueError):
            SolverConfig(t_final=1.0, dt=0.1, record_every=0)


class TestHeatFlow:
    def test_eigenmode_is_exact(self):
        g = TorusGrid(2, 64)
        u0 = sine_mode(g)
        traj = solve(None, u0, SolverConfig(t_final=0.1, dt=1e-3, record_every=100))
        exact = math.exp(-4 * math.pi**2 * 0.1) * u0.values
        assert np.max(np.abs(traj.final_state.values - exact)) < 1e-10

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    def test_two_step_dissipation_matches_closed_form(self):
        # sin(2 pi 10 x) at N=32 decays by exp(-8 pi^2 100 dt) = 0.67 per step, too fast for Simpson's rule
        g = TorusGrid(2, 32)
        u0 = ScalarField(g, np.broadcast_to(np.sin(2 * np.pi * 10 * g.coordinate_mesh()[0]), g.shape))
        traj = solve(None, u0, SolverConfig(t_final=1e-3, dt=5e-4))
        exact = 0.25 * -math.expm1(-8 * math.pi**2 * 100 * 1e-3)
        assert traj.diagnostics["grad_l2_sq_cum"][-1] == pytest.approx(exact, rel=1e-12)

    def test_monotone_lq_decay(self):
        g = TorusGrid(2, 32)
        traj = solve(None, sine_mode(g), SolverConfig(t_final=0.05, dt=1e-3))
        for q in (1.0, 2.0, 4.0, math.inf):
            assert lq_dissipation_check(traj, q) <= 1e-10

    def test_lq_check_rejects_unknown_exponent(self):
        g = TorusGrid(2, 32)
        traj = solve(None, sine_mode(g), SolverConfig(t_final=0.01, dt=1e-3))
        with pytest.raises(ValueError):
            lq_dissipation_check(traj, 3.0)


class TestTrajectoryBookkeeping:
    def test_times_and_snapshots(self):
        g = TorusGrid(2, 32)
        traj = solve(None, sine_mode(g), SolverConfig(t_final=0.01, dt=1e-3, record_every=4))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.01, abs=1e-12)
        assert len(traj.states) == len(traj.times)
        assert len(traj.diagnostics["t"]) == 11  # every step incl. t = 0

    def test_snapshots_are_independent_of_later_steps(self):
        # each snapshot owns a read-only copy of its step's state: its L2 norm is the one recorded at that step
        g = TorusGrid(2, 32)
        traj = solve(FieldSpec("taylor_green"), sine_mode(g), SolverConfig(t_final=0.01, dt=1e-3, record_every=3))
        values = [s.values for s in traj.states]
        assert not any(v.flags.writeable for v in values)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(values, 2))
        steps = np.rint(traj.times / traj.dt).astype(int)
        assert [lp_norm(s, 2.0) for s in traj.states] == list(traj.diagnostics["l2"][steps])

    def test_mean_conserved_per_step(self):
        g = TorusGrid(2, 64)
        u0 = ScalarField(g, sine_mode(g).values + 0.7)
        traj = solve(FieldSpec("taylor_green"), u0, SolverConfig(t_final=0.02, dt=5e-4))
        means = traj.diagnostics["mean"]
        assert max(abs(m - means[0]) for m in means) < 1e-12

    def test_nonuniform_final_step_lands_on_t_final(self):
        g = TorusGrid(2, 32)
        traj = solve(None, sine_mode(g), SolverConfig(t_final=0.0107, dt=1e-3))
        assert traj.times[-1] == pytest.approx(0.0107, rel=1e-12)


class TestAdvection:
    def test_constant_drift_matches_spectral_translation(self):
        # oracle: solve with b = 0, then shift the result by T*b through an
        # explicit phase factor built directly on the FFT layout
        g = TorusGrid(2, 128)
        x, y = g.coordinate_mesh()
        u0 = ScalarField(g, np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.3 * np.cos(4 * np.pi * y))
        cfg = SolverConfig(t_final=0.1, dt=1e-4, record_every=10**9)
        drift = solve(FieldSpec("constant", {"c1": 1.0, "c2": 0.0}), u0, cfg)
        still = solve(None, u0, cfg)
        k1 = np.fft.fftfreq(128) * 128
        phase = np.exp(-2j * np.pi * (k1[:, None] * 0.1))
        shifted = np.fft.ifftn(np.fft.fftn(still.final_state.values) * phase).real
        err = np.sqrt(np.mean((drift.final_state.values - shifted) ** 2))
        assert err < 1e-8

    def test_short_time_translation_with_live_modes(self):
        g = TorusGrid(2, 64)
        u0 = random_field(g, seed=51, max_mode=3, count=5)
        cfg = SolverConfig(t_final=0.02, dt=1e-4, record_every=10**9)
        drift = solve(FieldSpec("constant", {"c1": 1.0, "c2": -0.5}), u0, cfg)
        still = solve(None, u0, cfg)
        k1 = np.fft.fftfreq(64) * 64
        phase = np.exp(-2j * np.pi * (k1[:, None] * 0.02 + k1[None, :] * (-0.01)))
        shifted = np.fft.ifftn(np.fft.fftn(still.final_state.values) * phase).real
        assert np.sqrt(np.mean((drift.final_state.values - shifted) ** 2)) < 1e-8

    def test_energy_budget_measured_nonincreasing(self):
        # the budget 0.5||u||^2 + cumulative dissipation is conserved by the
        # exact flow; measured drift stays at the scheme-error scale
        g = TorusGrid(2, 64)
        traj = solve(FieldSpec("taylor_green"), sine_mode(g, axis=1), SolverConfig(t_final=0.1, dt=2e-4, record_every=10**9))
        budget = traj.diagnostics["energy_lhs"]
        worst_rise = max(b - a for a, b in zip(budget, budget[1:]))
        assert worst_rise <= 1e-8

    def test_energy_balance_residual_and_order(self):
        g = TorusGrid(2, 64)
        u0 = sine_mode(g, axis=1)
        residuals = []
        for dt in (4e-4, 2e-4):
            traj = solve(FieldSpec("taylor_green"), u0, SolverConfig(t_final=0.1, dt=dt, record_every=10**9))
            diag = traj.diagnostics
            residuals.append(abs(diag["energy_lhs"][-1] - 0.5 * diag["l2"][0] ** 2))
        assert residuals[0] < 1e-6
        assert residuals[0] / residuals[1] >= 4.0

    def test_linearity(self):
        g = TorusGrid(2, 64)
        u1 = random_field(g, seed=52, max_mode=3, count=4)
        u2 = random_field(g, seed=53, max_mode=3, count=4)
        cfg = SolverConfig(t_final=0.02, dt=5e-4, record_every=10**9)
        tg = FieldSpec("taylor_green")
        combined = solve(tg, ScalarField(g, u1.values + u2.values), cfg).final_state
        separate = solve(tg, u1, cfg).final_state.values + solve(tg, u2, cfg).final_state.values
        assert np.max(np.abs(combined.values - separate)) < 1e-10

    def test_maximum_principle_range(self):
        # bounded data stay inside their initial range up to truncation noise
        g = TorusGrid(2, 128)
        x, y = g.coordinate_mesh()
        r_sq = np.broadcast_to((np.mod(x, 1) - 0.5) ** 2 + (np.mod(y, 1) - 0.5) ** 2, g.shape)
        u0 = ScalarField(g, np.exp(-r_sq / (2 * 0.12**2)))
        assert 0.0 <= np.min(u0.values) and np.max(u0.values) <= 1.0
        traj = solve(FieldSpec("rotation_bump"), u0, SolverConfig(t_final=0.1, dt=5e-4, record_every=50))
        for state in traj.states:
            assert np.min(state.values) > -1e-6
            assert np.max(state.values) < 1.0 + 1e-6

    def test_rough_field_smoothed_by_default(self):
        g = TorusGrid(2, 64)
        u0 = sine_mode(g, axis=1)
        spec = FieldSpec("power_singularity", {"exponent": 1.5})
        cfg = dict(t_final=0.01, dt=2e-4, record_every=10**9)
        default_run = solve(spec, u0, SolverConfig(**cfg))
        explicit = solve(spec, u0, SolverConfig(**cfg, mollify_b=4.0 * g.spacing))
        raw = solve(spec, u0, SolverConfig(**cfg, no_approximation=True))
        assert np.max(np.abs(default_run.final_state.values - explicit.final_state.values)) < 1e-14
        assert np.max(np.abs(default_run.final_state.values - raw.final_state.values)) > 1e-7

    def test_mollified_data_converge_to_plain_run(self):
        g = TorusGrid(2, 64)
        u0 = random_field(g, seed=54, max_mode=3, count=5)
        tg = FieldSpec("taylor_green")
        base = dict(t_final=0.05, dt=5e-4, record_every=20)
        ref = solve(tg, u0, SolverConfig(**base))
        gaps = []
        for delta in (0.2, 0.1, 0.05, 0.025):
            run = solve(tg, u0, SolverConfig(**base, mollify_b=delta, mollify_u0=delta))
            gaps.append(max(lp_norm(ScalarField(g, a.values - b.values), 2.0) for a, b in zip(run.states, ref.states)))
        assert all(fine < coarse for coarse, fine in zip(gaps, gaps[1:]))


class TestOtherDimensions:
    def test_heat_eigenmode_1d(self):
        g = TorusGrid(1, 64)
        u0 = sine_mode(g)
        traj = solve(None, u0, SolverConfig(t_final=0.05, dt=1e-3))
        exact = math.exp(-4 * math.pi**2 * 0.05) * u0.values
        assert np.max(np.abs(traj.final_state.values - exact)) < 1e-11

    def test_drift_1d(self):
        g = TorusGrid(1, 64)
        u0 = sine_mode(g)
        traj = solve(FieldSpec("constant", {"c1": 0.5}), u0, SolverConfig(t_final=0.02, dt=1e-4))
        assert lq_dissipation_check(traj, 2.0) <= 1e-10

    def test_vortex_columns_3d(self):
        g = TorusGrid(3, 16)
        coords = g.coordinate_mesh()
        u0 = ScalarField(g, np.broadcast_to(np.sin(2 * np.pi * coords[2]), g.shape))
        traj = solve(FieldSpec("taylor_green"), u0, SolverConfig(t_final=0.02, dt=5e-4))
        diag = traj.diagnostics
        assert abs(diag["energy_lhs"][-1] - 0.5 * diag["l2"][0] ** 2) < 1e-8
        assert lq_dissipation_check(traj, 2.0) <= 1e-10


class TestStepControl:
    def test_cfl_policy_obeys_limit(self):
        g = TorusGrid(2, 32)
        traj = solve(FieldSpec("taylor_green", {"amplitude": 2.0}), sine_mode(g), SolverConfig(t_final=0.01, cfl_safety=0.5))
        b = instantiate(FieldSpec("taylor_green", {"amplitude": 2.0}), g)
        assert traj.dt <= 0.5 * g.spacing / b.max_abs() * (1 + 1e-12)

    def test_fixed_dt_cfl_violation_aborts(self):
        g = TorusGrid(2, 32)
        cfg = SolverConfig(t_final=0.1, dt=0.05)
        with pytest.raises(SolverAbort, match="CFL violation") as info:
            solve(FieldSpec("taylor_green", {"amplitude": 3.0}), sine_mode(g), cfg)
        assert info.value.step == 1

    def test_modulated_alternating_shear_rejected(self):
        g = TorusGrid(2, 32)
        spec = FieldSpec("alternating_shear", {"modulation_exponent": 0.5})
        with pytest.raises(ValueError, match="singular at t = 0"):
            solve(spec, sine_mode(g), SolverConfig(t_final=0.1, dt=1e-3))


    def test_rk4_step_runs_at_most_twelve_transforms(self, monkeypatch):
        # Four stages of one inverse and d forward transforms each, plus the
        # inverse that record() needs; the first stage reuses that inverse.
        calls = count_transforms(monkeypatch)
        g = TorusGrid(2, 16)
        u0 = random_field(g, seed=5, max_mode=3)
        dt = 1e-3
        counts = []
        for n_steps in (3, 6):
            calls.clear()
            solve(FieldSpec("taylor_green"), u0, SolverConfig(t_final=n_steps * dt, dt=dt))
            counts.append(len(calls))
        # the difference cancels the set-up transforms (field instantiation, the initial state)
        assert counts[0] > 0
        assert counts[1] - counts[0] == 12 * 3

    def test_rk4_step_runs_sixteen_transforms_in_3d(self, monkeypatch):
        # Four stages of one inverse and three forwards, the first stage's inverse being record()'s.
        calls = count_transforms(monkeypatch)
        g = TorusGrid(3, 16)
        u0 = random_field(g, seed=5, max_mode=3)
        dt = 1e-3
        counts = []
        for n_steps in (3, 6):
            calls.clear()
            solve(FieldSpec("taylor_green"), u0, SolverConfig(t_final=n_steps * dt, dt=dt))
            counts.append(len(calls))
        assert counts[1] - counts[0] == 16 * 3


class TestStepOracle:
    """The in-place RK4 step equals the out-of-place form in ``oracles.rk4_solve`` bit for bit."""

    RUNS = {
        "taylor_green": (FieldSpec("taylor_green"), TorusGrid(2, 32), SolverConfig(t_final=0.01, dt=5e-4, record_every=5)),
        "alternating_shear": (FieldSpec("alternating_shear", {"period": 0.004}), TorusGrid(2, 32), SolverConfig(t_final=0.01, dt=5e-4, record_every=5)),
        "pure_diffusion": (None, TorusGrid(2, 32), SolverConfig(t_final=0.01, dt=5e-4, record_every=5)),
        "cfl_safety": (FieldSpec("shear", {"amplitude": 2.0}), TorusGrid(2, 32), SolverConfig(t_final=0.04, cfl_safety=0.5, record_every=3)),
        "power_singularity": (FieldSpec("power_singularity"), TorusGrid(2, 32), SolverConfig(t_final=0.004, dt=2e-4, record_every=5)),
        "taylor_green_3d": (FieldSpec("taylor_green"), TorusGrid(3, 16), SolverConfig(t_final=0.01, dt=1e-3, record_every=5)),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_solve_matches_the_out_of_place_step(self, run):
        b, g, cfg = self.RUNS[run]
        u0 = random_field(g, seed=11, max_mode=4)
        traj = solve(b, u0, cfg)
        times, states, diagnostics = oracles.rk4_solve(b, u0, cfg)
        assert traj.times.tobytes() == times.tobytes()
        assert [s.values.tobytes() for s in traj.states] == [s.tobytes() for s in states]
        assert sorted(traj.diagnostics) == sorted(diagnostics)
        for name, column in diagnostics.items():
            assert traj.diagnostics[name].tobytes() == column.tobytes(), name

    def test_record_writes_the_registered_columns(self):
        traj = solve(None, sine_mode(TorusGrid(2, 8)), SolverConfig(t_final=1e-3, dt=1e-3))
        derived = {"t", "grad_l2_sq_cum", "energy_lhs", "mean"}
        assert set(traj.diagnostics) - derived == set(LQ_COLUMNS) | {f"beta_{name}" for name in REGISTERED_BETAS}


class TestVelocitySampling:
    """The solver instantiates b once per distinct ``library.sample_key``."""

    def test_alternating_shear_instantiates_once_per_parity(self, monkeypatch):
        calls = count_calls(monkeypatch, "advdiff.solver.instantiate")
        g = TorusGrid(2, 16)
        spec = FieldSpec("alternating_shear", {"period": 0.01})
        solve(spec, sine_mode(g, axis=1), SolverConfig(t_final=0.05, dt=1e-3))  # five periods, four switches
        assert len(calls) == 2

    def test_static_spec_instantiates_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "advdiff.solver.instantiate")
        solve(FieldSpec("taylor_green"), sine_mode(TorusGrid(2, 16)), SolverConfig(t_final=0.01, dt=1e-3))
        assert len(calls) == 1


class TestBetaDissipation:
    def test_affine_beta_reduces_to_mean_conservation(self):
        g = TorusGrid(2, 32)
        u0 = ScalarField(g, sine_mode(g).values + 0.3)
        traj = solve(FieldSpec("shear"), u0, SolverConfig(t_final=0.02, dt=5e-4))
        affine = ConvexFunction("identity", lambda s: s)
        assert abs(snapshot_beta_dissipation(traj, affine)) < 1e-12

    def test_registered_betas_decay_under_heat(self):
        g = TorusGrid(2, 32)
        traj = solve(None, sine_mode(g), SolverConfig(t_final=0.05, dt=1e-3))
        for beta in (HALF_SQUARE.name, ARCTAN_PRIMITIVE.name):
            assert beta_dissipation(traj, beta) < 0.0  # strict decay

    def test_unregistered_name_raises(self):
        # only the registered betas have a column: any other name is a lookup error, never a number
        traj = solve(None, sine_mode(TorusGrid(2, 8)), SolverConfig(t_final=1e-3, dt=1e-3))
        with pytest.raises(KeyError):
            beta_dissipation(traj, "quartic")

    def test_nonconvex_rejected(self):
        g = TorusGrid(2, 32)
        traj = solve(None, sine_mode(g), SolverConfig(t_final=0.01, dt=1e-3))
        cap = ConvexFunction("concave", lambda s: -(s * s))
        with pytest.raises(ValueError, match="convexity"):
            snapshot_beta_dissipation(traj, cap)

    def test_custom_convex_function_on_snapshots(self):
        g = TorusGrid(2, 32)
        traj = solve(None, sine_mode(g), SolverConfig(t_final=0.05, dt=1e-3, record_every=5))
        quartic = ConvexFunction("quartic", lambda s: s**4)
        assert snapshot_beta_dissipation(traj, quartic) <= 1e-10


class TestWeakResidual:
    @staticmethod
    def _phi(t_final):
        def spatial(grid):
            x, y = grid.coordinate_mesh()
            return np.broadcast_to(np.sin(2 * np.pi * x) * (1 + 0.5 * np.cos(2 * np.pi * y)) + 0.2, grid.shape)

        return TestFunction.separable(spatial, lambda t: (1 - t / t_final) ** 2, lambda t: -2 * (1 - t / t_final) / t_final)

    def test_heat_run_small_residual_refining(self):
        g = TorusGrid(2, 64)
        u0 = sine_mode(g)
        phi = self._phi(0.05)
        res = []
        for dt in (5e-4, 2.5e-4):
            traj = solve(None, u0, SolverConfig(t_final=0.05, dt=dt, record_every=1))
            res.append(weak_residual(traj, None, phi))
        assert res[0] < 1e-6
        assert res[0] / res[1] >= 4.0

    def test_advected_run_small_residual(self):
        g = TorusGrid(2, 64)
        traj = solve(FieldSpec("taylor_green"), sine_mode(g), SolverConfig(t_final=0.05, dt=5e-4, record_every=1))
        assert weak_residual(traj, FieldSpec("taylor_green"), self._phi(0.05)) < 1e-6

    def test_zero_test_function(self):
        g = TorusGrid(2, 32)
        traj = solve(None, sine_mode(g), SolverConfig(t_final=0.01, dt=1e-3))
        zero = TestFunction(lambda t, grid: np.zeros(grid.shape), lambda t, grid: np.zeros(grid.shape))
        assert weak_residual(traj, None, zero) == 0.0

    def test_spatially_constant_reduces_to_mean_conservation(self):
        g = TorusGrid(2, 32)
        u0 = ScalarField(g, sine_mode(g).values + 0.5)
        traj = solve(FieldSpec("taylor_green"), u0, SolverConfig(t_final=0.02, dt=5e-4, record_every=1))
        phi = TestFunction.separable(lambda grid: np.ones(grid.shape), lambda t: (1 - t / 0.02), lambda t: -1 / 0.02)
        assert weak_residual(traj, FieldSpec("taylor_green"), phi) < 1e-10

    def test_rejects_nonvanishing_final_value(self):
        g = TorusGrid(2, 32)
        traj = solve(None, sine_mode(g), SolverConfig(t_final=0.01, dt=1e-3))
        bad = TestFunction.separable(lambda grid: np.ones(grid.shape), lambda t: 1.0, lambda t: 0.0)
        with pytest.raises(ValueError, match="vanish"):
            weak_residual(traj, None, bad)


def quadrature_samples(n: int):
    """Sample sets of length n: negative zeros, and random values at unit and at widely mixed scales."""
    rng = np.random.default_rng(n)
    yield -np.zeros(n)
    yield rng.normal(size=n)
    yield rng.normal(size=n) * 10.0 ** rng.uniform(-8.0, 8.0, size=n)


class TestSimpsonPorts:
    """The numpy cumulative Simpson rule equals scipy's bit for bit, signed zeros included."""

    # n = 1 and 2 take the trapezoid branch
    SIZES = range(1, 42)

    def test_cumulative_simpson_matches_scipy(self):
        for n in self.SIZES:
            for y in quadrature_samples(n):
                for dx in (1e-3, 0.37):
                    ours, ref = _cumulative_simpson(y, dx), oracles.cumulative_simpson(y, dx=dx, initial=0.0)
                    assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes(), (n, dx)
