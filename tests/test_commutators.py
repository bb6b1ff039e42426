import numpy as np
import pytest

from advdiff.commutators import (
    L1_SPACETIME,
    L2_HMINUS1,
    CommutatorStudyConfig,
    commutator,
    commutator_divb_correction,
    commutator_divform,
    convergence_study,
    mollified_energy_coupling,
    summarize_decay,
)
from advdiff.grid import ScalarField, TorusGrid, VectorField, h_norm, lp_norm
from advdiff.library import FieldSpec, instantiate
from advdiff.mollify import PROFILES, Mollifier, dyadic_schedule, kernel_multiplier
from advdiff.solver import SolverConfig, solve
from advdiff.spectral import gradient

import oracles
from conftest import count_calls, count_transforms, peak_state_arrays, random_field


def gradient_velocity(grid, seed=61):
    """A non-solenoidal velocity: the gradient of a smooth potential."""
    psi = random_field(grid, seed=seed, max_mode=2, count=3)
    return VectorField(grid, gradient(psi).components)


class TestCommutatorPointwise:
    def test_constant_velocity_annihilates(self, grid64):
        b = instantiate(FieldSpec("constant", {"c1": 0.7, "c2": -0.2}), grid64)
        w = random_field(grid64, seed=62, max_mode=8)
        r = commutator(b, w, Mollifier("gaussian_periodized", 0.1))
        assert np.max(np.abs(r.values)) < 1e-12

    def test_constant_scalar_annihilates(self, grid64):
        b = instantiate(FieldSpec("taylor_green"), grid64)
        r = commutator(b, ScalarField.constant(grid64, 3.0), Mollifier("bump_compact", 0.1))
        assert np.max(np.abs(r.values)) < 1e-12

    def test_grid_mismatch_rejected(self):
        b = instantiate(FieldSpec("taylor_green"), TorusGrid(2, 32))
        w = ScalarField.constant(TorusGrid(2, 64), 1.0)
        with pytest.raises(ValueError, match="grids"):
            commutator(b, w, Mollifier("gaussian_periodized", 0.1))

    def test_zero_mean_for_solenoidal_velocity(self):
        g = TorusGrid(2, 128)
        b = instantiate(FieldSpec("taylor_green"), g)
        for seed in (63, 64):
            w = random_field(g, seed=seed, max_mode=10, count=12)
            r = commutator(b, w, Mollifier("gaussian_periodized", 0.05))
            assert abs(np.mean(r.values)) < 1e-10

    def test_dyadic_halving_contracts_l1(self):
        # Lipschitz velocity and smooth data: halving delta must cut the L1
        # norm by at least 1.8x along {0.05, 0.025, 0.0125}
        g = TorusGrid(2, 256)
        b = instantiate(FieldSpec("taylor_green"), g)
        w = ScalarField(g, np.broadcast_to(np.sin(2 * np.pi * g.coordinate_mesh()[0]), g.shape))
        norms = [lp_norm(commutator(b, w, Mollifier("gaussian_periodized", d)), 1.0) for d in (0.05, 0.025, 0.0125)]
        for coarse, fine in zip(norms, norms[1:]):
            assert coarse / fine >= 1.8


class TestDivergenceForm:
    def test_constant_velocity_zero(self, grid64):
        b = instantiate(FieldSpec("constant"), grid64)
        w = random_field(grid64, seed=65, max_mode=6)
        r = commutator_divform(b, w, Mollifier("gaussian_periodized", 0.1))
        assert np.max(np.abs(r.values)) < 1e-12

    def test_agrees_with_direct_form_for_solenoidal(self):
        g = TorusGrid(2, 256)
        m = Mollifier("gaussian_periodized", 0.05)
        b = instantiate(FieldSpec("taylor_green"), g)
        w = random_field(g, seed=66, max_mode=8, count=10)
        direct = commutator(b, w, m)
        divform = commutator_divform(b, w, m)
        assert lp_norm(ScalarField(g, direct.values - divform.values), 2.0) < 1e-9

    def test_divb_correction_reproduces_gap(self):
        g = TorusGrid(2, 256)
        m = Mollifier("gaussian_periodized", 0.05)
        b = gradient_velocity(g)
        w = random_field(g, seed=67, max_mode=8, count=10)
        gap = commutator_divform(b, w, m).values - commutator(b, w, m).values
        corr = commutator_divb_correction(b, w, m)
        assert lp_norm(ScalarField(g, gap - corr.values), 2.0) < 1e-9
        assert lp_norm(corr, 2.0) > 1e-3  # the gap is genuinely nonzero here

    def test_correction_vanishes_for_solenoidal(self, grid64):
        b = instantiate(FieldSpec("taylor_green"), grid64)
        w = random_field(grid64, seed=68, max_mode=6)
        corr = commutator_divb_correction(b, w, Mollifier("bump_compact", 0.1))
        assert np.max(np.abs(corr.values)) < 1e-10

    def test_correction_decays_for_bounded_divergence(self):
        g = TorusGrid(2, 128)
        b = gradient_velocity(g)
        w = random_field(g, seed=69, max_mode=4, count=6)
        norms = [
            lp_norm(commutator_divb_correction(b, w, Mollifier("gaussian_periodized", d)), 2.0)
            for d in dyadic_schedule(0.2, 4)
        ]
        for coarse, fine in zip(norms, norms[1:]):
            assert fine < coarse

    def test_constant_scalar_correction_decays(self):
        g = TorusGrid(2, 128)
        b = gradient_velocity(g)
        w = ScalarField.constant(g, 2.0)
        norms = [
            lp_norm(commutator_divb_correction(b, w, Mollifier("gaussian_periodized", d)), 2.0)
            for d in dyadic_schedule(0.2, 4)
        ]
        for coarse, fine in zip(norms, norms[1:]):
            assert fine < coarse


class TestStudyConfig:
    def test_schedule_must_decrease(self, grid32):
        w = random_field(grid32, seed=70)
        with pytest.raises(ValueError, match="decreasing"):
            CommutatorStudyConfig(b_source=FieldSpec("shear"), w_source=w, delta_schedule=(0.1, 0.2))

    def test_norm_name_checked(self, grid32):
        w = random_field(grid32, seed=70)
        with pytest.raises(ValueError, match="norm"):
            CommutatorStudyConfig(b_source=FieldSpec("shear"), w_source=w, delta_schedule=(0.1, 0.05), norm="L2")

    def test_resolvability_validated_at_run(self, grid32):
        w = random_field(grid32, seed=70)
        with pytest.raises(ValueError, match="resolvable"):
            CommutatorStudyConfig(
                b_source=FieldSpec("shear"), w_source=w, delta_schedule=(0.1, 0.001)
            )

    def test_trajectory_sampling_validated_against_period(self):
        g = TorusGrid(2, 32)
        u0 = random_field(g, seed=71, max_mode=2, count=3)
        traj = solve(None, u0, SolverConfig(t_final=0.2, dt=1e-2, record_every=10))
        with pytest.raises(ValueError, match="snapshot spacing"):
            CommutatorStudyConfig(
                b_source=FieldSpec("alternating_shear", {"period": 0.05}),
                w_source=traj,
                delta_schedule=(0.2, 0.1),
            )


class TestSummarizeDecay:
    def test_exact_verdict(self):
        st = summarize_decay((0.1, 0.05), (1e-14, 5e-15), L1_SPACETIME)
        assert st.verdict == "exact" and st.fitted_rate is None

    def test_no_decay_flag(self):
        st = summarize_decay((0.1, 0.05, 0.025), (1.0, 0.9, 1.5), L1_SPACETIME)
        assert st.verdict == "no-decay" and st.fitted_rate is None

    def test_tolerates_20pc_wiggle(self):
        st = summarize_decay((0.1, 0.05, 0.025), (1.0, 1.1, 0.5), L1_SPACETIME)
        assert st.verdict == "decay"

    def test_rate_fit_excludes_first_of_five(self):
        deltas = (0.1, 0.05, 0.025, 0.0125, 0.00625)
        norms = tuple(100.0 if i == 0 else d**2 for i, d in enumerate(deltas))
        st = summarize_decay(deltas, norms, L1_SPACETIME)
        assert st.fitted_rate == pytest.approx(2.0, abs=1e-9)


class TestConvergenceStudy:
    def test_constant_velocity_is_exact(self, grid64):
        w = random_field(grid64, seed=72, max_mode=6)
        cfg = CommutatorStudyConfig(
            b_source=FieldSpec("constant"), w_source=w, delta_schedule=dyadic_schedule(0.1, 3)
        )
        st = convergence_study(cfg)
        assert st.verdict == "exact"

    def test_lipschitz_velocity_l1_decay(self):
        g = TorusGrid(2, 128)
        w = ScalarField(g, np.broadcast_to(np.sin(2 * np.pi * g.coordinate_mesh()[0]), g.shape))
        cfg = CommutatorStudyConfig(
            b_source=FieldSpec("taylor_green"), w_source=w,
            delta_schedule=dyadic_schedule(0.1, 4), norm=L1_SPACETIME,
        )
        st = convergence_study(cfg)
        assert st.verdict == "decay"
        assert st.fitted_rate >= 0.8

    def test_kernel_independent_decay_both_norms(self):
        g = TorusGrid(2, 128)
        w = random_field(g, seed=74, max_mode=3, count=4)
        for norm in (L1_SPACETIME, L2_HMINUS1):
            for profile in ("gaussian_periodized", "bump_compact"):
                cfg = CommutatorStudyConfig(
                    b_source=FieldSpec("taylor_green"), w_source=w,
                    delta_schedule=dyadic_schedule(0.1, 4),
                    mollifier_profile=profile, norm=norm,
                )
                assert convergence_study(cfg).verdict == "decay"

    def test_time_dependent_velocity_midpoint_sampling(self):
        g = TorusGrid(2, 64)
        w = random_field(g, seed=75, max_mode=4)
        cfg = CommutatorStudyConfig(
            b_source=FieldSpec("alternating_shear", {"period": 0.25}),
            w_source=w,
            delta_schedule=dyadic_schedule(0.1, 3),
            t_final=1.0,
            time_samples=8,
        )
        st = convergence_study(cfg)
        assert st.verdict == "decay"

    def test_trajectory_sourced_study(self):
        g = TorusGrid(2, 64)
        u0 = random_field(g, seed=76, max_mode=3, count=4)
        traj = solve(FieldSpec("taylor_green"), u0, SolverConfig(t_final=0.05, dt=1e-3, record_every=5))
        cfg = CommutatorStudyConfig(
            b_source=FieldSpec("taylor_green"), w_source=traj,
            delta_schedule=dyadic_schedule(0.1, 3), norm=L2_HMINUS1,
        )
        st = convergence_study(cfg)
        assert st.verdict == "decay"


def _study_case(case: str, norm: str, profile: str) -> CommutatorStudyConfig:
    g = TorusGrid(2, 64)
    w = random_field(g, seed=80, max_mode=4, count=6)
    extra = {}
    if case == "trajectory":
        b = FieldSpec("taylor_green")
        w = solve(b, w, SolverConfig(t_final=0.02, dt=1e-3, record_every=5))
    elif case == "alternating_shear":
        b, extra = FieldSpec(case, {"period": 0.25}), {"time_samples": 8}
    else:
        b = FieldSpec(case)
    return CommutatorStudyConfig(
        b_source=b, w_source=w, delta_schedule=dyadic_schedule(0.2, 4),
        mollifier_profile=profile, norm=norm, **extra,
    )


class TestStudyMatchesLevelByLevelOracle:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("norm", [L1_SPACETIME, L2_HMINUS1])
    @pytest.mark.parametrize("case", ["taylor_green", "power_singularity", "alternating_shear", "trajectory"])
    def test_norms_and_rate_match(self, case, norm, profile):
        cfg = _study_case(case, norm, profile)
        want = summarize_decay(cfg.delta_schedule, oracles.study_norms(cfg), norm)
        got = convergence_study(cfg)
        np.testing.assert_allclose(got.norms, want.norms, rtol=1e-12, atol=0.0)
        assert got.verdict == want.verdict
        assert got.fitted_rate == pytest.approx(want.fitted_rate, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_pointwise_commutator_matches(self, profile):
        g = TorusGrid(2, 64)
        b = instantiate(FieldSpec("power_singularity"), g)
        w = random_field(g, seed=81, max_mode=6)
        m = Mollifier(profile, 0.1)
        want = oracles.commutator(b, w, m)
        assert np.max(np.abs(commutator(b, w, m).values - want)) <= 1e-12 * np.max(np.abs(want))


class TestStudyWorkCount:
    def test_static_study_instantiates_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "advdiff.library.instantiate")
        cfg = CommutatorStudyConfig(
            b_source=FieldSpec("taylor_green"), w_source=random_field(TorusGrid(2, 128), seed=82),
            delta_schedule=dyadic_schedule(0.2, 5), norm=L2_HMINUS1,
        )
        convergence_study(cfg)
        assert len(calls) == 1

    def test_time_dependent_study_instantiates_once_per_node(self, monkeypatch, grid64):
        # Unmodulated, the six nodes share the two parities of the switch.
        calls = count_calls(monkeypatch, "advdiff.library.instantiate")
        cfg = CommutatorStudyConfig(
            b_source=FieldSpec("alternating_shear", {"period": 0.25}), w_source=random_field(grid64, seed=83),
            delta_schedule=dyadic_schedule(0.2, 4), time_samples=6,
        )
        convergence_study(cfg)
        assert len(calls) == 2

    def test_modulated_study_instantiates_once_per_node(self, monkeypatch, grid64):
        calls = count_calls(monkeypatch, "advdiff.library.instantiate")
        cfg = CommutatorStudyConfig(
            b_source=FieldSpec("alternating_shear", {"period": 0.25, "modulation_exponent": 0.5}),
            w_source=random_field(grid64, seed=83), delta_schedule=dyadic_schedule(0.2, 4), time_samples=6,
        )
        convergence_study(cfg)
        assert len(calls) == 6

    def test_modulated_study_peak_memory_does_not_grow_with_nodes(self, grid64):
        w = random_field(grid64, seed=85)

        def study(nodes):
            cfg = CommutatorStudyConfig(
                b_source=FieldSpec("alternating_shear", {"period": 0.25, "modulation_exponent": 0.5}),
                w_source=w, delta_schedule=dyadic_schedule(0.2, 3), time_samples=nodes,
            )
            return lambda: convergence_study(cfg)

        assert peak_state_arrays(study(16), grid64) <= peak_state_arrays(study(2), grid64) + 3

    @pytest.mark.parametrize("norm", [L1_SPACETIME, L2_HMINUS1])
    def test_static_singular_study_working_set(self, norm):
        # The builder's profile temporaries are gone before its projection,
        # so neither it nor a level holds more than about 9 state arrays.
        g = TorusGrid(2, 128)
        cfg = CommutatorStudyConfig(
            b_source=FieldSpec("power_singularity"), w_source=random_field(g, seed=88),
            delta_schedule=dyadic_schedule(0.2, 3), norm=norm,
        )
        assert peak_state_arrays(lambda: convergence_study(cfg), g) <= 10

    @pytest.mark.parametrize("levels", [2, 5])
    def test_static_study_transform_budget(self, monkeypatch, levels):
        # Set-up: instantiate (2 forward + 2 inverse for the Leray projection,
        # 2 forward + 1 inverse for the divergence gate), the forward of w,
        # the d inverses of grad w and the forward of b . grad w: 11 in 2D.
        # Each level: d + 1 inverses and the forward of the H^-1 norm.  The
        # kernel multipliers are cached beforehand, so they are not counted.
        g = TorusGrid(2, 128)
        cfg = CommutatorStudyConfig(
            b_source=FieldSpec("power_singularity", {"exponent": 1.25}), w_source=random_field(g, seed=84),
            delta_schedule=dyadic_schedule(0.2, levels), norm=L2_HMINUS1,
        )
        for delta in cfg.delta_schedule:
            kernel_multiplier(Mollifier(cfg.mollifier_profile, delta), g)
        calls = count_transforms(monkeypatch)
        convergence_study(cfg)
        assert 0 < len(calls) <= 4 * levels + 11


class TestDualityBound:
    def test_multiplier_norm_dominates_pairings(self):
        g = TorusGrid(2, 128)
        b = instantiate(FieldSpec("taylor_green"), g)
        w = random_field(g, seed=77, max_mode=6, count=8)
        r = commutator(b, w, Mollifier("gaussian_periodized", 0.05))
        bound = h_norm(r, -1)
        cell = g.cell_volume
        for seed in range(10):
            phi = random_field(g, seed=100 + seed, max_mode=6, count=8)
            phi = ScalarField(g, (1.0 / h_norm(phi, +1)) * phi.values)
            pairing = abs(float(np.sum(r.values * phi.values)) * cell)
            assert pairing <= bound * (1 + 1e-6)


class TestEnergyCoupling:
    def test_budget_equals_pairing_and_both_shrink(self):
        g = TorusGrid(2, 64)
        u0 = random_field(g, seed=78, max_mode=2, count=4)
        traj = solve(FieldSpec("taylor_green"), u0, SolverConfig(t_final=0.1, dt=1.25e-4, record_every=1))
        records = mollified_energy_coupling(traj, FieldSpec("taylor_green"), "gaussian_periodized", (0.2, 0.1, 0.05, 0.025))
        for rec in records:
            assert rec.gap < 1e-6
        resid = [abs(rec.energy_residual) for rec in records]
        coup = [abs(rec.coupling_integral) for rec in records]
        assert all(fine < coarse for coarse, fine in zip(resid, resid[1:]))
        assert all(fine < coarse for coarse, fine in zip(coup, coup[1:]))

    def test_time_dependent_velocity_taken_per_snapshot(self):
        # With b frozen at t = 0 the gap is 1.0e-3, 3.1e-4 and 8.1e-5 at these
        # deltas; with b(t) at each snapshot it is below 3e-6.
        g = TorusGrid(2, 64)
        u0 = random_field(g, seed=78, max_mode=2, count=4)
        spec = FieldSpec("alternating_shear", {"period": 0.025, "amplitude": 3.0})
        traj = solve(spec, u0, SolverConfig(t_final=0.1, dt=1.25e-4, record_every=1))
        for rec in mollified_energy_coupling(traj, spec, "gaussian_periodized", (0.2, 0.1, 0.05)):
            assert rec.gap <= 1e-5

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("case", ["taylor_green", "rotation_bump", "alternating_shear"])
    def test_matches_per_snapshot_oracle(self, case, profile):
        g = TorusGrid(2, 32)
        u0 = random_field(g, seed=86, max_mode=2, count=4)
        if case == "rotation_bump":
            b = instantiate(FieldSpec(case), g)
        elif case == "alternating_shear":
            b = FieldSpec(case, {"period": 0.025, "amplitude": 3.0})
        else:
            b = FieldSpec(case)
        traj = solve(b, u0, SolverConfig(t_final=0.02, dt=2.5e-4))
        deltas = (0.4, 0.2, 0.1)
        got = mollified_energy_coupling(traj, b, profile, deltas)
        want = oracles.energy_coupling(traj, b, profile, deltas)
        assert [rec.delta for rec in got] == [rec.delta for rec in want]
        assert [rec.coupling_integral for rec in got] == [rec.coupling_integral for rec in want]
        # The residual cancels terms of the size of the initial energy, so its
        # roundoff is measured against that energy, not against the residual.
        energy = 0.5 * lp_norm(u0, 2.0) ** 2
        for rec, ref in zip(got, want):
            assert rec.energy_residual == pytest.approx(ref.energy_residual, rel=1e-12, abs=1e-12 * energy)

    def test_transform_budget(self, monkeypatch):
        # Per snapshot: the transport's forward of u, d inverses of grad u and
        # the forward of b . grad u; per level the d + 1 inverses of r^delta
        # and the inverse of u^delta.  The 3 is the divergence gate of the one
        # instantiate of the static field.
        g = TorusGrid(2, 32)
        b = FieldSpec("taylor_green")
        traj = solve(b, random_field(g, seed=87, max_mode=2, count=4), SolverConfig(t_final=0.01, dt=1e-3))
        deltas = (0.4, 0.2, 0.1)
        for delta in deltas:
            kernel_multiplier(Mollifier("gaussian_periodized", delta), g)
        calls = count_transforms(monkeypatch)
        mollified_energy_coupling(traj, b, "gaussian_periodized", deltas)
        snapshots, levels = len(traj.states), len(deltas)
        assert 0 < len(calls) <= snapshots * (g.dim + 2) * (levels + 1) + 3

    def test_requires_dense_snapshots(self):
        g = TorusGrid(2, 32)
        u0 = random_field(g, seed=79, max_mode=2, count=3)
        traj = solve(None, u0, SolverConfig(t_final=0.01, dt=5e-3, record_every=100))
        with pytest.raises(ValueError, match="dense"):
            mollified_energy_coupling(traj, FieldSpec("taylor_green"), "gaussian_periodized", (0.1,))

    def test_pure_diffusion_rejected(self):
        # solve accepts b = None; the coupling has no commutator to pair without a velocity
        g = TorusGrid(2, 16)
        u0 = random_field(g, seed=80, max_mode=2, count=3)
        traj = solve(None, u0, SolverConfig(t_final=0.01, dt=1e-3))
        with pytest.raises(ValueError, match="needs a velocity"):
            mollified_energy_coupling(traj, None, "gaussian_periodized", (0.4,))
