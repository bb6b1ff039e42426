"""Acceptance suite: every gate at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from advdiff.commutators import L1_SPACETIME, L2_HMINUS1, CommutatorStudyConfig, convergence_study
from advdiff.grid import ScalarField, TorusGrid, VectorField, lp_norm
from advdiff.library import FieldSpec, estimate_integrability, instantiate
from advdiff.mollify import Mollifier, dyadic_schedule
from advdiff.regimes import FLAG_NAMES, RegimeQuery, classify
from advdiff.solver import SolverConfig, solve
from advdiff.spectral import gradient

from conftest import random_field
from lab import commutator, commutator_divb_correction, commutator_divform, mollified_energy_coupling


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} PASS: {description} [{elapsed:.1f}s]")


def sine_mode(grid, axis):
    coords = grid.coordinate_mesh()
    return ScalarField(grid, np.broadcast_to(np.sin(2 * np.pi * coords[axis]), grid.shape))


CATALOG_RUNS = {}


def catalog_run(name):
    """Solve each catalog field once with smooth data; cached across criteria."""
    if name in CATALOG_RUNS:
        return CATALOG_RUNS[name]
    grid = TorusGrid(2, 64)
    u0 = sine_mode(grid, axis=1)
    kwargs = dict(t_final=0.25, dt=2.5e-4, record_every=250)
    spec_params = {}
    if name == "alternating_shear":
        spec_params = {"period": 0.0625}
    if name == "power_singularity":
        kwargs["mollify_b"] = 0.05  # rough fields run through the smoothing pipeline
    traj = solve(FieldSpec(name, spec_params), u0, SolverConfig(**kwargs))
    CATALOG_RUNS[name] = traj
    return traj


def test_criterion_01_heat_kernel_exactness():
    with criterion(1, "heat kernel exactness on an eigenmode"):
        start = time.perf_counter()
        grid = TorusGrid(2, 64)
        u0 = sine_mode(grid, axis=0)
        traj = solve(None, u0, SolverConfig(t_final=0.1, dt=1e-3, record_every=100))
        exact = math.exp(-4 * math.pi**2 * 0.1) * u0.values
        assert np.max(np.abs(traj.final_state.values - exact)) <= 1e-10
        assert time.perf_counter() - start < 5.0


def test_criterion_02_energy_balance_and_order():
    with criterion(2, "exact energy balance, residual falls >= 4x under dt halving"):
        start = time.perf_counter()
        grid = TorusGrid(2, 128)
        u0 = sine_mode(grid, axis=1)
        residuals = []
        for dt in (2e-4, 1e-4):
            traj = solve(FieldSpec("taylor_green"), u0, SolverConfig(t_final=0.25, dt=dt, record_every=10**9))
            diag = traj.diagnostics
            residuals.append(abs(diag["energy_lhs"][-1] - 0.5 * diag["l2"][0] ** 2))
        assert residuals[0] <= 1e-6
        assert residuals[0] / residuals[1] >= 4.0
        assert time.perf_counter() - start < 120.0


def test_criterion_03_apriori_estimates_all_catalog_fields():
    with criterion(3, "L^q bounds (E1) and dissipation bound (E2) on every catalog field"):
        for name in ("constant", "shear", "taylor_green", "rotation_bump", "power_singularity", "alternating_shear"):
            traj = catalog_run(name)
            diag = traj.diagnostics
            for column in ("l1", "l2", "l4", "linf"):
                sup = diag[column].max()
                assert sup <= diag[column][0] + 1e-8, f"{name}: {column} bound"
            dissipated = diag["grad_l2_sq_cum"][-1]
            assert dissipated <= 0.5 * diag["l2"][0] ** 2 + 1e-8, f"{name}: dissipation bound"


def test_criterion_04_convex_dissipation():
    with criterion(4, "convex-function dissipation for s^2/2 and the arctan primitive"):
        for name in ("taylor_green", "shear", "rotation_bump"):
            traj = catalog_run(name)
            for beta_name in ("half_square", "arctan"):
                series = traj.diagnostics[f"beta_{beta_name}"]
                worst = max(b - a for a, b in zip(series, series[1:]))
                assert worst <= 1e-8 * series[0], f"{name}/{beta_name}"


def test_criterion_05_commutator_l1_decay_rate():
    with criterion(5, "L1 commutator decay, rate >= 0.8, verdict stable under refinement"):
        start = time.perf_counter()
        for n in (256, 512):
            grid = TorusGrid(2, n)
            w = sine_mode(grid, axis=0)
            cfg = CommutatorStudyConfig(
                b_source=FieldSpec("taylor_green"),
                w_source=w,
                delta_schedule=dyadic_schedule(0.1, 5),
                norm=L1_SPACETIME,
            )
            study = convergence_study(cfg)
            assert study.verdict == "decay"
            assert all(fine < coarse for coarse, fine in zip(study.norms, study.norms[1:]))
            assert study.fitted_rate >= 0.8
        assert time.perf_counter() - start < 300.0


def test_criterion_06_commutator_hminus1_decay_both_profiles():
    with criterion(6, "L2 H^-1 commutator decay for a singular field, both kernels"):
        grid = TorusGrid(2, 256)
        x, y = grid.coordinate_mesh()
        w = ScalarField(grid, np.broadcast_to(np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y) + 0.5 * np.cos(2 * np.pi * y), grid.shape))
        for profile in ("gaussian_periodized", "bump_compact"):
            cfg = CommutatorStudyConfig(
                b_source=FieldSpec("power_singularity", {"exponent": 1.25}),
                w_source=w,
                delta_schedule=dyadic_schedule(0.1, 4),
                mollifier_profile=profile,
                norm=L2_HMINUS1,
            )
            study = convergence_study(cfg)
            assert all(r <= 0.9 for r in study.ratios), profile


def test_criterion_07_divergence_form_identities():
    with criterion(7, "divergence-form agreement and the bounded-divergence correction"):
        grid = TorusGrid(2, 256)
        m = Mollifier("gaussian_periodized", 0.05)
        w = random_field(grid, seed=81, max_mode=8, count=10)

        solenoidal = instantiate(FieldSpec("taylor_green"), grid)
        assert lp_norm(ScalarField(grid, commutator(solenoidal, w, m).values - commutator_divform(solenoidal, w, m).values), 2.0) <= 1e-9

        psi = random_field(grid, seed=82, max_mode=2, count=3)
        sheared = VectorField(grid, gradient(psi).components)  # div != 0
        gap = commutator_divform(sheared, w, m).values - commutator(sheared, w, m).values
        corr = commutator_divb_correction(sheared, w, m)
        assert lp_norm(ScalarField(grid, gap - corr.values), 2.0) <= 1e-9


def test_criterion_08_energy_commutator_coupling():
    with criterion(8, "mollified energy budget equals the commutator pairing; both shrink"):
        grid = TorusGrid(2, 64)
        u0 = random_field(grid, seed=78, max_mode=2, count=4)
        traj = solve(FieldSpec("taylor_green"), u0, SolverConfig(t_final=0.1, dt=1.25e-4, record_every=1))
        records = mollified_energy_coupling(
            traj, FieldSpec("taylor_green"), "gaussian_periodized", (0.2, 0.1, 0.05, 0.025)
        )
        for rec in records:
            assert rec.gap <= 1e-6
        residuals = [abs(rec.energy_residual) for rec in records]
        couplings = [abs(rec.coupling_integral) for rec in records]
        assert all(fine < coarse for coarse, fine in zip(residuals, residuals[1:]))
        assert all(fine < coarse for coarse, fine in zip(couplings, couplings[1:]))


REGIME_EXAMPLES = [
    ((3, 0.0, 0.0, 0.5), (True, True, True, True, True), (), ()),
    ((3, 0.5, 0.5, 0.5), (True, True, True, True, False), ("DISTR", "P2Q2"), ()),
    ((3, 0.0, 1.0, 0.0), (True, True, False, False, False), ("CIH1", "DISTR"), ()),
    ((3, 0.0, 0.7, 0.7), (False, False, False, False, False), (), ()),
]

REGIME_AUDIT = [
    ((3, 0.0, 0.8, 0.1), (True, True, False, False, False), (), ("Q1", "Q6")),
    ((3, 0.4, 0.3, 0.3), (True, True, True, True, False), (), ("Q6",)),
    ((3, 0.2, 0.2, 0.2), (True, True, True, True, True), (), ()),
    ((3, 0.0, 0.9, 0.05), (True, True, False, False, False), ("CIH1",), ("Q6",)),
    ((3, 0.5, 0.5, 0.5), (True, True, True, True, False), ("DISTR", "P2Q2"), ()),
    ((3, 0.0, 0.7, 0.2), (True, True, False, False, False), (), ("Q1", "Q6")),
    ((2, 0.0, 0.5, 0.5), (True, True, True, True, False), (), ("Q5",)),
    ((2, 0.0, 0.3, 0.4), (True, True, True, True, False), (), ("Q6",)),
    ((3, 0.0, 0.7, 0.7), (False, False, False, False, False), (), ()),
]


def test_criterion_09_regime_truth_table_and_invariants():
    with criterion(9, "regime truth table plus coherence/monotonicity on 10^4 queries"):
        start = time.perf_counter()
        for point, flags, tags, questions in REGIME_EXAMPLES + REGIME_AUDIT:
            d, inv_alpha, inv_p, inv_q = point
            rep = classify(RegimeQuery(d=d, inv_alpha=inv_alpha, inv_p=inv_p, inv_q=inv_q))
            assert rep.flags == flags, point
            assert rep.known_nonuniqueness == tags, point
            assert rep.open_questions == questions, point

        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            d = int(rng.integers(1, 5))
            base = rng.uniform(0.0, 1.0, size=3)
            improved = base * rng.uniform(0.0, 1.0, size=3)
            rep0 = classify(RegimeQuery(d=d, inv_alpha=base[0], inv_p=base[1], inv_q=base[2]))
            rep1 = classify(RegimeQuery(d=d, inv_alpha=improved[0], inv_p=improved[1], inv_q=improved[2]))
            # coherence chain on both, monotonicity across the pair
            for rep in (rep0, rep1):
                assert rep.parabolic_unique <= rep.parabolic_exists <= rep.distributional_exists <= rep.product_defined
                assert rep.all_distributional_parabolic <= rep.parabolic_unique
            for name in FLAG_NAMES:
                assert getattr(rep0, name) <= getattr(rep1, name)
        assert time.perf_counter() - start < 10.0


def test_criterion_10_integrability_placement():
    with criterion(10, "quadrature trends flip across p* = 2/(a-1)"):
        start = time.perf_counter()
        resolutions = (128, 256, 512, 1024)
        for a in (1.4, 1.5, 1.75):
            spec = FieldSpec("power_singularity", {"exponent": a})
            p_star = 2.0 / (a - 1.0)
            below, above = estimate_integrability(spec, (p_star - 1.0, p_star + 1.0), resolutions)
            assert below.verdict == "converging", (a, below)
            assert above.verdict == "diverging", (a, above)
        assert time.perf_counter() - start < 180.0
