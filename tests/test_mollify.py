import math
import tracemalloc

import numpy as np
import pytest

from advdiff.grid import ScalarField, TorusGrid, lp_norm, wrapped_displacement
from advdiff.library import FieldSpec, instantiate
from advdiff.mollify import (
    BUMP_COMPACT,
    GAUSSIAN_PERIODIZED,
    MIN_DELTA_FACTOR,
    Mollifier,
    UnderResolvedKernelError,
    dyadic_schedule,
    kernel_multiplier,
    mollify,
)
from advdiff.spectral import divergence_defect, gradient, spectral_core

from conftest import random_field
from oracles import kernel_field

PROFILES = (GAUSSIAN_PERIODIZED, BUMP_COMPACT)


class TestMollifierValidation:
    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="profile"):
            Mollifier("boxcar", 0.1)

    def test_nonpositive_delta(self):
        with pytest.raises(ValueError, match="delta"):
            Mollifier(GAUSSIAN_PERIODIZED, 0.0)

    def test_under_resolved_kernel_rejected(self, line256):
        delta = 0.9 * MIN_DELTA_FACTOR * line256.spacing
        with pytest.raises(UnderResolvedKernelError):
            kernel_field(Mollifier(GAUSSIAN_PERIODIZED, delta), line256)


class TestKernelField:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_unit_mass(self, profile, line256):
        k = kernel_field(Mollifier(profile, 0.1), line256)
        assert abs(lp_norm(k, 1.0) - 1.0) < 1e-12

    @pytest.mark.parametrize("profile", PROFILES)
    def test_nonnegative(self, profile, line256):
        k = kernel_field(Mollifier(profile, 0.05), line256)
        assert np.min(k.values) >= 0.0

    def test_bump_support_scan(self, line256):
        k = kernel_field(Mollifier(BUMP_COMPACT, 0.1), line256)
        x = line256.axis_coordinates()
        r = np.abs(np.mod(x + 0.5, 1.0) - 0.5)
        assert np.max(np.abs(k.values[r >= 0.1])) == 0.0
        assert np.all(k.values[r < 0.095] > 0.0)

    def test_wide_gaussian_flattens(self):
        g = TorusGrid(1, 64)
        k = kernel_field(Mollifier(GAUSSIAN_PERIODIZED, 10.0), g)
        assert np.max(np.abs(k.values - 1.0)) < 1e-6

    @pytest.mark.parametrize("profile", PROFILES)
    def test_second_moment_scales_quadratically(self, profile):
        g = TorusGrid(2, 256)
        moments = []
        for delta in (0.05, 0.1, 0.2):
            k = kernel_field(Mollifier(profile, delta), g)
            disp = wrapped_displacement(g.coordinate_mesh(), [0.0, 0.0])
            r_sq = sum(np.broadcast_to(w, g.shape) ** 2 for w in disp)
            moments.append(float(np.sum(k.values * r_sq)) * g.cell_volume)
        for coarse, fine in zip(moments[1:], moments[:-1]):
            assert coarse / fine == pytest.approx(4.0, rel=0.05)


class TestMollify:
    def test_constant_unchanged(self, grid32):
        f = ScalarField.constant(grid32, 2.5)
        out = mollify(f, Mollifier(GAUSSIAN_PERIODIZED, 0.2))
        assert np.max(np.abs(out.values - 2.5)) < 1e-12

    @pytest.mark.parametrize("profile", PROFILES)
    def test_mean_preserved(self, profile, grid64):
        f = random_field(grid64, seed=31)
        out = mollify(f, Mollifier(profile, 0.1))
        assert abs(np.mean(out.values) - np.mean(f.values)) < 1e-12

    def test_single_mode_matches_wrapped_gaussian_coefficient(self):
        # oracle: the periodized Gaussian of std delta/3 has Fourier
        # coefficient exp(-2 pi^2 (delta/3)^2 k^2) at integer k
        g = TorusGrid(1, 128)
        f = ScalarField(g, np.sin(2 * np.pi * g.axis_coordinates()))
        for delta in (0.3, 0.15, 0.06):
            out = mollify(f, Mollifier(GAUSSIAN_PERIODIZED, delta))
            expected = math.exp(-2.0 * math.pi**2 * (delta / 3.0) ** 2)
            assert np.max(np.abs(out.values - expected * f.values)) < 1e-8

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
    def test_lp_contraction(self, profile, p, grid64):
        m = Mollifier(profile, 0.07)
        for seed in (41, 42, 43):
            f = random_field(grid64, seed=seed, max_mode=12, count=20)
            assert lp_norm(mollify(f, m), p) <= lp_norm(f, p) + 1e-10

    @pytest.mark.parametrize("profile", PROFILES)
    def test_strong_convergence_monotone(self, profile):
        g = TorusGrid(2, 128)
        f = random_field(g, seed=44, max_mode=4, count=6)
        errors = [lp_norm(ScalarField(g, mollify(f, Mollifier(profile, d)).values - f.values), 2.0) for d in dyadic_schedule(0.25, 4)]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse + 1e-10

    def test_commutes_with_gradient(self, grid64):
        f = random_field(grid64, seed=45)
        m = Mollifier(GAUSSIAN_PERIODIZED, 0.1)
        a = gradient(mollify(f, m))
        b = mollify(gradient(f), m)
        for ca, cb in zip(a.components, b.components):
            assert np.max(np.abs(ca.values - cb.values)) < 1e-11

    def test_vector_mollify_keeps_divergence_free_tag(self, grid64):
        v = instantiate(FieldSpec("taylor_green"), grid64)
        out = mollify(v, Mollifier(BUMP_COMPACT, 0.1))
        assert divergence_defect(out) < 1e-12

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            mollify(3.0, Mollifier(GAUSSIAN_PERIODIZED, 0.1))


class TestKernelMultiplier:
    def test_cache_retains_only_the_multipliers(self):
        # Neither the sampled kernel nor the complex spectrum the multiplier
        # was taken from may outlive the call.
        g = TorusGrid(2, 128)
        spectral_core(g)
        kernel_multiplier(Mollifier(GAUSSIAN_PERIODIZED, 0.2171), g)  # warm any per-grid state
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mults = [kernel_multiplier(Mollifier(GAUSSIAN_PERIODIZED, 0.0531 + 0.0117 * j), g) for j in range(5)]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 1.25 * sum(m.nbytes for m in mults)


class TestDyadicSchedule:
    def test_halving(self):
        assert dyadic_schedule(0.1, 3) == (0.1, 0.05, 0.025)

    def test_validation(self):
        with pytest.raises(ValueError):
            dyadic_schedule(0.1, 0)
        with pytest.raises(ValueError):
            dyadic_schedule(-1.0, 2)
