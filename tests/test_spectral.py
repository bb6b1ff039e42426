import itertools

import numpy as np
import pytest

from advdiff.grid import ScalarField, TorusGrid, VectorField, h_norm, lp_norm
from advdiff.library import FieldSpec, instantiate
from advdiff.mollify import PROFILES, Mollifier, mollify
from advdiff.solver import SolverConfig, solve
from advdiff.spectral import (
    _dealias_band,
    divergence,
    divergence_defect,
    gradient,
    laplacian,
    leray_project,
    perp_gradient,
    spectral_core,
)

import oracles
from conftest import peak_state_arrays, random_field, trig_field
from oracles import translate


def forward(f: ScalarField) -> np.ndarray:
    """Half-spectrum coefficients normalized so that forward(c)[0, ...] = c."""
    return spectral_core(f.grid).forward(f.values) / f.grid.size


def inverse(grid: TorusGrid, coeffs: np.ndarray) -> ScalarField:
    return ScalarField(grid, spectral_core(grid).inverse(coeffs * grid.size))


def dealias(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """The solver's 2/3 truncation: zero every mode with some |k_j| > N/3."""
    return np.where(spectral_core(grid).keep, coeffs, 0.0)


class TestTransform:
    def test_constant_forward(self, grid32):
        F = forward(ScalarField.constant(grid32, 5.0))
        assert F[0, 0] == pytest.approx(5.0, abs=1e-13)
        rest = F.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-13

    def test_cosine_single_mode(self, grid32):
        f = ScalarField(grid32, np.broadcast_to(np.cos(2 * np.pi * grid32.coordinate_mesh()[0]), grid32.shape))
        F = forward(f)
        assert F[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert F[-1, 0] == pytest.approx(0.5, abs=1e-12)
        remaining = F.copy()
        remaining[1, 0] = remaining[-1, 0] = 0.0
        assert np.max(np.abs(remaining)) < 1e-12

    def test_roundtrip(self):
        g = TorusGrid(2, 128)
        f = ScalarField(g, np.random.default_rng(0).normal(size=g.shape))
        back = inverse(g, forward(f))
        err = lp_norm(ScalarField(g, back.values - f.values), 2.0) / lp_norm(f, 2.0)
        assert err < 1e-12

    def test_roundtrip_all_dims(self):
        for dim, n in ((1, 64), (2, 32), (3, 16)):
            g = TorusGrid(dim, n)
            f = ScalarField(g, np.random.default_rng(dim).normal(size=g.shape))
            assert lp_norm(ScalarField(g, inverse(g, forward(f)).values - f.values), 2.0) < 1e-12 * lp_norm(f, 2.0)

    def test_parseval(self, grid64):
        f = random_field(grid64, seed=1)
        F = forward(f)
        spectral = spectral_core(grid64).parseval_sum(F, 1.0)  # sum over the full lattice
        assert spectral == pytest.approx(lp_norm(f, 2.0) ** 2, rel=1e-12)

    def test_hermitian_symmetry_enforced(self, grid32):
        # the half-spectrum layout holds only real data: a lone coefficient
        # with no conjugate partner at (-1, 0) comes back with its partner
        coeffs = np.zeros(spectral_core(grid32).shape, dtype=complex)
        coeffs[1, 0] = 1.0
        back = forward(inverse(grid32, coeffs))
        assert back[1, 0] == pytest.approx(0.5, abs=1e-15)
        assert back[-1, 0] == pytest.approx(0.5, abs=1e-15)


class TestDerivatives:
    def test_gradient_of_constant(self, grid32):
        g = gradient(ScalarField.constant(grid32, 4.0))
        assert all(np.max(np.abs(c.values)) < 1e-13 for c in g.components)

    def test_laplacian_eigenfunction(self):
        g = TorusGrid(2, 64)
        f = ScalarField(g, np.broadcast_to(np.sin(2 * np.pi * g.coordinate_mesh()[0]), g.shape))
        lap = laplacian(f)
        assert np.max(np.abs(lap.values + 4 * np.pi**2 * f.values)) < 1e-10

    def test_divergence_of_gradient_is_laplacian(self, grid64):
        f = random_field(grid64, seed=9)
        lhs = divergence(gradient(f))
        rhs = laplacian(f)
        scale = max(1.0, np.max(np.abs(rhs.values)))
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-11 * scale

    def test_derivative_identity_on_rough_field(self, grid32):
        # random data with full-spectrum content, including the Nyquist plane
        f = ScalarField(grid32, np.random.default_rng(3).normal(size=grid32.shape))
        lhs = divergence(gradient(f))
        rhs = laplacian(f)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-9

    @pytest.mark.parametrize("op", [gradient, perp_gradient])
    def test_derivative_outputs_are_kept_without_a_copy(self, op):
        # VectorField keeps a read-only inverse output as it is; a writeable one
        # was copied, which took the peak of a 2D N=256 gradient to 5.0 arrays.
        g = TorusGrid(2, 256)
        f = random_field(g, seed=10)
        assert peak_state_arrays(lambda: op(f), g) <= 4.5


class TestLeray:
    def test_annihilates_pure_gradient(self, grid32):
        psi = ScalarField(grid32, np.broadcast_to(np.sin(2 * np.pi * grid32.coordinate_mesh()[0]), grid32.shape))
        v = gradient(psi)
        p = leray_project(v)
        assert all(np.max(np.abs(c.values)) < 1e-12 for c in p.components)

    def test_fixed_point_on_solenoidal(self, grid64):
        tg = instantiate(FieldSpec("taylor_green"), grid64)
        p = leray_project(tg)
        for before, after in zip(tg.components, p.components):
            assert np.max(np.abs(before.values - after.values)) < 1e-12 * tg.max_abs()

    def test_hand_split_example(self, grid32):
        x, y = grid32.coordinate_mesh()
        comp1 = np.broadcast_to(np.sin(2 * np.pi * y) + np.sin(2 * np.pi * x), grid32.shape)
        v = VectorField.from_arrays(grid32, [comp1, np.zeros(grid32.shape)])
        p = leray_project(v)
        expected = np.broadcast_to(np.sin(2 * np.pi * y), grid32.shape)
        assert np.max(np.abs(p.components[0].values - expected)) < 1e-12
        assert np.max(np.abs(p.components[1].values)) < 1e-12

    def test_matches_bruteforce_mode_by_mode(self, grid32):
        # independent oracle: project every lattice mode with explicit loops,
        # with the lone Nyquist column zeroed exactly as the derivatives do
        rng = np.random.default_rng(3)
        v = VectorField.from_arrays(grid32, [rng.normal(size=grid32.shape) for _ in range(2)])
        p = leray_project(v)
        n = grid32.points_per_axis
        hats = [np.fft.fftn(c.values) for c in v.components]
        out = [np.zeros_like(hats[0]), np.zeros_like(hats[1])]
        for i, j in itertools.product(range(n), range(n)):
            k1 = i if i <= n // 2 else i - n
            k2 = j if j <= n // 2 else j - n
            if abs(k1) == n // 2:
                k1 = 0
            if abs(k2) == n // 2:
                k2 = 0
            vh = np.array([hats[0][i, j], hats[1][i, j]])
            if k1 == k2 == 0:
                w = vh
            else:
                kv = np.array([k1, k2], dtype=float)
                w = vh - kv * (kv @ vh) / (kv @ kv)
            out[0][i, j], out[1][i, j] = w
        for oracle_hat, comp in zip(out, p.components):
            oracle = np.fft.ifftn(oracle_hat).real
            assert np.max(np.abs(oracle - comp.values)) < 1e-12

    def test_idempotent_contractive_divergence_free(self, grid64):
        rng = np.random.default_rng(11)
        v = VectorField.from_arrays(grid64, [rng.normal(size=grid64.shape) for _ in range(2)])
        p = leray_project(v)
        assert divergence_defect(p) < 1e-10
        twice = leray_project(p)
        for a, b in zip(p.components, twice.components):
            assert np.max(np.abs(a.values - b.values)) < 1e-12
        energy = lambda u: sum(lp_norm(c, 2.0) ** 2 for c in u.components)
        assert energy(p) <= energy(v) + 1e-12

    def test_one_dimension_constant_passes(self):
        g = TorusGrid(1, 16)
        v = VectorField.from_arrays(g, [np.full(g.shape, 2.0)])
        p = leray_project(v)
        assert np.all(p.components[0].values == 2.0)

    def test_one_dimension_nonconstant_rejected(self):
        g = TorusGrid(1, 16)
        v = VectorField.from_arrays(g, [np.sin(2 * np.pi * g.axis_coordinates())])
        with pytest.raises(ValueError, match="trivial in one dimension"):
            leray_project(v)


class TestDealias:
    def test_inband_unchanged(self, grid64):
        f = trig_field(grid64, [((3, 2), 1.0, 0.5), ((7, -5), 0.3, 0.1)])
        F = forward(f)
        after = dealias(grid64, F)
        assert np.max(np.abs(after - F)) < 1e-15

    def test_nyquist_mode_zeroed(self, grid32):
        for nyquist in ((16, 0), (0, 16)):  # k = N/2 is its own conjugate partner, on either kind of axis
            coeffs = np.zeros(spectral_core(grid32).shape, dtype=complex)
            coeffs[nyquist] = 1.0
            assert np.max(np.abs(dealias(grid32, coeffs))) == 0.0

    @pytest.mark.parametrize("n", [2**e for e in range(2, 11)])
    def test_keep_reaches_the_band_on_each_axis(self, n):
        # simulate refuses a datum mode above _dealias_band; the solver's mask must keep exactly up to it
        band = _dealias_band(n)
        assert 3 * band < n <= 3 * (band + 1)  # the widest band whose products alias only outside it
        keep = spectral_core(TorusGrid(2, n)).keep
        full, half = np.abs(np.fft.fftfreq(n) * n), np.arange(n // 2 + 1)
        assert full[keep[:, 0]].max() == half[keep[0, :]].max() == band

    def test_idempotent(self, grid64):
        F = forward(random_field(grid64, seed=13, max_mode=30, count=40))
        once = dealias(grid64, F)
        assert np.array_equal(dealias(grid64, once), once)

    def test_product_matches_double_resolution_oracle(self):
        # oracle: evaluate the same two trig polynomials at resolution 2N,
        # multiply exactly there, and truncate to the retained band
        n = 64
        coarse, fine = TorusGrid(2, n), TorusGrid(2, 2 * n)
        rng = np.random.default_rng(17)
        cut = n // 3
        terms_a, terms_b = [], []
        for _ in range(12):
            terms_a.append(((int(rng.integers(-cut, cut + 1)), int(rng.integers(-cut, cut + 1))), float(rng.normal()), float(rng.normal())))
            terms_b.append(((int(rng.integers(-cut, cut + 1)), int(rng.integers(-cut, cut + 1))), float(rng.normal()), float(rng.normal())))
        fa_c, fb_c = trig_field(coarse, terms_a), trig_field(coarse, terms_b)
        fa_f, fb_f = trig_field(fine, terms_a), trig_field(fine, terms_b)

        product_fine_hat = np.fft.fftn(fa_f.values * fb_f.values) / fine.size
        oracle = np.zeros(coarse.shape, dtype=complex)
        for kx in range(-cut, cut + 1):
            for ky in range(-cut, cut + 1):
                oracle[kx, ky] = product_fine_hat[kx, ky]
        oracle = oracle[:, : n // 2 + 1]  # the half-spectrum columns
        oracle[~spectral_core(coarse).keep] = 0.0

        ours = dealias(coarse, forward(ScalarField(coarse, fa_c.values * fb_c.values)))
        assert np.max(np.abs(ours - oracle)) < 1e-12


class TestPerpGradientAndTranslate:
    def test_perp_gradient_divergence_free(self, grid32):
        psi = random_field(grid32, seed=21)
        v = perp_gradient(psi)
        assert divergence_defect(v) < 1e-13

    @pytest.mark.parametrize("dim", [1, 3])
    def test_perp_gradient_is_planar(self, dim):
        with pytest.raises(ValueError, match="dim == 2"):
            perp_gradient(random_field(TorusGrid(dim, 16), seed=23))

    def test_translate_full_period_identity(self, grid32):
        f = random_field(grid32, seed=22)
        g = translate(f, (1.0, 0.0))
        assert np.max(np.abs(g.values - f.values)) < 1e-12

    def test_translate_quarter_turn(self):
        g = TorusGrid(1, 64)
        f = ScalarField(g, np.sin(2 * np.pi * g.axis_coordinates()))
        shifted = translate(f, (0.25,))
        expected = ScalarField(g, np.sin(2 * np.pi * (g.axis_coordinates() - 0.25)))
        assert np.max(np.abs(shifted.values - expected.values)) < 1e-12



# Complex-oracle equivalence: the half-spectrum core against the full-lattice
# np.fft forms in tests/oracles.py.  The data is white noise, so every mode is
# live, including the Nyquist planes where the odd derivative symbols vanish.
EQUIVALENCE_REL = 1e-12
EQUIVALENCE_GRIDS = [(1, 4), (1, 64), (2, 4), (2, 32), (3, 4), (3, 16)]
equivalence_grids = pytest.mark.parametrize(
    "grid", [TorusGrid(d, n) for d, n in EQUIVALENCE_GRIDS], ids=[f"{d}d-N{n}" for d, n in EQUIVALENCE_GRIDS]
)


def _noise(grid, count, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=grid.shape) for _ in range(count)]


def _rel_err(ours, oracle) -> float:
    ours, oracle = np.asarray(ours), np.asarray(oracle)
    return float(np.max(np.abs(ours - oracle))) / float(np.max(np.abs(oracle)))


@equivalence_grids
def test_core_gradient_divergence_laplacian_match_complex_oracle(grid):
    (u,) = _noise(grid, 1, seed=0)
    for c, ref in zip(gradient(ScalarField(grid, u)).components, oracles.gradient(u, grid)):
        assert _rel_err(c.values, ref) <= EQUIVALENCE_REL
    comps = _noise(grid, grid.dim, seed=1)
    div = divergence(VectorField.from_arrays(grid, comps))
    assert _rel_err(div.values, oracles.divergence(comps, grid)) <= EQUIVALENCE_REL
    assert _rel_err(laplacian(ScalarField(grid, u)).values, oracles.laplacian(u, grid)) <= EQUIVALENCE_REL


@equivalence_grids
def test_core_odd_symbol_vanishes_on_the_last_axis_nyquist_plane(grid):
    # the half layout stores k_last = N/2 as +N/2 where the full layout has
    # -N/2; the odd derivative symbol must vanish there in both
    (noise,) = _noise(grid, 1, seed=5)
    u = noise[..., :1] * (-1.0) ** np.arange(grid.points_per_axis)  # only k_last = N/2 is live
    ours = gradient(ScalarField(grid, u)).components
    oracle = oracles.gradient(u, grid)
    assert np.max(np.abs(ours[-1].values)) <= EQUIVALENCE_REL * np.max(np.abs(u))
    assert np.max(np.abs(oracle[-1])) <= EQUIVALENCE_REL * np.max(np.abs(u))
    for c, ref in zip(ours[:-1], oracle[:-1]):
        assert _rel_err(c.values, ref) <= EQUIVALENCE_REL


@equivalence_grids
def test_core_leray_project_matches_complex_oracle(grid):
    if grid.dim == 1:
        grid = TorusGrid(2, grid.points_per_axis)  # only constants are divergence-free in 1D
    comps = _noise(grid, grid.dim, seed=2)
    ours = leray_project(VectorField.from_arrays(grid, comps))
    for c, ref in zip(ours.components, oracles.leray_project(comps, grid)):
        assert _rel_err(c.values, ref) <= EQUIVALENCE_REL


@equivalence_grids
def test_core_h_norms_and_mollify_match_complex_oracle(grid):
    (u,) = _noise(grid, 1, seed=3)
    f = ScalarField(grid, u)
    for s in (-1, 1):
        assert h_norm(f, s) == pytest.approx(oracles.h_norm(u, grid, s), rel=EQUIVALENCE_REL)
    for profile in PROFILES:
        m = Mollifier(profile, max(0.1, 2.0 * grid.spacing))
        assert _rel_err(mollify(f, m).values, oracles.mollify(u, grid, m)) <= EQUIVALENCE_REL


@equivalence_grids
def test_solver_grad_l2_sq_diagnostic_matches_complex_oracle(grid):
    (u,) = _noise(grid, 1, seed=4)
    dt = 1e-4
    traj = solve(None, ScalarField(grid, u), SolverConfig(t_final=4 * dt, dt=dt))
    series = [oracles.grad_l2_sq(s.values, grid) for s in traj.states]
    oracle_cum = oracles.cumulative_simpson(np.asarray(series), dx=traj.dt, initial=0.0)
    assert _rel_err(traj.diagnostics["grad_l2_sq_cum"], oracle_cum) <= EQUIVALENCE_REL
