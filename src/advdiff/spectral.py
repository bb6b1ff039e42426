"""Real-to-complex spectral core: exact spectral calculus, projection and dealiasing.

Every field in this package is real, so its Fourier coefficients live in the
half-spectrum layout of ``scipy.fft.rfftn``: the last axis keeps only the
modes 0, ..., N/2, the other axes keep the full FFT order.  One cached
``SpectralCore`` per grid owns that layout and the symbols built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

from .grid import ScalarField, TorusGrid, VectorField

__all__ = [
    "SpectralCore",
    "spectral_core",
    "gradient",
    "divergence",
    "laplacian",
    "perp_gradient",
    "leray_project",
    "divergence_defect",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SpectralCore:
    """Half-spectrum layout of one grid and the symbols every operator shares.

    Coefficients are unnormalized (``forward`` of a constant c is c * size at
    k = 0).  ``wavenumbers`` is the integer lattice with the Nyquist mode
    zeroed per axis: the lone +/-N/2 mode has no symmetric partner, so an odd
    derivative symbol would break real-to-real symmetry.  ``ik`` holds the
    derivative symbols 2 pi i k on that lattice, ``ksq`` the full |k|^2 and
    ``derivative_ksq`` the Nyquist-zeroed one.  ``keep`` is the 2/3 dealias
    mask and ``weights`` the Parseval multiplicity of each stored mode (1 on
    the k_last = 0 and N/2 planes, 2 elsewhere).

    The transforms are looked up on ``scipy.fft`` at every call, never stored.
    """

    grid: TorusGrid
    shape: tuple[int, ...]
    wavenumbers: tuple[np.ndarray, ...]
    ik: tuple[np.ndarray, ...]
    ksq: np.ndarray
    derivative_ksq: np.ndarray
    keep: np.ndarray
    weights: np.ndarray

    def forward(self, values: np.ndarray) -> np.ndarray:
        return scipy.fft.rfftn(values)

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        return scipy.fft.irfftn(coeffs, s=self.grid.shape)

    def parseval_sum(self, coeffs: np.ndarray, multiplier) -> float:
        """sum over the full lattice of multiplier(k) |coeffs(k)|^2, for an even multiplier."""
        return float(np.sum(self.weights * multiplier * (coeffs.real**2 + coeffs.imag**2)))


def _dealias_band(n: int) -> int:
    """The largest |k_j| the 2/3 dealias rule keeps on an axis of n points."""
    return n // 3


@lru_cache(maxsize=64)
def spectral_core(grid: TorusGrid) -> SpectralCore:
    """The cached spectral core of ``grid``."""
    n = grid.points_per_axis
    nyq = n // 2
    full = np.fft.fftfreq(n) * n  # {0, ..., N/2-1, -N/2, ..., -1}
    half = np.arange(nyq + 1, dtype=np.float64)
    lattice = np.meshgrid(*([full] * (grid.dim - 1) + [half]), indexing="ij", sparse=True)
    shape = grid.shape[:-1] + (nyq + 1,)

    wavenumbers = tuple(_frozen(np.where(np.abs(a) == nyq, 0.0, a)) for a in lattice)
    ksq = np.broadcast_to(sum(a * a for a in lattice), shape)
    keep = np.ones(shape, dtype=bool)
    for a in lattice:
        keep &= np.abs(a) <= _dealias_band(n)
    weights = np.full(nyq + 1, 2.0)
    weights[0] = weights[nyq] = 1.0
    return SpectralCore(
        grid=grid,
        shape=shape,
        wavenumbers=wavenumbers,
        ik=tuple(_frozen(2j * np.pi * k) for k in wavenumbers),
        ksq=_frozen(ksq),
        derivative_ksq=_frozen(np.broadcast_to(sum(k * k for k in wavenumbers), shape)),
        keep=_frozen(keep),
        weights=_frozen(weights),
    )


def gradient(f: ScalarField) -> VectorField:
    """Exact spectral gradient: multiplication by i 2 pi k per axis."""
    core = spectral_core(f.grid)
    fh = core.forward(f.values)
    return VectorField.from_arrays(f.grid, [_frozen(core.inverse(ikj * fh)) for ikj in core.ik])


def divergence(v: VectorField) -> ScalarField:
    core = spectral_core(v.grid)
    out = np.zeros(core.shape, dtype=np.complex128)
    for ikj, c in zip(core.ik, v.components):
        out += ikj * core.forward(c.values)
    return ScalarField(v.grid, core.inverse(out))


def laplacian(f: ScalarField) -> ScalarField:
    core = spectral_core(f.grid)
    fh = core.forward(f.values)
    fh *= -4.0 * np.pi**2 * core.derivative_ksq
    return ScalarField(f.grid, core.inverse(fh))


def perp_gradient(psi: ScalarField) -> VectorField:
    """Velocity (-d2 psi, d1 psi) of a stream function on a 2D grid; solenoidal by construction.

    A 3D vortex column is lifted from the plane by ``library.instantiate``.
    """
    if psi.grid.dim != 2:
        raise ValueError("perpendicular gradient requires dim == 2")
    g = gradient(psi)
    comps = [_frozen(-g.components[1].values), g.components[0].values]
    return VectorField.from_arrays(psi.grid, comps)


def divergence_defect(v: VectorField) -> float:
    """max |spectral divergence| relative to the largest component modulus."""
    scale = v.max_abs()
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(divergence(v).values))) / scale


def leray_project(v: VectorField) -> VectorField:
    """Orthogonal projection onto divergence-free fields: vhat(k) -> vhat(k) - k (k.vhat)/|k|^2.

    The k = 0 coefficient (the mean) is untouched; a constant field is
    divergence-free.  The projector uses the same Nyquist-zeroed wavenumbers
    as the derivative operators, so its output is divergence-free in exactly
    the sense the divergence operator measures.  In one dimension only
    constants are admissible.
    """
    grid = v.grid
    if grid.dim == 1:
        vals = v.components[0].values
        if float(np.max(vals) - np.min(vals)) <= 1e-13 * max(1.0, float(np.max(np.abs(vals)))):
            return v
        raise ValueError("leray projection is trivial in one dimension: only constant fields are divergence-free")
    core = spectral_core(grid)
    ks = core.wavenumbers
    hats = [core.forward(c.values) for c in v.components]
    ksq = core.derivative_ksq
    ksq = np.where(ksq == 0.0, 1.0, ksq)  # mean mode and pure-Nyquist planes: invisible to derivatives
    dot = sum(k * h for k, h in zip(ks, hats)) / ksq
    for k, h in zip(ks, hats):
        h -= k * dot
    del dot  # before the inverses allocate their outputs
    comps = [_frozen(core.inverse(h)) for h in hats]
    return VectorField.from_arrays(grid, comps, notes=v.notes)
