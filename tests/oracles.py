"""Reference implementations the tests compare the package against.

The spectral forms here are the full-lattice complex ``np.fft`` versions of
the package's operators: every field is transformed with ``fftn`` on all N^d
modes, and the real part of ``ifftn`` is kept.  They share no code with the
half-spectrum core in ``advdiff.spectral``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from advdiff.grid import ScalarField, TorusGrid
from advdiff.mollify import Mollifier, kernel_field


def geodesic_distance(x, y) -> float:
    """Distance on the torus: min over integer shifts k with |k| <= 2 of |x - y - k|.

    Coordinates must lie in [0,1)^d.  The shift search radius follows the
    definition literally even though |k| <= 1 already suffices on [0,1)^d.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    yv = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if xv.shape != yv.shape or xv.ndim != 1 or not 1 <= xv.size <= 3:
        raise ValueError("x and y must be points of equal dimension 1, 2 or 3")
    for v in (xv, yv):
        if np.any(v < 0.0) or np.any(v >= 1.0):
            raise ValueError("coordinates must lie in [0,1)")
    best = math.inf
    for k in itertools.product(range(-2, 3), repeat=xv.size):
        kv = np.asarray(k, dtype=np.float64)
        if kv @ kv > 4.0:
            continue
        best = min(best, float(np.linalg.norm(xv - yv - kv)))
    return best


def integer_wavenumbers(grid: TorusGrid) -> tuple[np.ndarray, ...]:
    """Broadcastable integer frequency lattice in the full FFT layout, one array per axis."""
    n = grid.points_per_axis
    k1 = np.fft.fftfreq(n) * n
    return tuple(np.meshgrid(*([k1] * grid.dim), indexing="ij", sparse=True))


def derivative_wavenumbers(grid: TorusGrid) -> tuple[np.ndarray, ...]:
    """The integer lattice with the Nyquist mode zeroed per axis."""
    nyq = grid.points_per_axis // 2
    return tuple(np.where(np.abs(k) == nyq, 0.0, k) for k in integer_wavenumbers(grid))


def translate(f: ScalarField, shift) -> ScalarField:
    """g(x) = f(x - shift), computed exactly through the phase factor e^{-2 pi i k.shift}."""
    shift = np.atleast_1d(np.asarray(shift, dtype=np.float64))
    if shift.size != f.grid.dim:
        raise ValueError("shift dimension does not match the grid")
    phase = sum(k * s for k, s in zip(integer_wavenumbers(f.grid), shift))
    return ScalarField(f.grid, np.fft.ifftn(np.fft.fftn(f.values) * np.exp(-2j * np.pi * phase)).real)


def gradient(values: np.ndarray, grid: TorusGrid) -> list[np.ndarray]:
    fh = np.fft.fftn(values)
    return [np.fft.ifftn(2j * np.pi * k * fh).real for k in derivative_wavenumbers(grid)]


def divergence(components, grid: TorusGrid) -> np.ndarray:
    out = np.zeros(grid.shape, dtype=np.complex128)
    for k, c in zip(derivative_wavenumbers(grid), components):
        out += 2j * np.pi * k * np.fft.fftn(c)
    return np.fft.ifftn(out).real


def laplacian(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    ksq = sum(k * k for k in derivative_wavenumbers(grid))
    return np.fft.ifftn(-4.0 * np.pi**2 * ksq * np.fft.fftn(values)).real


def leray_project(components, grid: TorusGrid) -> list[np.ndarray]:
    ks = derivative_wavenumbers(grid)
    hats = [np.fft.fftn(c) for c in components]
    ksq = np.broadcast_to(sum(k * k for k in ks), grid.shape).copy()
    ksq[ksq == 0.0] = 1.0
    dot = sum(k * h for k, h in zip(ks, hats)) / ksq
    return [np.fft.ifftn(h - k * dot).real for k, h in zip(ks, hats)]


def h_norm(values: np.ndarray, grid: TorusGrid, s: int) -> float:
    coeffs = np.fft.fftn(values) / grid.size
    mult = (1.0 + 4.0 * np.pi**2 * sum(k * k for k in integer_wavenumbers(grid))) ** s
    return float(np.sqrt(np.sum(mult * np.abs(coeffs) ** 2)))


def mollify(values: np.ndarray, grid: TorusGrid, m: Mollifier) -> np.ndarray:
    mult = (np.fft.fftn(kernel_field(m, grid).values) / grid.size).real
    mult[(0,) * grid.dim] = 1.0
    return np.fft.ifftn(np.fft.fftn(values) * mult).real


def grad_l2_sq(values: np.ndarray, grid: TorusGrid) -> float:
    """||grad u||_2^2 through Parseval, as the solver's dissipation diagnostic measures it."""
    ksq = sum(k * k for k in derivative_wavenumbers(grid))
    uh = np.fft.fftn(values)
    return float(np.sum(4.0 * np.pi**2 * ksq * np.abs(uh) ** 2)) / grid.size**2
