"""Shared helpers: deterministic trig-polynomial fields usable across grids."""

from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest

from advdiff.grid import ScalarField, TorusGrid


def trig_field(grid: TorusGrid, terms) -> ScalarField:
    """Sum of cos/sin modes; the same `terms` give the same function on any grid.

    terms: iterable of (k_vector, cos_amplitude, sin_amplitude).
    """
    coords = grid.coordinate_mesh()
    vals = np.zeros(grid.shape)
    for k, a_cos, a_sin in terms:
        arg = np.zeros(grid.shape)
        for kj, c in zip(k, coords):
            arg = arg + 2.0 * np.pi * kj * c
        vals = vals + a_cos * np.cos(arg) + a_sin * np.sin(arg)
    return ScalarField(grid, vals)


def random_terms(rng: np.random.Generator, dim: int, max_mode: int, count: int):
    terms = []
    for _ in range(count):
        k = tuple(int(rng.integers(-max_mode, max_mode + 1)) for _ in range(dim))
        if all(kj == 0 for kj in k):
            k = (1,) + (0,) * (dim - 1)
        terms.append((k, float(rng.normal()), float(rng.normal())))
    return terms


def random_field(grid: TorusGrid, seed: int, max_mode: int = 5, count: int = 8) -> ScalarField:
    rng = np.random.default_rng(seed)
    return trig_field(grid, random_terms(rng, grid.dim, max_mode, count))


def count_transforms(monkeypatch) -> list:
    """Count every numpy.fft and scipy.fft transform call into the returned list.

    Each transform is replaced where it is looked up, on its own module, so a
    transform function cached anywhere else would escape the count.
    """
    import numpy.fft
    import scipy.fft

    calls = []
    for mod in (numpy.fft, scipy.fft):
        for name in [k + s for k in ("fft", "ifft", "rfft", "irfft") for s in ("", "2", "n")]:
            original = getattr(mod, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    return calls


def count_calls(monkeypatch, target: str) -> list:
    """Count the calls of the function at the dotted path ``target`` into the returned list.

    Only lookups through ``target``'s module see the counter, so patch the
    name where the code under test looks it up.
    """
    module, name = target.rsplit(".", 1)
    original = getattr(importlib.import_module(module), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, counted)
    return calls


def peak_state_arrays(fn, grid: TorusGrid) -> float:
    """Peak traced memory of one ``fn()`` call, in state-sized float64 arrays (``8 * grid.size`` bytes).

    ``fn`` is called twice and only the second call is measured, so the
    caches the first fills (spectral cores, kernel multipliers) do not
    count.  tracemalloc sees the arrays numpy allocates, not pocketfft's
    internal C++ buffers, so the transforms' own scratch space is missing.
    """
    fn()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * grid.size)


@pytest.fixture
def grid64():
    return TorusGrid(2, 64)


@pytest.fixture
def grid32():
    return TorusGrid(2, 32)


@pytest.fixture
def line256():
    return TorusGrid(1, 256)
