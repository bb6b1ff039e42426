"""Library entry points that no command runs, kept as checks the lab is measured against.

Each is built from the package's own pieces, privates included, so a check
runs the arithmetic the commands run.  ``oracles`` holds the independent
reference forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import simpson

from advdiff.commutators import L1_SPACETIME, DecayStudy, _level_term, _Transport, summarize_decay
from advdiff.grid import ScalarField, TorusGrid, VectorField, lp_from_values, lp_norm
from advdiff.library import FieldSpec, TrendReport, _fit_trend, catalog_entries, instantiate, sample_key
from advdiff.mollify import Mollifier, _kernel_values, kernel_multiplier, mollify
from advdiff.solver import LQ_COLUMNS, Trajectory
from advdiff.spectral import divergence, gradient, spectral_core

# The catalog's entry names, in its order.
CATALOG = tuple(row["name"] for row in catalog_entries())


def h_norm(f: ScalarField, s: int) -> float:
    """Sobolev norm through the Fourier multiplier (1 + 4 pi^2 |k|^2)^s, s in {-1, +1}.

    s = +1 gives the H^1 norm and s = -1 the H^-1 norm.  The multiplier norm
    is equivalent (with dimensional constants) to the duality-pairing H^-1
    norm; all tolerances in this package are stated for the multiplier form.
    """
    if s not in (-1, 1):
        raise ValueError(f"s must be -1 or +1, got {s}")
    core = spectral_core(f.grid)
    return math.sqrt(core.sobolev_sum(core.forward(f.values), s)) / f.grid.size


def laplacian(f: ScalarField) -> ScalarField:
    core = spectral_core(f.grid)
    fh = core.forward(f.values)
    fh *= -4.0 * np.pi**2 * core.derivative_ksq
    return ScalarField(f.grid, core.inverse(fh))


def kernel_field(m: Mollifier, grid: TorusGrid) -> ScalarField:
    """The package's rho^delta samples, renormalized to unit discrete mass.

    Raises UnderResolvedKernelError when delta is below the resolvable floor.
    """
    return ScalarField(grid, _kernel_values(m, grid))


def estimate_time_integrability(spec: FieldSpec, grid: TorusGrid, alpha: float) -> TrendReport:
    """Trend of the integral of ||b(t)||_2^alpha over [t_min, T] as t_min -> 0, with T = 1.

    The lower cutoff is refined dyadically from T/20 over 6 levels, each
    integrated over 600 geometric nodes; growth without bound flags a
    diverging time integral.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    t_final, levels, nodes_per_level = 1.0, 6, 600
    samples = []
    for j in range(levels):
        t_min = (t_final / 20.0) * 0.5**j
        nodes = np.geomspace(t_min, t_final, nodes_per_level)
        norms = np.array([lp_norm(instantiate(spec, grid, float(s)).magnitude(), 2.0) for s in nodes])
        integral = float(np.trapezoid(norms**alpha, nodes))
        samples.append((1.0 / t_min, integral))
    return _fit_trend(samples)


def _check_grids(b: VectorField, w: ScalarField) -> None:
    if b.grid != w.grid:
        raise ValueError("velocity and scalar live on different grids")


def commutator(b: VectorField, w: ScalarField, m: Mollifier) -> ScalarField:
    """r^delta = b . grad(w * rho^delta) - (b . grad w) * rho^delta."""
    _check_grids(b, w)
    return _Transport(b, w).remainder(kernel_multiplier(m, w.grid))


def commutator_divform(b: VectorField, w: ScalarField, m: Mollifier) -> ScalarField:
    """div[ b (w * rho^delta) - (b w) * rho^delta ]; equals the direct form when div b = 0."""
    _check_grids(b, w)
    smooth = mollify(w, m)
    comps = []
    for bj in b.components:
        flux_direct = bj.values * smooth.values
        flux_mollified = mollify(ScalarField(w.grid, bj.values * w.values), m)
        comps.append(flux_direct - flux_mollified.values)
    return divergence(VectorField.from_arrays(w.grid, comps))


def commutator_divb_correction(b: VectorField, w: ScalarField, m: Mollifier) -> ScalarField:
    """(w * rho^delta) div b - (w div b) * rho^delta, the bounded-divergence remainder."""
    _check_grids(b, w)
    db = divergence(b)
    smooth = mollify(w, m)
    first = smooth.values * db.values
    second = mollify(ScalarField(w.grid, w.values * db.values), m)
    return ScalarField(w.grid, first - second.values)


def trajectory_study(traj: Trajectory, b: FieldSpec, deltas, profile: str, norm: str) -> DecayStudy:
    """The commutator decay study with w the solution itself, time-integrated over its snapshots.

    Snapshot k, with b taken at t_k, stands for [t_k, t_{k+1}) in the
    rectangle rule; a time-dependent field must be recorded at least twice
    per switch.  One transport per snapshot serves every level.
    """
    times = np.asarray(traj.times, dtype=np.float64)
    if len(times) < 2:
        raise ValueError("trajectory must carry at least two snapshots")
    if b.time_dependent:
        spacing = float(np.max(np.diff(times)))
        period = b.param("period")
        if spacing > 0.5 * period:
            raise ValueError(
                f"snapshot spacing {spacing:.3g} too coarse for field period {period:.3g}; record at least twice per switch"
            )
    mults = [kernel_multiplier(Mollifier(profile, float(delta)), traj.grid) for delta in deltas]
    acc = [0.0] * len(mults)
    for t, wt, state in zip(times[:-1], np.diff(times), traj.states):
        transport = _Transport(instantiate(b, traj.grid, float(t)), state)
        for j, mult in enumerate(mults):
            acc[j] += _level_term(norm, transport, mult) * wt
    norms = acc if norm == L1_SPACETIME else [math.sqrt(a) for a in acc]
    return summarize_decay(deltas, norms, norm)


@dataclass(frozen=True)
class CouplingRecord:
    delta: float
    energy_residual: float
    coupling_integral: float

    @property
    def gap(self) -> float:
        return abs(self.energy_residual - self.coupling_integral)


def mollified_energy_coupling(traj: Trajectory, b, profile: str, deltas) -> tuple[CouplingRecord, ...]:
    """Check that the mollified energy budget is exactly the commutator pairing.

    For u^delta = u * rho^delta the budget
    0.5||u^delta(T)||^2 + int ||grad u^delta||^2 - 0.5||u^delta(0)||^2
    equals the space-time pairing of r^delta with u^delta up to quadrature;
    both shrink together as delta -> 0.  b is taken at each snapshot time,
    and one transport per snapshot serves every level.  Requires densely
    recorded snapshots and a velocity.
    """
    if b is None:
        raise ValueError("the energy coupling needs a velocity b: without one the commutator vanishes")
    grid = traj.grid
    if len(traj.states) < 5:
        raise ValueError("trajectory must carry densely recorded snapshots")
    times = np.asarray(traj.times, dtype=np.float64)
    cell = grid.cell_volume
    core = spectral_core(grid)
    grad_sym = 4.0 * np.pi**2 * core.derivative_ksq
    size = grid.size
    molls = [Mollifier(profile, float(delta)) for delta in deltas]
    mults = [kernel_multiplier(m, grid) for m in molls]
    fields = {}  # one sample per library.sample_key

    # Snapshots outside, levels inside: one snapshot's transport is alive at a time.
    grad_sq = [[] for _ in mults]
    pairing = [[] for _ in mults]
    half_sq = [[] for _ in mults]
    last = len(traj.states) - 1
    for k, (t, state) in enumerate(zip(times, traj.states)):
        key = sample_key(b, float(t))
        if key not in fields:
            fields[key] = instantiate(b, grid, float(t))
        transport = _Transport(fields[key], state)
        for j, mult in enumerate(mults):
            us_hat = mult * transport.w_hat
            us = core.inverse(us_hat)
            grad_sq[j].append(core.parseval_sum(us_hat, grad_sym) / size**2)
            r = transport.remainder(mult)
            pairing[j].append(float(np.sum(r.values * us)) * cell)
            if k in (0, last):
                half_sq[j].append(0.5 * lp_from_values(us, 2.0, cell) ** 2)

    out = []
    for m, grad_j, pairing_j, (half_start, half_end) in zip(molls, grad_sq, pairing, half_sq):
        residual = half_end + float(simpson(np.asarray(grad_j), x=times)) - half_start
        coupling = float(simpson(np.asarray(pairing_j), x=times))
        out.append(CouplingRecord(m.delta, residual, coupling))
    return tuple(out)


@dataclass(frozen=True)
class ConvexFunction:
    """Convex scalar function, vectorized over arrays."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]


# The solver's registered betas, whose integrals it records as ``beta_<name>`` columns.
HALF_SQUARE = ConvexFunction("half_square", lambda s: 0.5 * s * s)
ARCTAN_PRIMITIVE = ConvexFunction("arctan", lambda s: s * np.arctan(s) - 0.5 * np.log1p(s * s))


def _convexity_spot_check(beta: ConvexFunction) -> None:
    # Three-point midpoint test on fixed probe intervals.
    for a, b in ((-2.0, 1.0), (0.25, 3.0), (-1.5, -0.2)):
        fa = float(beta.fn(np.float64(a)))
        fb = float(beta.fn(np.float64(b)))
        fm = float(beta.fn(np.float64(0.5 * (a + b))))
        slack = 1e-12 * (1.0 + abs(fa) + abs(fb))
        if fm > 0.5 * (fa + fb) + slack:
            raise ValueError(f"function {beta.name!r} failed the three-point convexity spot check")


def snapshot_beta_dissipation(traj: Trajectory, beta: ConvexFunction) -> float:
    """Worst increase of the integral of beta(u(t)) across the stored snapshots, beta spot-checked for convexity."""
    _convexity_spot_check(beta)
    cell = traj.grid.cell_volume
    series = [float(np.sum(beta.fn(s.values))) * cell for s in traj.states]
    return max(b - a for a, b in zip(series, series[1:]))


def lq_dissipation_check(traj: Trajectory, q: float) -> float:
    """Worst increase of ||u(t)||_q across successive records (negative = monotone)."""
    column = {exponent: name for name, exponent in LQ_COLUMNS.items()}.get(float(q))
    if column is None:
        raise ValueError(f"q must be one of {tuple(LQ_COLUMNS.values())}")
    series = traj.diagnostics[column]
    return max(b - a for a, b in zip(series, series[1:]))


@dataclass(frozen=True)
class TestFunction:
    """Smooth space-time test function phi given by samples of phi and d_t phi."""

    __test__ = False  # not a pytest item

    value: Callable[[float, TorusGrid], np.ndarray]
    time_derivative: Callable[[float, TorusGrid], np.ndarray]

    @classmethod
    def separable(cls, spatial: Callable[[TorusGrid], np.ndarray], time_profile, time_profile_derivative):
        return cls(
            value=lambda t, grid: time_profile(t) * spatial(grid),
            time_derivative=lambda t, grid: time_profile_derivative(t) * spatial(grid),
        )


def weak_residual(traj: Trajectory, b, phi: TestFunction) -> float:
    """|integral of u (d_t phi + b . grad phi + Laplace phi) + integral of u0 phi(0)|.

    Quadrature runs over the stored snapshots (rectangle rule in space,
    Simpson in time), so record densely when measuring this.  phi must
    vanish at the final time.
    """
    grid = traj.grid
    t_end = traj.t_final
    end_vals = np.asarray(phi.value(t_end, grid))
    scale = 1.0 + float(np.max(np.abs(np.asarray(phi.value(0.0, grid)))))
    if float(np.max(np.abs(end_vals))) > 1e-12 * scale:
        raise ValueError("test function must vanish at the final time")

    cell = grid.cell_volume
    integrand = []
    for t_k, state in zip(traj.times, traj.states):
        w = ScalarField(grid, np.asarray(phi.value(float(t_k), grid)))
        total = np.asarray(phi.time_derivative(float(t_k), grid)) + laplacian(w).values
        if b is not None:
            for bj, gj in zip(instantiate(b, grid, float(t_k)).components, gradient(w).components):
                total = total + bj.values * gj.values
        integrand.append(float(np.sum(state.values * total)) * cell)
    space_time = float(simpson(np.asarray(integrand), x=traj.times))
    initial = float(np.sum(traj.states[0].values * np.asarray(phi.value(0.0, grid)))) * cell
    return abs(space_time + initial)
