"""Time integration of d_t u + div(u b) = Laplace(u) with energy diagnostics.

Diffusion is applied exactly in spectral space through the factor
exp(-4 pi^2 |k|^2 dt); the advection term -div(b u) is evaluated
pseudo-spectrally (product on the grid, divergence in spectral space,
dealiased by the 2/3 rule) and advanced by the classical RK4 scheme
inside the integrating factor, in place: the step computes +div(b u), and
the negated stage coefficients carry its sign, which is exact.  The
conservative form div(b u) keeps the mean exact in spectral arithmetic.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import SolverAbort
from .grid import ScalarField, TorusGrid, VectorField
from .library import FieldSpec, instantiate, integrability_card, sample_key
from .mollify import Mollifier, check_profile, mollify
from .spectral import spectral_core

__all__ = [
    "SolverConfig",
    "Trajectory",
    "REGISTERED_BETAS",
    "LQ_COLUMNS",
    "solve",
    "beta_dissipation",
]

# The L^q norm columns of ``Trajectory.diagnostics`` and their exponents q.
LQ_COLUMNS = {"l1": 1.0, "l2": 2.0, "l4": 4.0, "linf": math.inf}

# Default smoothing scale, in grid cells, for velocity fields that are not
# p-integrable for every p; keeps the peak resolution-independent.
ROUGH_FIELD_DELTA_FACTOR = 4.0


def _is_rough(b: FieldSpec | None) -> bool:
    return b is not None and not math.isinf(integrability_card(b).p_finite_below)


# The convex betas whose integrals ``solve`` records, one ``beta_<name>`` column each.
REGISTERED_BETAS = ("half_square", "arctan")


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping policy and approximation-scheme switches.

    The scheme is always classical RK4 inside the integrating factor.
    Exactly one of ``dt`` (fixed step) and ``cfl_safety`` (advective CFL with
    safety factor sigma in (0,1]) must be set.  ``mollify_b``/``mollify_u0``
    run the data through the smoothing pipeline at the given scales before
    stepping.  A catalog field that is not p-integrable for every p is
    smoothed by default at a resolution-tied scale (the approximation-scheme
    route); pass ``no_approximation=True`` to run it raw.
    """

    t_final: float
    dt: float | None = None
    cfl_safety: float | None = None
    mollify_b: float | None = None
    mollify_u0: float | None = None
    mollifier_profile: str = "gaussian_periodized"
    no_approximation: bool = False  # opt out of the default smoothing of rough fields
    record_every: int = 1

    def __post_init__(self) -> None:
        if not self.t_final > 0.0:
            raise ValueError("t_final must be positive")
        if (self.dt is None) == (self.cfl_safety is None):
            raise ValueError("set exactly one of dt (fixed step) and cfl_safety (CFL policy)")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.cfl_safety is not None and not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        check_profile(self.mollifier_profile)


@dataclass(frozen=True)
class Trajectory:
    """Snapshots (decimated by record_every) plus diagnostics at every step.

    ``diagnostics`` maps a column name to a read-only float64 array with one
    entry per step, t = 0 included: ``t``, the L^q norms named in
    ``LQ_COLUMNS``, ``grad_l2_sq_cum`` (the cumulative dissipation integral),
    ``energy_lhs`` (0.5 ||u(t)||_2^2 plus that integral, the running left-hand
    side of the energy balance), ``mean`` and ``beta_<name>`` (the integral of
    beta(u) for each of ``REGISTERED_BETAS``).  Whether ``energy_lhs`` is
    nonincreasing is a measured property, never enforced.
    """

    grid: TorusGrid
    times: np.ndarray
    states: tuple[ScalarField, ...]
    diagnostics: dict[str, np.ndarray]
    dt: float

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> ScalarField:
        return self.states[-1]


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """The running Simpson integral of ``y`` at spacing ``dx``, from 0.

    The arithmetic of ``scipy.integrate.cumulative_simpson(y, dx=dx,
    initial=0)``, bit for bit: interval i takes the parabola through samples
    i to i + 2 when i is even, and through samples i - 1 to i + 1 when i is
    odd or the last; fewer than 3 samples take the trapezoid.
    """
    if len(y) < 3:
        parts = dx * (y[1:] + y[:-1]) / 2.0
    else:

        def first_intervals(f):  # the integral over [f0, f1] of the parabola through each (f0, f1, f2)
            return dx / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)

        left, right = first_intervals(y), first_intervals(y[::-1])[::-1]
        parts = np.empty(len(y) - 1)
        parts[:-1:2] = left[::2]
        parts[1::2] = right[::2]
        parts[-1] = right[-1]
    return np.concatenate(([0.0], np.cumsum(parts) + 0.0))  # + 0.0 maps -0.0 to 0.0, as scipy's `initial` does


def solve(b: FieldSpec | None, u0: ScalarField, config: SolverConfig) -> Trajectory:
    """Advance u0 under the catalog field b up to t_final.

    ``b`` is None (pure diffusion) or a catalog FieldSpec, sampled at the RK4
    stage times when time-dependent.
    The mean of u is conserved to roundoff at every step; a CFL violation or
    a non-finite state aborts with the offending step.
    """
    grid = u0.grid
    size = grid.size
    delta_b = config.mollify_b
    if delta_b is None and not config.no_approximation and _is_rough(b):
        delta_b = ROUGH_FIELD_DELTA_FACTOR * grid.spacing
    moll_b = Mollifier(config.mollifier_profile, delta_b) if delta_b is not None else None
    samples: dict[int | None, tuple[VectorField, float]] = {}

    def velocity(t: float) -> tuple[VectorField | None, float]:
        """b(t), mollified if set, and max |b(t)|, once per ``library.sample_key``, of which there are at most
        two: the first CFL check samples t = 0, where a modulated field is refused.  (None, 0.0) without b."""
        if b is None:
            return None, 0.0
        key = sample_key(b, t)
        if key not in samples:
            v = instantiate(b, grid, t)
            if moll_b is not None:
                v = mollify(v, moll_b)
            samples[key] = v, v.max_abs()
        return samples[key]

    if config.mollify_u0 is not None:
        u0 = mollify(u0, Mollifier(config.mollifier_profile, config.mollify_u0))

    core = spectral_core(grid)
    u_hat = core.forward(u0.values)
    keep, drop = core.keep, ~core.keep
    u_hat = np.where(keep, u_hat, 0.0)

    spacing = grid.spacing

    def _cfl_limit(t: float) -> float:
        mb = velocity(t)[1]
        sigma = config.cfl_safety if config.cfl_safety is not None else 1.0
        return sigma * spacing / mb if mb > 0.0 else math.inf

    dt_target = config.dt if config.dt is not None else min(_cfl_limit(0.0), config.t_final)
    try:
        n_steps = max(1, int(math.ceil(config.t_final / dt_target - 1e-9)))
    except (OverflowError, ZeroDivisionError):  # dt_target is subnormal or has underflowed to 0
        raise ValueError(f"t_final={config.t_final} over dt={dt_target} is not a finite step count") from None
    dt = config.t_final / n_steps

    # Integrating factors: the exact heat flow over a full and a half step.
    lam = -4.0 * np.pi**2 * core.ksq
    e_full = np.exp(lam * dt)
    e_half = np.exp(lam * 0.5 * dt)

    def rhs(v_hat: np.ndarray, t: float, v_real: np.ndarray | None = None) -> np.ndarray:
        """+div(b v), dealiased, the stage coefficients carrying its sign; ``v_real`` is v_hat on the grid if known."""
        b_t = velocity(t)[0]
        if b_t is None:
            return np.zeros(core.shape, dtype=np.complex128)
        if v_real is None:
            v_real = core.inverse(v_hat)
        (ik0, *iks), (b0, *bs) = core.ik, b_t.components
        out = core.forward(b0.values * v_real)
        out *= ik0
        for ikj, bj in zip(iks, bs):
            out += ikj * core.forward(bj.values * v_real)
        np.copyto(out, 0.0, where=drop)
        return out

    series: defaultdict[str, list[float]] = defaultdict(list)
    snapshot_steps: list[int] = []
    snapshots: list[ScalarField] = []

    grad_sym = 4.0 * np.pi**2 * core.derivative_ksq
    cell = grid.cell_volume

    def record(step: int, t: float, cur_hat: np.ndarray, cur_real: np.ndarray) -> None:
        # LQ_COLUMNS in lp_from_values's arithmetic and a column per REGISTERED_BETAS, from |u| and u^2 taken
        # once: 0.5 * u^2 is the textbook (0.5 * u) * u wherever u^2 neither underflows nor overflows.
        mag, sq = np.abs(cur_real), cur_real * cur_real
        series["t"].append(t)
        series["l1"].append(float(np.sum(mag) * cell))
        series["l2"].append(float((np.sum(sq) * cell) ** 0.5))
        series["l4"].append(float((np.sum(mag**4.0) * cell) ** 0.25))
        series["linf"].append(float(np.max(mag)))
        del mag
        series["grad_l2_sq"].append(core.parseval_sum(cur_hat, grad_sym) / size**2)
        series["mean"].append(cur_hat.flat[0].real / size)
        series["beta_half_square"].append(float(np.sum(0.5 * sq)) * cell)
        series["beta_arctan"].append(float(np.sum(cur_real * np.arctan(cur_real) - 0.5 * np.log1p(sq))) * cell)
        if step % config.record_every == 0 or step == n_steps:
            snapshot_steps.append(step)
            snapshots.append(ScalarField(grid, cur_real))  # cur_real is writeable, so this copies it

    u_real = core.inverse(u_hat)
    record(0, 0.0, u_hat, u_real)

    t = 0.0
    for step in range(1, n_steps + 1):
        limit = _cfl_limit(t)
        if dt > limit * (1.0 + 1e-12):
            raise SolverAbort(step, t, f"CFL violation: dt={dt:.6g} exceeds limit {limit:.6g}")

        # Each stage keeps the operands and grouping of its textbook expression, coefficients negated.
        # The names rebind at the next step, never `del`: freed together, their buffers would be
        # trimmed off the heap and faulted in again every step.
        n0 = rhs(u_hat, t, u_real)  # u_real is the state record() has just seen
        s = n0 * (-0.5 * dt)
        s += u_hat
        s *= e_half  # e_half (u_hat + dt/2 N0)
        na = rhs(s, t + 0.5 * dt)
        np.multiply(e_half, u_hat, out=s)
        s += na * (-0.5 * dt)  # e_half u_hat + dt/2 Na
        nb = rhs(s, t + 0.5 * dt)
        np.multiply(e_full, u_hat, out=s)
        s += np.negative(dt * e_half) * nb  # e_full u_hat + (dt e_half) Nb
        nc = rhs(s, t + dt)
        np.multiply(e_full, n0, out=s)
        na += nb
        s += (2.0 * e_half) * na
        s += nc
        s *= -(dt / 6.0)  # dt/6 (e_full N0 + 2 e_half (Na + Nb) + Nc)
        u_hat = e_full * u_hat
        u_hat += s

        t = step * dt
        if not np.all(np.isfinite(u_hat)):
            raise SolverAbort(step, t, "non-finite state detected")
        u_real = core.inverse(u_hat)
        record(step, t, u_hat, u_real)

    diagnostics = {name: np.asarray(values, dtype=np.float64) for name, values in series.items()}
    diagnostics["grad_l2_sq_cum"] = _cumulative_simpson(diagnostics.pop("grad_l2_sq"), dt)
    # Python's float power, as in the scalar reads of l2 (the e2 bound): numpy's array square rounds differently for about 0.1% of inputs.
    diagnostics["energy_lhs"] = np.asarray([0.5 * x**2 for x in series["l2"]]) + diagnostics["grad_l2_sq_cum"]
    for column in diagnostics.values():
        column.flags.writeable = False

    return Trajectory(
        grid=grid,
        times=np.asarray([i * dt for i in snapshot_steps]),
        states=tuple(snapshots),
        diagnostics=diagnostics,
        dt=dt,
    )


def beta_dissipation(traj: Trajectory, name: str) -> float:
    """Worst increase of the integral of beta(u(t)) across records, for the registered beta ``name``."""
    series = traj.diagnostics[f"beta_{name}"]
    return max(b - a for a, b in zip(series, series[1:]))
