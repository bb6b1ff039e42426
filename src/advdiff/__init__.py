"""Numerical laboratory for advection-diffusion of a passive scalar on the torus."""

from .grid import (
    ScalarField,
    TorusGrid,
    VectorField,
    h_norm,
    lp_norm,
)
from .spectral import (
    divergence,
    gradient,
    laplacian,
    leray_project,
    perp_gradient,
    spectral_core,
)
from .mollify import Mollifier, UnderResolvedKernelError, dyadic_schedule, kernel_field, mollify
from .library import (
    FieldSpec,
    IntegrabilityCard,
    TrendReport,
    catalog_entries,
    estimate_integrability,
    estimate_time_integrability,
    instantiate,
    integrability_card,
)
from .solver import (
    ARCTAN_PRIMITIVE,
    HALF_SQUARE,
    ConvexFunction,
    DiagnosticsRecord,
    SolverAbort,
    SolverConfig,
    TestFunction,
    Trajectory,
    beta_dissipation,
    lq_dissipation_check,
    solve,
    weak_residual,
)
from .commutators import (
    CommutatorStudyConfig,
    DecayStudy,
    commutator,
    commutator_divb_correction,
    commutator_divform,
    convergence_study,
    mollified_energy_coupling,
)
from .regimes import (
    RegimeQuery,
    RegimeReport,
    classify,
    classify_exponents,
    emit_region_map,
    region_map_csv,
    region_map_svg,
)

__version__ = "0.1.0"
