"""Finitely additive measures, computably.

Two halves: an exact rational kernel for lattice operations on measures
over finite set algebras (`fa_lattice`), and a numerical engine that
evaluates density measures on R^n as limits of normalized volume ratios
over shrinking neighborhoods, together with their sharp integrals, action
intervals, boundary traces, set-valued gradients and surface
representations (`geometry`, `quadrature`, `density_engine`,
`trace_gradient`, `surface_rep`).  `cli` runs batches described by JSON
configs.
"""

from . import cli, density_engine, expressions, fa_lattice, geometry, quadrature, surface_rep, trace_gradient
from .density_engine import (
    DeltaSchedule,
    Interval,
    ProbeResult,
    VanishingReference,
    action_interval,
    aura_report,
    cone_density,
    density_probe,
    density_ratio,
    limit_estimate,
    sharp_integral,
    sigma_probe,
)
from .geometry import (
    Ball,
    Box,
    Cone,
    Cusp,
    Feature,
    PointFeature,
    Region,
    RegionBoundary,
    SegmentFeature,
    feature_from_json,
    interval,
    region_from_json,
    signed_distance,
)
from .quadrature import Estimate, SampleSpec, ess_range, mc_integral, mc_volume
from .surface_rep import collar_average, gauss_check, surface_fixture, surface_reference
from .trace_gradient import (
    GradientBox,
    ScalarField,
    boundary_trace,
    calculus_rule_check,
    density_gradient,
)

__version__ = "0.1.0"
