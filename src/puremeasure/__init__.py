"""Finitely additive measures, computably.

Two halves: an exact rational kernel for lattice operations on measures
over finite set algebras (`fa_lattice`), and a numerical engine that
evaluates density measures on R^n as limits of normalized volume ratios
over shrinking neighborhoods, together with their sharp integrals, action
intervals, boundary traces, set-valued gradients and surface
representations (`geometry`, `quadrature`, `density_engine`,
`trace_gradient`, `surface_rep`).  `cli` runs batches described by JSON
configs.

`import puremeasure` loads no submodule.  A submodule is loaded on the first
use of one of its names here (`puremeasure.density_probe` loads
`density_engine`, `puremeasure.cli` loads `cli`), so a run imports only the
modules it uses (PEP 562).  A name is looked up in its module on every use,
never copied: `puremeasure.X` is always the defining module's current `X`.
"""

import importlib as _importlib  # private, so that the namespace adds no public name

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "density_engine",
    "expressions",
    "fa_lattice",
    "geometry",
    "json_numbers",
    "quadrature",
    "surface_rep",
    "trace_gradient",
)

_EXPORTS = {
    "density_engine": (
        "DeltaSchedule",
        "Interval",
        "ProbeResult",
        "VanishingReference",
        "action_interval",
        "aura_report",
        "cone_density",
        "density_probe",
        "density_ratio",
        "limit_estimate",
        "sharp_integral",
        "sigma_probe",
    ),
    "geometry": (
        "Ball",
        "Box",
        "Cone",
        "Cusp",
        "Feature",
        "PointFeature",
        "Region",
        "RegionBoundary",
        "SegmentFeature",
        "feature_from_json",
        "interval",
        "region_from_json",
        "signed_distance",
    ),
    "quadrature": ("Estimate", "SampleSpec", "ess_range", "mc_integral", "mc_volume"),
    "surface_rep": ("collar_average", "gauss_check", "surface_fixture", "surface_reference"),
    "trace_gradient": (
        "GradientBox",
        "ScalarField",
        "boundary_trace",
        "calculus_rule_check",
        "density_gradient",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SUBMODULES, *_MODULE_OF]


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return _importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
