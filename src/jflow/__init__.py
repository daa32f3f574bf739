"""Numerical toolkit for a twisted trace flow on reduced Kahler geometries.

``_EXPORTS`` lists each public name once, under the module that defines
it.  The package imports that module on the name's first use (PEP 562), so
a bare ``import jflow`` loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "fields": (
        "ConfigError",
        "ConvexityLost",
        "GeometryError",
        "HermitianFormField",
        "NonConvergence",
        "NotKahlerError",
        "Normalization",
        "ScalarField",
        "ShapeMismatchError",
        "StepStalled",
        "UnsupportedBackend",
    ),
    "geometry": (
        "GeometryBackend",
        "SphereBackend",
        "TorusBackend",
        "build_metric",
        "integrate",
        "make_backend",
        "theta_of",
        "trace_with",
        "volume",
    ),
    "functionals": (
        "FunctionalReport",
        "aubin_i",
        "aubin_j",
        "entropy",
        "extremal_residual",
        "functional_report",
        "j_flow",
        "j_hat",
        "j_tilde",
        "k_energy",
        "k_energy_modified",
        "level_constant",
        "scalar_curvature",
        "sigma_energy",
    ),
    "cone": (
        "HypothesisReport",
        "classify_margin",
        "properness_hypotheses",
        "relative_spectrum",
        "subsolution_margin",
    ),
    "flow": (
        "FlowProblem",
        "FlowResult",
        "FlowState",
        "FlowStats",
        "MonitorRecord",
        "flow_rhs",
        "run_flow",
    ),
    "geodesic": (
        "FUNCTIONAL_IDS",
        "ProbeReport",
        "SymplecticPotential",
        "convexity_probe",
        "geodesic_path",
        "geodesic_residual",
        "legendre_inverse",
        "legendre_transform",
    ),
    "potentials": (
        "FAMILY_NAMES",
        "NormalStream",
        "kahler_margin",
        "named_potential",
        "normalize",
        "random_kahler_potential",
        "scale_to_kahler",
    ),
    "config": (
        "ScenarioConfig",
        "load_config",
        "parse_config",
        "reference_page",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    """Import ``name``'s module on first use and keep the value here."""
    if name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    elif name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
