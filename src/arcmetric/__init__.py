"""Computations on Teichmueller spaces of bordered hyperbolic surfaces.

Geodesic lengths of curves and orthogeodesic arcs from Fenchel-Nielsen
data, the asymmetric arc metric, rational measured laminations with
Dehn-Thurston coordinates, horofunctions, and scaling-path experiments that
exhibit convergence to the Thurston boundary at double precision.

The namespace is lazy (PEP 562): `import arcmetric` loads only `errors`.
Each other public name below loads its home module when it is first read,
and is then bound here, so later reads are plain attribute lookups.
"""

from importlib import import_module as _import_module

from .errors import (ArcmetricError, DegeneratePanelError, DomainError,
                     InvalidSpecError, NoWitnessError, UnsupportedClassError,
                     UnsupportedCoordinatesError, UnsupportedSurfaceError)

__version__ = "0.1.0"

_LAZY = {
    "topology": ("ArcClass", "CurveClass", "Panel", "Pants", "Surface",
                 "SurfaceSignature", "build_surface", "double_topology",
                 "enumerate_panel"),
    "hyptrig": ("arc_length_distinct_boundaries", "arc_length_same_boundary",
                "intersection_arc_distinct", "intersection_arc_same",
                "leaf_decay_bound"),
    "geometry": ("FNPoint", "class_length", "double_point", "fn_from_dict",
                 "fn_point", "fn_to_dict", "holonomy_build",
                 "lamination_length", "pants_point", "pants_surface",
                 "torus_point", "torus_surface"),
    "lamination": ("DTCoordinates", "RationalLamination", "class_from_id",
                   "dt_decode", "dt_double_coordinates", "dt_encode",
                   "intersection_number", "intersection_vector",
                   "lamination_from_dict", "lamination_to_dict", "normalize",
                   "rational_lamination", "ratio_sup", "refine",
                   "sample_supported_lamination", "sphere_dimension"),
    "metric": ("Horofunction", "LimitReport", "MetricValue", "arc_metric",
               "boundary_horofunction", "detect_limit", "horofunction_eval",
               "interior_horofunction", "normalized_length_vector",
               "thurston_vector"),
    "asymptotics": ("BoundaryConvergence", "DeviationReport", "PathSpec",
                    "SeparationWitness", "boundary_convergence", "horo_convergence",
                    "make_path_spec", "scaling_path", "separation_experiment",
                    "verify_key_inequality"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["ArcmetricError", "DegeneratePanelError", "DomainError",
           "InvalidSpecError", "NoWitnessError", "UnsupportedClassError",
           "UnsupportedCoordinatesError", "UnsupportedSurfaceError",
           *_HOME]


def __getattr__(name):
    """Import a public name's home module on first use and bind the name."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
