"""Computations on Teichmueller spaces of bordered hyperbolic surfaces.

Geodesic lengths of curves and orthogeodesic arcs from Fenchel-Nielsen
data, the asymmetric arc metric, rational measured laminations with
Dehn-Thurston coordinates, horofunctions, and scaling-path experiments that
exhibit convergence to the Thurston boundary at double precision.
"""

from .errors import (ArcmetricError, DegeneratePanelError, DomainError,
                     InvalidSpecError, NoWitnessError, UnsupportedClassError,
                     UnsupportedCoordinatesError, UnsupportedSurfaceError)
from .topology import (ArcClass, CurveClass, Panel, Pants, Surface,
                       SurfaceSignature, build_surface, double_topology,
                       enumerate_panel)
from .hyptrig import (arc_length_distinct_boundaries, arc_length_same_boundary,
                      intersection_arc_distinct, intersection_arc_same,
                      leaf_decay_bound)
from .geometry import (FNPoint, class_length, double_point, fn_from_dict,
                       fn_point, fn_to_dict, holonomy_build, lamination_length,
                       pants_point, pants_surface, torus_point, torus_surface)
from .lamination import (DTCoordinates, RationalLamination, class_from_id,
                         dt_decode, dt_double_coordinates, dt_encode,
                         intersection_number, lamination_from_dict,
                         lamination_to_dict, normalize, rational_lamination,
                         ratio_sup, refine, sample_supported_lamination,
                         sphere_dimension)
from .metric import (Horofunction, LimitReport, MetricValue, arc_metric,
                     boundary_horofunction, detect_limit, horofunction_eval,
                     interior_horofunction, normalized_length_vector,
                     thurston_vector)
from .asymptotics import (DeviationReport, PathSpec, SeparationWitness,
                          boundary_convergence, horo_convergence,
                          make_path_spec, scaling_path, separation_experiment,
                          verify_key_inequality)

__version__ = "0.1.0"
