"""Value types: immutable, equal and hashable by their fields, with
`Name(field=value, ...)` reprs."""

import re

import pytest

from arcmetric import asymptotics as asy
from arcmetric import geometry as geo
from arcmetric import halfplane as hp
from arcmetric import holonomy as hol
from arcmetric import lamination as lam
from arcmetric import metric as met
from arcmetric import topology as top

S = geo.pants_surface()
PANEL = top.enumerate_panel(S, 0)
A33 = S.arc_alias("a33")
MU = lam.rational_lamination(S, {A33: 1.0})
BASE = geo.pants_point(1, 1, 2)
REALIZATION = hol.build_pants(2.0, 2.0, 2.0)

# each builds a new instance from the same arguments on every call
BUILDERS = {
    "SurfaceSignature": lambda: top.SurfaceSignature(1, 0, 2),
    "Pants": lambda: top.Pants("P1", ("B1", "B2", "B3")),
    "CurveClass": lambda: top.CurveClass("word", "w(1,1)", (1, 1)),
    "ArcClass": lambda: top.ArcClass(*A33),
    "Surface": lambda: top.Surface(*S),
    "Panel": lambda: top.Panel(S, 0, PANEL.entries),
    "FNPoint": lambda: geo.pants_point(1, 2, 3),
    "RationalLamination": lambda: lam.rational_lamination(S, {A33: 1.0}),
    "DTCoordinates": lambda: lam.dt_encode(MU),
    "MetricValue": lambda: met.arc_metric(BASE, geo.pants_point(2, 2, 2), PANEL),
    "LimitReport": lambda: met.LimitReport("boundary", 0,
                                           projective_vector=(1.0, 0.5)),
    "Horofunction": lambda: met.boundary_horofunction(MU, BASE, PANEL),
    "PathSpec": lambda: asy.PathSpec(MU, BASE, (0.0, 1.0)),
    "DeviationReport": lambda: asy.DeviationReport("a33", 1.0, 0.1, 0.2, False),
    "SeparationWitness": lambda: asy.SeparationWitness(BASE, 0.1, 0.0, 0.5, 1.0),
    "Geodesic": lambda: hp.Geodesic((0.0, 1.0), (1.0, 1.0)),
    "PantsRealization": lambda: hol.PantsRealization(*REALIZATION),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_value_type(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert type(a).__name__ == name and a is not b
    fields = getattr(type(a), "_fields", None) or type(a).__slots__
    for field in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    assert a == b
    if name != "PantsRealization":  # seam_lengths is a dict, so no hash
        assert hash(a) == hash(b)
    pattern = re.escape(name) + r"\(" + ", ".join(f"{f}=.*" for f in fields) + r"\)"
    assert re.fullmatch(pattern, repr(a), re.S)
