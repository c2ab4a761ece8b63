"""Surface construction, doubling, panels, and their invariants."""

import json

import pytest

from arcmetric import topology as top
from arcmetric.errors import DomainError, UnsupportedSurfaceError


def test_pants_surface():
    s = top.build_surface(0, 0, 3)
    assert len(s.pants) == 1
    assert s.interior_curves == ()
    assert s.boundaries == ("B1", "B2", "B3")
    assert s.tier1


def test_one_holed_torus():
    s = top.build_surface(1, 0, 1)
    assert len(s.pants) == 1
    assert s.interior_curves == ("C1",)
    assert s.pants[0].sides.count("C1") == 2
    assert s.tier1


def test_nonhyperbolic_rejected():
    with pytest.raises(UnsupportedSurfaceError):
        top.build_surface(0, 0, 2)
    with pytest.raises(UnsupportedSurfaceError):
        top.build_surface(0, 1, 1)
    with pytest.raises(UnsupportedSurfaceError):
        top.build_surface(1, 0, 0)


@pytest.mark.parametrize("g,n,p", [
    (0, 0, 3), (0, 0, 4), (0, 0, 6), (0, 1, 2), (0, 3, 1),
    (1, 0, 1), (1, 0, 2), (1, 2, 1), (2, 0, 1), (2, 1, 2), (3, 0, 2),
])
def test_decomposition_counting_invariants(g, n, p):
    s = top.build_surface(g, n, p)
    assert len(s.pants) == 2 * g - 2 + n + p
    assert len(s.interior_curves) == 3 * g - 3 + n + p
    side_count = {}
    for pants in s.pants:
        for side in pants.sides:
            side_count[side] = side_count.get(side, 0) + 1
    for c in s.interior_curves:
        assert side_count[c] == 2, f"curve {c} must bound exactly two sides"
    for b in s.boundaries:
        assert side_count[b] == 1
    for u in s.punctures:
        assert side_count[u] == 1


def test_arc_beta_sides_are_boundaries():
    for sig in [(0, 0, 3), (1, 0, 1), (0, 1, 2), (2, 0, 1), (1, 0, 2)]:
        s = top.build_surface(*sig)
        for arc in s.pants_arcs():
            for endpoint in arc.endpoints():
                assert endpoint in s.boundaries


def test_pants_arcs_closed_list():
    s = top.build_surface(0, 0, 3)
    labels = [a.label for a in s.pants_arcs()]
    assert labels == ["a(B1;B2,B3)", "a(B2;B1,B3)", "a(B3;B1,B2)",
                      "a(B1,B2;B3)", "a(B1,B3;B2)", "a(B2,B3;B1)"]
    assert s.arc_alias("a12").label == "a(B1,B2;B3)"
    assert s.arc_alias("a33").label == "a(B3;B1,B2)"


def test_pants_arcs_built_once_per_surface():
    s = top.build_surface(0, 0, 4)
    arcs = s.pants_arcs()
    arcs.clear()  # callers get their own list
    assert [a.label for a in s.pants_arcs()] == [
        "a(B1;B2,C1)", "a(B2;B1,C1)", "a(B3;B4,C1)", "a(B4;B3,C1)",
        "a(B1,B2;C1)", "a(B3,B4;C1)"]
    # the classes are built once, and aliases resolve without rebuilding
    assert s.pants_arcs()[0] is s.pants_arcs()[0]
    assert s.arc_alias("a(B1,B2;C1)") is s.arc_alias("a(B1,B2;C1)")
    # the cache is not part of the surface's identity
    fresh = top.build_surface.__wrapped__(0, 0, 4)  # built again, not interned
    assert fresh is not s
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)


def test_surfaces_and_panels_are_built_once():
    s = top.build_surface(2, 0, 1)
    assert top.build_surface(2, 0, 1) is s
    assert top.enumerate_panel(s, 0) is top.enumerate_panel(s, 0)
    assert top.enumerate_panel(s, 1) is not top.enumerate_panel(s, 0)
    with pytest.raises(UnsupportedSurfaceError):  # errors are not interned
        top.build_surface(0, 0, 2)


def test_torus_arc_list():
    s = top.build_surface(1, 0, 1)
    assert [a.label for a in s.pants_arcs()] == ["a(B1;C1,C1)"]


# -- doubling -----------------------------------------------------------------


def test_double_of_pants():
    s = top.build_surface(0, 0, 3)
    d = top.double_topology(s)
    assert d.signature == top.SurfaceSignature(2, 0, 0)
    assert set(d.interior_curves) == {"B1", "B2", "B3"}
    assert len(d.pants) == 2


def test_double_of_torus():
    s = top.build_surface(1, 0, 1)
    d = top.double_topology(s)
    assert d.signature == top.SurfaceSignature(2, 0, 0)
    assert set(d.interior_curves) == {"C1", "B1", "C1m"}


def test_double_of_planar_surface():
    s = top.build_surface(0, 1, 2)
    d = top.double_topology(s)
    assert d.signature == top.SurfaceSignature(1, 2, 0)


def test_double_pants_count():
    # the double of S_{g,n,p} decomposes into 4g - 4 + 2n + 2p pants
    for sig in [(0, 0, 3), (1, 0, 1), (1, 0, 2), (2, 0, 1)]:
        s = top.build_surface(*sig)
        d = top.double_topology(s)
        g, n, p = sig
        assert len(d.pants) == 4 * g - 4 + 2 * n + 2 * p


# -- panels -------------------------------------------------------------------


def test_pants_panel_level0():
    s = top.build_surface(0, 0, 3)
    panel = top.enumerate_panel(s, 0)
    assert len(panel) == 9  # 3 boundaries + 6 arcs
    assert panel.labels()[:3] == ["B1", "B2", "B3"]


def test_torus_panel_level0():
    s = top.build_surface(1, 0, 1)
    panel = top.enumerate_panel(s, 0)
    assert panel.labels() == ["B1", "C1", "a(B1;C1,C1)"]


def test_panel_monotone_and_deterministic():
    for sig in [(0, 0, 3), (1, 0, 1)]:
        s = top.build_surface(*sig)
        previous = []
        for n in range(4):
            panel = top.enumerate_panel(s, n)
            labels = panel.labels()
            assert labels[:len(previous)] == previous
            assert labels == top.enumerate_panel(s, n).labels()
            previous = labels


def test_torus_panel_words():
    s = top.build_surface(1, 0, 1)
    p2 = top.enumerate_panel(s, 2)
    assert "w(0,1)" in p2.labels()
    assert "w(1,1)" in p2.labels() and "w(-1,1)" in p2.labels()
    assert "a(B1;C1,C1)~1" in p2.labels()


def test_panel_negative_complexity():
    s = top.build_surface(0, 0, 3)
    with pytest.raises(DomainError):
        top.enumerate_panel(s, -1)


def test_json_schema_roundtrip():
    s = top.build_surface(1, 0, 2)
    data = json.loads(json.dumps(top.surface_to_dict(s)))
    assert data["signature"] == {"genus": 1, "punctures": 0, "boundary": 2}
    assert {p["id"] for p in data["pants"]} == {x.pants_id for x in s.pants}
    pdata = json.loads(json.dumps(top.panel_to_dict(top.enumerate_panel(s, 0))))
    assert pdata["complexity"] == 0
    assert all(set(e) == {"kind", "id"} for e in pdata["entries"])
