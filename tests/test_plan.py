"""LengthPlan: compiled panel length vectors equal a per-class reference.

The reference reads coordinate lengths from FNPoint.length_of and calls the
checked hyptrig wrappers, none of the plan's cached log terms or routes.
Every value is compared with ==, bit for bit: both evaluate the same formula
with the same floats, so nothing may round differently.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcmetric import asymptotics as asy
from arcmetric import geometry as geo
from arcmetric import hyptrig as ht
from arcmetric import lamination as lam
from arcmetric.errors import DomainError, UnsupportedClassError
from arcmetric.topology import ArcClass, CurveClass, build_surface, enumerate_panel

# the experiment-sweep surfaces: tier 1 and the decomposition-level ones
SIGNATURES = [(0, 0, 3), (1, 0, 1), (0, 0, 4), (1, 0, 2), (2, 0, 1), (0, 0, 6)]
SURFACES = [build_surface(*sig) for sig in SIGNATURES]
# surfaces whose arcs have a puncture (length 0) as a side
PUNCTURED = [build_surface(*sig) for sig in [(0, 1, 2), (1, 1, 1)]]
TORUS = geo.torus_surface()

lengths = st.floats(0.05, 20.0)
twists = st.floats(-3.0, 3.0)


@st.composite
def points(draw, surface, cuffs=lengths):
    interior = {c: (draw(cuffs), draw(twists)) for c in surface.interior_curves}
    boundary = {b: draw(cuffs) for b in surface.boundaries}
    return geo.fn_point(surface, interior, boundary)


def reference_length(X, cls):
    """Length of cls at X, class by class, from the checked hyptrig wrappers."""
    surface = X.surface
    torus = surface.signature == (1, 0, 1)
    if isinstance(cls, CurveClass):
        if cls.kind in ("boundary", "interior"):
            return X.length_of(cls.label)
        if not (torus and cls.kind == "word" and cls.slope is not None):
            raise UnsupportedClassError(cls.label)
        (_, (lC, tau)), = X.interior
        return ht.torus_slope_length(lC, tau, X.length_of("B1"), *cls.slope)
    if surface.double_of is not None:
        raise DomainError("arcs live on bordered surfaces")
    if cls.twist != 0:
        if not torus:
            raise UnsupportedClassError(cls.label)
        (_, (lC, tau)), = X.interior
        host = ht.torus_slope_length(lC, tau, X.length_of("B1"), 1, cls.twist)
        return ht.arc_length_same_boundary(X.length_of("B1"), host, host)
    kind, *sides = cls.pattern
    a, b, c = (0.0 if side in surface.punctures else X.length_of(side)
               for side in sides)
    if kind == "same":
        return ht.arc_length_same_boundary(a, b, c)
    return ht.arc_length_distinct_boundaries(a, b, c)


def direct(X, entries):
    """The reference length of each entry, or the type of its first error."""
    try:
        return [reference_length(X, e) for e in entries]
    except Exception as exc:  # the plan must raise the same type
        return type(exc)


def planned(plan, X):
    try:
        return plan.vector(X)
    except Exception as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SURFACES + PUNCTURED).flatmap(
    lambda s: st.tuples(st.just(s), points(s))))
def test_panel_zero_vectors_equal_class_length(case):
    surface, X = case
    panel = enumerate_panel(surface, 0)
    assert geo.panel_plan(panel).vector(X) == direct(X, panel.entries)


@settings(max_examples=25, deadline=None)
@given(points(TORUS, cuffs=st.floats(0.1, 8.0)), st.sampled_from([3, 6]))
def test_torus_word_panels_equal_the_reference(X, complexity):
    # word curves and twisted arcs take the torus trace descent
    panel = enumerate_panel(TORUS, complexity)
    assert planned(geo.panel_plan(panel), X) == direct(X, panel.entries)


def walked(spec, plan):
    """The walk's vectors along the path, then the type of its error."""
    out = []
    try:
        out.extend(asy._walk(spec, plan))
    except Exception as exc:
        out.append(type(exc))
    return out


def expected(spec, entries, grid):
    """The reference at each scaling_path point, up to the first error."""
    out = []
    for t in grid:
        try:
            X = asy.scaling_path(spec, t)
        except Exception as exc:
            return out + [type(exc)]
        out.append(direct(X, entries))
        if isinstance(out[-1], type):
            break
    return out


log_cuffs = st.floats(-8.0, 3.0).map(lambda e: 10.0 ** e)  # [1e-8, 1e3]


@st.composite
def paths(draw, surfaces, cuffs):
    """(spec, panel): a pants arc, maybe with a boundary leaf disjoint from
    it, drives a path from a random point."""
    surface = draw(st.sampled_from(surfaces))
    arc = draw(st.sampled_from(surface.pants_arcs()))
    weights = {arc: draw(st.floats(0.3, 2.0))}
    leaves = [b for b in surface.boundaries if b not in arc.endpoints()]
    if leaves and draw(st.booleans()):
        weights[surface.curve_class(draw(st.sampled_from(leaves)))] = \
            draw(st.floats(0.3, 2.0))
    mu = lam.rational_lamination(surface, weights)
    spec = asy.make_path_spec(mu, draw(points(surface, cuffs)),
                              (0.0, 1.5, 3.0, 6.0, 8.0))
    return spec, enumerate_panel(surface, 0)


@settings(max_examples=60, deadline=None)
@given(paths(SURFACES[2:] + PUNCTURED, log_cuffs))
def test_walk_equals_class_length_at_every_point(case):
    # along a scaling path only the entries with a moving side are
    # re-evaluated; the held ones keep their first value, which is exact.
    # Cuffs span [1e-8, 1e3], and a leaf decays to the 1e-300 floor by t = 8
    spec, panel = case
    plan = geo.panel_plan(panel)
    vectors = walked(spec, plan)
    assert vectors == expected(spec, panel.entries, spec.grid)
    assert len({id(vec) for vec in vectors}) == len(vectors)  # a new list each


@settings(max_examples=20, deadline=None)
@given(points(TORUS, cuffs=st.floats(0.1, 3.0)), st.sampled_from([3, 6]),
       st.sampled_from([TORUS.pants_arcs()[0], CurveClass("word", "w(0,1)", (0, 1))]))
def test_walk_torus_word_entries_equal_the_reference(X0, complexity, cls):
    # word curves and twisted arcs read the base point's twist at every t
    panel = enumerate_panel(TORUS, complexity)
    spec = asy.make_path_spec(lam.rational_lamination(TORUS, {cls: 1.0}), X0,
                              (0.0, 0.5, 1.0, 2.0))
    assert walked(spec, geo.panel_plan(panel)) \
        == expected(spec, panel.entries, spec.grid)


def test_walk_stops_at_the_double_range():
    # B3 grows at rate 2: the vectors before t + log 2 > log(DBL_MAX) are
    # yielded, and the walk raises DomainError (not OverflowError from e^t)
    # at the first point past it
    surface = SURFACES[0]
    mu = lam.rational_lamination(surface, {surface.arc_alias("a33"): 1.0})
    spec = asy.make_path_spec(mu, geo.pants_point(1.0, 1.0, 2.0),
                              (0.0, 5.0, 700.0, 709.0, 720.0))
    panel = enumerate_panel(surface, 0)
    vectors = walked(spec, geo.panel_plan(panel))
    assert vectors == expected(spec, panel.entries, spec.grid)
    assert len(vectors) == 5 and vectors[-1] is DomainError


def test_intersections_are_computed_once_per_lamination(monkeypatch):
    surface = SURFACES[0]
    panel = enumerate_panel(surface, 0)
    mu = lam.rational_lamination(surface, {surface.arc_alias("a33"): 1.0})
    plan = geo.panel_plan(panel)
    expected = tuple(lam.intersection_number(mu, e) for e in panel)
    calls = []
    intersection = lam.intersection_number
    monkeypatch.setattr(lam, "intersection_number",
                        lambda m, e: calls.append(e) or intersection(m, e))
    assert plan.intersections(mu) == expected
    assert plan.intersections(mu) is plan.intersections(mu)
    assert len(calls) == len(panel)


def test_errors_match_class_length():
    X = geo.pants_point(1.0, 2.0, 3.0)
    panel = enumerate_panel(X.surface, 0)
    plan = geo.panel_plan(panel)
    # arcs on a double: the pants plan at the doubled point, and a plan
    # compiled on the double itself
    D = geo.double_point(X)
    arc = X.surface.arc_alias("a12")
    assert direct(D, panel.entries) is DomainError
    with pytest.raises(DomainError):
        plan.vector(D)
    assert direct(D, [arc]) is DomainError
    with pytest.raises(DomainError):
        geo.LengthPlan(D.surface, [arc]).vector(D)
    # a word class is unsupported on the pants
    word = CurveClass("word", "w(1,1)", (1, 1))
    assert direct(X, [word]) is UnsupportedClassError
    with pytest.raises(UnsupportedClassError):
        geo.LengthPlan(X.surface, [word]).vector(X)
    # a twisted arc is registered on the torus only
    twisted = ArcClass(arc.pants_id, arc.pattern, twist=2)
    assert direct(X, [twisted]) is UnsupportedClassError
    with pytest.raises(UnsupportedClassError):
        geo.LengthPlan(X.surface, [twisted]).vector(X)
    # a point of another surface
    T = geo.torus_point(1.0, 0.0, 2.0)
    assert direct(T, panel.entries) is DomainError
    with pytest.raises(DomainError):
        plan.vector(T)
    assert direct(X, enumerate_panel(TORUS, 0).entries) is DomainError
    with pytest.raises(DomainError):
        geo.panel_plan(enumerate_panel(TORUS, 0)).vector(X)


def test_walk_skips_entries_raising_a_skip_type():
    X = geo.pants_point(1.0, 2.0, 3.0)
    word = CurveClass("word", "w(1,1)", (1, 1))
    b1 = CurveClass("boundary", "B1")
    plan = geo.LengthPlan(X.surface, [b1, word])
    held = {label: X.length_of(label) for label in X.surface.boundaries}
    first, second = plan.walk(held, ({}, {}), {}, skip=UnsupportedClassError)
    assert first[0] == second[0] == 1.0
    assert isinstance(first[1], UnsupportedClassError) and second[1] is first[1]
    with pytest.raises(UnsupportedClassError):
        list(plan.walk(held, ({},), {}))
