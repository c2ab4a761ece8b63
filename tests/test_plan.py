"""geometry.log_lengths and geometry.walk: panel log length vectors, read
through each surface's route table, equal a per-class reference.

The reference computes each class's log length on its own, from each
coordinate curve's length and log length (FNPoint.length_of at a point, the
path's log lengths along a walk) through the hyptrig cores and log-term
functions: none of the walk's shared log terms or compiled routes.  Every
value is compared with ==, bit for bit: both evaluate the same formula with
the same floats, so nothing may round differently.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcmetric import asymptotics as asy
from arcmetric import geometry as geo
from arcmetric import hyptrig as ht
from arcmetric import lamination as lam
from arcmetric.errors import DomainError, InvalidSpecError, UnsupportedClassError
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


def reference_log(surface, coord, twist, cls):
    """Log length of cls, class by class, from coord(label) -> (length, log
    length) of a coordinate curve (a puncture is (0.0, -inf)) and its
    twist(label)."""
    torus = surface.signature == (1, 0, 1)
    if isinstance(cls, CurveClass):
        if cls.kind in ("boundary", "interior"):
            return coord(cls.label)[1]
        if not (torus and cls.kind == "word" and cls.slope is not None):
            raise UnsupportedClassError(cls.label)
        return ht.torus_slope_length(coord("C1")[1], twist("C1"), coord("B1")[1],
                                     *cls.slope)
    if surface.double_of is not None:
        raise DomainError("arcs live on bordered surfaces")

    def cosh(side):
        return ht.log_cosh(side[0] / 2)

    if cls.host is not None:
        if not torus:
            raise UnsupportedClassError(cls.label)
        host = ht.torus_slope_length(coord("C1")[1], twist("C1"), coord("B1")[1],
                                     *cls.host)
        host = ht.log_cosh(math.exp(host) / 2)
        return ht.arc_same_from_logs(cosh(coord("B1")), ht.log_sinh_half(*coord("B1")),
                                     host, host)
    kind, *sides = cls.pattern
    a, b, c = map(coord, sides)
    if kind == "same":
        return ht.arc_same_from_logs(cosh(a), ht.log_sinh_half(*a), cosh(b), cosh(c))
    return ht.arc_distinct_from_logs(a[0], b[0], cosh(c), ht.log_sinh_half(*a),
                                     ht.log_sinh_half(*b))


def references(surface, coord, twist, entries):
    """The reference log length of each entry, or the type of its first
    error (log_lengths and walk must raise the same type)."""
    try:
        return [reference_log(surface, coord, twist, e) for e in entries]
    except Exception as exc:
        return type(exc)


def direct(X, entries):
    """The reference at the point X."""
    def coord(label):
        if label in X.surface.punctures:
            return 0.0, -math.inf
        return X.length_of(label), math.log(X.length_of(label))
    return references(X.surface, coord, lambda label: X.interior_dict()[label][1],
                      entries)


def logs_or_error(panel, X):
    try:
        return geo.log_lengths(panel.surface, panel.entries, X)
    except Exception as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SURFACES + PUNCTURED).flatmap(
    lambda s: st.tuples(st.just(s), points(s))))
def test_panel_zero_vectors_equal_class_length(case):
    surface, X = case
    panel = enumerate_panel(surface, 0)
    assert geo.log_lengths(surface, panel.entries, X) == direct(X, panel.entries)


@settings(max_examples=25, deadline=None)
@given(points(TORUS, cuffs=st.floats(0.1, 8.0)), st.sampled_from([3, 6]))
def test_torus_word_panels_equal_the_reference(X, complexity):
    # word curves and twisted arcs take the torus trace descent
    panel = enumerate_panel(TORUS, complexity)
    assert logs_or_error(panel, X) == direct(X, panel.entries)


def walked(spec, panel):
    """The walk's vectors along the path, then the type of its error."""
    out = []
    try:
        out.extend(asy._walk(spec, panel.surface, panel.entries))
    except Exception as exc:
        out.append(type(exc))
    return out


def expected(spec, entries, grid):
    """The reference at each point of the path, from its coordinates' log
    lengths (a decayed one far below the doubles), up to the first error."""
    surface, out = spec.mu.surface, []
    held = {label: (param, math.log(param))
            for label, (kind, param) in spec.regimes if kind == "hold"}
    held.update(dict.fromkeys(surface.punctures, (0.0, -math.inf)))
    twists = dict(spec.base_point.interior)
    for t in grid:
        coords = {**held, **{label: (math.exp(v), v) for label, v
                             in asy._moving_lengths(spec, t).items()}}
        out.append(references(surface, coords.__getitem__,
                              lambda label: twists[label][1], entries))
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
    # Cuffs span [1e-8, 1e3], and a leaf decays below the doubles by t = 8,
    # where the walk and the reference read its log length
    spec, panel = case
    vectors = walked(spec, panel)
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
    assert walked(spec, panel) == expected(spec, panel.entries, spec.grid)


def test_walk_stops_at_the_double_range():
    # B3 grows at rate 2: a grid up to t + log 2 <= log(DBL_MAX) is walked
    # in full, a(B3;B1,B2) about e^(-e^709 / 2) at its end, and a grid past
    # it is refused when its spec is built, before any walk
    surface = SURFACES[0]
    mu = lam.rational_lamination(surface, {surface.arc_alias("a33"): 1.0})
    grid = (0.0, 5.0, 700.0, 709.0)
    spec = asy.make_path_spec(mu, geo.pants_point(1.0, 1.0, 2.0), grid)
    panel = enumerate_panel(surface, 0)
    vectors = walked(spec, panel)
    assert vectors == expected(spec, panel.entries, spec.grid)
    assert len(vectors) == 4 and all(map(math.isfinite, vectors[-1]))
    with pytest.raises(InvalidSpecError, match="moving length of B3"):
        asy.make_path_spec(mu, geo.pants_point(1.0, 1.0, 2.0), grid + (720.0,))


def test_checked_arc_wrappers_equal_class_length():
    # the hyptrig wrappers read log sinh(l/2) as every route does (from log l
    # below l = 2e-8), so an arc has one length, bit for bit, at any cuff
    rng, lo, hi = random.Random(31), math.log(1e-12), math.log(1e3)
    triples = [[math.exp(rng.uniform(lo, hi)) for _ in range(3)] for _ in range(3000)]
    triples += [[5e-324, 1.0, 2.0], [1e-12, 5e-324, 3.0]]  # a denormal cuff
    arcs = [e for e in enumerate_panel(SURFACES[0], 0) if isinstance(e, ArcClass)]
    for triple in triples:
        X = geo.pants_point(*triple)
        for arc in arcs:
            kind, a, b, c = arc.pattern
            wrapper = (ht.arc_length_same_boundary if kind == "same"
                       else ht.arc_length_distinct_boundaries)
            sides = [X.length_of(label) for label in (a, b, c)]
            try:
                want = geo.class_length(X, arc)
            except DomainError:  # below the doubles: both refuse
                with pytest.raises(DomainError):
                    wrapper(*sides)
                continue
            assert wrapper(*sides) == want, (triple, str(arc))


def test_intersection_vector_is_one_intersection_number_per_entry(monkeypatch):
    surface = SURFACES[0]
    panel = enumerate_panel(surface, 0)
    mu = lam.rational_lamination(surface, {surface.arc_alias("a33"): 1.0})
    expected = tuple(lam.intersection_number(mu, e) for e in panel)
    calls = []
    intersection = lam.intersection_number
    monkeypatch.setattr(lam, "intersection_number",
                        lambda m, e: calls.append(e) or intersection(m, e))
    assert lam.intersection_vector(mu, panel.entries) == expected
    assert len(calls) == len(panel)


def test_errors_match_class_length():
    X = geo.pants_point(1.0, 2.0, 3.0)
    panel = enumerate_panel(X.surface, 0)
    # arcs on a double: the pants panel at the doubled point, and an arc
    # compiled on the double itself
    D = geo.double_point(X)
    arc = X.surface.arc_alias("a12")
    assert direct(D, panel.entries) is DomainError
    with pytest.raises(DomainError):
        geo.log_lengths(X.surface, panel.entries, D)
    assert direct(D, [arc]) is DomainError
    with pytest.raises(DomainError):
        geo.log_lengths(D.surface, [arc], D)
    # a word class is unsupported on the pants
    word = CurveClass("word", "w(1,1)", (1, 1))
    assert direct(X, [word]) is UnsupportedClassError
    with pytest.raises(UnsupportedClassError):
        geo.log_lengths(X.surface, [word], X)
    # a twisted arc is registered on the torus only
    twisted = ArcClass(arc.pants_id, arc.pattern, host=(1, 2))
    assert direct(X, [twisted]) is UnsupportedClassError
    with pytest.raises(UnsupportedClassError):
        geo.log_lengths(X.surface, [twisted], X)
    # a point of another surface
    T = geo.torus_point(1.0, 0.0, 2.0)
    assert direct(T, panel.entries) is DomainError
    with pytest.raises(DomainError):
        geo.log_lengths(X.surface, panel.entries, T)
    assert direct(X, enumerate_panel(TORUS, 0).entries) is DomainError
    with pytest.raises(DomainError):
        geo.log_lengths(TORUS, enumerate_panel(TORUS, 0).entries, X)


PANTS_POINT = geo.pants_point(1.0, 2.0, 3.0)
A12 = PANTS_POINT.surface.arc_alias("a12")
# S_0,1,2 is one pants with sides B1, B2 and the cusp U1
CUSPED_POINT = geo.fn_point(build_surface(0, 1, 2), {}, {"B1": 1.0, "B2": 2.0})
REFUSALS = [
    ("missing coordinate label", PANTS_POINT, CurveClass("boundary", "B9"),
     DomainError, "no coordinate curve 'B9' on S_0,0,3"),
    ("unknown curve kind", PANTS_POINT, CurveClass("loop", "l1"),
     UnsupportedClassError, "unknown curve kind 'loop'"),
    ("word class off the torus", PANTS_POINT, CurveClass("word", "w(1,1)", (1, 1)),
     UnsupportedClassError, "word class 'w(1,1)' unsupported on S_0,0,3"),
    ("arc on a double", geo.double_point(PANTS_POINT), A12,
     DomainError, "arcs live on bordered surfaces, not doubles"),
    ("twisted arc off the torus", PANTS_POINT, ArcClass("P1", A12.pattern, host=(1, 2)),
     UnsupportedClassError, "twisted arcs are registered on the one-holed torus only"),
    ("missing arc side", PANTS_POINT, ArcClass("P1", ("distinct", "B1", "B9", "B3")),
     DomainError, "no coordinate curve 'B9' on S_0,0,3"),
    ("same-boundary arc from a cusp", CUSPED_POINT,
     ArcClass("P1", ("same", "U1", "B1", "B2")),
     DomainError, "arc from a cusp is undefined (lb = 0)"),
    ("distinct arc ending on a cusp", CUSPED_POINT,
     ArcClass("P1", ("distinct", "B1", "U1", "B2")),
     DomainError, "arc endpoint on a cusp is undefined (lb = 0)"),
]


@pytest.mark.parametrize("X, cls, error, message", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_plan_build_refuses_a_class_without_length(X, cls, error, message):
    # a class's support depends on the surface alone, so log_lengths refuses
    # it when it compiles it, with the type and message class_length raises
    with pytest.raises(error) as built:
        geo.log_lengths(X.surface, [CurveClass("boundary", "B1"), cls], X)
    assert str(built.value) == message
    with pytest.raises(error) as evaluated:
        geo.class_length(X, cls)
    assert str(evaluated.value) == message
