"""Fenchel-Nielsen geometry: the holonomy oracle, lengths, and doubling."""

import itertools
import math
import random

import pytest

from arcmetric import geometry as geo
from arcmetric import halfplane as hp
from arcmetric import holonomy as ho
from arcmetric import hyptrig as ht
from arcmetric import topology as top
from arcmetric.errors import DomainError, UnsupportedClassError, UnsupportedSurfaceError
from arcmetric.topology import ArcClass, CurveClass, build_surface, enumerate_panel

# the short name a{j}{k} of each pants arc, as the holonomy words a{j}{k}^d use it
ARC_NAMES = {geo.pants_surface().arc_alias(a): a
             for a in ("a11", "a22", "a33", "a12", "a13", "a23")}


def formula_arc_lengths(l1, l2, l3):
    return {
        "a12": ht.arc_length_distinct_boundaries(l1, l2, l3),
        "a13": ht.arc_length_distinct_boundaries(l1, l3, l2),
        "a23": ht.arc_length_distinct_boundaries(l2, l3, l1),
        "a11": ht.arc_length_same_boundary(l1, l2, l3),
        "a22": ht.arc_length_same_boundary(l2, l1, l3),
        "a33": ht.arc_length_same_boundary(l3, l1, l2),
    }


def test_oracle_agreement_random_sample():
    rng = random.Random(20240811)
    for _ in range(25):
        lengths = [rng.uniform(0.1, 6.0) for _ in range(3)]
        oracle = ho.pants_arc_lengths_oracle(*lengths)
        formula = formula_arc_lengths(*lengths)
        for key in formula:
            assert formula[key] == pytest.approx(oracle[key], abs=1e-9), \
                (lengths, key)


def test_oracle_agreement_thin_and_fat():
    for lengths in [(0.1, 0.1, 0.1), (6, 6, 6), (0.1, 6, 0.1), (5.5, 5.0, 0.2)]:
        oracle = ho.pants_arc_lengths_oracle(*lengths)
        formula = formula_arc_lengths(*lengths)
        for key in formula:
            assert formula[key] == pytest.approx(oracle[key], abs=1e-9)


def test_pants_relator_and_traces():
    pants = ho.build_pants(2.0, 3.0, 4.0)
    product = hp.mul(*pants.cuff_matrices)
    assert max(abs(x - e) for x, e in zip(product, (1, 0, 0, 1))) < 1e-12
    for (a, _, _, d), length in zip(pants.cuff_matrices, pants.lengths):
        assert abs(a + d) == pytest.approx(2 * math.cosh(length / 2), abs=1e-9)


def test_singular_matrices_are_domain_errors():
    # a typed error, never a ZeroDivisionError or a matrix of NaNs
    for M in [(1.0, 2.0, 2.0, 4.0), (0.0, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 1.0),
              (math.inf, 1.0, 1.0, 1.0)]:
        with pytest.raises(DomainError):
            hp.inv(M)
    with pytest.raises(DomainError):  # coincident endpoints
        hp.frame_matrix(hp.Geodesic((1.0, 1.0), (2.0, 2.0)), 1j)


def test_axis_distance_formulas_agree():
    # the inversive-distance form equals 2 artanh of the root cross-ratio
    g1 = hp.geodesic_from_circle(0.0, 1.0)
    g2 = hp.geodesic_from_circle(0.0, math.e)
    assert hp.geodesic_distance(g1, g2) == pytest.approx(1.0, abs=1e-12)
    g3 = hp.geodesic_from_circle(4.0, 1.5)
    d = hp.geodesic_distance(g1, g3)
    lam = (math.tanh(d / 2)) ** 2
    k = abs(hp.inversive_distance(g1, g3))
    assert (1 + lam) / (1 - lam) == pytest.approx(k, rel=1e-12)


def test_oracle_agreement_on_a_wide_log_grid():
    # 9^3 log grid over [0.02, 14]: one long and two short cuffs included
    grid = [0.02 * 700 ** (k / 8) for k in range(9)]
    for lengths in itertools.product(grid, repeat=3):
        oracle = ho.pants_arc_lengths_oracle(*lengths)
        for key, value in formula_arc_lengths(*lengths).items():
            assert abs(oracle[key] - value) <= 1e-3 * max(1.0, value), (lengths, key)


def test_oracle_agreement_one_long_two_short_cuffs():
    oracle = ho.pants_arc_lengths_oracle(14.0, 0.02, 0.02)
    for key, value in formula_arc_lengths(14.0, 0.02, 0.02).items():
        assert oracle[key] == pytest.approx(value, abs=1e-4), key


@pytest.mark.parametrize("lengths", [
    (1, 1, 2000), (2000, 1, 1), (1e308, 1e308, 1e308), (5e-324, 5e-324, 5e-324),
    (1e-300, 1, 1), (50, 50, 1), (1, 1, 1400)])
def test_extreme_cuffs_give_numbers_or_domain_errors(lengths):
    # cosh(1000) overflows, and at (1, 1, 1400) the seam 2-3 reflection does
    for build in (ho.build_pants, ho.pants_arc_lengths_oracle):
        try:
            out = build(*lengths)
        except DomainError:
            continue
        values = (out.values() if isinstance(out, dict)
                  else [x for M in out.cuff_matrices for x in M])
        assert all(map(math.isfinite, values))


def test_pants_point_holonomy():
    hol = geo.holonomy_build(geo.pants_point(2.0, 3.0, 4.0))
    assert max(hol.generator_trace_errors().values()) <= 1e-12
    assert max(hol.relator_residuals()) <= 1e-12
    assert hol.word_length("B2") == pytest.approx(3.0, abs=1e-12)
    X = geo.fn_point(build_surface(0, 0, 4), {"C1": (1.0, 0.0)},
                     {f"B{j}": 1.0 for j in (1, 2, 3, 4)})
    with pytest.raises(UnsupportedSurfaceError):
        ho.point_holonomy(X)


def test_long_cuffs_raise_domain_error_not_overflow():
    # the seam between two cuffs of length 50 is about 6e-11 long: cosh of it
    # rounds to 1, so the seam circles cannot place cuff 2
    with pytest.raises(DomainError, match="too long"):
        ho.build_pants(50.0, 50.0, 1.0)
    # the torus trace descent cancels here; unguarded, log1p raised ValueError
    X = geo.torus_point(451.5, 42.2, 27.5)
    with pytest.raises(DomainError):
        geo.class_length(X, CurveClass("word", "w(-1,2)", (-1, 2)))


# -- FN points and the doubling embedding ------------------------------------------


def test_fn_point_validation():
    with pytest.raises(DomainError):
        geo.pants_point(2, -1, 2)
    with pytest.raises(DomainError):
        geo.torus_point(0.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        geo.fn_point(geo.pants_surface(), {}, {"B1": 1.0})  # missing labels


def test_double_point_coordinates():
    X = geo.torus_point(3.0, 0.7, 2.0)
    Xd = geo.double_point(X)
    coords = Xd.interior_dict()
    assert coords["C1"] == (3.0, 0.7)
    assert coords["B1"] == (2.0, 0.0)
    assert coords["C1m"] == (3.0, -0.7)
    with pytest.raises(DomainError):
        geo.double_point(Xd)


def test_double_point_fixed_when_untwisted():
    X = geo.torus_point(3.0, 0.0, 2.0)
    coords = geo.double_point(X).interior_dict()
    assert coords["C1"] == coords["C1m"]


def test_double_point_injective_on_samples():
    rng = random.Random(5)
    seen = set()
    for _ in range(20):
        X = geo.pants_point(*[rng.uniform(0.5, 5) for _ in range(3)])
        seen.add(geo.double_point(X).interior)
    assert len(seen) == 20


# -- lengths -------------------------------------------------------------------------


def test_curve_length_is_fn_coordinate():
    X = geo.pants_point(2, 3, 4)
    assert geo.class_length(X, CurveClass("boundary", "B2")) == 3.0
    T = geo.torus_point(2.5, 0.3, 1.5)
    assert geo.class_length(T, CurveClass("interior", "C1")) == 2.5


def test_curve_length_monotone_under_scaling():
    X = geo.pants_point(2, 2, 2)
    Y = geo.pants_point(3, 3, 3)
    for b in X.surface.boundary_classes():
        assert geo.class_length(Y, b) > geo.class_length(X, b)


def test_arc_length_examples():
    X = geo.pants_point(2, 2, 2)
    assert geo.class_length(X, X.surface.arc_alias("a12")) == pytest.approx(
        1.704912832358014, abs=1e-12)
    assert geo.class_length(X, X.surface.arc_alias("a33")) == pytest.approx(
        3.612225999682252, abs=1e-12)
    Y = geo.pants_point(4, 4, 4)
    assert geo.class_length(Y, Y.surface.arc_alias("a12")) == pytest.approx(
        0.827136901638557, abs=1e-12)


def test_class_length_computes_log_terms_of_the_labels_it_reads(monkeypatch):
    # S_{0,0,6} has nine coordinate curves; a pants arc reads three of them
    surface = build_surface(0, 0, 6)
    X = geo.fn_point(surface, {c: (1.0 + k, 0.2) for k, c in
                               enumerate(surface.interior_curves)},
                     {b: 0.5 + k for k, b in enumerate(surface.boundaries)})
    arc = surface.pants_arcs()[0]
    calls, log_cosh = [], ht.log_cosh
    monkeypatch.setattr(ht, "log_cosh", lambda x: calls.append(x) or log_cosh(x))
    geo.class_length(X, arc)
    assert len(calls) == 3 == len(set(arc.pattern[1:]))


def test_lamination_length_linearity():
    from arcmetric import lamination as lam
    X = geo.pants_point(2, 2, 2)
    S = X.surface
    B1 = CurveClass("boundary", "B1")
    B2 = CurveClass("boundary", "B2")
    mu = lam.rational_lamination(S, {B1: 1.0, B2: 1.0})
    assert geo.lamination_length(X, mu) == 4.0
    assert geo.lamination_length(X, mu.scaled(2.0)) == 8.0


def test_doubling_relation_all_arcs():
    rng = random.Random(99)
    for _ in range(10):
        X = geo.pants_point(*[rng.uniform(0.4, 5.0) for _ in range(3)])
        hol = geo.holonomy_build(geo.double_point(X))
        for arc in X.surface.pants_arcs():
            alias = ARC_NAMES[arc]
            assert 2 * geo.class_length(X, arc) == pytest.approx(
                hol.word_length(f"{alias}^d"), abs=1e-9)


def arc_length_doubled_route(X: geo.FNPoint, arc: ArcClass) -> float:
    """Arc length as half the doubled closed curve's length on X^d.

    Exact for the symmetric doubles produced by double_point; an independent
    route to the formula lengths of base (untwisted) arcs.
    """
    assert arc.host is None, "doubled route registered for base arcs only"
    hol = geo.holonomy_build(geo.double_point(X))
    if X.surface.is_torus():
        return 0.5 * hol.word_length("a(B1;C1,C1)^d")
    return 0.5 * hol.word_length(f"{ARC_NAMES[arc]}^d")


def test_doubling_relation_torus_arc():
    rng = random.Random(7)
    for _ in range(8):
        X = geo.torus_point(rng.uniform(0.5, 4), rng.uniform(-2, 2),
                            rng.uniform(0.5, 4))
        arc = X.surface.pants_arcs()[0]
        assert arc_length_doubled_route(X, arc) == pytest.approx(
            geo.class_length(X, arc), abs=1e-9)


def test_symmetric_double_length_pairs():
    # mirror word classes have equal length on every symmetric double
    rng = random.Random(13)
    for _ in range(8):
        X = geo.torus_point(rng.uniform(0.5, 4), rng.uniform(-2.5, 2.5),
                            rng.uniform(0.5, 4))
        hol = geo.holonomy_build(geo.double_point(X))
        assert hol.word_length("C1") == pytest.approx(hol.word_length("C1m"),
                                                      abs=1e-9)
        assert hol.word_length("w(0,1)") == pytest.approx(
            hol.word_length("w(0,1)m"), abs=1e-9)


def test_holonomy_invariants_random_points():
    rng = random.Random(31)
    for _ in range(12):
        X = geo.pants_point(*[rng.uniform(0.4, 5.0) for _ in range(3)])
        hol = geo.holonomy_build(geo.double_point(X))
        assert max(hol.generator_trace_errors().values()) < 1e-9
        assert max(hol.relator_residuals()) < 1e-7


def test_dual_curve_twist_conventions():
    beta = CurveClass("word", "w(0,1)", (0, 1))
    c11 = CurveClass("word", "w(1,1)", (1, 1))
    c1m1 = CurveClass("word", "w(-1,1)", (-1, 1))
    X = geo.torus_point(2.0, 0.7, 1.5)
    Xneg = geo.torus_point(2.0, -0.7, 1.5)
    # reflection symmetry: tau -> -tau mirrors slopes (p, q) -> (-p, q)
    assert geo.class_length(X, beta) == pytest.approx(
        geo.class_length(Xneg, beta), abs=1e-9)
    assert geo.class_length(X, c11) == pytest.approx(
        geo.class_length(Xneg, c1m1), abs=1e-9)
    # a full twist is a Dehn twist: beta at tau + lC matches (1,1) at tau
    Xfull = geo.torus_point(2.0, 0.7 + 2.0, 1.5)
    assert geo.class_length(Xfull, beta) == pytest.approx(
        geo.class_length(X, c11), abs=1e-9)


def test_twisted_arc_lengths_via_host_curve():
    X = geo.torus_point(2.0, 0.4, 1.5)
    base = X.surface.pants_arcs()[0]
    arcs = [top.class_from_id(X.surface, f"a(B1;C1,C1)~{k}") for k in (1, -1, 2, -2)]
    for arc in arcs:
        host = geo.class_length(X, CurveClass("word", "w(%d,%d)" % arc.host, arc.host))
        expected = ht.arc_length_same_boundary(1.5, host, host)
        assert geo.class_length(X, arc) == pytest.approx(expected, abs=1e-12)
    assert geo.class_length(X, base) == pytest.approx(
        ht.arc_length_same_boundary(1.5, 2.0, 2.0), abs=1e-12)


def test_compiled_routes_call_their_formulas_by_name(monkeypatch):
    # a route looks its hyptrig core up when it is evaluated, so a wrapper
    # installed after the surface compiled the class sees every call, as it
    # does for a class compiled under it
    T = geo.torus_surface()
    entries = enumerate_panel(T, 3).entries
    X = geo.torus_point(1.3, 0.4, 0.9)
    geo.log_lengths(T, entries, X)

    def count_cores():
        calls = []
        for name in ("arc_same_from_logs", "arc_distinct_from_logs",
                     "torus_slope_length"):
            def counting(*args, name=name, core=getattr(ht, name)):
                calls.append((name, args))
                return core(*args)
            monkeypatch.setattr(ht, name, counting)
        return calls

    compiled = count_cores()
    vec = geo.log_lengths(T, entries, X)
    monkeypatch.undo()
    monkeypatch.setitem(T.__dict__, "_routes", {})
    fresh = count_cores()
    assert geo.log_lengths(T, entries, X) == vec
    assert compiled == fresh
    assert {name for name, _ in fresh} == {
        "arc_same_from_logs", "arc_distinct_from_logs", "torus_slope_length"}


def test_unsupported_classes_raise():
    X = geo.pants_point(2, 2, 2)
    with pytest.raises(UnsupportedClassError):
        geo.class_length(X, CurveClass("word", "w(1,1)", (1, 1)))
    with pytest.raises(DomainError):
        geo.class_length(geo.double_point(X), X.surface.arc_alias("a12"))


def test_word_lengths_on_doubles_are_verification_only():
    # the closed forms have no route for a double's word class; its length
    # is read from holonomy_build(D).word_length alone
    D = geo.double_point(geo.pants_point(2, 2, 2))
    with pytest.raises(UnsupportedClassError):
        geo.class_length(D, CurveClass("word", "a12^d"))


def test_fn_json_roundtrip():
    X = geo.torus_point(2.5, -0.3, 1.25)
    data = geo.fn_to_dict(X)
    assert data["C1"] == {"length": 2.5, "twist": -0.3}
    assert data["B1"] == 1.25
    Y = geo.fn_from_dict(X.surface, data)
    assert Y == X
