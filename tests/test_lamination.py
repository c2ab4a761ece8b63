"""Laminations: intersection conventions, coordinates, ratio suprema, refine."""

import math
import random

import pytest

from arcmetric import geometry as geo
from arcmetric import lamination as lam
from arcmetric import topology as top
from arcmetric.errors import (DomainError, UnsupportedClassError,
                              UnsupportedCoordinatesError, UnsupportedSurfaceError)
from arcmetric.topology import ArcClass, CurveClass, build_surface, enumerate_panel

S = geo.pants_surface()
T = geo.torus_surface()
B1, B2, B3 = (CurveClass("boundary", f"B{j}") for j in (1, 2, 3))
A11, A12, A13 = (S.arc_alias(a) for a in ("a11", "a12", "a13"))
A22, A23, A33 = (S.arc_alias(a) for a in ("a22", "a23", "a33"))


def L(surface, weights):
    return lam.rational_lamination(surface, weights)


# -- intersection conventions -----------------------------------------------------


def test_arc_vs_arc_examples():
    assert lam.intersection_number(L(S, {A33: 1.0}), A12) == 1.0
    assert lam.intersection_number(L(S, {A11: 1.0}), A22) == 2.0
    assert lam.intersection_number(L(S, {A11: 1.0}), A12) == 0.0
    assert lam.intersection_number(L(S, {A13: 1.0}), A23) == 0.0


def test_self_intersection_vanishes():
    for cls in (A33, A12, B1):
        mu = L(S, {cls: 1.0})
        assert lam.intersection_number(mu, cls) == 0.0


def test_boundary_leaf_half_weight_per_endpoint():
    mu = L(S, {B3: 1.0})
    assert lam.intersection_number(mu, A13) == 0.5   # one endpoint on B3
    assert lam.intersection_number(mu, A33) == 1.0   # both endpoints on B3
    assert lam.intersection_number(mu, A12) == 0.0


def test_arc_counts_full_endpoints_on_boundary_curves():
    # the reverse order is the double's count: it feeds theta-hat and the
    # growth rates of scaling paths
    mu = L(S, {A33: 1.0})
    assert lam.intersection_number(mu, B3) == 2.0
    assert lam.intersection_number(mu, B1) == 0.0


def test_bilinearity():
    mu = L(S, {A33: 2.0, B1: 3.0})
    assert lam.intersection_number(mu, A12) == 2.0 * 1.0 + 3.0 * 0.5
    assert lam.intersection_number(mu.scaled(2.0), A12) == pytest.approx(
        2 * lam.intersection_number(mu, A12))


def test_symmetry_on_nondegenerate_pairs():
    # away from arc-endpoint/boundary pairs the pairing is symmetric
    pairs = [(A33, A12), (A11, A22), (A13, A23), (A11, A13)]
    for c, d in pairs:
        assert lam.class_intersection(S, c, d) == lam.class_intersection(S, d, c)
    beta = CurveClass("word", "w(0,1)", (0, 1))
    arcT = T.pants_arcs()[0]
    assert lam.class_intersection(T, beta, arcT) \
        == lam.class_intersection(T, arcT, beta) == 1.0


def test_torus_slope_intersections():
    c21 = CurveClass("word", "w(2,1)", (2, 1))
    c11 = CurveClass("word", "w(1,1)", (1, 1))
    C1 = CurveClass("interior", "C1")
    assert lam.class_intersection(T, c21, c11) == 1.0
    assert lam.class_intersection(T, c21, C1) == 1.0
    assert lam.class_intersection(T, c11, CurveClass("boundary", "B1")) == 0.0
    arc = T.pants_arcs()[0]
    assert lam.class_intersection(T, c21, arc) == 1.0  # |q| crossings
    arc2 = top.class_from_id(T, "a(B1;C1,C1)~1")
    assert lam.class_intersection(T, arc2, arc) == 0.0
    arc3 = top.class_from_id(T, "a(B1;C1,C1)~2")
    assert lam.class_intersection(T, arc3, arc) == 1.0


def test_a_puncture_side_is_a_boundary_side_that_nothing_crosses():
    # on S_{0,1,2} the level-0 panel is the pants panel on B1, B2 and the arcs
    # that do not end on B3, with the puncture U1 in its place
    P = build_surface(0, 1, 2)
    ids = ("B1", "B2", "a(B1;B2,{0})", "a(B2;B1,{0})", "a(B1,B2;{0})")
    pants, punctured = ([top.class_from_id(surface, i.format(third)) for i in ids]
                        for surface, third in ((S, "B3"), (P, "U1")))
    assert punctured == list(enumerate_panel(P, 0))
    matrix = [[0, 0, 1, 0, .5], [0, 0, 0, 1, .5], [2, 0, 0, 2, 0],
              [0, 2, 2, 0, 0], [1, 1, 0, 0, 0]]
    for surface, classes in ((S, pants), (P, punctured)):
        assert [[lam.class_intersection(surface, c, d) for d in classes]
                for c in classes] == matrix, surface.signature


def _label_slope(label):
    """The slope a torus panel label names, read from the label alone: C1 and
    the base arc (1, 0), w(p,q) (p, q), and the arc ~k (1, k)."""
    if label.startswith("w("):
        p, q = label[2:-1].split(",")
        return int(p), int(q)
    _, tilde, k = label.partition("~")
    return (1, int(k)) if tilde else (1, 0)


@pytest.mark.parametrize("level", [6, 24])
def test_torus_intersections_are_determinants_of_label_slopes(level):
    entries = [e for e in enumerate_panel(T, level)
               if not (isinstance(e, CurveClass) and e.kind == "boundary")]
    curves = [e for e in entries if isinstance(e, CurveClass)]
    for c in entries:
        p, q = _label_slope(str(c))
        for d in curves:
            r, s = _label_slope(str(d))
            assert lam.class_intersection(T, c, d) == abs(p * s - q * r), (c, d)


def test_disjointness_validation():
    with pytest.raises(DomainError):
        L(S, {A11: 1.0, A22: 1.0})
    with pytest.raises(DomainError):
        L(S, {B3: 1.0, A33: 0.5})  # endpoint rests on the leaf
    with pytest.raises(DomainError):
        L(S, {A12: 1.0, A12: -1.0})


def test_a_lamination_holds_only_classes_its_surface_carries():
    # refused when the lamination is built, as the class's length refuses it
    for surface, cls, message in [
            (build_surface(0, 0, 4), CurveClass("word", "w(1,1)", (1, 1)),
             "word class 'w(1,1)' unsupported on S_0,0,4"),
            (S, ArcClass(A12.pants_id, A12.pattern, host=(1, 2)),
             "twisted arcs are registered on the one-holed torus only")]:
        with pytest.raises(UnsupportedClassError) as refused:
            L(surface, {cls: 1.0})
        assert str(refused.value) == message


def test_weight_validation():
    with pytest.raises(DomainError):
        L(S, {B1: 0.0})
    with pytest.raises(DomainError):
        L(S, {B1: float("nan")})


def test_scaling_and_sums_stay_on_one_surface():
    mu = L(S, {A33: 1.0})
    for factor in (0, -1.0, float("inf"), float("nan")):
        with pytest.raises(DomainError) as refused:
            mu.scaled(factor)
        assert str(refused.value) == "scaling factor must be positive and finite"
    with pytest.raises(DomainError) as refused:
        mu + L(T, {CurveClass("interior", "C1"): 1.0})
    assert str(refused.value) == "laminations live on different surfaces"


# -- normalize ----------------------------------------------------------------------


def test_normalize_examples():
    X0 = geo.pants_point(2, 2, 2)
    mu = lam.normalize(L(S, {A33: 1.0}), X0)
    assert mu.components[0][1] == pytest.approx(0.2768376065307, abs=1e-10)
    again = lam.normalize(mu, X0)
    assert again.components[0][1] == pytest.approx(mu.components[0][1], rel=1e-14)
    muB = lam.normalize(L(S, {B1: 1.0}), X0)
    assert muB.components[0][1] == 0.5
    with pytest.raises(DomainError):
        lam.normalize(lam.RationalLamination(S, ()), X0)


def test_normalize_refuses_weights_off_the_doubles():
    # a total that rounds to 0, and a quotient that overflows, are typed
    # errors; a subnormal total with a normal quotient is fine
    for weight, X0 in [(5e-324, geo.pants_point(1e-10, 1, 1)),
                       (1.0, geo.pants_point(1e-310, 1, 1))]:
        with pytest.raises(DomainError):
            lam.normalize(L(S, {B1: weight}), X0)
    mu = lam.normalize(L(S, {B1: 1e-310}), geo.pants_point(2, 2, 2))
    assert mu.components == ((B1, 0.5),)


def test_mediant_property():
    # the length ratio of a lamination never beats its best component ratio
    rng = random.Random(17)
    for _ in range(40):
        X = geo.pants_point(*[rng.uniform(0.5, 5) for _ in range(3)])
        Y = geo.pants_point(*[rng.uniform(0.5, 5) for _ in range(3)])
        mu = lam.sample_supported_lamination(S, rng)
        ratios = [geo.class_length(Y, c) / geo.class_length(X, c)
                  for c, _ in mu.components]
        total = geo.lamination_length(Y, mu) / geo.lamination_length(X, mu)
        assert total <= max(ratios) + 1e-12
        assert total >= min(ratios) - 1e-12


# -- ratio supremum ----------------------------------------------------------------


def test_ratio_sup_examples():
    g1, g2 = B1, B2
    mu = L(S, {g1: 2.0, g2: 3.0})
    nu = L(S, {g1: 4.0, g2: 3.0})
    assert lam.ratio_sup(nu, mu) == 2.0
    assert lam.ratio_sup(mu, mu) == 1.0
    outside = L(S, {g1: 4.0, B3: 1.0})
    assert lam.ratio_sup(outside, mu) == math.inf
    with pytest.raises(DomainError):
        lam.ratio_sup(mu, lam.RationalLamination(S, ()))


def test_classes_are_told_apart_by_value_not_by_label():
    # the arcs around the hosts (2, 3) and (1, 6) both print ~6 and cross
    base = T.pants_arcs()[0]
    a23, a16 = base._replace(host=(2, 3)), base._replace(host=(1, 6))
    assert str(a23) == str(a16) == "a(B1;C1,C1)~6"
    assert lam.ratio_sup(L(T, {a23: 1.0}), L(T, {a16: 1.0})) == math.inf
    with pytest.raises(DomainError, match="intersect"):
        L(T, [(a23, 1.0), (a16, 1.0)])


def test_ratio_sup_matches_componentwise_bruteforce():
    rng = random.Random(4)
    for _ in range(100):
        mu = lam.sample_supported_lamination(S, rng)
        if rng.random() < 0.5:
            # scale some weights, keep the support
            nu = lam.rational_lamination(
                S, {c: w * rng.uniform(0.2, 4.0) for c, w in mu.components})
            brute = max(nu.weight_of(c) / w for c, w in mu.components)
        else:
            extra = lam.sample_supported_lamination(S, rng)
            try:
                nu = mu + extra
            except DomainError:
                continue
            outside = {str(c) for c in extra.classes()} \
                - {str(c) for c in mu.classes()}
            brute = math.inf if outside else max(
                nu.weight_of(c) / w for c, w in mu.components)
        assert lam.ratio_sup(nu, mu) == pytest.approx(brute)


def test_ratio_sup_attained_on_panel():
    # on the pants panel the supremum of intersection ratios never exceeds
    # the component-ratio maximum (the lemma's easy direction)
    rng = random.Random(8)
    panel = enumerate_panel(S, 0)
    for _ in range(50):
        mu = lam.sample_supported_lamination(S, rng)
        nu = lam.rational_lamination(
            S, {c: w * rng.uniform(0.2, 4.0) for c, w in mu.components})
        best = lam.ratio_sup(nu, mu)
        for entry in panel:
            denom = lam.intersection_number(mu, entry)
            if denom > 0:
                assert lam.intersection_number(nu, entry) / denom \
                    <= best + 1e-12


# -- Dehn-Thurston coordinates ------------------------------------------------------


def test_sphere_dimension_examples():
    assert lam.sphere_dimension(S) == (3, 2)
    assert lam.sphere_dimension(T) == (3, 2)
    assert lam.sphere_dimension(build_surface(0, 1, 2)) == (2, 1)


def test_dt_encode_examples():
    coords = lam.dt_encode(L(S, {A33: 1.0}))
    assert coords.boundary_dict() == {"B1": 0.0, "B2": 0.0, "B3": 2.0}
    coords2 = lam.dt_encode(L(S, {B1: 0.75}))
    assert coords2.boundary_dict()["B1"] == -0.75


def test_dt_roundtrip_50_per_surface():
    rng = random.Random(2024)
    for surface in (S, T):
        for _ in range(50):
            mu = lam.sample_supported_lamination(surface, rng)
            back = lam.dt_decode(surface, lam.dt_encode(mu))
            assert [str(c) for c in back.classes()] \
                == [str(c) for c in mu.classes()]
            for (c, w), (c2, w2) in zip(mu.components, back.components):
                assert w2 == pytest.approx(w, rel=1e-12)


def test_dt_decode_rejects_unrepresentable():
    def coords(surface, curves, boundary):
        return lam.DTCoordinates(surface, tuple(curves.items()),
                                 tuple(boundary.items()))

    with pytest.raises(UnsupportedCoordinatesError):
        lam.dt_decode(T, coords(T, {"C1": (1.0, 0.0)}, {"B1": 2.0}))
    with pytest.raises(UnsupportedCoordinatesError):
        lam.dt_decode(T, coords(T, {"C1": (1.0, math.sqrt(2))}, {"B1": 0.0}))
    S12 = build_surface(1, 0, 2)
    with pytest.raises(UnsupportedSurfaceError):
        lam.dt_decode(S12, coords(S12, {"C1": (0, 0)}, {}))


def test_dt_encode_rejects_twisted_arcs():
    arc1 = top.class_from_id(T, "a(B1;C1,C1)~1")
    with pytest.raises(UnsupportedCoordinatesError):
        lam.dt_encode(L(T, {arc1: 1.0}))


def test_double_coordinate_symmetry():
    rng = random.Random(6)
    for surface in (S, T):
        for _ in range(25):
            mu = lam.sample_supported_lamination(surface, rng)
            coords = lam.dt_double_coordinates(mu)
            for label in surface.interior_curves:
                i1, t1 = coords[label]
                i2, t2 = coords[label + "m"]
                assert i1 == i2 and t1 == -t2
            for label in surface.boundaries:
                i_b, t_b = coords[label]
                if i_b != 0:
                    assert t_b == 0.0


def test_dt_serialization():
    coords = lam.dt_encode(L(T, {CurveClass("word", "w(2,3)", (2, 3)): 0.5}))
    data = lam.dt_to_dict(coords)
    assert data["C1"] == [1.5, 1.0]
    assert data["B1"] == 0.0


# -- refinement ---------------------------------------------------------------------


def test_refine_pants_example():
    mu_hat, zeta = lam.refine(L(S, {A33: 1.0}))
    assert {str(c) for c in mu_hat.classes()} >= {"a(B3;B1,B2)", "B1", "B2"}
    assert {str(c) for c in zeta.classes()} == {"B1", "B2"}
    assert all(w == 1.0 for _, w in zeta.components)


def test_refine_fixed_point():
    mu_hat, _ = lam.refine(L(S, {A33: 1.0}))
    again, zeta = lam.refine(mu_hat)
    assert zeta.is_zero()
    assert again.components == mu_hat.components


def test_refine_torus_curve_adds_boundary():
    mu_hat, zeta = lam.refine(L(T, {CurveClass("interior", "C1"): 1.0}))
    assert {str(c) for c in zeta.classes()} == {"B1"}


def test_refine_postcondition_machine_checked():
    rng = random.Random(12)
    for surface in (S, T):
        panel = enumerate_panel(surface, 3 if surface.is_torus() else 0)
        for _ in range(25):
            mu = lam.sample_supported_lamination(surface, rng)
            mu_hat, zeta = lam.refine(mu)
            assert lam.refinement_complete(mu_hat, panel)
            # mu_hat = mu + zeta with the original weights intact
            for c, w in mu.components:
                assert mu_hat.weight_of(c) == w


def test_refine_rejects_non_tier1():
    big = build_surface(1, 0, 2)
    mu = lam.rational_lamination(big, {CurveClass("boundary", "B1"): 1.0})
    with pytest.raises(UnsupportedSurfaceError):
        lam.refine(mu)


def _refine_by_rescan(mu):
    """(mu_hat, zeta) components by refine's definition, scanning the
    candidates again from the first after each addition."""
    surface = mu.surface
    panel = enumerate_panel(surface, 3 if surface.is_torus() else 0)
    comps, added = list(mu.components), []

    def current():
        return lam.RationalLamination(surface, tuple(comps + [(c, 1.0) for c in added]))

    def disjoint(c, d):
        return lam.class_intersection(surface, c, d) == 0.0 \
            and lam.class_intersection(surface, d, c) == 0.0

    if not lam.refinement_complete(current(), panel):
        added += [b for b in surface.boundary_classes() if b not in mu.classes()
                  and all(disjoint(b, c) for c in mu.classes())]
        candidates = [e for e in panel if isinstance(e, ArcClass)] + [
            e for e in panel if isinstance(e, CurveClass) and e.kind != "boundary"]
        while not lam.refinement_complete(current(), panel):
            for cand in candidates:
                if cand not in current().classes() and all(
                        isinstance(cand, ArcClass) and c in surface.boundary_classes()
                        or disjoint(cand, c) for c in current().classes()):
                    added.append(cand)
                    break
            else:
                return "cannot complete"
    return (lam.rational_lamination(surface, current().components).components,
            tuple((c, 1.0) for c in added))


def test_refine_adds_what_rescanning_after_each_addition_adds():
    # a candidate refused once stays refused: the lamination only grows
    laminations = []
    for surface, seed in ((S, 21), (T, 22)):
        rng = random.Random(seed)
        laminations += [lam.sample_supported_lamination(surface, rng)
                        for _ in range(3000)]
        panel = enumerate_panel(surface, 3 if surface.is_torus() else 0)
        for k, c in enumerate(panel):
            laminations.append(L(surface, {c: 1.0}))
            for d in panel.entries[k + 1:]:
                try:
                    laminations.append(L(surface, {c: 1.0, d: 2.0}))
                except DomainError:
                    pass  # not disjoint
    assert len(laminations) == 6061  # 23 one-class and 38 two-class ones
    for mu in laminations:
        try:
            mu_hat, zeta = lam.refine(mu)
            got = (mu_hat.components, zeta.components)
        except DomainError as exc:
            assert "cannot complete" in str(exc)
            got = "cannot complete"
        assert got == _refine_by_rescan(mu), mu


# -- serialization -------------------------------------------------------------------


def test_lamination_json_roundtrip():
    mu = L(S, {A33: 1.25, B1: 0.5})
    data = lam.lamination_to_dict(mu)
    back = lam.lamination_from_dict(S, data)
    assert back.components == mu.components


def test_class_from_id():
    assert top.class_from_id(S, "B2") == B2
    assert top.class_from_id(S, "a12") == A12
    assert top.class_from_id(T, "w(1,2)").slope == (1, 2)
    # at the cap: the descent to 1/(10**6 + 1) takes 10**6 steps
    assert top.class_from_id(T, "w(1,1000001)").slope == (1, 1000001)
    # a long word whose descent is short: no step, and 29 for a Fibonacci slope
    assert top.class_from_id(T, "w(-10000000,1)").slope == (-10000000, 1)
    assert top.class_from_id(T, "w(832040,1346269)").slope == (832040, 1346269)
    assert top.class_from_id(T, "a(B1;C1,C1)~1").host == (1, 1)
    with pytest.raises(DomainError):
        top.class_from_id(S, "nope")


def test_every_panel_id_round_trips():
    for level in range(25):
        for entry in enumerate_panel(T, level):
            assert top.class_from_id(T, str(entry)) == entry
    for sig in [(0, 0, 3), (0, 0, 4), (1, 0, 2), (2, 0, 1), (0, 0, 6), (0, 1, 2)]:
        surface = build_surface(*sig)
        for entry in enumerate_panel(surface, 0):
            assert top.class_from_id(surface, str(entry)) == entry


@pytest.mark.parametrize("k", [6, -7, 40, 1000001, -1000001])
def test_class_from_id_twisted_arc_any_twist(k):
    arc = top.class_from_id(T, f"a(B1;C1,C1)~{k}")
    assert arc.host == ((1, k) if k > 0 else (-1, -k))
    assert top.class_from_id(T, str(arc)) == arc


def test_class_from_id_rejects_bad_twists():
    for bad in ("a(B1;C1,C1)~0", "a(B1;C1,C1)~+6", "a(B1;C1,C1)~x",
                "a(B2;C1,C1)~3"):
        with pytest.raises(DomainError):
            top.class_from_id(T, bad)
    with pytest.raises(DomainError):
        top.class_from_id(S, "a(B1;B2,B3)~1")


def _over_the_cap(bad, steps):
    return (f"class id {bad!r} takes {steps} slope descent steps, over the "
            f"cap 1000000")


MALFORMED_IDS = [
    *[(bad, f"slope id {bad!r} is not w(p,q) with integers p and q")
      for bad in ("w(a,b)", "w(1)", "w(1,2,3)", "w()")],
    (5, "class id must be a string, got 5"),
    (None, "class id must be a string, got None"),
    ("w(2,4)", "slope (2,4) is not primitive with q >= 1"),
    ("w(1,0)", "slope (1,0) is not primitive with q >= 1"),
    # the length descent to 1/q, and to the host (1, k) of a twisted arc,
    # takes q - 1 and |k| - 1 steps
    ("w(1,10000000)", _over_the_cap("w(1,10000000)", 9999999)),
    ("w(-1,1000002)", _over_the_cap("w(-1,1000002)", 1000001)),
    ("a(B1;C1,C1)~5000000", _over_the_cap("a(B1;C1,C1)~5000000", 4999999)),
    ("a(B1;C1,C1)~-1000002", _over_the_cap("a(B1;C1,C1)~-1000002", 1000001)),
]


@pytest.mark.parametrize("bad, message", MALFORMED_IDS,
                         ids=[str(bad) for bad, _ in MALFORMED_IDS])
def test_class_from_id_rejects_malformed_ids(bad, message):
    with pytest.raises(DomainError) as refused:
        top.class_from_id(T, bad)
    assert str(refused.value) == message


@pytest.mark.parametrize("data", [
    [{"class_id": "a33"}],                      # no weight
    [{"weight": 1.0}],                          # no class id
    [{"class_id": "a33", "weight": "heavy"}],   # non-numeric weight
    [{"class_id": "a33", "weight": None}],
    [{"class_id": 33, "weight": 1.0}],          # non-string class id
    ["a33"],                                    # item is not an object
    {"class_id": "a33", "weight": 1.0},         # not a list
    "a33",
    None,
    # one class named twice, under two ids or one: not pairwise distinct
    [{"class_id": "a12", "weight": 1}, {"class_id": "a(B1,B2;B3)", "weight": 2}],
    [{"class_id": "B1", "weight": 1}, {"class_id": "B1", "weight": 2}],
])
def test_lamination_from_dict_rejects_malformed_items(data):
    with pytest.raises(DomainError):
        lam.lamination_from_dict(S, data)
