"""Laminations: intersection conventions, coordinates, ratio suprema, refine."""

import math
import random

import pytest

from arcmetric import geometry as geo
from arcmetric import lamination as lam
from arcmetric.errors import (DomainError, UnsupportedCoordinatesError,
                              UnsupportedSurfaceError)
from arcmetric.topology import CurveClass, build_surface, enumerate_panel

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
    arc2 = T.word_arcs_at(2)[0]  # twist +1
    assert lam.class_intersection(T, arc2, arc) == 0.0
    arc3 = T.word_arcs_at(3)[0]  # twist +2
    assert lam.class_intersection(T, arc3, arc) == 1.0


def test_disjointness_validation():
    with pytest.raises(DomainError):
        L(S, {A11: 1.0, A22: 1.0})
    with pytest.raises(DomainError):
        L(S, {B3: 1.0, A33: 0.5})  # endpoint rests on the leaf
    with pytest.raises(DomainError):
        L(S, {A12: 1.0, A12: -1.0})


def test_weight_validation():
    with pytest.raises(DomainError):
        L(S, {B1: 0.0})
    with pytest.raises(DomainError):
        L(S, {B1: float("nan")})


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
    arc1 = T.word_arcs_at(2)[0]  # twist +1
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


# -- serialization -------------------------------------------------------------------


def test_lamination_json_roundtrip():
    mu = L(S, {A33: 1.25, B1: 0.5})
    data = lam.lamination_to_dict(mu)
    back = lam.lamination_from_dict(S, data)
    assert back.components == mu.components


def test_class_from_id():
    assert lam.class_from_id(S, "B2") == B2
    assert lam.class_from_id(S, "a12") == A12
    assert lam.class_from_id(T, "w(1,2)").slope == (1, 2)
    assert lam.class_from_id(T, "a(B1;C1,C1)~1").twist == 1
    with pytest.raises(DomainError):
        lam.class_from_id(S, "nope")


@pytest.mark.parametrize("k", [6, -7, 40])
def test_class_from_id_twisted_arc_any_twist(k):
    arc = lam.class_from_id(T, f"a(B1;C1,C1)~{k}")
    assert arc.twist == k
    assert lam.class_from_id(T, str(arc)) == arc


def test_class_from_id_rejects_bad_twists():
    for bad in ("a(B1;C1,C1)~0", "a(B1;C1,C1)~+6", "a(B1;C1,C1)~x",
                "a(B2;C1,C1)~3"):
        with pytest.raises(DomainError):
            lam.class_from_id(T, bad)
    with pytest.raises(DomainError):
        lam.class_from_id(S, "a(B1;B2,B3)~1")


@pytest.mark.parametrize("bad", ["w(a,b)", "w(1)", "w(1,2,3)", "w()", 5, None])
def test_class_from_id_rejects_malformed_ids(bad):
    with pytest.raises(DomainError):
        lam.class_from_id(T, bad)


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
])
def test_lamination_from_dict_rejects_malformed_items(data):
    with pytest.raises(DomainError):
        lam.lamination_from_dict(S, data)
