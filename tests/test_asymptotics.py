"""Scaling paths, the length sandwich, convergence, and separation."""

import math
import random
from pathlib import Path

import pytest

from arcmetric import asymptotics as asy
from arcmetric import cli
from arcmetric import geometry as geo
from arcmetric import hyptrig as ht
from arcmetric import lamination as lam
from arcmetric import metric as met
from arcmetric.errors import DomainError, InvalidSpecError, NoWitnessError
from arcmetric.topology import CurveClass, enumerate_panel

S = geo.pants_surface()
T = geo.torus_surface()
PANEL = enumerate_panel(S, 0)
A33 = S.arc_alias("a33")
A12 = S.arc_alias("a12")

# the (C') pants experiment: driving arc a33 with unit weight, held sides 1
MU = lam.rational_lamination(S, {A33: 1.0})
BASE = geo.pants_point(1, 1, 2)
SPEC = asy.make_path_spec(MU, BASE)

# l(a12) - e^t tends to -2 log sinh(1/2) along the path (large-argument
# expansion of the boundary-joining formula; frozen at double precision)
LIMIT_CONSTANT = 1.3036446518940543


def test_path_spec_regimes():
    reg = SPEC.regime_dict()
    assert reg["B3"] == ("grow", 2.0)
    assert reg["B1"] == ("hold", 1.0) and reg["B2"] == ("hold", 1.0)


def test_scaling_path_values():
    X0 = asy.scaling_path(SPEC, 0.0)
    assert X0.boundary_dict() == {"B1": 1.0, "B2": 1.0, "B3": 2.0}
    X3 = asy.scaling_path(SPEC, 3.0)
    assert X3.boundary_dict()["B3"] == pytest.approx(2 * math.exp(3), rel=1e-15)
    assert X3.boundary_dict()["B1"] == 1.0


def test_scaling_path_decay_regime():
    B1 = CurveClass("boundary", "B1")
    mu = lam.rational_lamination(S, {B1: 1.0, S.arc_alias("a23"): 1.0})
    spec = asy.make_path_spec(mu, geo.pants_point(1, 1, 1))
    assert spec.regime_dict()["B1"] == ("decay", 1.0)
    X0 = asy.scaling_path(spec, 0.0)
    assert X0.boundary_dict()["B1"] == pytest.approx(6 / math.sinh(0.5),
                                                     rel=1e-12)
    # super-exponential decay afterward, matching the envelope exactly:
    # successive log drops accelerate
    vals = [asy.scaling_path(spec, t).boundary_dict()["B1"]
            for t in (0, 1, 2, 3)]
    assert vals == [ht.leaf_decay_bound(1.0, t, 2) for t in (0, 1, 2, 3)]
    drops = [math.log(a / b) for a, b in zip(vals, vals[1:])]
    assert drops[0] > 0 and drops[1] > drops[0] and drops[2] > 2 * drops[1]


def test_invalid_spec_rejected():
    with pytest.raises(InvalidSpecError):
        asy.PathSpec(MU, BASE, (0.0, 1.0),
                     (("B1", ("grow", 1.0)), ("B2", ("hold", 1.0)),
                      ("B3", ("grow", 2.0))))
    with pytest.raises(InvalidSpecError):
        asy.make_path_spec(MU, BASE, grid=[1.0, 0.5])
    with pytest.raises(DomainError):
        asy.scaling_path(SPEC, -1.0)


def test_path_spec_checks_given_regimes():
    good = SPEC.regimes
    assert asy.PathSpec(MU, BASE, (0.0, 1.0), good).regimes == good
    for bad in (good[:2], good + good[:1],
                (("B1", ("hold", 1.5)),) + good[1:],
                (("B1", ("decay", 1.0)),) + good[1:]):
        with pytest.raises(InvalidSpecError):
            asy.PathSpec(MU, BASE, (0.0, 1.0), bad)
    with pytest.raises(InvalidSpecError):
        asy.make_path_spec(MU, geo.torus_point(1.0, 0.0, 2.0))


def test_key_inequality_limit_constant():
    for t in [3.0, 5.0, 8.0, 10.0]:
        Xt = asy.scaling_path(SPEC, t)
        dev = geo.arc_length(Xt, A12) - math.exp(t)
        assert dev == pytest.approx(LIMIT_CONSTANT, abs=1e-6)


def test_key_inequality_envelopes():
    reports, skipped = asy.verify_key_inequality(SPEC, list(PANEL))
    assert not skipped
    by_target = {r.target: r for r in reports}
    grow = by_target["B3"]
    assert grow.max_lower_deviation == 0.0 and grow.max_upper_deviation == 0.0
    for r in reports:
        assert max(r.max_lower_deviation, r.max_upper_deviation) <= 10.0
        assert not r.flagged
    # i = 0 targets stay bounded: lower deviation never exceeds 0
    for name in ("B1", "B2", "a(B3;B1,B2)"):
        assert by_target[name].max_lower_deviation <= 0.0


def test_relative_convergence_of_growing_targets():
    for t in (8.0, 9.0, 10.0):
        Xt = asy.scaling_path(SPEC, t)
        for entry in PANEL:
            ival = lam.intersection_number(MU, entry)
            if ival > 0:
                ratio = geo.class_length(Xt, entry) / (math.exp(t) * ival)
                assert abs(ratio - 1.0) <= 1e-3


def test_unsupported_target_skipped_with_notice():
    word = CurveClass("word", "w(1,1)", (1, 1))
    reports, skipped = asy.verify_key_inequality(SPEC, [word], grid=[0.0, 1.0])
    assert reports == []
    assert len(skipped) == 1 and skipped[0][0] == "w(1,1)"


def test_deviation_walk_matches_key_inequality():
    targets = [A12, CurveClass("word", "w(1,1)", (1, 1)), A33]
    columns, reports, skipped = asy.deviation_walk(SPEC, targets)
    assert list(columns) == [0, 2]
    assert [len(devs) for devs in columns.values()] == [21, 21]
    assert skipped == asy.verify_key_inequality(SPEC, targets)[1]
    assert reports == asy.verify_key_inequality(SPEC, targets)[0]
    for devs, r in zip(columns.values(), reports):
        assert r.max_upper_deviation == max(devs)
        assert r.max_lower_deviation == max(-d for d in devs)
    # a zero deviation is reported as +0.0, not -0.0
    b3 = asy.verify_key_inequality(SPEC, [CurveClass("boundary", "B3")])[0][0]
    assert math.copysign(1.0, b3.max_lower_deviation) == 1.0


def test_inequality_cli_walks_each_grid_point_once(monkeypatch, tmp_path):
    calls = []
    walk = asy.scaling_path

    def counting(spec, t):
        calls.append(t)
        return walk(spec, t)

    monkeypatch.setattr(asy, "scaling_path", counting)
    config = Path(__file__).resolve().parent.parent / "demos" / "configs" \
        / "demo_cprime.json"
    code = cli.main(["experiment", "inequality", str(config),
                     "--csv", str(tmp_path / "out.csv"),
                     "--json", str(tmp_path / "out.json")])
    assert code == 0
    assert len(calls) == 21 and len(set(calls)) == 21


def test_horo_convergence_builds_each_constant_once(monkeypatch):
    length_calls, intersection_calls = [], []
    length, intersection = geo.class_length, lam.intersection_number

    def counting_length(X, cls):
        length_calls.append(X)
        return length(X, cls)

    def counting_intersection(mu, gamma):
        intersection_calls.append(gamma)
        return intersection(mu, gamma)

    monkeypatch.setattr(geo, "class_length", counting_length)
    monkeypatch.setattr(lam, "intersection_number", counting_intersection)
    probes = [geo.pants_point(2, 2, 2), geo.pants_point(1.5, 2.5, 3),
              geo.pants_point(3.2, 1.1, 2.4)]
    grid = [4.0, 6.0, 8.0, 10.0]
    asy.horo_convergence(SPEC, BASE, probes, PANEL, grid=grid)
    crossed = sum(intersection(MU, e) > 0 for e in PANEL)
    assert len(PANEL) == 9 and crossed == 4
    # one length vector per base point and probe, one per grid point, and
    # the crossed entries for the normalizer and each probe's mu-value
    assert len(length_calls) == (1 + 3) * 9 + 4 * 9 + (1 + 3) * 4 == 88
    # i(mu, .) once per panel entry
    assert len(intersection_calls) == 9


def test_horo_convergence_rejects_points_on_other_surfaces():
    probe = geo.torus_point(1.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        asy.horo_convergence(SPEC, BASE, [probe], PANEL, grid=[4.0])
    with pytest.raises(DomainError):
        asy.horo_convergence(SPEC, probe, [BASE], PANEL, grid=[4.0])


def test_boundary_convergence_pants():
    series = dict(asy.boundary_convergence(SPEC, PANEL, grid=[4, 6, 8]))
    assert series[8] <= 1e-3
    assert series[4] > series[6] > series[8]


def test_boundary_convergence_torus():
    beta = CurveClass("word", "w(0,1)", (0, 1))
    mu = lam.rational_lamination(T, {beta: 1.0})
    spec = asy.make_path_spec(mu, geo.torus_point(1.0, 0.0, 2.0))
    series = dict(asy.boundary_convergence(spec, enumerate_panel(T, 0),
                                           grid=[4, 6, 8]))
    assert series[8] <= 1e-3


def test_horo_convergence_monotone_and_small():
    rng = random.Random(11)
    probes = [geo.pants_point(*[rng.uniform(1.0, 4.0) for _ in range(3)])
              for _ in range(5)]
    series = asy.horo_convergence(SPEC, BASE, probes, PANEL,
                                  grid=[4, 5, 6, 7, 8, 9, 10])
    devs = [d for _, d in series]
    assert devs[-1] <= 1e-2
    assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))


def test_horo_convergence_constant_path():
    B2 = CurveClass("boundary", "B2")
    mu = lam.rational_lamination(S, {B2: 1.0, S.arc_alias("a13"): 1.0})
    spec = asy.make_path_spec(mu, BASE)
    # a path all of whose coordinates hold would need an invisible
    # lamination; instead check that hold coordinates really hold
    for label, (kind, _) in spec.regimes:
        if kind == "hold":
            v0 = asy.scaling_path(spec, 0.0).length_of(label)
            v5 = asy.scaling_path(spec, 5.0).length_of(label)
            assert v0 == v5


def test_separation_examples():
    X0 = geo.pants_point(2, 2, 2)
    mu = lam.normalize(lam.rational_lamination(S, {A33: 1.0}), X0)
    nu = lam.normalize(
        lam.rational_lamination(S, {CurveClass("boundary", "B3"): 1.0}), X0)
    w = asy.separation_experiment(mu, nu, X0, PANEL)
    assert w.lhs - w.rhs >= 1e-3
    # disjoint supports find a witness early on the grid
    nu2 = lam.normalize(
        lam.rational_lamination(S, {CurveClass("boundary", "B1"): 1.0}), X0)
    mu2 = lam.normalize(
        lam.rational_lamination(S, {CurveClass("boundary", "B2"): 1.0}), X0)
    w2 = asy.separation_experiment(mu2, nu2, X0, PANEL)
    assert w2.t <= 2.0


def test_separation_rejects_equal_and_unnormalized():
    X0 = geo.pants_point(2, 2, 2)
    mu = lam.normalize(lam.rational_lamination(S, {A33: 1.0}), X0)
    with pytest.raises(DomainError):
        asy.separation_experiment(mu, mu, X0, PANEL)
    un = lam.rational_lamination(S, {A33: 1.0})
    with pytest.raises(DomainError):
        asy.separation_experiment(un, mu, X0, PANEL)


def test_separation_exhaustion_reports_attempts():
    # same-support pair with max ratio barely above 1 cannot clear an
    # absurdly large gap threshold: the search must fail loudly, never
    # fabricate a witness
    X0 = geo.pants_point(2, 2, 2)
    B1 = CurveClass("boundary", "B1")
    B2 = CurveClass("boundary", "B2")
    mu = lam.normalize(lam.rational_lamination(S, {B1: 1.0, B2: 1.0}), X0)
    nu = lam.normalize(lam.rational_lamination(S, {B1: 1.001, B2: 1.0}), X0)
    with pytest.raises(NoWitnessError) as err:
        asy.separation_experiment(mu, nu, X0, PANEL, grid=[0.0, 1.0, 2.0],
                                  min_gap=5.0)
    assert len(err.value.attempts) > 0


def test_abs_double_chi():
    assert asy.abs_double_chi(S) == 2
    assert asy.abs_double_chi(T) == 2
