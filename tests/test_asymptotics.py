"""Scaling paths, the length sandwich, convergence, and separation."""

import csv
import json
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
from arcmetric import topology as top
from arcmetric.errors import (DegeneratePanelError, DomainError, InvalidSpecError,
                              NoWitnessError)
from arcmetric.topology import (ArcClass, CurveClass, Panel, build_surface,
                                enumerate_panel)

S = geo.pants_surface()
T = geo.torus_surface()
PANEL = enumerate_panel(S, 0)
A33 = S.arc_alias("a33")
A12 = S.arc_alias("a12")

# the (C') pants experiment: driving arc a33 with unit weight, held sides 1
MU = lam.rational_lamination(S, {A33: 1.0})
BASE = geo.pants_point(1, 1, 2)
SPEC = asy.make_path_spec(MU, BASE)
CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"

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
    assert vals == [math.exp(ht.leaf_decay_bound(1.0, t, 2)) for t in (0, 1, 2, 3)]
    drops = [math.log(a / b) for a, b in zip(vals, vals[1:])]
    assert drops[0] > 0 and drops[1] > drops[0] and drops[2] > 2 * drops[1]


def test_scaling_path_checks_lengths_as_fn_point_does():
    # 2 e^t is inf at t = 709.5, before math.exp(t) itself overflows; a
    # growing length is e^(t + log rate)
    with pytest.raises(DomainError, match="length of B3 must be positive"):
        asy.scaling_path(SPEC, 709.5)
    assert asy.scaling_path(SPEC, 3.0) == geo.pants_point(
        1.0, 1.0, math.exp(3.0 + math.log(2.0)))
    # twists come from the base point
    surface = build_surface(0, 0, 4)
    base = geo.fn_point(surface, {"C1": (1.2, 0.3)},
                        {"B1": 1.0, "B2": 1.5, "B3": 0.8, "B4": 2.0})
    mu = lam.rational_lamination(surface, {surface.arc_alias("a(B1;B2,C1)"): 1.0})
    X = asy.scaling_path(asy.make_path_spec(mu, base), 2.0)
    assert X.interior == (("C1", (1.2, 0.3)),)
    assert X.boundary_dict() == {"B1": math.exp(2.0 + math.log(2.0)), "B2": 1.5,
                                 "B3": 0.8, "B4": 2.0}


def test_scaling_path_past_the_double_range():
    # a growing B3 (rate 2) leaves the double range once t + log 2 exceeds
    # log(DBL_MAX); that is a DomainError at every such t, never an
    # OverflowError from e^t
    for t in (709.5, 710.0, 720.0):
        with pytest.raises(DomainError, match="length of B3 must be positive"):
            asy.scaling_path(SPEC, t)
    assert asy.scaling_path(SPEC, 709.0).length_of("B3") \
        == math.exp(709.0 + math.log(2.0))
    # a decaying leaf leaves it below: 6 / sinh(e^t / 2) is under the least
    # normal double from t = 7.27 on, where the point exists only as logs
    # inside a walk; scaling_path names the coordinate, it floors nothing
    mu = lam.rational_lamination(S, {CurveClass("boundary", "B1"): 1.0})
    spec = asy.make_path_spec(mu, BASE)
    assert asy.scaling_path(spec, 7.0) == geo.pants_point(
        math.exp(ht.leaf_decay_bound(1.0, 7.0, 2)), 1.0, 2.0)
    for t in (7.5, 10.0, 709.5):
        assert math.isfinite(ht.leaf_decay_bound(1.0, t, 2))
        with pytest.raises(DomainError, match="length of B1 must be positive"):
            asy.scaling_path(spec, t)
    # past e^t itself the envelope has no log either
    with pytest.raises(DomainError, match="overflows at t = 720.0"):
        asy.scaling_path(spec, 720.0)


def test_boundary_limit_past_the_double_range_exits_3(tmp_path, capsys):
    config = json.loads((CONFIGS / "demo_boundary_pants.json").read_text())
    config["grid"] = [0.0, 720.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = cli.main(["experiment", "boundary-limit", str(path),
                     "--csv", str(tmp_path / "out.csv"),
                     "--json", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 3
    # the spec refuses the grid when it is built, before any walk
    assert err.startswith("error: the moving length of B3 leaves the double "
                          "range at t = 720.0") and "Traceback" not in err


def test_deviation_walk_past_the_double_range():
    # the walk's one domain check is made when the spec and the targets are
    # built: at t = 720 the envelope of a leaf has no log, and at t = 710
    # the leaf's e^t / 2 is a double, but e^t i(mu, a) of a target crossing
    # it with i = 1 is not
    mu = lam.rational_lamination(S, {CurveClass("boundary", "B1"): 1.0})
    with pytest.raises(InvalidSpecError, match="moving length of B1"):
        asy.make_path_spec(mu, BASE, (0.0, 720.0))
    spec = asy.make_path_spec(mu, BASE, (0.0, 710.0))
    a11 = S.arc_alias("a11")
    assert lam.intersection_number(mu, a11) == 1.0
    with pytest.raises(InvalidSpecError, match=r"i\(mu, target\) of a\(B1;B2,B3\)"):
        asy.deviation_walk(spec, [a11])
    columns, reports, _ = asy.deviation_walk(spec, [A12, CurveClass("boundary", "B2")])
    # B2 holds its length 1 and i(mu, B2) = 0; a12 ends on the decayed B1
    assert columns[1] == [1.0, 1.0]
    assert all(math.isfinite(r.max_upper_deviation) for r in reports)


def test_separation_keeps_a_witness_found_before_the_double_range():
    X0 = geo.pants_point(2, 2, 2)
    mu = lam.normalize(lam.rational_lamination(S, {A33: 1.0}), X0)
    nu = lam.normalize(
        lam.rational_lamination(S, {CurveClass("boundary", "B3"): 1.0}), X0)
    # a grid may run to the edge of the double range; past it, the spec
    # of a blend is refused when it is built
    assert asy.separation_experiment(mu, nu, X0, PANEL,
                                     grid=(0.0, 3.0, 709.0)).t == 3.0
    with pytest.raises(InvalidSpecError):
        asy.separation_experiment(mu, nu, X0, PANEL, grid=(0.0, 3.0, 720.0))


def test_class_intersection_runs_once_per_pair(monkeypatch, tmp_path):
    # the CLI's surface is the interned pants, whose pair table starts
    # empty here; a second run reads every pair from it
    assert build_surface(0, 0, 3) is S
    monkeypatch.delitem(vars(S), "_intersections", raising=False)
    calls = []
    body = lam._class_intersection
    monkeypatch.setattr(lam, "_class_intersection",
                        lambda surface, c, target: calls.append((c, target))
                        or body(surface, c, target))
    argv = ["experiment", "boundary-limit",
            str(CONFIGS / "demo_boundary_pants.json"),
            "--csv", str(tmp_path / "out.csv"), "--json", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    assert calls and len(calls) == len(set(calls))
    first = len(calls)
    assert cli.main(argv) == 0
    assert len(calls) == first


def test_invalid_spec_rejected():
    with pytest.raises(InvalidSpecError):
        asy.make_path_spec(MU, BASE, grid=[1.0, 0.5])
    with pytest.raises(InvalidSpecError):
        asy.make_path_spec(MU, geo.torus_point(1.0, 0.0, 2.0))
    with pytest.raises(DomainError):
        asy.scaling_path(SPEC, -1.0)


NAN, INF = float("nan"), float("inf")
LEAF_MU = lam.rational_lamination(S, {CurveClass("boundary", "B1"): 1.0,
                                      S.arc_alias("a23"): 1.0})
BAD_GRIDS = [(MU, (0.0, NAN)), (MU, (0.0, INF)), (MU, (INF,)),
             (MU, (0.0, 1.0, NAN, 2.0)), (MU, ()), (MU, (-1.0, 1.0)),
             # refused before a decaying leaf's envelope reads the NaN
             (LEAF_MU, (NAN, 1.0))]


@pytest.mark.parametrize("mu, grid", BAD_GRIDS, ids=[
    f"{'leaf' if mu is LEAF_MU else 'a33'}{list(grid)}" for mu, grid in BAD_GRIDS])
def test_path_spec_refuses_a_bad_grid(mu, grid):
    with pytest.raises(InvalidSpecError) as refused:
        asy.PathSpec(mu, BASE, grid)
    assert str(refused.value) == \
        "grid must be finite and strictly increasing with t >= 0"


@pytest.mark.parametrize("t", [-1.0, NAN, INF])
def test_scaling_path_refuses_a_parameter_off_the_path(t):
    with pytest.raises(DomainError) as refused:
        asy.scaling_path(SPEC, t)
    assert str(refused.value) == f"path parameter must be finite and >= 0, got {t!r}"


def test_key_inequality_limit_constant():
    for t in [3.0, 5.0, 8.0, 10.0]:
        Xt = asy.scaling_path(SPEC, t)
        dev = geo.class_length(Xt, A12) - math.exp(t)
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
    spec = asy.make_path_spec(MU, BASE, [0.0, 1.0])
    reports, skipped = asy.verify_key_inequality(spec, [word])
    assert reports == []
    assert len(skipped) == 1 and skipped[0][0] == "w(1,1)"


def test_deviation_walk_leaves_skipped_targets_out_of_the_plan(monkeypatch):
    # support is decided once per target, before the walk: a skipped target
    # gets no intersection number and no column, and keeps its place in order
    word = CurveClass("word", "w(1,1)", (1, 1))
    seen, intersection = [], lam.intersection_number
    monkeypatch.setattr(lam, "intersection_number",
                        lambda m, e: seen.append(e) or intersection(m, e))
    columns, reports, skipped = asy.deviation_walk(SPEC, [word, A12, word])
    assert list(columns) == [1] and [r.target for r in reports] == [str(A12)]
    assert skipped == [("w(1,1)", "word class 'w(1,1)' unsupported on S_0,0,3")] * 2
    assert seen == [A12]


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
    # the walk computes the moving lengths once per grid point and builds
    # no point (every target has a formula route)
    calls, points = [], []
    lengths = asy._moving_lengths

    def counting(spec, t):
        calls.append(t)
        return lengths(spec, t)

    monkeypatch.setattr(asy, "_moving_lengths", counting)
    monkeypatch.setattr(asy, "scaling_path", lambda spec, t: points.append(t))
    config = Path(__file__).resolve().parent.parent / "demos" / "configs" \
        / "demo_cprime.json"
    code = cli.main(["experiment", "inequality", str(config),
                     "--csv", str(tmp_path / "out.csv"),
                     "--json", str(tmp_path / "out.json")])
    assert code == 0
    assert len(calls) == 21 and len(set(calls)) == 21
    assert points == []


def test_inequality_without_targets_reads_the_panel(monkeypatch, tmp_path):
    calls = []
    parse = top.class_from_id  # lamination_from_dict and the CLI both parse here
    monkeypatch.setattr(top, "class_from_id",
                        lambda surface, cid: calls.append(cid) or parse(surface, cid))
    config = Path(__file__).resolve().parent.parent / "demos" / "configs" \
        / "demo_boundary_pants.json"  # no targets: the whole panel
    code = cli.main(["experiment", "inequality", str(config),
                     "--csv", str(tmp_path / "out.csv"),
                     "--json", str(tmp_path / "out.json")])
    assert code == 0
    assert calls == ["a33"]  # the lamination only; panel entries are not re-parsed
    with open(tmp_path / "out.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header[1:-1] == [f"dev[{label}]" for label in PANEL.labels()]


def test_boundary_limit_cli_computes_the_intersection_vector_once(monkeypatch,
                                                                  tmp_path):
    calls = []
    intersection = lam.intersection_number

    def counting(mu, gamma):
        calls.append(gamma)
        return intersection(mu, gamma)

    monkeypatch.setattr(lam, "intersection_number", counting)
    config = Path(__file__).resolve().parent.parent / "demos" / "configs" \
        / "demo_boundary_pants.json"
    code = cli.main(["experiment", "boundary-limit", str(config),
                     "--csv", str(tmp_path / "out.csv"),
                     "--json", str(tmp_path / "out.json")])
    assert code == 0
    # the path's regimes of B1, B2, B3, then one per entry of the 9-entry
    # panel for the limit vector, which the sweep and the summary share
    assert len(calls) == 3 + 9


def _count_formula_calls(monkeypatch, surface):
    """Record each call of a pants-formula core on surface."""
    calls = []
    for name in ("arc_same_from_logs", "arc_distinct_from_logs"):
        def counting(*args, formula=getattr(ht, name)):
            calls.append(args)
            return formula(*args)
        monkeypatch.setattr(ht, name, counting)
    return calls


def test_horo_convergence_builds_each_constant_once(monkeypatch):
    spec = asy.make_path_spec(MU, BASE, [4.0, 6.0, 8.0, 10.0])
    formula_calls, intersection_calls = _count_formula_calls(monkeypatch, S), []
    intersection = lam.intersection_number

    def counting_intersection(mu, gamma):
        intersection_calls.append(gamma)
        return intersection(mu, gamma)

    monkeypatch.setattr(lam, "intersection_number", counting_intersection)
    probes = [geo.pants_point(2, 2, 2), geo.pants_point(1.5, 2.5, 3),
              geo.pants_point(3.2, 1.1, 2.4)]
    asy.horo_convergence(spec, probes, PANEL)
    arcs = sum(isinstance(e, ArcClass) for e in PANEL)
    assert len(PANEL) == 9 and arcs == 6
    # one length vector per base point and probe, one per grid point; the
    # normalizer and the probes' mu-values read theirs (every arc has the
    # growing side B3, so each t re-evaluates all six)
    assert len(formula_calls) == (1 + 3) * 6 + 4 * 6 == 48
    # i(mu, .) once per panel entry
    assert len(intersection_calls) == 9


def test_walk_reevaluates_only_moving_entries(monkeypatch):
    # on S_{0,0,4}, a(B1;B2,C1) grows B1: the arcs of the pants (C1, B3, B4)
    # keep their lengths along the path and are evaluated at the first t only
    surface = build_surface(0, 0, 4)
    panel = enumerate_panel(surface, 0)
    mu = lam.rational_lamination(surface, {surface.arc_alias("a(B1;B2,C1)"): 1.0})
    base = geo.fn_point(surface, {"C1": (1.2, 0.3)},
                        {"B1": 1.0, "B2": 1.5, "B3": 0.8, "B4": 2.0})
    spec = asy.make_path_spec(mu, base, (0.0, 1.0, 2.0, 3.0))
    calls = _count_formula_calls(monkeypatch, surface)
    series = asy.boundary_convergence(spec, panel).series
    arcs = [e for e in panel if isinstance(e, ArcClass)]
    moving = [a for a in arcs if "B1" in a.pattern[1:]]
    assert (len(arcs), len(moving)) == (6, 3)
    assert len(calls) == len(arcs) + 3 * len(moving)
    monkeypatch.undo()
    for t, dist in series:
        vec = met.thurston_vector(asy.scaling_path(spec, t), panel)
        ivec = [lam.intersection_number(mu, e) for e in panel]
        assert dist == max(abs(a - b / max(ivec)) for a, b in zip(vec, ivec))


def test_horo_convergence_rejects_points_on_other_surfaces():
    probe = geo.torus_point(1.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        asy.horo_convergence(asy.make_path_spec(MU, BASE, [4.0]), [probe], PANEL)


@pytest.mark.parametrize("experiment", [
    lambda panel: asy.boundary_convergence(SPEC, panel),
    lambda panel: asy.horo_convergence(SPEC, [BASE], panel),
], ids=["boundary_convergence", "horo_convergence"])
def test_a_panel_of_another_surface_is_refused(experiment):
    # i(mu, .) reads the torus's interior curve C1 on mu's pants
    with pytest.raises(DomainError) as refused:
        experiment(enumerate_panel(T, 0))
    assert str(refused.value) == "unknown curve label 'C1' on S_0,0,3"


def test_horo_convergence_needs_a_probe():
    with pytest.raises(DomainError, match="at least one probe"):
        asy.horo_convergence(SPEC, [], PANEL)


@pytest.mark.parametrize("config", [CONFIGS / "demo_horo_pants.json",
                                    GOLDEN_CONFIGS / "S_0_0_4.json",
                                    GOLDEN_CONFIGS / "S_2_0_1.json"],
                         ids=lambda path: path.stem)
def test_horo_convergence_equals_the_horofunction_api(config):
    # at each t, the series is max over probes Y of |Phi_{X_t}(Y) - Phi_mu(Y)|
    # from the public horofunctions, bit for bit
    data = json.loads(config.read_text())
    surface, base, mu, grid, panel = cli._experiment_inputs(asy, data)
    spec = asy.PathSpec(mu, base, grid)
    probes = [geo.fn_from_dict(surface, p) for p in data["probes"]]
    h_mu = met.boundary_horofunction(spec.mu, base, panel)
    series = asy.horo_convergence(spec, probes, panel)
    assert [t for t, _ in series] == list(spec.grid)
    for t, dev in series:
        assert math.isfinite(dev)
        try:
            X_t = asy.scaling_path(spec, t)
        except DomainError:  # a leaf decayed below the doubles: X_t has
            continue  # only log lengths, inside the walk
        h_t = met.interior_horofunction(X_t, base, panel)
        assert dev == max(abs(met.horofunction_eval(h_t, Y)
                              - met.horofunction_eval(h_mu, Y)) for Y in probes)


def test_boundary_convergence_pants():
    spec = asy.make_path_spec(MU, BASE, [4, 6, 8])
    series = dict(asy.boundary_convergence(spec, PANEL).series)
    assert series[8] <= 1e-3
    assert series[4] > series[6] > series[8]


def test_boundary_convergence_torus():
    beta = CurveClass("word", "w(0,1)", (0, 1))
    mu = lam.rational_lamination(T, {beta: 1.0})
    spec = asy.make_path_spec(mu, geo.torus_point(1.0, 0.0, 2.0), [4, 6, 8])
    series = dict(asy.boundary_convergence(spec, enumerate_panel(T, 0)).series)
    assert series[8] <= 1e-3


def test_horo_convergence_monotone_and_small():
    rng = random.Random(11)
    probes = [geo.pants_point(*[rng.uniform(1.0, 4.0) for _ in range(3)])
              for _ in range(5)]
    spec = asy.make_path_spec(MU, BASE, [4, 5, 6, 7, 8, 9, 10])
    series = asy.horo_convergence(spec, probes, PANEL)
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
    # a same-support pair with max ratio barely above 1 cannot clear the
    # 1e-3 gap on a short grid: the search must fail loudly, never
    # fabricate a witness
    X0 = geo.pants_point(2, 2, 2)
    B1 = CurveClass("boundary", "B1")
    B2 = CurveClass("boundary", "B2")
    mu = lam.normalize(lam.rational_lamination(S, {B1: 1.0, B2: 1.0}), X0)
    nu = lam.normalize(lam.rational_lamination(S, {B1: 1.001, B2: 1.0}), X0)
    with pytest.raises(NoWitnessError) as err:
        asy.separation_experiment(mu, nu, X0, PANEL, grid=[0.0, 1.0, 2.0])
    assert len(err.value.attempts) == 12  # 4 epsilons x 3 grid points


def test_separation_refuses_a_panel_that_misses_mu_or_nu():
    # C1 crosses no entry of the torus panel at level 0, and B1 does
    X0 = geo.torus_point(1.0, 0.0, 2.0)
    c1, b1 = (lam.normalize(lam.rational_lamination(T, {cls: 1.0}), X0)
              for cls in (CurveClass("interior", "C1"), CurveClass("boundary", "B1")))
    panel = enumerate_panel(T, 0)
    with pytest.raises(DegeneratePanelError, match="^the panel misses mu$"):
        asy.separation_experiment(c1, b1, X0, panel)
    with pytest.raises(DegeneratePanelError, match="^the panel misses nu$"):
        asy.separation_experiment(b1, c1, X0, panel)


def test_abs_double_chi():
    assert asy.abs_double_chi(S) == 2
    assert asy.abs_double_chi(T) == 2


def test_boundary_convergence_on_a_panel_mu_misses():
    # a33 crosses no panel entry: the normalized intersection vector is 0/0
    panel = Panel(S, 0, (CurveClass("boundary", "B1"),))
    with pytest.raises(DegeneratePanelError, match="^the panel misses mu$"):
        asy.boundary_convergence(SPEC, panel)


def empty():
    return Panel(S, 0, ())


X0_222 = geo.pants_point(2, 2, 2)
NU_B3 = lam.normalize(lam.rational_lamination(S, {CurveClass("boundary", "B3"): 1.0}),
                      X0_222)
EMPTY_PANEL_CALLS = {
    "arc_metric": lambda: met.arc_metric(BASE, X0_222, empty()),
    "thurston_vector": lambda: met.thurston_vector(BASE, empty()),
    "interior_horofunction": lambda: met.interior_horofunction(X0_222, BASE, empty()),
    "boundary_horofunction": lambda: met.boundary_horofunction(MU, BASE, empty()),
    "normalized_length_vector": lambda: met.normalized_length_vector(X0_222, BASE,
                                                                     empty()),
    "detect_limit": lambda: met.detect_limit([BASE, X0_222], empty()),
    "boundary_convergence": lambda: asy.boundary_convergence(SPEC, empty()),
    "horo_convergence": lambda: asy.horo_convergence(SPEC, [X0_222], empty()),
    "separation_experiment": lambda: asy.separation_experiment(
        lam.normalize(MU, X0_222), NU_B3, X0_222, empty()),
}


@pytest.mark.parametrize("call", EMPTY_PANEL_CALLS.values(), ids=EMPTY_PANEL_CALLS)
def test_an_empty_panel_is_one_typed_error(call):
    # no supremum and no projective class exists over no entries: the panel
    # is refused when it is built, so no entry point ever receives one
    with pytest.raises(DomainError, match="panel is empty"):
        call()
