"""Arc metric, horofunctions, projective vectors, limit detection."""

import math
import random

import pytest

from arcmetric import asymptotics as asy
from arcmetric import geometry as geo
from arcmetric import lamination as lam
from arcmetric import metric as met
from arcmetric.errors import DegeneratePanelError, DomainError, UnsupportedClassError
from arcmetric.topology import CurveClass, Panel, enumerate_panel

S = geo.pants_surface()
PANEL = enumerate_panel(S, 0)
X222 = geo.pants_point(2, 2, 2)
X444 = geo.pants_point(4, 4, 4)

# derived from the axis-distance oracle: lengths of the boundary-joining arc
# at the two reference points
RATIO_ARC = 1.704912832358014 / 0.827136901638557


def test_desk_values_and_asymmetry():
    d_xy = met.arc_metric(X222, X444, PANEL)
    d_yx = met.arc_metric(X444, X222, PANEL)
    assert d_xy.value == pytest.approx(math.log(2), abs=1e-12)
    assert d_xy.maximizer.startswith("B")
    assert d_yx.value == pytest.approx(math.log(RATIO_ARC), abs=1e-12)
    assert d_yx.maximizer == "a(B1,B2;B3)"
    assert d_xy.value != d_yx.value


def test_identity_and_nonnegativity():
    assert met.arc_metric(X222, X222, PANEL).value == 0.0
    rng = random.Random(23)
    for _ in range(50):
        X = geo.pants_point(*[rng.uniform(0.5, 5) for _ in range(3)])
        Y = geo.pants_point(*[rng.uniform(0.5, 5) for _ in range(3)])
        d = met.arc_metric(X, Y, PANEL).value
        assert d >= 0.0
        if max(abs(a - b) for (_, a), (_, b) in zip(X.boundary, Y.boundary)) > 1e-6:
            assert d > 0.0


def test_panel_triangle_inequality():
    rng = random.Random(41)
    for _ in range(200):
        X, Y, Z = (geo.pants_point(*[rng.uniform(0.3, 6) for _ in range(3)])
                   for _ in range(3))
        dxz = met.arc_metric(X, Z, PANEL).value
        dxy = met.arc_metric(X, Y, PANEL).value
        dyz = met.arc_metric(Y, Z, PANEL).value
        assert dxy + dyz - dxz >= -1e-12


def test_monotone_under_panel_refinement():
    T = geo.torus_surface()
    X = geo.torus_point(1.2, 0.4, 2.2)
    Y = geo.torus_point(2.0, -0.7, 0.9)
    values = [met.arc_metric(X, Y, enumerate_panel(T, n)).value
              for n in range(4)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-15


def test_empty_panel_rejected():
    from arcmetric.topology import Panel
    with pytest.raises(DomainError, match="panel is empty"):
        Panel(S, 0, ())


def test_doubling_isometry_against_thurston_value():
    # the arc metric equals the symmetric-panel Thurston value on the doubles
    rng = random.Random(3)
    double_words = ["B1", "B2", "B3",
                    "a11^d", "a22^d", "a33^d", "a12^d", "a13^d", "a23^d"]
    for _ in range(10):
        X = geo.pants_point(*[rng.uniform(0.5, 5) for _ in range(3)])
        Y = geo.pants_point(*[rng.uniform(0.5, 5) for _ in range(3)])
        hx = geo.holonomy_build(geo.double_point(X))
        hy = geo.holonomy_build(geo.double_point(Y))
        thurston = math.log(max(hy.word_length(w) / hx.word_length(w)
                                for w in double_words))
        assert met.arc_metric(X, Y, PANEL).value == pytest.approx(thurston,
                                                                  abs=1e-9)


# -- thurston vectors -----------------------------------------------------------


def test_thurston_vector_symmetric_point():
    vec = met.thurston_vector(X222, PANEL)
    labels = PANEL.labels()
    by_label = dict(zip(labels, vec))
    assert by_label["B1"] == by_label["B2"] == by_label["B3"]
    assert max(vec) == 1.0
    assert met.thurston_vector(X222, PANEL) == vec  # deterministic


# -- horofunctions -----------------------------------------------------------------


def test_interior_horofunction_basics():
    h0 = met.interior_horofunction(X222, X222, PANEL)
    assert met.horofunction_eval(h0, X222) == 0.0
    X = geo.pants_point(3, 1.5, 2.5)
    h = met.interior_horofunction(X, X222, PANEL)
    assert met.horofunction_eval(h, X) == pytest.approx(
        -met.arc_metric(X222, X, PANEL).value, abs=1e-12)


def test_base_point_change_is_constant_shift():
    Y0 = geo.pants_point(3, 2.5, 2)
    X = geo.pants_point(5, 1, 2)
    h_old = met.interior_horofunction(X, X222, PANEL)
    h_new = met.interior_horofunction(X, Y0, PANEL)
    shift = met.horofunction_eval(h_old, Y0)
    rng = random.Random(9)
    for _ in range(10):
        probe = geo.pants_point(*[rng.uniform(0.8, 4) for _ in range(3)])
        assert met.horofunction_eval(h_new, probe) == pytest.approx(
            met.horofunction_eval(h_old, probe) - shift, abs=1e-12)


def test_boundary_horofunction_example():
    a33 = S.arc_alias("a33")
    mu = lam.normalize(lam.rational_lamination(S, {a33: 1.0}), X222)
    h = met.boundary_horofunction(mu, X222, PANEL)
    assert met.horofunction_eval(h, X222) == pytest.approx(0.0, abs=1e-12)
    Y = geo.pants_point(1, 1, 4 * math.exp(3))
    val = met.horofunction_eval(h, Y)
    assert math.isfinite(val)
    # direct evaluation: max of i(a33,.)/(l_a33(X0) * l(., Y)) over panel
    # entries the lamination actually meets
    la33 = geo.class_length(X222, a33)
    raw = lam.rational_lamination(S, {a33: 1.0})
    hits = [e for e in PANEL if lam.intersection_number(raw, e) > 0]
    direct = max(lam.intersection_number(raw, e)
                 / (la33 * geo.class_length(Y, e)) for e in hits)
    norm = max(lam.intersection_number(raw, e)
               / (la33 * geo.class_length(X222, e)) for e in hits)
    assert val == pytest.approx(math.log(direct / norm), abs=1e-12)


def test_boundary_horofunction_scale_invariant():
    a33 = S.arc_alias("a33")
    mu1 = lam.rational_lamination(S, {a33: 1.0})
    mu2 = mu1.scaled(7.0)
    Y = geo.pants_point(1.5, 2.5, 3.5)
    h1 = met.boundary_horofunction(mu1, X222, PANEL)
    h2 = met.boundary_horofunction(mu2, X222, PANEL)
    assert met.horofunction_eval(h1, Y) == pytest.approx(
        met.horofunction_eval(h2, Y), abs=1e-12)


def test_degenerate_panel_error():
    from arcmetric.topology import Panel
    tiny = Panel(S, 0, (CurveClass("boundary", "B1"),))
    mu = lam.rational_lamination(S, {CurveClass("boundary", "B2"): 1.0})
    with pytest.raises(DegeneratePanelError):
        met.boundary_horofunction(mu, X222, tiny)


def test_boundary_horofunction_at_a_crushed_class():
    # at (1500, 1500, 1) the arc a(B1,B2;B3) is about e^-748.6, below the
    # doubles: class_length refuses to report it, but its log is finite, so
    # the a33 horofunction is built and evaluated there
    mu = lam.rational_lamination(S, {S.arc_alias("a33"): 1.0})
    Y = geo.pants_point(1500, 1500, 1)
    a12 = S.arc_alias("a12")
    log_a12 = geo.log_lengths(S, [a12], Y)[0]
    assert -749 < log_a12 < -748
    with pytest.raises(DomainError, match=r"length of a\(B1,B2;B3\)"):
        geo.class_length(Y, a12)
    # a12 is crossed once and crushed, so it attains the supremum at Y
    h = met.boundary_horofunction(mu, geo.pants_point(1, 1, 1), PANEL)
    assert met.horofunction_eval(h, Y) == -log_a12 - h.constant
    # built at Y, its log normalizer is finite and it vanishes there
    h_Y = met.boundary_horofunction(mu, Y, PANEL)
    assert h_Y.constant == -log_a12
    assert met.horofunction_eval(h_Y, Y) == 0.0


def test_log_sup_ratio_kernel():
    # on log vectors the supremum of ratios is the max of differences, and
    # ties go to the first entry in panel order
    lg = math.log
    assert met._log_sup_ratio([0.0, lg(2.0), lg(3.0)], [lg(2.0), lg(4.0), lg(3.0)]) \
        == (lg(2.0), 0)
    # a length far below the doubles is an ordinary log: a finite supremum
    assert met._log_sup_ratio([0.0, -1e5, lg(2.0)], [lg(2.0), 0.0, lg(9.0)]) \
        == (1e5, 1)
    lx, ly = (geo.log_lengths(S, PANEL.entries, P) for P in (X222, X444))
    value, k = met._log_sup_ratio(lx, ly)
    d = met.arc_metric(X222, X444, PANEL)
    assert (d.value, d.maximizer) == (value, str(PANEL.entries[k]))


def test_boundary_horofunction_crossed_pairs():
    mu = lam.rational_lamination(S, {S.arc_alias("a33"): 1.0})
    h = met.boundary_horofunction(mu, X222, PANEL)
    crossed = [e for e in PANEL if lam.intersection_number(mu, e) > 0]
    # entries are the crossed ones in panel order, log_xi their log i
    assert h.entries == tuple(crossed)
    assert h.log_xi == tuple(math.log(lam.intersection_number(mu, e)) for e in crossed)
    assert len(crossed) == 4
    # the log normalizer: max of log i(mu, e) - log l(e) at the base point
    assert h.constant == max(math.log(lam.intersection_number(mu, e))
                             - geo.log_lengths(S, [e], X222)[0]
                             for e in crossed)
    h_X = met.interior_horofunction(X444, X222, PANEL)
    assert h_X.entries == PANEL.entries
    assert h_X.log_xi == tuple(geo.log_lengths(S, PANEL.entries, X444))


def test_boundary_horofunctions_built_apart_are_equal_and_print_alike():
    mu = lam.rational_lamination(S, {S.arc_alias("a33"): 1.0})
    h, g = (met.boundary_horofunction(mu, X222, PANEL) for _ in range(2))
    assert h == g and h.entries is not g.entries
    assert repr(h) == repr(g)
    # the repr holds the crossed entries
    crossed = tuple(e for e in PANEL if lam.intersection_number(mu, e) > 0)
    assert f"entries={crossed!r}" in repr(h)


def record_log_lengths(monkeypatch):
    """Lists that record the point of each log_lengths call and the class of
    each _route call (a class compiled on a surface)."""
    calls, compiled, log_lengths, route = [], [], geo.log_lengths, geo._route
    monkeypatch.setattr(geo, "log_lengths", lambda surface, entries, X:
                        calls.append(X) or log_lengths(surface, entries, X))
    monkeypatch.setattr(geo, "_route", lambda surface, cls:
                        compiled.append(cls) or route(surface, cls))
    return calls, compiled


def test_interior_horofunction_eval_computes_one_vector(monkeypatch):
    h = met.interior_horofunction(X444, X222, PANEL)
    Y = geo.pants_point(1.5, 2.5, 3.5)
    # d(Y, X) - d(X0, X), bit for bit
    assert met.horofunction_eval(h, Y) == \
        met.arc_metric(Y, X444, PANEL).value - met.arc_metric(X222, X444, PANEL).value
    calls, compiled = record_log_lengths(monkeypatch)
    met.horofunction_eval(h, Y)
    # Y's length vector, from the routes its entries compiled on the surface
    assert calls == [Y] and compiled == []


def test_each_class_is_compiled_once_per_surface(monkeypatch):
    # the torus level-24 panel: once one arc_metric has compiled it, the
    # panel's entry points compile nothing, and a walk over new targets
    # compiles each of them once
    T = geo.torus_surface()
    panel = enumerate_panel(T, 24)
    X, Y = geo.torus_point(1.3, 0.4, 0.9), geo.torus_point(1.1, -0.2, 1.4)
    met.arc_metric(X, Y, panel)
    compiled = record_log_lengths(monkeypatch)[1]
    met.arc_metric(X, Y, panel)
    met.thurston_vector(Y, panel)
    met.horofunction_eval(met.interior_horofunction(X, Y, panel), X)
    assert compiled == []
    mu = lam.rational_lamination(T, {T.pants_arcs()[0]: 1.0})
    met.horofunction_eval(met.boundary_horofunction(mu, Y, panel), X)
    new = T.word_curves_at(25) + T.word_arcs_at(25)
    targets = [*panel.entries[:4], *new] * 2
    asy.deviation_walk(asy.make_path_spec(mu, X, (0.0, 1.0)), targets)
    assert len(compiled) == len(set(compiled)) and set(compiled) <= set(new)


# -- limit detection ----------------------------------------------------------------


def test_detect_limit_constant_sequence():
    rep = met.detect_limit([X222, X222, X222], PANEL, 1e-6)
    assert rep.kind == "interior"
    assert rep.point == X222


def test_detect_limit_alternating():
    rep = met.detect_limit([X222, X444, X222, X444], PANEL, 1e-6)
    assert rep.kind == "none"


def test_detect_limit_boundary_on_scaling_path():
    a33 = S.arc_alias("a33")
    mu = lam.rational_lamination(S, {a33: 1.0})
    spec = asy.make_path_spec(mu, geo.pants_point(1, 1, 2))
    seq = [asy.scaling_path(spec, t) for t in (4, 5, 6, 7, 8)]
    rep = met.detect_limit(seq, PANEL, 1e-3, base_point=X222)
    assert rep.kind == "boundary"
    ivec = [lam.intersection_number(mu, e) for e in PANEL]
    top = max(ivec)
    for got, want in zip(rep.projective_vector, ivec):
        assert got == pytest.approx(want / top, abs=1e-3)


def test_detect_limit_normalizes_only_the_last_two_points(monkeypatch):
    mu = lam.rational_lamination(S, {S.arc_alias("a33"): 1.0})
    spec = asy.make_path_spec(mu, geo.pants_point(1, 1, 2))
    seq = [asy.scaling_path(spec, t) for t in (4, 5, 6, 7, 8)]
    met.thurston_vector(X222, PANEL)  # the panel's routes are in the table
    calls, compiled = record_log_lengths(monkeypatch)
    assert met.detect_limit(seq, PANEL, 1e-3, base_point=X222).kind == "boundary"
    # nothing compiled; the base point once, then each of the last two points
    assert calls == [X222, seq[-2], seq[-1]]
    assert compiled == []


def test_detect_limit_needs_two_points():
    with pytest.raises(DomainError):
        met.detect_limit([X222], PANEL)


def test_metric_inputs_without_a_value_are_typed_errors():
    with pytest.raises(DomainError, match="points live on different surfaces"):
        met.arc_metric(X222, geo.torus_point(1.0, 0.0, 2.0), PANEL)
    with pytest.raises(DomainError, match="panel is empty"):
        met.thurston_vector(X222, Panel(S, 0, ()))
    zero = lam.rational_lamination(S, {})
    with pytest.raises(DomainError, match="needs a nonzero lamination"):
        met.boundary_horofunction(zero, X222, PANEL)
    # a class without a length is refused even where mu misses it
    loop = Panel(S, 0, (CurveClass("loop", "l1"), *PANEL.entries))
    mu = lam.rational_lamination(S, {S.arc_alias("a33"): 1.0})
    assert lam.intersection_number(mu, loop.entries[0]) == 0
    with pytest.raises(UnsupportedClassError, match="unknown curve kind 'loop'"):
        met.boundary_horofunction(mu, X222, loop)
