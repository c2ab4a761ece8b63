"""Log lengths end to end, against 50-digit mpmath in log space.

Plan vectors, the arc metric and both horofunctions carry log lengths, so
they stay finite where a length leaves the doubles: an arc of length about
e^(-l/4) at a cuff l = 10^5, a path to t = 50 on which a leaf decays like
e^(-e^50), a torus slope across a decayed C1.  Each value here is compared
with the mpmath closed forms of tests/mp_reference.py (and the torus trace
references of perfbench/checks.py), evaluated in arbitrary-exponent mpf.
"""

import importlib.util
import json
import math
import random
from pathlib import Path

import mpmath as mp
import pytest

from arcmetric import asymptotics as asy
from arcmetric import cli
from arcmetric import geometry as geo
from arcmetric import lamination as lam
from arcmetric import metric as met
from arcmetric.errors import DomainError
from arcmetric.topology import ArcClass, enumerate_panel
from mp_reference import mp_arc_distinct, mp_arc_same, mp_pants_lengths

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_checks",
                                               ROOT / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

S = geo.pants_surface()
PANEL = enumerate_panel(S, 0)
A33 = S.arc_alias("a33")
TOL = 1e-12  # every log length and value: within TOL * max(1, |value|)


def mp_lengths(lengths, entries):
    """Label -> mpf length of each entry, from label -> mpf coordinate."""
    out = {}
    for e in entries:
        if isinstance(e, ArcClass):
            kind, a, b, c = e.pattern
            arc = mp_arc_same if kind == "same" else mp_arc_distinct
            out[str(e)] = arc(lengths[a], lengths[b], lengths[c])
        else:
            out[str(e)] = lengths[e.label]
    return out


def pants_ref(X):
    return mp_pants_lengths(*(v for _, v in X.boundary))


def assert_close(got, want, tol=TOL):
    assert abs(got - want) <= tol * max(1, abs(want)), (got, float(want))


def mp_sup(num, den):
    """log max of num/den over the labels of num (mpf values)."""
    return max(mp.log(v) - mp.log(den[k]) for k, v in num.items())


def test_pants_points_match_mpmath_in_log_space():
    # random pairs and probes with cuffs log-uniform in [1e-3, 1e5]: the
    # shortest arcs are far below the doubles there, about e^(-25000)
    rng = random.Random(1411)

    def point():
        return geo.pants_point(*(math.exp(rng.uniform(math.log(1e-3), math.log(1e5)))
                                 for _ in range(3)))

    with mp.workdps(50):
        for _ in range(60):
            X, Y, Z = point(), point(), point()
            refs = {P: pants_ref(P) for P in (X, Y, Z)}
            for P, ref in refs.items():
                for got, label in zip(geo.log_lengths(S, PANEL.entries, P),
                                      PANEL.labels()):
                    assert_close(got, mp.log(ref[label]))
            assert_close(met.arc_metric(X, Y, PANEL).value, mp_sup(refs[Y], refs[X]))
            assert_close(met.arc_metric(Y, X, PANEL).value, mp_sup(refs[X], refs[Y]))
            h = met.interior_horofunction(Y, X, PANEL)
            assert_close(met.horofunction_eval(h, Z),
                         mp_sup(refs[Y], refs[Z]) - mp_sup(refs[Y], refs[X]))
            arc = rng.choice(S.pants_arcs())
            mu = lam.rational_lamination(S, {arc: rng.uniform(0.5, 2.0)})
            ivals = {str(e): mp.mpf(lam.intersection_number(mu, e)) for e in PANEL}
            crossed = {k: v for k, v in ivals.items() if v > 0}
            h = met.boundary_horofunction(mu, X, PANEL)
            assert_close(met.horofunction_eval(h, Z),
                         mp_sup(crossed, refs[Z]) - mp_sup(crossed, refs[X]))


@pytest.mark.parametrize("cuffs", [(1.7e308,) * 3, (1.7e308, 1e-3, 1.7e308),
                                   (1e-300, 1.7e308, 1.7e308), (1e308, 3e307, 1.0)])
def test_pants_log_lengths_at_the_ends_of_the_doubles(cuffs):
    # cuffs near DBL_MAX, where a sum of log cosh terms would overflow and a
    # difference of two cuffs needs 700 digits in the reference
    X = geo.pants_point(*cuffs)
    with mp.workdps(700):
        ref = mp_pants_lengths(*cuffs)
        for got, label in zip(geo.log_lengths(S, PANEL.entries, X), PANEL.labels()):
            assert_close(got, mp.log(ref[label]))


def mp_path_lengths(spec, t):
    """Label -> mpf coordinate length of the path at t."""
    chi, t = asy.abs_double_chi(spec.mu.surface), mp.mpf(t)
    out = dict.fromkeys(spec.mu.surface.punctures, mp.mpf(0))
    for label, (kind, param) in spec.regimes:
        out[label] = {"grow": lambda: mp.e ** t * param,
                      "decay": lambda: 3 * chi / mp.sinh(mp.e ** t * param / 2),
                      "hold": lambda: mp.mpf(param)}[kind]()
    return out


def config_path(name):
    golden = ROOT / "tests" / "golden" / "configs" / f"{name}.json"
    return golden if golden.exists() else ROOT / "demos" / "configs" / f"{name}.json"


@pytest.mark.parametrize("config", ["demo_horo_pants", "S_0_0_4"])
def test_paths_to_t50_match_mpmath_in_log_space(config):
    # the pants a33 path from (1, 1, 2), where a(B3;B1,B2) reaches about
    # e^(-e^50 / 2); and an S_{0,0,4} path driven by a(B1;B2,C1) and the
    # boundary leaf B4, whose length decays to about e^(-e^50 / 4)
    data = json.loads(config_path(config).read_text())
    data["grid"] = [0.5 * k for k in range(101)]
    surface, base, mu, grid, panel = cli._experiment_inputs(asy, data)
    spec = asy.PathSpec(mu, base, grid)
    probes = [geo.fn_from_dict(surface, p) for p in data["probes"]]
    with mp.workdps(50):
        for t, logs in zip(spec.grid, asy._walk(spec, surface, panel.entries)):
            ref = mp_lengths(mp_path_lengths(spec, t), panel)
            for got, label in zip(logs, panel.labels()):
                assert_close(got, mp.log(ref[label]))
    assert spec.grid[-1] == 50.0
    for series in (asy.boundary_convergence(spec, panel).series,
                   asy.horo_convergence(spec, probes, panel)):
        assert [t for t, _ in series] == list(spec.grid)
        assert all(math.isfinite(v) for _, v in series)


def test_torus_c1_path_distance_is_read_from_the_walk():
    # C1 decays from X = (1, 0.3, 1) as 6 / sinh(e^t / 2): by t = 8 it is
    # below the doubles, so X_t exists only as log lengths inside the walk,
    # and d(X_t, X) = max(log l(X) - log l(X_t)) over panel 3 is read there
    T = geo.torus_surface()
    X = geo.torus_point(1.0, 0.3, 1.0)
    panel = enumerate_panel(T, 3)
    mu = lam.rational_lamination(T, {T.curve_class("C1"): 1.0})
    spec = asy.make_path_spec(mu, X, (0.0, 8.0, 10.0, 12.0))
    base = geo.log_lengths(T, panel.entries, X)
    distances = [met._log_sup_ratio(logs, base)[0]
                 for logs in asy._walk(spec, T, panel.entries)]
    with mp.workdps(60):
        ref_X = checks.TorusReference(1.0, 0.3, 1.0)
        for t, got in zip(spec.grid, distances):
            ref_t = checks.TorusReference(6 / mp.sinh(mp.e ** mp.mpf(t) / 2), 0.3, 1.0)
            want = max(mp.log(ref_X.length(lab)) - mp.log(ref_t.length(lab))
                       for lab in panel.labels())
            assert abs(got - want) <= 1e-9 * abs(want), (t, got, float(want))
    assert [round(d) for d in distances[1:]] == [1488, 11011, 81375]
    with pytest.raises(DomainError, match="length of C1"):
        asy.scaling_path(spec, 8.0)


def test_demo_boundary_pants_path_distances():
    # B3 = 2 e^t: d(X_8, X_16) is about 8 (B3 grows by e^8), and
    # d(X_8, X_0) about 1,490, set by a(B3;B1,B2) ~ e^(-B3/4) at X_8
    data = json.loads(config_path("demo_boundary_pants").read_text())
    _, base, mu, grid, panel = cli._experiment_inputs(asy, data)
    spec = asy.PathSpec(mu, base, grid)
    X0, X8, X16 = (asy.scaling_path(spec, t) for t in (0.0, 8.0, 16.0))
    with mp.workdps(50):
        for X, Y, approx in ((X8, X16, 8), (X8, X0, 1490)):
            d = met.arc_metric(X, Y, panel).value
            assert abs(d - mp_sup(pants_ref(Y), pants_ref(X))) <= 1e-9 * d
            assert round(d) == approx


def test_limits_against_a_base_with_a_crushed_class():
    # a(B3;B1,B2) is about e^(-750) at the base (1, 1, 3000): normalizing by
    # the sup of ratios against it is an ordinary difference of logs
    base = geo.pants_point(1.0, 1.0, 3000.0)
    spec = asy.make_path_spec(lam.rational_lamination(S, {A33: 1.0}),
                              geo.pants_point(1.0, 1.0, 2.0), (40.0, 50.0))
    points = [asy.scaling_path(spec, t) for t in spec.grid]
    with mp.workdps(50):
        ref, ref_base = pants_ref(points[-1]), pants_ref(base)
        sup = mp.e ** mp_sup(ref, ref_base)
        vec = met.normalized_length_vector(points[-1], base, PANEL)
        for got, label in zip(vec, PANEL.labels()):
            assert_close(got, ref[label] / sup)
    report = met.detect_limit(points, PANEL, base_point=base)
    ivec = [lam.intersection_number(spec.mu, e) for e in PANEL]
    assert report.kind == "boundary"
    for got, i in zip(report.projective_vector, ivec):
        assert abs(got - i / max(ivec)) <= 1e-12
