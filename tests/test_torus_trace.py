"""Torus slope lengths from the log-space trace descent (hyptrig), against the
mpmath trace references of perfbench/checks.py, which share no code with it.

The references run at 60 + 3 (lC + |tau| + lB) digits: the perpendicular d
is about e^(-lC/2), and the descent cancels more digits the larger the twist,
so a fixed 50 digits is not enough on long cuffs.
"""

import importlib.util
import math
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcmetric import asymptotics as asy
from arcmetric import geometry as geo
from arcmetric import hyptrig as ht
from arcmetric import lamination as lam
from arcmetric.errors import DomainError
from arcmetric.topology import CurveClass, enumerate_panel

_CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

TORUS = geo.torus_surface()
PANELS = {n: enumerate_panel(TORUS, n) for n in (3, 6)}

log_cuffs = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)  # [1e-3, 1e3]


def slope_length(lC, tau, lB, p, q):
    """The length of the slope (p, q), through the log lengths the trace
    descent reads and returns."""
    return math.exp(ht.torus_slope_length(math.log(lC), tau, math.log(lB), p, q))


def measured(lC, tau, lB, entries):
    """(class_length or its DomainError, relative error or None, mpmath
    length) for each entry at the torus point (lC, tau, lB)."""
    X = geo.torus_point(lC, tau, lB)
    rows = []
    with mp.workdps(int(60 + 3 * (lC + abs(tau) + lB))):
        ref = checks.TorusReference(lC, tau, lB)
        for entry in entries:
            want = ref.length(entry.label)
            try:
                got = geo.class_length(X, entry)
            except DomainError as exc:
                rows.append((exc, None, float(want)))
                continue
            rows.append((got, float(abs(got - want) / want), float(want)))
    return rows


@settings(max_examples=20, deadline=None)
@given(log_cuffs, st.floats(-2.0, 2.0), log_cuffs, st.sampled_from([3, 6]))
def test_small_twist_panels_match_mpmath(lC, tau, lB, n):
    for got, rel, want in measured(lC, tau, lB, PANELS[n].entries):
        assert not isinstance(got, DomainError), got
        assert rel <= 1e-11, (got, want)


@settings(max_examples=20, deadline=None)
@given(log_cuffs, st.floats(-50.0, 50.0), log_cuffs, st.sampled_from([3, 6]))
def test_large_twist_panels_match_mpmath_or_raise(lC, tau, lB, n):
    # the descent cancels at large twists: a length within 1e-9, or a
    # DomainError, never a raw exception or a NaN
    for got, rel, want in measured(lC, tau, lB, PANELS[n].entries):
        if not isinstance(got, DomainError):
            assert math.isfinite(got) and rel <= 1e-9, (got, want)


@pytest.mark.parametrize("point, slope", [
    ((451.5, 42.2, 27.5), (-1, 2)),  # unguarded: ValueError from log1p
    ((145.1, 26.3, 12.5), (-1, 5)),  # unguarded: 10 times the length
    ((47.195259671440105, -31.51540704207608, 23.106595617930335), (2, 3)),
])  # the last descends to log cosh(l/2) < 0
def test_guard_refuses_cancelled_descents(point, slope):
    with pytest.raises(DomainError, match="not resolved"):
        slope_length(*point, *slope)


@settings(max_examples=25, deadline=None)
@given(log_cuffs, st.floats(-50.0, 50.0), log_cuffs)
@example(1.0, 5e-324, 1.0)  # a denormal twist: s / 4 underflows to 0
def test_fricke_identity(lC, tau, lB):
    # x^2 + y^2 + z^2 - xyz = 2 - 2 cosh(lB/2) on the traces of C1, w(0,1)
    # and w(1,1): the boundary as the commutator of the handle
    X = geo.torus_point(lC, tau, lB)
    l01, l11 = (geo.class_length(X, lam.class_from_id(TORUS, w))
                for w in ("w(0,1)", "w(1,1)"))
    assert checks.check_fricke(lC, lB, l01, l11) is None


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(-2.0, 2.0), st.floats(0.1, 10.0))
def test_dehn_twist_about_c1_shifts_slopes(lC, tau, lB):
    # the same curves under another marking: twisting by lC along C1 takes
    # the slope (p, q) to (p + q, q), and tau -> -tau mirrors (p, q) to (-p, q)
    for p, q in (e.slope for e in PANELS[6].entries
                 if isinstance(e, CurveClass) and e.kind == "word"):
        length = slope_length(lC, tau, lB, p, q)
        assert slope_length(lC, tau - lC, lB, p + q, q) \
            == pytest.approx(length, rel=1e-9)
        assert slope_length(lC, -tau, lB, -p, q) \
            == pytest.approx(length, rel=1e-12)
        assert slope_length(lC, tau, lB, -p, -q) == length


@pytest.mark.parametrize("n", [3, 6])
def test_boundary_limit_on_word_panels_reaches_t10(n):
    # C1 = e^t on this path, and w(0,1) is the perpendicular d between the
    # copies of C1, about 5 e^(-e^t / 2): 0.0 in doubles from t = 7.5 on
    w01 = lam.class_from_id(TORUS, "w(0,1)")
    spec = asy.make_path_spec(lam.rational_lamination(TORUS, {w01: 1.0}),
                              geo.torus_point(1.0, 0.0, 2.0))
    series = asy.boundary_convergence(spec, PANELS[n]).series
    assert [t for t, _ in series] == list(asy.DEFAULT_GRID)
    assert series[-1][1] <= 1e-4


def test_slope_edge_cases():
    # the slope (1, 0) is C1 itself, read exactly; a slope is primitive
    assert slope_length(1, 0.3, 2, 1, 0) == 1.0
    with pytest.raises(DomainError, match=r"slope \(2,2\) is not primitive"):
        slope_length(1, 0.3, 2, 2, 2)
