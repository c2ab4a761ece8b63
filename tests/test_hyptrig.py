"""Kernel tests: pants arc formulas against frozen oracle values, the
intersection case formulas, and the elementary estimates that back the
asymptotic bounds."""

import math
import random
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcmetric import hyptrig as ht
from arcmetric.errors import DomainError
from mp_reference import mp_arc_distinct, mp_arc_same

# Frozen from the axis-distance oracle (explicit right-angled-hexagon gluing,
# holonomy fixed points, endpoint cross-ratio), cross-checked against 40-digit
# evaluation of the closed forms.  The formulas and the oracle are independent
# code paths; see test_geometry for the live agreement sweep.
SAME_222 = 3.612225999682252
DIST_222 = 1.704912832358014
DIST_444 = 0.827136901638557
DIST_220 = 1.543873665810609


def test_same_boundary_frozen_value():
    assert ht.arc_length_same_boundary(2, 2, 2) == pytest.approx(SAME_222, abs=1e-12)


def test_same_boundary_symmetric_in_gammas():
    assert ht.arc_length_same_boundary(2, 3, 5) == ht.arc_length_same_boundary(2, 5, 3)


def test_same_boundary_monotone_in_gamma():
    assert ht.arc_length_same_boundary(2, 4, 2) > ht.arc_length_same_boundary(2, 2, 2)


def test_distinct_boundaries_frozen_values():
    assert ht.arc_length_distinct_boundaries(2, 2, 2) == pytest.approx(DIST_222, abs=1e-12)
    assert ht.arc_length_distinct_boundaries(4, 4, 4) == pytest.approx(DIST_444, abs=1e-12)


def test_distinct_boundaries_cusp_limit():
    # lg = 0 forces cosh(lg/2) = 1: closed form arccosh((1+cosh^2(1))/sinh^2(1))
    expected = math.acosh((1 + math.cosh(1) ** 2) / math.sinh(1) ** 2)
    got = ht.arc_length_distinct_boundaries(2, 2, 0)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(DIST_220, abs=1e-12)


def test_cusp_endpoint_rejected():
    with pytest.raises(DomainError):
        ht.arc_length_same_boundary(0.0, 1, 1)
    with pytest.raises(DomainError):
        ht.arc_length_distinct_boundaries(0.0, 2, 1)
    with pytest.raises(DomainError):
        ht.arc_length_distinct_boundaries(2, 0.0, 1)


def test_bad_inputs_rejected():
    with pytest.raises(DomainError):
        ht.arc_length_same_boundary(2, -1, 1)
    with pytest.raises(DomainError):
        ht.arc_length_distinct_boundaries(2, 2, float("nan"))
    with pytest.raises(DomainError):
        ht.arc_length_same_boundary(float("inf"), 1, 1)


def test_log_space_matches_direct_evaluation():
    # moderate inputs: the log-space route must agree with plain doubles
    for args in [(2, 2, 2), (0.5, 1.5, 3.0), (6, 0.1, 4)]:
        lb, g1, g2 = args
        num = (-1 + math.cosh(lb / 2) ** 2 + math.cosh(g1 / 2) ** 2
               + math.cosh(g2 / 2) ** 2
               + 2 * math.cosh(lb / 2) * math.cosh(g1 / 2) * math.cosh(g2 / 2))
        direct = 2 * math.acosh(math.sqrt(num) / math.sinh(lb / 2))
        assert ht.arc_length_same_boundary(*args) == pytest.approx(direct, rel=1e-13)


def test_pants_formulas_match_mpmath_on_the_stated_domain():
    # README: 1e-12 relative for cuffs in [1e-8, 1e3], cusps where allowed
    rng = random.Random(1411)

    def cuff(cusp_ok):
        if cusp_ok and rng.random() < 0.1:
            return 0.0
        return math.exp(rng.uniform(math.log(1e-8), math.log(1e3)))

    worst = 0.0
    with mp.workdps(50):
        for _ in range(2000):
            same = cuff(False), cuff(True), cuff(True)
            distinct = cuff(False), cuff(False), cuff(True)
            for got, ref in ((ht.arc_length_same_boundary(*same),
                              mp_arc_same(*same)),
                             (ht.arc_length_distinct_boundaries(*distinct),
                              mp_arc_distinct(*distinct))):
                worst = max(worst, float(abs(got - ref) / ref))
    assert worst < 1e-12


def test_huge_arguments_stay_finite():
    # boundary length 2e^10 would overflow cosh; log-space keeps it exact
    val = ht.arc_length_distinct_boundaries(1.0, 1.0, 2 * math.exp(10))
    assert val == pytest.approx(math.exp(10) - 2 * math.log(math.sinh(0.5)),
                                abs=1e-6)
    with pytest.raises(DomainError, match=r"got e\^-"):  # about e^-22026
        ht.arc_length_same_boundary(2 * math.exp(10), 1.0, 1.0)


def test_wrappers_refuse_arcs_below_the_normal_doubles():
    # the arc is about e^-748.5: a 0.0 would be a length the point does not have
    with pytest.raises(DomainError, match=r"got e\^-748\.49"):
        ht.arc_length_same_boundary(3000.0, 1.0, 1.0)
    with pytest.raises(DomainError, match=r"got e\^-"):
        ht.arc_length_distinct_boundaries(3000.0, 3000.0, 1.0)


def test_denormal_cuffs_and_leaf_weights():
    # lb / 2 rounds to 0.0; log sinh(lb / 2) is read from log lb (50-digit mpmath)
    assert ht.arc_length_same_boundary(5e-324, 1, 1) == pytest.approx(
        1493.2792559400386, rel=1e-14)
    assert ht.arc_length_distinct_boundaries(5e-324, 1, 1) == pytest.approx(
        747.2914502959665, rel=1e-14)
    assert ht.arc_length_distinct_boundaries(1, 5e-324, 1) == pytest.approx(
        747.2914502959665, rel=1e-14)
    # log 3 - log sinh(5e-324 / 2), and e^t omega / 2 below the doubles
    assert ht.leaf_decay_bound(5e-324, 0.0, 1) == pytest.approx(
        746.23183139060932, rel=1e-14)
    assert ht.leaf_decay_bound(1e-300, -100.0, 1) == pytest.approx(
        math.log(3.0) - (-100.0 + math.log(1e-300 / 2)), rel=1e-14)


def test_normal_cuffs_read_log_sinh_as_before():
    # the wrappers read log sinh(lb/2) as every length plan does, from log lb
    # below lb = 2e-8, and the leaf-decay denormal branch leaves normal inputs
    rng = random.Random(19)
    for _ in range(200):
        lb = math.exp(rng.uniform(math.log(4.5e-308), math.log(700.0)))  # lb/2 normal
        lg = math.exp(rng.uniform(math.log(1e-8), math.log(700.0)))
        sb = ht.log_sinh_half(lb, math.log(lb))
        same = ht.arc_same_from_logs(ht.log_cosh(lb / 2), sb,
                                     ht.log_cosh(lg / 2), ht.log_cosh(1.0))
        if same >= math.log(sys.float_info.min):
            assert ht.arc_length_same_boundary(lb, lg, 2.0) == math.exp(same)
        distinct = ht.arc_distinct_from_logs(lb, 1.0, ht.log_cosh(lg / 2), sb,
                                             ht.log_sinh(0.5))
        assert ht.arc_length_distinct_boundaries(lb, 1.0, lg) == math.exp(distinct)
        x = math.exp(0.5 + math.log(lb / 2))  # lb as a leaf weight
        assert ht.leaf_decay_bound(lb, 0.5, 2) == math.log(6.0) - ht.log_sinh(x)


# -- intersection cases ---------------------------------------------------------


def test_intersection_same_cases():
    assert ht.intersection_arc_same(4, 3, 2, 0.0) == 0.5          # triangle case
    assert ht.intersection_arc_same(10, 3, 2, 0.0) == 0.0         # dominant beta
    assert ht.intersection_arc_same(1, 5, 2, 0.0) == 4.0          # dominant gamma


def test_intersection_same_sorts_gammas():
    assert ht.intersection_arc_same(1, 2, 5, 0.0) == ht.intersection_arc_same(1, 5, 2, 0.0)


def test_intersection_distinct_cases():
    assert ht.intersection_arc_distinct(0, 0, 2) == 1.0            # gamma dominant
    assert ht.intersection_arc_distinct(1, 1, 1) == 0.0            # triangle case
    assert ht.intersection_arc_distinct(0, 0, 0, 1.0, 1.0) == 1.0  # boundary-leaf case


def test_invariant_leaf_disjoint_from_support():
    with pytest.raises(DomainError):
        ht.intersection_arc_same(1.0, 0, 0, w_beta=1.0)
    with pytest.raises(DomainError):
        ht.intersection_arc_distinct(1.0, 0, 0, w_beta1=0.5)


@given(st.integers(0, 3200), st.integers(0, 3200))
@settings(max_examples=200, deadline=None)
def test_same_case_seam_continuity(beta64, g64):
    """On the seam i(gamma1) = i(beta) + i(gamma2) the dominant-gamma and
    triangle formulas agree exactly; dyadic inputs keep the float arithmetic
    exact so the identity holds bit for bit."""
    beta, g2 = beta64 / 64.0, g64 / 64.0
    g1 = beta + g2
    triangle = 0.5 * (g1 + g2 - beta)
    dominant = g1 - beta
    assert triangle == dominant
    assert ht.intersection_arc_same(beta, g1, g2) == triangle


@given(st.floats(0.01, 50), st.floats(0, 50), st.floats(0, 50))
@settings(max_examples=200, deadline=None)
def test_same_case_beta_seam_continuity(g1, g2, w):
    """On the seam i(beta) = i(gamma1) + i(gamma2) with positive beta the
    triangle value vanishes, matching the zero case (the invariant forces
    w_beta = 0 there)."""
    beta = g1 + g2
    assert ht.intersection_arc_same(beta, g1, g2, 0.0) == 0.0


# -- decay bound -----------------------------------------------------------------


def test_leaf_decay_bound_values():
    # the envelope is returned as its log
    assert math.exp(ht.leaf_decay_bound(1.0, 0.0, 2)) == pytest.approx(
        6 / math.sinh(0.5), rel=1e-12)
    # 6/sinh(e^3) = 2.2706e-8
    assert math.exp(ht.leaf_decay_bound(2.0, 3.0, 2)) == pytest.approx(
        2.270614434e-8, rel=1e-8)


def test_leaf_decay_bound_monotone():
    for omega in (0.5, 1.0, 2.0):
        for t in (0.0, 0.5, 1.5, 3.0):
            assert ht.leaf_decay_bound(omega, t + 1, 2) < ht.leaf_decay_bound(omega, t, 2)
    assert ht.leaf_decay_bound(2.0, 1.0, 2) < ht.leaf_decay_bound(1.0, 1.0, 2)


def test_leaf_decay_bound_domain():
    with pytest.raises(DomainError):
        ht.leaf_decay_bound(0.0, 1.0, 2)
    with pytest.raises(DomainError):
        ht.leaf_decay_bound(1.0, 1.0, 0)


# -- elementary estimates guarding the asymptotics constants ----------------------


_ULP = 1e-12  # slack for last-place rounding where the bounds are tight


@given(st.floats(0, 20))
@settings(max_examples=300, deadline=None)
def test_cosh_exponential_bounds(x):
    assert 0.5 * math.exp(x) * (1 - _ULP) <= math.cosh(x) <= math.exp(x)
    assert 0.25 * math.exp(2 * x) * (1 - _ULP) <= math.cosh(x) ** 2 \
        <= math.exp(2 * x)


@given(st.floats(0.2, 20), st.floats(0.01, 0.19))
@settings(max_examples=300, deadline=None)
def test_sinh_exponential_bounds(x, a):
    # for x > A > 0: (1 - e^{-2A}) e^x / 2 <= sinh x <= e^x / 2
    assert x > a
    assert 0.5 * (1 - math.exp(-2 * a)) * math.exp(x) <= math.sinh(x)
    assert math.sinh(x) <= 0.5 * math.exp(x) * (1 + _ULP)


@given(st.floats(1e-6, 1 - 1e-9))
@settings(max_examples=300, deadline=None)
def test_sinh_linear_bounds(x):
    assert x < math.sinh(x) < 2 * x


@given(st.floats(0.35, 30))
@settings(max_examples=300, deadline=None)
def test_inverse_sinh_exponential_bound(x):
    # 1/sinh(x) <= 4 e^{-x} holds from x = ln(2)/2 on; this guards the
    # constants in the decay estimates, which apply at large arguments
    assert 1.0 / math.sinh(x) <= 4.0 * math.exp(-x)
