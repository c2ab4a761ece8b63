"""Hyperbolic trigonometry of a pair of pants.

Closed-form lengths of the two kinds of orthogeodesic arcs in a hyperbolic
pair of pants with geodesic boundary, the lengths of the slope curves of the
one-holed torus glued from one, the piecewise-linear intersection numbers of
a measured lamination with those arcs, and the decay envelope for a boundary
leaf along exponential scaling paths.

The formula cores and torus_slope_length return log lengths and read log
sinh terms from log lengths: a length off the doubles (an arc of e^(-25000)
at a cuff of 10^5) is a finite log.  A cusp is a boundary of length zero;
the formulas degrade continuously to it via cosh(0) = 1.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

_LN2 = math.log(2.0)
_EPS = sys.float_info.epsilon
_DBL_MIN = sys.float_info.min
# e^x is a normal double for x in this range
_LOG_MIN, _LOG_MAX = math.log(_DBL_MIN), math.log(sys.float_info.max)
_SLOPE_RTOL = 1e-10  # a torus slope length with a larger error bound raises


def _check_finite(name, x):
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")


def log_cosh(x: float) -> float:
    """log(cosh(x)), safe for large |x|."""
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - _LN2


def log_sinh(x: float) -> float:
    """log(sinh(x)) for x > 0, safe for large and for denormal-small x."""
    return x + math.log(-math.expm1(-2.0 * x)) - _LN2


def log_sinh_half(length: float, log_length: float) -> float:
    """log(sinh(l/2)) from l > 0 and log l, which it reads below 2e-8."""
    return log_length - _LN2 if length < 2e-8 else log_sinh(length / 2)


def _log_half(x: float) -> float:
    """log(x/2) for x > 0, read from log x where x/2 is not a normal double."""
    return math.log(x / 2) if x / 2 >= _DBL_MIN else math.log(x) - _LN2


def _length_from_log(what, log_length: float) -> float:
    """e^log_length, or a DomainError naming what: never 0.0, a denormal or inf."""
    if not _LOG_MIN <= log_length <= _LOG_MAX:
        raise DomainError(f"length of {what} must be positive and finite in "
                          f"double precision, got e^{log_length!r}")
    return math.exp(log_length)


def _log_2asinh_of_exp(x: float) -> float:
    """log(2 asinh(e^x)), for x anywhere in the double range."""
    if x < -20.0:  # asinh(y) = y (1 - y^2/6 + ...): off by < 1e-18
        return _LN2 + x
    if x > 33.0:  # asinh(y) = log(2y) + 1/(4y^2) - ...: below 1e-29
        return _LN2 + math.log(x + _LN2)
    return _LN2 + math.log(math.asinh(math.exp(x)))


def arc_length_same_boundary(lb: float, lg1: float, lg2: float) -> float:
    """Length of the arc from a boundary of length lb back to itself,
    separating the other two (lengths lg1, lg2; either may be 0 for a cusp).
    Its relation cosh^2(l/2) = (-1 + cosh^2(lb/2) + cosh^2(lg1/2) +
    cosh^2(lg2/2) + 2 cosh(lb/2) cosh(lg1/2) cosh(lg2/2)) / sinh^2(lb/2) is
    evaluated in log space through the cancellation-free

        sinh^2(l/2) = (cosh^2(lg1/2) + cosh^2(lg2/2)
                       + 2 cosh(lb/2) cosh(lg1/2) cosh(lg2/2)) / sinh^2(lb/2),

    so near-degenerate and overflow-scale inputs stay exact.
    """
    for name, v in (("lb", lb), ("lg1", lg1), ("lg2", lg2)):
        _check_finite(name, v)
        if v < 0:
            raise DomainError(f"{name} must be nonnegative, got {v}")
    if lb == 0:
        raise DomainError("arc from a cusp is undefined (lb = 0)")
    return _length_from_log("the arc", arc_same_from_logs(
        log_cosh(lb / 2), log_sinh_half(lb, math.log(lb)),
        log_cosh(lg1 / 2), log_cosh(lg2 / 2)))


def arc_same_from_logs(cb, sb, c1, c2) -> float:
    """Log length of arc_length_same_boundary from unchecked log terms: cb,
    sb of lb/2 (log cosh, log sinh), and c1, c2 log cosh of lg1/2, lg2/2."""
    if c1 < c2:
        c1, c2 = c2, c1  # bit-stable symmetry in the gamma sides
    # terms over sinh^2(lb/2) stay doubles; c1, the larger, cancels cb - 2 sb
    x, y, z = 2 * c1 - 2 * sb, 2 * c2 - 2 * sb, (cb - 2 * sb) + c1 + c2 + _LN2
    m = max(x, y, z)  # log-sum-exp, summed left to right
    le = m + math.log(math.exp(x - m) + math.exp(y - m) + math.exp(z - m))
    return _log_2asinh_of_exp(le / 2.0)


def arc_length_distinct_boundaries(lb1: float, lb2: float, lg: float) -> float:
    """Length of the arc joining boundaries of lengths lb1 and lb2, the
    third of length lg (0 for a cusp).  Its relation cosh(l) = (cosh(lg/2) +
    cosh(lb1/2) cosh(lb2/2)) / (sinh(lb1/2) sinh(lb2/2)) is evaluated in log
    space through the cancellation-free

        sinh^2(l/2) = (cosh(lg/2) + cosh((lb1 - lb2)/2))
                      / (2 sinh(lb1/2) sinh(lb2/2)).
    """
    for name, v in (("lb1", lb1), ("lb2", lb2), ("lg", lg)):
        _check_finite(name, v)
        if v < 0:
            raise DomainError(f"{name} must be nonnegative, got {v}")
    if lb1 == 0 or lb2 == 0:
        raise DomainError("arc endpoint on a cusp is undefined (lb = 0)")
    return _length_from_log("the arc", arc_distinct_from_logs(
        lb1, lb2, log_cosh(lg / 2), log_sinh_half(lb1, math.log(lb1)),
        log_sinh_half(lb2, math.log(lb2))))


def arc_distinct_from_logs(lb1, lb2, cg, s1, s2) -> float:
    """Log length of arc_length_distinct_boundaries from unchecked terms: the
    lengths lb1, lb2 (an underflowed one may be 0.0), cg log cosh of lg/2,
    and s1, s2 log sinh of lb1/2 and lb2/2."""
    if lb1 < lb2:
        lb1, lb2, s1, s2 = lb2, lb1, s2, s1  # lb1 the longer side
    d = (lb1 - lb2) / 2
    # log cosh(d) - s1 = -lb2/2 + log1p(e^-2d) - log(1 - e^-lb1) does not
    # cancel lb1/2 against itself: at lb1 = 1e22, lb2 = 1 it keeps the -1/2
    cd = (math.log1p(math.exp(-2 * d)) - lb2 / 2 - math.log(-math.expm1(-lb1))
          if lb1 >= 2e-8 else log_cosh(d) - s1)
    x = cg - s1
    m = max(x, cd)
    le = m + math.log(math.exp(x - m) + math.exp(cd - m)) - _LN2 - s2
    return _log_2asinh_of_exp(le / 2.0)


def _log_cosh_rel(x: float) -> float:
    """log(cosh(x)) to a few ulps of its value, also for small x."""
    return math.log1p(2.0 * math.sinh(x / 2) ** 2) if abs(x) < 1 else log_cosh(x)


def torus_slope_length(log_lC: float, tau: float, log_lB: float, p: int,
                       q: int) -> float:
    """Log length of the slope-(p, q) curve on the one-holed torus whose curve
    C1 = (1, 0) has log length log_lC and twist tau, and whose boundary has
    log length log_lB.

    Works on c = log cosh(l/2) = log(trace/2).  With d the perpendicular
    between the copies of C1, a slope (k, 1) has
    c = log cosh(d/2) + log cosh((tau + k lC)/2); a slope in (n, n+1) follows
    by Stern-Brocot descent from (n, 1) and (n+1, 1) on tr(u+v) =
    tr(u) tr(v) - tr(u-v), in logs c(u+v) = c(u) + c(v) + log 2 +
    log1p(-e^delta), delta = c(u-v) - c(u) - c(v) - log 2.  Each c carries a
    bound on its absolute error, divided by 1 - e^delta in each step (the
    descent cancels at large twists); a length whose relative error bound
    exceeds 1e-10 is a DomainError.  d reads log sinh(lC/2) from log_lC and a
    short slope (k, 1) is summed in logs, so an underflowed length is kept."""
    for name, v in (("log_lC", log_lC), ("tau", tau), ("log_lB", log_lB)):
        _check_finite(name, v)
    if math.gcd(p, q) != 1:
        raise DomainError(f"slope ({p},{q}) is not primitive")
    p, q = (-p, -q) if q < 0 or (q == 0 and p < 0) else (p, q)
    if q == 0:
        return log_lC
    lC, lB = math.exp(log_lC), math.exp(log_lB)
    sC = log_sinh_half(lC, log_lC)
    log_d = arc_distinct_from_logs(lC, lC, log_cosh(lB / 2), sC, sC)
    d = math.exp(log_d)
    cd = _log_cosh_rel(d / 2)
    # d = 2 asinh(e^(x/2)) holds the rounding of x, at most
    # eps (3 lC + 2 lB + 8), damped by d(cd)/dx = tanh^2(d/2)/2 <= min(cd, 1/2)
    ecd = _EPS * ((3 * lC + 2 * lB + 8) * min(cd, 0.5) + 4 * cd)

    def closed(k):  # c of the slope (k, 1) and its error bound
        s = tau + k * lC  # rounded by at most eps (|tau| + 2 |k lC|) / 2
        c = cd + _log_cosh_rel(s / 2)
        return c, ecd + _EPS * (4 * c + math.tanh(abs(s) / 2)
                                * (abs(tau) + 2 * abs(k * lC)) / 4)

    n = p // q
    if not -sys.float_info.max <= n < sys.float_info.max:  # closed reads n + 1
        raise DomainError(f"slope ({p},{q}): p // q is past the double range")
    a, b, m = (n, 1), (n + 1, 1), (n, 1)
    (ca, ea), (cb, eb) = closed(n), closed(n + 1)
    cw = _log_cosh_rel(lC / 2)  # C1 = b - a
    c, e, ew = ca, ea, 4 * _EPS * cw
    while m != (p, q):
        m = (a[0] + b[0], a[1] + b[1])
        delta = cw - ca - cb - _LN2
        if delta >= 0.0:  # cancels completely
            e = math.inf
            break
        g = -math.expm1(delta)  # 1 - e^delta
        c = ca + cb + _LN2 + (math.log(g) if delta > -_LN2
                              else math.log1p(-math.exp(delta)))
        e = (ea + eb + (1 - g) * ew
             + 2 * _EPS * (abs(ca) + abs(cb) + abs(cw) + 1)) / g
        if p * m[1] < m[0] * q:  # p/q left of the mediant: into (a, m)
            b, cb, eb, cw, ew = m, c, e, cb, eb
        else:  # into (m, b)
            a, ca, ea, cw, ew = m, c, e, ca, ea
    if q == 1 and c < 1.0:  # c may underflow: cosh(l/2) - 1 by parts, in logs,
        s = tau + p * lC  # sinh^2(l/4) = sinh^2(d/4) cosh(s/2) + sinh^2(s/4)
        x = 2 * log_sinh_half(d / 2, log_d - _LN2) + _log_cosh_rel(s / 2)
        y = (2 * log_sinh_half(abs(s) / 2, math.log(abs(s)) - _LN2)
             if s else -math.inf)  # reads log |s|: s / 4 may underflow
        top = max(x, y)
        log_length = _LN2 + _log_2asinh_of_exp(
            (top + math.log(math.exp(x - top) + math.exp(y - top))) / 2)
        length = math.exp(log_length)
        r = math.tanh(length / 2)
    else:
        r = math.sqrt(-math.expm1(-2 * c)) if c > 0 else 0.0  # else refused
        length = 2 * (c + math.log1p(r))
        log_length = math.log(length) if r else -math.inf
    if not 2 * e <= _SLOPE_RTOL * r * length:  # r = tanh(l/2), dl/dc = 2/r
        raise DomainError(f"slope ({p},{q}) at ({lC!r}, {tau!r}, {lB!r}): length "
                          f"not resolved to {_SLOPE_RTOL:g} in double precision")
    return log_length


# -- intersection of a measured lamination with a pants-local arc -----------


def _check_side(i, w, name):
    _check_finite(f"i_{name}", i)
    _check_finite(f"w_{name}", w)
    if i < 0 or w < 0:
        raise DomainError(f"side {name}: intersection and weight must be >= 0")
    if i > 0 and w > 0:
        raise DomainError(
            f"side {name}: a boundary leaf (w > 0) is disjoint from the rest "
            f"of its lamination, so i > 0 and w > 0 cannot both hold"
        )


def intersection_arc_same(i_beta, i_gamma1, i_gamma2, w_beta=0.0) -> float:
    """i(mu, arc) for the arc from beta to itself separating gamma1, gamma2.

    Case split on the triple of boundary intersection numbers; the index
    convention i(mu, gamma1) >= i(mu, gamma2) is enforced by sorting, and
    the three regimes agree on their common boundaries.
    """
    _check_side(i_beta, w_beta, "beta")
    _check_side(i_gamma1, 0.0, "gamma1")
    _check_side(i_gamma2, 0.0, "gamma2")
    g1, g2 = (i_gamma1, i_gamma2) if i_gamma1 >= i_gamma2 else (i_gamma2, i_gamma1)
    if i_beta > g1 + g2:
        return 0.0
    if g1 > i_beta + g2:
        return g1 - i_beta + w_beta
    return 0.5 * (g1 + g2 - i_beta) + w_beta


def intersection_arc_distinct(i_beta1, i_beta2, i_gamma,
                              w_beta1=0.0, w_beta2=0.0) -> float:
    """i(mu, arc) for the arc joining distinct boundaries beta1, beta2."""
    _check_side(i_beta1, w_beta1, "beta1")
    _check_side(i_beta2, w_beta2, "beta2")
    _check_side(i_gamma, 0.0, "gamma")
    b1, b2 = (i_beta1, i_beta2) if i_beta1 >= i_beta2 else (i_beta2, i_beta1)
    if i_gamma > b1 + b2:
        return 0.5 * (i_gamma - b1 - b2) + w_beta1 + w_beta2
    return 0.5 * (w_beta1 + w_beta2)


def leaf_decay_bound(omega: float, t: float, abs_chi: int) -> float:
    """log of the decay envelope 3*|chi| / sinh(e^t * omega / 2) of a boundary
    leaf, the log length of a decaying curve on a scaling path; strictly
    decreasing in t and omega, a DomainError where e^t * omega overflows."""
    _check_finite("omega", omega)
    _check_finite("t", t)
    if omega <= 0:
        raise DomainError("leaf weight omega must be positive")
    if abs_chi < 1:
        raise DomainError("|chi| must be at least 1")
    log_x = t + _log_half(omega)
    try:
        x = math.exp(log_x)
    except OverflowError:
        raise DomainError(f"e^t * omega / 2 overflows at t = {t!r}") from None
    # below the normal doubles sinh(x) = x to far below an ulp of log x
    return math.log(3.0 * abs_chi) - (log_sinh(x) if x >= _DBL_MIN else log_x)
