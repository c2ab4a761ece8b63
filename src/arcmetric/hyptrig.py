"""Hyperbolic trigonometry of a pair of pants.

Closed-form lengths of the two kinds of orthogeodesic arcs in a hyperbolic
pair of pants with geodesic boundary, the lengths of the slope curves of the
one-holed torus glued from one, the piecewise-linear intersection numbers of
a measured lamination with those arcs, and the decay envelope for a boundary
leaf along exponential scaling paths.

Lengths are evaluated in log space throughout, so boundary lengths of order
10^5 (cosh far beyond double range) are handled without overflow.  A cusp is
encoded as a boundary of length zero; the formulas degrade continuously to
that case via cosh(0) = 1.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

_LN2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)  # exp overflows beyond it
_EPS = sys.float_info.epsilon
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
    if x <= 0:
        raise DomainError("log_sinh needs a positive argument")
    if x < 1e-8:
        return math.log(x)  # sinh(x) = x (1 + x^2/6 + ...), correction < 1e-17
    return x + math.log1p(-math.exp(-2.0 * x)) - _LN2


def _asinh_of_exp(lx: float) -> float:
    """arcsinh(exp(lx)), stable for lx anywhere in the double range."""
    if lx > 33.0:
        # asinh(x) = log(2x) + 1/(4x^2) - ...; the correction is < 1e-29 here
        return lx + _LN2
    return math.asinh(math.exp(lx))  # underflow of exp gives a true 0 length


def arc_length_same_boundary(lb: float, lg1: float, lg2: float) -> float:
    """Length of the arc from a boundary of length lb back to itself.

    The arc separates the other two boundaries (lengths lg1, lg2; either may
    be 0 for a cusp) and satisfies

        cosh^2(l/2) = (-1 + cosh^2(lb/2) + cosh^2(lg1/2) + cosh^2(lg2/2)
                       + 2 cosh(lb/2) cosh(lg1/2) cosh(lg2/2)) / sinh^2(lb/2),

    evaluated through the cancellation-free equivalent

        sinh^2(l/2) = (cosh^2(lg1/2) + cosh^2(lg2/2)
                       + 2 cosh(lb/2) cosh(lg1/2) cosh(lg2/2)) / sinh^2(lb/2)

    in log space, so near-degenerate and overflow-scale inputs stay exact.
    """
    for name, v in (("lb", lb), ("lg1", lg1), ("lg2", lg2)):
        _check_finite(name, v)
        if v < 0:
            raise DomainError(f"{name} must be nonnegative, got {v}")
    if lb == 0:
        raise DomainError("arc from a cusp is undefined (lb = 0)")
    return arc_same_from_logs(lg1, lg2, log_cosh(lb / 2), log_sinh(lb / 2),
                              log_cosh(lg1 / 2), log_cosh(lg2 / 2))


def arc_same_from_logs(lg1, lg2, cb, sb, c1, c2) -> float:
    """arc_length_same_boundary from unchecked log terms: cb, sb are log cosh
    and log sinh of lb/2, and c1, c2 log cosh of lg1/2 and lg2/2."""
    if lg1 < lg2:
        c1, c2 = c2, c1  # bit-stable symmetry in the gamma sides
    x, y, z = 2 * c1, 2 * c2, _LN2 + cb + c1 + c2
    m = max(x, y, z)  # log-sum-exp, summed left to right
    le = m + math.log(math.exp(x - m) + math.exp(y - m) + math.exp(z - m)) - 2 * sb
    return 2.0 * _asinh_of_exp(le / 2.0)


def arc_length_distinct_boundaries(lb1: float, lb2: float, lg: float) -> float:
    """Length of the arc joining boundaries of lengths lb1 and lb2.

    The third boundary has length lg (0 for a cusp) and

        cosh(l) = (cosh(lg/2) + cosh(lb1/2) cosh(lb2/2))
                  / (sinh(lb1/2) sinh(lb2/2)),

    evaluated through the cancellation-free equivalent

        sinh^2(l/2) = (cosh(lg/2) + cosh((lb1 - lb2)/2))
                      / (2 sinh(lb1/2) sinh(lb2/2))

    in log space.
    """
    for name, v in (("lb1", lb1), ("lb2", lb2), ("lg", lg)):
        _check_finite(name, v)
        if v < 0:
            raise DomainError(f"{name} must be nonnegative, got {v}")
    if lb1 == 0 or lb2 == 0:
        raise DomainError("arc endpoint on a cusp is undefined (lb = 0)")
    return arc_distinct_from_logs(lb1, lb2, log_cosh(lg / 2), log_sinh(lb1 / 2),
                                  log_sinh(lb2 / 2))


def arc_distinct_from_logs(lb1, lb2, cg, s1, s2) -> float:
    """arc_length_distinct_boundaries from unchecked log terms: cg is log cosh
    of lg/2, and s1, s2 log sinh of lb1/2 and lb2/2."""
    cd = log_cosh((lb1 - lb2) / 2)
    m = max(cg, cd)
    le = m + math.log(math.exp(cg - m) + math.exp(cd - m)) - _LN2 - s1 - s2
    return 2.0 * _asinh_of_exp(le / 2.0)


def _log_cosh_rel(x: float) -> float:
    """log(cosh(x)) to a few ulps of its value, also for small x."""
    return math.log1p(2.0 * math.sinh(x / 2) ** 2) if abs(x) < 1 else log_cosh(x)


def torus_slope_length(lC: float, tau: float, lB: float, p: int, q: int) -> float:
    """Length of the slope-(p, q) curve on the one-holed torus whose curve
    C1 = (1, 0) has length lC and twist tau, and whose boundary has length lB.

    Works on c = log cosh(l/2) = log(trace/2).  With d the perpendicular
    arc_length_distinct_boundaries(lC, lC, lB), a slope (k, 1) has
    c = log cosh(d/2) + log cosh((tau + k lC)/2); a slope in (n, n+1) follows
    by Stern-Brocot descent from (n, 1) and (n+1, 1) on tr(u+v) =
    tr(u) tr(v) - tr(u-v), in logs c(u+v) = c(u) + c(v) + log 2 +
    log1p(-e^delta), delta = c(u-v) - c(u) - c(v) - log 2.  Each c carries a
    bound on its absolute error, divided by 1 - e^delta in each step (the
    descent cancels at large twists); a length whose relative error bound
    exceeds 1e-10 is a DomainError.  A length below the double range is
    0.0, as d is."""
    _check_finite("tau", tau)
    if math.gcd(p, q) != 1:
        raise DomainError(f"slope ({p},{q}) is not primitive")
    d = arc_length_distinct_boundaries(lC, lC, lB)  # checks lC and lB
    p, q = (-p, -q) if q < 0 or (q == 0 and p < 0) else (p, q)
    if q == 0:
        return lC
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
    if q == 1 and c < 1.0:  # short, c may underflow: cosh(l/2) - 1 by parts,
        s = tau + p * lC  # sinh^2(l/4) = sinh^2(d/4) cosh(s/2) + sinh^2(s/4)
        length = 4 * math.asinh(math.hypot(
            math.sinh(d / 4) * math.sqrt(math.cosh(s / 2)), math.sinh(s / 4)))
        r = math.tanh(length / 2)
    else:
        r = math.sqrt(-math.expm1(-2 * c)) if c > 0 else 0.0  # else refused
        length = 2 * (c + math.log1p(r))
    if not 2 * e <= _SLOPE_RTOL * r * length:  # r = tanh(l/2), dl/dc = 2/r
        raise DomainError(f"slope ({p},{q}) at ({lC!r}, {tau!r}, {lB!r}): length "
                          f"not resolved to {_SLOPE_RTOL:g} in double precision")
    return length


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
    """Decay envelope 3*|chi| / sinh(e^t * omega / 2) for a boundary leaf.

    Strictly decreasing in both t and omega; used as the exact length
    prescription for decaying curves on scaling paths.
    """
    _check_finite("omega", omega)
    _check_finite("t", t)
    if omega <= 0:
        raise DomainError("leaf weight omega must be positive")
    if abs_chi < 1:
        raise DomainError("|chi| must be at least 1")
    lx = t + math.log(omega) - _LN2  # log x, tested before e^t can overflow
    if lx > _LOG_MAX:
        return 0.0  # the envelope underflowed long before x leaves the doubles
    x = math.exp(t) * omega / 2.0 if t <= _LOG_MAX else math.exp(lx)
    if x <= 700.0:
        return 3.0 * abs_chi / math.sinh(x)
    ly = math.log(3.0 * abs_chi) - log_sinh(x)
    return math.exp(ly)  # may underflow to 0.0 for astronomical arguments
