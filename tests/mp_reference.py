"""50-digit mpmath closed forms of the two pants arcs, shared by the tests
that check the formulas and their log lengths against them.  Each takes
lengths as floats or mpf (a length far below the doubles is an mpf) and
returns the arc length as an mpf."""

import mpmath as mp


def mp_arc_same(lb, lg1, lg2):
    # sinh^2(l/2) = (ch1^2 + ch2^2 + 2 chb ch1 ch2) / shb^2, no cancellation
    cb, c1, c2 = (mp.cosh(mp.mpf(v) / 2) for v in (lb, lg1, lg2))
    s2 = (c1 ** 2 + c2 ** 2 + 2 * cb * c1 * c2) / mp.sinh(mp.mpf(lb) / 2) ** 2
    return 2 * mp.asinh(mp.sqrt(s2))


def mp_arc_distinct(lb1, lb2, lg):
    # sinh^2(l/2) = (cosh(lg/2) + cosh((lb1 - lb2)/2)) / (2 sh1 sh2)
    lb1, lb2, lg = mp.mpf(lb1), mp.mpf(lb2), mp.mpf(lg)
    s2 = (mp.cosh(lg / 2) + mp.cosh((lb1 - lb2) / 2)) \
        / (2 * mp.sinh(lb1 / 2) * mp.sinh(lb2 / 2))
    return 2 * mp.asinh(mp.sqrt(s2))


def mp_pants_lengths(l1, l2, l3):
    """Label -> mpf length of each class of the nine-entry pants panel."""
    sides = {"B1": mp.mpf(l1), "B2": mp.mpf(l2), "B3": mp.mpf(l3)}
    out = dict(sides)
    for a, b, c in (("B1", "B2", "B3"), ("B2", "B1", "B3"), ("B3", "B1", "B2")):
        out[f"a({a};{b},{c})"] = mp_arc_same(sides[a], sides[b], sides[c])
        out[f"a({b},{c};{a})"] = mp_arc_distinct(sides[b], sides[c], sides[a])
    return out
