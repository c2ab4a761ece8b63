"""Explicit Fuchsian realizations of the registered surfaces.

A pair of pants with cuff lengths (l1, l2, l3) is realized in the upper
half-plane by constructing one of its two right-angled hexagons directly:
cuff 1 lies on the unit half-circle, cuff 2 on the concentric half-circle of
radius e^u where u is the seam length between them, and u is found by a
shooting argument (the opposite seam must have perpendicular distance l3/2).
Boundary holonomies are products of reflections in the seam geodesics, so
the pants relation X1*X2*X3 = 1 holds exactly by construction.

The doubles of the two registered bordered surfaces are assembled from pants
by explicit cuff-gluing matrices: a frame transport composed with a twist
translation, plus a mirror reflection for the doubling gluings.  Twists are
in hyperbolic length units.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from . import halfplane as hp
from .errors import DomainError, UnsupportedClassError, UnsupportedSurfaceError
from .topology import Surface, SurfaceSignature

_PANTS_SIG = SurfaceSignature(0, 0, 3)
_TORUS_SIG = SurfaceSignature(1, 0, 1)


def _mirror_matrix(M):
    """Conjugate a holonomy matrix by the mirror z -> -conj(z)."""
    a, b, c, d = M
    return (a, -b, -c, d)


class PantsRealization(NamedTuple):
    """A hyperbolic pair of pants in normalized position.

    cuff_axes[i] is oriented so the pants body lies on its left;
    cuff_feet[i] is the marked point (a seam foot) used as the twist origin;
    cuff_matrices[i] translates along cuff_axes[i] by lengths[i].
    """

    lengths: tuple[float, float, float]
    cuff_axes: tuple[hp.Geodesic, hp.Geodesic, hp.Geodesic]
    cuff_feet: tuple[complex, complex, complex]
    cuff_matrices: tuple[tuple, tuple, tuple]
    seam_lengths: dict  # frozenset({i, j}) -> perpendicular distance


def _seam_gap(u: float, a: float, b: float) -> float:
    """Length of the hexagon side joining the free seams at trial separation u.

    Returns -1.0 while no embedded hexagon exists: either the seam geodesics
    still cross, or their common perpendicular is a spurious shortcut whose
    feet leave the annulus between the two cuff circles.  On the embedded
    branch the returned length is strictly increasing in u.
    """
    R = math.exp(u)
    g_a = hp.perpendicular_at_circle_point(1.0, a)
    g_b = hp.perpendicular_at_circle_point(R, b)
    k = abs(hp.inversive_distance(g_a, g_b))
    if k <= 1.0:
        return -1.0
    try:
        side = hp.common_perpendicular(g_a, g_b)
        v1 = hp.circle_intersection(g_a.center_radius(), side.center_radius())
        v2 = hp.circle_intersection(g_b.center_radius(), side.center_radius())
    except DomainError:
        return -1.0
    if not (1.0 < abs(v1) < R and 1.0 < abs(v2) < R):
        return -1.0
    return math.acosh(k)


# doubling the trial seam length past this would overflow math.exp(u)
_U_MAX = math.log(sys.float_info.max)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int) -> float:
    """Root of f in the sign-changing bracket [xa, xb] by Brent's method.

    Secant or inverse quadratic interpolation steps, falling back to
    bisection, until half the bracket is below (xtol + rtol*|x|)/2.  The
    step rules follow the widely used C implementation exactly, so roots
    agree with it bit for bit (tested).
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError("hexagon shooting bracket does not change sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise DomainError(f"hexagon shooting did not converge in {maxiter} steps")


def build_pants(l1: float, l2: float, l3: float) -> PantsRealization:
    """Realize the pants with cuff lengths (l1, l2, l3), all > 0."""
    for v in (l1, l2, l3):
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"pants cuff lengths must be positive, got {v}")
    a, b, c = l1 / 2.0, l2 / 2.0, l3 / 2.0

    # shoot on the cuff1-cuff2 seam length u until the far hexagon side is l3/2
    def f(u):
        gap = _seam_gap(u, a, b)
        return (gap - c) if gap >= 0 else -1.0 - c

    hi = 1.0
    while f(hi) < 0:
        hi *= 2.0
        if hi > _U_MAX:
            raise DomainError("hexagon shooting failed to bracket from above: "
                              "cuffs too long for double precision")
    lo = hi
    while f(lo) > 0:
        lo /= 2.0
        if lo < 1e-250:
            raise DomainError("hexagon shooting failed to bracket from below")
    u = _brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)

    R = math.exp(u)
    axis1 = hp.geodesic_from_circle(0.0, 1.0)            # oriented -1 -> +1
    axis2 = hp.geodesic_from_circle(0.0, R, toward_right=False)
    seam12 = hp.Geodesic(hp.bpoint(0.0), hp.INF)         # imaginary axis
    seam13 = hp.perpendicular_at_circle_point(1.0, a)
    seam23 = hp.perpendicular_at_circle_point(R, b)
    axis3 = hp.common_perpendicular(seam13, seam23)

    r12 = hp.reflection_matrix(seam12)
    r13 = hp.reflection_matrix(seam13)
    r23 = hp.reflection_matrix(seam23)
    X1 = hp.mul(r13, r12)
    X2 = hp.mul(r12, r23)
    X3 = hp.mul(r23, r13)
    # orient each cuff axis along its own holonomy, body on the left
    axis1 = hp.axis(X1)
    axis2 = hp.axis(X2)
    axis3 = hp.axis(X3)

    foot1 = 1j
    foot2 = 1j * R
    foot3 = hp.circle_intersection(seam13.center_radius(), axis3.center_radius())

    gap13 = hp.geodesic_distance(hp.geodesic_from_circle(0.0, 1.0), axis3)
    gap23 = hp.geodesic_distance(hp.geodesic_from_circle(0.0, R), axis3)
    seams = {frozenset({1, 2}): u,
             frozenset({1, 3}): gap13,
             frozenset({2, 3}): gap23}
    return PantsRealization((l1, l2, l3), (axis1, axis2, axis3),
                            (foot1, foot2, foot3), (X1, X2, X3), seams)


# -- independent axis-distance oracle ----------------------------------------


def pants_arc_lengths_oracle(l1: float, l2: float, l3: float) -> dict:
    """Arc lengths of all six pants arcs from the explicit hexagon gluing.

    Arcs between distinct boundaries are perpendicular distances between the
    corresponding cuff axes; the arc from boundary j back to itself is the
    perpendicular distance between the cuff-j axis and its translate under
    an adjacent cuff holonomy.  Distances come from endpoint cross-ratios of
    the axes, never from the pentagon/hexagon formulas.

    Verified against the formulas and mpmath for cuffs in [0.1, 6] only.
    Outside it the oracle can be wrong outright: at (14, 0.02, 0.02) its
    a33 is 17.621, where the correct length is 23.214.
    """
    pants = build_pants(l1, l2, l3)
    A = pants.cuff_axes
    X = pants.cuff_matrices

    def dist(g1, g2):
        return hp.geodesic_distance(g1, g2)

    def same_arc(j, g):  # perpendicular from cuff j to its g-translate
        return dist(A[j], hp.apply_to_geodesic(g, A[j]))

    return {
        "a12": dist(A[0], A[1]),
        "a13": dist(A[0], A[2]),
        "a23": dist(A[1], A[2]),
        "a11": same_arc(0, X[1]),
        "a22": same_arc(1, X[2]),
        "a33": same_arc(2, X[0]),
    }


# -- cuff gluing ---------------------------------------------------------------


def glue_matrix(target_axis: hp.Geodesic, target_foot: complex,
                source_axis: hp.Geodesic, source_foot: complex,
                twist: float) -> tuple:
    """Matrix g mapping source cuff onto target cuff with opposite orientation.

    g sends source_axis to target_axis reversed and source_foot to the point
    at signed distance `twist` from target_foot along the target axis, so the
    two glued pants bodies land on opposite sides.  Twist is in length units;
    positive twist displaces toward target_axis.end (a right twist).
    """
    shifted = hp.point_along(target_axis, target_foot, twist)
    F_target = hp.frame_matrix(target_axis.reversed(), shifted)
    F_source = hp.frame_matrix(source_axis, source_foot)
    return hp.mul(F_target, hp.inv(F_source))


def _mirror_gluing(pants: PantsRealization, j: int, twist: float) -> tuple:
    """Odd (det -1) gluing of cuff j to its mirror image (axis mirrored and
    reversed, foot conjugated), right-multiplied by the mirror z -> -conj(z)."""
    axis, foot = pants.cuff_axes[j], pants.cuff_feet[j]
    mirror_axis = hp.Geodesic((-axis.end[0], axis.end[1]),
                              (-axis.start[0], axis.start[1]))
    a, b, c, d = glue_matrix(axis, foot, mirror_axis, -foot.conjugate(), twist)
    return (-a, b, -c, d)


def _normalize_sign(M):
    return M if M[0] + M[3] >= 0 else tuple(-x for x in M)


class GeneratorSet:
    """Named holonomy generators plus word evaluation by matrix products."""

    def __init__(self, generators: dict):
        self.generators = dict(generators)

    def matrix(self, word) -> tuple:
        """Evaluate a word: sequence of (name, exponent) pairs."""
        M = (1.0, 0.0, 0.0, 1.0)
        for name, exp in word:
            G = self.generators[name]
            if exp < 0:
                G = hp.inv(G)
            M = hp.mul(M, *[G] * abs(exp))
        return _normalize_sign(M)

    def word_length(self, word) -> float:
        """Geodesic length of the free homotopy class of a word."""
        M = self.matrix(word)
        if not all(map(math.isfinite, M)):
            raise DomainError("holonomy overflow: word length exceeds double range")
        return hp.translation_length(M)


# -- tier-1 doubles -------------------------------------------------------------


def pants_double_holonomy(lengths, twists) -> GeneratorSet:
    """Genus-2 double of a pants: two mirror pants glued along all cuffs.

    lengths/twists are indexed by the three gluing curves.  Generators "x1",
    "x2", "x3" are the upper-pants cuff holonomies and "h1", "h2", "h3" the
    mirror gluing maps across each cuff (twist translation composed with the
    reflection swapping the two perpendicular feet).  Words h_j h_k^-1 are
    the doubled seam arcs.
    """
    pants = build_pants(*lengths)
    gens = {"x1": pants.cuff_matrices[0],
            "x2": pants.cuff_matrices[1],
            "x3": pants.cuff_matrices[2]}
    for j in range(3):
        # h acts on the mirrored pants: mirrored generators are h mirror(X) h^-1
        gens[f"h{j + 1}"] = _mirror_gluing(pants, j, twists[j])
    return GeneratorSet(gens)


def torus_double_holonomy(l_curve, tw_curve, l_boundary, tw_boundary,
                          l_curve_m, tw_curve_m) -> GeneratorSet:
    """Genus-2 double of the one-holed torus.

    Decomposition curves: the torus gluing curve C (length l_curve, twist
    tw_curve), the former boundary B, and the mirror curve C-bar.  Generators
    "a"/"b" are the upper handle, "h3" the mirror gluing across B, and
    "bm" the lower handle letter.
    """
    if abs(l_curve_m - l_curve) > 1e-9 * max(1.0, l_curve):
        raise UnsupportedSurfaceError(
            "double of a one-holed torus needs equal lengths on C and C-bar")
    pants = build_pants(l_curve, l_curve, l_boundary)
    t_u = glue_matrix(pants.cuff_axes[0], pants.cuff_feet[0],
                      pants.cuff_axes[1], pants.cuff_feet[1], tw_curve)
    h3 = _mirror_gluing(pants, 2, tw_boundary)

    # lower handle letter: the mirrored pants' own gluing with twist tw_curve_m,
    # expressed in the mirror-normalized coordinates and conjugated across B
    t_l_norm = _mirror_matrix(
        glue_matrix(pants.cuff_axes[0], pants.cuff_feet[0],
                    pants.cuff_axes[1], pants.cuff_feet[1], -tw_curve_m))
    # h3 is odd, so conjugation h3 * M * h3^-1 is orientation-correct
    h3_inv = hp.inv(h3)
    return GeneratorSet({
        "a": pants.cuff_matrices[0],
        "b": t_u,
        "x3": pants.cuff_matrices[2],
        "h3": h3,
        "bm": _normalize_sign(hp.mul(h3, t_l_norm, h3_inv)),
        "am": _normalize_sign(hp.mul(
            h3, _mirror_matrix(pants.cuff_matrices[0]), h3_inv)),
    })


# -- registered holonomy of a point ------------------------------------------


class Holonomy:
    """Named holonomy generators plus the registered word table.

    Generator matrices have |det| = 1; mirror gluing generators have
    determinant -1 and occur an even number of times in any closed word.
    """

    def __init__(self, surface: Surface, gens: GeneratorSet,
                 words: dict, boundary_lengths: dict):
        self.surface, self.gens, self.words = surface, gens, dict(words)
        self._boundary_lengths = dict(boundary_lengths)

    def word_length(self, label: str) -> float:
        if label not in self.words:
            raise UnsupportedClassError(
                f"no registered word for {label!r} on {self.surface.signature}")
        return self.gens.word_length(self.words[label])

    def generator_trace_errors(self) -> dict:
        """|trace| vs 2cosh(l/2) for every coordinate curve with a word."""
        return {label: abs(abs(a + d) - 2.0 * math.cosh(length / 2.0))
                for label, length in self._boundary_lengths.items()
                if label in self.words
                for a, _, _, d in [self.gens.matrix(self.words[label])]}

    def relator_residuals(self) -> list[float]:
        """Deviation of the defining relators from +-identity."""
        return [min(max(abs(x - s * e) for x, e in zip(M, (1, 0, 0, 1)))
                    for s in (1, -1))
                for M in map(self.gens.matrix, self.words.get("_relators", []))]


def _commutator(g: str, h: str) -> list:
    return [(g, 1), (h, 1), (g, -1), (h, -1)]


def point_holonomy(X) -> Holonomy:
    """Holonomy of an FNPoint on a pants or a tier-1 double."""
    surf, base = X.surface, X.surface.double_of
    if base is None:
        if surf.signature != _PANTS_SIG:
            raise UnsupportedSurfaceError(
                f"no registered holonomy marking for {surf.signature}")
        b = X.boundary_dict()
        pants = build_pants(b["B1"], b["B2"], b["B3"])
        gens = GeneratorSet({"x1": pants.cuff_matrices[0],
                             "x2": pants.cuff_matrices[1],
                             "x3": pants.cuff_matrices[2]})
        words = {"B1": [("x1", 1)], "B2": [("x2", 1)], "B3": [("x3", 1)],
                 "_relators": [[("x1", 1), ("x2", 1), ("x3", 1)]]}
        return Holonomy(surf, gens, words, b)

    coords = X.interior_dict()
    if base == _PANTS_SIG:
        lengths = tuple(coords[f"B{j}"][0] for j in (1, 2, 3))
        twists = tuple(coords[f"B{j}"][1] for j in (1, 2, 3))
        gens = pants_double_holonomy(lengths, twists)
        words = {f"B{j}": [(f"x{j}", 1)] for j in (1, 2, 3)}
        for i, j in ((1, 2), (1, 3), (2, 3)):  # doubled seam arcs
            words[f"a{i}{j}^d"] = [(f"h{j}", 1), (f"h{i}", -1)]
        for j, k in ((1, 2), (2, 3), (3, 1)):  # doubled same-boundary arcs
            words[f"a{j}{j}^d"] = _commutator(f"h{j}", f"x{k}")
        # each gluing map preserves its cuff axis, so it commutes with the
        # cuff holonomy; these are the edge relations of the assembly
        words["_relators"] = [_commutator(f"h{j}", f"x{j}") for j in (1, 2, 3)]
        blen = {f"B{j}": lengths[j - 1] for j in (1, 2, 3)}
        return Holonomy(surf, gens, words, blen)
    if base == _TORUS_SIG:
        lC, tC = coords["C1"]
        lB, tB = coords["B1"]
        lCm, tCm = coords["C1m"]
        gens = torus_double_holonomy(lC, tC, lB, tB, lCm, tCm)
        words = {"C1": [("a", 1)],
                 "C1m": [("am", 1)],
                 "B1": [("b", -1), ("a", 1), ("b", 1), ("a", -1)],
                 "w(0,1)": [("b", 1)],
                 "w(0,1)m": [("bm", 1)],
                 "a(B1;C1,C1)^d": _commutator("h3", "a"),
                 "_relators": [
                     [("a", 1), ("b", -1), ("a", -1), ("b", 1), ("x3", 1)],
                     _commutator("h3", "x3"),
                 ]}
        return Holonomy(surf, gens, words, {"C1": lC, "B1": lB, "C1m": lCm})
    raise UnsupportedSurfaceError(f"no registered marking for double of {base}")
