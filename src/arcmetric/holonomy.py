"""Explicit Fuchsian realizations of the registered surfaces.

A pair of pants with cuff lengths (l1, l2, l3) is realized in the upper
half-plane by constructing one of its two right-angled hexagons directly:
cuff 1 lies on the unit half-circle, cuff 2 on the concentric half-circle of
radius e^u where u is the seam length between them.  u is the exact root of
the seam-circle condition (the opposite seam has perpendicular distance
l3/2), which is algebraically the hexagon relation
cosh u = (cosh c + cosh a cosh b)/(sinh a sinh b) in the half cuffs; it is
read off halfplane circle data, and the module shares no code with hyptrig.
Boundary holonomies are products of reflections in the seam geodesics, so
the pants relation X1*X2*X3 = 1 holds exactly by construction.

The doubles of the two registered bordered surfaces are assembled from pants
by explicit cuff-gluing matrices: a frame transport composed with a twist
translation, plus a mirror reflection for the doubling gluings.  Twists are
in hyperbolic length units.
"""

from __future__ import annotations

import math
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


def build_pants(l1: float, l2: float, l3: float) -> PantsRealization:
    """Realize the pants with cuff lengths (l1, l2, l3), all > 0.

    The seam u between cuffs 1 and 2 is the exact root of the seam-circle
    condition, algebraically cosh u = (cosh c + cosh a cosh b)/(sinh a sinh b)
    in the half cuffs; no code is shared with hyptrig.  Cuffs whose seam or
    reflections leave double precision are a DomainError.
    """
    for v in (l1, l2, l3):
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"pants cuff lengths must be positive, got {v}")
    a, b, c = l1 / 2.0, l2 / 2.0, l3 / 2.0
    seam13 = hp.perpendicular_at_circle_point(1.0, a)
    m1, r1 = seam13.center_radius()
    m2, r2 = hp.perpendicular_at_circle_point(1.0, b).center_radius()
    too_long = DomainError(f"pants cuffs too long for double precision: "
                           f"({l1!r}, {l2!r}, {l3!r})")
    # with cuff 2 on |z| = R, seam 2-3 is R times the unit-circle seam at b,
    # so |inversive distance(seam13, seam23)| = cosh c reads R + 1/R = 2s
    try:
        s = m1 * m2 + r1 * r2 * math.cosh(c)
    except OverflowError:
        raise too_long from None
    if not (math.isfinite(s) and s > 1.0):
        raise too_long
    R = s + math.sqrt((s - 1.0) * (s + 1.0))

    seam12 = hp.Geodesic(hp.bpoint(0.0), hp.INF)         # imaginary axis
    seam23 = hp.perpendicular_at_circle_point(R, b)
    r12 = hp.reflection_matrix(seam12)
    r13 = hp.reflection_matrix(seam13)
    r23 = hp.reflection_matrix(seam23)
    X1 = hp.mul(r13, r12)
    X2 = hp.mul(r12, r23)
    X3 = hp.mul(r23, r13)
    if not all(map(math.isfinite, X1 + X2 + X3)):  # R^2 overflowed in r23
        raise too_long
    # orient each cuff axis along its own holonomy, body on the left
    axis1 = hp.axis(X1)
    axis2 = hp.axis(X2)
    axis3 = hp.axis(X3)

    foot1 = 1j
    foot2 = 1j * R
    foot3 = hp.circle_intersection((m1, r1), axis3.center_radius())
    return PantsRealization((l1, l2, l3), (axis1, axis2, axis3),
                            (foot1, foot2, foot3), (X1, X2, X3))


# -- independent axis-distance oracle ----------------------------------------


def pants_arc_lengths_oracle(l1: float, l2: float, l3: float) -> dict:
    """Arc lengths of all six pants arcs from the explicit hexagon gluing.

    a12 is the seam u of build_pants, the exact root of the seam-circle
    condition; the other five arcs are cross-ratio distances between cuff
    axes, a same-boundary arc j from the cuff-j axis to its translate under
    an adjacent cuff holonomy.  No code is shared with hyptrig.  Every arc
    is within 1e-9 of the formulas for cuffs in [0.1, 6], and within 4e-6
    relative on a 9^3 log grid over [0.02, 14].
    """
    pants = build_pants(l1, l2, l3)
    A = pants.cuff_axes
    X = pants.cuff_matrices
    dist = hp.geodesic_distance

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
