"""Upper half-plane primitives: geodesics, isometries, axis distances.

Boundary points of H^2 are projective pairs (x, y) representing x/y on the
real line, with (1, 0) = infinity.  Geodesics are oriented pairs of distinct
boundary points.  Isometries are real 2x2 matrices of determinant +1 acting
by Mobius transformations; matrices of determinant -1 represent reflections
z -> M(conj(z)), and the product of two reflection matrices is the matrix of
the composed (orientation-preserving) isometry.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError

INF = (1.0, 0.0)


def bpoint(x) -> tuple[float, float]:
    """Projective boundary point from a real number (or math.inf)."""
    if x == math.inf:
        return INF
    return (float(x), 1.0)


def _br(u, v) -> float:
    """Projective bracket u0*v1 - u1*v0; vanishes iff u, v coincide."""
    return u[0] * v[1] - u[1] * v[0]


class Geodesic(NamedTuple):
    """Oriented geodesic with repelling endpoint `start`, attracting `end`."""

    start: tuple[float, float]
    end: tuple[float, float]

    def reversed(self) -> "Geodesic":
        return Geodesic(self.end, self.start)

    def center_radius(self) -> tuple[float, float]:
        """(center, radius) of the half-circle; DomainError for vertical lines."""
        if abs(self.start[1]) < 1e-300 or abs(self.end[1]) < 1e-300:
            raise DomainError("geodesic through infinity has no center/radius")
        p = self.start[0] / self.start[1]
        q = self.end[0] / self.end[1]
        return (0.5 * (p + q), 0.5 * abs(q - p))


def geodesic_from_circle(center: float, radius: float, toward_right=True) -> Geodesic:
    if radius <= 0:
        raise DomainError("geodesic circle needs positive radius")
    a, b = bpoint(center - radius), bpoint(center + radius)
    return Geodesic(a, b) if toward_right else Geodesic(b, a)


def mobius_boundary(M, p) -> tuple[float, float]:
    """Image of a projective boundary point under the Mobius action of M."""
    return (M[0, 0] * p[0] + M[0, 1] * p[1], M[1, 0] * p[0] + M[1, 1] * p[1])


def mobius_interior(M, z: complex) -> complex:
    num = M[0, 0] * z + M[0, 1]
    den = M[1, 0] * z + M[1, 1]
    return num / den


def apply_to_geodesic(M, g: Geodesic) -> Geodesic:
    return Geodesic(mobius_boundary(M, g.start), mobius_boundary(M, g.end))


def inversive_distance(g1: Geodesic, g2: Geodesic) -> float:
    """Signed inversive distance between two geodesics from their endpoints.

    |value| > 1 iff the geodesics are disjoint, and then the hyperbolic
    distance between them is arccosh(|value|); |value| < 1 iff they cross.
    The formula is the endpoint cross-ratio expression
        [<a,c><b,d> + <a,d><b,c>] / [<a,b><c,d>]
    written with projective brackets, so endpoints at infinity are fine.
    """
    a, b = g1.start, g1.end
    c, d = g2.start, g2.end
    den = _br(a, b) * _br(c, d)
    if den == 0.0:
        raise DomainError("degenerate geodesic (coincident endpoints)")
    num = _br(a, c) * _br(b, d) + _br(a, d) * _br(b, c)
    return num / den


def geodesic_distance(g1: Geodesic, g2: Geodesic) -> float:
    """Hyperbolic distance between two disjoint geodesics (0 if they touch)."""
    k = abs(inversive_distance(g1, g2))
    if k < 1.0:
        if k > 1.0 - 1e-12:
            return 0.0
        raise DomainError("geodesics intersect; no common perpendicular")
    return math.acosh(k)


def reflection_matrix(g: Geodesic):
    """Determinant -1 matrix of the reflection fixing g (acts on conj(z))."""
    if abs(g.start[1]) < 1e-300 or abs(g.end[1]) < 1e-300:
        # vertical line x = x0: z -> 2*x0 - conj(z)
        p = g.start if abs(g.start[1]) >= 1e-300 else g.end
        x0 = p[0] / p[1]
        return np.array([[-1.0, 2.0 * x0], [0.0, 1.0]])
    m, r = g.center_radius()
    return np.array([[m, r * r - m * m], [1.0, -m]]) / r


def fixed_points(M) -> tuple[tuple[float, float], tuple[float, float]]:
    """(repelling, attracting) boundary fixed points of a hyperbolic matrix."""
    a, b, c, d = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    tr = a + d
    disc = tr * tr - 4.0
    if disc <= 0:
        raise DomainError("matrix is not hyperbolic (|trace| <= 2)")
    s = math.sqrt(disc)
    if abs(c) < 1e-14 * (abs(a) + abs(d)):
        other = bpoint(-b / (a - d)) if abs(a - d) > 0 else INF
        # at infinity the derivative is (a/d)^2
        return (other, INF) if abs(a) > abs(d) else (INF, other)
    z_plus = ((a - d) + s) / (2.0 * c)
    z_minus = ((a - d) - s) / (2.0 * c)
    # attracting fixed point has |c z + d| > 1
    if abs(c * z_plus + d) > 1.0:
        return (bpoint(z_minus), bpoint(z_plus))
    return (bpoint(z_plus), bpoint(z_minus))


def axis(M) -> Geodesic:
    rep, att = fixed_points(M)
    return Geodesic(rep, att)


def translation_length(M) -> float:
    """Translation length 2*arccosh(|tr|/2) of a hyperbolic matrix."""
    t = abs(float(np.trace(M))) / 2.0
    if t < 1.0:
        if t > 1.0 - 1e-12:
            return 0.0
        raise DomainError("matrix is elliptic; no translation length")
    return 2.0 * math.acosh(t)


def frame_matrix(g: Geodesic, foot: complex):
    """Unique M in PSL(2,R) sending (imaginary axis 0->oo, i) to (g, foot)."""
    C = np.array([[g.end[0], g.start[0]], [g.end[1], g.start[1]]], dtype=float)
    det = np.linalg.det(C)
    if det < 0:
        C = C @ np.diag([1.0, -1.0])
        det = -det
    C = C / math.sqrt(det)
    w = mobius_interior(np.linalg.inv(C), foot)
    if w.imag <= 0 or abs(w.real) > 1e-6 * w.imag:
        raise DomainError("foot does not lie on the geodesic")
    y = w.imag
    return C @ np.diag([math.sqrt(y), 1.0 / math.sqrt(y)])


def point_along(g: Geodesic, foot: complex, s: float) -> complex:
    """Point at signed distance s from `foot` along g (positive toward g.end)."""
    F = frame_matrix(g, foot)
    return mobius_interior(F, 1j * math.exp(s))


# -- circle utilities used by the right-angled hexagon construction ---------


def perpendicular_at_circle_point(R: float, s: float) -> Geodesic:
    """Geodesic orthogonal to |z| = R at the point at distance s from iR,
    toward +R."""
    theta = 2.0 * math.atan(math.exp(-s))
    center = R / math.cos(theta)
    radius = R * math.tan(theta)
    return geodesic_from_circle(center, radius)


def common_perpendicular(g1: Geodesic, g2: Geodesic) -> Geodesic:
    """Geodesic orthogonal to both g1 and g2 (finite half-circles only)."""
    m1, r1 = g1.center_radius()
    m2, r2 = g2.center_radius()
    if abs(m1 - m2) < 1e-14:
        raise DomainError("concentric geodesics: perpendicular is a vertical line")
    x0 = (m1 * m1 - r1 * r1 - m2 * m2 + r2 * r2) / (2.0 * (m1 - m2))
    rad2 = (x0 - m1) ** 2 - r1 * r1
    if rad2 <= 0:
        raise DomainError("geodesics admit no common perpendicular circle")
    return geodesic_from_circle(x0, math.sqrt(rad2))


def circle_intersection(c1: tuple[float, float], c2: tuple[float, float]) -> complex:
    """Upper half-plane intersection point of two circles (m, r) on the real axis."""
    m1, r1 = c1
    m2, r2 = c2
    if abs(m1 - m2) < 1e-300:
        raise DomainError("concentric circles do not intersect")
    x = (r1 * r1 - r2 * r2 + m2 * m2 - m1 * m1) / (2.0 * (m2 - m1))
    y2 = r1 * r1 - (x - m1) ** 2
    if y2 <= 0:
        raise DomainError("circles do not intersect")
    return complex(x, math.sqrt(y2))
