"""Rational measured laminations and their coordinates.

A rational lamination is a weighted union of pairwise disjoint curve and arc
classes; intersection_vector is its functional i(mu, .) on a panel.
Intersection numbers follow the conventions forced by the pants case formulas:

* an arc crossing a boundary curve counts 1 per endpoint when the arc is the
  measured side (this is the count seen by the double, and the one that
  drives Dehn-Thurston coordinates and scaling-path growth rates);
* a weighted boundary leaf contributes half its weight per arc endpoint
  landing on it when the leaf is the measured side.

The two conventions are each other's boundary-degenerate faces and are not
symmetric on arc/boundary pairs; away from those pairs the pairing is
symmetric.

Slopes come from topology: a curve or arc with a slope crosses a curve with
one |det| of the two slopes times, and a slope-host side of an arc's pants
is the curve of the arc's slope.  A lamination holds only classes with a
length on its surface: a slope off the torus is refused when it is built.
Components are told apart as classes, never by their labels.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import geometry as geo
from . import hyptrig as ht
from . import topology as top
from .errors import (DomainError, UnsupportedClassError,
                     UnsupportedCoordinatesError, UnsupportedSurfaceError)
from .topology import (ArcClass, CurveClass, Panel, Surface, enumerate_panel)


# -- class-level intersection engine -------------------------------------------


def _slope_crossings(surface: Surface, c, d: CurveClass) -> float:
    """|det| of the slopes of c and d, or 0.0 unless both have one:
    distinct decomposition and boundary curves are disjoint by construction,
    and pants-local arcs cross no decomposition curve."""
    sc, sd = surface.slope_of(c), surface.slope_of(d)
    if sc is None or sd is None:
        return 0.0
    return float(abs(sc[0] * sd[1] - sc[1] * sd[0]))


def _host_sides(surface: Surface, arc: ArcClass):
    """(pattern kind, side classes ...) of the arc's host pants, whose slope
    host side is the curve of the arc's slope."""
    def side_class(label):
        if label in surface.punctures:
            return None
        if label == surface._slope_host:
            return surface.slope_curve(*surface.slope_of(arc))
        return surface.curve_class(label)

    pat = arc.pattern
    return pat[0], [side_class(lab) for lab in pat[1:]], list(pat[1:])


def class_intersection(surface: Surface, c, target) -> float:
    """i(c, target) for unweighted classes, c the measured side; once a pair."""
    key, table = (c, target), surface._intersections
    value = table.get(key)
    if value is None:
        value = table[key] = _class_intersection(surface, c, target)
    return value


def _disjoint(surface: Surface, c, d) -> bool:
    """i(c, d) = i(d, c) = 0: the pairing is not symmetric on arc/boundary pairs."""
    return class_intersection(surface, c, d) == 0.0 \
        and class_intersection(surface, d, c) == 0.0


def _class_intersection(surface: Surface, c, target) -> float:
    if isinstance(c, (CurveClass, ArcClass)) and isinstance(target, CurveClass):
        if isinstance(c, ArcClass) and target.kind == "boundary":
            return float(c.endpoints().count(target.label))  # the measured arc's ends
        return _slope_crossings(surface, c, target)
    if not isinstance(target, ArcClass):
        raise UnsupportedClassError(f"unsupported target {target!r}")
    if c == target:
        return 0.0
    kind, sides, labels = _host_sides(surface, target)
    ints, weights = [], []
    for side, label in zip(sides, labels):
        if side is None:  # puncture side
            ints.append(0.0)
            weights.append(0.0)
            continue
        ints.append(class_intersection(surface, c, side))
        leaf = (isinstance(c, CurveClass) and c.kind == "boundary"
                and c.label == label)
        weights.append(1.0 if leaf else 0.0)
    if kind == "same":
        return ht.intersection_arc_same(ints[0], ints[1], ints[2], weights[0])
    return ht.intersection_arc_distinct(ints[0], ints[1], ints[2],
                                        weights[0], weights[1])


# -- rational laminations --------------------------------------------------------


class RationalLamination(NamedTuple):
    """Weighted disjoint union of curve and arc classes (may be empty)."""

    surface: Surface
    components: tuple  # ((class, weight), ...)

    def is_zero(self) -> bool:
        return not self.components

    def weight_of(self, cls) -> float:
        for c, w in self.components:
            if c == cls:
                return w
        return 0.0

    def classes(self) -> list:
        return [c for c, _ in self.components]

    def scaled(self, factor: float) -> "RationalLamination":
        if factor <= 0 or not math.isfinite(factor):
            raise DomainError("scaling factor must be positive and finite")
        return RationalLamination(
            self.surface, tuple((c, w * factor) for c, w in self.components))

    def __add__(self, other: "RationalLamination") -> "RationalLamination":
        if other.surface is not self.surface and other.surface != self.surface:
            raise DomainError("laminations live on different surfaces")
        merged = {c: w for c, w in self.components}
        for c, w in other.components:
            merged[c] = merged.get(c, 0.0) + w
        return rational_lamination(self.surface, merged)


def _class_sort_key(cls):
    return (isinstance(cls, ArcClass), str(cls))


def rational_lamination(surface: Surface, weights) -> RationalLamination:
    """Build and validate a lamination from {class: weight} or pair list;
    a class with no length on the surface is refused as its route is."""
    items = list(weights.items()) if isinstance(weights, dict) else list(weights)
    comps = []
    for cls, w in items:
        if not (math.isfinite(w) and w > 0):
            raise DomainError(f"weight of {cls} must be positive, got {w}")
        geo._compiled(surface, cls)  # refuses a class the surface does not carry
        comps.append((cls, float(w)))
    comps.sort(key=lambda cw: _class_sort_key(cw[0]))
    classes = [c for c, _ in comps]
    if len(set(classes)) != len(classes):
        raise DomainError("lamination components must be pairwise distinct")
    for i, c in enumerate(classes):
        for d in classes[i + 1:]:
            if not _disjoint(surface, c, d):
                raise DomainError(
                    f"components {c} and {d} intersect; a lamination needs "
                    f"pairwise disjoint support")
    return RationalLamination(surface, tuple(comps))


def intersection_number(mu: RationalLamination, gamma) -> float:
    """i(mu, gamma), linear in the weights of mu."""
    return sum(w * class_intersection(mu.surface, c, gamma)
               for c, w in mu.components)


def intersection_vector(mu: RationalLamination, entries) -> tuple:
    """(i(mu, e) for e in entries): one intersection_number per entry."""
    return tuple(intersection_number(mu, e) for e in entries)


def normalize(mu: RationalLamination, X0: geo.FNPoint) -> RationalLamination:
    """Divide mu's weights by its total length at X0; idempotent."""
    if mu.is_zero():
        raise DomainError("cannot normalize the zero lamination")
    total = geo.lamination_length(X0, mu)
    components = tuple((c, w / total) for c, w in mu.components) if total else ()
    if not components or not all(0 < w < math.inf for _, w in components):
        raise DomainError(f"cannot normalize by the total length {total!r} at X0")
    return mu._replace(components=components)


# -- the ratio supremum ---------------------------------------------------------


def ratio_sup(nu: RationalLamination, mu: RationalLamination) -> float:
    """sup over curves/arcs of i(nu, .)/i(mu, .): max coefficient, or +inf.

    For rational laminations the components are the ergodic pieces, so the
    supremum is max f_j when nu = sum f_j mu_j, and +inf when nu charges a
    class outside mu's support.
    """
    if mu.is_zero():
        raise DomainError("base lamination must be nonzero")
    if nu.is_zero():
        return 0.0
    base, nu_weights = (dict(m.components) for m in (mu, nu))
    if not nu_weights.keys() <= base.keys():
        return math.inf
    return max(nu_weights.get(c, 0.0) / w for c, w in base.items())


# -- Dehn-Thurston coordinates ----------------------------------------------------


class DTCoordinates(NamedTuple):
    """Per interior curve (i, theta) with (0, t) ~ (0, -t); per boundary
    the collapsed coordinate theta_hat (positive: total arc endpoint count;
    negative: minus the boundary-leaf weight; zero: neither)."""

    surface: Surface
    curves: tuple    # ((label, (i, theta)), ...)
    boundary: tuple  # ((label, theta_hat), ...)

    def curve_dict(self):
        return dict(self.curves)

    def boundary_dict(self):
        return dict(self.boundary)


def sphere_dimension(surface: Surface) -> tuple[int, int]:
    """(coordinate dimension 6g-6+3b+2p, sphere dimension one less)."""
    sig = surface.signature
    dim = 6 * sig.genus - 6 + 3 * sig.boundary + 2 * sig.punctures
    return dim, dim - 1


def dt_encode(mu: RationalLamination) -> DTCoordinates:
    """Coordinates of a decomposition-adapted lamination.

    Supported components: boundary and interior leaves, pants-local arcs,
    and torus slope classes.  Twisted torus arcs wind around the interior
    curve and are outside the adapted subspace.
    """
    surface = mu.surface
    curves = []
    for label in surface.interior_curves:
        target = CurveClass("interior", label)
        i_val, theta = 0.0, 0.0
        for c, w in mu.components:
            if isinstance(c, ArcClass):
                if c.host is not None:
                    raise UnsupportedCoordinatesError(
                        "twisted arcs are not decomposition-adapted")
                continue
            if isinstance(c, CurveClass) and c.label == label:
                theta += w  # a leaf on the curve is pure twist
                continue
            i_val += w * class_intersection(surface, c, target)
            slope = surface.slope_of(c)
            if slope is not None and label == surface._slope_host:
                theta += w * slope[0]
        if i_val == 0.0:
            theta = abs(theta)  # canonical form of the (0, t) ~ (0, -t) quotient
        curves.append((label, (i_val, theta)))
    boundary = []
    for label in surface.boundaries:
        target = CurveClass("boundary", label)
        hits = sum(w * class_intersection(surface, c, target)
                   for c, w in mu.components if isinstance(c, ArcClass))
        if hits > 0:
            boundary.append((label, hits))
        else:
            w = mu.weight_of(CurveClass("boundary", label))
            boundary.append((label, -w if w > 0 else 0.0))
    return DTCoordinates(surface, tuple(curves), tuple(boundary))


def _pants_arc(surface: Surface, j: int, k: int) -> ArcClass:
    """The pants arc a_jk from B_j to B_k (back to B_j when j == k)."""
    return surface.arc_alias(f"a{min(j, k)}{max(j, k)}")


def _decode_pants(surface: Surface, theta_hats) -> RationalLamination:
    m = {j: max(theta_hats[f"B{j}"], 0.0) for j in (1, 2, 3)}
    weights: dict = {}
    dominant = None
    for j in (1, 2, 3):
        rest = [m[k] for k in (1, 2, 3) if k != j]
        if m[j] > rest[0] + rest[1]:
            dominant = j
    if dominant is None:
        for j, k in ((1, 2), (1, 3), (2, 3)):
            g = ({1, 2, 3} - {j, k}).pop()
            w = 0.5 * (m[j] + m[k] - m[g])
            if w > 0:
                weights[_pants_arc(surface, j, k)] = w
    else:
        j = dominant
        others = [k for k in (1, 2, 3) if k != j]
        w_same = 0.5 * (m[j] - m[others[0]] - m[others[1]])
        if w_same > 0:
            weights[_pants_arc(surface, j, j)] = w_same
        for k in others:
            if m[k] > 0:
                weights[_pants_arc(surface, j, k)] = m[k]
    for j in (1, 2, 3):
        th = theta_hats[f"B{j}"]
        if th < 0:
            weights[CurveClass("boundary", f"B{j}")] = -th
    return rational_lamination(surface, weights)


def _decode_torus(surface: Surface, curve_coords, theta_hats) -> RationalLamination:
    i_val, theta = curve_coords["C1"]
    th_b = theta_hats["B1"]
    weights: dict = {}
    if i_val < 0:
        raise UnsupportedCoordinatesError("intersection coordinate must be >= 0")
    if i_val == 0.0:
        if theta != 0.0:
            weights[CurveClass("interior", "C1")] = abs(theta)
    else:
        from fractions import Fraction  # only here: keeps it off the import path
        frac = Fraction(theta / i_val).limit_denominator(10 ** 6)
        p, q = frac.numerator, frac.denominator
        if abs(theta * q - i_val * p) > 1e-9 * max(1.0, abs(theta), i_val):
            raise UnsupportedCoordinatesError(
                "coordinates are not a weighted rational slope class")
        weights[surface.slope_curve(p, q)] = i_val / q
    if th_b > 0:
        if i_val != 0.0:
            raise UnsupportedCoordinatesError(
                "arc coordinates with a curve crossing C1 are outside the "
                "representable subspace")
        base_arc = surface.pants_arcs()[0]
        weights[base_arc] = th_b / 2.0
    elif th_b < 0:
        weights[CurveClass("boundary", "B1")] = -th_b
    return rational_lamination(surface, weights)


def dt_decode(surface: Surface, coords: DTCoordinates) -> RationalLamination:
    """Inverse of dt_encode on the representable subspace; rejects the rest."""
    if surface.is_pants():
        return _decode_pants(surface, coords.boundary_dict())
    if surface.is_torus():
        return _decode_torus(surface, coords.curve_dict(), coords.boundary_dict())
    raise UnsupportedSurfaceError(
        "coordinate decoding is registered for tier-1 surfaces only")


def dt_double_coordinates(mu: RationalLamination) -> dict:
    """Coordinates of the symmetric double: mirror curves get (i, -theta),
    former boundary curves get twist 0 whenever they are crossed."""
    coords = dt_encode(mu)
    out = {}
    for label, (i_val, theta) in coords.curves:
        out[label] = (i_val, theta)
        out[label + "m"] = (i_val, -theta)
    for label, th in coords.boundary:
        if th > 0:
            out[label] = (th, 0.0)
        else:
            out[label] = (0.0, -th if th < 0 else 0.0)
    return out


# -- refinement -------------------------------------------------------------------


def _loose_disjoint(surface: Surface, cand, comps) -> bool:
    """Disjoint up to arc endpoints resting on boundary leaves."""
    for c, _ in comps:
        if isinstance(cand, ArcClass) and isinstance(c, CurveClass) \
                and c.kind == "boundary":
            continue  # endpoint contact allowed
        if not _disjoint(surface, cand, c):
            return False
    return True


def _completion_holds(surface: Surface, comps, panel: Panel) -> bool:
    classes = [c for c, _ in comps]
    for b in surface.boundaries:
        carries = any(isinstance(c, CurveClass) and c.label == b for c in classes)
        met = any(isinstance(c, ArcClass) and b in c.endpoints() for c in classes)
        if not (carries or met):
            return False
    for entry in panel:
        if not isinstance(entry, ArcClass) or entry in classes:
            continue
        if all(class_intersection(surface, c, entry) == 0.0 for c in classes):
            return False
    return True


def refinement_complete(mu: RationalLamination, panel: Panel) -> bool:
    """Public check of the blocking property refine() guarantees: every
    boundary carries a leaf or meets an arc, and every panel arc outside the
    lamination intersects it."""
    return _completion_holds(mu.surface, list(mu.components), panel)


def refine(mu: RationalLamination):
    """Extend mu to a lamination meeting every boundary and blocking every
    panel arc; returns (mu_hat, zeta) with mu_hat = mu + zeta.

    Step I adds boundary leaves disjoint from mu; step II adds panel arcs in
    panel order (allowing endpoint contact with existing boundary leaves);
    step III adds decomposition curves if arcs cannot finish the job.  Added
    classes carry unit weight.  Deterministic: candidates are scanned in
    panel order, and nothing is added once the blocking property holds.  The
    panel is level 3 on the torus (its word classes), level 0 on the pants.
    """
    surface = mu.surface
    if not surface.tier1:
        raise UnsupportedSurfaceError("refinement is registered on tier-1 only")
    panel = enumerate_panel(surface, 3 if surface.is_torus() else 0)
    comps = list(mu.components)
    added: list = []

    def current():
        return comps + [(c, 1.0) for c in added]

    if not _completion_holds(surface, current(), panel):
        added += [b for b in surface.boundary_classes()  # step I
                  if b not in mu.classes()
                  and all(_disjoint(surface, b, c) for c in mu.classes())]
        candidates = [e for e in panel if isinstance(e, ArcClass)]
        candidates += [e for e in panel if isinstance(e, CurveClass)
                       and e.kind in ("interior", "word")]  # step III
        complete = _completion_holds(surface, current(), panel)
        for cand in candidates:  # the lamination only grows: one pass
            if complete:
                break
            if cand not in mu.classes() \
                    and _loose_disjoint(surface, cand, current()):
                added.append(cand)
                complete = _completion_holds(surface, current(), panel)
        if not complete:
            raise DomainError(
                "refinement cannot complete: no addable class remains")

    mu_hat = rational_lamination(surface, current())
    zeta = RationalLamination(surface,
                              tuple((c, 1.0) for c in added))
    return mu_hat, zeta


# -- serialization ----------------------------------------------------------------


def sample_supported_lamination(surface: Surface, rng) -> RationalLamination:
    """Random nonzero lamination that dt_encode accepts (tier-1 surfaces):
    pants arcs and boundary leaves, or on the torus C1, B1, the base arc and
    slopes w(p, q), |p|, q <= 3, whose twist coordinate is nonzero if p != 0."""
    def w():
        return rng.uniform(0.2, 3.0)

    if surface.is_pants():
        kind = rng.randrange(3)
        weights: dict = {}
        if kind == 0:  # triangle family plus untouched-boundary leaves
            picks = [surface.arc_alias(a) for a in ("a12", "a13", "a23")
                     if rng.random() < 0.7]
            for arc in picks:
                weights[arc] = w()
            touched = {e for arc in picks for e in arc.endpoints()}
            for b in surface.boundaries:
                if b not in touched and rng.random() < 0.5:
                    weights[CurveClass("boundary", b)] = w()
        elif kind == 1:  # dominant same-boundary arc family
            j = rng.choice((1, 2, 3))
            weights[_pants_arc(surface, j, j)] = w()
            for k in (1, 2, 3):
                if k != j and rng.random() < 0.5:
                    weights[_pants_arc(surface, j, k)] = w()
        else:  # boundary leaves only
            for b in surface.boundaries:
                if rng.random() < 0.6:
                    weights[CurveClass("boundary", b)] = w()
        if not weights:
            weights[surface.arc_alias("a12")] = w()
        return rational_lamination(surface, weights)

    if surface.is_torus():
        kind = rng.randrange(3)
        weights = {}
        if kind == 0:  # weighted slope class, maybe with a boundary leaf
            q = rng.randrange(0, 4)
            p = rng.randrange(-3, 4)
            if q == 0:
                p = 1
            if math.gcd(abs(p), q) != 1:
                p, q = 1, max(q, 1)
            weights[surface.slope_curve(p, q)] = w()
            if rng.random() < 0.5:
                weights[CurveClass("boundary", "B1")] = w()
        elif kind == 1:  # curve leaf plus the base arc
            weights[CurveClass("interior", "C1")] = w()
            weights[surface.pants_arcs()[0]] = w()
        else:
            weights[surface.pants_arcs()[0]] = w()
        return rational_lamination(surface, weights)
    raise UnsupportedSurfaceError("sampler registered for tier-1 surfaces")


def lamination_to_dict(mu: RationalLamination) -> list:
    return [{"class_id": str(c), "weight": w} for c, w in mu.components]


def lamination_from_dict(surface: Surface, data) -> RationalLamination:
    """Lamination from a list of {"class_id": id, "weight": w} items; a
    class named twice, under one id or two, is refused."""
    if not isinstance(data, (list, tuple)):
        raise DomainError(f"a lamination is a list of class_id/weight items, "
                          f"got {data!r}")
    pairs = []
    for item in data:
        try:
            class_id, weight = item["class_id"], float(item["weight"])
        except (TypeError, KeyError, ValueError):
            raise DomainError(f"lamination item {item!r} needs a class_id and "
                              f"a numeric weight") from None
        pairs.append((top.class_from_id(surface, class_id), weight))
    return rational_lamination(surface, pairs)


def dt_to_dict(coords: DTCoordinates) -> dict:
    out = {label: list(iv) for label, iv in coords.curves}
    out.update({label: th for label, th in coords.boundary})
    return out
