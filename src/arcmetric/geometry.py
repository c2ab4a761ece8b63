"""Fenchel-Nielsen points, the doubling embedding, and geodesic lengths.

Lengths of decomposition and boundary curves are Fenchel-Nielsen coordinates
and exact; pants-local arcs go through the closed-form pants formulas;
slope curves on the one-holed torus (and the hosts of its twisted arcs) go
through the log-space trace descent of hyptrig.torus_slope_length; word
classes on doubles go through explicit holonomy matrices (trace-length
relation l = 2 arccosh(|tr|/2)).

Twists are hyperbolic lengths, positive = right twist; the mirror side of a
double carries negated twists.

The holonomy layer (and with it numpy) is imported on the first holonomy
build, so the closed-form routes run on the standard library alone.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import hyptrig as ht
from .errors import DomainError, UnsupportedClassError
from .topology import (ArcClass, CurveClass, Surface, SurfaceSignature,
                       build_surface, double_topology)

_TORUS_SIG = SurfaceSignature(1, 0, 1)


class FNPoint(NamedTuple):
    """Marked hyperbolic structure in Fenchel-Nielsen coordinates.

    interior maps each decomposition curve to (length, twist); boundary maps
    each boundary label to its length.  Stored as sorted tuples so points
    are hashable (holonomy realizations are cached per point).
    """

    surface: Surface
    interior: tuple
    boundary: tuple

    def interior_dict(self) -> dict:
        return dict(self.interior)

    def boundary_dict(self) -> dict:
        return dict(self.boundary)

    def length_of(self, label: str) -> float:
        for lab, v in self.boundary:
            if lab == label:
                return v
        for lab, (length, _) in self.interior:
            if lab == label:
                return length
        raise DomainError(f"no coordinate curve {label!r} on {self.surface.signature}")

    def with_lengths(self, lengths: dict) -> FNPoint:
        """This point with every coordinate length taken from `lengths`
        (label -> length), checked as fn_point checks it; twists kept."""
        interior = tuple((label, (_checked_length(label, lengths[label]), twist))
                         for label, (_, twist) in self.interior)
        boundary = tuple((label, _checked_length(label, lengths[label]))
                         for label, _ in self.boundary)
        return FNPoint(self.surface, interior, boundary)


def _checked_length(label: str, length) -> float:
    if not (math.isfinite(length) and length > 0):
        raise DomainError(f"length of {label} must be positive and finite")
    return float(length)


def fn_point(surface: Surface, interior: dict | None = None,
             boundary: dict | None = None) -> FNPoint:
    interior = dict(interior or {})
    boundary = dict(boundary or {})
    if set(interior) != set(surface.interior_curves):
        raise DomainError(
            f"interior coordinates must cover {surface.interior_curves}")
    if set(boundary) != set(surface.boundaries):
        raise DomainError(f"boundary coordinates must cover {surface.boundaries}")
    int_items = []
    for label in sorted(interior):
        v = interior[label]
        length, twist = (v if isinstance(v, tuple) else (v, 0.0))
        length = _checked_length(label, length)
        if not math.isfinite(twist):
            raise DomainError(f"twist of {label} must be finite")
        int_items.append((label, (length, float(twist))))
    bdy_items = [(label, _checked_length(label, float(boundary[label])))
                 for label in sorted(boundary)]
    return FNPoint(surface, tuple(int_items), tuple(bdy_items))


def pants_surface() -> Surface:
    return build_surface(0, 0, 3)


def torus_surface() -> Surface:
    return build_surface(1, 0, 1)


def pants_point(l1: float, l2: float, l3: float) -> FNPoint:
    return fn_point(pants_surface(), {}, {"B1": l1, "B2": l2, "B3": l3})


def torus_point(l_curve: float, twist: float, l_boundary: float) -> FNPoint:
    return fn_point(torus_surface(), {"C1": (l_curve, twist)},
                    {"B1": l_boundary})


def double_point(X: FNPoint) -> FNPoint:
    """The doubled structure: mirror twists negated, boundary twists zero."""
    if X.surface.double_of is not None:
        raise DomainError("point is already on a double")
    dsurf = double_topology(X.surface)
    interior = {}
    for label, (length, twist) in X.interior:
        interior[label] = (length, twist)
        interior[label + "m"] = (length, -twist)
    for label, length in X.boundary:
        interior[label] = (length, 0.0)
    return fn_point(dsurf, interior, {})


@lru_cache(maxsize=256)
def holonomy_build(X: FNPoint):
    """holonomy.Holonomy of a pants or a tier-1 double; loads numpy."""
    from . import holonomy as ho

    return ho.point_holonomy(X)


# -- length evaluation ----------------------------------------------------------


def _side_length(X: FNPoint, label: str) -> float:
    """Length of a pants side: coordinate curve, or 0 for a puncture."""
    if label in X.surface.punctures:
        return 0.0
    return X.length_of(label)


def curve_length(X: FNPoint, curve: CurveClass) -> float:
    """Geodesic length of a curve class at X."""
    if curve.kind in ("boundary", "interior"):
        return X.length_of(curve.label)
    if curve.kind == "word":
        if X.surface.signature == _TORUS_SIG and curve.slope is not None:
            return _torus_slope_length(X, *curve.slope)
        if X.surface.double_of is not None:
            return holonomy_build(X).word_length(curve.label)
        raise UnsupportedClassError(
            f"word class {curve.label!r} unsupported on {X.surface.signature}")
    raise UnsupportedClassError(f"unknown curve kind {curve.kind!r}")


def _torus_slope_length(X: FNPoint, p: int, q: int) -> float:
    (_, (lC, tau)), = X.interior
    return ht.torus_slope_length(lC, tau, X.length_of("B1"), p, q)


def arc_length(X: FNPoint, arc: ArcClass) -> float:
    """Length of the orthogeodesic arc at X, via the pants formulas.

    The formulas take the host pants' side lengths; on the one-holed torus a
    twisted arc's host pants is bounded by the slope-(1, k) curve, whose
    length comes from the torus trace descent.
    """
    if X.surface.double_of is not None:
        raise DomainError("arcs live on bordered surfaces, not doubles")
    pattern = arc.pattern
    if arc.twist != 0:
        if X.surface.signature != _TORUS_SIG:
            raise UnsupportedClassError("twisted arcs are registered on the "
                                        "one-holed torus only")
        host = _torus_slope_length(X, 1, arc.twist)
        return ht.arc_length_same_boundary(X.length_of("B1"), host, host)
    if pattern[0] == "same":
        lb = _side_length(X, pattern[1])
        return ht.arc_length_same_boundary(lb, _side_length(X, pattern[2]),
                                           _side_length(X, pattern[3]))
    lb1 = _side_length(X, pattern[1])
    lb2 = _side_length(X, pattern[2])
    return ht.arc_length_distinct_boundaries(lb1, lb2, _side_length(X, pattern[3]))


def _pants_arc_alias(arc: ArcClass) -> str:
    pat = arc.pattern
    if pat[0] == "same":
        j = pat[1][1]
        return f"a{j}{j}"
    return f"a{pat[1][1]}{pat[2][1]}"


def class_length(X: FNPoint, cls) -> float:
    """Length of a CurveClass or ArcClass (panel-entry dispatch)."""
    if isinstance(cls, ArcClass):
        return arc_length(X, cls)
    return curve_length(X, cls)


class LengthPlan:
    """Length vectors of an ordered list of classes, compiled once.

    Each entry gets a route, evaluated from a {label: length} map of the
    point (punctures 0.0): a coordinate curve reads its label, an untwisted
    arc with its endpoints on coordinate curves of a bordered surface calls
    a hyptrig formula core (looked up when the plan is built) on the log
    terms of its sides, and everything else (word curves, twisted torus
    arcs, classes on doubles, labels the surface lacks) falls back to
    class_length.  Values equal [class_length(X, e) for e in entries] bit
    for bit, at points of the plan's surface; a point of another surface is
    a DomainError.  The plan also keeps the intersection vector of each
    lamination it is asked for.
    """

    def __init__(self, surface: Surface, entries):
        self.surface = surface
        self.entries = tuple(entries)
        labels = set(surface.boundaries) | set(surface.interior_curves)
        sides = labels | set(surface.punctures)
        same, distinct = ht.arc_same_from_logs, ht.arc_distinct_from_logs
        routes = []  # (input labels, evaluate(lengths, log cosh, log sinh) or None)
        arc_sides = set()  # labels whose log terms a formula reads
        for entry in self.entries:
            if isinstance(entry, CurveClass) \
                    and entry.kind in ("boundary", "interior") \
                    and entry.label in labels:
                routes.append(((entry.label,), lambda L, C, S, a=entry.label: L[a]))
            elif isinstance(entry, ArcClass) and entry.twist == 0 \
                    and surface.double_of is None \
                    and sides.issuperset(entry.pattern[1:]) \
                    and labels.issuperset(entry.endpoints()):
                kind, a, b, c = entry.pattern
                if kind == "same":  # from a back to a, separating b and c
                    evaluate = lambda L, C, S, a=a, b=b, c=c: same(
                        L[b], L[c], C[a], S[a], C[b], C[c])
                else:  # from a to b, c the third side
                    evaluate = lambda L, C, S, a=a, b=b, c=c: distinct(
                        L[a], L[b], C[c], S[a], S[b])
                routes.append(((a, b, c), evaluate))
                arc_sides.update((a, b, c))
            else:
                routes.append(((), None))
        self._routes, self._sides = routes, arc_sides
        self._log_terms = ht.log_cosh, ht.log_sinh
        self._punctures = dict.fromkeys(surface.punctures, 0.0)
        self._intersections = []  # (lamination, its intersection vector)

    def vector(self, X: FNPoint) -> list[float]:
        """[class_length(X, e) for e in entries]: the one-point walk."""
        if X.surface is not self.surface and X.surface != self.surface:
            raise DomainError("point and length plan live on different surfaces")
        held = {label: _checked_length(label, length) for label, length in
                X.boundary + tuple((label, v) for label, (v, _) in X.interior)}
        return next(self.walk(held, ({},), lambda lengths: X))

    def walk(self, held: dict, moving, point, skip=()):
        """Yield the length vector at each point of a path, a new list each.

        held maps the labels every point shares to their (checked) lengths;
        moving yields the checked lengths of the other labels, point by
        point.  A label's log terms are computed once per point, a held
        label's once.  The first point is evaluated in full, in entry order;
        later ones re-evaluate the entries with a moving input and fallback
        entries, which read point(lengths), built once per point.  An entry
        raising one of `skip` holds that exception from then on."""
        log_cosh, log_sinh = self._log_terms
        lengths = {**self._punctures, **held}
        lc, ls = {}, {}

        def log_terms(labels):
            for label in self._sides.intersection(labels):
                lc[label] = log_cosh(lengths[label] / 2)
                if label not in self._punctures:
                    ls[label] = log_sinh(lengths[label] / 2)

        log_terms(lengths)
        routes, entries = self._routes, self.entries
        moving_entries = [k for k, (inputs, evaluate) in enumerate(routes)
                          if evaluate is None or not lengths.keys() >= set(inputs)]
        vec, indices = [0.0] * len(entries), range(len(entries))
        for row in moving:
            lengths.update(row)
            log_terms(row)
            X = None
            for k in indices:
                evaluate = routes[k][1]
                try:
                    if evaluate is None:
                        X = point(lengths) if X is None else X
                        vec[k] = class_length(X, entries[k])
                    else:
                        vec[k] = evaluate(lengths, lc, ls)
                except skip as exc:
                    vec[k] = exc
            if skip:
                moving_entries = [k for k in moving_entries
                                  if not isinstance(vec[k], skip)]
            yield vec
            vec, indices = vec.copy(), moving_entries

    def intersections(self, mu) -> tuple:
        """(i(mu, e) for e in entries), computed once per lamination."""
        for seen, ivals in self._intersections:
            if seen is mu:
                return ivals
        from . import lamination as lam  # lamination imports this module

        ivals = tuple(lam.intersection_number(mu, e) for e in self.entries)
        self._intersections.append((mu, ivals))
        return ivals


def panel_plan(panel) -> LengthPlan:
    """The LengthPlan of a Panel; a LengthPlan is returned as it is."""
    if isinstance(panel, LengthPlan):
        return panel
    return LengthPlan(panel.surface, panel.entries)


def lamination_length(X: FNPoint, lamination) -> float:
    """Total weighted length; linear in the weights."""
    plan = LengthPlan(X.surface, [c for c, _ in lamination.components])
    return sum(w * length for (_, w), length
               in zip(lamination.components, plan.vector(X)))


def fn_to_dict(X: FNPoint) -> dict:
    """JSON form: {curve-id: {"length":..., "twist":...}, boundary-id: length}."""
    out = {}
    for label, (length, twist) in X.interior:
        out[label] = {"length": length, "twist": twist}
    for label, length in X.boundary:
        out[label] = length
    return out


def fn_from_dict(surface: Surface, data: dict) -> FNPoint:
    interior, boundary = {}, {}
    try:
        for label, v in data.items():
            if isinstance(v, dict):
                interior[label] = (float(v["length"]), float(v.get("twist", 0.0)))
            else:
                boundary[label] = float(v)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
        raise DomainError(f"a point maps each label to a length or to "
                          f"{{length, twist}}, got {data!r}") from None
    return fn_point(surface, interior, boundary)
