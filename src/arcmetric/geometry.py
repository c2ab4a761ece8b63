"""Fenchel-Nielsen points, the doubling embedding, and geodesic lengths.

Every length is a log length from one map, _route, compiled once per class
and surface into the surface's route table: decomposition and boundary
curves are Fenchel-Nielsen coordinates and exact; pants-local arcs use the
closed-form pants formulas, slope curves (Surface.slope_of, also the hosts
of arcs) hyptrig.torus_slope_length, and any other class is a typed error.
walk reads classes along a path from a point, log_lengths is its walk of one
step, and class_length is e^ of the log.  No lamination reaches this layer,
and no class id: topology.class_from_id parses them.

Twists are hyperbolic lengths, positive = right twist; the mirror side of a
double carries negated twists.

holonomy_build, the explicit holonomy matrices that verify the formulas
(word lengths on doubles among them), loads the holonomy layer on first use;
like every length here, it runs on the standard library.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import hyptrig as ht
from .errors import DomainError, UnsupportedClassError
from .topology import ArcClass, CurveClass, Surface, build_surface, double_topology


class FNPoint(NamedTuple):
    """Marked hyperbolic structure in Fenchel-Nielsen coordinates.

    interior maps each decomposition curve to (length, twist); boundary maps
    each boundary label to its length.  Stored as sorted tuples so points
    are hashable (holonomy_build caches its realizations per point).
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
    """holonomy.Holonomy of a pants or a tier-1 double, the verification
    route (word lengths on doubles included)."""
    from . import holonomy as ho

    return ho.point_holonomy(X)


# -- length evaluation ----------------------------------------------------------


def _route(surface: Surface, cls) -> tuple:
    """(input labels, evaluate(lengths, logs, log cosh, log sinh, twists)):
    the one map from a class to its log length at points of surface, read
    from each label's length (0.0 for a puncture or an underflow), its log,
    log cosh and log sinh of half of it, and its twist.  A coordinate curve
    reads its log length, and a pants arc, slope curve or arc around one
    calls its hyptrig cores by name at each evaluation (a wrapper sees every
    call); any other class is refused with a typed error when it is compiled.
    """
    labels, punctures = surface.boundaries + surface.interior_curves, surface.punctures
    slope = surface.slope_of(cls)
    if not isinstance(cls, ArcClass):
        if cls.kind in ("boundary", "interior"):
            if cls.label not in labels:
                raise DomainError(f"no coordinate curve {cls.label!r} "
                                  f"on {surface.signature}")
            return (cls.label,), lambda P, L, C, S, T, a=cls.label: L[a]
        if cls.kind != "word":
            raise UnsupportedClassError(f"unknown curve kind {cls.kind!r}")
        if slope is None:
            raise UnsupportedClassError(f"word class {cls.label!r} "
                                        f"unsupported on {surface.signature}")
        return ("C1", "B1"), lambda P, L, C, S, T, p=slope[0], q=slope[1]: \
            ht.torus_slope_length(L["C1"], T["C1"], L["B1"], p, q)
    if surface.double_of is not None:
        raise DomainError("arcs live on bordered surfaces, not doubles")
    if cls.host is not None:  # the host pants: B1 and two copies of a slope curve
        if slope is None:
            raise UnsupportedClassError("twisted arcs are registered "
                                        "on the one-holed torus only")

        def around(P, L, C, S, T, p=slope[0], q=slope[1]):
            host = ht.log_cosh(math.exp(ht.torus_slope_length(
                L["C1"], T["C1"], L["B1"], p, q)) / 2)
            return ht.arc_same_from_logs(C["B1"], S["B1"], host, host)
        return ("C1", "B1"), around
    kind, a, b, c = cls.pattern
    for label in (a, b, c):
        if label not in labels and label not in punctures:
            raise DomainError(f"no coordinate curve {label!r} on {surface.signature}")
    if kind == "same":  # from a back to a, separating b and c
        if a in punctures:
            raise DomainError("arc from a cusp is undefined (lb = 0)")
        return (a, b, c), lambda P, L, C, S, T: ht.arc_same_from_logs(
            C[a], S[a], C[b], C[c])
    if a in punctures or b in punctures:  # from a to b, c the third side
        raise DomainError("arc endpoint on a cusp is undefined (lb = 0)")
    return (a, b, c), lambda P, L, C, S, T: ht.arc_distinct_from_logs(
        P[a], P[b], C[c], S[a], S[b])


def _compiled(surface: Surface, cls) -> tuple:
    """The _route of cls on surface, from the surface's route table."""
    routes = surface._routes
    route = routes.get(cls)
    if route is None:
        route = routes[cls] = _route(surface, cls)
    return route


def class_length(X: FNPoint, cls) -> float:
    """Length of a class at X: e^ of its log length; a coordinate as X holds it."""
    log_length = log_lengths(X.surface, (cls,), X)[0]
    if isinstance(cls, CurveClass) and cls.kind in ("boundary", "interior"):
        return X.length_of(cls.label)
    return ht._length_from_log(cls, log_length)


def log_lengths(surface: Surface, entries, X: FNPoint) -> list[float]:
    """The log length at X of each of the entries: the walk of one step."""
    return next(walk(surface, entries, X, ({},)))


def walk(surface: Surface, entries, X: FNPoint, rows):
    """Yield the log length vector of the entries at each point of a path
    from X on surface, a new list each: a class without a length is refused
    first, then a point off surface.  Each row maps the labels that move to
    their log lengths (at most log(DBL_MAX)) at the next point; every other
    label keeps X's length, and every point X's twists.  Log terms are
    computed only for the labels the entries read, once per point: a label
    of the first row from the rows alone, a held label's once, from X; after
    the first point only the entries that read a label of the first row are
    re-evaluated."""
    routes = [_compiled(surface, entry) for entry in entries]
    if X.surface is not surface and X.surface != surface:
        raise DomainError("point and entries live on different surfaces")
    coords = dict(X.boundary)
    coords.update((label, length) for label, (length, _) in X.interior)
    # route order, not a set's: it decides which bad length is reported
    lengths = {a: _checked_length(a, coords[a]) if a in coords else 0.0  # a puncture
               for a in dict.fromkeys(a for inputs, _ in routes for a in inputs)}
    logs, lc, ls = {}, {}, {}
    twists = {label: twist for label, (_, twist) in X.interior}
    vec, indices, moving = [0.0] * len(routes), range(len(routes)), None
    for row in rows:
        for label, log_length in row.items():
            length = lengths[label] = math.exp(log_length)
            logs[label], lc[label] = log_length, ht.log_cosh(length / 2)
            ls[label] = ht.log_sinh_half(length, log_length)
        if moving is None:  # the first point: the held labels' log terms
            for a, v in lengths.items():
                if a not in row:
                    logs[a] = math.log(v) if v else -math.inf
                    lc[a], ls[a] = ht.log_cosh(v / 2), ht.log_sinh_half(v, logs[a])
            moving = [k for k, (inputs, _) in enumerate(routes)
                      if not row.keys().isdisjoint(inputs)]
        for k in indices:
            vec[k] = routes[k][1](lengths, logs, lc, ls, twists)
        yield vec
        vec, indices = vec.copy(), moving


def lamination_length(X: FNPoint, lamination) -> float:
    """Total weighted length; linear in the weights."""
    return sum(w * class_length(X, c) for c, w in lamination.components)


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
