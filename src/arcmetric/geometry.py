"""Fenchel-Nielsen points, the doubling embedding, and geodesic lengths.

Every length is a log length from one map, _route, compiled once per class
and surface into the surface's route table: decomposition and boundary
curves are Fenchel-Nielsen coordinates and exact; pants-local arcs use the
closed-form pants formulas, torus slope curves (and the hosts of twisted
torus arcs) hyptrig.torus_slope_length, and any other class is a typed
error.  log_lengths reads classes at a point, walk along a path, and
class_length is e^ of the log.  No lamination reaches this layer.

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
    reads its log length, an untwisted pants arc calls a hyptrig core, and a
    torus slope or twisted torus arc goes through torus_slope_length; any
    other class is refused with a typed error when it is compiled.
    """
    labels, punctures = surface.boundaries + surface.interior_curves, surface.punctures
    torus, slope = surface.signature == (1, 0, 1), ht.torus_slope_length
    if not isinstance(cls, ArcClass):
        if cls.kind in ("boundary", "interior"):
            if cls.label not in labels:
                raise DomainError(f"no coordinate curve {cls.label!r} "
                                  f"on {surface.signature}")
            return (cls.label,), lambda P, L, C, S, T, a=cls.label: L[a]
        if cls.kind != "word":
            raise UnsupportedClassError(f"unknown curve kind {cls.kind!r}")
        if not torus or cls.slope is None:
            raise UnsupportedClassError(f"word class {cls.label!r} "
                                        f"unsupported on {surface.signature}")
        return ("C1", "B1"), lambda P, L, C, S, T, p=cls.slope[0], q=cls.slope[1]: \
            slope(L["C1"], T["C1"], L["B1"], p, q)
    if surface.double_of is not None:
        raise DomainError("arcs live on bordered surfaces, not doubles")
    if cls.twist != 0:
        if not torus:
            raise UnsupportedClassError("twisted arcs are registered "
                                        "on the one-holed torus only")

        def twisted(P, L, C, S, T, k=cls.twist, same=ht.arc_same_from_logs):
            # the host pants is bounded by the boundary and two copies of
            # the slope-(1, k) curve
            host = ht.log_cosh(math.exp(slope(L["C1"], T["C1"], L["B1"], 1, k)) / 2)
            return same(C["B1"], S["B1"], host, host)
        return ("C1", "B1"), twisted
    kind, a, b, c = cls.pattern
    for label in (a, b, c):
        if label not in labels and label not in punctures:
            raise DomainError(f"no coordinate curve {label!r} on {surface.signature}")
    if kind == "same":  # from a back to a, separating b and c
        if a in punctures:
            raise DomainError("arc from a cusp is undefined (lb = 0)")
        return (a, b, c), lambda P, L, C, S, T, same=ht.arc_same_from_logs: same(
            C[a], S[a], C[b], C[c])
    if a in punctures or b in punctures:  # from a to b, c the third side
        raise DomainError("arc endpoint on a cusp is undefined (lb = 0)")
    return (a, b, c), lambda P, L, C, S, T, distinct=ht.arc_distinct_from_logs: \
        distinct(P[a], P[b], C[c], S[a], S[b])


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
    """The log length at X of each of the entries, the one-point walk: a
    class without a length is refused first, then a point off surface."""
    routes = [_compiled(surface, entry) for entry in entries]
    if X.surface is not surface and X.surface != surface:
        raise DomainError("point and length plan live on different surfaces")
    held = {label: _checked_length(label, length) for label, length in
            X.boundary + tuple((label, v) for label, (v, _) in X.interior)}
    twists = {label: twist for label, (_, twist) in X.interior}
    return next(_walk(surface, routes, held, ({},), twists))


def walk(surface: Surface, entries, held: dict, moving, twists: dict):
    """Yield the log length vector of the entries at each point of a path
    on surface, a new list each: held maps the labels every point shares to
    their checked lengths, moving yields the others' log lengths (at most
    log(DBL_MAX)) point by point, twists maps interior labels to twists.
    Log terms are computed once per point (a held label's once); after the
    first point only the entries with a moving input are re-evaluated."""
    return _walk(surface, [_compiled(surface, entry) for entry in entries],
                 held, moving, twists)


def _walk(surface, routes, held, moving, twists):
    lengths = {**dict.fromkeys(surface.punctures, 0.0), **held}
    logs = {a: math.log(v) if v else -math.inf for a, v in lengths.items()}
    lc = {a: ht.log_cosh(v / 2) for a, v in lengths.items()}
    ls = {a: ht.log_sinh_half(v, logs[a]) for a, v in lengths.items()}
    moving_entries = [k for k, (inputs, _) in enumerate(routes)
                      if not lengths.keys() >= set(inputs)]
    vec, indices = [0.0] * len(routes), range(len(routes))
    for row in moving:
        for label, log_length in row.items():
            length = lengths[label] = math.exp(log_length)
            logs[label], lc[label] = log_length, ht.log_cosh(length / 2)
            ls[label] = ht.log_sinh_half(length, log_length)
        for k in indices:
            vec[k] = routes[k][1](lengths, logs, lc, ls, twists)
        yield vec
        vec, indices = vec.copy(), moving_entries


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
