"""The arc metric, horofunctions, and convergence in the length-vector sense.

All suprema over curves and arcs are truncated to a finite panel; on the
pair of pants the nine-entry panel is the complete family, so there the
values are exact.  Every result reports the panel complexity it used, and
is monotone nondecreasing under refinement.  Lengths arrive as logs from
geometry.log_lengths: a supremum of ratios is a maximum of differences, and
a normalized vector, exp(log l - max log l), is finite off the doubles too.

One functional xi on the panel gives both compactifications: the lengths
l(X) of a point or the intersection numbers i(mu, .) of a lamination.  The
Thurston side is its projective class [xi] (_projective), and the horofunction
side is Psi_xi(Y) = log sup xi/l(Y) - log sup xi/l(X0).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import geometry as geo
from . import lamination as lam
from .errors import DegeneratePanelError, DomainError
from .topology import Panel


class MetricValue(NamedTuple):
    """log of the panel supremum, with the entry attaining it."""

    value: float
    maximizer: str
    panel_complexity: int


def _log_sup_ratio(lx, ly) -> tuple:
    """(max of ly - lx, index of the first entry attaining it): log sup of
    the ratios of two vectors held as logs; (-inf, None) if ly is all -inf."""
    best, best_index = -math.inf, None
    for k, (a, b) in enumerate(zip(lx, ly)):
        if b - a > best:
            best, best_index = b - a, k
    return best, best_index


def _logs(values) -> list:
    """log of each nonnegative value, -inf for 0."""
    return [math.log(v) if v > 0 else -math.inf for v in values]


def _projective(logs) -> tuple[float, ...]:
    """The projective class of a vector held as logs, at sup-norm 1."""
    top = max(logs)
    return tuple(math.exp(v - top) for v in logs)


def arc_metric(X: geo.FNPoint, Y: geo.FNPoint, panel: Panel) -> MetricValue:
    """d(X, Y) = log sup of length ratios l(Y)/l(X) over the panel.

    Ties are broken by panel order, so reports are deterministic.
    """
    if X.surface != Y.surface:
        raise DomainError("points live on different surfaces")
    value, k = _log_sup_ratio(*(geo.log_lengths(panel.surface, panel.entries, P)
                                for P in (X, Y)))
    return MetricValue(value, str(panel.entries[k]), panel.complexity)


def thurston_vector(X: geo.FNPoint, panel: Panel) -> tuple[float, ...]:
    """Panel length vector normalized to sup-norm 1 (projective class)."""
    return _projective(geo.log_lengths(panel.surface, panel.entries, X))


# -- horofunctions -----------------------------------------------------------------


def _log_intersections(mu, entries) -> list:
    """log i(mu, e) for each of the entries (-inf where mu misses e)."""
    if mu.is_zero():
        raise DomainError("boundary horofunction needs a nonzero lamination")
    return _logs(lam.intersection_vector(mu, entries))


def _normalizer(log_xi, base_lengths) -> float:
    """log sup xi/l(., X0), the constant of Psi_xi."""
    best = _log_sup_ratio(base_lengths, log_xi)[0]
    if best == -math.inf:
        raise DegeneratePanelError("the panel misses the lamination at the base point")
    return best


class Horofunction(NamedTuple):
    """Psi_xi(Y) = log sup xi/l(Y) - constant: entries are the panel
    entries where xi > 0, log_xi holds log xi on them, and constant =
    max(log_xi - l(X0)) = log sup xi/l(X0), so Psi_xi(X0) = 0."""

    base_point: geo.FNPoint
    entries: tuple
    log_xi: tuple
    constant: float


def _horofunction(base_point, panel, entries, log_xi) -> Horofunction:
    entries, log_xi = tuple(entries), tuple(log_xi)
    base_lengths = geo.log_lengths(panel.surface, entries, base_point)
    return Horofunction(base_point, entries, log_xi, _normalizer(log_xi, base_lengths))


def interior_horofunction(X: geo.FNPoint, base_point: geo.FNPoint,
                          panel: Panel) -> Horofunction:
    """Psi_xi for xi = l(X), on every panel entry: d(., X) - d(X0, X)."""
    return _horofunction(base_point, panel, panel.entries,
                         geo.log_lengths(panel.surface, panel.entries, X))


def boundary_horofunction(mu: lam.RationalLamination, base_point: geo.FNPoint,
                          panel: Panel) -> Horofunction:
    """Psi_xi for xi = i(mu, .), on the panel entries mu crosses."""
    entries = panel.entries
    for entry in entries:  # a class without a length is refused, crossed or not
        geo._compiled(panel.surface, entry)
    crossed = [(e, v) for e, v in zip(entries, _log_intersections(mu, entries))
               if v > -math.inf]
    return _horofunction(base_point, panel, [e for e, _ in crossed],
                         [v for _, v in crossed])


def horofunction_eval(h: Horofunction, Y: geo.FNPoint) -> float:
    """Psi_xi(Y) = log sup xi/l(Y) - log sup xi/l(X0)."""
    lengths = geo.log_lengths(h.base_point.surface, h.entries, Y)
    return _log_sup_ratio(lengths, h.log_xi)[0] - h.constant


# -- convergence detection ------------------------------------------------------------


def normalized_length_vector(X: geo.FNPoint, base_point: geo.FNPoint,
                             panel: Panel) -> tuple[float, ...]:
    """Lengths at X divided by the maximal ratio against the base point.

    This is the quantity whose convergence characterizes convergence in the
    compactification: toward an interior point it tends to that point's
    lengths, toward a projective lamination it tends to a multiple of the
    intersection-number vector.
    """
    return _normalized(*(geo.log_lengths(panel.surface, panel.entries, P)
                         for P in (X, base_point)))


def _normalized(logs, base) -> tuple[float, ...]:
    """The lengths of logs divided by their maximal ratio against base."""
    sup = _log_sup_ratio(base, logs)[0]
    return tuple(math.exp(v - sup) for v in logs)


class LimitReport(NamedTuple):
    kind: str  # "interior" | "boundary" | "none"
    panel_complexity: int
    point: geo.FNPoint | None = None
    projective_vector: tuple | None = None


def detect_limit(points, panel: Panel, tolerance: float = 1e-6,
                 base_point: geo.FNPoint | None = None) -> LimitReport:
    """Classify the limit of a sequence from its last two normalized vectors.

    Interior limits are recognized by the Fenchel-Nielsen coordinates
    settling; boundary limits by the normalized vectors settling while the
    coordinates diverge.  Reports the panel complexity used (a too-small
    panel can misread a boundary limit on surfaces where the panel is not
    complete).
    """
    pts = list(points)
    if len(pts) < 2:
        raise DomainError("need at least two points to detect a limit")
    base, *logs = [geo.log_lengths(panel.surface, panel.entries, X)
                   for X in (base_point or pts[0], *pts[-2:])]
    prev, last = (_normalized(v, base) for v in logs)
    vec_step = max(abs(a - b) for a, b in zip(last, prev))
    if vec_step > tolerance:
        return LimitReport("none", panel.complexity)

    def coords(X):
        return [v for _, v in X.boundary] + [v for _, lt in X.interior for v in lt]

    coord_step = max(abs(a - b) for a, b in zip(coords(pts[-1]), coords(pts[-2])))
    if coord_step <= tolerance * max(1.0, max(map(abs, coords(pts[-1])))):
        return LimitReport("interior", panel.complexity, point=pts[-1])
    return LimitReport("boundary", panel.complexity,
                       projective_vector=_projective(logs[1]))
