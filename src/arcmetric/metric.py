"""The arc metric, horofunctions, and convergence in the length-vector sense.

All suprema over curves and arcs are truncated to a finite panel; on the
pair of pants the nine-entry panel is the complete family, so there the
values are exact.  Every result reports the panel complexity it used, and
values are monotone nondecreasing under panel refinement.  Lengths arrive
as logs: a supremum of ratios is a maximum of differences, and a normalized
vector is exp(log l - max log l), finite however far off the doubles.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from . import geometry as geo
from . import lamination as lam
from .errors import DegeneratePanelError, DomainError
from .topology import Panel, _immutable


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


def arc_metric(X: geo.FNPoint, Y: geo.FNPoint, panel: Panel) -> MetricValue:
    """d(X, Y) = log sup of length ratios l(Y)/l(X) over the panel.

    Ties are broken by panel order, so reports are deterministic.
    """
    if len(panel) == 0:
        raise DomainError("panel is empty")
    if X.surface != Y.surface:
        raise DomainError("points live on different surfaces")
    plan = geo.panel_plan(panel)
    value, k = _log_sup_ratio(plan.vector(X), plan.vector(Y))
    return MetricValue(value, str(panel.entries[k]), panel.complexity)


def thurston_vector(X: geo.FNPoint, panel: Panel) -> tuple[float, ...]:
    """Panel length vector normalized to sup-norm 1 (projective class)."""
    if len(panel) == 0:
        raise DomainError("panel is empty")
    logs = geo.panel_plan(panel).vector(X)
    top = max(logs)
    return tuple(math.exp(v - top) for v in logs)


# -- horofunctions -----------------------------------------------------------------


def _normalizer(mu, log_ivals, base_lengths) -> float:
    """log sup i(mu, .)/l(., X0), the constant of a boundary horofunction."""
    if mu.is_zero():
        raise DomainError("boundary horofunction needs a nonzero lamination")
    best = _log_sup_ratio(base_lengths, log_ivals)[0]
    if best == -math.inf:
        raise DegeneratePanelError("the panel misses the lamination at the base point")
    return best


class Horofunction(namedtuple("Horofunction",
                              "kind base_point panel point mu constant")):
    """Either an interior point function d(., X) - d(X0, X), or the boundary
    function attached to a projective lamination via the normalized
    intersection form.

    constant is computed once, here: d(X0, X) for an interior point, and
    log sup i(mu, .)/l(., X0) for a lamination.  crossed holds the (entry,
    i(mu, entry)) pairs of the panel entries mu crosses (empty for an
    interior point), _log_ivals their log i and _plan their length plan,
    built once in the instance __dict__, outside equality and hash.
    """

    def __new__(cls, kind: str, base_point: geo.FNPoint, panel: Panel,
                point: geo.FNPoint | None = None,
                mu: lam.RationalLamination | None = None):
        crossed, log_ivals, plan = (), [], None
        if kind == "interior":
            constant = arc_metric(base_point, point, panel).value
        else:
            crossed = tuple((e, i) for e in panel
                            if (i := lam.intersection_number(mu, e)) > 0)
            log_ivals = _logs(ival for _, ival in crossed)
            plan = geo.LengthPlan(panel.surface, [e for e, _ in crossed])
            constant = _normalizer(mu, log_ivals, plan.vector(base_point))
        self = super().__new__(cls, kind, base_point, panel, point, mu, constant)
        self.__dict__.update(crossed=crossed, _log_ivals=log_ivals, _plan=plan)
        return self

    __setattr__ = __delattr__ = _immutable


def interior_horofunction(X: geo.FNPoint, base_point: geo.FNPoint,
                          panel: Panel) -> Horofunction:
    return Horofunction("interior", base_point, panel, point=X)


def boundary_horofunction(mu: lam.RationalLamination, base_point: geo.FNPoint,
                          panel: Panel) -> Horofunction:
    return Horofunction("boundary", base_point, panel, mu=mu)


def horofunction_eval(h: Horofunction, Y: geo.FNPoint) -> float:
    """Value at Y: interior points give d(Y, X) - d(X0, X); boundary points
    give log sup of the normalized intersection form against lengths at Y."""
    if h.kind == "interior":
        return arc_metric(Y, h.point, h.panel).value - h.constant
    return _log_sup_ratio(h._plan.vector(Y), h._log_ivals)[0] - h.constant


# -- convergence detection ------------------------------------------------------------


def normalized_length_vector(X: geo.FNPoint, base_point: geo.FNPoint,
                             panel: Panel) -> tuple[float, ...]:
    """Lengths at X divided by the maximal ratio against the base point.

    This is the quantity whose convergence characterizes convergence in the
    compactification: toward an interior point it tends to that point's
    lengths, toward a projective lamination it tends to a multiple of the
    intersection-number vector.
    """
    plan = geo.panel_plan(panel)
    return _normalized(plan.vector(X), plan.vector(base_point))


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
    plan = geo.panel_plan(panel)
    base = plan.vector(base_point or pts[0])
    logs = [plan.vector(X) for X in pts[-2:]]
    prev, last = (_normalized(v, base) for v in logs)
    vec_step = max(abs(a - b) for a, b in zip(last, prev))
    if vec_step > tolerance:
        return LimitReport("none", panel.complexity)

    def coords(X):
        return [v for _, v in X.boundary] + [v for _, lt in X.interior for v in lt]

    coord_step = max(abs(a - b) for a, b in zip(coords(pts[-1]), coords(pts[-2])))
    if coord_step <= tolerance * max(1.0, max(map(abs, coords(pts[-1])))):
        return LimitReport("interior", panel.complexity, point=pts[-1])
    top = max(logs[1])
    return LimitReport("boundary", panel.complexity,
                       projective_vector=tuple(math.exp(v - top) for v in logs[1]))
