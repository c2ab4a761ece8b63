"""The arc metric, horofunctions, and convergence in the length-vector sense.

All suprema over curves and arcs are truncated to a finite panel; on the
pair of pants the nine-entry panel is the complete family, so there the
values are exact.  Every result reports the panel complexity it used, and
values are monotone nondecreasing under panel refinement.
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
    """(log sup ly/lx, index of the first entry attaining it).

    A ratio is inf where lx <= 0, and log(inf) is reported as inf.
    """
    best, best_index = -math.inf, None
    for k, (a, b) in enumerate(zip(lx, ly)):
        ratio = math.inf if a <= 0.0 else b / a
        if ratio > best:
            best, best_index = ratio, k
    return math.log(best) if math.isfinite(best) else math.inf, best_index


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
    return MetricValue(value, str(None if k is None else panel.entries[k]),
                       panel.complexity)


def thurston_vector(X: geo.FNPoint, panel: Panel) -> tuple[float, ...]:
    """Panel length vector normalized to sup-norm 1 (projective class)."""
    if len(panel) == 0:
        raise DomainError("panel is empty")
    lengths = geo.panel_plan(panel).vector(X)
    top = max(lengths)
    return tuple(v / top for v in lengths)


# -- horofunctions -----------------------------------------------------------------


def _crossed(mu, panel: Panel) -> tuple:
    """(entry, i(mu, entry)) for every panel entry that mu crosses."""
    pairs = ((entry, lam.intersection_number(mu, entry)) for entry in panel)
    return tuple(pair for pair in pairs if pair[1] > 0)


def _sup_crossed_ratio(ivals, lengths, scale: float = 1.0) -> float:
    """sup of ival / (scale * length) over the entries with ival > 0."""
    best = 0.0
    for ival, length in zip(ivals, lengths):
        if ival > 0:
            denom = scale * length
            best = math.inf if denom <= 0.0 else max(best, ival / denom)
    return best


def _checked_sup(ivals, lengths, scale: float, where: str) -> float:
    """_sup_crossed_ratio, which a boundary horofunction needs finite and > 0."""
    best = _sup_crossed_ratio(ivals, lengths, scale)
    if best == 0.0:
        raise DegeneratePanelError(f"the panel misses the lamination at {where}")
    if best == math.inf:
        raise DomainError(f"a crossed panel class has length 0 at {where}")
    return best


def _normalizer(mu, ivals, base_lengths) -> float:
    """sup i(mu, .)/l(., X0), the constant of a boundary horofunction."""
    if mu.is_zero():
        raise DomainError("boundary horofunction needs a nonzero lamination")
    return _checked_sup(ivals, base_lengths, 1.0, "the base point")


class Horofunction(namedtuple("Horofunction",
                              "kind base_point panel point mu constant")):
    """Either an interior point function d(., X) - d(X0, X), or the boundary
    function attached to a projective lamination via the normalized
    intersection form.

    constant is computed once, here: d(X0, X) for an interior point, and
    the normalizer sup i(mu, .)/l(., X0) for a lamination, which must be
    finite and positive.  crossed holds the (entry, i(mu, entry)) pairs of
    the panel entries mu crosses (empty for an interior point), and _plan
    the length plan of those entries; both are built once and live in the
    instance __dict__, outside equality and hash.
    """

    def __new__(cls, kind: str, base_point: geo.FNPoint, panel: Panel,
                point: geo.FNPoint | None = None,
                mu: lam.RationalLamination | None = None):
        crossed, plan = (), None
        if kind == "interior":
            constant = arc_metric(base_point, point, panel).value
        else:
            crossed = _crossed(mu, panel)
            plan = geo.LengthPlan(panel.surface, [e for e, _ in crossed])
            constant = _normalizer(mu, [ival for _, ival in crossed],
                                   plan.vector(base_point))
        self = super().__new__(cls, kind, base_point, panel, point, mu, constant)
        self.__dict__.update(crossed=crossed, _plan=plan)
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
    return math.log(_checked_sup([ival for _, ival in h.crossed],
                                 h._plan.vector(Y), h.constant, "Y"))


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


def _normalized(lengths, base) -> tuple[float, ...]:
    """lengths divided by their maximal ratio against base."""
    sup = max(l / b for l, b in zip(lengths, base))
    return tuple(l / sup for l in lengths)


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
    prev, last = (_normalized(plan.vector(X), base) for X in pts[-2:])
    vec_step = max(abs(a - b) for a, b in zip(last, prev))
    if vec_step > tolerance:
        return LimitReport("none", panel.complexity)

    def coords(X):
        return [v for _, v in X.boundary] + [v for _, lt in X.interior for v in lt]

    coord_step = max(abs(a - b) for a, b in zip(coords(pts[-1]), coords(pts[-2])))
    if coord_step <= tolerance * max(1.0, max(map(abs, coords(pts[-1])))):
        return LimitReport("interior", panel.complexity, point=pts[-1])
    top = max(last)
    return LimitReport("boundary", panel.complexity,
                       projective_vector=tuple(v / top for v in last))
