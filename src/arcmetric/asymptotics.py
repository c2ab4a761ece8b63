"""Scaling paths and the asymptotic experiments they drive.

A path is prescribed coordinate-wise from a driving lamination mu: curves
crossed by mu grow exponentially (length e^t * i(mu, C), exact by
construction), leaves of mu decay super-exponentially along the standard
envelope 3|chi| / sinh(e^t w / 2), and curves with neither interaction hold
their initial length.  Twists are held constant.  This reproduces exactly
the boundary-length asymptotics the pants-local case analysis consumes;
targets crossing several pants would be exploratory and are not registered.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from . import geometry as geo
from . import hyptrig as ht
from . import lamination as lam
from . import metric as met
from .errors import (DegeneratePanelError, DomainError, InvalidSpecError,
                     NoWitnessError, UnsupportedClassError)
from .topology import Panel

DEFAULT_GRID = tuple(0.5 * k for k in range(21))  # 0.0, 0.5, ..., 10.0
_CAP = 50.0  # a target whose deviation envelope exceeds it is flagged
_EPSILONS = (0.5, 0.25, 0.125, 0.0625)  # separation's refinement blends
_MIN_GAP = 1e-3  # the log gap that certifies a separation witness
_LENGTH_FLOOR = 1e-300  # decay regime under double precision


def abs_double_chi(surface) -> int:
    """|Euler characteristic of the double| = 2 |chi(S)|."""
    return 2 * abs(surface.signature.euler_characteristic())


def _regime(mu, base_point, label) -> tuple:
    """Regime of one coordinate curve, read from the lamination data."""
    cls = mu.surface.curve_class(label)
    ival = lam.intersection_number(mu, cls)
    if ival > 0:
        return ("grow", ival)
    weight = mu.weight_of(cls)
    if weight > 0:
        return ("decay", weight)
    return ("hold", base_point.length_of(label))


class PathSpec(namedtuple("PathSpec", "mu base_point grid regimes")):
    """Coordinate-wise scaling path driven by a lamination.

    regimes maps every coordinate curve label to ("grow", rate),
    ("decay", leaf_weight) or ("hold", initial_length), classified from the
    lamination; a PathSpec that exists is valid.
    """

    __slots__ = ()

    def __new__(cls, mu: lam.RationalLamination, base_point: geo.FNPoint,
                grid: tuple):
        surface = mu.surface
        if base_point.surface != surface:
            raise InvalidSpecError("base point and lamination disagree on surface")
        grid = tuple(float(t) for t in grid)
        if len(grid) < 1 or any(t < 0 for t in grid) \
                or any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidSpecError("grid must be strictly increasing with t >= 0")
        regimes = tuple((label, _regime(mu, base_point, label))
                        for label in surface.boundaries + surface.interior_curves)
        return super().__new__(cls, mu, base_point, grid, regimes)

    def regime_dict(self) -> dict:
        return dict(self.regimes)


def make_path_spec(mu: lam.RationalLamination, base_point: geo.FNPoint,
                   grid=DEFAULT_GRID) -> PathSpec:
    """Classify each coordinate curve from the lamination data."""
    return PathSpec(mu, base_point, grid)


def _moving_lengths(spec: PathSpec, t: float) -> dict:
    """Checked lengths at X_t of the growing and decaying curves: one e^t,
    and e^t * rate is tested in log space, so past the doubles it is inf."""
    if not (math.isfinite(t) and t >= 0):
        raise DomainError("path parameter must be >= 0")
    et = math.exp(t) if t <= ht._LOG_MAX else math.inf
    chi, lengths = abs_double_chi(spec.mu.surface), {}
    for label, (kind, param) in spec.regimes:
        if kind == "decay":
            length = max(ht.leaf_decay_bound(param, t, chi), _LENGTH_FLOOR)
        elif kind == "grow":  # where e^t alone overflows, e^t * rate may not
            lx = t + math.log(param)
            length = et * param if et < math.inf or lx > ht._LOG_MAX else math.exp(lx)
        else:
            continue
        lengths[label] = geo._checked_length(label, length)
    return lengths


def scaling_path(spec: PathSpec, t: float) -> geo.FNPoint:
    """The point at parameter t; deterministic, twists from the base point."""
    lengths = {label: param for label, (kind, param) in spec.regimes if kind == "hold"}
    lengths.update(_moving_lengths(spec, t))
    return spec.base_point.with_lengths(lengths)


# -- experiments -----------------------------------------------------------------


class DeviationReport(NamedTuple):
    """Per-target envelope of l(X_t) - e^t i(mu, target) over the grid."""

    target: str
    i_mu: float
    max_lower_deviation: float   # max of e^t i - l  (lower-bound slack)
    max_upper_deviation: float   # max of l - e^t i  (upper-bound slack)
    flagged: bool


def _walk(spec: PathSpec, plan: geo.LengthPlan):
    """The plan's length vectors at X_t, t in spec.grid, one at a time."""
    if plan.surface is not spec.mu.surface and plan.surface != spec.mu.surface:
        raise DomainError("point and length plan live on different surfaces")
    held = {label: geo._checked_length(label, param)
            for label, (kind, param) in spec.regimes if kind == "hold"}
    twists = {label: twist for label, (_, twist) in spec.base_point.interior}
    return plan.walk(held, (_moving_lengths(spec, t) for t in spec.grid), twists)


def deviation_walk(spec: PathSpec, targets):
    """Walk the path once: l_a(X_t) - e^t i(mu, a) for every target a.

    Returns (columns, reports, skipped), each in target order.  columns
    maps the index of each target the surface supports to its deviations
    over the grid, reports holds its DeviationReport, and skipped lists
    (target, reason) for the others, which the walk never sees.
    """
    surface, columns, skipped = spec.mu.surface, {}, []
    for k, target in enumerate(targets):
        try:
            geo._route(surface, target)
            columns[k] = []
        except UnsupportedClassError as exc:
            skipped.append((str(target), str(exc)))
    plan = geo.LengthPlan(surface, [targets[k] for k in columns])
    ivals = plan.intersections(spec.mu)
    for t, lengths in zip(spec.grid, _walk(spec, plan)):
        if t > ht._LOG_MAX and any(ivals):
            raise DomainError(f"e^t i(mu, target) overflows at t = {t}")
        et = math.exp(min(t, ht._LOG_MAX))  # past it, every i(mu, target) is 0
        for devs, length, ival in zip(columns.values(), lengths, ivals):
            devs.append(length - et * ival)
    reports = []
    for (k, devs), ival in zip(columns.items(), ivals):
        # 0.0 - dev, not -dev: a zero deviation stays +0.0
        lower, upper = max(0.0 - dev for dev in devs), max(devs)
        reports.append(DeviationReport(str(targets[k]), ival, lower, upper,
                                       flagged=max(lower, upper) > _CAP))
    return columns, reports, skipped


def verify_key_inequality(spec: PathSpec, targets):
    """Sandwich check: e^t i(mu, a) - C <= l_a(X_t) <= e^t i(mu, a) + C_a.

    Returns (reports, skipped); a target is flagged when either deviation
    envelope exceeds 50.  Unsupported targets are skipped with notice,
    never silently dropped.
    """
    return deviation_walk(spec, targets)[1:]


def boundary_convergence(spec: PathSpec, panel):
    """Projective sup-norm distance between the length vector of X_t and the
    normalized intersection vector of the driving lamination.  panel is a
    Panel or its geo.LengthPlan, which keeps that intersection vector."""
    plan = geo.panel_plan(panel)
    ivec = plan.intersections(spec.mu)
    top = max(ivec)
    if top == 0:
        raise DegeneratePanelError("panel misses the driving lamination")
    target = [v / top for v in ivec]
    out = []
    for t, lengths in zip(spec.grid, _walk(spec, plan)):
        top = max(lengths)
        out.append((t, max(abs(v / top - b) for v, b in zip(lengths, target))))
    return out


def horo_convergence(spec: PathSpec, probes, panel: Panel):
    """Max over probe points of |Phi_{X_t} - Phi_mu| along the path.

    Phi_{X_t}(Y) = d(Y, X_t) - d(X0, X_t), X0 the path's base point.  The
    length vectors of X0 and the probes are computed once, and Phi_mu reads
    its lengths from them; each t adds the one of X_t.
    """
    if not probes:
        raise DomainError("horo_convergence needs at least one probe point")
    if any(P.surface != spec.mu.surface for P in probes):
        raise DomainError("points live on different surfaces")
    plan = geo.panel_plan(panel)
    ivals = plan.intersections(spec.mu)
    base_lengths, *probe_lengths = [plan.vector(P) for P in (spec.base_point, *probes)]
    constant = met._normalizer(spec.mu, ivals, base_lengths)
    mu_values = [math.log(met._checked_sup(ivals, ly, constant, "Y"))
                 for ly in probe_lengths]
    out = []
    for t, lengths in zip(spec.grid, _walk(spec, plan)):
        d_base = met._log_sup_ratio(base_lengths, lengths)[0]
        dev = max(abs((met._log_sup_ratio(ly, lengths)[0] - d_base) - v)
                  for ly, v in zip(probe_lengths, mu_values))
        out.append((t, dev))
    return out


# -- separation ---------------------------------------------------------------------


class SeparationWitness(NamedTuple):
    point: geo.FNPoint
    lhs: float   # log sup i(nu, .)/l(., Y)
    rhs: float   # log sup i(mu, .)/l(., Y)
    epsilon: float
    t: float


def separation_experiment(mu: lam.RationalLamination,
                          nu: lam.RationalLamination,
                          X0: geo.FNPoint,
                          panel: Panel,
                          grid=DEFAULT_GRID) -> SeparationWitness:
    """Find Y separating two normalized laminations by their horofunctions.

    Scans scaling paths driven by the blended refinements
    (1 - eps) mu + (eps / L) zeta over the epsilon and t grids; a returned
    witness carries the two log-suprema that certified it, a gap >= 1e-3.
    """
    for name, m in (("mu", mu), ("nu", nu)):
        if abs(geo.lamination_length(X0, m) - 1.0) > 1e-6:
            raise DomainError(f"{name} must be normalized at the base point")
    if len(mu.components) == len(nu.components) and all(
            cm == cn and abs(wm - wn) <= 1e-12
            for (cm, wm), (cn, wn) in zip(mu.components, nu.components)):
        raise DomainError("laminations must be distinct")

    zeta = lam.refine(mu)[1]
    if zeta.is_zero():  # epsilon does not enter without a refinement part
        blends = [(_EPSILONS[0], mu)]
    else:
        L = geo.lamination_length(X0, zeta)
        blends = ((eps, mu.scaled(1.0 - eps) + zeta.scaled(eps / L))
                  for eps in _EPSILONS)
    plan = geo.panel_plan(panel)
    i_nu, i_mu = plan.intersections(nu), plan.intersections(mu)
    attempts = []
    for eps, blend in blends:
        spec = make_path_spec(blend, X0, grid)
        for t, lengths in zip(spec.grid, _walk(spec, plan)):
            sup_nu = met._sup_crossed_ratio(i_nu, lengths)
            sup_mu = met._sup_crossed_ratio(i_mu, lengths)
            if sup_nu == 0.0 or sup_mu == 0.0:
                continue  # the panel misses nu or mu
            # a crushed class makes a supremum inf, and its log inf too
            lhs, rhs = math.log(sup_nu), math.log(sup_mu)
            if lhs - rhs >= _MIN_GAP:
                return SeparationWitness(scaling_path(spec, t), lhs, rhs, eps, t)
            attempts.append((eps, t))
    raise NoWitnessError(
        f"no separating point found over {len(attempts)} grid points",
        attempts=attempts)
