"""Scaling paths and the asymptotic experiments they drive.

A path is prescribed coordinate-wise from a driving lamination mu, in log
lengths: curves crossed by mu grow (t + log i(mu, C), exact by
construction), leaves of mu decay along the standard envelope
(log(3|chi|) - log sinh(e^t w / 2)), and curves with neither interaction
hold their initial length.  Twists are held constant.  This reproduces
exactly the boundary-length asymptotics the pants-local case analysis
consumes; targets crossing several pants are not registered.

Domain: every growing length, e^t w / 2 of every leaf and e^t i(mu, target)
at the last grid point, and every decaying length at the first, where it is
longest, is a finite double, checked once when a PathSpec (and a deviation
walk's targets) is built, else InvalidSpecError.  A point with a coordinate
off the doubles exists only inside a walk; scaling_path refuses it.  Each
experiment computes each intersection vector it reads once, a panel's through
metric._intersections, which refuses a panel that misses the lamination.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from . import geometry as geo
from . import hyptrig as ht
from . import lamination as lam
from . import metric as met
from .errors import (DomainError, InvalidSpecError, NoWitnessError,
                     UnsupportedClassError)
from .topology import Panel

DEFAULT_GRID = tuple(0.5 * k for k in range(21))  # 0.0, 0.5, ..., 10.0
_CAP = 50.0  # a target whose deviation envelope exceeds it is flagged
_EPSILONS = (0.5, 0.25, 0.125, 0.0625)  # separation's refinement blends
_MIN_GAP = 1e-3  # the log gap that certifies a separation witness


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
    lamination; a PathSpec that exists is valid, its grid finite, strictly
    increasing from t >= 0 and in the domain.
    """

    __slots__ = ()

    def __new__(cls, mu: lam.RationalLamination, base_point: geo.FNPoint,
                grid: tuple):
        surface = mu.surface
        if base_point.surface != surface:
            raise InvalidSpecError("base point and lamination disagree on surface")
        grid = tuple(float(t) for t in grid)
        if not grid or not all(math.isfinite(t) and t >= 0 for t in grid) \
                or any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidSpecError(
                "grid must be finite and strictly increasing with t >= 0")
        regimes = tuple((label, _regime(mu, base_point, label))
                        for label in surface.boundaries + surface.interior_curves)
        t = grid[-1]  # a growing e^t rate and a decaying e^t w / 2 are doubles
        _check_range("the moving length of", t, (
            (label, t + (ht._log_half(param) if kind == "decay" else math.log(param)))
            for label, (kind, param) in regimes if kind != "hold"))
        t, chi = grid[0], abs_double_chi(surface)  # a decaying length is longest
        _check_range("the moving length of", t, (
            (label, ht.leaf_decay_bound(param, t, chi))
            for label, (kind, param) in regimes if kind == "decay"))
        return super().__new__(cls, mu, base_point, grid, regimes)

    def regime_dict(self) -> dict:
        return dict(self.regimes)


def make_path_spec(mu: lam.RationalLamination, base_point: geo.FNPoint,
                   grid=DEFAULT_GRID) -> PathSpec:
    """Classify each coordinate curve from the lamination data."""
    return PathSpec(mu, base_point, grid)


def _check_range(what: str, t: float, log_sizes) -> None:
    """InvalidSpecError unless e^x is a finite double for each (name, x)."""
    for name, x in log_sizes:
        try:
            math.exp(x)
        except OverflowError:
            raise InvalidSpecError(f"{what} {name} leaves the double range at "
                                   f"t = {t}: e^{x!r}") from None


def _moving_lengths(spec: PathSpec, t: float) -> dict:
    """Log lengths at X_t of the growing and decaying curves."""
    chi = abs_double_chi(spec.mu.surface)
    return {label: t + math.log(param) if kind == "grow"
            else ht.leaf_decay_bound(param, t, chi)
            for label, (kind, param) in spec.regimes if kind != "hold"}


def scaling_path(spec: PathSpec, t: float) -> geo.FNPoint:
    """The point at parameter t (twists from the base point), or a
    DomainError naming a coordinate that is not a double there."""
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"path parameter must be finite and >= 0, got {t!r}")
    lengths = {label: param for label, (kind, param) in spec.regimes if kind == "hold"}
    lengths.update((label, ht._length_from_log(label, log_length))
                   for label, log_length in _moving_lengths(spec, t).items())
    return spec.base_point.with_lengths(lengths)


# -- experiments -----------------------------------------------------------------


class DeviationReport(NamedTuple):
    """Per-target envelope of l(X_t) - e^t i(mu, target) over the grid."""

    target: str
    i_mu: float
    max_lower_deviation: float   # max of e^t i - l  (lower-bound slack)
    max_upper_deviation: float   # max of l - e^t i  (upper-bound slack)
    flagged: bool


def _walk(spec: PathSpec, surface, entries):
    """The entries' log length vectors at X_t, t in spec.grid, one at a time."""
    return geo.walk(surface, entries, spec.base_point,
                    (_moving_lengths(spec, t) for t in spec.grid))


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
            geo._compiled(surface, target)
            columns[k] = []
        except UnsupportedClassError as exc:
            skipped.append((str(target), str(exc)))
    entries = [targets[k] for k in columns]
    ivals = lam.intersection_vector(spec.mu, entries)
    log_ivals, t_last = met._logs(ivals), spec.grid[-1]
    _check_range("e^t i(mu, target) of", t_last,
                 ((e, t_last + v) for e, v in zip(entries, log_ivals)))
    for t, logs in zip(spec.grid, _walk(spec, surface, entries)):
        # e^t i as a growing coordinate's own length, so its deviation is 0
        for devs, log_length, log_ival in zip(columns.values(), logs, log_ivals):
            devs.append(math.exp(log_length) - math.exp(t + log_ival))
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


class BoundaryConvergence(NamedTuple):
    """series: (t, distance) per grid t; limit_vector: i(mu, .) at sup-norm 1."""

    series: list
    limit_vector: tuple


def boundary_convergence(spec: PathSpec, panel: Panel) -> BoundaryConvergence:
    """Projective sup-norm distance between the length vector of X_t and the
    normalized intersection vector of the driving lamination."""
    ivec = met._intersections(spec.mu, panel.entries)
    top = max(ivec)
    target = tuple(v / top for v in ivec)
    return BoundaryConvergence(
        [(t, max(abs(a - b) for a, b in zip(met._projective(logs), target)))
         for t, logs in zip(spec.grid, _walk(spec, panel.surface, panel.entries))],
        target)


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
    log_ivals = met._logs(met._intersections(spec.mu, panel.entries))
    base_lengths, *probe_lengths = [geo.log_lengths(panel.surface, panel.entries, P)
                                    for P in (spec.base_point, *probes)]
    constant = met._log_sup_ratio(base_lengths, log_ivals)[0]
    mu_values = [met._log_sup_ratio(ly, log_ivals)[0] - constant
                 for ly in probe_lengths]
    out = []
    for t, lengths in zip(spec.grid, _walk(spec, panel.surface, panel.entries)):
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
    A panel that misses mu or nu is a DegeneratePanelError naming it.
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
    i_mu, i_nu = (met._logs(met._intersections(m, panel.entries, name))
                  for name, m in (("mu", mu), ("nu", nu)))
    attempts = []
    for eps, blend in blends:
        spec = make_path_spec(blend, X0, grid)
        for t, logs in zip(spec.grid, _walk(spec, panel.surface, panel.entries)):
            lhs = met._log_sup_ratio(logs, i_nu)[0]
            rhs = met._log_sup_ratio(logs, i_mu)[0]
            if lhs - rhs >= _MIN_GAP:
                return SeparationWitness(scaling_path(spec, t), lhs, rhs, eps, t)
            attempts.append((eps, t))
    raise NoWitnessError(
        f"no separating point found over {len(attempts)} grid points",
        attempts=attempts)
