"""Command-line front end.

Verbs: arc-length, curve-length, double, distance, horofn, and
experiment {inequality | boundary-limit | horo-converge | separate | dt-sphere}.
Exit codes: 0 success, 2 usage, 3 domain error, 4 unsupported class/surface.

Sweeps are written as CSV with a header row and fixed 9-significant-digit
decimals, so identical configs produce byte-identical files; summaries are
JSON with shortest round-trip floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys

from . import geometry as geo
from . import lamination as lam
from . import metric as met
from .errors import (ArcmetricError, DomainError, InvalidSpecError,
                     UnsupportedClassError, UnsupportedCoordinatesError,
                     UnsupportedSurfaceError)
from .topology import ArcClass, build_surface, enumerate_panel, panel_to_dict


_fmt = "{:.9g}".format
_MAX_SAMPLES = 10 ** 5  # dt-sphere round trips: about 5 s at 50 us a sample


def _parse_triple(text: str):
    try:
        parts = [float(t) for t in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3:
        raise DomainError(f"expected three comma-separated values, got {text!r}")
    return parts


def _signature(items, convert=operator.index) -> tuple:
    """(g, n, p) from a config list of three integers, or with convert=int
    from the three parts of a 'g,n,p' flag."""
    try:
        g, n, p = map(convert, items)
    except (TypeError, ValueError):
        raise InvalidSpecError(f"surface {items!r} is not three integers g,n,p") from None
    return g, n, p


def _point_from_args(args, which: str) -> geo.FNPoint:
    """The point named by flag `which`, or by the surface flag's own value:
    'l1,l2,l3' on the pants, 'lC,tau,lB' on the torus."""
    coords = getattr(args, which, None)
    if coords is None and which == "point":
        coords = args.pants if args.pants else args.torus
    if not coords:
        raise DomainError("missing Fenchel-Nielsen coordinates")
    if args.pants is not None:
        return geo.pants_point(*_parse_triple(coords))
    if args.torus is not None:
        return geo.torus_point(*_parse_triple(coords))
    raise DomainError("select a surface with --pants or --torus")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"config {path}: invalid JSON at line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise DomainError(f"config {path}: {exc}") from exc
    return _config_shape(path, config, dict)


def _require(config: dict, field: str):
    if field not in config:
        raise DomainError(f"config is missing required field {field!r}")
    return config[field]


def _config_shape(what: str, value, kind: type):
    if not isinstance(value, kind):
        raise InvalidSpecError(f"config {what} {value!r} is not a JSON "
                               + ("object" if kind is dict else "array"))
    return value


_MALFORMED = (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError)


def _config_grid(config) -> tuple:
    """The config's t grid: a list, or {start, stop, step} of <= 10**6 points."""
    grid = config.get("grid")
    if grid is None:
        from . import asymptotics as asy
        return asy.DEFAULT_GRID
    try:
        if isinstance(grid, list):
            return tuple(float(t) for t in grid)
        start, stop, step = (float(grid[k]) for k in ("start", "stop", "step"))
        n = int(round((stop - start) / step))
        if n <= 10 ** 6:
            return tuple(start + k * step for k in range(n + 1))
    except _MALFORMED as exc:
        raise InvalidSpecError(f"config grid {grid!r}: {exc!r}") from None
    raise InvalidSpecError(f"config grid {grid!r} has over 10**6 points")


def _write_csv(path, header, rows):
    """The header through csv (labels may hold commas), then rows of floats."""
    if not path:
        return
    import csv
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\r\n")


def _emit(data, path=None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- verbs ------------------------------------------------------------------------


def cmd_class_length(args) -> int:
    """arc-length and curve-length; arc-length refuses a curve id."""
    X = _point_from_args(args, "point")
    cls = lam.class_from_id(X.surface, args.class_id)
    if args.arcs_only and not isinstance(cls, ArcClass):
        raise DomainError(f"{args.class_id!r} names a curve, not an arc")
    print(_fmt(geo.class_length(X, cls)))
    return 0


def cmd_double(args) -> int:
    X = _point_from_args(args, "point")
    print(json.dumps(geo.fn_to_dict(geo.double_point(X)), sort_keys=True))
    return 0


def cmd_distance(args) -> int:
    X = _point_from_args(args, "x")
    Y = _point_from_args(args, "y")
    panel = enumerate_panel(X.surface, args.panel_n)
    d_xy = met.arc_metric(X, Y, panel)
    d_yx = met.arc_metric(Y, X, panel)
    _emit({"d_xy": d_xy.value, "maximizer_xy": d_xy.maximizer,
           "d_yx": d_yx.value, "maximizer_yx": d_yx.maximizer,
           "panel_n": panel.complexity})
    return 0


def cmd_horofn(args) -> int:
    base = _point_from_args(args, "base")
    at = _point_from_args(args, "at")
    panel = enumerate_panel(base.surface, args.panel_n)
    if args.mu:
        try:
            data = json.loads(args.mu)
        except json.JSONDecodeError as exc:
            raise DomainError(f"--mu is not valid JSON: {exc.msg}") from None
        mu = lam.lamination_from_dict(base.surface, data)
        h = met.boundary_horofunction(mu, base, panel)
    elif args.point:
        h = met.interior_horofunction(_point_from_args(args, "point"),
                                      base, panel)
    else:
        raise DomainError("give --point (interior) or --mu (boundary)")
    print(_fmt(met.horofunction_eval(h, at)))
    return 0


# -- experiments --------------------------------------------------------------------
# asymptotics, csv and random load inside the experiment handlers, so the
# closed-form verbs above never import them


def _experiment_common(config):
    """(surface, the path's spec, panel) of an experiment config."""
    from . import asymptotics as asy
    surface = build_surface(*_signature(_require(config, "surface")))
    base = geo.fn_from_dict(surface, _require(config, "base_point"))
    mu = lam.lamination_from_dict(surface, _require(config, "mu"))
    grid = _config_grid(config)
    try:
        panel_n = int(config.get("panel_n", 0))
    except _MALFORMED as exc:
        raise InvalidSpecError(f"config panel_n: {exc!r}") from None
    panel = enumerate_panel(surface, panel_n)
    return surface, asy.make_path_spec(mu, base, grid), panel


def cmd_experiment_inequality(args) -> int:
    from . import asymptotics as asy
    config = _load_config(args.config)
    surface, spec, panel = _experiment_common(config)
    names = _config_shape("targets", config.get("targets") or [], list)
    targets = [lam.class_from_id(surface, n) for n in names] or panel.entries
    names = names or panel.labels()
    columns, reports, skipped = asy.deviation_walk(spec, targets)
    _write_csv(args.csv, ["t"] + [f"dev[{names[k]}]" for k in columns]
               + [f"panel_n={panel.complexity}"],
               zip(spec.grid, *columns.values()))
    _emit({"targets": [r._asdict() for r in reports],
           "skipped": skipped, "panel_n": panel.complexity}, args.json_out)
    return 0


def cmd_experiment_boundary_limit(args) -> int:
    from . import asymptotics as asy
    _, spec, panel = _experiment_common(_load_config(args.config))
    series, limit_vector = asy.boundary_convergence(spec, panel)
    _write_csv(args.csv, ["t", "sup_norm_distance",
                          f"panel_n={panel.complexity}"], series)
    _emit({"final_distance": series[-1][1],
           "limit_vector": dict(zip(panel.labels(), limit_vector)),
           "panel": panel_to_dict(panel),
           "panel_n": panel.complexity}, args.json_out)
    return 0


def cmd_experiment_horo_converge(args) -> int:
    from . import asymptotics as asy
    config = _load_config(args.config)
    surface, spec, panel = _experiment_common(config)
    probes = [geo.fn_from_dict(surface, p)
              for p in _config_shape("probes", _require(config, "probes"), list)]
    series = asy.horo_convergence(spec, probes, panel)
    _write_csv(args.csv, ["t", "max_probe_deviation",
                          f"panel_n={panel.complexity}"], series)
    _emit({"final_deviation": series[-1][1], "probes": len(probes),
           "panel_n": panel.complexity}, args.json_out)
    return 0


def cmd_experiment_separate(args) -> int:
    from . import asymptotics as asy
    config = _load_config(args.config)
    surface, spec, panel = _experiment_common(config)
    base = spec.base_point
    nu = lam.lamination_from_dict(surface, _require(config, "nu"))
    mu, nu = lam.normalize(spec.mu, base), lam.normalize(nu, base)
    witness = asy.separation_experiment(mu, nu, base, panel, spec.grid)
    _emit({"witness_point": geo.fn_to_dict(witness.point),
           "lhs": witness.lhs, "rhs": witness.rhs,
           "gap": witness.lhs - witness.rhs,
           "epsilon": witness.epsilon, "t": witness.t,
           "panel_n": panel.complexity}, args.json_out)
    return 0


def cmd_experiment_dt_sphere(args) -> int:
    if args.samples < 1:
        build_parser().error("argument --samples: expected an integer >= 1")
    if args.samples > _MAX_SAMPLES:
        build_parser().error(
            f"argument --samples: expected an integer <= {_MAX_SAMPLES}")
    import random
    g, n, p = _signature(args.surface.split(","), int)
    surface = build_surface(g, n, p)
    coord_dim, sphere_dim = lam.sphere_dimension(surface)
    rng = random.Random(args.seed)
    passed = 0
    for _ in range(args.samples):
        mu = lam.sample_supported_lamination(surface, rng)
        back = lam.dt_decode(surface, lam.dt_encode(mu))
        same = (len(back.components) == len(mu.components) and all(
            cb == cm and abs(wb - wm) <= 1e-9 * max(1.0, wm)
            for (cm, wm), (cb, wb) in zip(mu.components, back.components)))
        passed += bool(same)
    _emit({"surface": [g, n, p], "coordinate_dim": coord_dim,
           "sphere_dim": sphere_dim, "roundtrip_pass": passed,
           "samples": args.samples})
    return 0 if passed == args.samples else 3


# -- entry point -----------------------------------------------------------------------


def _add_surface_flags(sub):
    sub.add_argument("--pants", nargs="?", const="", default=None,
                     metavar="l1,l2,l3",
                     help="pair of pants; optionally the point itself")
    sub.add_argument("--torus", nargs="?", const="", default=None,
                     metavar="lC,tau,lB",
                     help="one-holed torus; optionally the point itself")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later main() calls
    (parse_args returns a new Namespace each time)."""
    parser = argparse.ArgumentParser(
        prog="arcmetric",
        description="lengths, the arc metric, and boundary experiments on "
                    "Teichmueller spaces of bordered hyperbolic surfaces")
    subs = parser.add_subparsers(dest="cmd", required=True)

    s = subs.add_parser("arc-length", help="orthogeodesic arc length")
    _add_surface_flags(s)
    s.add_argument("--point", default=None, help="FN coordinates")
    s.add_argument("--arc", dest="class_id", metavar="ARC", required=True,
                   help="arc id (a12, a33, ...)")
    s.set_defaults(func=cmd_class_length, arcs_only=True)

    s = subs.add_parser("curve-length", help="closed geodesic length")
    _add_surface_flags(s)
    s.add_argument("--point", default=None)
    s.add_argument("--curve", dest="class_id", metavar="CURVE", required=True,
                   help="curve id (B1, C1, w(1,1))")
    s.set_defaults(func=cmd_class_length, arcs_only=False)

    s = subs.add_parser("double", help="Fenchel-Nielsen data of the double")
    _add_surface_flags(s)
    s.add_argument("--point", default=None)
    s.set_defaults(func=cmd_double)

    s = subs.add_parser("distance", help="arc metric both ways")
    _add_surface_flags(s)
    s.add_argument("--x", required=True)
    s.add_argument("--y", required=True)
    s.add_argument("--panel-n", type=int, default=0)
    s.set_defaults(func=cmd_distance)

    s = subs.add_parser("horofn", help="evaluate a horofunction")
    _add_surface_flags(s)
    s.add_argument("--base", required=True)
    s.add_argument("--at", required=True)
    s.add_argument("--point", default=None, help="interior horofunction point")
    s.add_argument("--mu", default=None, help="boundary lamination JSON")
    s.add_argument("--panel-n", type=int, default=0)
    s.set_defaults(func=cmd_horofn)

    s = subs.add_parser("experiment", help="run a configured experiment")
    exp = s.add_subparsers(dest="verb", required=True)
    for verb, func in (("inequality", cmd_experiment_inequality),
                       ("boundary-limit", cmd_experiment_boundary_limit),
                       ("horo-converge", cmd_experiment_horo_converge),
                       ("separate", cmd_experiment_separate)):
        e = exp.add_parser(verb)
        e.add_argument("config", help="JSON experiment config")
        e.add_argument("--csv", default=None, help="CSV sweep output path")
        e.add_argument("--json", dest="json_out", default=None,
                       help="JSON summary path (default: stdout)")
        e.set_defaults(func=func)
    e = exp.add_parser("dt-sphere")
    e.add_argument("--surface", required=True, help="g,n,p")
    e.add_argument("--samples", type=int, default=50)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=cmd_experiment_dt_sphere)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedSurfaceError, UnsupportedClassError,
            UnsupportedCoordinatesError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 4
    except ArcmetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
