"""Command-line front end.

Verbs: arc-length, curve-length, double, distance, horofn, and
experiment {inequality | boundary-limit | horo-converge | separate | dt-sphere}.
Exit codes: 0 success, 2 usage, 3 domain error, 4 unsupported class/surface.

Each verb loads only the layers it evaluates: this module imports topology,
geometry (with hyptrig) and errors, and the handlers import metric,
lamination, json, asymptotics, csv and random where they use them.  So
arc-length, curve-length and double load no other package module; distance
and horofn --point add metric, horofn --mu metric and lamination, dt-sphere
lamination, and the path experiments asymptotics, lamination and metric.
arc-length, curve-length and horofn --point never load json.

The four config experiments share one runner, cmd_experiment: it loads the
config, calls the verb's function from _EXPERIMENTS and writes the outputs,
a CSV sweep (header t, the verb's columns, panel_n=K; rows in fixed
9-significant-digit decimals, so identical configs give byte-identical files)
and a JSON summary with shortest round-trip floats and panel_n; a failed
write of either leaves neither file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import operator
import os
import sys

from . import geometry as geo
from . import topology as top
from .errors import (ArcmetricError, DomainError, InvalidSpecError,
                     UnsupportedClassError, UnsupportedCoordinatesError,
                     UnsupportedSurfaceError)


_FMT = "%.9g"  # every number printed: one value, or a CSV row of them
_fmt = _FMT.__mod__
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


def _json_value(what: str, text):
    """The JSON value of text (str, or bytes decoded as strict UTF-8, so a
    byte order mark or another encoding is refused): input that does not
    decode is a DomainError naming what, the input it came from."""
    import json

    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes)
                          else text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{what}: invalid JSON at line {exc.lineno} column "
                          f"{exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"{what}: not UTF-8 text: {exc.reason} at byte "
                          f"{exc.start}") from None
    except RecursionError:
        raise DomainError(f"{what}: JSON nested too deeply to decode") from None


def _load_config(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"config {path}: {exc}") from exc
    return _config_shape(path, _json_value(f"config {path}", text), dict)


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


def _config_grid(config, default) -> tuple:
    """The config's t grid (a list or {start, stop, step}), or default."""
    grid = config.get("grid")
    if grid is None:
        return default
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


def _write(outputs) -> None:
    """Write the text of each (path, text) of outputs as it is; an OSError,
    opening or writing, is a DomainError naming the path, raised once every
    file opened here is removed, so a failed write leaves none of them."""
    opened = []
    try:
        for path, text in outputs:
            with open(path, "w", newline="") as fh:
                opened.append(path)
                fh.write(text)
    except OSError as exc:
        for done in opened:
            with contextlib.suppress(OSError):
                os.remove(done)
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(data, path=None, outputs=()):
    """Write the outputs, and data as JSON to path; without a path, print
    data once the outputs are written."""
    import json

    text = json.dumps(data, indent=2, sort_keys=True)
    _write([*outputs, (path, text + "\n")] if path else outputs)
    if not path:
        print(text)


# -- verbs ------------------------------------------------------------------------


def cmd_class_length(args) -> int:
    """arc-length and curve-length; arc-length refuses a curve id."""
    X = _point_from_args(args, "point")
    cls = top.class_from_id(X.surface, args.class_id)
    if args.arcs_only and not isinstance(cls, top.ArcClass):
        raise DomainError(f"{args.class_id!r} names a curve, not an arc")
    print(_fmt(geo.class_length(X, cls)))
    return 0


def cmd_double(args) -> int:
    import json

    X = _point_from_args(args, "point")
    print(json.dumps(geo.fn_to_dict(geo.double_point(X)), sort_keys=True))
    return 0


def cmd_distance(args) -> int:
    from . import metric as met

    X = _point_from_args(args, "x")
    Y = _point_from_args(args, "y")
    panel = top.enumerate_panel(X.surface, args.panel_n)
    d_xy = met.arc_metric(X, Y, panel)
    d_yx = met.arc_metric(Y, X, panel)
    _emit({"d_xy": d_xy.value, "maximizer_xy": d_xy.maximizer,
           "d_yx": d_yx.value, "maximizer_yx": d_yx.maximizer,
           "panel_n": panel.complexity})
    return 0


def cmd_horofn(args) -> int:
    from . import metric as met

    base = _point_from_args(args, "base")
    at = _point_from_args(args, "at")
    panel = top.enumerate_panel(base.surface, args.panel_n)
    if args.mu:
        from . import lamination as lam

        mu = lam.lamination_from_dict(base.surface, _json_value("--mu", args.mu))
        h = met.boundary_horofunction(mu, base, panel)
    elif args.point:
        h = met.interior_horofunction(_point_from_args(args, "point"),
                                      base, panel)
    else:
        raise DomainError("give --point (interior) or --mu (boundary)")
    print(_fmt(met.horofunction_eval(h, at)))
    return 0


# -- experiments --------------------------------------------------------------------
# a config verb's function returns (panel, CSV value columns or None, rows from
# t on, summary fields); asymptotics (with lamination and metric), csv and
# random load in the handlers


def _experiment_inputs(asy, config) -> tuple:
    """(surface, base point, mu, grid, panel) of an experiment config."""
    from . import lamination as lam

    surface = top.build_surface(*_signature(_require(config, "surface")))
    base = geo.fn_from_dict(surface, _require(config, "base_point"))
    mu = lam.lamination_from_dict(surface, _require(config, "mu"))
    grid = _config_grid(config, asy.DEFAULT_GRID)
    try:
        panel_n = int(config.get("panel_n", 0))
    except _MALFORMED as exc:
        raise InvalidSpecError(f"config panel_n: {exc!r}") from None
    return surface, base, mu, grid, top.enumerate_panel(surface, panel_n)


def _inequality(asy, config):
    surface, base, mu, grid, panel = _experiment_inputs(asy, config)
    spec = asy.PathSpec(mu, base, grid)
    names = _config_shape("targets", config.get("targets") or [], list)
    targets = [top.class_from_id(surface, n) for n in names] or panel.entries
    names = names or panel.labels()
    columns, reports, skipped = asy.deviation_walk(spec, targets)
    return (panel, [f"dev[{names[k]}]" for k in columns],
            zip(spec.grid, *columns.values()),
            {"targets": [r._asdict() for r in reports], "skipped": skipped})


def _boundary_limit(asy, config):
    _, base, mu, grid, panel = _experiment_inputs(asy, config)
    series, limit_vector = asy.boundary_convergence(
        asy.PathSpec(mu, base, grid), panel)
    return (panel, ["sup_norm_distance"], series,
            {"final_distance": series[-1][1],
             "limit_vector": dict(zip(panel.labels(), limit_vector)),
             "panel": top.panel_to_dict(panel)})


def _horo_converge(asy, config):
    surface, base, mu, grid, panel = _experiment_inputs(asy, config)
    spec = asy.PathSpec(mu, base, grid)
    probes = [geo.fn_from_dict(surface, p)
              for p in _config_shape("probes", _require(config, "probes"), list)]
    series = asy.horo_convergence(spec, probes, panel)
    return (panel, ["max_probe_deviation"], series,
            {"final_deviation": series[-1][1], "probes": len(probes)})


def _separate(asy, config):
    """Walks paths of blends of the normalized mu, never mu's own path."""
    from . import lamination as lam

    surface, base, mu, grid, panel = _experiment_inputs(asy, config)
    nu = lam.lamination_from_dict(surface, _require(config, "nu"))
    witness = asy.separation_experiment(
        lam.normalize(mu, base), lam.normalize(nu, base), base, panel, grid)
    return (panel, None, None,
            {"witness_point": geo.fn_to_dict(witness.point),
             "lhs": witness.lhs, "rhs": witness.rhs,
             "gap": witness.lhs - witness.rhs,
             "epsilon": witness.epsilon, "t": witness.t})


_EXPERIMENTS = {"inequality": _inequality, "boundary-limit": _boundary_limit,
                "horo-converge": _horo_converge, "separate": _separate}


def cmd_experiment(args) -> int:
    """Run a config verb; the CSV header goes through csv (labels may hold commas)."""
    from . import asymptotics as asy
    config = _load_config(args.config)
    panel, columns, rows, summary = _EXPERIMENTS[args.verb](asy, config)
    outputs = []
    if args.csv and columns is not None:
        import csv
        import io

        sheet = io.StringIO()
        csv.writer(sheet).writerow(["t", *columns, f"panel_n={panel.complexity}"])
        line = ",".join([_FMT] * (len(columns) + 1)) + "\r\n"
        sheet.writelines(line % tuple(row) for row in rows)
        outputs.append((args.csv, sheet.getvalue()))
    _emit({**summary, "panel_n": panel.complexity}, args.json_out, outputs)
    return 0


def cmd_experiment_dt_sphere(args) -> int:
    if args.samples < 1:
        build_parser().error("argument --samples: expected an integer >= 1")
    if args.samples > _MAX_SAMPLES:
        build_parser().error(
            f"argument --samples: expected an integer <= {_MAX_SAMPLES}")
    import random

    from . import lamination as lam

    g, n, p = _signature(args.surface.split(","), int)
    surface = top.build_surface(g, n, p)
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
    flags = sub.add_mutually_exclusive_group()
    flags.add_argument("--pants", nargs="?", const="", default=None,
                       metavar="l1,l2,l3",
                       help="pair of pants; optionally the point itself")
    flags.add_argument("--torus", nargs="?", const="", default=None,
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
    for verb in _EXPERIMENTS:
        e = exp.add_parser(verb)
        e.add_argument("config", help="JSON experiment config")
        e.add_argument("--csv", default=None, help="CSV sweep output path")
        e.add_argument("--json", dest="json_out", default=None,
                       help="JSON summary path (default: stdout)")
        e.set_defaults(func=cmd_experiment)
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
