"""Seeded inputs for the three workloads.

Every workload is a fixed operation mix; the seed draws only the numbers
(points, weights, slopes, order), so the same seed gives the same inputs and
different seeds give the same mix.  Torus points are stratified samples of
their stated distribution, which keeps the share of long cuffs nearly the
same from seed to seed without narrowing the domain.

The inputs of experiment-sweep and cli-cold that reach the program's known
defects (boundary-limit configs; torus points and curves) come from a
generator that is the same for every seed (_fixed_rng): they keep their full
domain, and every run fails the same operations, so the failure count
repeats exactly from run to run and seed to seed.
"""

from __future__ import annotations

import json
import math
import os
import random

from arcmetric.topology import build_surface

# experiment-sweep: tier-1 surfaces and the decomposition-level ones
SWEEP_SURFACES = ((0, 0, 3), (1, 0, 1), (0, 0, 4), (1, 0, 2), (2, 0, 1), (0, 0, 6))
SWEEP_CYCLES = 6            # each cycle: three configs per (surface, driving arc)
# Verbs run on each config of an arc: boundary-limit, the cheapest, on one
# only, so that the median operation is a compute-bound one rather than one
# at the border between the cheap calls and the rest.  Its config is drawn
# by _fixed_rng, because some configs miss its README tolerance.
SWEEP_VERBS = (("inequality", "horo-converge"),
               ("inequality", "horo-converge"),
               ("boundary-limit",))
SWEEP_SEPARATIONS = 3       # pants separation configs per cycle
SWEEP_GRID = {"start": 0.0, "stop": 10.0, "step": 0.5}
HORO_GRID = {"start": 4.0, "stop": 10.0, "step": 0.5}

# torus-panels
TORUS_CUFF = (0.1, 100.0)   # log-uniform
TORUS_TWIST = (-2.0, 2.0)   # uniform
POOL_SIZE = 64              # fits holonomy_build's 256-entry cache
TORUS_CYCLES = 16
TORUS_KINDS = ("dist3", "dist6", "thurston6", "horofn", "wlen")
POOL_PER_KIND = 6           # per cycle; the rest of each kind is fresh
FRESH_PER_KIND = 4
PATH_TS = tuple(float(t) for t in range(11))
HORO_BASE = (1.0, 0.0, 2.0)  # fixed base point of the boundary horofunctions
# Torus lengths lose precision about as e^cuff (worst relative error 6e-11 at
# cuffs 14-16, 2e-9 at 18-20, against the README's 1e-9) and overflow
# beyond: from this length on, a failure is the known defect.
LONG_CUFF = 15.0

# cli-cold: torus points as in torus-panels; pants cuffs log-uniform in CLI_CUFF
CLI_CUFF = (0.2, 6.0)
CLI_CYCLES = 8
ARC_ALIASES = ("a11", "a22", "a33", "a12", "a13", "a23")
# word curves only: the length of C1 is an input coordinate
CURVES = ("w(0,1)", "w(1,1)", "w(-1,1)", "w(2,1)", "w(1,2)")


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _fixed_rng(workload):
    """The generator of a workload's inputs that reach known defects: the
    same for every seed."""
    return random.Random(f"{workload}:known-defects")


def _log_uniform(lo, hi, u):
    return math.exp(math.log(lo) + u * math.log(hi / lo))


def _torus_points(rng, n):
    """n torus points (lC, tau, lB): both cuffs log-uniform in TORUS_CUFF,
    stratified jointly on a g x g grid of cells (one point in each of n
    distinct cells, g*g >= n), so the share of points in any region of
    cuff space is nearly the same for every seed; twists are uniform in
    TORUS_TWIST, one per stratum of n."""
    g = math.ceil(math.sqrt(n))
    cells = [(i, j) for i in range(g) for j in range(g)]
    rng.shuffle(cells)
    twists = list(range(n))
    rng.shuffle(twists)
    lo, hi = TORUS_CUFF
    t_lo, t_hi = TORUS_TWIST
    return [[_log_uniform(lo, hi, (i + rng.random()) / g),
             t_lo + (k + rng.random()) / n * (t_hi - t_lo),
             _log_uniform(lo, hi, (j + rng.random()) / g)]
            for (i, j), k in zip(cells[:n], twists)]


def _torus_lhs(rng, n):
    """n torus points as a Latin hypercube of TORUS_CUFF x TORUS_TWIST x
    TORUS_CUFF (one point in each of n strata of each coordinate)."""
    strata = [list(range(n)) for _ in range(3)]
    for s in strata:
        rng.shuffle(s)
    lo, hi = TORUS_CUFF
    t_lo, t_hi = TORUS_TWIST
    return [[_log_uniform(lo, hi, (i + rng.random()) / n),
             t_lo + (k + rng.random()) / n * (t_hi - t_lo),
             _log_uniform(lo, hi, (j + rng.random()) / n)]
            for i, k, j in zip(*strata)]


def _fmt_triple(p):
    return ",".join(repr(float(v)) for v in p)


# -- experiment-sweep ------------------------------------------------------------------


def _random_point(rng, surface):
    return {**{c: {"length": rng.uniform(0.5, 3.0), "twist": rng.uniform(-1.0, 1.0)}
               for c in surface.interior_curves},
            **{b: rng.uniform(0.5, 3.0) for b in surface.boundaries}}


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)


def experiment_sweep(seed, workdir):
    rng = _rng("experiment-sweep", seed)
    fixed = _fixed_rng("experiment-sweep")
    ops = []

    def add(cycle, verb, argv, check):
        n = len(ops) + len(cycle)
        files = {}
        if verb != "dt-sphere":  # dt-sphere prints its summary
            files["json"] = os.path.join(workdir, f"op{n}.json")
            argv = argv + ["--json", files["json"]]
        if verb not in ("dt-sphere", "separate"):  # separate writes no sweep
            files["csv"] = os.path.join(workdir, f"op{n}.csv")
            argv = argv + ["--csv", files["csv"]]
        cycle.append({"kind": "experiment", "verb": verb,
                      "argv": ["experiment", verb] + argv, "files": files,
                      "check": check})

    def config_path(cycle):
        return os.path.join(workdir, f"cfg{len(ops) + len(cycle)}.json")

    pants = build_surface(0, 0, 3)
    pants_arcs = [a.label for a in pants.pants_arcs()]
    pants_classes = pants_arcs + list(pants.boundaries)
    for _ in range(SWEEP_CYCLES):
        cycle = []
        for sig in SWEEP_SURFACES:
            surface = build_surface(*sig)
            for arc, verbs in ((a, v) for a in surface.pants_arcs() for v in SWEEP_VERBS):
                draw = fixed if "boundary-limit" in verbs else rng
                config = {"surface": list(sig),
                          "base_point": _random_point(draw, surface),
                          "mu": [{"class_id": arc.label,
                                  "weight": draw.uniform(0.5, 2.0)}],
                          "panel_n": 0, "grid": SWEEP_GRID}
                for verb in verbs:
                    cfg = dict(config)
                    if verb == "horo-converge":
                        cfg["grid"] = HORO_GRID
                        cfg["probes"] = [_random_point(rng, surface)
                                         for _ in range(3)]
                    path = config_path(cycle)
                    _write(path, cfg)
                    add(cycle, verb, [path], {"surface": list(sig)})
            if surface.tier1:
                add(cycle, "dt-sphere", ["--surface", ",".join(map(str, sig)),
                                         "--samples", "20",
                                         "--seed", str(rng.randrange(10**6))],
                    {"surface": list(sig)})
        for _ in range(SWEEP_SEPARATIONS):
            mu = rng.choice(pants_arcs)
            nu = rng.choice([c for c in pants_classes if c != mu])
            path = config_path(cycle)
            _write(path, {"surface": [0, 0, 3],
                          "base_point": _random_point(rng, pants),
                          "mu": [{"class_id": mu, "weight": 1.0}],
                          "nu": [{"class_id": nu, "weight": 1.0}],
                          "panel_n": 0, "grid": SWEEP_GRID})
            add(cycle, "separate", [path], {"surface": [0, 0, 3]})
        rng.shuffle(cycle)
        ops.extend(cycle)
    return {"workload": "experiment-sweep", "seed": seed, "ops": ops,
            "setup": {"surfaces": [list(s) for s in SWEEP_SURFACES],
                      "panels": [list(s) + [0] for s in SWEEP_SURFACES]}}


# -- torus-panels ------------------------------------------------------------------------


def _primitive_slopes():
    return [(p, q) for q in range(1, 4) for p in range(-3, 4)
            if math.gcd(abs(p), q) == 1 and (p, q) not in ((0, 1), (1, 1))]


def torus_panels(seed):
    rng = _rng("torus-panels", seed)
    pool = _torus_points(rng, POOL_SIZE)
    per_cycle = 2 * 2 * FRESH_PER_KIND + 3 * FRESH_PER_KIND
    fresh = iter(_torus_points(rng, TORUS_CYCLES * per_cycle))
    # A path's C1 grows as weight * e^t whatever the base's C1, so its
    # failures depend on the base's B1 and the weight: stratify both.
    b_strata, w_strata = list(range(TORUS_CYCLES)), list(range(TORUS_CYCLES))
    rng.shuffle(b_strata)
    rng.shuffle(w_strata)
    paths = iter(
        ([base[0], base[1],
          _log_uniform(*TORUS_CUFF, (b + rng.random()) / TORUS_CYCLES)],
         0.5 + 1.5 * (w + rng.random()) / TORUS_CYCLES)
        for base, b, w in zip(_torus_points(rng, TORUS_CYCLES), b_strata, w_strata))

    def pool_draws():  # every pool point equally often
        while True:
            order = list(pool)
            rng.shuffle(order)
            yield from order

    pooled = pool_draws()
    slopes = _primitive_slopes()
    mus = []
    for _ in range(8):
        p, q = rng.choice(slopes + [(0, 1), (1, 1), (1, 0)])
        cls = "C1" if (p, q) == (1, 0) else f"w({p},{q})"
        mu = [{"class_id": cls, "weight": rng.uniform(0.2, 3.0)}]
        if rng.random() < 0.5:
            mu.append({"class_id": "B1", "weight": rng.uniform(0.2, 3.0)})
        mus.append(mu)

    ops = []
    for _ in range(TORUS_CYCLES):
        cycle = []
        for kind in TORUS_KINDS:
            for k in range(POOL_PER_KIND + FRESH_PER_KIND):
                src = "pool" if k < POOL_PER_KIND else "fresh"

                def point():
                    return next(pooled if src == "pool" else fresh)

                op = {"kind": kind, "src": src, "x": point()}
                if kind in ("dist3", "dist6"):
                    op["y"] = point()
                elif kind == "horofn":
                    op["mu"] = rng.choice(mus)
                elif kind == "wlen":
                    op["slope"] = list(rng.choice(slopes))
                cycle.append(op)
        base, weight = next(paths)
        for t in PATH_TS:
            cycle.append({"kind": "path", "src": "fresh", "x": base, "t": t,
                          "mu": [{"class_id": "w(0,1)", "weight": weight}]})
        rng.shuffle(cycle)
        ops.extend(cycle)
    return {"workload": "torus-panels", "seed": seed, "ops": ops,
            "horo_base": list(HORO_BASE),
            "setup": {"surfaces": [[1, 0, 1]],
                      "panels": [[1, 0, 1, 3], [1, 0, 1, 6]]}}


def torus_points(op):
    """The torus points (lC, tau, lB) an operation evaluates, of either
    torus-panels or cli-cold; a scaling-path point has C1 = weight * e^t."""
    if op["kind"] == "path":
        _, tau, lB = op["x"]
        return [[op["mu"][0]["weight"] * math.exp(op["t"]), tau, lB]]
    if "src" in op:  # torus-panels
        return [op["x"]] + ([op["y"]] if "y" in op else [])
    if op["kind"] in ("curve-length", "double"):
        return [op["check"]["point"]]
    if op["kind"] == "distance-torus":
        return [op["check"]["x"], op["check"]["y"]]
    return []


def long_cuff(op):
    """Whether an op evaluates a torus point with a cuff of length >= LONG_CUFF."""
    return any(max(p[0], p[2]) >= LONG_CUFF for p in torus_points(op))


# -- cli-cold ------------------------------------------------------------------------------


def cli_cold(seed, workdir):
    rng = _rng("cli-cold", seed)
    fixed = _fixed_rng("cli-cold")
    lo, hi = CLI_CUFF

    def cuff():
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    def pants():
        return [cuff(), cuff(), cuff()]

    # torus points from torus-panels' domain, a Latin hypercube per use, and
    # the curves, the same for every seed: the long cuffs reach known defects
    torus_draws = {use: iter(_torus_lhs(fixed, CLI_CYCLES))
                   for use in ("curve", "double", "x", "y")}
    curves = fixed.sample(CURVES, len(CURVES))

    def torus(use):
        return next(torus_draws[use])

    ops = []

    def add(kind, argv, check=None, files=None):
        ops.append({"kind": kind, "argv": argv, "files": files or {},
                    "check": check or {}})

    for cycle in range(CLI_CYCLES):
        p = pants()
        alias = rng.choice(ARC_ALIASES)
        add("arc-length", ["arc-length", "--pants", _fmt_triple(p), "--arc", alias],
            {"point": p, "arc": alias})
        x = torus("curve")
        curve = curves[cycle % len(curves)]
        add("curve-length", ["curve-length", "--torus", _fmt_triple(x),
                             "--curve", curve], {"point": x, "curve": curve})
        x = torus("double")
        add("double", ["double", "--torus", _fmt_triple(x)], {"point": x})
        x, y = pants(), pants()
        add("distance-pants", ["distance", "--pants", "--x", _fmt_triple(x),
                               "--y", _fmt_triple(y)], {"x": x, "y": y})
        x, y = torus("x"), torus("y")
        add("distance-torus", ["distance", "--torus", "--x", _fmt_triple(x),
                               "--y", _fmt_triple(y), "--panel-n", "3"],
            {"x": x, "y": y})
        b, pt, at = pants(), pants(), pants()
        if cycle % 2 == 0:
            add("horofn", ["horofn", "--pants", "--base", _fmt_triple(b),
                           "--point", _fmt_triple(pt), "--at", _fmt_triple(at)],
                {"base": b, "point": pt, "at": at})
        else:
            mu = [{"class_id": rng.choice(ARC_ALIASES), "weight": 1.0}]
            add("horofn", ["horofn", "--pants", "--base", _fmt_triple(b),
                           "--mu", json.dumps(mu), "--at", _fmt_triple(at)],
                {"base": b, "mu": mu, "at": at})
        n = len(ops)
        cfg = os.path.join(workdir, f"cfg{n}.json")
        _write(cfg, {"surface": [0, 0, 3],
                     "base_point": dict(zip(("B1", "B2", "B3"), pants())),
                     "mu": [{"class_id": rng.choice(ARC_ALIASES), "weight": 1.0}],
                     "panel_n": 0, "grid": SWEEP_GRID})
        files = {"csv": os.path.join(workdir, f"op{n}.csv"),
                 "json": os.path.join(workdir, f"op{n}.json")}
        add("experiment", ["experiment", "boundary-limit", cfg,
                           "--csv", files["csv"], "--json", files["json"]],
            {"verb": "boundary-limit"}, files)
        add("desk", ["distance", "--pants", "--x", "2,2,2", "--y", "4,4,4"])
    return {"workload": "cli-cold", "seed": seed, "ops": ops,
            "setup": {"surfaces": [[0, 0, 3], [1, 0, 1]],
                      "panels": [[0, 0, 3, 0], [1, 0, 1, 3]]}}


def generate(workload, seed, workdir):
    if workload == "experiment-sweep":
        return experiment_sweep(seed, workdir)
    if workload == "torus-panels":
        return torus_panels(seed)
    if workload == "cli-cold":
        return cli_cold(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")

