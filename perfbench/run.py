"""arcmetric benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload experiment-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
Workloads, their operation mix and the layer map are described in
perfbench/workloads.json.  The run

1. generates the workload's inputs from the seed (configs go to a scratch
   directory under .perfbench_work/ in the checkout);
2. starts worker.py, which runs every operation once, then times a closed
   loop with one client for --seconds (and, traced, one more pass); between
   operations of the loop, with its clock stopped, it times set-up in fresh
   interpreters (import arcmetric, build the surfaces and panels) several
   times, under `-X importtime` with --trace 1;
3. checks the first-pass outputs against references that share no code
   with the program (checks.py), and every later output against the first;
4. prints a table with units and sample counts, then one JSON line.

An operation fails when it raises (a typed ArcmetricError, or a raw
exception or NaN), exits nonzero, or fails its check.  Failures are counted,
never dropped: `attempted` and `failed` count the operations of the list,
each once, and every later execution must end as its first did.  `correct`
is false when an output was not reproducible (within the run, under
tracing, or against an earlier run of the same seed and code) or when an
operation fails outside the program's known defects (known_failure).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("experiment-sweep", "torus-panels", "cli-cold")
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
RUN_BUDGET_S = 170.0

E2E = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
       ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def load_spec():
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return math.nan
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def code_digest():
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "arcmetric"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


# -- checks ------------------------------------------------------------------------------


def run_checks(data, first_pass):
    """One reason string (or None) per operation whose first run succeeded."""
    workload = data["workload"]
    checker = {"experiment-sweep": _check_sweep, "torus-panels": _check_torus,
               "cli-cold": _check_cli}[workload](data)
    reasons = []
    for op, rec in zip(data["ops"], first_pass):
        if rec["outcome"] != "ok":
            reasons.append(None)
            continue
        try:
            reasons.append(checker(op, rec["output"]))
        except Exception as exc:  # a check that cannot run is a failed check
            reasons.append(f"check error {type(exc).__name__}: {exc}")
    return reasons


def _check_sweep(data):
    import checks

    def check(op, out):
        return checks.check_experiment(op["verb"], out["exit"], out["stdout"],
                                       out["files"])
    return check


def _torus_context():
    import checks
    from arcmetric import geometry, lamination
    from arcmetric.topology import enumerate_panel

    surface = geometry.torus_surface()
    panels = {k: enumerate_panel(surface, k) for k in (3, 6)}
    refs = {}

    def ref(p):
        key = tuple(p)
        if key not in refs:
            refs[key] = checks.reference("torus", key)
        return refs[key]

    def ivec(mu, k):
        lam = lamination.lamination_from_dict(surface, mu)
        return [lamination.intersection_number(lam, e) for e in panels[k]]

    return panels, ref, ivec


def _check_torus(data):
    import checks

    panels, ref, ivec = _torus_context()
    labels = {k: p.labels() for k, p in panels.items()}
    base = data["horo_base"]

    def check(op, out):
        kind, x = op["kind"], op["x"]
        if kind in ("dist3", "dist6"):
            return checks.check_distance(ref(x), ref(op["y"]), labels[int(kind[-1])],
                                         out["d_xy"], out["d_yx"])
        if kind == "thurston6":
            return checks.check_vector(ref(x), labels[6], out)
        if kind == "horofn":
            return checks.check_boundary_horofunction(
                ref(base), ref(x), ivec(op["mu"], 3), labels[3], out)
        if kind == "wlen":
            return (checks.check_lengths(ref(x), out)
                    or checks.check_fricke(x[0], x[2], out["w(0,1)"], out["w(1,1)"]))
        if kind == "path":
            # w(0,1)-driven path: C1 grows as e^t i(mu, C1), B1 and the twist hold
            vec = ivec(op["mu"], 3)
            i_c1 = vec[labels[3].index("C1")]
            point = [math.exp(op["t"]) * i_c1, x[1], x[2]]
            bad = checks.check_vector(ref(point), labels[3], out)
            if bad or op["t"] < 8:
                return bad
            top = max(vec)
            dist = max(abs(a - v / top) for a, v in zip(out, vec))
            if dist > checks.BOUNDARY_LIMIT_TOL:
                return f"projective distance {dist:.3g} at t = {op['t']}"
            return None
        raise ValueError(f"unknown torus op {kind!r}")
    return check


def _check_cli(data):
    import checks
    from arcmetric import geometry, lamination
    from arcmetric.topology import enumerate_panel

    pants = geometry.pants_surface()
    pants_labels = enumerate_panel(pants, 0).labels()
    panels, ref_torus, _ = _torus_context()
    torus3 = panels[3].labels()

    def ref_pants(p):
        return checks.reference("pants", p)

    def check(op, out):
        kind, c = op["kind"], op["check"]
        printed = out["stdout"].strip()
        if kind == "arc-length":
            label = pants.arc_alias(c["arc"]).label
            return checks.check_lengths(ref_pants(c["point"]), {label: float(printed)},
                                        checks.PRINTED_RTOL)
        if kind == "curve-length":
            return checks.check_lengths(ref_torus(c["point"]),
                                        {c["curve"]: float(printed)},
                                        checks.PRINTED_RTOL)
        if kind == "double":
            lC, tau, lB = c["point"]
            want = {"C1": {"length": lC, "twist": tau},
                    "C1m": {"length": lC, "twist": -tau},
                    "B1": {"length": lB, "twist": 0.0}}
            got = json.loads(printed)
            return None if got == want else f"double {got} expected {want}"
        if kind in ("distance-pants", "distance-torus", "desk"):
            got = json.loads(printed)
            if kind == "desk":
                return checks.check_desk(got["d_xy"], got["d_yx"])
            if kind == "distance-pants":
                rx, ry, labels = ref_pants(c["x"]), ref_pants(c["y"]), pants_labels
            else:
                rx, ry, labels = ref_torus(c["x"]), ref_torus(c["y"]), torus3
            return checks.check_distance(rx, ry, labels, got["d_xy"], got["d_yx"])
        if kind == "horofn":
            if "point" in c:
                return checks.check_interior_horofunction(
                    ref_pants(c["point"]), ref_pants(c["base"]), ref_pants(c["at"]),
                    pants_labels, float(printed), checks.PRINTED_RTOL)
            mu = lamination.lamination_from_dict(pants, c["mu"])
            ivec = [lamination.intersection_number(mu, e)
                    for e in enumerate_panel(pants, 0)]
            return checks.check_boundary_horofunction(
                ref_pants(c["base"]), ref_pants(c["at"]), ivec, pants_labels,
                float(printed), checks.PRINTED_RTOL)
        if kind == "experiment":
            # README tolerances are experiment-sweep's checks; here the output
            # is checked against the same argv run in process
            return None if out["exit"] == 0 else f"exit code {out['exit']}"
        raise ValueError(f"unknown cli op {kind!r}")
    return check


# -- determinism ---------------------------------------------------------------------------


def run_digest(first_pass):
    h = hashlib.sha256()
    for rec in first_pass:
        h.update((rec.get("digest") or rec["outcome"]).encode())
    return h.hexdigest()


def compare_with_earlier_runs(workload, seed, size, digest):
    """Flag a digest that differs from an earlier run of the same inputs and code."""
    path = os.path.join(WORK, "digests.json")
    try:
        with open(path) as fh:
            seen = json.load(fh)
    except (OSError, ValueError):
        seen = {}
    key = f"{workload}:{seed}:{size}:{code_digest()}"
    earlier = seen.setdefault(key, digest)
    with open(path, "w") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    return earlier == digest


# -- metrics ---------------------------------------------------------------------------------


def summarize(data, report, reasons, spec):
    """End-to-end figures of the timed loop, in raw wall time, and the
    failure counts of the operation list.

    ops_per_s counts correct executions over the whole loop.  Latencies are
    those of completed executions: every one that returned an output.
    Failures are counted per operation of the list, each once (its first
    pass and check): the loop only repeats them, and how many repeats fit
    in the run depends on the machine's speed, not on the program.
    """
    loop = report["loop"]
    first = report["first_pass"]
    n = len(data["ops"])
    codes = loop["codes"]
    bad = [r is not None for r in reasons]
    # 0 ok, 1 raw, 2 typed, 3 output differs from the first pass
    ok = sum(c == 0 and not bad[i % n] for i, c in enumerate(codes))
    lat = sorted(1e3 * t for t, c in zip(loop["latencies"], codes) if c in (0, 3))
    raw = sum(r["outcome"] == "raw" for r in first)
    typed = sum(r["outcome"] == "typed" for r in first)
    check = sum(bad)
    tail_p = spec["tail_percentile"]
    beyond = len(lat) - max(1, math.ceil(tail_p / 100.0 * len(lat))) if lat else 0
    return {
        "attempted": n, "failed": raw + typed + check,
        "raw": raw, "typed": typed, "check": check,
        "executions": len(codes), "ok": ok, "elapsed_s": loop["elapsed_s"],
        "latencies": len(lat), "tail_p": tail_p, "tail_beyond": beyond,
        "ops_per_s": ok / loop["elapsed_s"],
        "op_p50_ms": statistics.median(lat) if lat else math.nan,
        "op_tail_ms": percentile(lat, tail_p),
        "failed_ratio": (raw + typed + check) / n,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def shares(data, first_pass, reasons):
    """Measured shares of the operation list (each operation counted once)."""
    import inputs

    ops = data["ops"]
    n = len(ops)
    out = {"ops_in_list": n,
           "failing_share": sum(1 for r, c in zip(first_pass, reasons)
                                if r["outcome"] != "ok" or c) / n}
    if data["workload"] == "torus-panels":
        out["pool_share"] = sum(op["src"] == "pool" for op in ops) / n
        out["fresh_share"] = 1.0 - out["pool_share"]
    if data["workload"] != "experiment-sweep":
        out["long_cuff_share"] = sum(map(inputs.long_cuff, ops)) / n
    kinds = {}
    for op in ops:
        key = op.get("verb") or op["kind"]
        kinds[key] = kinds.get(key, 0) + 1
    out["mix"] = kinds
    return out


def layer_metrics(data, report, summary, imports):
    tr = report["trace"]
    layers, fns = tr["layers"], tr["functions"]

    def fn(name, field):
        return fns.get(name, {}).get(field, 0)

    m = {}
    for layer in ("hyptrig", "topology", "metric", "halfplane"):
        m[f"{layer}.calls"] = (layers[layer]["calls"], "count")
        m[f"{layer}.self_s"] = (layers[layer]["self_s"], "s")
    ix_calls = fn("lamination.intersection_number", "calls")
    m["lamination.intersection_number.calls"] = (ix_calls, "count")
    m["lamination.intersection_number.unique_ratio"] = (
        tr["intersection_pairs"] / ix_calls if ix_calls else 0.0, "ratio")
    m["lamination.self_s"] = (layers["lamination"]["self_s"], "s")
    m["asymptotics.scaling_path.calls"] = (fn("asymptotics.scaling_path", "calls"), "count")
    m["asymptotics.validate_path_spec.calls"] = (
        fn("asymptotics.validate_path_spec", "calls"), "count")
    m["asymptotics.self_s"] = (layers["asymptotics"]["self_s"], "s")
    m["geometry.class_length.calls"] = (fn("geometry.class_length", "calls"), "count")
    m["geometry.self_s"] = (layers["geometry"]["self_s"], "s")
    lookups = tr["cache_hits"] + tr["cache_misses"]
    m["geometry.holonomy_build.hit_ratio"] = (
        tr["cache_hits"] / lookups if lookups else 0.0, "ratio")
    m["holonomy.build_pants.calls"] = (fn("holonomy.build_pants", "calls"), "count")
    m["holonomy.build_pants.self_s"] = (fn("holonomy.build_pants", "self_s"), "s")
    word_length = "holonomy.GeneratorSet.word_length"
    m["holonomy.word_length.calls"] = (fn(word_length, "calls"), "count")
    m["holonomy.word_length.self_s"] = (fn(word_length, "self_s"), "s")
    m["cli.self_s"] = (layers["cli"]["self_s"], "s")
    for key in ("total_s", "numpy_s", "scipy_s", "arcmetric_self_s"):
        m[f"import.{key}"] = (statistics.median(i[key] for i in imports), "s")
    m["failed.raw"] = (summary["raw"], "count")
    m["failed.typed"] = (summary["typed"], "count")
    m["failed.check"] = (summary["check"], "count")
    untraced = summary["executions"] / summary["elapsed_s"]
    if data["workload"] == "cli-cold":
        traced = report["importtime"]["ops"] / report["importtime"]["elapsed_s"]
    else:
        traced = tr["ops"] / tr["elapsed_s"]
    m["trace.overhead_ratio"] = (untraced / traced, "ratio")
    return m


# -- output ------------------------------------------------------------------------------------


def print_table(rows):
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>12}  {unit:<6}  {note}")


def known_failure(workload, op, rec, reason):
    """Whether a failed operation is one of the program's known defects at
    this commit (README boundary-limit tolerance misses on experiment-sweep;
    errors and wrong lengths on torus points with a cuff >= inputs.LONG_CUFF).
    Any other failure makes the run incorrect."""
    import checks
    import inputs

    if workload == "experiment-sweep":
        return rec["outcome"] == "ok" and op["verb"] == "boundary-limit" and \
            checks.boundary_limit_miss(rec["output"]["files"]) is not None
    return inputs.long_cuff(op)


def run(workload, seed, seconds, trace):
    spec = load_spec()["workloads"][workload]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    started = time.monotonic()
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        import inputs

        data = inputs.generate(workload, seed, workdir)
        # set-up probes, spread over the timed loop by the worker
        data["setup_repeats"] = IMPORTTIME_REPEATS if trace else SETUP_REPEATS
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w") as fh:
            json.dump(data, fh)
        report_path = os.path.join(workdir, "report.json")
        budget = RUN_BUDGET_S - (time.monotonic() - started)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), inputs_path,
                        repr(float(seconds)), str(int(trace)), report_path],
                       cwd=ROOT, timeout=budget, check=True)
        with open(report_path) as fh:
            report = json.load(fh)
        first = report["first_pass"]
        reasons = run_checks(data, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarize(data, report, reasons, spec)
    mix = shares(data, first, reasons)
    digest = run_digest(first)
    first_codes = [("ok", "raw", "typed").index(r["outcome"]) for r in first]
    stable = {
        "within run": all(c == first_codes[i % len(first)]
                          for i, c in enumerate(report["loop"]["codes"])),
        "earlier runs of this seed": compare_with_earlier_runs(
            workload, seed, len(first), digest),
    }
    if trace:
        stable["traced pass"] = report["trace"]["changed"] == 0
    failing = [(op, rec, why) for op, rec, why in zip(data["ops"], first, reasons)
               if rec["outcome"] != "ok" or why]
    unknown = [f for f in failing if not known_failure(workload, *f)]
    correct = all(stable.values()) and not unknown

    print(f"workload {workload}  seed {seed}  loop closed, {spec['clients']} client"
          f"  timed {summary['elapsed_s']:.2f} s  trace {int(trace)}  (raw wall time)")
    n_lat = summary["latencies"]
    setup = [p["setup_s"] for p in report["probes"]]
    rows = [
        ("ops_per_s", summary["ops_per_s"], "1/s",
         f"n={summary['ok']} ok of {summary['executions']} executions"),
        ("op_p50_ms", summary["op_p50_ms"], "ms", f"n={n_lat}, median"),
        ("op_tail_ms", summary["op_tail_ms"], "ms",
         f"n={n_lat}, p{summary['tail_p']}, {summary['tail_beyond']} beyond"),
        ("failed_ratio", summary["failed_ratio"], "ratio",
         f"n={summary['attempted']} operations: {summary['raw']} raw, "
         f"{summary['typed']} typed, {summary['check']} check"),
        ("peak_rss_mb", summary["peak_rss_mb"], "MB",
         "largest cli child" if workload == "cli-cold" else "workload process"),
    ]
    if not trace:
        rows.insert(0, ("setup_s", statistics.median(setup), "s",
                        f"n={len(setup)} fresh interpreters across the loop, median"))
    print_table(rows)
    print("  shares: " + json.dumps(mix, sort_keys=True))
    print(f"  checks: {sum(r['outcome'] == 'ok' for r in first)} outputs checked, "
          f"{sum(r is not None for r in reasons)} failed; "
          f"{len(failing)} of {len(first)} operations fail, "
          f"{len(unknown)} outside the known defects")
    for op, rec, why in (unknown or failing)[:5]:
        print(f"    {op.get('verb') or op['kind']}: {rec.get('error') or why}")
    print("  determinism: " + ", ".join(f"{k} {'ok' if v else 'DIFFERS'}"
                                        for k, v in stable.items())
          + f"  digest {digest[:16]}")

    if trace:
        imports = report["importtime"]["imports"] if workload == "cli-cold" \
            else [p["imports"] for p in report["probes"]]
        layers = layer_metrics(data, report, summary, imports)
        moves = load_spec()["layer_map"]
        print_table([(name, value, unit, "moves " + moves[name])
                     for name, (value, unit) in layers.items()])
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
    else:
        values = dict(summary, setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arcmetric", "__init__.py")):
        print(f"error: no arcmetric sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
