"""Workload process: builds the operations, checks them once, then times them.

Run by run.py in a fresh interpreter:

    python3 perfbench/worker.py INPUTS.json SECONDS TRACE REPORT.json

One client issues operations one after another (a closed loop), cycling
through the seeded operation list until SECONDS have passed.  The first pass
over the list records every output for run.py's checks; later executions
are compared with it byte for byte.  The set-up probes run between
executions of the timed loop, with its clock stopped.  With TRACE = 1 a
traced pass follows the timed loop (see tracer.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import select
import subprocess
import sys
import tempfile
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from arcmetric.errors import ArcmetricError  # noqa: E402

OK, RAW, TYPED, MISMATCH = "ok", "raw", "typed", "mismatch"
CLI_TIMEOUT_S = 60.0
IMPORTTIME_OPS = 8  # one cycle of cli-cold's mix
PROBE_TIMEOUT_S = 60.0
_NAN = re.compile(r"\bnan\b", re.IGNORECASE)


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def exit_class(code: int) -> str:
    """Documented CLI exit codes are typed failures; anything else is raw."""
    if code == 0:
        return OK
    return TYPED if code in (2, 3, 4) else RAW


def has_nan(output) -> bool:
    if isinstance(output, float):
        return math.isnan(output)
    if isinstance(output, str):
        return bool(_NAN.search(output))
    if isinstance(output, dict):
        return any(has_nan(v) for v in output.values())
    if isinstance(output, (list, tuple)):
        return any(has_nan(v) for v in output)
    return False


def read_files(files):
    out = {}
    for name, path in sorted(files.items()):
        try:
            with open(path) as fh:
                out[name] = fh.read()
        except OSError:
            out[name] = None
    return out


# -- operations ---------------------------------------------------------------------
#
# Each operation is a pair (call, collect): call() is the timed work and
# collect(result) turns its result into a JSON-able output, outside the timing.


def cli_in_process(argv, files):
    from arcmetric import cli

    def call():
        for path in files.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)  # looked up per call, so tracing sees it
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return code, buf.getvalue()

    def collect(result):
        code, stdout = result
        return {"exit": code, "stdout": stdout, "files": read_files(files)}

    return call, collect


def cli_subprocess(argv, files, importtime=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + ["-m", "arcmetric.cli"] + list(argv)

    def call():
        for path in files.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        return run_child(cmd, env)

    def collect(result):
        code, stdout, _ = result
        return {"exit": code, "stdout": stdout, "files": read_files(files)}

    return call, collect


CLI_PEAK_RSS_KB = [0]  # largest resident set of any CLI child so far


def run_child(cmd, env):
    """Run cmd to completion: (exit code, stdout, stderr).  The child is
    reaped with wait4, so its own peak memory goes into CLI_PEAK_RSS_KB
    apart from that of the set-up probes, which are children too."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CLI_TIMEOUT_S)[0]:
                proc.kill()
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        CLI_PEAK_RSS_KB[0] = max(CLI_PEAK_RSS_KB[0], usage.ru_maxrss)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode()


def torus_ops(inputs):
    from arcmetric import asymptotics as asy
    from arcmetric import geometry as geo
    from arcmetric import lamination as lam
    from arcmetric import metric as met
    from arcmetric.topology import CurveClass, enumerate_panel

    surface = geo.torus_surface()
    panels = {3: enumerate_panel(surface, 3), 6: enumerate_panel(surface, 6)}
    base = geo.torus_point(*inputs["horo_base"])
    # boundary horofunctions and path specs are built once, before timing
    prepared, built = {}, []

    def point(p):
        return geo.torus_point(*p)

    def lamination(mu):
        return lam.lamination_from_dict(surface, mu)

    for op in inputs["ops"]:
        kind, X = op["kind"], point(op["x"])
        if kind in ("dist3", "dist6"):
            panel, Y = panels[int(kind[-1])], point(op["y"])

            def call(X=X, Y=Y, panel=panel):
                return met.arc_metric(X, Y, panel), met.arc_metric(Y, X, panel)

            def collect(r):
                return {"d_xy": r[0].value, "max_xy": r[0].maximizer,
                        "d_yx": r[1].value, "max_yx": r[1].maximizer}
        elif kind == "thurston6":
            def call(X=X):
                return met.thurston_vector(X, panels[6])

            collect = list
        elif kind == "horofn":
            key = json.dumps(op["mu"], sort_keys=True)
            if key not in prepared:
                prepared[key] = prepare(met.boundary_horofunction,
                                        lamination(op["mu"]), base, panels[3])

            def call(X=X, h=prepared[key]):
                return met.horofunction_eval(raise_failed(h), X)

            collect = float
        elif kind == "wlen":
            slope = tuple(op["slope"])
            classes = [CurveClass("word", "w(0,1)", (0, 1)),
                       CurveClass("word", "w(1,1)", (1, 1)),
                       CurveClass("word", f"w({slope[0]},{slope[1]})", slope)]

            def call(X=X, classes=classes):
                return [geo.class_length(X, c) for c in classes]

            def collect(r, classes=classes):
                return {c.label: v for c, v in zip(classes, r)}
        elif kind == "path":
            key = json.dumps([op["x"], op["mu"]])
            if key not in prepared:
                prepared[key] = prepare(asy.make_path_spec, lamination(op["mu"]), X)

            def call(spec=prepared[key], t=op["t"]):
                return met.thurston_vector(asy.scaling_path(raise_failed(spec), t),
                                           panels[3])

            collect = list
        else:
            raise ValueError(f"unknown torus op {kind!r}")
        built.append((call, collect))
    return built


def prepare(fn, *args):
    """fn(*args), or the exception it raised, for the operations to re-raise."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def raise_failed(value):
    if isinstance(value, Exception):
        raise value
    return value


def build_ops(inputs):
    workload = inputs["workload"]
    if workload == "torus-panels":
        return torus_ops(inputs)
    return [cli_in_process(op["argv"], op["files"]) for op in inputs["ops"]]


# -- execution ------------------------------------------------------------------------


def execute(call, collect):
    """(outcome, seconds, output or error text)."""
    t0 = time.perf_counter()
    try:
        result = call()
    except ArcmetricError as exc:
        return TYPED, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # the benchmark must survive any program failure
        return RAW, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    try:
        output = collect(result)
    except Exception as exc:
        return RAW, dt, f"{type(exc).__name__} on output: {exc}"
    if isinstance(output, dict) and "exit" in output and output["exit"] != 0:
        stderr = result[2] if len(result) > 2 else ""
        return exit_class(output["exit"]), dt, \
            f"exit {output['exit']}: {stderr.strip().splitlines()[-1:]}"
    if has_nan(output):
        return RAW, dt, "NaN in output"
    return OK, dt, output


def first_pass(ops):
    records = []
    for call, collect in ops:
        outcome, dt, out = execute(call, collect)
        rec = {"outcome": outcome}
        if outcome == OK:
            rec["output"], rec["digest"] = out, digest(out)
        else:
            rec["error"] = out[:300]
        records.append(rec)
    return records


CODES = {OK: 0, RAW: 1, TYPED: 2, MISMATCH: 3}


def setup_probe(setup, importtime):
    """Set-up time in a fresh interpreter (setup_probe.py); with `importtime`,
    also the `-X importtime` breakdown of that interpreter."""
    from tracer import parse_importtime

    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + [os.path.join(HERE, "setup_probe.py"), json.dumps(setup)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        out["imports"] = parse_importtime(proc.stderr)
    return out


def timed_loop(ops, reference, seconds, probe, n_probes):
    """Closed loop, one client: cycle through ops until `seconds` pass.

    Execution i runs ops[i % len(ops)]; its outcome code and latency are
    recorded.  probe() is called n_probes times, spread evenly over the
    loop between two executions; the loop clock stops while it runs, so
    set-up is sampled across the run without its time entering the loop's.
    """
    n = len(ops)
    codes, latencies, probes = [], [], []
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        now = time.perf_counter() - start - paused
        if len(probes) < n_probes and now >= (len(probes) + 0.5) * seconds / n_probes:
            t0 = time.perf_counter()
            probes.append(probe())
            paused += time.perf_counter() - t0
            continue
        if now >= seconds and i:
            break
        k = i % n
        outcome, dt, out = execute(*ops[k])
        if outcome == OK and digest(out) != reference[k].get("digest"):
            outcome = MISMATCH
        codes.append(CODES[outcome])
        latencies.append(dt)
        i += 1
    while len(probes) < n_probes:  # a loop shorter than its first op
        probes.append(probe())
    return {"elapsed_s": now, "codes": codes, "latencies": latencies}, probes


def one_pass(ops, reference):
    """Every op once; (elapsed seconds, ops whose output changed)."""
    changed = 0
    start = time.perf_counter()
    for k, (call, collect) in enumerate(ops):
        outcome, _, out = execute(call, collect)
        if (outcome == OK) != ("digest" in reference[k]) or \
                (outcome == OK and digest(out) != reference[k]["digest"]):
            changed += 1
    return time.perf_counter() - start, changed


def traced_pass(ops, reference, warm):
    from arcmetric import geometry
    from tracer import Tracer

    cache = geometry.holonomy_build  # the lru_cache object, before wrapping
    tracer = Tracer()
    tracer.install()
    try:
        cache.cache_clear()
        if warm:  # fill caches as the timed loop finds them
            one_pass(ops, reference)
        info0 = cache.cache_info()
        tracer.enabled = True
        elapsed, changed = one_pass(ops, reference)
        tracer.enabled = False
        info1 = cache.cache_info()
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary.update(elapsed_s=elapsed, ops=len(ops), changed=changed,
                   cache_hits=info1.hits - info0.hits,
                   cache_misses=info1.misses - info0.misses)
    return summary


def importtime_pass(ops):
    """Each CLI op once under -X importtime; import breakdown per op."""
    from tracer import parse_importtime

    per_op = []
    start = time.perf_counter()
    for op in ops:
        call, _ = cli_subprocess(op["argv"], op["files"], importtime=True)
        code, _, stderr = call()
        if code >= 0:  # not killed at CLI_TIMEOUT_S
            per_op.append(parse_importtime(stderr))
    return {"elapsed_s": time.perf_counter() - start, "ops": len(ops),
            "imports": per_op}


def main(argv):
    inputs_path, seconds, trace, report_path = argv
    seconds, trace = float(seconds), int(trace)
    warnings.simplefilter("ignore")  # numpy overflow warnings on long cuffs
    with open(inputs_path) as fh:
        inputs = json.load(fh)

    ops = build_ops(inputs)
    reference = first_pass(ops)

    def probe():
        return setup_probe(inputs["setup"], importtime=bool(trace))

    cold = inputs["workload"] == "cli-cold"
    timed_ops = [cli_subprocess(op["argv"], op["files"]) for op in inputs["ops"]] \
        if cold else ops
    loop, probes = timed_loop(timed_ops, reference, seconds, probe,
                              inputs["setup_repeats"])
    rss_kb = CLI_PEAK_RSS_KB[0] if cold \
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {"first_pass": reference, "loop": loop, "probes": probes,
              "peak_rss_mb": rss_kb / 1024.0}
    if trace:  # each CLI process starts cold, so cli-cold is traced unwarmed
        report["trace"] = traced_pass(ops, reference, warm=not cold)
        if cold:
            report["importtime"] = importtime_pass(inputs["ops"][:IMPORTTIME_OPS])
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
