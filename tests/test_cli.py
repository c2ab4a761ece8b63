"""Command-line behavior: values, exit codes, determinism of outputs."""

import argparse
import importlib.util
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from arcmetric import cli
from mp_reference import mp_pants_lengths

ARC = [sys.executable, "-m", "arcmetric.cli"]
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "demos" / "configs"

# reports which of the heavy numeric packages, and which of the holonomy
# layers that only verification reaches, the interpreter has loaded
LOADED_REPORT = """
loaded = {name.split(".")[0] for name in sys.modules}
print(json.dumps({"codes": codes, "numpy": "numpy" in loaded,
                  "scipy": "scipy" in loaded,
                  "holonomy": "arcmetric.holonomy" in sys.modules,
                  "halfplane": "arcmetric.halfplane" in sys.modules}))
"""
# runs cli.main on each argv of a JSON list
IMPORT_PROBE = """
import contextlib, io, json, sys
from arcmetric import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
""" + LOADED_REPORT
# class_length of every entry of each (signature, panel level) of a JSON list
LIBRARY_PROBE = """
import json, sys
from arcmetric import geometry as geo
from arcmetric.topology import build_surface, enumerate_panel
codes = []
for sig, level in json.loads(sys.argv[1]):
    surface = build_surface(*sig)
    X = geo.fn_point(surface, {c: (1.5, 0.3) for c in surface.interior_curves},
                     {b: 1.2 for b in surface.boundaries})
    codes.append(sum(geo.class_length(X, e) > 0
                     for e in enumerate_panel(surface, level)))
""" + LOADED_REPORT
NOTHING_LOADED = {"numpy": False, "scipy": False, "holonomy": False,
                  "halfplane": False}


def loaded_packages(*argvs, probe=IMPORT_PROBE):
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def run(*args, **kw):
    return subprocess.run(ARC + list(args), capture_output=True, text=True,
                          **kw)


def test_arc_length_values():
    out = run("arc-length", "--pants", "2,2,2", "--arc", "a12")
    assert out.returncode == 0
    assert float(out.stdout) == pytest.approx(1.704912832358014, abs=1e-8)
    out = run("arc-length", "--pants", "2,2,2", "--arc", "a33")
    assert float(out.stdout) == pytest.approx(3.612225999682252, abs=1e-8)


def test_arc_length_reports_only_double_lengths(capsys):
    # a(B3;B1,B2) is about 6.22e-163 at (1, 1, 1500) and 8.58e-326 at
    # (1, 1, 3000), below the doubles: that one is refused with its log
    # length, never printed as 0
    assert cli.main(["arc-length", "--pants", "1,1,1500", "--arc", "a33"]) == 0
    assert capsys.readouterr().out == "6.22005672e-163\n"
    assert cli.main(["arc-length", "--pants", "1,1,3000", "--arc", "a33"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: length of a(B3;B1,B2) must be "
                                        "positive and finite in double precision")
    with mp.workdps(50):
        log_length = mp.log(mp_pants_lengths(1, 1, 3000)["a(B3;B1,B2)"])
    assert abs(log_length - mp.log(mp.mpf("8.5775574e-326"))) < 1e-7
    assert abs(float(err.rsplit("e^", 1)[1]) - log_length) <= 1e-12 * abs(log_length)


def cli_json(capsys, argv):
    """The JSON cli.main prints for argv, which must parse without a
    non-finite constant."""
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out, parse_constant=pytest.fail)


def test_distance_across_a_crushed_class_is_finite(capsys):
    # a(B3;B1,B2) is about e^-749.98 at (1, 1, 3000): d((1,1,3000), (1,1,1))
    # is set by it, about 749.98, where a ratio of plain lengths was inf
    data = cli_json(capsys, ["distance", "--pants", "--x", "1,1,3000",
                             "--y", "1,1,1"])
    with mp.workdps(50):
        lx, ly = mp_pants_lengths(1, 1, 3000), mp_pants_lengths(1, 1, 1)
        d_xy = max(mp.log(ly[k] / lx[k]) for k in lx)
        d_yx = max(mp.log(lx[k] / ly[k]) for k in lx)
    assert data["d_xy"] == pytest.approx(float(d_xy), rel=1e-9)
    assert data["d_yx"] == pytest.approx(float(d_yx), rel=1e-9)
    assert data["maximizer_xy"] == "a(B3;B1,B2)"


def test_horofn_at_a_crushed_point_is_finite(capsys):
    # Phi(Z) = d(Z, P) - d(X0, P) at Z = (1, 1, 3000), X0 = (1, 1, 1),
    # P = (2, 2, 2): d(Z, P) is set by a(B3;B1,B2), about e^-749.98 at Z
    assert cli.main(["horofn", "--pants", "--base", "1,1,1", "--at", "1,1,3000",
                     "--point", "2,2,2"]) == 0
    value = float(capsys.readouterr().out)
    with mp.workdps(50):
        z, x0, p = (mp_pants_lengths(*c) for c in ((1, 1, 3000), (1, 1, 1), (2, 2, 2)))
        want = (max(mp.log(p[k] / z[k]) for k in p)
                - max(mp.log(p[k] / x0[k]) for k in p))
    assert value == pytest.approx(float(want), rel=1e-8)  # 9 printed digits


@pytest.mark.parametrize("weight", [1e-305, 1e-310, 5e-324])
def test_boundary_limit_with_a_tiny_leaf_weight(weight, tmp_path, capsys):
    # a decaying leaf is longest at the first grid point, where its log
    # length log 6 - log sinh(w / 2) is about 703.8, 716.3 and 746.9
    config = json.loads((CONFIGS / "demo_boundary_pants.json").read_text())
    config["mu"] = [{"class_id": "B1", "weight": weight}]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = cli.main(["experiment", "boundary-limit", str(path)])
    out, err = capsys.readouterr()
    if weight == 1e-305:
        assert code == 0
        data = json.loads(out)
        assert data["final_distance"] == 1.0
        assert data["limit_vector"] == {
            "B1": 0.0, "B2": 0.0, "B3": 0.0, "a(B1,B2;B3)": 0.5,
            "a(B1,B3;B2)": 0.5, "a(B1;B2,B3)": 1.0, "a(B2,B3;B1)": 0.0,
            "a(B2;B1,B3)": 0.0, "a(B3;B1,B2)": 0.0}
    else:
        assert code == 3 and out == ""
        assert err.startswith("error: the moving length of B1 leaves the "
                              "double range at t = 0.0: e^7")


def test_missing_arc_is_usage_error():
    out = run("arc-length", "--pants", "2,2,2")
    assert out.returncode == 2


def test_unknown_arc_is_domain_error():
    out = run("arc-length", "--pants", "2,2,2", "--arc", "zz")
    assert out.returncode == 3


def test_long_cuff_torus_word_has_a_length_or_a_domain_error():
    out = run("curve-length", "--torus", "50,0.3,1", "--curve", "w(1,1)")
    assert out.returncode == 0
    assert out.stdout == "50.3\n"  # mpmath: 50.30000000000...
    # where the trace descent cancels beyond 1e-10 the length is refused
    out = run("curve-length", "--torus", "451.5,42.2,27.5", "--curve", "w(-1,2)")
    assert out.returncode == 3
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr


def test_closed_form_verbs_load_no_numpy_or_scipy():
    report = loaded_packages(
        ["distance", "--pants", "--x", "2,2,2", "--y", "4,4,4"],
        ["double", "--torus", "1.2,0.4,2.2"],
        ["experiment", "boundary-limit",
         str(CONFIGS / "demo_boundary_pants.json")])
    assert report == {"codes": [0, 0, 0], **NOTHING_LOADED}


# stdlib modules the package must not pull in: dataclasses brings inspect,
# ast, dis and tokenize; fractions brings decimal
SLOW_STDLIB = ("dataclasses", "inspect", "fractions", "decimal")
STDLIB_PROBE = """
import contextlib, io, json, sys
{setup}
print(json.dumps([name for name in {modules!r} if name in sys.modules]))
"""
RUN_CLOSED_FORM_VERBS = """from arcmetric import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert [cli.main(argv) for argv in json.loads(sys.argv[1])] == [0, 0, 0]"""


@pytest.mark.parametrize("setup", [
    "import arcmetric", "from arcmetric import cli", RUN_CLOSED_FORM_VERBS],
    ids=["import arcmetric", "import cli", "closed-form verbs"])
def test_imports_and_closed_form_verbs_load_no_slow_stdlib(setup):
    argvs = [["distance", "--pants", "--x", "2,2,2", "--y", "4,4,4"],
             ["double", "--torus", "1.2,0.4,2.2"],
             ["experiment", "boundary-limit",
              str(CONFIGS / "demo_boundary_pants.json")]]
    probe = STDLIB_PROBE.format(setup=setup, modules=SLOW_STDLIB)
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)],
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


def test_torus_words_load_no_numpy_or_scipy():
    report = loaded_packages(
        ["curve-length", "--torus", "2,0.3,1", "--curve", "w(1,1)"],
        ["distance", "--torus", "--x", "1.2,0.4,2.2", "--y", "3,-1,0.5",
         "--panel-n", "3"])
    assert report == {"codes": [0, 0], **NOTHING_LOADED}


# one argv per verb, and each demos/configs experiment
VERB_ARGVS = [
    ["arc-length", "--pants", "2,2,2", "--arc", "a12"],
    ["curve-length", "--torus", "2,0.3,1", "--curve", "w(1,2)"],
    ["double", "--torus", "1.2,0.4,2.2"],
    ["distance", "--torus", "--x", "1.2,0.4,2.2", "--y", "3,-1,0.5",
     "--panel-n", "6"],
    ["horofn", "--torus", "--base", "1.2,0.4,2.2", "--at", "3,-1,0.5",
     "--mu", '[{"class_id": "w(1,1)", "weight": 1}]', "--panel-n", "3"],
    ["experiment", "dt-sphere", "--surface", "1,0,1", "--samples", "3"],
    *[["experiment", verb, str(CONFIGS / config)] for verb, config in [
        ("boundary-limit", "demo_boundary_pants.json"),
        ("boundary-limit", "demo_boundary_torus.json"),
        ("inequality", "demo_cprime.json"),
        ("horo-converge", "demo_horo_pants.json"),
        ("separate", "demo_separate.json")]],
]


@pytest.mark.parametrize("argv", VERB_ARGVS, ids=" ".join)
def test_verbs_never_load_holonomy(argv):
    # production lengths are closed forms; holonomy is verification only
    assert loaded_packages(argv) == {"codes": [0], **NOTHING_LOADED}


ASYMPTOTICS_PROBE = IMPORT_PROBE.replace(LOADED_REPORT, """
print(json.dumps({"codes": codes,
                  "asymptotics": "arcmetric.asymptotics" in sys.modules}))
""")
# the experiments that walk a scaling path; every other verb is closed-form
PATH_EXPERIMENTS = [argv for argv in VERB_ARGVS if argv[0] == "experiment"
                    and argv[1] != "dt-sphere"]


def test_closed_form_verbs_never_load_asymptotics():
    closed_form = [argv for argv in VERB_ARGVS if argv not in PATH_EXPERIMENTS]
    assert [argv[0] for argv in closed_form] == [
        "arc-length", "curve-length", "double", "distance", "horofn",
        "experiment"]
    assert loaded_packages(*closed_form, probe=ASYMPTOTICS_PROBE) == {
        "codes": [0] * 6, "asymptotics": False}


@pytest.mark.parametrize("argv", PATH_EXPERIMENTS, ids=" ".join)
def test_path_experiments_load_asymptotics(argv):
    assert loaded_packages(argv, probe=ASYMPTOTICS_PROBE) == {
        "codes": [0], "asymptotics": True}


# the package modules besides arcmetric and errors that each verb loads in a
# fresh `python -m arcmetric.cli` process (cli itself runs as __main__), and
# whether it may load json; file outputs go to the working directory
CLOSED_FORM = ("geometry", "hyptrig", "topology")
VERB_MODULES = [
    (["arc-length", "--pants", "2,2,2", "--arc", "a12"], CLOSED_FORM, False),
    (["curve-length", "--torus", "2,0.7,1.5", "--curve", "w(1,1)"],
     CLOSED_FORM, False),
    (["double", "--torus", "3.0,0.7,2.0"], CLOSED_FORM, True),
    (["distance", "--pants", "--x", "2,2,2", "--y", "4,4,4"],
     (*CLOSED_FORM, "metric"), True),
    (["horofn", "--pants", "--base", "2,2,2", "--point", "4,4,4", "--at", "3,3,3"],
     (*CLOSED_FORM, "metric"), False),
    (["horofn", "--pants", "--base", "2,2,2", "--at", "3,3,3",
      "--mu", '[{"class_id": "a33", "weight": 1}]'],
     (*CLOSED_FORM, "metric", "lamination"), True),
    (["experiment", "dt-sphere", "--surface", "1,0,1", "--samples", "3"],
     (*CLOSED_FORM, "lamination"), True),
    *[([*argv, "--csv", "out.csv", "--json", "out.json"],
       (*CLOSED_FORM, "asymptotics", "lamination", "metric"), True)
      for argv in PATH_EXPERIMENTS],
]


@pytest.mark.parametrize("argv, modules, loads_json", VERB_MODULES,
                         ids=[" ".join(argv[:2]) + (" --mu" if "--mu" in argv else "")
                              for argv, _, _ in VERB_MODULES])
def test_each_verb_loads_only_the_modules_it_evaluates(argv, modules, loads_json,
                                                       tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-X", "importtime", *ARC[1:], *argv],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert out.returncode == 0, out.stderr
    loaded = {line.rpartition("|")[2].strip() for line in out.stderr.splitlines()
              if line.startswith("import time:")}
    assert {name for name in loaded if name.partition(".")[0] == "arcmetric"} \
        == {"arcmetric", "arcmetric.errors", *(f"arcmetric.{m}" for m in modules)}
    assert loads_json or "json" not in loaded


def test_class_length_never_loads_holonomy():
    cases = [((1, 0, 1), level) for level in range(7)] + [
        (sig, 0) for sig in [(0, 0, 3), (1, 0, 1), (0, 0, 4), (1, 0, 2),
                             (2, 0, 1), (0, 0, 6)]]
    report = loaded_packages(*cases, probe=LIBRARY_PROBE)
    assert report == {"codes": [3, 4, 8, 14, 20, 30, 36, 9, 3, 11, 7, 6, 17],
                      **NOTHING_LOADED}


# the package runs on the standard library: with every import of numpy
# failing, it still imports and runs each argv of a JSON list and each demo
# script of another, and holonomy_build still builds a holonomy
NO_NUMPY_PROBE = """
import contextlib, io, json, runpy, sys


class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, NoNumpy())
import arcmetric
from arcmetric import cli, geometry as geo

with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
    for demo in json.loads(sys.argv[2]):
        runpy.run_path(demo, run_name="__main__")
b1 = geo.holonomy_build(geo.pants_point(2, 2, 2)).word_length("B1")
print(json.dumps({"codes": codes, "B1": b1}))
"""
GOLDEN = ROOT / "tests" / "golden"
_spec = importlib.util.spec_from_file_location("golden_record",
                                               GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def test_package_runs_without_numpy(tmp_path):
    golden_argvs = [["experiment", verb, str(record.config_path(config)),
                     "--csv", str(tmp_path / f"{config}.{verb}.csv"),
                     "--json", str(tmp_path / f"{config}.{verb}.json")]
                    for config, verb in record.CASES]
    demos = sorted(str(d) for d in (ROOT / "demos").glob("0[1-6]_*.py"))
    assert len(demos) == 6
    out = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE,
                          json.dumps(VERB_ARGVS + golden_argvs),
                          json.dumps(demos)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["codes"] == [0] * (len(VERB_ARGVS) + len(golden_argvs))
    assert report["B1"] == pytest.approx(2.0, abs=1e-12)
    for config, verb in record.CASES:
        for suffix in (".csv", ".json"):
            name = f"{config}.{verb}{suffix}"
            if (GOLDEN / name).exists():
                assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
            else:  # separate writes no sweep
                assert not (tmp_path / name).exists()


def test_unsupported_surface_exit_code():
    out = run("experiment", "dt-sphere", "--surface", "0,0,2")
    assert out.returncode == 4


def test_distance_values_and_asymmetry():
    out = run("distance", "--pants", "--x", "2,2,2", "--y", "4,4,4")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["d_xy"] == pytest.approx(math.log(2), abs=1e-12)
    assert data["d_yx"] == pytest.approx(0.7232990422997444, abs=1e-9)
    assert data["panel_n"] == 0
    out2 = run("distance", "--pants", "--x", "2,2,2", "--y", "2,2,2")
    data2 = json.loads(out2.stdout)
    assert data2["d_xy"] == 0.0 and data2["d_yx"] == 0.0


def test_distance_monotone_in_panel_on_torus():
    values = []
    for n in ("0", "3"):
        out = run("distance", "--torus", "--x", "1.2,0.4,2.2",
                  "--y", "2.0,-0.7,0.9", "--panel-n", n)
        values.append(json.loads(out.stdout)["d_xy"])
    assert values[1] >= values[0] - 1e-15


def test_double_matches_embedding():
    out = run("double", "--torus", "3.0,0.7,2.0")
    data = json.loads(out.stdout)
    assert data["C1"] == {"length": 3.0, "twist": 0.7}
    assert data["B1"] == {"length": 2.0, "twist": 0.0}
    assert data["C1m"] == {"length": 3.0, "twist": -0.7}


def test_curve_length_word_class():
    out = run("curve-length", "--torus", "2,0.7,1.5", "--curve", "w(0,1)")
    assert out.returncode == 0
    assert float(out.stdout) > 0


def test_horofn_interior():
    out = run("horofn", "--pants", "--base", "2,2,2", "--point", "4,4,4",
              "--at", "2,2,2")
    assert out.returncode == 0
    assert float(out.stdout) == pytest.approx(0.0, abs=1e-12)


def test_horofn_boundary():
    mu = json.dumps([{"class_id": "a33", "weight": 1.0}])
    out = run("horofn", "--pants", "--base", "2,2,2", "--mu", mu,
              "--at", "2,2,2")
    assert out.returncode == 0
    assert float(out.stdout) == pytest.approx(0.0, abs=1e-12)


def test_horofn_at_a_crushed_class_is_finite():
    # a(B1,B2;B3), crossed by a33, is about e^-748.6 at (1500, 1500, 1):
    # below the doubles, but its log sets the value, about 747.89
    mu = json.dumps([{"class_id": "a33", "weight": 1}])
    out = run("horofn", "--pants", "--base", "1,1,1", "--at", "1500,1500,1",
              "--mu", mu)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) == pytest.approx(747.889629, rel=1e-8)


@pytest.mark.parametrize("argv", [
    ["curve-length", "--torus", "1,0,2", "--curve", "w(a,b)"],
    ["curve-length", "--torus", "1,0,2", "--curve", "w(1)"],
    ["horofn", "--pants", "--base", "1,1,1", "--at", "2,2,2",
     "--mu", '[{"class_id": "a33"}]'],
    ["horofn", "--pants", "--base", "1,1,1", "--at", "2,2,2",
     "--mu", '[{"class_id": "a33", "weight": "heavy"}]'],
    ["horofn", "--pants", "--base", "1,1,1", "--at", "2,2,2",
     "--mu", '{"class_id": "a33", "weight": 1}'],
    ["horofn", "--pants", "--base", "1,1,1", "--at", "2,2,2", "--mu", "a33"],
])
def test_malformed_ids_and_laminations_are_domain_errors(argv, capsys):
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


EXPERIMENT_CONFIGS = {"boundary-limit": "demo_boundary_pants.json",
                      "horo-converge": "demo_horo_pants.json",
                      "inequality": "demo_cprime.json"}
BAD_POINTS = [5, {"B1": "x", "B2": 1, "B3": 1},
              {"B1": {"twist": 1}, "B2": 1, "B3": 1}]


MALFORMED_NUMBERS = [
    *[(["experiment", "boundary-limit"], {"surface": value})
      for value in ("abc", [0, 0], 5, [0, 0, "x"], [0.5, 0, 3])],
    *[(["experiment", "boundary-limit"], {"base_point": value})
      for value in BAD_POINTS],
    *[(["experiment", "horo-converge"], {"probes": [value]})
      for value in BAD_POINTS],
    (["experiment", "inequality"], {"panel_n": 10**12}),
    (["arc-length", "--pants", "a,b,c", "--arc", "a12"], None),
    (["distance", "--pants", "--x", "1,1,x", "--y", "2,2,2"], None),
    (["horofn", "--pants", "--base", "1,1,1", "--at", "3,q,3",
      "--point", "2,2,2"], None),
    (["experiment", "dt-sphere", "--surface", "a,b,c"], None),
    (["experiment", "dt-sphere", "--surface", "0,0"], None),
]


@pytest.mark.parametrize("argv, edit", MALFORMED_NUMBERS, ids=[
    " ".join(argv) + (" " + json.dumps(edit) if edit else "")
    for argv, edit in MALFORMED_NUMBERS])
def test_malformed_numbers_are_typed_errors(argv, edit, tmp_path, capsys):
    if edit is not None:
        cfg = json.loads((CONFIGS / EXPERIMENT_CONFIGS[argv[1]]).read_text())
        cfg.update(edit)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = argv + [str(path)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# argv, exit code, the start of stderr; MISSING is a config path that does
# not exist, HUGE_GRID a config whose grid has 2 * 10**6 + 1 points,
# NAN_GRID one whose grid is [0.0, NaN], BAD_JSON one that is not JSON,
# NOT_UTF8 one that is not UTF-8, UTF16 one in UTF-16, SURROGATE one whose
# bytes encode a lone surrogate, BOM_JSON UTF-8 after a byte order mark and
# DEEP_JSON one nested past the decoder's recursion limit, as is DEEP_MU; DEMO
# is a demo config and NO_DIR an output path in a directory that does not exist
ERROR_CONTRACT = [
    (["arc-length", "--pants", "--arc", "a12"], 3,
     "error: missing Fenchel-Nielsen coordinates\n"),
    (["experiment", "boundary-limit", "BAD_JSON"], 3,
     "error: config BAD_JSON: invalid JSON at line 1 column 3: Expecting "
     "property name enclosed in double quotes\n"),
    (["experiment", "boundary-limit", "NAN_GRID"], 3,
     "error: grid must be finite and strictly increasing with t >= 0\n"),
    (["arc-length", "--point", "2,2,2", "--arc", "a12"], 3,
     "error: select a surface with --pants or --torus\n"),
    (["horofn", "--pants", "--base", "2,2,2", "--at", "3,3,3"], 3,
     "error: give --point (interior) or --mu (boundary)\n"),
    (["experiment", "boundary-limit", "MISSING"], 3,
     "error: config MISSING: [Errno 2]"),
    (["experiment", "boundary-limit", "NOT_UTF8"], 3,
     "error: config NOT_UTF8: not UTF-8 text: invalid start byte at byte 13\n"),
    (["experiment", "boundary-limit", "UTF16"], 3,
     "error: config UTF16: not UTF-8 text: invalid start byte at byte 0\n"),
    (["experiment", "boundary-limit", "SURROGATE"], 3,
     "error: config SURROGATE: not UTF-8 text: invalid continuation byte at "
     "byte 13\n"),
    (["experiment", "boundary-limit", "BOM_JSON"], 3,
     "error: config BOM_JSON: invalid JSON at line 1 column 1: Unexpected "
     "UTF-8 BOM (decode using utf-8-sig)\n"),
    (["experiment", "boundary-limit", "DEEP_JSON"], 3,
     "error: config DEEP_JSON: JSON nested too deeply to decode\n"),
    (["horofn", "--pants", "--base", "2,2,2", "--at", "3,3,3", "--mu", "DEEP_MU"],
     3, "error: --mu: JSON nested too deeply to decode\n"),
    (["experiment", "boundary-limit", "DEMO", "--json", "NO_DIR"], 3,
     "error: cannot write NO_DIR: No such file or directory\n"),
    (["experiment", "boundary-limit", "DEMO", "--csv", "NO_DIR"], 3,
     "error: cannot write NO_DIR: No such file or directory\n"),
    (["experiment", "boundary-limit", "HUGE_GRID"], 3,
     "error: config grid {'start': 0, 'stop': 2000000.0, 'step': 1} "
     "has over 10**6 points\n"),
    (["curve-length", "--pants", "2,2,2", "--curve", "w(1,1)"], 4,
     "unsupported: word class 'w(1,1)' unsupported on S_0,0,3\n"),
    (["distance", "--pants", "--x", "2,2,2", "--y", "4,4,4", "--panel-n", "1001"],
     3, "error: panel complexity must be <= 1000, got 1001\n"),
]


@pytest.mark.parametrize("argv, code, err", ERROR_CONTRACT,
                         ids=[" ".join(argv) for argv, _, _ in ERROR_CONTRACT])
def test_error_contract_in_process(argv, code, err, tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.json" for name in (
        "MISSING", "HUGE_GRID", "NAN_GRID", "BAD_JSON", "NOT_UTF8", "UTF16",
        "SURROGATE", "BOM_JSON", "DEEP_JSON")}
    cfg = json.loads((CONFIGS / "demo_boundary_pants.json").read_text())
    for name, grid in (("HUGE_GRID", {"start": 0, "stop": 2e6, "step": 1}),
                       ("NAN_GRID", [0.0, math.nan])):
        paths[name].write_text(json.dumps({**cfg, "grid": grid}))
    paths["BAD_JSON"].write_text("{ not json }")
    paths["NOT_UTF8"].write_bytes(b'{"surface": "\xff"}')
    paths["UTF16"].write_text(json.dumps(cfg), encoding="utf-16")
    paths["SURROGATE"].write_bytes(b'{"surface": "\xed\xa0\x80"}')
    paths["BOM_JSON"].write_text(json.dumps(cfg), encoding="utf-8-sig")
    deep = "[" * 20000 + "]" * 20000
    paths["DEEP_JSON"].write_text(deep)
    subs = {**paths, "DEEP_MU": deep, "DEMO": CONFIGS / "demo_boundary_pants.json",
            "NO_DIR": tmp_path / "no-dir" / "out.json"}
    for name, value in subs.items():
        argv = [str(value) if arg == name else arg for arg in argv]
        err = err.replace(name, str(value))
    assert cli.main(argv) == code
    out, stderr = capsys.readouterr()
    assert out == "" and stderr.startswith(err)
    assert stderr.count("\n") == 1


def test_a_failed_output_write_leaves_neither_output(tmp_path, capsys):
    # the CSV sweep is written first: an unwritable JSON summary removes it,
    # and an unwritable CSV stops before the summary is opened
    demo, missing = CONFIGS / "demo_boundary_pants.json", tmp_path / "no-dir"
    for csv_path, json_path in ((tmp_path / "x.csv", missing / "x.json"),
                                (missing / "x.csv", tmp_path / "x.json")):
        assert cli.main(["experiment", "boundary-limit", str(demo), "--csv",
                         str(csv_path), "--json", str(json_path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write ")
    assert list(tmp_path.iterdir()) == []


# a lamination holds only classes its surface carries: a slope off the torus
# is refused when the lamination is built, before any intersection or length
SLOPE_MU = '[{"class_id": "w(1,1)", "weight": 1}]'


@pytest.mark.parametrize("argv, surface", [
    *[(["experiment", verb, "SLOPE_CONFIG"], "S_0,0,4")
      for verb in ("inequality", "boundary-limit", "horo-converge")],
    (["horofn", "--pants", "--base", "1,1,1", "--at", "2,2,2", "--mu", SLOPE_MU],
     "S_0,0,3"),
], ids=["inequality", "boundary-limit", "horo-converge", "horofn"])
def test_a_lamination_with_a_slope_off_the_torus_exits_4(argv, surface, tmp_path,
                                                         capsys):
    config = json.loads((GOLDEN / "configs" / "S_0_0_4.json").read_text())
    path = tmp_path / "slope.json"
    path.write_text(json.dumps({**config, "mu": json.loads(SLOPE_MU)}))
    argv = [str(path) if arg == "SLOPE_CONFIG" else arg for arg in argv]
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"unsupported: word class 'w(1,1)' unsupported on {surface}\n"


@pytest.mark.parametrize("argv, steps", [
    (["curve-length", "--torus", "1,0,1", "--curve", "w(1,10000000)"], 9999999),
    (["arc-length", "--torus", "1,0,1", "--arc", "a(B1;C1,C1)~5000000"], 4999999),
], ids=["slope", "twisted arc"])
def test_class_ids_over_the_descent_cap_exit_3_before_any_length(argv, steps,
                                                                 monkeypatch, capsys):
    # the torus slope descent to 1/q, or to a twisted arc's host (1, k), takes
    # q - 1 or |k| - 1 steps, so an id over the cap is refused when it is parsed
    lengths = []
    monkeypatch.setattr(cli.geo, "log_lengths", lambda *args: lengths.append(args))
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (f"error: class id {argv[-1]!r} takes {steps} "
                                       f"slope descent steps, over the cap 1000000\n")
    assert lengths == []


@pytest.mark.parametrize("curve, out", [
    ("w(10000000,1)", "10000001.6\n"),
    ("w(-1000000,1)", "1000001.59\n"),
    ("w(832040,1346269)", "4070322.78\n"),
    ("w(1" + "0" * 400 + ",1)", None),
])
def test_long_slopes_with_a_short_descent_resolve(curve, out, capsys):
    # |p| + q is far over the descent cap, but (p mod q)/q has small partial
    # quotients; p // q past the double range is a domain error
    code = cli.main(["curve-length", "--torus", "1,0,1", "--curve", curve])
    stdout, err = capsys.readouterr()
    if out is None:
        assert code == 3 and stdout == ""
        assert err.endswith("): p // q is past the double range\n")
    else:
        assert code == 0 and (stdout, err) == (out, "")


@pytest.mark.parametrize("argv", [
    ["arc-length", "--pants", "1,2,3", "--torus", "1,0,1", "--arc", "a12"],
    ["curve-length", "--torus", "1,0,1", "--pants", "--curve", "B1"]])
def test_pants_and_torus_exclude_each_other(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_parser_is_built_once_and_reused(capsys):
    mu = json.dumps([{"class_id": "a33", "weight": 1.0}])
    argvs = [["distance", "--pants", "--x", "2,2,2"],  # usage error: no --y
             ["distance", "--pants", "--x", "2,2,2", "--y", "4,4,4"],
             ["experiment", "dt-sphere", "--surface", "0,0,3", "--samples", "3"],
             ["horofn", "--pants", "--base", "2,2,2", "--at", "3,1,2",
              "--mu", mu],
             ["distance", "--pants", "--x", "2,2,2", "--y", "4,4,4"]]

    def run_main(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    cli.build_parser.cache_clear()
    shared = [run_main(argv) for argv in argvs]
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _ in shared] == [2, 0, 0, 0, 0]
    for argv, result in zip(argvs, shared):
        cli.build_parser.cache_clear()  # a freshly built parser
        assert run_main(argv) == result
    assert shared[1] == shared[4]


def test_twisted_arc_any_twist():
    for verb, flag in (("arc-length", "--arc"), ("curve-length", "--curve")):
        out = run(verb, "--torus", "1,0,2", flag, "a(B1;C1,C1)~6")
        assert out.returncode == 0
        assert float(out.stdout) > 0
    out = run("arc-length", "--torus", "1,0,2", "--arc", "a(B1;C1,C1)~2")
    assert out.returncode == 0
    out = run("arc-length", "--torus", "1,0,2", "--arc", "C1")
    assert out.returncode == 3


def test_dt_sphere_report():
    out = run("experiment", "dt-sphere", "--surface", "1,0,1")
    data = json.loads(out.stdout)
    assert data["coordinate_dim"] == 3 and data["sphere_dim"] == 2
    assert data["roundtrip_pass"] == data["samples"] == 50


CPRIME = {
    "surface": [0, 0, 3],
    "base_point": {"B1": 1.0, "B2": 1.0, "B3": 2.0},
    "mu": [{"class_id": "a33", "weight": 1.0}],
    "panel_n": 0,
    "grid": {"start": 0.0, "stop": 10.0, "step": 0.5},
    "targets": ["a12"],
}


def test_experiment_inequality_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CPRIME))
    csv_path = tmp_path / "out.csv"
    out = run("experiment", "inequality", str(cfg), "--csv", str(csv_path),
              "--json", str(tmp_path / "s.json"))
    assert out.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("t,dev[a12]")
    assert "panel_n=0" in lines[0]
    final = float(lines[-1].split(",")[1])
    assert final == pytest.approx(1.3036446518940543, abs=1e-6)


def test_experiment_csv_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CPRIME))
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        run("experiment", "inequality", str(cfg), "--csv", str(path),
            "--json", str(tmp_path / "sink.json"))
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_experiment_inequality_skips_unsupported_target(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CPRIME, "targets": ["a12", "w(1,1)"]}))
    csv_path = tmp_path / "out.csv"
    out = run("experiment", "inequality", str(cfg), "--csv", str(csv_path))
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert [r["target"] for r in data["targets"]] == ["a(B1,B2;B3)"]
    assert [name for name, _ in data["skipped"]] == ["w(1,1)"]
    assert "unsupported" in data["skipped"][0][1]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,dev[a12],panel_n=0"
    assert len(lines) == 22 and all(len(l.split(",")) == 2 for l in lines[1:])


def test_experiment_boundary_limit(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CPRIME, "grid": [4.0, 6.0, 8.0]}))
    out = run("experiment", "boundary-limit", str(cfg))
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["final_distance"] <= 1e-3
    assert data["limit_vector"]["B3"] == 1.0
    assert data["panel"]["complexity"] == 0


def test_experiment_horo_converge(tmp_path):
    cfg = dict(CPRIME)
    cfg["grid"] = [6.0, 8.0, 10.0]
    cfg["probes"] = [{"B1": 2.0, "B2": 2.0, "B3": 2.0},
                     {"B1": 1.5, "B2": 2.5, "B3": 3.0}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = run("experiment", "horo-converge", str(path))
    assert out.returncode == 0
    assert json.loads(out.stdout)["final_deviation"] <= 1e-2


def test_experiment_separate(tmp_path):
    cfg = {
        "surface": [0, 0, 3],
        "base_point": {"B1": 2.0, "B2": 2.0, "B3": 2.0},
        "mu": [{"class_id": "a33", "weight": 1.0}],
        "nu": [{"class_id": "B3", "weight": 1.0}],
        "panel_n": 0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = run("experiment", "separate", str(path))
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["gap"] >= 1e-3


def test_separate_on_a_panel_that_misses_mu_is_a_domain_error(tmp_path):
    cfg = {
        "surface": [1, 0, 1],
        "base_point": {"C1": {"length": 1.0, "twist": 0.0}, "B1": 2.0},
        "mu": [{"class_id": "C1", "weight": 1.0}],
        "nu": [{"class_id": "B1", "weight": 1.0}],
        "panel_n": 0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = run("experiment", "separate", str(path))
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == "error: the panel misses mu\n"


@pytest.mark.parametrize("verb", ["boundary-limit", "horo-converge"])
def test_a_panel_that_misses_mu_has_one_message(verb, tmp_path):
    # the zero lamination crosses no entry: both path experiments refuse the
    # panel as separate does, with the same message
    cfg = {**json.loads((CONFIGS / "demo_horo_pants.json").read_text()), "mu": []}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = run("experiment", verb, str(path))
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == "error: the panel misses mu\n"


def test_a_class_named_twice_in_a_lamination_exits_3():
    # a12 and a(B1,B2;B3) are one class: its weight is not silently replaced
    mu = json.dumps([{"class_id": "a12", "weight": 1},
                     {"class_id": "a(B1,B2;B3)", "weight": 2}])
    out = run("horofn", "--pants", "--base", "2,2,2", "--at", "1,1,1", "--mu", mu)
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == "error: lamination components must be pairwise distinct\n"


def test_a_base_point_without_an_interior_curve_exits_3(tmp_path):
    cfg = {**json.loads((CONFIGS / "demo_boundary_torus.json").read_text()),
           "base_point": {"B1": 2.0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = run("experiment", "boundary-limit", str(path))
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == "error: interior coordinates must cover ('C1',)\n"


def test_separate_ignores_the_path_of_unnormalized_mu(tmp_path, capsys):
    # separate walks blends of the normalized mu only: a weight whose own
    # path would leave the double range (B3 grows as 1e305 * 2 e^t) is fine
    demo = CONFIGS / "demo_separate.json"
    assert cli.main(["experiment", "separate", str(demo)]) == 0
    gap = json.loads(capsys.readouterr().out)["gap"]
    config = json.loads(demo.read_text())
    config["mu"][0]["weight"] *= 1e305
    path = tmp_path / "separate.json"
    path.write_text(json.dumps(config))
    assert cli.main(["experiment", "separate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["gap"] == pytest.approx(gap, abs=1e-12)


def test_separate_normalizes_a_subnormal_mu(tmp_path, capsys):
    # mu's total length at the base point is below 1 / DBL_MAX: normalize
    # divides by it rather than multiplying by an overflowing reciprocal
    demo = CONFIGS / "demo_separate.json"
    assert cli.main(["experiment", "separate", str(demo)]) == 0
    gap = json.loads(capsys.readouterr().out)["gap"]
    config = json.loads(demo.read_text())
    config["mu"][0]["weight"] = 1e-310
    path = tmp_path / "separate.json"
    path.write_text(json.dumps(config))
    assert cli.main(["experiment", "separate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["gap"] == pytest.approx(gap, abs=1e-12)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("arcmetric ")]
    assert len(lines) == 13
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = [str(ROOT / arg) if arg.startswith("demos/configs/") else arg
                for arg in shlex.split(line)[1:]]
        assert cli.main(argv) == 0, line
    capsys.readouterr()
    assert (tmp_path / "out.csv").read_text().startswith("t,")


def test_malformed_config_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json }")
    out = run("experiment", "inequality", str(path))
    assert out.returncode == 3
    assert "line" in out.stderr
    path2 = tmp_path / "missing.json"
    path2.write_text(json.dumps({"surface": [0, 0, 3]}))
    out2 = run("experiment", "inequality", str(path2))
    assert out2.returncode == 3
    assert "base_point" in out2.stderr


@pytest.mark.parametrize("field, value", [
    ("grid", {"start": 0, "stop": 1, "step": 0}),
    ("grid", "abc"),
    ("grid", {"start": 0, "stop": 1}),
    ("grid", 5),
    ("grid", {"start": 0, "stop": 1, "step": 1e-320}),
    ("panel_n", "abc"),
    ("probes", 5),
    ("targets", 5),
    (None, [1]),  # the config itself is not an object
])
def test_malformed_config_values_are_spec_errors(field, value, tmp_path,
                                                 capsys):
    verb = {"probes": "horo-converge",
            "targets": "inequality"}.get(field, "boundary-limit")
    cfg = json.loads((CONFIGS / EXPERIMENT_CONFIGS[verb]).read_text())
    if field is None:
        cfg = value
    else:
        cfg[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", verb, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path if field is None else field}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_dt_sphere_samples_below_one_is_usage_error(samples, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "dt-sphere", "--surface", "0,0,3",
                  "--samples", samples])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--samples: expected an integer >= 1" in err


@pytest.mark.parametrize("samples", ["100001", str(10 ** 12)])
def test_dt_sphere_samples_above_the_cap_is_usage_error(samples, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "dt-sphere", "--surface", "0,0,3",
                  "--samples", samples])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--samples: expected an integer <= 100000" in err


def test_arc_length_refuses_a_curve_and_curve_length_takes_an_arc(capsys):
    assert cli.main(["arc-length", "--pants", "2,2,2", "--arc", "B1"]) == 3
    assert "names a curve, not an arc" in capsys.readouterr().err
    assert cli.main(["arc-length", "--pants", "2,2,2", "--arc", "a12"]) == 0
    arc = capsys.readouterr().out
    assert cli.main(["curve-length", "--pants", "2,2,2", "--curve", "a12"]) == 0
    assert capsys.readouterr().out == arc == "1.70491283\n"


def test_every_leaf_verb_has_a_handler():
    def leaves(parser):
        subs = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return [parser]
        return [leaf for a in subs for p in a.choices.values()
                for leaf in leaves(p)]

    found = leaves(cli.build_parser())
    assert len(found) == 10
    assert all(callable(p.get_default("func")) for p in found)


# values the argv fuzz draws from besides plain lengths: edge and bad
# numbers (cuffs at which arcs leave the double range among them), ids,
# lamination JSON, and panel levels and sample counts (small, negative, just
# past the cap and huge)
FUZZ_NUMBERS = ["-0.7", "0", "-1", "1e-9", "40", "3000", "1e5", "1e308", "inf",
                "nan", "x", ""]
NON_FINITE = re.compile(r"\b(Infinity|NaN|inf|nan)\b")
FUZZ_VALUES = {
    "--arc": ["a12", "a33", "B1", "C1", "a(B1;C1,C1)", "a(B1;C1,C1)~1",
              "w(1,1)", "w(a,b)", "w(1)", "zz", ""],
    "--mu": ['[{"class_id": "a33", "weight": 1}]', '[{"class_id": "a33"}]',
             '[{"class_id": "C1", "weight": 2}]', '[{"class_id": "B1", "weight": 1}]',
             '[{"class_id": "w(1,1)", "weight": 1}]', '[{"class_id": "a33", '
             '"weight": -1}]', '[{"class_id": "a33", "weight": "x"}]', "[]",
             "{}", "[5]", "a33", ""],
    "--panel-n": ["0", "1", "3", "-1", "1001", str(10 ** 12), "x"],
    "--surface": ["0,0,3", "1,0,1", "0,0,4", "1,0,2", "0,0,2", "0,0", "a,b,c"],
    "--samples": ["1", "3", "0", "100001", "1000000000000", "x"],
    "--seed": ["0", "7", "x"],
}
FUZZ_VALUES["--curve"] = FUZZ_VALUES["--arc"]
FUZZ_FLAGS = {"arc-length": ["--point", "--arc"],
              "curve-length": ["--point", "--curve"],
              "double": ["--point"],
              "distance": ["--x", "--y", "--panel-n"],
              "horofn": ["--base", "--at", "--point", "--mu", "--panel-n"]}


def fuzz_argv(rng):
    """One random argv over every verb and flag; a flag is left out one time
    in five, so required ones go missing too.  Nothing is written to disk."""
    def value(flag):
        if flag in FUZZ_VALUES:
            return rng.choice(FUZZ_VALUES[flag])
        return ",".join(rng.choice(FUZZ_NUMBERS) if rng.random() < 0.2
                        else f"{rng.uniform(0.05, 4):.3g}"
                        for _ in range(rng.choice((2, 3, 3, 3, 4))))

    verb = rng.choice([*FUZZ_FLAGS, "experiment"])
    if verb == "experiment":
        sub = rng.choice(["inequality", "boundary-limit", "horo-converge",
                          "separate", "dt-sphere"])
        if sub != "dt-sphere":
            configs = sorted(CONFIGS.glob("*.json")) + [CONFIGS / "missing.json"]
            return ["experiment", sub, str(rng.choice(configs))]
        flags = ["--surface", "--samples", "--seed"]
        argv = ["experiment", sub]
    else:
        flags = FUZZ_FLAGS[verb]
        argv = [verb, *rng.choice([["--pants"], ["--torus"], [],
                                   ["--pants", "--torus"]])]
        if argv[1:] and rng.random() < 0.5:
            argv.append(value("--point"))
    for flag in flags:
        if rng.random() < 0.8:
            argv += [flag, value(flag)]
    return argv


def test_argv_fuzz_exits_only_with_documented_codes(capsys):
    rng = random.Random(1411)
    codes = {}
    for _ in range(1000):
        argv = fuzz_argv(rng)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        codes.setdefault(code, argv)
        out = capsys.readouterr().out
        # a run that succeeds prints only finite numbers
        assert code != 0 or not NON_FINITE.search(out), (argv, out)
    assert set(codes) == {0, 2, 3, 4}, codes
