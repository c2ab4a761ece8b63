"""Command-line behavior: values, exit codes, determinism of outputs."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from arcmetric import cli

ARC = [sys.executable, "-m", "arcmetric.cli"]
CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

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


def test_class_length_never_loads_holonomy():
    cases = [((1, 0, 1), level) for level in range(7)] + [
        (sig, 0) for sig in [(0, 0, 3), (1, 0, 1), (0, 0, 4), (1, 0, 2),
                             (2, 0, 1), (0, 0, 6)]]
    report = loaded_packages(*cases, probe=LIBRARY_PROBE)
    assert report == {"codes": [3, 4, 8, 14, 20, 30, 36, 9, 3, 11, 7, 6, 17],
                      **NOTHING_LOADED}


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


def test_horofn_crushed_class_is_domain_error():
    mu = json.dumps([{"class_id": "a33", "weight": 1}])
    out = run("horofn", "--pants", "--base", "1,1,1", "--at", "1500,1500,1",
              "--mu", mu)
    assert out.returncode == 3
    assert "Traceback" not in out.stderr


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
