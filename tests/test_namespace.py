"""The lazy package namespace: what `import arcmetric` loads and binds."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import arcmetric

# `import arcmetric` in a fresh interpreter, then one name of `geometry`
FRESH_IMPORT_PROBE = """
import json, sys
import arcmetric
def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "arcmetric")
after_import = loaded()
bound_before = "pants_point" in vars(arcmetric)
arcmetric.pants_point
print(json.dumps({"import": after_import, "bound_before": bound_before,
                  "bound_after": "pants_point" in vars(arcmetric),
                  "first_use": loaded()}))
"""


def test_import_loads_only_errors_and_first_use_loads_the_home_module():
    out = subprocess.run([sys.executable, "-c", FRESH_IMPORT_PROBE],
                         capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    assert report["import"] == ["arcmetric", "arcmetric.errors"]
    assert not report["bound_before"] and report["bound_after"]
    # geometry and what it imports at module level, nothing else
    assert report["first_use"] == ["arcmetric", "arcmetric.errors",
                                   "arcmetric.geometry", "arcmetric.hyptrig",
                                   "arcmetric.topology"]


def test_every_public_name_is_its_home_module_object():
    for name in arcmetric.__all__:
        obj = getattr(arcmetric, name)
        home = obj.__module__
        assert home.startswith("arcmetric."), name
        assert vars(importlib.import_module(home))[name] is obj, name
        assert vars(arcmetric)[name] is obj, name  # bound by the first read


def test_dir_lists_every_public_name():
    assert set(arcmetric.__all__) <= set(dir(arcmetric))
    assert len(set(arcmetric.__all__)) == len(arcmetric.__all__) == 70


def test_geometry_imports_nothing_from_the_layers_above_it():
    # lamination, metric and asymptotics read lengths through geometry, so
    # an import back would be a cycle
    tree = ast.parse(Path(arcmetric.__file__).with_name("geometry.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not {name.rpartition(".")[2] for name in imported} \
        & {"lamination", "metric", "asymptotics"}


def test_topology_imports_nothing_from_the_package_but_errors():
    # the benchmark's setup probe builds panels with topology alone; any
    # package import here, lazy ones included, would load with it
    tree = ast.parse(Path(arcmetric.__file__).with_name("topology.py").read_text())
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        if isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert relative == {"errors"}
    assert not {name.partition(".")[0] for name in absolute} & {"arcmetric"}


def _calls(module: str, test) -> list[str]:
    """The top-level definition ("<module>" for other statements) around
    each call in the package module that test accepts, in source order."""
    tree = ast.parse(Path(arcmetric.__file__).with_name(module).read_text())
    return [getattr(stmt, "name", "<module>") for stmt in tree.body
            for node in ast.walk(stmt) if isinstance(node, ast.Call) and test(node)]


def _called(name):
    return lambda call: getattr(call.func, "attr", getattr(call.func, "id", None)) == name


def test_topology_alone_decides_slopes():
    # routes and intersections ask topology for a class's slope; the surface
    # kind is read only where each surface has an algorithm of its own
    assert _calls("geometry.py", _called("is_torus")) == []
    assert _calls("lamination.py", _called("is_torus")) == [
        "dt_decode", "refine", "sample_supported_lamination"]

    def word_curve(call):
        return _called("CurveClass")(call) and bool(call.args) \
            and getattr(call.args[0], "value", None) == "word"
    for path in Path(arcmetric.__file__).parent.glob("*.py"):
        if path.name != "topology.py":
            assert _calls(path.name, word_curve) == [], path.name
    assert _calls("topology.py", word_curve) == ["Surface"]


def test_topology_alone_reads_class_ids():
    # the id grammar has one owner, next to the labels it parses back; no
    # other module defines, assigns or imports these names
    names = {"class_from_id", "_check_descent", "_MAX_DESCENT"}
    for path in Path(arcmetric.__file__).parent.glob("*.py"):
        bound = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(alias.asname or alias.name for alias in node.names)
        assert bound & names == (names if path.name == "topology.py" else set()), \
            path.name
    assert not hasattr(importlib.import_module("arcmetric.lamination"), "class_from_id")
    assert arcmetric.class_from_id is importlib.import_module(
        "arcmetric.topology").class_from_id


def test_metric_alone_refuses_a_panel_that_misses_the_lamination():
    # one reader of i(mu, .) on a panel raises DegeneratePanelError; the
    # experiments call it and neither raise nor import the error themselves
    raised, imported = [], []
    for path in Path(arcmetric.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and getattr(node.exc.func, "id", None) == "DegeneratePanelError":
                raised.append(path.name)
            elif isinstance(node, ast.ImportFrom) and any(
                    alias.name == "DegeneratePanelError" for alias in node.names):
                imported.append(path.name)
    assert raised == ["metric.py"]
    assert "asymptotics.py" not in imported
    metric = importlib.import_module("arcmetric.metric")
    assert callable(metric._intersections)
    assert not any(hasattr(metric, name)
                   for name in ("_normalizer", "_log_intersections"))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        arcmetric.no_such_name  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from arcmetric import *", namespace)
    assert {name: namespace[name] for name in arcmetric.__all__} == {
        name: getattr(arcmetric, name) for name in arcmetric.__all__}
