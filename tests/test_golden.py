"""Experiment outputs are byte-identical to recorded ones.

tests/golden/<config>.<verb>.csv and .json hold the CSV sweep and the JSON
summary of each demos/configs/<config>.json under its verb, written by
`arcmetric experiment <verb> demos/configs/<config>.json --csv ... --json ...`
before the experiments were rewritten to walk each path once; separate
writes no sweep.
"""

from pathlib import Path

import pytest

from arcmetric import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = [("demo_cprime", "inequality"),
         ("demo_boundary_pants", "boundary-limit"),
         ("demo_boundary_torus", "boundary-limit"),
         ("demo_horo_pants", "horo-converge"),
         ("demo_separate", "separate")]


@pytest.mark.parametrize("config,verb", CASES)
def test_experiment_output_matches_golden(config, verb, tmp_path):
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    code = cli.main(["experiment", verb,
                     str(ROOT / "demos" / "configs" / f"{config}.json"),
                     "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 0
    golden = GOLDEN / f"{config}.{verb}"
    assert json_path.read_bytes() == Path(f"{golden}.json").read_bytes()
    if verb == "separate":
        assert not csv_path.exists()
    else:
        assert csv_path.read_bytes() == Path(f"{golden}.csv").read_bytes()
