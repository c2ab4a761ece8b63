"""Experiment outputs are byte-identical to recorded ones.

tests/golden/<config>.<verb>.csv and .json hold the CSV sweep and the JSON
summary of each case in tests/golden/record.py, the script that writes them:
`arcmetric experiment <verb> <config> --csv ... --json ...`, recorded with
the code before the change that first had to reproduce them.  separate
writes no sweep.
"""

import importlib.util
from pathlib import Path

import pytest

from arcmetric import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
_spec = importlib.util.spec_from_file_location("golden_record",
                                               GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.mark.parametrize("config,verb", record.CASES)
def test_experiment_output_matches_golden(config, verb, tmp_path):
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    code = cli.main(["experiment", verb, str(record.config_path(config)),
                     "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 0
    golden = GOLDEN / f"{config}.{verb}"
    assert json_path.read_bytes() == Path(f"{golden}.json").read_bytes()
    if verb == "separate":
        assert not csv_path.exists()
    else:
        assert csv_path.read_bytes() == Path(f"{golden}.csv").read_bytes()
