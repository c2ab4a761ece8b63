"""Every shipped demo runs to completion with warnings as errors; demos
02-06 print the stdout pinned under tests/golden/demos/ byte for byte
(record it with tests/golden/record.py).  Demo 01 is unpinned: its
oracle-difference columns print rounding noise."""

import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    out = subprocess.run([sys.executable, "-W", "error", str(demo)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    if not demo.name.startswith("01_"):
        assert out.stdout == (TESTS / "golden" / "demos" / f"{demo.stem}.txt").read_text()
