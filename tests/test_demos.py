"""Every shipped demo runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
