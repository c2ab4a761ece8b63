"""Record the golden outputs that tests/test_golden.py and tests/test_demos.py
compare to.

Run from any directory:

    python tests/golden/record.py              # every case and demo
    python tests/golden/record.py S_0_0_6      # the cases of these configs
    python tests/golden/record.py demos        # the demo outputs only

Each case runs `arcmetric experiment <verb> <config> --csv ... --json ...`
in process, with the `src/` of the checkout this file belongs to, and writes
tests/golden/<config>.<verb>.csv and .json (separate writes no sweep).  A
config is tests/golden/configs/<config>.json, else demos/configs/<config>.json.
Each pinned demo runs in a subprocess on the same `src/`, and its stdout is
written to tests/golden/demos/<demo>.txt.
Record with the code a change starts from, before the change: the files are
the reference its outputs must reproduce byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden"
# demo 01 prints the difference to the holonomy oracle, rounding noise
PINNED_DEMOS = [d for d in sorted((ROOT / "demos").glob("*.py"))
                if not d.name.startswith("01_")]

# the demo configs under their verbs, then the multi-pants surfaces, where
# scaling paths hold some coordinates, grow some and decay others
CASES = [("demo_cprime", "inequality"),
         ("demo_boundary_pants", "boundary-limit"),
         ("demo_boundary_torus", "boundary-limit"),
         ("demo_horo_pants", "horo-converge"),
         ("demo_separate", "separate")]
CASES += [(config, verb)
          for config in ("S_0_0_4", "S_1_0_2", "S_2_0_1", "S_0_0_6")
          for verb in ("inequality", "horo-converge", "boundary-limit")]


def config_path(config: str) -> Path:
    own = GOLDEN / "configs" / f"{config}.json"
    return own if own.exists() else ROOT / "demos" / "configs" / f"{config}.json"


def demo_stdout(demo: Path) -> str:
    """The stdout of one demo run on this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, check=True, env=env).stdout


def main(configs) -> int:
    if not configs or "demos" in configs:
        (GOLDEN / "demos").mkdir(exist_ok=True)
        for demo in PINNED_DEMOS:
            out = GOLDEN / "demos" / f"{demo.stem}.txt"
            out.write_text(demo_stdout(demo))
            print(f"recorded demos/{out.name}")
    sys.path.insert(0, str(ROOT / "src"))
    from arcmetric import cli

    for config, verb in CASES:
        if configs and config not in configs:
            continue
        out = GOLDEN / f"{config}.{verb}"
        argv = ["experiment", verb, str(config_path(config)),
                "--json", f"{out}.json"]
        if verb != "separate":
            argv += ["--csv", f"{out}.csv"]
        code = cli.main(argv)
        if code != 0:
            print(f"{config} {verb}: exit {code}", file=sys.stderr)
            return 1
        print(f"recorded {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
