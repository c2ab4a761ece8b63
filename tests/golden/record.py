"""Record the golden experiment outputs that tests/test_golden.py compares to.

Run from any directory:

    python tests/golden/record.py              # every case
    python tests/golden/record.py S_0_0_6      # the cases of these configs

Each case runs `arcmetric experiment <verb> <config> --csv ... --json ...`
in process, with the `src/` of the checkout this file belongs to, and writes
tests/golden/<config>.<verb>.csv and .json (separate writes no sweep).  A
config is tests/golden/configs/<config>.json, else demos/configs/<config>.json.
Record with the code a change starts from, before the change: the files are
the reference its outputs must reproduce byte for byte.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden"

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


def main(configs) -> int:
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
