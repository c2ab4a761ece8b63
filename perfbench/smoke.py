"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size (one cycle of its mix, a fraction of a
second of timed loop, one set-up probe), untraced and traced, and asserts
that each run prints every metric BENCHMARK.json names with its unit, that
the output checks ran and found no failure outside the known defects, and
that the last line is the result object.
Exits 1 on the first failure.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)
import inputs  # noqa: E402

inputs.SWEEP_CYCLES = 1
inputs.TORUS_CYCLES = 1
inputs.CLI_CYCLES = 1
run.SETUP_REPEATS = 1
run.IMPORTTIME_REPEATS = 1


def smoke(workload, trace, bench):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.run(workload, seed=0, seconds=0.3, trace=trace)
    text = buf.getvalue()
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, f"exit code {code}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] is True, "an output failed outside the known defects"
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        set(result["metrics"]) ^ {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line
                   for line in lines[:-1]), f"{m['name']} not printed with its unit"
    if not trace:
        for name in ("failed_ratio",):  # printed, though not a bounded metric
            assert any(line.split()[:1] == [name] for line in lines), name
    checked = [line for line in lines if line.strip().startswith("checks:")]
    assert checked and int(checked[0].split()[1]) > 0, "no output was checked"
    return result


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            try:
                result = smoke(workload, trace, bench)
            except AssertionError as exc:
                print(f"FAIL {workload} trace {trace}: {exc}")
                return 1
            print(f"ok   {workload} trace {trace}: {result['attempted']} attempted, "
                  f"{result['failed']} failed, correct {result['correct']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
