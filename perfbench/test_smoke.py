"""Smoke test of the benchmark driver at tiny sizes (3x3 calibration grid,
5-point sweep, one inverse target on a 6x6 seed grid)."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_and_no_operation_fails(workload, trace):
    out = run(HERE.parent, "--workload", workload, "--seed", "1", "--seconds", "0.1",
              "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    for name, unit in expected.items():
        assert printed[name][1] == unit
    assert printed["fail_ratio"] == (0.0, "ratio")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, "--workload", "forward", "--seed", "1", "--seconds", "1",
              "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
