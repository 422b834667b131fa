"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs at its smallest size (`--seconds 0`: only the ops the
traced replay covers) on seed 1, once untraced and once traced.  The
output must carry every metric named in BENCHMARK.json with its unit,
no op may fail, and the output digest must be the same in both
invocations.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_and_record(workload: str, trace: int):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "perfbench" / "results"
                         / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return result, record


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in BENCHMARK["workloads"]])
def test_workload_smoke(workload):
    untraced, untraced_record = result_and_record(workload, 0)
    traced, traced_record = result_and_record(workload, 1)
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert untraced["metrics"]["ok_ratio"]["value"] == 1.0
    assert untraced_record["digest"] == traced_record["digest"]


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run("population", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
