"""Tests of the benchmark itself.  Run with: python -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=timeout,
    )


def test_smoke_runs_every_workload_and_prints_every_metric():
    proc = run_bench("--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"  {metric['name']} = " in proc.stdout, metric["name"]
    for workload in SPEC["workloads"]:
        assert f"{workload['name']} trace=0 correct=True" in proc.stdout
        assert f"{workload['name']} trace=1 correct=True" in proc.stdout


def test_result_line_keeps_the_contract():
    proc = run_bench("--workload", "classify-transfer", "--seed", "3",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
