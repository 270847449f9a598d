"""The benchmark's own test: a short small-seed run of every workload.

    python3 -m pytest -q perfbench/test_perfbench.py

Takes about three minutes: with --seconds 1 every run makes one pass,
and a traced run one untraced and one traced pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, workload, trace, seed=1):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout[-3000:]
    assert "# failed_frac 0.0 " in proc.stdout
    return out["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == spec
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = result(workload, 1)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == spec
    ratfunc = sum(v["value"] for k, v in metrics.items() if k.startswith("ratfunc.") and k.endswith(".calls"))
    padic = sum(v["value"] for k, v in metrics.items() if k.startswith("padic.") and k.endswith(".calls"))
    if workload.startswith("sym_"):
        assert ratfunc > 0 and padic == 0
    else:
        assert ratfunc == 0
    if workload == "padic":
        assert padic > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
