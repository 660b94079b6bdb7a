"""Each workload at a tiny scale passes every correctness check."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import catalog
from perfbench.bench import run_benchmark

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "cases-atropos": {"cases": ["c1", "c17"], "lever_cases": ["c17"],
                      "levers": ["lock_reshape"], "seeds_per_run": 1,
                      "duration": 4.0},
    "cluster-epoch": {"fleet_modes": ["coordinated"],
                      "dag_controllers": ["atropos"],
                      "fleet_overrides": {"duration": 8.0, "warmup": 1.0},
                      "dag_overrides": {"duration": 8.0, "warmup": 1.0}},
    "campaign-observed": {"cases": ["c1", "c4"], "telemetry_specs": 2,
                          "traced_specs": 1, "duration": 4.0},
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_passes_every_check(workload, tmp_path):
    result = run_benchmark(workload, seed=3, seconds=0.0, trace=True,
                           out_dir=tmp_path, params=TINY[workload],
                           probes=1)
    failed = [c for c in result["checks"] if not c["ok"]]
    assert failed == []
    assert result["attempted"] > 0
    metrics = result["metrics"]
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert metric.name in metrics
    for metric in catalog.END_TO_END:
        assert metrics[metric.name]["value"] > 0
    ledger = metrics["core.ledger.calls"]["value"]
    if workload == "campaign-observed":
        assert ledger == 0
        assert metrics["campaign.hit_ratio"]["value"] == 1.0
    else:
        assert ledger > 0
    settings = result["settings"]
    assert settings["seed"] == 3 and settings["nproc"] >= 1
    assert settings["params"].items() >= TINY[workload].items()


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cases-atropos",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
