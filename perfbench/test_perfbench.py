"""Toy-size runs of every benchmark workload, untraced and traced.

Each run is a subprocess, as the benchmark is, so BLAS pinning and the
tracer's patches stay out of the test process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


# every workload run.py offers; BENCHMARK.json lists the ones the benchmark
# gates, and pool is left out there (see workloads.py)
WORKLOADS = ["pool", "search", "sweep"]


def test_spec_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for name in ("op_tail_s", "failed_frac", "peak_rss_mb"):
            assert f"metric {name} = " in proc.stdout
    kind = "metric" if trace else "context"
    assert f"{kind} encoding.roundtrip_err = " in proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "pool", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
