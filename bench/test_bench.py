"""The benchmark's own test: metric names, count determinism, refusal without src/.

    python3 -m pytest bench/test_bench.py

Uses the --smoke sizes, so it takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=3, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    listed = {n: w.why for n, w in WORKLOADS.items() if w.listed}
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == listed
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = result(bench(workload, 0))
    assert {k: m["unit"] for k, m in out["metrics"].items()} == {k: u for k, (u, _) in run.END_TO_END.items()}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, 1)) for _ in range(2))
    assert {k: m["unit"] for k, m in first["metrics"].items()} == {k: u for k, (u, _) in run.PER_LAYER.items()}
    counts = {k: first["metrics"][k]["value"] for k in run.EXACT_COUNTS}
    assert counts == {k: second["metrics"][k]["value"] for k in run.EXACT_COUNTS}
    assert first["metrics"]["cli.main.calls"]["value"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("series", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
