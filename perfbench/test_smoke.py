"""Smoke test of the benchmark itself: toy-size runs and the result schema.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_schema(result: dict, metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_schema(workload):
    result = _result(workload, 0)
    _check_schema(result, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_per_layer_schema():
    _check_schema(_result("dsmc-cooling", 1), SPEC["per_layer"])


@pytest.mark.parametrize("workload, artifact", [
    ("dsmc-cooling", "timeseries.csv"),
    ("operator-bimodal", "rates.csv"),
    ("audit-battery", "audit.csv"),
    ("transport-sl", "phase_snapshot.bin"),
])
def test_corrupted_artifact_counts_as_failed(workload, artifact, monkeypatch):
    original = WORKLOADS[workload]

    def corrupt_then_check(out, params):
        path = out / artifact
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        return original.check(out, params)

    monkeypatch.setitem(WORKLOADS, workload, dataclasses.replace(
        original, check=corrupt_then_check))
    bench.WORK.mkdir(exist_ok=True)
    runs = [bench.run_cli(original, "toy", "smoke"),
            bench.run_cli(WORKLOADS[workload], "toy", "smoke")]
    assert runs[0].ok, runs[0].problem
    assert not runs[1].ok
    assert bench.tally(runs) == (2, 1)
