"""Smoke test of the ledger harness (outside tier-1's ``testpaths``).

    python -m pytest benchmarks/e2e/test_smoke.py -q

Runs the full ledger once at a twentieth of its size and checks that every
workload and every named metric is there, that all digests agreed, and
that ``BENCHMARK.json`` names exactly what the harness reports.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_ledger_reports_every_named_metric():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.05", "--reps", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    ledger = json.loads(completed.stdout.strip().splitlines()[-1])
    assert ledger["claim"] is None

    assert [
        {"name": name, "why": workload["why"]}
        for name, workload in ledger["workloads"].items()
    ] == contract["workloads"]
    end_to_end = {m["name"] for m in contract["end_to_end"]}
    per_layer = {m["name"] for m in contract["per_layer"]}
    for name, workload in ledger["workloads"].items():
        assert workload["correct"], f"{name}: digests disagree"
        assert workload["failed"] == 0 and workload["attempted"] >= 1
        assert set(workload["end_to_end"]) == end_to_end
        assert all(value > 0 for value in workload["end_to_end"].values())
        assert set(workload["per_layer"]) == per_layer
        assert not workload["notes"], workload["notes"]

    batch = ledger["workloads"]["batch_mall"]["per_layer"]
    assert batch["harness.unaccounted_share"] <= 0.10
    assert batch["live.windows"] in (None, 0)
    durable = ledger["workloads"]["live_durable"]["per_layer"]
    assert durable["durability.recovery_s"] > 0
    assert durable["durability.wal_bytes_per_record"] > 0
    sharded = ledger["workloads"]["sharded_procs"]["per_layer"]
    assert sharded["engine.task_pickle_bytes"] > 0
    assert sharded["distributed.exchange_rounds"] >= 1


def test_contract_mode_prints_one_result_object():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "live_durable",
            "--seed", "7", "--seconds", "1", "--trace", "0", "--scale", "0.05",
        ],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in contract["end_to_end"]}
