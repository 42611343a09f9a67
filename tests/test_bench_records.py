"""The shape of the benchmark records (``BENCH_*.json``) at the repository root.

Each record compares a change with its parent commit over paired runs of
the benchmark that ``BENCHMARK.json`` declares. These tests read both files
and write neither.
"""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.fixture(params=RECORDS, ids=lambda path: path.name)
def record(request) -> dict:
    return json.loads(request.param.read_text(encoding="utf-8"))


def test_record_has_every_field(record):
    assert {"change", "parent", "claimed", "protocol", "machine", "workloads"} <= set(record)
    for field in ("change", "parent", "protocol", "machine"):
        assert isinstance(record[field], str) and record[field]


def test_claim_names_a_benchmark_workload_and_metric(record):
    assert record["claimed"]["workload"] in WORKLOADS
    assert record["claimed"]["metric"] in UNITS
    assert record["claimed"]["workload"] in record["workloads"]


def test_every_end_to_end_metric_is_reported(record):
    assert record["workloads"] and set(record["workloads"]) <= WORKLOADS
    for name, workload in record["workloads"].items():
        pairs = workload["pairs"]
        assert isinstance(pairs, int) and pairs > 0, name
        assert set(workload["metrics"]) == set(UNITS), name
        for metric, entry in workload["metrics"].items():
            where = f"{name} {metric}"
            assert entry["unit"] == UNITS[metric], where
            for field in ("parent_median", "change_median",
                          "parent_iqr_over_median", "change_iqr_over_median"):
                assert isinstance(entry[field], (int, float)) and entry[field] >= 0, where
            better = entry["change_better_pairs"]
            assert isinstance(better, int) and 0 <= better <= pairs, where
