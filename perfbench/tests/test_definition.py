"""BENCHMARK.json, run.py, tracing.py and record.json name the same things."""

import json

from perfbench import run, tracing, workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER


def test_workloads_match():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    record = json.loads((run.ROOT / "perfbench" / "record.json").read_text())
    assert list(record["workloads"]) == names
    assert record["run_seconds"] == SPEC["run_seconds"]
