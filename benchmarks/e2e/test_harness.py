"""Self-tests of the benchmark harness (not collected by tier-1).

    pytest benchmarks/e2e -q        # < 30 s

Every workload runs at 1/20 size; the assertions are about the harness —
names, units, failure accounting, process hygiene — never about speed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
import spec  # noqa: E402
from inputs import make_inputs  # noqa: E402

SMALL = {"seconds": 0.3, "scale": 0.05}


def _leftovers() -> list:
    return list(run.WORK.glob(f"{os.getpid()}-*")) if run.WORK.exists() else []


def test_benchmark_json_is_the_registry_rendered():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in document[key]
    ]
    assert len(names) == len(set(names))
    assert all(spec.NAME_PATTERN.match(name) for name in names)
    for metric in document["end_to_end"] + document["per_layer"]:
        assert spec.UNIT_PATTERN.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["per_layer"]) <= 128


def test_registry_names_every_issue_metric_once():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(spec.NAME_PATTERN.match(n) for n in names)
    assert len(spec.END_TO_END) == 13
    layer_names = set(spec.PER_LAYER_NAMES)
    assert all(m.twin in layer_names for m in spec.WORKLOAD_E2E if m.twin)
    assert {m.layer for m in spec.PER_LAYER} == {
        "serve", "core", "storage", "obs", "trace", "calib"
    }  # fmt: skip


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_workload_emits_exactly_its_names_and_cleans_up(name):
    result = run.run_workload(name, spec.DEFAULT_SEED, **SMALL)
    assert result["correct"] and result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in spec.e2e_for(name)}
    for metric_name, metric in result["metrics"].items():
        assert metric["unit"] == spec.UNITS[metric_name]
    line = json.loads(run.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert tuple(line["metrics"]) == spec.CONTRACT_E2E_NAMES
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert not _leftovers()
    assert threading.active_count() == 1


def test_traced_run_emits_every_per_layer_name_and_adds_up():
    result = run.run_workload(
        "durable-mixed", spec.DEFAULT_SEED, trace=True, seconds=0.4, scale=0.05
    )
    assert result["correct"], result["failures"]
    line = json.loads(run.contract_line(result))
    assert tuple(line["metrics"]) == spec.PER_LAYER_NAMES
    assert all(m["unit"] == spec.UNITS[n] for n, m in line["metrics"].items())
    value = {n: m["value"] for n, m in result["metrics"].items()}
    # Replayed wire stages + residual = the served read's p50.
    import layers

    stages = sum(value[f"{stage}_us"] for stage in layers.WIRE_STAGES)
    assert stages + value["serve.transport_residual_us"] == pytest.approx(
        value["serve.client.query_p50_us"]
    )
    assert value["trace.overhead_ratio"] > 0
    assert value["storage.wal.fsyncs_per_commit"] == 1.0
    events = json.loads(Path(result["extras"]["span_file"]).read_text())
    assert len(events["traceEvents"]) == result["extras"]["spans"]
    assert {"name", "ph", "ts", "dur", "args"} <= set(events["traceEvents"][0])
    rows = {row["span"]: row for row in result["extras"]["layer_table"]}
    parent = rows["replay.request"]
    assert parent["self_p50_us"] < parent["p50_us"]  # children are subtracted
    assert not _leftovers()
    assert threading.active_count() == 1


def test_corrupted_reference_answer_is_a_failure():
    result = run.run_workload(
        "core-read", spec.DEFAULT_SEED, fault="corrupt-reference", **SMALL
    )
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["failed_share"]["value"] > 0
    assert "differ from reference" in result["failures"][0]


@pytest.mark.parametrize("name", ["durable-mixed", "serve-mixed"])
def test_refused_write_is_a_failure(name):
    result = run.run_workload(
        name, spec.DEFAULT_SEED, fault="refuse-write", **SMALL
    )
    assert not result["correct"] and result["failed"] == 1
    assert "MaintenanceError" in result["failures"][0]
    assert not _leftovers()


def test_seed_reaches_only_the_input_generators():
    for module in ("workloads", "serving", "layers", "_server", "tracing", "stats"):
        assert "seed" not in (HERE / f"{module}.py").read_text(), module
    same = make_inputs("serve-mixed", 7).digest()
    assert same == make_inputs("serve-mixed", 7).digest()
    assert same != make_inputs("serve-mixed", 11).digest()


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark cannot produce a result."""
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"),
    )  # fmt: skip
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "core-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout.strip() == ""
