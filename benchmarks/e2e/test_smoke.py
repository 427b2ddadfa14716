"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Outside tier-1's ``testpaths``.  Runs every workload at a twentieth of the
benchmark's scale, both passes, and checks the contract between the runner,
the catalogue in ``metrics.py`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

SMOKE_SECONDS = metrics.RUN_SECONDS * 0.05
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _last_json(command: list[str]) -> dict:
    done = subprocess.run([sys.executable, *command], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def benchmark_file() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def results() -> dict:
    return _last_json(["benchmarks/e2e/run.py", "--seed", "3",
                       "--seconds", repr(SMOKE_SECONDS)])


def test_benchmark_json_is_the_catalogue(benchmark_file):
    assert benchmark_file == metrics.benchmark_json()


def test_names_are_well_formed_and_unique(benchmark_file):
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in benchmark_file[section]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {m["name"] for m in benchmark_file["end_to_end"]} >= {"setup_s"}


def test_every_workload_reports_exactly_the_declared_metrics(
        benchmark_file, results):
    assert list(results) == [w["name"] for w in benchmark_file["workloads"]]
    for workload, parts in results.items():
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in benchmark_file[section]}
            reported = {name: entry["unit"] for name, entry
                        in parts[section]["metrics"].items()}
            assert reported == declared, (workload, section)
            assert parts[section]["correct"], (workload, section)
            assert parts[section]["failed"] == 0
            assert parts[section]["attempted"] >= 1
        layers = parts["per_layer"]["metrics"]
        assert layers["e2e.failed_ops_share"]["value"] == 0
        assert all(entry["value"] > 0
                   for entry in parts["end_to_end"]["metrics"].values())
        assert -0.9 < layers["obs.trace_overhead_share"]["value"] < 10


def test_layers_separate_the_workloads(results):
    def layer(workload: str, name: str) -> float:
        return results[workload]["per_layer"]["metrics"][name]["value"]

    assert layer(metrics.READ_RANDOM, "lsm.maintenance_share") == 0
    assert layer(metrics.FILL_RANDOM, "lsm.maintenance_share") > 0
    assert layer(metrics.YCSB_A_SERVICE, "service.wire_share") > 0
    for workload in results:
        if workload != metrics.YCSB_A_SERVICE:
            assert layer(workload, "service.wire_share") == 0
    assert layer(metrics.YCSB_A_SERVICE, "service.shard_imbalance") <= 1.2
    for workload in (metrics.FILL_RANDOM, metrics.READ_RANDOM):
        assert 0.85 <= layer(workload, "bench.layer_sum_share") <= 1.10


def test_trace_files_parse(results):
    for workload in results:
        stem = os.path.join(HERE, "out", f"trace-{workload}")
        with open(stem + ".jsonl") as handle:
            spans = [json.loads(line) for line in handle]
        assert spans and all(
            span["type"] == "span" and span["end_wall"] >= span["start_wall"]
            for span in spans)
        ids = {span["id"] for span in spans}
        assert len(ids) == len(spans)
        with open(stem + ".chrome.json") as handle:
            chrome = json.load(handle)
        assert len(chrome["traceEvents"]) == len(spans) + 1


def test_modeled_metrics_do_not_depend_on_the_pass():
    modeled = [m.name for m in metrics.PER_LAYER
               if m.kind == metrics.MODELED]
    passes = [
        _last_json(["benchmarks/e2e/worker.py", "--workload",
                    metrics.OFFLOAD_MODEL, "--seed", "3", "--seconds",
                    repr(SMOKE_SECONDS), "--traced", traced])["layers"]
        for traced in ("0", "1")]
    assert modeled
    for name in modeled:
        assert passes[0][name] == passes[1][name], name
        assert passes[0][name] > 0, name
