"""Each workload at a tiny size: its checks pass and tracing changes nothing.

The traced digest must equal the untraced one: observing the stack
through the ledger's wrappers may not perturb the simulated device.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ledger
import rep
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

TINY = {
    "campaign": dict(faults=2),
    "topology": dict(faults=1),
    "dirty_cycle": dict(faults=5),
    "apps_wal": dict(faults=2),
    "serve": dict(faults=2, resubmits=2),
}


def test_every_workload_has_a_tiny_size():
    assert set(TINY) == set(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks_and_tracing_is_neutral(name):
    plain = rep.run_rep(name, 7, False, **TINY[name])
    assert plain["failed"] == 0
    assert plain["attempted"] >= plain["cycles"] > 0
    assert plain["setup_s"] > 0

    traced = rep.run_rep(name, 7, True, **TINY[name])
    assert traced["digest"] == plain["digest"]
    assert traced["counts"] == plain["counts"]
    layers = traced["layers"]
    assert layers["other.self_s"] <= 0.25 * traced["body_wall_s"]
    # Every listed metric is reported, and every listed time was measured:
    # none of them reads zero on any workload.
    for metric in SPEC["per_layer"]:
        if metric["name"] == "trace_overhead":
            continue  # run.py derives it from the untraced reps
        assert metric["name"] in layers
        if metric["unit"] == "s" and metric["name"] != "other.self_s":
            assert layers[metric["name"]] > 0, metric["name"]
    assert layers["sim.events"] > 0
    assert layers["nand.programs_committed"] > 0


def test_listed_metrics_are_a_subset_of_the_ledger():
    names = set(ledger.Ledger().report())
    names |= {"engine.cas_hits", "engine.cas_misses", "trace_overhead"}
    assert {m["name"] for m in SPEC["per_layer"]} <= names


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in SPEC["workloads"]]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_run_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
