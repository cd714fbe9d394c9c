"""Tests of the benchmark itself: run with `python3 -m pytest bench/tests`.

They run every workload at smoke-test sizes (--tiny) in a fresh process, so
they take about a minute and a half.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# counts that repeat exactly for one seed; cli._atomic_write.bytes does not,
# since the manifest it writes holds timestamps and the run directory
EXACT_UNITS = ("count", "B_computed", "ratio")


def _run(workload, trace, seed=5):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _exact(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in EXACT_UNITS and not k.startswith("trace.")}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracing.per_layer_metrics()
    layer_names = {layer.name for layer in tracing.LAYERS}
    for w in WORKLOADS.values():
        assert set(w.exercises) <= layer_names and set(w.bypasses) <= layer_names


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_untraced(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    with open(os.path.join(ROOT, ".bench_out", "records", f"{workload}-seed5-trace0.json")) as fh:
        env = json.load(fh)["fingerprint"]
    assert env["process_threads"] <= env["nproc"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_layers(workload):
    result = _run(workload, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    calls = {k[:-len(".calls")]: v["value"] for k, v in result["metrics"].items()
             if k.endswith(".calls")}
    w = WORKLOADS[workload]
    assert all(calls[name] > 0 for name in w.exercises), calls
    assert all(calls[name] == 0 for name in w.bypasses), calls
    assert result["metrics"]["trace.accounted_frac"]["value"] >= 0.95


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = _run(workload, 1, seed=9), _run(workload, 1, seed=9)
    assert _exact(first) == _exact(second)
    # a run's op count is fixed, so one seed makes the same ops and failures
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
