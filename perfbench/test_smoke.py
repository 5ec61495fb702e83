"""Smoke test of the benchmark harness at a tiny op count.

    python3 -m pytest perfbench/test_smoke.py

Runs two to four cheap ops per workload through the same measuring,
tracing and reporting code as a full run, in this process.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SEED = bench.DEFAULT_SEED
# positions in each workload's op list of the cheap ops kept here
TINY = {"scan": (0, 1), "high": (0, 8, 10, 12)}


def _tiny_generate(real):
    def generate(workload, seed, passes, workers):
        ops = real(workload, seed, passes, workers)[0]
        return [[ops[i] for i in TINY[workload]]] * passes
    return generate


@pytest.fixture(autouse=True)
def tiny_run(monkeypatch, tmp_path):
    monkeypatch.setenv("PRIMES_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(bench, "generate", _tiny_generate(bench.generate))
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))


def _benchmark_names(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_emitted(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    worker.measure(workload, SEED, 1.0, bool(trace), str(out))
    result = json.loads(out.read_text())
    if not trace:
        # run.py adds these two around the worker process
        result["metrics"]["setup_s"] = run.setup_seconds(
            workload, run._env(str(tmp_path)), 1)[0]
        result["metrics"]["peak_rss_mb"] = 1.0
    kind = "per_layer" if trace else "end_to_end"
    assert set(_benchmark_names(kind)) <= set(result["metrics"])
    line = run.report(workload, SEED, bool(trace), result)
    assert list(line["metrics"]) == _benchmark_names(kind)
    assert line["attempted"] == (2 if trace else 1) * len(TINY[workload])
    assert line["failed"] == 0, result["failures"]
    assert line["correct"]
    if trace:
        assert abs(line["metrics"]["trace.closure_frac"]["value"] - 1) < 0.05
    if trace and workload == "high":
        # op 8 is a Maier construction over beatty:pi
        assert line["metrics"]["special.member.calls"]["value"] > 0


def test_layer_map_covers_every_layer_metric():
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        layer_map = json.load(fh)
    assert sorted(layer_map) == sorted(_benchmark_names("per_layer"))
    for entry in layer_map.values():
        assert set(entry["workloads"]) <= set(bench.WORKLOADS)


def _corrupting(real, corrupt):
    def execute(pkg, op):
        rc, output, err = real(pkg, op)
        return corrupt(rc, output) + (err,)
    return execute


def _alter_golden_prime(rc, output):
    doc = json.loads(output)
    doc["primes"][0] += 6       # another integer = 5 (mod 7), not prime
    return rc, json.dumps(doc)


def _not_found(rc, output):
    doc = json.loads(output)
    for key in ("start_index", "primes", "first_occurrence"):
        doc.pop(key)
    doc["found"] = False
    return 3, json.dumps(doc)


def _drop_window_primes(rc, primes):
    return rc, primes[primes % 10 != 1]     # about a quarter of them


# Each corruption is caught by the checks alone, without the recorded
# digests of the default seed. Op 0 of scan is the golden query, op 1 a
# short first-hit query; op 0 of high is a window.
@pytest.mark.parametrize("workload, index, corrupt", [
    ("scan", 0, _alter_golden_prime),
    ("scan", 0, _not_found),
    ("scan", 1, _not_found),
    ("high", 0, _drop_window_primes),
])
def test_corrupted_result_counts_as_failed(workload, index, corrupt,
                                           monkeypatch):
    pkg = bench.Package(workload)
    ops = bench.generate(workload, SEED, 1, 1)[0][index:index + 1]
    monkeypatch.setattr(bench, "execute",
                        _corrupting(bench.execute, corrupt))
    checker = bench.Checker(pkg, SEED)
    tally = bench.Tally()
    bench.run_pass(pkg, ops, checker, tally)
    assert (tally.attempted, tally.failed) == (1, 1), tally.failures
