"""Tests of the benchmark itself: the correctness gate, seeding, metric lists.

    python3 -m pytest perfbench/tests
"""

import copy
import json

import pytest

import gate
import pool
import run
from conftest import BENCH
from speed import Speedometer

TINY = ("stress-gf2-k1-s1", "stress-gf2-k2-s2")


def tiny_workload():
    search = pool.load_pool()["search"]
    insts = [copy.deepcopy(i) for i in search["instances"] if i["id"] in TINY]
    for inst in insts:
        inst["copies"] = 1
    return {"budget": search["budget"], "instances": insts}


def run_tiny(workload, tmp_path):
    client = run.Client(pool.build_ops(workload, seed=7, workdir=tmp_path), Speedometer())
    client.run(1)
    return client


def test_gate_passes_with_the_expected_distances(tmp_path):
    client = run_tiny(tiny_workload(), tmp_path)
    assert client.attempted == 2 and client.failed == 0


def test_gate_fails_on_a_corrupted_expected_distance(tmp_path):
    workload = tiny_workload()
    workload["instances"][1]["expected"]["distance"] = "2"
    with pytest.raises(gate.GateError, match="distance 1, expected 2"):
        run_tiny(workload, tmp_path)


def test_same_seed_same_inputs(tmp_path):
    workload = tiny_workload()

    def files(seed, sub):
        ops = pool.build_ops(workload, seed, tmp_path / sub)
        return [p.read_text() for op in ops for p in op.files.values()]

    assert files(3, "a") == files(3, "b")
    assert files(3, "a") != files(4, "c")


def test_metric_lists_match_benchmark_json():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(run.LAYERS) as fh:
        layers = json.load(fh)
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in bench[kind]}
        assert declared == {k: v["unit"] for k, v in layers.items() if v["kind"] == kind}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    import spans

    with open(run.LAYERS) as fh:
        wanted = {k for k, v in json.load(fh).items() if v["kind"] == "per_layer"}
    tracer = spans.Tracer()
    client = run.Client(pool.build_ops(tiny_workload(), 5, tmp_path), Speedometer(), tracer)
    tracer.install()
    try:
        client.run(1)
    finally:
        tracer.uninstall()
    metrics = spans.per_layer(tracer.spans, client.reports)
    metrics["trace.overhead_ratio"] = (1.0, "ratio", None)
    assert wanted <= set(metrics)
    assert metrics["interleave.candidates"][0] > 0
    assert metrics["interleave.strata_total"][0] == metrics["height.strata.count"][0]
