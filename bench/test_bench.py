"""Tests for the benchmark's own tracer and metric plumbing.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = ManualClock()
    tracer = Tracer(clock)

    def leaf(d):
        clock.now += d

    leaf = tracer.wrap("leaf", leaf)

    def mid():
        clock.now += 1
        leaf(2)
        clock.now += 3
        leaf(4)

    mid = tracer.wrap("mid", mid)

    def top():
        clock.now += 5
        mid()
        clock.now += 6

    tracer.wrap("top", top)()
    assert tracer.names == ["top", "mid", "leaf", "leaf"]
    assert tracer.parents == [-1, 0, 1, 1]
    assert [e - s for s, e in zip(tracer.starts, tracer.ends)] == [21, 10, 2, 4]
    assert tracer.self_times() == [11, 4, 2, 4]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    # children cover [1, 6] and [8, 10] of the parent: 7 of its 10 seconds
    assert self_times(starts, ends, parents)[0] == pytest.approx(3.0)


def test_span_closes_when_the_wrapped_function_raises():
    clock = ManualClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 2
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.ends == [2.0]
    tracer.wrap("after", lambda: None)()
    assert tracer.parents == [-1, -1]


def test_instrument_restores_module_attributes_even_on_error():
    targets = layers.task_targets() + layers.setup_targets()
    originals = [(m, attr, getattr(m, attr)) for m, attr, _, _ in targets]
    with pytest.raises(RuntimeError):
        with Tracer().instrument(targets):
            assert all(getattr(m, attr) is not f for m, attr, f in originals)
            raise RuntimeError("inside the traced block")
    assert all(getattr(m, attr) is f for m, attr, f in originals)


def test_traced_prune_reports_every_per_layer_metric(tmp_path):
    from prunekit import harness, model_io, pruner

    data = model_io.synth_dataset(3, 64, 4, dims=(1, 8, 8))
    spec = harness.desk_net(input_dims=(1, 8, 8), num_classes=4, widths=(3, 4, 4, 5))
    setup = Tracer()
    with setup.instrument(layers.setup_targets()):
        model_io.synth_dataset(4, 8, 4, dims=(1, 8, 8))
    tracer = Tracer()
    targets = layers.task_targets()
    originals = [(m, attr, getattr(m, attr)) for m, attr, _, _ in targets]
    with tracer.instrument(targets):
        base = harness.train(spec, data, harness.TrainConfig(epochs=1, batch_size=16))
        pruned, report, traces = harness.prune(
            base, data, data, pruner.PruneConfig(flops_target=1.5, probe_images=8,
                                                 num_locations=2))
        model_io.save_checkpoint(tmp_path / "p.ckpt", pruned)
        model_io.load_checkpoint(tmp_path / "p.ckpt")
    assert all(getattr(m, attr) is f for m, attr, f in originals)

    metrics = layers.layer_metrics(tracer, 1, setup, 1, {
        "compression_ratio": report.compression_ratio,
        "accuracy_baseline": report.accuracy_baseline,
        "overhead_s": 0.0, "overhead_frac": 0.0})
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert metrics["nn.backward_collect.batch1_calls"] == 3 * 8
    assert metrics["pruner.probe_rows.c2"] == 8 * 2
    assert metrics["pruner.kept.c3"] == len(traces[1].support)
    assert metrics["solvers.lambda_search.calls"] == 3
    assert metrics["harness.prune.s"] > metrics["pruner.extract_probes.s.c2"] > 0
    assert metrics["model_io.synth_dataset.s"] > 0
    assert metrics["model_io.save_checkpoint.bytes"] == (tmp_path / "p.ckpt").stat().st_size


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.PER_LAYER


def test_runner_refuses_a_tree_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
