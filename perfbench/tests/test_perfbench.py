"""Tests of the benchmark itself: names, wrappers, counts and the run contract.

Run from the repository root with ``python -m pytest perfbench/tests``.
The count-repeat test runs every workload traced twice (~1 minute).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads
from conftest import BENCH, ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = _benchmark_json()
    for name in [*tracing.PER_LAYER, *run.END_TO_END]:
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert spec["run_seconds"] == run.RUN_SECONDS


def _snapshot():
    """Every attribute of every prunekit module and class, by identity."""
    snap = {}
    for module in tracing._prunekit_modules():
        for attr, value in vars(module).items():
            snap[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    snap[(module.__name__, attr, name)] = member
    return snap


def _tiny_step(batch=3):
    from prunekit import GradTape, Network, build
    from prunekit.trainer import _onehot, data_loss_and_grad
    graph = build("tiny-vgg", 4, with_gates=True, reduction=4, seed=7)
    x = np.random.default_rng(0).normal(size=(batch, 8, 16, 16)).astype(np.float32)
    net, tape = Network(graph), GradTape()
    probs = net.forward(x, training=True, tape=tape)
    _, dprobs = data_loss_and_grad(probs, _onehot(np.arange(batch) % 4, 4, probs.dtype),
                                   "softmax-ce")
    net.backward(dprobs, tape)
    return graph


def test_wrappers_replace_every_alias_and_restore_the_originals():
    import prunekit.ops
    import prunekit.pipeline
    import prunekit.scoring
    before = _snapshot()
    original_train = prunekit.pipeline.train
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert prunekit.pipeline.train is not original_train
        assert prunekit.trainer.train is prunekit.pipeline.train
        assert prunekit.scoring.bundle_fingerprint is prunekit.pipeline.bundle_fingerprint
        _tiny_step()
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert tracer.counts["ops.conv_macs"] > 0
    assert {"network.forward", "network.backward", "ops.conv_fwd", "gate.bwd"} <= set(
        tracer.profile())


def test_conv_macs_match_accounting_breakdown():
    from prunekit.accounting import breakdown
    batch = 3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        graph = _tiny_step(batch)
    finally:
        tracer.uninstall()
    with tracer.paused():
        per_sample = sum(r["flops"] for r in breakdown(graph) if r["kind"] == "conv")
    # forward once, backward (input and weight gradients) twice
    assert tracer.counts["ops.conv_macs"] == 3 * batch * per_sample


def test_self_time_subtracts_only_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 2.0, 3.0, 1),
                    ("b", 6.0, 7.0, 0)]
    prof = tracer.profile()
    assert prof["a"]["self_ms"] == pytest.approx(5000.0)
    assert prof["b"]["total_ms"] == pytest.approx(5000.0)
    assert prof["b"]["self_ms"] == pytest.approx(4000.0)
    assert prof["b"]["calls"] == 2


def test_tape_bytes_count_each_buffer_once_and_skip_parameters():
    from prunekit import GradTape, Network
    graph = _tiny_step()
    net, tape = Network(graph), GradTape()
    x = np.zeros((2, 8, 16, 16), dtype=np.float32)
    net.forward(x, training=True, tape=tape)
    measured = tracing.tape_bytes(net, tape)
    assert 0 < measured
    tape.outputs["alias"] = tape.outputs[tape.order[0]][:1]        # a view adds nothing
    tape.caches["param"] = (graph.nodes[0].params["weight"],)        # parameters are not tape
    assert tracing.tape_bytes(net, tape) == measured


def _run(workload, seed, trace, cwd=ROOT, seconds=2):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_counts_repeat_exactly_across_two_traced_runs(workload):
    results = []
    for _ in range(2):
        proc = _run(workload, seed=3, trace=1)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = (r["metrics"] for r in results)
    assert set(first) == set(tracing.PER_LAYER)
    for name in tracing.EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["ops.conv_macs"]["value"] > 0
    if workload != "desk-pipeline":
        assert first["ops.maxpool_fwd_ms"]["value"] == 0
        assert first["ops.maxpool_bwd_ms"]["value"] == 0


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("desk-pipeline", seed=1, trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
