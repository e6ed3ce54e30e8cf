"""Cross-module integration on the residual architectures.

The per-module suites exercise each policy against fixtures; these tests run
the real chains: trained gates -> collected scores -> plan -> rewrite ->
forward/retrain, on both residual block types.
"""

import ast
import importlib
import inspect
import json
import os
from pathlib import Path

import numpy as np

import prunekit
from prunekit import (DatasetSpec, GradTape, ModelBundle, Network, PruneConfig,
                      RewriteOptions, TrainConfig, apply, build, collect_scores,
                      count_params, load_bundle, load_dataset, make_plan)
from prunekit.pipeline import PipelineConfig, run_pipeline
from prunekit.planner import PruningPlan


def test_stage_uniform_pipeline_on_tiny_resnet(tmp_path):
    out = str(tmp_path / "exp")
    cfg = PipelineConfig(
        arch="tiny-resnet", num_classes=4,
        data=DatasetSpec(source="synthetic-planted", classes=4, samples=128,
                         seed=3),
        train=TrainConfig(epochs=3, batch_size=32, lr=0.05, seed=3),
        prune=PruneConfig(policy="resnet-stage-uniform",
                          stage_targets=((1, 4), (2, 12), (3, 24))),
        seed=3, out=out)
    manifest = run_pipeline(cfg)
    assert manifest.verify_chain()

    compact = load_bundle(os.path.join(out, "model-compact"))
    assert [s.width for s in compact.graph.stages] == [4, 12, 24]
    assert compact.graph.validate() == []
    plan = PruningPlan.load(os.path.join(out, "plan.json"))
    for st, target in zip(compact.graph.stages, (4, 12, 24)):
        for bid in st.block_ids:   # every block of a stage keeps the stage's set
            assert len(plan.layer(compact.graph.block(bid).last_conv).kept) == target
    final = json.load(open(os.path.join(out, "final.json")))
    assert 0.0 <= final["eval_acc"] <= 1.0


def test_bottleneck_middle_chain_on_preresnet(rng):
    bundle = ModelBundle(build("preresnet164", 10, with_gates=True, seed=1))
    data = load_dataset(DatasetSpec(source="synthetic-random", classes=10,
                                    samples=4, channels=3, image_size=32,
                                    seed=0))
    # train-mode scoring: an untrained deep net's eval-mode activations sit
    # far outside the (still-initial) running statistics and saturate the
    # gate sigmoids; batch-statistic normalization keeps them in range
    record = collect_scores(bundle, data.batches(2), max_batches=2,
                            training=True)
    assert len(record.layers) == 54          # one gate per bottleneck
    cfg = PruneConfig(beta=1, sign="plus", policy="bottleneck-middle",
                      half_rule=True)
    plan = make_plan(record, bundle.graph, cfg)
    compact = apply(bundle, plan, RewriteOptions(mode="inherit-weights"))
    assert compact.graph.validate() == []
    assert count_params(compact.graph) < count_params(bundle.graph)
    # block interfaces untouched: stage widths survive middle-only pruning
    assert [s.width for s in compact.graph.stages] == [64, 128, 256]
    x = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
    probs = Network(compact.graph).forward(x)
    assert abs(probs.sum() - 1.0) < 1e-5


def test_conv_caches_keep_the_slots_the_benchmark_tracer_reads(rng):
    """perfbench's tracer reads ``cache[1].nbytes`` and the weight ``cache[2]`` of
    every conv, on the batched-GEMM 1x1 path and the im2col k x k path alike."""
    graph = build("tiny-resnet", 4, with_gates=True, seed=0)
    tape = GradTape()
    x = rng.normal(size=(2, *graph.input_shape)).astype(np.float32)
    Network(graph).forward(x, training=True, tape=tape)
    convs = graph.nodes_of_kind("conv")
    assert {(c.attrs["kernel"], c.attrs["stride"]) for c in convs} >= {
        ((1, 1), 2), ((3, 3), 1), ((3, 3), 2)}
    for conv in convs:
        cache = tape.caches[conv.id]
        assert len(cache) == 6, conv.id
        assert isinstance(cache[1], np.ndarray) and cache[1].nbytes > 0, conv.id
        assert cache[2] is conv.params["weight"], conv.id


def test_untrained_deep_net_saturation_is_a_loud_error():
    import pytest
    from prunekit.errors import PrunekitError
    bundle = ModelBundle(build("preresnet164", 10, with_gates=True, seed=1))
    data = load_dataset(DatasetSpec(source="synthetic-random", classes=10,
                                    samples=2, channels=3, image_size=32,
                                    seed=0))
    with pytest.raises(PrunekitError, match="saturated"):
        collect_scores(bundle, data.batches(2), max_batches=1)


def test_finetune_mode_pipeline(tmp_path):
    out = str(tmp_path / "ft")
    cfg = PipelineConfig(
        arch="tiny-vgg", num_classes=4,
        data=DatasetSpec(source="synthetic-planted", classes=4, samples=128,
                         seed=5),
        train=TrainConfig(epochs=3, batch_size=32, lr=0.05, seed=5),
        prune=PruneConfig(beta=1, sign="minus"),
        rewrite_mode="inherit-weights",
        seed=5, out=out)
    manifest = run_pipeline(cfg)
    assert manifest.verify_chain()
    compact = load_bundle(os.path.join(out, "model-compact"))
    assert compact.metadata["rewrite_mode"] == "inherit-weights"
    trained = load_bundle(os.path.join(out, "model-trained"))
    # surviving kernels were inherited, not re-drawn
    plan = json.load(open(os.path.join(out, "plan.json")))
    entry = plan["layers"][0]
    kept = entry["kept"]
    np.testing.assert_array_equal(
        compact.graph.node(entry["layer_id"]).params["weight"],
        trained.graph.node(entry["layer_id"]).params["weight"][kept])


def test_every_public_name_resolves():
    missing = [name for name in prunekit.__all__ if not hasattr(prunekit, name)]
    assert not missing
    assert "retrain" in prunekit.__all__


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literals(path: Path) -> dict:
    """Module-level names bound to literals in a source file, read without running it."""
    found = {}
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            try:
                found[stmt.targets[0].id] = ast.literal_eval(stmt.value)
            except ValueError:
                pass
    return found


def test_benchmark_reads_only_names_that_exist():
    """Every name the benchmark's tracer wraps exists where its install looks it up,
    and the desk workload's quick-start config decodes."""
    tables = _literals(PERFBENCH / "tracing.py")
    unresolved = []
    for modname, attr, _span in tables["FUNCTIONS"]:
        if not callable(getattr(importlib.import_module(modname), attr, None)):
            unresolved.append(f"{modname}.{attr}")
    for table in ("METHODS", "COUNTED_METHODS", "GENERATOR_METHODS"):
        for modname, clsname, attr, _span in tables[table]:
            cls = getattr(importlib.import_module(modname), clsname, None)
            method = vars(cls).get(attr) if isinstance(cls, type) else None
            if not callable(method) or (table == "GENERATOR_METHODS"
                                        and not inspect.isgeneratorfunction(method)):
                unresolved.append(f"{modname}.{clsname}.{attr}")
    assert unresolved == []
    quick_start = _literals(PERFBENCH / "workloads.py")["QUICK_START"]
    cfg = PipelineConfig.from_dict(quick_start)
    assert cfg.to_dict() == quick_start


def test_benchmark_workloads_read_only_attributes_that_exist():
    """Every ``module.name`` the benchmark's workloads read of a module they
    import from prunekit resolves."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: f"prunekit.{alias.name}" for stmt in tree.body
               if isinstance(stmt, ast.ImportFrom) and stmt.module == "prunekit"
               for alias in stmt.names}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {"builders", "rewriter", "trainer"} <= modules.keys() and read
    assert sorted(f"{m}.{name}" for m, name in read
                  if not hasattr(importlib.import_module(modules[m]), name)) == []
