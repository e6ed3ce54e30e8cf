"""Structural rewriting: weight inheritance, stripping, and consistency."""

import numpy as np
import pytest

from prunekit import (ModelBundle, Network, PruneConfig, RewriteOptions, apply,
                      build, count_params, identity_plan, report)
from prunekit.bundle import bundle_fingerprint
from prunekit.errors import PlanError
from prunekit.graph import ArchitectureGraph, LayerNode
from prunekit.builders import initialize_parameters
from prunekit.planner import LayerPlan, PruningPlan, make_plan
from prunekit.rewriter import REWRITE_MODES
from prunekit.scoring import LayerScore, ScoreRecord

VGG19_PRUNED_3 = [40, 64, 128, 128, 256, 256, 256, 256,
                  256, 133, 195, 256, 256, 256, 256, 256]
VGG19_PRUNED_8 = [35, 64, 128, 128, 128, 128, 128, 128,
                  256, 129, 235, 394, 256, 6, 230, 104]


def width_plan(graph, widths):
    convs = [n for n in graph.nodes_of_kind("conv")]
    plan = PruningPlan(PruneConfig())
    for node, w in zip(convs, widths):
        c = node.attrs["out_channels"]
        plan.layers.append(LayerPlan(node.id, c, tuple(range(w))))
    plan.validate()
    return plan


class TestIdentityRewrite:
    def test_forward_bitwise_identical_with_gates_retained(self, tiny_gated_bundle):
        plan = identity_plan(tiny_gated_bundle.graph)
        out = apply(tiny_gated_bundle, plan,
                    RewriteOptions(mode="inherit-weights", strip_gates=False))
        x = np.random.default_rng(3).normal(size=(4, 8, 16, 16)).astype(np.float32)
        before = Network(tiny_gated_bundle.graph).forward(x)
        after = Network(out.graph).forward(x)
        np.testing.assert_array_equal(before, after)

    def test_param_count_preserved_only_for_identity(self, tiny_gated_bundle):
        plan = identity_plan(tiny_gated_bundle.graph)
        same = apply(tiny_gated_bundle, plan,
                     RewriteOptions(mode="inherit-weights", strip_gates=False))
        assert count_params(same.graph) == count_params(tiny_gated_bundle.graph)
        stripped = apply(tiny_gated_bundle, plan, RewriteOptions())
        assert count_params(stripped.graph) < count_params(tiny_gated_bundle.graph)

    def test_idempotent_on_already_pruned_model(self, tiny_gated_bundle):
        plan = identity_plan(tiny_gated_bundle.graph)
        once = apply(tiny_gated_bundle, plan,
                     RewriteOptions(mode="inherit-weights", strip_gates=False))
        twice = apply(once, identity_plan(once.graph),
                      RewriteOptions(mode="inherit-weights", strip_gates=False))
        assert bundle_fingerprint(once) == bundle_fingerprint(twice)

    def test_all_summary_deltas_zero(self, tiny_gated_bundle):
        plan = identity_plan(tiny_gated_bundle.graph)
        out = apply(tiny_gated_bundle, plan,
                    RewriteOptions(mode="inherit-weights", strip_gates=False))
        rows = report(tiny_gated_bundle.graph, out.graph).per_layer
        assert rows and all(r["params_after"] == r["params_before"] and
                            r["width_after"] == r["width_before"] for r in rows)


class TestPublishedWidths:
    def test_vgg19_column8_architecture_only(self):
        graph = build("vgg19", 100, seed=0)
        plan = width_plan(graph, VGG19_PRUNED_8)
        compact = apply(ModelBundle(graph), plan,
                        RewriteOptions(mode="architecture-only", seed=5))
        widths = [n.attrs["out_channels"]
                  for n in compact.graph.nodes_of_kind("conv")]
        assert widths == VGG19_PRUNED_8
        assert compact.graph.node("fc").attrs["in_features"] == VGG19_PRUNED_8[-1]

    def test_vgg19_column3_summary_widths(self):
        graph = build("vgg19", 100, seed=0)
        before = ModelBundle(graph)
        plan = width_plan(graph, VGG19_PRUNED_3)
        compact = apply(before, plan, RewriteOptions(mode="architecture-only", seed=5))
        rows = {r["id"]: r for r in report(graph, compact.graph).per_layer}
        conv_ids = [n.id for n in graph.nodes_of_kind("conv")]
        assert [rows[cid]["width_after"] for cid in conv_ids] == VGG19_PRUNED_3

    def test_summary_deltas_sum_to_accounting_difference(self):
        graph = build("vgg19", 100, seed=0)
        before = ModelBundle(graph)
        plan = width_plan(graph, VGG19_PRUNED_3)
        compact = apply(before, plan, RewriteOptions(mode="architecture-only", seed=5))
        rows = report(graph, compact.graph).per_layer
        assert sum(r["params_after"] - r["params_before"] for r in rows) == \
            count_params(compact.graph) - count_params(graph)


class TestWeightInheritance:
    def test_kept_kernels_are_bitwise_slices(self, rng):
        graph = build("tiny-vgg", 4, seed=8)
        orig_w1 = graph.node("conv1").params["weight"].copy()
        orig_w2 = graph.node("conv2").params["weight"].copy()
        kept = (0, 2, 5, 9, 11)
        plan = PruningPlan(PruneConfig(), [LayerPlan("conv1", 16, kept)])
        out = apply(ModelBundle(graph), plan, RewriteOptions(mode="inherit-weights"))
        np.testing.assert_array_equal(out.graph.node("conv1").params["weight"],
                                      orig_w1[list(kept)])
        np.testing.assert_array_equal(out.graph.node("conv2").params["weight"],
                                      orig_w2[:, list(kept)])

    def test_bn_statistics_sliced(self):
        graph = build("tiny-vgg", 4, seed=8)
        bn = graph.node("bn1")
        bn.params["running_mean"][:] = np.arange(16)
        kept = (1, 3, 8)
        plan = PruningPlan(PruneConfig(), [LayerPlan("conv1", 16, kept)])
        out = apply(ModelBundle(graph), plan, RewriteOptions(mode="inherit-weights"))
        np.testing.assert_array_equal(out.graph.node("bn1").params["running_mean"],
                                      [1.0, 3.0, 8.0])

    def test_conv_to_conv_masking_oracle(self, rng):
        """Pruned forward equals the original with pruned channels zeroed.

        Restricted to a conv -> conv pair with no normalization or
        activation in between, where slicing is exactly channel masking.
        """
        nodes = [
            LayerNode("a", "conv", {"in_channels": 3, "out_channels": 6,
                                    "kernel": (3, 3), "stride": 1, "padding": 1,
                                    "bias": True}),
            LayerNode("b", "conv", {"in_channels": 6, "out_channels": 4,
                                    "kernel": (3, 3), "stride": 1, "padding": 1,
                                    "bias": True}),
            LayerNode("gap", "globalavgpool"),
            LayerNode("fc", "fullyconnected", {"in_features": 4, "out_features": 3,
                                               "bias": True}),
            LayerNode("softmax", "softmax"),
        ]
        edges = [("a", "b"), ("b", "gap"), ("gap", "fc"), ("fc", "softmax")]
        graph = ArchitectureGraph(nodes, edges, (3, 8, 8))
        initialize_parameters(graph, 21)
        graph.node("a").params["bias"][:] = rng.normal(size=6).astype(np.float32)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)

        kept = (0, 2, 3)
        plan = PruningPlan(PruneConfig(), [LayerPlan("a", 6, kept)])
        pruned = apply(ModelBundle(graph), plan,
                       RewriteOptions(mode="inherit-weights"))
        got = Network(pruned.graph).forward(x)

        masked = graph.copy()
        dropped = [i for i in range(6) if i not in kept]
        masked.node("a").params["weight"][dropped] = 0
        masked.node("a").params["bias"][list(dropped)] = 0
        want = Network(masked).forward(x)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


class TestStageUniformRewrite:
    def stage_plan(self, graph, targets):
        scores = {b.last_conv: np.linspace(0.9, 0.1,
                  graph.node(b.last_conv).attrs["out_channels"])
                  for b in graph.blocks}
        record = ScoreRecord([LayerScore(k, k, len(v), v, np.zeros(len(v)), 1)
                              for k, v in scores.items()])
        cfg = PruneConfig(policy="resnet-stage-uniform", stage_targets=targets)
        return make_plan(record, graph, cfg)

    def test_rewrites_shortcuts_and_validates(self):
        graph = build("tiny-resnet", 4, with_gates=True, reduction=4, seed=2)
        plan = self.stage_plan(graph, ((1, 4), (2, 8), (3, 16)))
        out = apply(ModelBundle(graph), plan,
                    RewriteOptions(mode="inherit-weights"))
        assert out.graph.validate() == []
        assert [s.width for s in out.graph.stages] == [4, 8, 16]
        down = out.graph.node("s2.b1.down.conv")
        assert down.attrs["in_channels"] == 4 and down.attrs["out_channels"] == 8
        x = np.random.default_rng(0).normal(size=(2, 8, 16, 16)).astype(np.float32)
        assert Network(out.graph).forward(x).shape == (2, 4)

    def test_add_branch_mismatch_detected(self):
        graph = build("tiny-resnet", 4, seed=2)
        # a plan slicing only one branch of a residual add is rejected
        plan = PruningPlan(PruneConfig(),
                           [LayerPlan("s1.b1.conv2", 8, (0, 1, 2, 3))])
        with pytest.raises(PlanError, match="different kept sets"):
            apply(ModelBundle(graph), plan, RewriteOptions(mode="inherit-weights"))


class TestErrors:
    def test_unknown_layer_rejected(self, tiny_gated_bundle):
        plan = PruningPlan(PruneConfig(), [LayerPlan("nope", 4, (0,))])
        with pytest.raises(PlanError, match="unknown layer"):
            apply(tiny_gated_bundle, plan, RewriteOptions())

    def test_wrong_channel_count_rejected(self, tiny_gated_bundle):
        plan = PruningPlan(PruneConfig(), [LayerPlan("conv1", 99, (0, 1))])
        with pytest.raises(PlanError, match="99"):
            apply(tiny_gated_bundle, plan, RewriteOptions())

    def test_architecture_only_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            RewriteOptions(mode="architecture-only")

    def test_empty_layer_rejected_by_plan_validation(self):
        with pytest.raises(PlanError):
            PruningPlan(PruneConfig(), [LayerPlan("conv1", 8, ())]).validate()


def test_architecture_only_reinitializes_deterministically():
    graph = build("tiny-vgg", 4, with_gates=True, seed=3)
    plan = identity_plan(graph)
    a = apply(ModelBundle(graph), plan, RewriteOptions(mode="architecture-only", seed=4))
    b = apply(ModelBundle(graph), plan, RewriteOptions(mode="architecture-only", seed=4))
    assert bundle_fingerprint(a) == bundle_fingerprint(b)
    c = apply(ModelBundle(graph), plan, RewriteOptions(mode="architecture-only", seed=5))
    assert bundle_fingerprint(a) != bundle_fingerprint(c)
    assert a.metadata["init"] == {"scheme": "fan-in-gaussian", "seed": 4}


def test_gate_hidden_width_recomputed_when_retained():
    graph = build("tiny-vgg", 4, with_gates=True, reduction=4, seed=3)
    # prune conv3 (32 wide, hidden 8) down to 9 channels; hidden becomes 2
    plan = PruningPlan(PruneConfig(),
                       [LayerPlan("conv3", 32, tuple(range(9)))])
    out = apply(ModelBundle(graph), plan,
                RewriteOptions(mode="inherit-weights", strip_gates=False))
    gate = out.graph.node("gate3")
    assert gate.attrs["channels"] == 9
    assert gate.attrs["hidden"] == 2
    assert gate.params["w1"].shape == (2, 9)
    assert gate.params["w2"].shape == (9, 2)
    assert out.graph.validate() == []


def _vgg_every_third_channel(init=True):
    graph = build("tiny-vgg", 4, with_gates=True, reduction=4, seed=3, init=init)
    return graph, PruningPlan(PruneConfig(), [
        LayerPlan(n.id, n.attrs["out_channels"], tuple(range(0, n.attrs["out_channels"], 3)))
        for n in graph.nodes_of_kind("conv")])


def _resnet_stage_uniform(init=True):
    graph = build("tiny-resnet", 4, with_gates=True, reduction=4, seed=2, init=init)
    rng = np.random.default_rng(5)
    record = ScoreRecord([LayerScore(b.last_conv, b.last_conv, c, rng.random(c), np.zeros(c), 1)
                          for b in graph.blocks
                          for c in [graph.node(b.last_conv).attrs["out_channels"]]])
    cfg = PruneConfig(policy="resnet-stage-uniform", stage_targets=((1, 4), (2, 8), (3, 16)))
    return graph, make_plan(record, graph, cfg)


# bundle_fingerprint of each compact net: a gate only passes kept sets through,
# so stripping gates before or after the keep-set walk must give these digests
PINNED = [
    pytest.param(_vgg_every_third_channel, "inherit-weights", True,
                 "de0aeeaaa710f34611fd86222297d768c9f822879c06ad7f1c0ce2fc5f54ca05",
                 id="vgg-inherit"),
    pytest.param(_vgg_every_third_channel, "inherit-weights", False,
                 "cc0d35b67bec88215788f6d5681a45693829187b2fca8cce5364172e25f95afb",
                 id="vgg-inherit-keep-gates"),
    pytest.param(_vgg_every_third_channel, "architecture-only", True,
                 "89b597a27671797a027326dca0613fb79cd535b0f9923053614e5b3c7dd3d7ed",
                 id="vgg-scratch"),
    pytest.param(_vgg_every_third_channel, "architecture-only", False,
                 "c9367b60faf051ffb96c83d6272b000c4c8ec9bffed573f398b2c32be98c430b",
                 id="vgg-scratch-keep-gates"),
    pytest.param(_resnet_stage_uniform, "inherit-weights", True,
                 "9e9b2640caa43dc5b2be2536fa1f1e969df6b29644fd0bdf6a2649bd24283f99",
                 id="resnet-inherit"),
    pytest.param(_resnet_stage_uniform, "inherit-weights", False,
                 "472abdeae326e4ef6958bb4936645ef02400c34fdaa92434d921e2b15d17f263",
                 id="resnet-inherit-keep-gates"),
    pytest.param(_resnet_stage_uniform, "architecture-only", True,
                 "83c2bb69984b6c72838697694bbe8257ef886b3cbe83c32661b7121a4cb5a519",
                 id="resnet-scratch"),
    pytest.param(_resnet_stage_uniform, "architecture-only", False,
                 "d17c5c688730a14f513774c991986e70c77f8e6a59d0c3270e73538660ccd3d3",
                 id="resnet-scratch-keep-gates"),
]


@pytest.mark.parametrize("case, mode, strip, digest", PINNED)
def test_compact_net_is_pinned(case, mode, strip, digest):
    graph, plan = case()
    out = apply(ModelBundle(graph), plan, RewriteOptions(mode=mode, strip_gates=strip, seed=9))
    assert out.graph.validate() == []
    assert bundle_fingerprint(out) == digest


@pytest.mark.parametrize("case, mode, strip, digest",
                         [p for p in PINNED if p.values[1] == "architecture-only"])
def test_architecture_only_reads_no_parent_tensor(case, mode, strip, digest):
    """The width walk reads widths only, so a parent built without parameters
    gives the compact net of the initialised one."""
    graph, plan = case(init=False)
    assert not any(n.params for n in graph.nodes)
    out = apply(ModelBundle(graph), plan, RewriteOptions(mode=mode, strip_gates=strip, seed=9))
    assert bundle_fingerprint(out) == digest


@pytest.mark.parametrize("mode", REWRITE_MODES)
@pytest.mark.parametrize("strip", [True, False], ids=["strip", "keep-gates"])
def test_apply_copies_no_parent_tensor(mode, strip, traced_peak):
    """On gated resnet56 at quarter widths, apply holds the compact net's tensors,
    never a copy of the parent's 3.4 MB, and each compact tensor is an array of
    its own, a tensor no keep set touches included."""
    graph = build("resnet56", 10, with_gates=True, seed=0)
    record = ScoreRecord([LayerScore(b.last_conv, b.last_conv, c, np.linspace(1, 0, c),
                                     np.zeros(c), 1)
                          for b in graph.blocks
                          for c in [graph.node(b.last_conv).attrs["out_channels"]]])
    cfg = PruneConfig(policy="resnet-stage-uniform", stage_targets=((1, 4), (2, 8), (3, 16)))
    plan = make_plan(record, graph, cfg)
    parent_bytes = sum(a.nbytes for n in graph.nodes for a in n.params.values())
    peak, out = traced_peak(lambda: apply(ModelBundle(graph), plan,
                                          RewriteOptions(mode=mode, strip_gates=strip, seed=1)))
    assert peak < parent_bytes / 2
    untouched = 0
    for node in out.graph.nodes:
        for name, a in node.params.items():
            parent = graph.node(node.id).params[name]
            assert a.flags.c_contiguous and not np.shares_memory(a, parent), (node.id, name)
            untouched += a.shape == parent.shape
    assert untouched
