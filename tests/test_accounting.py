"""Counting conventions, published baselines, and the epoch budget."""

import numpy as np
import pytest

from prunekit import (CompressionReport, ModelBundle, PruneConfig, RewriteOptions,
                      apply, build, count_flops, count_params, report)
from prunekit.accounting import breakdown, node_flop_count, node_param_count
from prunekit.builders import initialize_parameters, strip_gates
from prunekit.graph import ArchitectureGraph, LayerNode
from prunekit.planner import LayerPlan, PruningPlan

from oracles import conv_mac_loops, param_count_loops


def lone_conv_graph(cin=3, cout=16, bias=True, conv_id="c"):
    nodes = [
        LayerNode(conv_id, "conv", {"in_channels": cin, "out_channels": cout,
                                "kernel": (3, 3), "stride": 1, "padding": 1,
                                "bias": bias}),
        LayerNode("gap", "globalavgpool"),
        LayerNode("fc", "fullyconnected", {"in_features": cout, "out_features": 2,
                                           "bias": True}),
        LayerNode("softmax", "softmax"),
    ]
    edges = [(conv_id, "gap"), ("gap", "fc"), ("fc", "softmax")]
    return ArchitectureGraph(nodes, edges, (cin, 32, 32))


class TestFormulas:
    def test_conv_param_formula_with_bias(self):
        g = lone_conv_graph()
        assert node_param_count(g.node("c")) == 3 * 3 * 3 * 16 + 16 == 448

    def test_conv_mac_formula(self):
        g = lone_conv_graph()
        _, out_shape = g.io_shapes()["c"]
        macs = node_flop_count(g.node("c"), (3, 32, 32), out_shape, "mac")
        assert macs == 32 * 32 * 16 * 27 == 442368

    def test_totals_equal_breakdown_sums(self):
        g = build("resnet56", 10, init=False)
        rows = breakdown(g)
        assert sum(r["params"] for r in rows) == count_params(g)
        assert sum(r["flops"] for r in rows) == count_flops(g)


BASELINES = [
    # arch, classes, params_ref, flops_ref, convention its published source used
    ("vgg16", 10, 1.50e7, 3.14e8, "mac"),
    ("vgg19", 100, 2.03e7, 7.99e8, "opcount"),
    ("resnet56", 10, 8.53e5, 1.27e8, "mac"),
    ("preresnet164", 100, 1.73e6, 5.14e8, "opcount"),
]


class TestPublishedBaselines:
    @pytest.mark.parametrize("arch,classes,p_ref,f_ref,conv", BASELINES)
    def test_baseline_counts_within_3pct(self, arch, classes, p_ref, f_ref, conv):
        g = build(arch, classes, init=False)
        assert abs(count_params(g) - p_ref) / p_ref < 0.03
        assert abs(count_flops(g, convention=conv) - f_ref) / f_ref < 0.03

    def test_gate_overhead_matches_published_deltas(self):
        """Gated VGG-16 adds ~0.2e6 params over the plain build."""
        plain = build("vgg16", 10, init=False)
        gated = build("vgg16", 10, with_gates=True, init=False)
        delta = count_params(gated) - count_params(plain)
        assert 1.5e5 < delta < 3.5e5
        assert report(gated, gated).params_before == count_params(plain)

    def test_vgg19_pruned3_near_published_absolute_count(self):
        graph = build("vgg19", 100, seed=0)
        widths = [40, 64, 128, 128, 256, 256, 256, 256,
                  256, 133, 195, 256, 256, 256, 256, 256]
        plan = PruningPlan(PruneConfig())
        for node, w in zip(graph.nodes_of_kind("conv"), widths):
            plan.layers.append(LayerPlan(node.id, node.attrs["out_channels"],
                                         tuple(range(w))))
        compact = apply(ModelBundle(graph), plan,
                        RewriteOptions(mode="architecture-only", seed=0))
        assert abs(count_params(compact.graph) - 6.44e6) / 6.44e6 < 0.03


class TestCrossChecks:
    @pytest.mark.parametrize("arch,classes", [("vgg16", 10), ("vgg19", 100),
                                              ("resnet56", 10), ("preresnet164", 100),
                                              ("tiny-vgg", 4), ("tiny-resnet", 4)])
    def test_independent_loop_counters_agree_exactly(self, arch, classes):
        g = build(arch, classes, init=False)
        assert param_count_loops(g) == count_params(g)
        assert conv_mac_loops(g, g.input_shape) == count_flops(g, convention="mac")

    def test_counting_is_structural_not_weight_dependent(self):
        g1 = build("tiny-vgg", 4, seed=1)
        g2 = build("tiny-vgg", 4, seed=2)
        assert count_params(g1) == count_params(g2)
        assert count_flops(g1) == count_flops(g2)

    def test_removing_any_channel_strictly_decreases_both(self, rng):
        graph = build("tiny-vgg", 4, seed=0)
        convs = graph.nodes_of_kind("conv")
        node = convs[int(rng.integers(len(convs)))]
        c = node.attrs["out_channels"]
        drop = int(rng.integers(c))
        kept = tuple(i for i in range(c) if i != drop)
        plan = PruningPlan(PruneConfig(), [LayerPlan(node.id, c, kept)])
        compact = apply(ModelBundle(graph), plan,
                        RewriteOptions(mode="inherit-weights"))
        assert count_params(compact.graph) < count_params(graph)
        assert count_flops(compact.graph) < count_flops(graph)


class TestReport:
    def test_identity_report(self):
        g = build("tiny-vgg", 4, init=False)
        rep = report(g, g, base_epochs=160)
        assert rep.pruned_params_pct == 0.0
        assert rep.pruned_flops_pct == 0.0
        assert rep.epoch_recommendation == 160

    def test_flop_matched_epochs_from_published_values(self):
        rep = CompressionReport(params_before=1, params_after=1,
                                flops_before=int(7.99e8), flops_after=int(2.97e8),
                                base_epochs=160)
        assert rep.epoch_recommendation == 430

    def test_literal_fraction_variant(self):
        rep = CompressionReport(params_before=1, params_after=1,
                                flops_before=1000, flops_after=500,
                                base_epochs=100, epoch_mode="literal-fraction")
        assert rep.epoch_recommendation == 50

    def test_half_flops_doubles_epochs(self):
        rep = CompressionReport(params_before=2, params_after=1,
                                flops_before=1000, flops_after=500,
                                base_epochs=20)
        assert rep.epoch_recommendation == 40

    def test_percentages_round_to_one_decimal(self):
        rep = CompressionReport(params_before=3, params_after=2,
                                flops_before=3, flops_after=1)
        assert rep.pruned_params_pct == 33.3
        assert rep.pruned_flops_pct == 66.7

    def test_gates_are_left_out(self):
        gated = build("tiny-vgg", 4, with_gates=True, reduction=4, init=False)
        plain = strip_gates(gated)
        rep = report(gated, plain)
        assert (rep.params_before, rep.flops_before) == (count_params(plain), count_flops(plain))
        assert rep.pruned_params_pct == rep.pruned_flops_pct == 0.0
        assert {r["kind"] for r in rep.per_layer} == {"conv", "batchnorm", "fullyconnected"}
        assert sum(r["params_before"] for r in rep.per_layer) == rep.params_before

    def test_per_layer_rows_and_missing_layer_reads_zero(self):
        before, after = lone_conv_graph(cout=16), lone_conv_graph(cout=16, conv_id="c2")
        rows = {r["id"]: r for r in report(before, after).per_layer}
        assert rows["c"] == {"id": "c", "kind": "conv", "width_before": 16, "width_after": 0,
                             "params_before": 3 * 16 * 9 + 16, "params_after": 0}
        assert rows["fc"]["params_before"] == rows["fc"]["params_after"] == 16 * 2 + 2
        assert "c2" not in rows

    def test_text_and_dict_forms(self):
        g = build("tiny-vgg", 4, init=False)
        rep = report(g, g, base_epochs=10)
        assert "params" in rep.to_text()
        d = rep.to_dict()
        assert d["epoch_recommendation"] == 10
        assert d["params_before"] == d["params_after"]
        assert CompressionReport.from_dict(d) == rep
        opcount = report(g, g, convention="opcount").to_dict()
        assert CompressionReport.from_dict(opcount).convention == "opcount"


def test_unknown_convention_rejected():
    g = build("tiny-vgg", 4, init=False)
    with pytest.raises(ValueError, match="convention"):
        count_flops(g, convention="watts")
