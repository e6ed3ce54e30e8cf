"""Builders, graph validation, and gate stripping."""

import numpy as np
import pytest

from prunekit import ModelBundle, Network, build, count_params, strip_gates
from prunekit.builders import initialize_parameters
from prunekit.graph import ArchitectureGraph, LayerNode

VGG19_ORIGINAL = [64, 64, 128, 128, 256, 256, 256, 256,
                  512, 512, 512, 512, 512, 512, 512, 512]


def conv_widths(graph):
    main = [n for n in graph.nodes if n.kind == "conv" and ".down." not in n.id]
    return [n.attrs["out_channels"] for n in main]


class TestBuilders:
    def test_vgg19_original_channel_column(self):
        g = build("vgg19", 100, init=False)
        assert conv_widths(g) == VGG19_ORIGINAL

    def test_vgg16_has_13_convs(self):
        g = build("vgg16", 10, init=False)
        assert len(conv_widths(g)) == 13

    def test_resnet56_structure_and_params(self):
        g = build("resnet56", 10, init=False)
        assert [s.width for s in g.stages] == [16, 32, 64]
        assert [len(s.block_ids) for s in g.stages] == [9, 9, 9]
        assert abs(count_params(g) - 8.53e5) / 8.53e5 < 0.03

    def test_preresnet164_stages(self):
        g = build("preresnet164", 100, init=False)
        assert [s.width for s in g.stages] == [64, 128, 256]
        assert [len(s.block_ids) for s in g.stages] == [18, 18, 18]

    def test_tiny_vgg_forward_is_probability_vector(self):
        g = build("tiny-vgg", 4, with_gates=True, seed=0)
        net = Network(g)
        x = np.random.default_rng(0).normal(size=(1, 8, 16, 16)).astype(np.float32)
        p = net.forward(x)
        assert p.shape == (1, 4)
        assert abs(p.sum() - 1.0) < 1e-6

    def test_builders_always_validate(self):
        for arch, classes in [("vgg16", 10), ("vgg19", 100), ("resnet56", 10),
                              ("preresnet164", 100), ("tiny-vgg", 4),
                              ("tiny-resnet", 4)]:
            for gates in (False, True):
                g = build(arch, classes, with_gates=gates, init=False)
                assert g.validate() == [], f"{arch} gates={gates}"

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            build("densenet", 10)

    def test_incompatible_placement_rejected(self):
        with pytest.raises(ValueError, match="placement"):
            build("vgg16", 10, with_gates=True, gate_placement="block-output")
        with pytest.raises(ValueError, match="placement"):
            build("resnet56", 10, with_gates=True, gate_placement="middle")

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            build("vgg16", 1)


class TestGatePlacement:
    def test_vgg_order_conv_bn_gate_relu(self):
        g = build("vgg16", 10, with_gates=True, init=False)
        assert g.consumers("conv1") == ["bn1"]
        assert g.consumers("bn1") == ["gate1"]
        assert g.consumers("gate1") == ["relu1"]

    def test_basic_block_output_placement(self):
        g = build("resnet56", 10, with_gates=True, init=False)
        b = g.block("s1.b1")
        assert b.gate_id == "s1.b1.gate"
        assert g.consumers("s1.b1.conv2") == ["s1.b1.gate"]
        assert g.consumers("s1.b1.gate") == ["s1.b1.bn2"]

    def test_basic_block_middle_placement(self):
        g = build("resnet56", 10, with_gates=True,
                  gate_placement="block-middle", init=False)
        assert g.consumers("s1.b1.conv1") == ["s1.b1.gate"]
        assert g.consumers("s1.b1.gate") == ["s1.b1.bn1"]

    def test_bottleneck_middle_default(self):
        g = build("preresnet164", 100, with_gates=True, init=False)
        assert g.consumers("s1.b1.conv2") == ["s1.b1.gate"]
        assert g.consumers("s1.b1.gate") == ["s1.b1.bn3"]

    def test_bottleneck_block_output_placement(self):
        g = build("preresnet164", 100, with_gates=True,
                  gate_placement="block-output", init=False)
        assert g.consumers("s1.b1.conv3") == ["s1.b1.gate"]
        assert g.consumers("s1.b1.gate") == ["s1.b1.add"]


class TestValidate:
    def test_mismatched_add_is_reported_with_widths(self):
        nodes = [
            LayerNode("c1", "conv", {"in_channels": 3, "out_channels": 32,
                                     "kernel": (3, 3), "stride": 1, "padding": 1,
                                     "bias": True}),
            LayerNode("c2", "conv", {"in_channels": 3, "out_channels": 64,
                                     "kernel": (3, 3), "stride": 1, "padding": 1,
                                     "bias": True}),
            LayerNode("j", "add"),
            LayerNode("gap", "globalavgpool"),
            LayerNode("fc", "fullyconnected", {"in_features": 32,
                                               "out_features": 2, "bias": True}),
            LayerNode("softmax", "softmax"),
        ]
        # two entry nodes is itself a violation; wire both convs off one stem
        stem = LayerNode("stem", "conv", {"in_channels": 3, "out_channels": 3,
                                          "kernel": (1, 1), "stride": 1,
                                          "padding": 0, "bias": True})
        g = ArchitectureGraph([stem] + nodes,
                              [("stem", "c1"), ("stem", "c2"), ("c1", "j"),
                               ("c2", "j"), ("j", "gap"), ("gap", "fc"),
                               ("fc", "softmax")], (3, 8, 8))
        violations = g.validate()
        joined = "\n".join(violations)
        assert "(32, 8, 8)" in joined and "(64, 8, 8)" in joined

    def test_cycle_detected(self):
        g = build("tiny-vgg", 4, init=False)
        g.edges.append(("relu2", "conv1"))
        assert any("cycle" in v for v in g.validate())

    def test_missing_softmax_detected(self):
        g = build("tiny-vgg", 4, init=False)
        g.nodes = [n for n in g.nodes if n.kind != "softmax"]
        g._index = {n.id: n for n in g.nodes}
        g.edges = [e for e in g.edges if e[1] != "softmax"]
        assert any("softmax" in v for v in g.validate())

    def test_unknown_kind_reported_without_raising(self):
        g = build("tiny-vgg", 4, init=False)
        g.node("relu1").kind = "mystery"
        assert "node 'relu1': unknown kind 'mystery'" in g.validate()

    def test_stage_annotation_mismatch_detected(self):
        g = build("tiny-resnet", 4, init=False)
        g.stages[0].width = 99
        assert any("stage 1" in v for v in g.validate())


class TestStripGates:
    def test_strip_yields_gateless_twin(self):
        gated = build("tiny-vgg", 4, with_gates=True, seed=3)
        plain = build("tiny-vgg", 4, with_gates=False, seed=3)
        stripped = strip_gates(gated)
        assert stripped.validate() == []
        assert [n.id for n in stripped.nodes] == [n.id for n in plain.nodes]
        assert stripped.edges == plain.edges

    def test_stripped_params_transplant_to_forward_equality(self):
        """With unit gates, stripping is numerically a no-op."""
        gated = build("tiny-vgg", 4, with_gates=True, seed=3)
        stripped = strip_gates(gated)
        twin = build("tiny-vgg", 4, with_gates=False, seed=0)
        for node in twin.nodes:
            node.params = {k: v.copy() for k, v in
                           stripped.node(node.id).params.items()}
        x = np.random.default_rng(5).normal(size=(2, 8, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(Network(stripped).forward(x),
                                      Network(twin).forward(x))

    def test_node_count_drops_by_gate_count(self):
        gated = build("tiny-resnet", 4, with_gates=True, init=False)
        n_gates = len(gated.nodes_of_kind("gate"))
        assert n_gates == 6
        stripped = strip_gates(gated)
        assert len(stripped.nodes) == len(gated.nodes) - n_gates


def test_initialize_is_deterministic():
    g1 = build("tiny-vgg", 4, with_gates=True, seed=42)
    g2 = build("tiny-vgg", 4, with_gates=True, seed=42)
    for n1, n2 in zip(g1.nodes, g2.nodes):
        for k in n1.params:
            np.testing.assert_array_equal(n1.params[k], n2.params[k])


def test_manifest_roundtrip_preserves_structure():
    g = build("resnet56", 10, with_gates=True, init=False)
    m = g.to_manifest()
    g2 = ArchitectureGraph.from_manifest(m)
    assert g2.to_manifest() == m
    initialize_parameters(g2, 0)
    assert g2.validate() == []
