"""Builders, graph validation, and gate stripping."""

import numpy as np
import pytest

from prunekit import (ModelBundle, Network, PruneConfig, RewriteOptions, apply, build,
                      count_params, strip_gates)
from prunekit.builders import ARCHITECTURES, initialize_parameters
from prunekit.bundle import bundle_fingerprint
from prunekit.errors import GraphValidationError
from prunekit.graph import ArchitectureGraph, LayerNode, StageInfo
from prunekit.planner import LayerPlan, PruningPlan, make_plan
from prunekit.records import content_hash
from prunekit.scoring import LayerScore, ScoreRecord

from oracles import kahn_order

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

    def test_overlapping_maxpool_is_reported_naming_it(self):
        g = build("tiny-vgg", 4, init=False)
        g.node("pool1").attrs["kernel"] = 3
        assert "maxpool 'pool1': kernel 3 != stride 2; only non-overlapping " \
            "windows are supported" in g.validate()

    def test_cycle_detected(self):
        g = build("tiny-vgg", 4, init=False)
        g = ArchitectureGraph(g.nodes, [*g.edges, ("relu2", "conv1")], g.input_shape)
        assert any("cycle" in v for v in g.validate())

    def test_missing_softmax_detected(self):
        g = build("tiny-vgg", 4, init=False)
        g = ArchitectureGraph([n for n in g.nodes if n.kind != "softmax"],
                              [e for e in g.edges if e[1] != "softmax"], g.input_shape)
        assert any("softmax" in v for v in g.validate())

    @pytest.mark.parametrize("edit, violations", [
        (lambda nodes, edges: (nodes + [LayerNode("relu1", "relu")], edges),
         ["duplicate node ids"]),
        (lambda nodes, edges: (nodes, edges + [("relu2", "nope")]),
         ["edge (relu2 -> nope) references unknown node"]),
        (lambda nodes, edges: (nodes, edges + [("relu2", "conv1")]),
         ["expected exactly one entry node, found []", "graph contains a cycle"]),
        (lambda nodes, edges: ([n for n in nodes if n.kind != "softmax"],
                               [e for e in edges if e[1] != "softmax"]),
         ["expected exactly one softmax sink, found 0"]),
    ], ids=["duplicate-id", "unknown-node", "cycle", "no-softmax"])
    def test_malformed_graph_builds_and_reports(self, edit, violations):
        g = build("tiny-vgg", 4, init=False)
        nodes, edges = edit(list(g.nodes), list(g.edges))
        bad = ArchitectureGraph(nodes, edges, g.input_shape, g.blocks, g.stages, g.arch)
        assert bad.validate() == violations
        if "graph contains a cycle" in violations:
            with pytest.raises(GraphValidationError, match="cycle"):
                bad.topo_order()

    def test_unknown_kind_reported_without_raising(self):
        g = build("tiny-vgg", 4, init=False)
        g.node("relu1").kind = "mystery"
        assert "layer 'relu1': unknown kind 'mystery'" in g.validate()

    def test_stage_annotation_mismatch_detected(self):
        g = build("tiny-resnet", 4, init=False)
        g.stages[0].width = 99
        assert any("stage 1" in v for v in g.validate())

    @pytest.mark.parametrize("edit, message", [
        (lambda stages: stages.append(StageInfo(0, 8, [])), "stage 0 has no blocks"),
        (lambda stages: stages.append(stages[0].copy()), "stage 1 is listed twice"),
    ], ids=["empty-stage", "duplicate-stage"])
    def test_malformed_stage_reported_naming_it(self, edit, message):
        """Stage-uniform planning needs every stage once and with blocks to vote."""
        g = build("tiny-resnet", 4, init=False)
        edit(g.stages)
        assert g.validate() == [message]

    @pytest.mark.parametrize("layer, param, shape, message", [
        ("fc", "weight", (4, 31), "fullyconnected 'fc': weight shape (4, 31) != (4, 32)"),
        ("fc", "bias", (5,), "fullyconnected 'fc': bias shape (5,) != (4,)"),
        ("conv1", "bias", (15,), "conv 'conv1': bias shape (15,) != (16,)"),
    ], ids=["fc-weight", "fc-bias", "conv-bias"])
    def test_misshaped_parameter_reported(self, layer, param, shape, message):
        g = build("tiny-vgg", 4, seed=0)
        g.node("conv1").attrs["bias"] = True    # a biased conv, to check its bias
        g.node("conv1").params["bias"] = np.zeros(16, dtype=np.float32)
        assert g.validate() == []
        g.node(layer).params[param] = np.zeros(shape, dtype=np.float32)
        assert g.validate() == [message]

    @pytest.mark.parametrize("layer, edit, message", [
        ("conv2", lambda a: a.update(stride="2"),
         "layer 'conv2': conv attribute 'stride': expected an integer, got a string"),
        ("conv1", lambda a: a.update(bias=1),
         "layer 'conv1': conv attribute 'bias': expected a boolean, got an integer"),
        ("conv1", lambda a: a.update(in_channels=True),
         "layer 'conv1': conv attribute 'in_channels': expected an integer, got a boolean"),
        ("conv1", lambda a: a.update(kernel=(3, 3, 3)),
         "layer 'conv1': conv attribute 'kernel': expected 2 items, got 3"),
        ("bn1", lambda a: a.update(eps="1e-5"),
         "layer 'bn1': batchnorm attribute 'eps': expected a number, got a string"),
        ("pool1", lambda a: a.pop("kernel"), "layer 'pool1': maxpool lacks attribute 'kernel'"),
        ("conv1", lambda a: a.pop("stride"), "layer 'conv1': conv lacks attribute 'stride'"),
        ("gate1", lambda a: a.pop("hidden"), "layer 'gate1': gate lacks attribute 'hidden'"),
        ("conv1", lambda a: a.update(dilation=1), "layer 'conv1': conv has no attribute 'dilation'"),
        ("relu1", lambda a: a.update(inplace=True),
         "layer 'relu1': relu has no attribute 'inplace'"),
        ("conv2", lambda a: a.update(stride=0),
         "layer 'conv2': conv attribute 'stride' must be at least 1, got 0"),
        ("pool1", lambda a: a.update(kernel=0, stride=0),
         "layer 'pool1': maxpool attribute 'kernel' must be at least 1, got 0"),
        ("conv1", lambda a: a.update(padding=-5),
         "layer 'conv1': conv attribute 'padding' must be at least 0, got -5"),
        ("conv1", lambda a: a.update(kernel=(3, 0)),
         "layer 'conv1': conv attribute 'kernel' must be at least 1, got (3, 0)"),
        ("gate1", lambda a: a.update(reduction=0),
         "layer 'gate1': gate attribute 'reduction' must be at least 1, got 0"),
    ], ids=["string-stride", "int-bias", "bool-width", "kernel-length", "string-eps",
            "maxpool-without-kernel", "conv-without-stride", "gate-without-hidden",
            "extra-dilation", "relu-attribute", "zero-stride", "zero-maxpool-window",
            "negative-padding", "zero-kernel-axis", "zero-reduction"])
    def test_malformed_attribute_reported_before_shape_inference(self, layer, edit, message):
        g = build("tiny-vgg", 4, with_gates=True, init=False)
        edit(g.node(layer).attrs)
        violations = g.validate()
        assert message in violations
        assert not any("shape inference failed" in v for v in violations)

    @pytest.mark.parametrize("handle, node_id, message", [
        ("first_conv", "s1.b1.relu1",
         "block 's1.b1': first_conv 's1.b1.relu1' is a relu, not a conv"),
        ("last_conv", "nope", "block 's1.b1': last_conv 'nope' does not exist"),
    ], ids=["first-conv-not-a-conv", "last-conv-missing"])
    def test_block_handle_that_is_not_a_conv_is_reported(self, handle, node_id, message):
        g = build("tiny-resnet", 4, init=False)
        setattr(g.blocks[0], handle, node_id)
        assert g.validate() == [message]

    @pytest.mark.parametrize("attr, value, message", [
        ("eps", -1.0, "layer 'bn1': batchnorm attribute 'eps' must be positive, got -1.0"),
        ("eps", 0, "layer 'bn1': batchnorm attribute 'eps' must be positive, got 0"),
        ("momentum", 2.0,
         "layer 'bn1': batchnorm attribute 'momentum' must be in [0, 1], got 2.0"),
        ("momentum", -0.1,
         "layer 'bn1': batchnorm attribute 'momentum' must be in [0, 1], got -0.1"),
    ], ids=["negative-eps", "zero-eps", "momentum-above-1", "negative-momentum"])
    def test_batchnorm_range_reported_naming_layer_and_attribute(self, attr, value, message):
        g = build("tiny-vgg", 4, init=False)
        g.node("bn1").attrs[attr] = value
        assert g.validate() == [message]

    def test_an_int_passes_for_a_float_attribute(self):
        g = build("tiny-vgg", 4, init=False)
        g.node("bn1").attrs["momentum"] = 1
        assert g.validate() == []


def _compact(arch, policy):
    """``arch`` gated, then rewritten by a hand plan of ``policy``."""
    graph = build(arch, 10, with_gates=True, reduction=4, seed=1)
    if policy == "resnet-stage-uniform":
        record = ScoreRecord([LayerScore(b.last_conv, b.last_conv, st.width,
                                         np.linspace(1, 0, st.width), np.zeros(st.width), 1)
                              for st in graph.stages for b in map(graph.block, st.block_ids)])
        plan = make_plan(record, graph, PruneConfig(
            policy=policy, stage_targets=tuple((st.index, st.width // 2) for st in graph.stages)))
    else:
        plan = PruningPlan(PruneConfig(policy=policy), [
            LayerPlan(b.middle_conv, c, tuple(range(0, c, 3)))
            for b in graph.blocks for c in [graph.node(b.middle_conv).attrs["out_channels"]]])
    return apply(ModelBundle(graph), plan, RewriteOptions()).graph


TOPOLOGY_CASES = [(arch, form) for arch in ARCHITECTURES for form in ("gated", "stripped")] + [
    ("tiny-resnet", "resnet-stage-uniform"), ("resnet56", "resnet-stage-uniform"),
    ("preresnet164", "bottleneck-middle")]


@pytest.mark.parametrize("arch, form", TOPOLOGY_CASES,
                         ids=[f"{a}-{f}" for a, f in TOPOLOGY_CASES])
def test_topology_agrees_with_the_edge_list(arch, form):
    """The maps read once per graph equal a direct scan of its edges, in edge order."""
    if form in ("gated", "stripped"):
        g = build(arch, 10, with_gates=True, init=False)
        g = strip_gates(g) if form == "stripped" else g
    else:
        g = _compact(arch, form)
    for n in g.nodes:
        assert g.producers(n.id) == [s for s, d in g.edges if d == n.id]
        assert g.consumers(n.id) == [d for s, d in g.edges if s == n.id]
    order = g.topo_order()
    assert list(order) == kahn_order([n.id for n in g.nodes], g.edges)
    position = {nid: i for i, nid in enumerate(order)}
    assert all(position[s] < position[d] for s, d in g.edges)
    assert g.copy().topology is g.topology


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


# content_hash of build(arch, 10, init=False).to_manifest(): the node, edge and
# block order every fixed-seed hash rests on; parameter-free, so RNG-independent
PLAIN_MANIFEST = {
    "vgg16": "282d6d6919bb2c3ff6054415844d34ef255e10cd1497a0db13e8d4c5ff9e1b38",
    "vgg19": "6fcc7d4ee09d66995cce8dc8069d32968e0f1a7e75cf32b010f9b6e2302a15e0",
    "tiny-vgg": "32ed1813a98b2cbe9d8941231daa0cf30cfe2e557b0a95b09fea26ecf31e8b01",
    "resnet56": "42f12761a6b7b5498f5242d72817a9ed1781c0d4fb9935927c879718a5078bc3",
    "tiny-resnet": "67a83f18727f52908b5326153c9150786a0f96186cde724fb29c64cf0334a7d3",
    "preresnet164": "367bec9c9223970f9b099bc63782654dca56b22c70861cd60294145bd6a96289",
}
# the same with gates, per accepted placement
GATED_MANIFEST = {
    ("vgg16", "pre-relu"): "97ca50c56c6b166242db453a7e128635f1297df572cfc013e4972dbcf7c6af68",
    ("vgg19", "pre-relu"): "b7ecb70a271558f24a56c6d9c5ef2387cefd7809cdcebf6bc104557621484a88",
    ("tiny-vgg", "pre-relu"): "7fb1297c13c5d8ea92f6ad07ca49d2dbc242eb0406f1bd3216d49fea3d90b52d",
    ("resnet56", "block-output"):
        "5efb7d990966f9958b252cf7877ee44c5623e7baa38d5824e7c480334beaa9bb",
    ("resnet56", "block-middle"):
        "c7e3b7d4dc13d1c918b71a111e05bd3278d26f59fc759f20e42074db1394a95f",
    ("tiny-resnet", "block-output"):
        "e43bf890e75c9ab43a9223a9ca899f4cff9c4be20fae0a3da4afba0a5086b12e",
    ("tiny-resnet", "block-middle"):
        "04172721a32b139233952a3828008e1b3d23caada78ec67f640a6eb20d2d3522",
    ("preresnet164", "middle"):
        "e72a781fa723c913bbb9a4a22d847e56d2cb30d335661066989df80cf7f8401b",
    ("preresnet164", "block-output"):
        "3fb3bbddc5502384cce88b2cdee4756e75e5686666c483971427550e7fbc0a03",
}


@pytest.mark.parametrize("arch,placement", sorted(GATED_MANIFEST))
def test_built_structure_is_pinned(arch, placement):
    """Gated and ungated manifests keep their digests; stripping a gated build gives the plain one."""
    plain = build(arch, 10, with_gates=False, gate_placement=placement, init=False)
    gated = build(arch, 10, with_gates=True, gate_placement=placement, init=False)
    assert content_hash(plain.to_manifest()) == PLAIN_MANIFEST[arch]
    assert content_hash(gated.to_manifest()) == GATED_MANIFEST[arch, placement]
    assert content_hash(strip_gates(gated).to_manifest()) == PLAIN_MANIFEST[arch]


# bundle_fingerprint of build(arch, 10, gated, placement, reduction=4, seed=3): the
# declared parameter names, shapes, draw order and init values of every kind the
# builders use; vgg16/vgg19 use tiny-vgg's kinds and are left out for time
INITIALIZED = {
    ("tiny-vgg", None): "a6e3e37aa927f9cc39b0c544dacfaf82167cb2d087cd9dcb629e910660c5905c",
    ("tiny-vgg", "pre-relu"): "f06ffda42c2ab0b2068e70eeb84d8227b69cd959934c1770466495a4e6efed55",
    ("tiny-resnet", None): "50799fb6769c2c947df0554b5eb4dce4abee0503a089086a26f12e283c982d78",
    ("tiny-resnet", "block-output"):
        "0b410ab0b7baa81995580acebb7b4e5e21118ba26725b00faa90bb34673c0a6b",
    ("tiny-resnet", "block-middle"):
        "c6ab0774b3b97cbc13b5fca1b5eafdacab7baa2c9e1a81a672d6141e65cc5223",
    ("resnet56", None): "e8d10b1fc6021f2805acf8298f3f7bcacfd3209bd30c2e517d25664c40528b04",
    ("resnet56", "block-output"):
        "286da4f8f45c0d776dfa0a8a46c9b3e9bee1ea8c81ab4d2715820ade225a990e",
    ("resnet56", "block-middle"):
        "520215464fcbe6c5476ba6851e67ca0f21ea7bdffe5b16f901133ff379d0f6bf",
    ("preresnet164", None): "362dc351cc191e0dd0d961182bb3adac025d035ea17e115139a09d272126ad86",
    ("preresnet164", "middle"):
        "551739c768fbb357e57eb9537d467892585dcfb3ffc14e06570798429a9c41be",
    ("preresnet164", "block-output"):
        "01e38a4d7fd352806326341c2bb98a3ad7a0fd9d68de3a67de55b28ff1b75bd7",
}


@pytest.mark.parametrize("arch,placement", list(INITIALIZED))
def test_initialized_parameters_are_pinned(arch, placement):
    g = build(arch, 10, placement is not None, placement, reduction=4, seed=3)
    assert bundle_fingerprint(ModelBundle(g)) == INITIALIZED[arch, placement]


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
