"""Whole-network gradient verification against central differences."""

import numpy as np
import pytest

from prunekit import ModelBundle, Network, build
from prunekit.builders import initialize_parameters
from prunekit.bundle import bundle_fingerprint
from prunekit.graph import ArchitectureGraph, LayerNode

from gradcheck import astype, grad_check


def fc_softmax_graph(classes=3):
    nodes = [
        LayerNode("gap", "globalavgpool"),
        LayerNode("fc", "fullyconnected", {"in_features": 5,
                                           "out_features": classes, "bias": True}),
        LayerNode("softmax", "softmax"),
    ]
    g = ArchitectureGraph(nodes, [("gap", "fc"), ("fc", "softmax")], (5, 1, 1))
    initialize_parameters(g, 3)
    return g


def two_conv_gated_graph():
    """Two convs with a gate in the path, then the classifier head."""
    nodes = [
        LayerNode("c1", "conv", {"in_channels": 2, "out_channels": 4,
                                 "kernel": (3, 3), "stride": 1, "padding": 1,
                                 "bias": True}),
        LayerNode("g1", "gate", {"channels": 4, "reduction": 2, "hidden": 2}),
        LayerNode("r1", "relu"),
        LayerNode("c2", "conv", {"in_channels": 4, "out_channels": 4,
                                 "kernel": (3, 3), "stride": 1, "padding": 1,
                                 "bias": True}),
        LayerNode("r2", "relu"),
        LayerNode("gap", "globalavgpool"),
        LayerNode("fc", "fullyconnected", {"in_features": 4, "out_features": 3,
                                           "bias": True}),
        LayerNode("softmax", "softmax"),
    ]
    edges = [("c1", "g1"), ("g1", "r1"), ("r1", "c2"), ("c2", "r2"),
             ("r2", "gap"), ("gap", "fc"), ("fc", "softmax")]
    g = ArchitectureGraph(nodes, edges, (2, 6, 6))
    initialize_parameters(g, 11)
    return g


def test_fc_softmax_head_exhaustive(rng):
    bundle = ModelBundle(fc_softmax_graph())
    x = rng.normal(size=(4, 5, 1, 1)).astype(np.float32)
    y = rng.integers(0, 3, size=4)
    report = grad_check(bundle, x, y, samples_per_tensor=None)
    assert report.ok
    assert report.max_rel_err < 1e-4
    assert report.checked == 5 * 3 + 3


def test_zero_input_zero_weight_conv_gradients_vanish(rng):
    g = two_conv_gated_graph()
    for node in g.nodes:
        for p in node.params:
            node.params[p][:] = 0
    bundle = ModelBundle(g)
    x = np.zeros((2, 2, 6, 6), dtype=np.float32)
    y = rng.integers(0, 3, size=2)

    from prunekit.network import GradTape
    from prunekit.trainer import data_loss_and_grad, _onehot
    net = astype(Network(g), np.float64)
    tape = GradTape()
    probs = net.forward(x.astype(np.float64), training=True, tape=tape)
    _, dp = data_loss_and_grad(probs, _onehot(y, 3, np.float64), "softmax-ce")
    net.backward(dp, tape)
    np.testing.assert_array_equal(tape.grads[("c1", "weight")], 0.0)
    np.testing.assert_array_equal(tape.grads[("c2", "weight")], 0.0)


def test_gated_two_conv_network_passes(rng):
    bundle = ModelBundle(two_conv_gated_graph())
    x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
    y = rng.integers(0, 3, size=2)
    report = grad_check(bundle, x, y, samples_per_tensor=6, weight_decay=1e-4)
    assert report.ok, report.failures[:3]
    assert report.max_rel_err < 1e-4
    assert ("g1/w1" in report.per_param) and ("g1/w2" in report.per_param)


def test_binary_ce_variant_also_checks(rng):
    bundle = ModelBundle(two_conv_gated_graph())
    x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
    y = rng.integers(0, 3, size=2)
    report = grad_check(bundle, x, y, samples_per_tensor=4, variant="binary-ce")
    assert report.ok
    assert report.max_rel_err < 1e-4


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nonfinite_output_names_offending_layer(rng):
    g = two_conv_gated_graph()
    g.node("c1").params["weight"][:] = np.inf
    bundle = ModelBundle(g)
    x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
    report = grad_check(bundle, x, np.array([0]))
    assert not report.ok
    names = [f[0] for f in report.failures if isinstance(f[1], str)]
    assert "c1" in names


def test_tiny_resnet_with_gates_passes(rng):
    bundle = ModelBundle(build("tiny-resnet", 3, with_gates=True,
                               reduction=4, seed=2))
    x = rng.normal(size=(2, 8, 16, 16)).astype(np.float32)
    y = rng.integers(0, 3, size=2)
    report = grad_check(bundle, x, y, samples_per_tensor=2)
    assert report.ok
    assert report.max_rel_err < 1e-4


def test_astype_copies_without_mutating_original():
    bundle = ModelBundle(build("tiny-vgg", 4, seed=0))
    net64 = astype(Network(bundle.graph), np.float64)
    assert net64.graph.node("conv1").params["weight"].dtype == np.float64
    assert bundle.graph.node("conv1").params["weight"].dtype == np.float32


def test_biased_conv_graph_is_pinned():
    """bundle_fingerprint of the one graph here with conv biases: pins their init at 0."""
    assert bundle_fingerprint(ModelBundle(two_conv_gated_graph())) == (
        "8373d4c525d20e14f92179f5b428e2e4ee466666bdd42399f16359ee9f053c59")
