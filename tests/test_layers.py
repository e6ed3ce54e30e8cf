"""The layer-kind table: each kind's parameter declaration and backward contract."""

import numpy as np
import pytest

from prunekit.builders import initialize_parameters
from prunekit.graph import ArchitectureGraph, LayerNode
from prunekit.layers import LAYERS, checked_attrs

# tiny attrs and per-sample input shape for one node of each kind
TINY = {
    "conv": ({"in_channels": 2, "out_channels": 3, "kernel": (3, 3), "stride": 1,
              "padding": 1, "bias": True}, (2, 4, 4)),
    "batchnorm": ({"channels": 2, "eps": 1e-5, "momentum": 0.1}, (2, 4, 4)),
    "relu": ({}, (2, 4, 4)),
    "maxpool": ({"kernel": 2, "stride": 2}, (2, 4, 4)),
    "globalavgpool": ({}, (2, 4, 4)),
    "fullyconnected": ({"in_features": 2, "out_features": 3, "bias": True}, (2, 1, 1)),
    "gate": ({"channels": 4, "reduction": 2, "hidden": 2}, (4, 3, 3)),
    "add": ({}, (2, 4, 4)),
    "softmax": ({}, (3, 1, 1)),
}


def test_every_kind_has_a_tiny_case():
    assert set(TINY) == set(LAYERS)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tiny_attributes_are_exactly_the_declared_ones(kind):
    attrs = TINY[kind][0]
    assert list(attrs) == list(LAYERS[kind].attrs)
    assert checked_attrs(LayerNode("n", kind, dict(attrs))) == attrs


@pytest.mark.parametrize("kind", sorted(TINY))
def test_named_parameters_are_declared(kind):
    rules, (attrs, _) = LAYERS[kind], TINY[kind]
    declared = set(rules.param_shapes(attrs))
    assert set(rules.weights) <= declared
    assert set(rules.ones) <= declared
    assert set(rules.trainable) <= declared


@pytest.mark.parametrize("kind", sorted(TINY))
def test_backward_returns_input_then_trainable_grads(kind, rng):
    rules, (attrs, in_shape) = LAYERS[kind], TINY[kind]
    node = LayerNode("n", kind, dict(attrs))
    initialize_parameters(ArchitectureGraph([node], [], in_shape), 0, np.float64)
    assert {k: v.shape for k, v in node.params.items()} == rules.param_shapes(attrs)
    x = rng.normal(size=(2, *in_shape))
    y, cache = rules.forward(node, [x] * rules.arity, True)
    grads = rules.backward(rng.normal(size=y.shape), cache, True)
    assert len(grads) == rules.arity + len(rules.trainable)
    for dx in grads[:rules.arity]:
        assert dx.shape == x.shape
    declared = rules.param_shapes(attrs)
    for name, grad in zip(rules.trainable, grads[rules.arity:]):
        if grad is not None:
            assert grad.shape == declared[name]


@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_parameter_axis_has_a_keep_role(kind):
    """The rewriter gathers a compact tensor axis by axis, so a kind with
    parameters cannot be rewritten without a role for each axis."""
    rules, (attrs, _) = LAYERS[kind], TINY[kind]
    shapes = rules.param_shapes(attrs)
    assert set(rules.param_keeps) == set(shapes)
    for name, shape in shapes.items():
        roles = rules.param_keeps[name]
        assert len(roles) == len(shape), name
        assert set(roles) <= {"in", "out", "lead", "all"}, name
