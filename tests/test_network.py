"""Executor-level behavior: error naming, fan-out gradients, and how long
each activation lives."""

import weakref

import numpy as np
import pytest

from prunekit import GradTape, ModelBundle, Network, build, data, trainer
from prunekit.builders import initialize_parameters
from prunekit.errors import StructuralError
from prunekit.graph import ArchitectureGraph, LayerNode

from gradcheck import grad_check


def test_structural_error_names_offending_layer(rng):
    net = Network(build("tiny-vgg", 4, seed=0))
    bad = rng.normal(size=(1, 5, 16, 16)).astype(np.float32)
    with pytest.raises(StructuralError, match="5 channels, graph declares 8"):
        net.forward(bad)
    # mismatch deeper in the graph carries the layer id
    g = build("tiny-vgg", 4, seed=0)
    g.node("conv2").params["weight"] = g.node("conv2").params["weight"][:, :7]
    with pytest.raises(StructuralError, match="conv2"):
        Network(g).forward(rng.normal(size=(1, 8, 16, 16)).astype(np.float32))


def test_unknown_kind_names_the_layer(rng):
    g = build("tiny-vgg", 4, seed=0)
    g.node("relu2").kind = "mystery"
    with pytest.raises(StructuralError, match="layer 'relu2': unknown kind 'mystery'"):
        Network(g).forward(rng.normal(size=(1, 8, 16, 16)).astype(np.float32))


def test_upstream_gradient_shape_checked(rng):
    net = Network(build("tiny-vgg", 4, seed=0))
    x = rng.normal(size=(2, 8, 16, 16)).astype(np.float32)
    tape = GradTape()
    net.forward(x, tape=tape)
    with pytest.raises(StructuralError, match="gradient shape"):
        net.backward(np.ones((2, 7), dtype=np.float32), tape)


def test_residual_fanout_accumulates_both_branch_gradients(rng):
    """The block input feeds both the main path and the shortcut; its
    gradient must be the sum of both contributions.  The stem's output fans
    out, and a 3x3 stride-2 conv opens stages 2 and 3."""
    x = rng.normal(size=(2, 8, 16, 16))
    y = rng.integers(0, 3, size=2)
    report = grad_check(ModelBundle(build("tiny-resnet", 3, seed=1)), x, y)
    assert report.ok, report.failures
    assert {"stem.conv/weight", "s2.b1.conv1/weight", "s3.b1.conv1/weight"} <= set(report.per_param)


@pytest.mark.parametrize("arch", ["tiny-vgg", "tiny-resnet"])
def test_entry_conv_is_asked_for_parameter_gradients_only(arch, rng, monkeypatch):
    """The backward stops at the graph input and returns nothing: the entry
    conv alone skips its input gradient, and its weight and bias gradients
    are bitwise those of the full backward."""
    from prunekit import ops
    from prunekit.trainer import _onehot, data_loss_and_grad
    graph = build(arch, 4, with_gates=True, reduction=4, seed=2)
    (entry,) = [nid for nid in graph.topo_order() if not graph.topology.producers[nid]]
    conv = graph.node(entry)   # given a bias, so both its gradients are compared
    conv.attrs["bias"] = True
    conv.params["bias"] = rng.normal(size=conv.attrs["out_channels"]).astype(np.float32)
    net = Network(graph)
    x = rng.normal(size=(3, 8, 16, 16)).astype(np.float32)
    tape = GradTape()
    probs = net.forward(x, training=True, tape=tape)
    _, dprobs = data_loss_and_grad(probs, _onehot(np.arange(3) % 4, 4, probs.dtype),
                                   "softmax-ce")
    original, calls = ops.conv2d_backward, []

    def spy(dy, cache, input_grad=True):
        calls.append((dy, cache, input_grad))
        return original(dy, cache, input_grad)

    monkeypatch.setattr(ops, "conv2d_backward", spy)
    assert net.backward(dprobs, tape) is None
    skipped = [(dy, cache) for dy, cache, input_grad in calls if not input_grad]
    assert len(calls) == len(graph.nodes_of_kind("conv")) and len(skipped) == 1
    dy, cache = skipped[0]
    assert cache is tape.caches[entry]
    _, dw, db = original(dy, cache)
    assert tape.grads[(entry, "weight")].tobytes() == dw.tobytes()
    assert tape.grads[(entry, "bias")].tobytes() == db.tobytes()


def test_weight_parameters_exclude_bn_and_biases():
    g = build("tiny-vgg", 4, with_gates=True, reduction=4, seed=0)
    net = Network(g)
    kinds = {net.graph.node(nid).kind for nid, _, _ in net.weight_parameters()}
    assert kinds == {"conv", "fullyconnected", "gate"}
    names = {p for _, p, _ in net.weight_parameters()}
    assert "bias" not in names and "gamma" not in names


def test_eval_forward_does_not_touch_running_stats(rng):
    g = build("tiny-vgg", 4, seed=0)
    net = Network(g)
    before = g.node("bn1").params["running_mean"].copy()
    net.forward(rng.normal(size=(2, 8, 16, 16)).astype(np.float32), training=False)
    np.testing.assert_array_equal(g.node("bn1").params["running_mean"], before)
    net.forward(rng.normal(size=(2, 8, 16, 16)).astype(np.float32), training=True)
    assert np.abs(g.node("bn1").params["running_mean"] - before).max() > 0


def _arrays(obj):
    """Every array reachable from a cache, with the arrays they view."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj, np.ndarray):
            yield obj
            obj = obj.base
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


def test_walk_drops_each_output_after_its_last_consumer(rng):
    g = build("tiny-resnet", 3, with_gates=True, reduction=4, seed=1)
    order = g.topo_order()
    position = {nid: k for k, nid in enumerate(order)}
    last_read = {s: max(position[d] for s2, d in g.edges if s2 == s) for s, _ in g.edges}
    x = rng.normal(size=(2, 8, 16, 16)).astype(np.float32)
    refs = {}
    for k, (node, y, _cache) in enumerate(Network(g).walk(x, training=True)):
        assert node.id == order[k]
        refs[node.id] = weakref.ref(y)
        done = [nid for nid, last in last_read.items() if last < k]
        assert [nid for nid in done if refs[nid]() is not None] == []
    assert len(done) > len(order) // 2     # most outputs die well before the sink


def test_training_tape_holds_only_what_a_cache_references(rng):
    for arch in ("tiny-resnet", "tiny-vgg"):   # tiny-vgg has max-pools
        g = build(arch, 3, with_gates=True, reduction=4, seed=1)
        net = Network(g)
        refs, shapes = {}, {}
        walk = net.walk

        def spy(x, training=False):
            for node, y, cache in walk(x, training):
                refs[node.id] = weakref.ref(y)
                shapes[node.id] = y.shape
                yield node, y, cache

        net.walk = spy
        tape = GradTape()
        probs = net.forward(rng.normal(size=(2, 8, 16, 16)).astype(np.float32),
                            training=True, tape=tape)
        assert list(refs) == tape.order
        held = {id(a) for a in _arrays(list(tape.caches.values()))}
        alive = {nid: ref() for nid, ref in refs.items() if ref() is not None}
        assert [nid for nid, y in alive.items() if id(y) not in held] == []
        bn_inputs = [s for s, d in g.edges if g.node(d).kind == "batchnorm"
                     and g.node(s).kind == "conv"]
        assert bn_inputs and all(refs[nid]() is None for nid in bn_inputs)
        # a relu keeps its output, not a mask: only max-pool routes are boolean
        relus = [n.id for n in g.nodes_of_kind("relu")]
        assert relus and all(tape.caches[nid] is refs[nid]() for nid in relus)
        masked = {nid for nid, cache in tape.caches.items()
                  if any(a.dtype == bool for a in _arrays(cache))}
        assert masked == {n.id for n in g.nodes_of_kind("maxpool")}
        # the tape's outputs are shapes, enough for backward's checks
        assert tape.outputs == shapes
        assert shapes[tape.order[-1]] == probs.shape + (1, 1)


def test_training_tape_keeps_no_conv_patches(rng, traced_peak):
    """Gated resnet56, batch 2: a training forward with a tape peaks under
    16 MiB traced.  A conv's patch matrix is about 9x its input; keeping one
    per conv took this to 37 MiB."""
    net = Network(build("resnet56", 10, with_gates=True, seed=0))
    x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
    tape = GradTape()
    peak, _ = traced_peak(lambda: net.forward(x, training=True, tape=tape))
    assert peak < 16 * 2**20


def test_a_node_may_read_one_producer_twice(rng):
    nodes = [LayerNode("c", "conv", {"in_channels": 2, "out_channels": 3, "kernel": (3, 3),
                                     "stride": 1, "padding": 1, "bias": False}),
             LayerNode("sum", "add"), LayerNode("gap", "globalavgpool"),
             LayerNode("fc", "fullyconnected", {"in_features": 3, "out_features": 2,
                                                 "bias": True}),
             LayerNode("softmax", "softmax")]
    edges = [("c", "sum"), ("c", "sum"), ("sum", "gap"), ("gap", "fc"), ("fc", "softmax")]
    g = ArchitectureGraph(nodes, edges, (2, 4, 4))
    initialize_parameters(g, seed=0)
    assert g.validate() == []
    outputs = {node.id: y for node, y, _ in Network(g).walk(rng.normal(size=(1, 2, 4, 4)))}
    np.testing.assert_array_equal(outputs["sum"], 2 * outputs["c"])


def _conv3(nid, cin, cout):
    return LayerNode(nid, "conv", {"in_channels": cin, "out_channels": cout, "kernel": (3, 3),
                                   "stride": 1, "padding": 1, "bias": False})


def _head(channels):
    return [LayerNode("gap", "globalavgpool"),
            LayerNode("fc", "fullyconnected", {"in_features": channels, "out_features": 2,
                                                "bias": True}),
            LayerNode("softmax", "softmax")]


def test_a_node_feeding_two_adds_gets_each_gradient_once(rng):
    """``a`` feeds ``b``, ``add1`` and ``add2``; an add hands both inputs one
    upstream gradient, which must reach ``a`` as two summands, not be added
    into in place."""
    nodes = [_conv3("e", 2, 3), LayerNode("a", "relu"), _conv3("b", 3, 3),
             LayerNode("add1", "add"), LayerNode("add2", "add"), LayerNode("r", "relu"),
             *_head(3)]
    edges = [("e", "a"), ("a", "b"), ("a", "add1"), ("b", "add1"), ("add1", "add2"),
             ("a", "add2"), ("add2", "r"), ("r", "gap"), ("gap", "fc"), ("fc", "softmax")]
    g = ArchitectureGraph(nodes, edges, (2, 4, 4))
    initialize_parameters(g, seed=0)
    assert g.validate() == []
    report = grad_check(ModelBundle(g), rng.normal(size=(2, 2, 4, 4)), np.array([0, 1]),
                        samples_per_tensor=None)
    assert report.ok, report.failures[:3]
    assert {"e/weight", "b/weight"} <= set(report.per_param)


def test_an_add_may_feed_global_pooling_in_training(rng):
    """Global pooling's input gradient is a read-only broadcast; an add passes it
    to both its inputs, and ``c1``, which also feeds ``c2``, sums into it."""
    nodes = [_conv3("c1", 2, 3), _conv3("c2", 3, 3), LayerNode("sum", "add"), *_head(3)]
    edges = [("c1", "c2"), ("c1", "sum"), ("c2", "sum"), ("sum", "gap"), ("gap", "fc"),
             ("fc", "softmax")]
    g = ArchitectureGraph(nodes, edges, (2, 4, 4))
    initialize_parameters(g, seed=0)
    train = data.Dataset(rng.normal(size=(4, 2, 4, 4)).astype(np.float32),
                         np.array([0, 1, 0, 1]), 2)
    _, history = trainer.train(ModelBundle(g), train, None,
                               trainer.TrainConfig(epochs=1, batch_size=2))
    assert np.isfinite(history[-1]["train_loss"])
