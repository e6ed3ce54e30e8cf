"""Layer kinds: every rule that depends on a node's kind, in one table.

An entry of :data:`LAYERS` says, for one kind, how a node runs forward and
backward, what shape it outputs, which widths it must agree with, what it
costs, how pruning narrows its widths and slices its parameters, and which
parameters it has.  That last rule, ``param_shapes``, is the one statement
of a kind's parameters: the parameter count, the initialization, the shape
check of graph validation, the tensor check of a bundle save and of a
network (:func:`tensor_mismatch`), the tensor layout of a bundle's blob and
the names of ``backward``'s parameter gradients all derive from it.
``attrs``, ``{name: type}``, is the one statement of a kind's attributes, all
required: :func:`checked_attrs` holds built graphs and loaded manifests to
it and to :data:`ATTR_MINIMUM`, so no rule reads a default or divides by a
zero stride.  The executor, graph, accounting, rewriter, bundle and
builders look rules up here rather than branching on the kind themselves,
so a new kind touches this file only.

Rules call ``ops`` and ``gate`` through the module attribute at call time,
so a wrapper installed on those functions (a profiler, say) sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import gate, ops
from .errors import PlanError, StructuralError
from .records import _plain, decode


@dataclass(frozen=True)
class LayerKind:
    """The rules of one layer kind; a field left out takes the default shown.

    ``in_shapes`` and ``in_keeps`` hold one entry per producer, in edge
    order; an entry node receives the graph input and keeps every channel.
    A keep set is an index array of surviving channels, or None for all;
    ``narrow`` runs only on nodes with at least one keep set; it sets the
    node's widths and touches no parameter.  ``param_keeps`` says, for each
    axis of each parameter, which keep set indexes it when the rewriter
    gathers a compact tensor: ``"in"`` or ``"out"``, the node's input or
    output keep set; ``"lead"``, the leading entries, as many as the
    narrowed shape has (a gate's hidden units); ``"all"``, the whole axis.
    ``backward``'s ``input_grad`` is False for an entry node, whose input
    gradient no one reads; a rule may then skip that work and return None
    in its place, as conv does.
    ``keeps_input`` says that the kind's training cache references its input
    array, so that array lives on the tape anyway.  ``lean_forward``, if
    set, is the training forward the executor runs for a node whose output
    no consumer keeps: its cache stands in for the output in fewer bytes,
    as a ReLU's 1-byte mask does.
    ``param_shapes`` lists every parameter in draw order.  ``trainable``
    names those counted and updated (the rest are running statistics);
    ``weights`` are drawn from the fan-in Gaussian and ``ones`` start at 1,
    every other parameter at 0.
    """
    forward: Callable    # (node, inputs, training) -> (y, cache)
    backward: Callable   # (dy, cache, input_grad) -> (*input grads, *trainable grads or None)
    opcount: Callable    # (attrs, in_shape, out_shape) -> FLOPs, convention "opcount"
    macs: Callable = lambda attrs, in_shape, out_shape: 0
    param_shapes: Callable = lambda attrs: {}               # {name: shape}
    out_shape: Callable = lambda node, in_shapes: in_shapes[0]
    check: Callable = lambda node, in_shapes: ()           # yields violation messages
    out_keep: Callable = lambda node, in_keeps, planned: in_keeps[0]
    narrow: Callable = lambda node, in_keep, out_keep: None  # sets widths in place
    param_keeps: dict = field(default_factory=dict)   # {name: keep role per axis}
    trainable: tuple[str, ...] = ()
    weights: tuple[str, ...] = ()           # operands of the L2 penalty
    ones: tuple[str, ...] = ()
    arity: int = 1
    keeps_input: bool = False
    lean_forward: Callable | None = None   # as ``forward``; see above
    attrs: dict = field(default_factory=dict)   # {name: type}, every one required


def _elems(shape) -> int:
    c, h, w = shape
    return c * h * w


def _declared_channels(node, in_shapes):
    c, declared = in_shapes[0][0], node.attrs["channels"]
    if declared != c:
        yield f"{node.kind} '{node.id}': declares {declared} channels but receives {c}"


def _bn_check(node, in_shapes):
    yield from _declared_channels(node, in_shapes)
    eps, momentum, where = node.attrs["eps"], node.attrs["momentum"], f"layer '{node.id}'"
    if not eps > 0:
        yield f"{where}: batchnorm attribute 'eps' must be positive, got {eps}"
    if not 0 <= momentum <= 1:
        yield f"{where}: batchnorm attribute 'momentum' must be in [0, 1], got {momentum}"


def _weight_bias(weight_shape, bias):
    """A weight and, when ``bias`` is set, one bias per output unit."""
    return {"weight": weight_shape, **({"bias": weight_shape[:1]} if bias else {})}


def _conv_shape(node, in_shapes):
    a = node.attrs
    _, h, w = in_shapes[0]
    (kh, kw), s, p = a["kernel"], a["stride"], a["padding"]
    return (a["out_channels"], ops.conv_output_size(h, kh, s, p),
            ops.conv_output_size(w, kw, s, p))


def _conv_check(node, in_shapes):
    a, c = node.attrs, in_shapes[0][0]
    if a["in_channels"] != c:
        yield (f"conv '{node.id}': declares {a['in_channels']} input "
               f"channels but receives {c}")


def _conv_macs(a, in_shape, out_shape):
    return _elems(out_shape) * a["kernel"][0] * a["kernel"][1] * a["in_channels"]


def _conv_narrow(node, in_keep, out_keep):
    if out_keep is not None:
        node.attrs["out_channels"] = len(out_keep)
    if in_keep is not None:
        node.attrs["in_channels"] = len(in_keep)


def _pool_shape(node, in_shapes):
    c, h, w = in_shapes[0]
    k, s = node.attrs["kernel"], node.attrs["stride"]
    return (c, ops.conv_output_size(h, k, s, 0), ops.conv_output_size(w, k, s, 0))


def _pool_check(node, in_shapes):
    k, s = node.attrs["kernel"], node.attrs["stride"]
    if k != s:
        yield (f"maxpool '{node.id}': kernel {k} != stride {s}; "
               "only non-overlapping windows are supported")


def _bn_forward(node, inputs, training):
    p = node.params
    y, cache, new_mean, new_var = ops.batchnorm_forward(
        inputs[0], p["gamma"], p["beta"], p["running_mean"], p["running_var"],
        node.attrs["eps"], node.attrs["momentum"], training)
    if training:
        p["running_mean"] = new_mean.astype(p["running_mean"].dtype, copy=False)
        p["running_var"] = new_var.astype(p["running_var"].dtype, copy=False)
    return y, cache


def _bn_narrow(node, in_keep, out_keep):
    node.attrs["channels"] = len(in_keep)


def _gate_check(node, in_shapes):
    a = node.attrs
    hid = gate.hidden_width(a["channels"], a["reduction"])
    yield from _declared_channels(node, in_shapes)
    if a["hidden"] != hid:
        yield f"gate '{node.id}': hidden width {a['hidden']} != max(1, C // r) = {hid}"


def _gate_narrow(node, in_keep, out_keep):
    node.attrs["channels"] = len(in_keep)
    node.attrs["hidden"] = gate.hidden_width(len(in_keep), node.attrs["reduction"])


def _fc_check(node, in_shapes):
    c, h, w = in_shapes[0]
    f = node.attrs["in_features"]
    if (c, h, w) != (f, 1, 1):
        yield f"fullyconnected '{node.id}': expects ({f},1,1) input, receives ({c},{h},{w})"


def _fc_narrow(node, in_keep, out_keep):
    node.attrs["in_features"] = len(in_keep)


def _add_forward(node, inputs, training):
    a, b = inputs
    if a.shape != b.shape:
        raise StructuralError(f"shapes {a.shape} vs {b.shape}")
    return a + b, None


def _add_check(node, in_shapes):
    if len(in_shapes) == 2 and in_shapes[0] != in_shapes[1]:
        yield f"add '{node.id}': input shapes differ {in_shapes[0]} vs {in_shapes[1]}"


def _add_keep(node, in_keeps, planned):
    a, b = in_keeps
    if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
        raise PlanError(f"add node '{node.id}': branches arrive with different kept sets")
    return a


LAYERS: dict[str, LayerKind] = {
    "conv": LayerKind(
        forward=lambda node, xs, training: ops.conv2d_forward(
            xs[0], node.params["weight"], node.params.get("bias"),
            node.attrs["stride"], node.attrs["padding"]),
        backward=lambda dy, cache, input_grad: ops.conv2d_backward(dy, cache, input_grad),
        macs=_conv_macs,
        opcount=lambda a, i, o: 2 * _conv_macs(a, i, o) + (_elems(o) if a["bias"] else 0),
        param_shapes=lambda a: _weight_bias(
            (a["out_channels"], a["in_channels"], *a["kernel"]), a["bias"]),
        out_shape=_conv_shape, check=_conv_check, narrow=_conv_narrow,
        param_keeps={"weight": ("out", "in", "all", "all"), "bias": ("out",)},
        out_keep=lambda node, in_keeps, planned: planned,
        trainable=("weight", "bias"), weights=("weight",), keeps_input=True,
        attrs={"in_channels": int, "out_channels": int, "kernel": tuple[int, int],
               "stride": int, "padding": int, "bias": bool}),
    "batchnorm": LayerKind(
        forward=_bn_forward,
        backward=lambda dy, cache, _: ops.batchnorm_backward(dy, cache),
        opcount=lambda a, i, o: 2 * _elems(o),
        param_shapes=lambda a: dict.fromkeys(
            ("gamma", "beta", "running_mean", "running_var"), (a["channels"],)),
        check=_bn_check, narrow=_bn_narrow,
        param_keeps=dict.fromkeys(("gamma", "beta", "running_mean", "running_var"), ("in",)),
        trainable=("gamma", "beta"), ones=("gamma", "running_var"),
        attrs={"channels": int, "eps": float, "momentum": float}),
    "relu": LayerKind(
        forward=lambda node, xs, training: ops.relu_forward(xs[0]),
        lean_forward=lambda node, xs, training: ops.relu_forward(xs[0], mask=True),
        backward=lambda dy, cache, _: (ops.relu_backward(dy, cache),),
        opcount=lambda a, i, o: _elems(o)),
    "maxpool": LayerKind(
        forward=lambda node, xs, training: ops.maxpool_forward(
            xs[0], node.attrs["kernel"], node.attrs["stride"]),
        backward=lambda dy, cache, _: (ops.maxpool_backward(dy, cache),),
        opcount=lambda a, i, o: _elems(o) * (a["kernel"] * a["kernel"] - 1),
        out_shape=_pool_shape, check=_pool_check, attrs={"kernel": int, "stride": int}),
    "globalavgpool": LayerKind(
        forward=lambda node, xs, training: ops.global_avg_pool_forward(xs[0]),
        backward=lambda dy, cache, _: (ops.global_avg_pool_backward(dy, cache),),
        opcount=lambda a, i, o: _elems(i) + o[0],
        out_shape=lambda node, in_shapes: (in_shapes[0][0], 1, 1)),
    "fullyconnected": LayerKind(
        forward=lambda node, xs, training: ops.linear_forward(
            xs[0], node.params["weight"], node.params.get("bias")),
        backward=lambda dy, cache, _: ops.linear_backward(dy, cache),
        macs=lambda a, i, o: a["in_features"] * a["out_features"],
        opcount=lambda a, i, o: (2 * a["in_features"] * a["out_features"]
                                 + (a["out_features"] if a["bias"] else 0)),
        param_shapes=lambda a: _weight_bias(
            (a["out_features"], a["in_features"]), a["bias"]),
        out_shape=lambda node, in_shapes: (node.attrs["out_features"], 1, 1),
        check=_fc_check, narrow=_fc_narrow,
        param_keeps={"weight": ("all", "in"), "bias": ("all",)},
        out_keep=lambda node, in_keeps, planned: None,
        trainable=("weight", "bias"), weights=("weight",), keeps_input=True,
        attrs={"in_features": int, "out_features": int, "bias": bool}),
    "gate": LayerKind(
        forward=lambda node, xs, training: gate.gate_forward(
            xs[0], node.params["w1"], node.params["w2"]),
        backward=lambda dy, cache, _: gate.gate_backward(dy, cache),
        opcount=lambda a, i, o: (2 * _elems(i) + 2 * 2 * a["channels"] * a["hidden"]
                                 + a["channels"]),
        param_shapes=lambda a: {"w1": (a["hidden"], a["channels"]),
                                "w2": (a["channels"], a["hidden"])},
        check=_gate_check, narrow=_gate_narrow,
        param_keeps={"w1": ("lead", "in"), "w2": ("in", "lead")},
        trainable=("w1", "w2"), weights=("w1", "w2"), keeps_input=True,
        attrs={"channels": int, "reduction": int, "hidden": int}),
    "add": LayerKind(
        forward=_add_forward, backward=lambda dy, cache, _: (dy, dy),
        opcount=lambda a, i, o: _elems(o), check=_add_check, out_keep=_add_keep, arity=2),
    "softmax": LayerKind(
        forward=lambda node, xs, training: ops.softmax_forward(xs[0]),
        backward=lambda dy, cache, _: (ops.softmax_backward(dy, cache),),
        opcount=lambda a, i, o: 3 * _elems(o)),
}


def kind_of(node) -> LayerKind:
    """The rules for a node's kind; an unknown kind is an error naming the layer."""
    try:
        return LAYERS[node.kind]
    except KeyError:
        raise StructuralError(f"layer '{node.id}': unknown kind '{node.kind}'") from None


def tensor_mismatch(node) -> str | None:
    """Why ``node``'s tensors are not exactly the names and shapes its kind declares, or None."""
    declared = kind_of(node).param_shapes(node.attrs)
    for pname in sorted(declared.keys() | node.params.keys()):
        want = declared.get(pname)
        have = node.params[pname].shape if pname in node.params else None
        if have != want:
            return f"tensor '{node.id}/{pname}': " + (
                f"missing, {node.kind} declares shape {want}" if have is None else
                f"not a parameter of {node.kind}" if want is None else
                f"shape {have} != declared {want}")
    return None


# the least value of an attribute, whichever kind declares it; per axis for a kernel
ATTR_MINIMUM = {"kernel": 1, "stride": 1, "padding": 0, "reduction": 1, "in_channels": 1,
                "out_channels": 1, "channels": 1, "hidden": 1, "in_features": 1,
                "out_features": 1}

# per kind, the (name, least value) of each attribute it declares, in ATTR_MINIMUM order
_MINIMA = {kind: tuple((name, least) for name, least in ATTR_MINIMUM.items()
                       if name in rules.attrs) for kind, rules in LAYERS.items()}


def checked_attrs(node) -> dict:
    """``node.attrs`` decoded against its kind's ``attrs`` by ``records.decode``.

    A missing, extra or mistyped attribute, or one below its :data:`ATTR_MINIMUM`,
    raises StructuralError naming the layer.  A value that decodes to itself
    is taken as it is, so the error path is formatted only for the others.
    """
    declared = kind_of(node).attrs
    if node.attrs.keys() != declared.keys():
        where = _where(node)
        for name in declared:
            if name not in node.attrs:
                raise StructuralError(f"{where} lacks attribute '{name}'")
        for name in node.attrs:
            if name not in declared:
                raise StructuralError(f"{where} has no attribute '{name}'")
    attrs = {}
    for name, hint in declared.items():
        value = node.attrs[name]
        if not _plain(hint, value):
            try:
                value = decode(hint, value, f"{_where(node)} attribute '{name}'")
            except ValueError as exc:
                raise StructuralError(str(exc)) from None
        attrs[name] = value
    for name, least in _MINIMA[node.kind]:
        value = attrs[name]
        if (min(value) if isinstance(value, tuple) else value) < least:
            raise StructuralError(
                f"{_where(node)} attribute '{name}' must be at least {least}, got {value}")
    return attrs


def _where(node) -> str:
    return f"layer '{node.id}': {node.kind}"
