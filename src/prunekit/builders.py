"""Constructors for the supported CNN families.

Four full-size architectures (vgg16, vgg19, resnet56, preresnet164) plus two
desk-scale variants (tiny-vgg, tiny-resnet) that keep every structural idiom
of their big siblings but train on a CPU in minutes.

Channel gates are optional and their position is a policy:

* VGG:          conv -> batchnorm -> gate -> relu
* basic block:  ``block-output`` puts the gate right after the second conv
                (scores the block's output channels, used for stage-uniform
                planning); ``block-middle`` puts it after the first conv,
                before its batchnorm (scores the intermediate channels).
* bottleneck:   ``middle`` (default) gates the middle 3x3 conv's output;
                ``block-output`` gates the third conv's output.

Convolutions carry a bias only when no batchnorm follows them; pre-activation
bottleneck convs are bias-free throughout, matching the usual design.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphValidationError
from .gate import hidden_width
from .graph import ArchitectureGraph, BlockInfo, LayerNode, StageInfo
from .layers import kind_of

VGG_PLANS = {
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
              512, 512, 512, "M", 512, 512, 512, "M"],
    "vgg19": [64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
              512, 512, 512, 512, "M", 512, 512, 512, 512, "M"],
    "tiny-vgg": [16, 16, "M", 32, 32, "M"],
}

RESNET_PLANS = {
    # (stage widths, blocks per stage)
    "resnet56": ((16, 32, 64), 9),
    "tiny-resnet": ((8, 16, 32), 2),
}

PRERESNET_PLANS = {
    # (bottleneck widths, expansion, blocks per stage)
    "preresnet164": ((16, 32, 64), 4, 18),
}

ARCHITECTURES = tuple(VGG_PLANS) + tuple(RESNET_PLANS) + tuple(PRERESNET_PLANS)

_DEFAULT_INPUT = {
    "vgg16": (3, 32, 32), "vgg19": (3, 32, 32),
    "resnet56": (3, 32, 32), "preresnet164": (3, 32, 32),
    "tiny-vgg": (8, 16, 16), "tiny-resnet": (8, 16, 16),
}

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def _conv(nid, cin, cout, kernel=3, stride=1, padding=1, bias=False):
    return LayerNode(nid, "conv", {
        "in_channels": cin, "out_channels": cout, "kernel": (kernel, kernel),
        "stride": stride, "padding": padding, "bias": bias})


def _bn(nid, channels):
    return LayerNode(nid, "batchnorm", {
        "channels": channels, "eps": BN_EPS, "momentum": BN_MOMENTUM})


def _gate(nid, channels, reduction):
    return LayerNode(nid, "gate", {
        "channels": channels, "reduction": reduction,
        "hidden": hidden_width(channels, reduction)})


def _head(nodes, edges, prev, features, num_classes):
    nodes.append(LayerNode("gap", "globalavgpool"))
    nodes.append(LayerNode("fc", "fullyconnected",
                           {"in_features": features, "out_features": num_classes,
                            "bias": True}))
    nodes.append(LayerNode("softmax", "softmax"))
    edges += [(prev, "gap"), ("gap", "fc"), ("fc", "softmax")]


def _chain(edges, ids):
    edges += [(a, b) for a, b in zip(ids, ids[1:])]


# ---------------------------------------------------------------------------
# VGG family

def _build_vgg(arch, num_classes, with_gates, placement, reduction, input_shape):
    if placement not in (None, "pre-relu"):
        raise ValueError(f"{arch}: unsupported gate placement '{placement}'")
    plan = VGG_PLANS[arch]
    nodes, edges = [], []
    cin = input_shape[0]
    prev = None
    ci = pi = 0
    for item in plan:
        if item == "M":
            pi += 1
            nodes.append(LayerNode(f"pool{pi}", "maxpool", {"kernel": 2, "stride": 2}))
            edges.append((prev, f"pool{pi}"))
            prev = f"pool{pi}"
            continue
        ci += 1
        seq = [f"conv{ci}", f"bn{ci}"]
        nodes.append(_conv(f"conv{ci}", cin, item))
        nodes.append(_bn(f"bn{ci}", item))
        if with_gates:
            nodes.append(_gate(f"gate{ci}", item, reduction))
            seq.append(f"gate{ci}")
        nodes.append(LayerNode(f"relu{ci}", "relu"))
        seq.append(f"relu{ci}")
        if prev is not None:
            edges.append((prev, seq[0]))
        _chain(edges, seq)
        prev = seq[-1]
        cin = item
    _head(nodes, edges, prev, cin, num_classes)
    return ArchitectureGraph(nodes, edges, input_shape, arch=arch)


# ---------------------------------------------------------------------------
# basic-block ResNet family

def _basic_block(nodes, edges, name, cin, width, stride, with_gates, placement,
                 reduction, stage_idx, prev):
    seq = []

    def add(node):
        nodes.append(node)
        seq.append(node.id)

    add(_conv(f"{name}.conv1", cin, width, stride=stride))
    gate_id = None
    if with_gates and placement == "block-middle":
        gate_id = f"{name}.gate"
        add(_gate(gate_id, width, reduction))
    add(_bn(f"{name}.bn1", width))
    add(LayerNode(f"{name}.relu1", "relu"))
    add(_conv(f"{name}.conv2", width, width))
    if with_gates and placement == "block-output":
        gate_id = f"{name}.gate"
        add(_gate(gate_id, width, reduction))
    add(_bn(f"{name}.bn2", width))
    edges.append((prev, seq[0]))
    _chain(edges, seq)

    shortcut_conv = None
    if cin != width or stride != 1:
        shortcut_conv = f"{name}.down.conv"
        nodes.append(_conv(shortcut_conv, cin, width, kernel=1, stride=stride, padding=0))
        nodes.append(_bn(f"{name}.down.bn", width))
        edges += [(prev, shortcut_conv), (shortcut_conv, f"{name}.down.bn")]
        shortcut_out = f"{name}.down.bn"
    else:
        shortcut_out = prev

    nodes.append(LayerNode(f"{name}.add", "add"))
    nodes.append(LayerNode(f"{name}.relu2", "relu"))
    edges += [(seq[-1], f"{name}.add"), (shortcut_out, f"{name}.add"),
              (f"{name}.add", f"{name}.relu2")]

    member_ids = seq + ([shortcut_conv, f"{name}.down.bn"] if shortcut_conv else [])
    member_ids += [f"{name}.add", f"{name}.relu2"]
    info = BlockInfo(name, "basic", stage_idx, member_ids,
                     first_conv=f"{name}.conv1", middle_conv=None,
                     last_conv=f"{name}.conv2", shortcut_conv=shortcut_conv,
                     gate_id=gate_id)
    return f"{name}.relu2", info


def _build_resnet(arch, num_classes, with_gates, placement, reduction, input_shape):
    placement = placement or "block-output"
    if placement not in ("block-output", "block-middle"):
        raise ValueError(f"{arch}: unsupported gate placement '{placement}'")
    widths, blocks_per_stage = RESNET_PLANS[arch]
    nodes, edges, blocks, stages = [], [], [], []

    nodes += [_conv("stem.conv", input_shape[0], widths[0]),
              _bn("stem.bn", widths[0]),
              LayerNode("stem.relu", "relu")]
    _chain(edges, ["stem.conv", "stem.bn", "stem.relu"])
    prev, cin = "stem.relu", widths[0]

    for si, width in enumerate(widths, start=1):
        block_ids = []
        for bi in range(1, blocks_per_stage + 1):
            stride = 2 if (si > 1 and bi == 1) else 1
            prev, info = _basic_block(nodes, edges, f"s{si}.b{bi}", cin, width, stride,
                                      with_gates, placement, reduction, si, prev)
            blocks.append(info)
            block_ids.append(info.id)
            cin = width
        stages.append(StageInfo(si, width, block_ids))

    _head(nodes, edges, prev, cin, num_classes)
    return ArchitectureGraph(nodes, edges, input_shape, blocks, stages, arch=arch)


# ---------------------------------------------------------------------------
# pre-activation bottleneck family

def _preact_bottleneck(nodes, edges, name, cin, width, cout, stride, with_gates,
                       placement, reduction, stage_idx, prev):
    seq = []

    def add(node):
        nodes.append(node)
        seq.append(node.id)

    add(_bn(f"{name}.bn1", cin))
    add(LayerNode(f"{name}.relu1", "relu"))
    add(_conv(f"{name}.conv1", cin, width, kernel=1, padding=0))
    add(_bn(f"{name}.bn2", width))
    add(LayerNode(f"{name}.relu2", "relu"))
    add(_conv(f"{name}.conv2", width, width, stride=stride))
    gate_id = None
    if with_gates and placement == "middle":
        gate_id = f"{name}.gate"
        add(_gate(gate_id, width, reduction))
    add(_bn(f"{name}.bn3", width))
    add(LayerNode(f"{name}.relu3", "relu"))
    add(_conv(f"{name}.conv3", width, cout, kernel=1, padding=0))
    if with_gates and placement == "block-output":
        gate_id = f"{name}.gate"
        add(_gate(gate_id, cout, reduction))
    edges.append((prev, seq[0]))
    _chain(edges, seq)

    shortcut_conv = None
    if cin != cout or stride != 1:
        # downsample consumes the pre-activated tensor, shared with conv1
        shortcut_conv = f"{name}.down.conv"
        nodes.append(_conv(shortcut_conv, cin, cout, kernel=1, stride=stride, padding=0))
        edges.append((f"{name}.relu1", shortcut_conv))
        shortcut_out = shortcut_conv
    else:
        shortcut_out = prev

    nodes.append(LayerNode(f"{name}.add", "add"))
    edges += [(seq[-1], f"{name}.add"), (shortcut_out, f"{name}.add")]

    member_ids = seq + ([shortcut_conv] if shortcut_conv else []) + [f"{name}.add"]
    info = BlockInfo(name, "preact-bottleneck", stage_idx, member_ids,
                     first_conv=f"{name}.conv1", middle_conv=f"{name}.conv2",
                     last_conv=f"{name}.conv3", shortcut_conv=shortcut_conv,
                     gate_id=gate_id)
    return f"{name}.add", info


def _build_preresnet(arch, num_classes, with_gates, placement, reduction, input_shape):
    placement = placement or "middle"
    if placement not in ("middle", "block-output"):
        raise ValueError(f"{arch}: unsupported gate placement '{placement}'")
    widths, expansion, blocks_per_stage = PRERESNET_PLANS[arch]
    nodes, edges, blocks, stages = [], [], [], []

    nodes.append(_conv("stem.conv", input_shape[0], widths[0]))
    prev, cin = "stem.conv", widths[0]

    for si, width in enumerate(widths, start=1):
        cout = width * expansion
        block_ids = []
        for bi in range(1, blocks_per_stage + 1):
            stride = 2 if (si > 1 and bi == 1) else 1
            prev, info = _preact_bottleneck(nodes, edges, f"s{si}.b{bi}", cin, width,
                                            cout, stride, with_gates, placement,
                                            reduction, si, prev)
            blocks.append(info)
            block_ids.append(info.id)
            cin = cout
        stages.append(StageInfo(si, cout, block_ids))

    nodes += [_bn("final.bn", cin), LayerNode("final.relu", "relu")]
    edges += [(prev, "final.bn"), ("final.bn", "final.relu")]
    _head(nodes, edges, "final.relu", cin, num_classes)
    return ArchitectureGraph(nodes, edges, input_shape, blocks, stages, arch=arch)


# ---------------------------------------------------------------------------
# public entry points

def build(arch: str, num_classes: int, with_gates: bool = False,
          gate_placement: str | None = None, reduction: int = 16,
          input_shape: tuple[int, int, int] | None = None,
          seed: int = 0, init: bool = True) -> ArchitectureGraph:
    """Construct and validate one of the supported architectures."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture '{arch}'; choose from {ARCHITECTURES}")
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    input_shape = tuple(input_shape or _DEFAULT_INPUT[arch])

    if arch in VGG_PLANS:
        g = _build_vgg(arch, num_classes, with_gates, gate_placement, reduction, input_shape)
    elif arch in RESNET_PLANS:
        g = _build_resnet(arch, num_classes, with_gates, gate_placement, reduction, input_shape)
    else:
        g = _build_preresnet(arch, num_classes, with_gates, gate_placement, reduction,
                             input_shape)
    if init:
        initialize_parameters(g, seed)
    g.check_valid()
    return g


def initialize_parameters(graph: ArchitectureGraph, seed: int,
                          dtype=np.float32) -> None:
    """Fan-in-scaled Gaussian init, deterministic in node declaration order."""
    rng = np.random.default_rng(seed)
    for node in graph.nodes:
        kind_of(node).init(node, rng, dtype)


def strip_gates(graph: ArchitectureGraph) -> ArchitectureGraph:
    """Remove every gate node, splicing its producer to its consumers."""
    gate_ids = {n.id for n in graph.nodes if n.kind == "gate"}
    if not gate_ids:
        return graph.copy()
    nodes = [n.copy() for n in graph.nodes if n.id not in gate_ids]
    redirect = {}
    for gid in gate_ids:
        prods = graph.producers(gid)
        if len(prods) != 1:
            raise GraphValidationError([f"gate '{gid}' must have exactly one producer"])
        redirect[gid] = prods[0]

    def resolve(nid):
        while nid in redirect:
            nid = redirect[nid]
        return nid

    edges = []
    for s, d in graph.edges:
        if d in gate_ids:
            continue
        edges.append((resolve(s), d))
    blocks = []
    for b in graph.blocks:
        nb = b.copy()
        nb.node_ids = [nid for nid in nb.node_ids if nid not in gate_ids]
        nb.gate_id = None
        blocks.append(nb)
    return ArchitectureGraph(nodes, edges, graph.input_shape, blocks,
                             [s.copy() for s in graph.stages], graph.arch)
