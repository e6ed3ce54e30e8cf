"""Constructors for the supported CNN families.

Four full-size architectures (vgg16, vgg19, resnet56, preresnet164) plus two
desk-scale variants (tiny-vgg, tiny-resnet) that keep every structural idiom
of their big siblings but train on a CPU in minutes.

Every graph comes out of one private assembler.  ``chain`` appends a path of
layers and its edges in declaration order; ``residual`` adds one block from
its main path, its projection shortcut (empty for an identity shortcut), the
add node and the post-add tail, and reads the block's handles (first, middle,
last and shortcut conv, gate) from those layer lists; ``stage_loop`` builds
the residual families stage by stage, with stride 2 on the first block of
every stage after the first.  Node and edge order, and so every content
hash, follow from that declaration order.

Channel gates are optional.  A gate is an entry in a layer list, present
only at the requested placement; ``_PLACEMENTS`` names each architecture's
accepted placements, the default first:

* VGG:          ``pre-relu``: conv -> batchnorm -> gate -> relu.
* basic block:  ``block-output`` puts the gate right after the second conv
                (scores the block's output channels, used for stage-uniform
                planning); ``block-middle`` puts it after the first conv,
                before its batchnorm (scores the intermediate channels).
* bottleneck:   ``middle`` gates the middle 3x3 conv's output;
                ``block-output`` gates the third conv's output.

Convolutions carry a bias only when no batchnorm follows them; pre-activation
bottleneck convs are bias-free throughout, matching the usual design.
"""

from __future__ import annotations

import math

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

# accepted gate placements per architecture, the default first
_PLACEMENTS = {**dict.fromkeys(VGG_PLANS, ("pre-relu",)),
               **dict.fromkeys(RESNET_PLANS, ("block-output", "block-middle")),
               **dict.fromkeys(PRERESNET_PLANS, ("middle", "block-output"))}

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


def _relu(nid):
    return LayerNode(nid, "relu")


class _Assembler:
    """Nodes, edges, blocks and stages of one graph, in declaration order."""

    def __init__(self, gate_at: str | None, reduction: int):
        self.nodes, self.edges, self.blocks, self.stages = [], [], [], []
        self.gate_at, self.reduction = gate_at, reduction   # gate_at is None when ungated

    def gate(self, nid, at, channels) -> list[LayerNode]:
        """A one-gate layer list when gates sit at placement ``at``, else an empty one."""
        if at != self.gate_at:
            return []
        return [LayerNode(nid, "gate", {"channels": channels, "reduction": self.reduction,
                                        "hidden": hidden_width(channels, self.reduction)})]

    def chain(self, prev, layers) -> str | None:
        """Append ``layers`` as a path fed by ``prev`` (None at the entry); returns its end."""
        for node in layers:
            self.nodes.append(node)
            if prev is not None:
                self.edges.append((prev, node.id))
            prev = node.id
        return prev

    def residual(self, name, kind, stage, prev, main, shortcut, shortcut_from, tail) -> str:
        """One block: main path and shortcut meet at ``{name}.add``, then the tail."""
        main_out = self.chain(prev, main)
        shortcut_out = self.chain(shortcut_from, shortcut) if shortcut else prev
        add = f"{name}.add"
        self.nodes.append(LayerNode(add, "add"))
        self.edges += [(main_out, add), (shortcut_out, add)]
        out = self.chain(add, tail)
        convs = [n.id for n in main if n.kind == "conv"]
        self.blocks.append(BlockInfo(
            name, kind, stage, [n.id for n in main + shortcut] + [add] + [n.id for n in tail],
            first_conv=convs[0], middle_conv=convs[1] if len(convs) == 3 else None,
            last_conv=convs[-1], shortcut_conv=shortcut[0].id if shortcut else None,
            gate_id=next((n.id for n in main if n.kind == "gate"), None)))
        return out

    def stage_loop(self, prev, widths, expansion, blocks_per_stage, block) -> tuple:
        """Residual stages after a ``widths[0]``-wide stem; ``block`` lists a block's layers."""
        cin = widths[0]
        for si, width in enumerate(widths, start=1):
            cout = width * expansion
            for bi in range(1, blocks_per_stage + 1):
                name, stride = f"s{si}.b{bi}", 2 if (si > 1 and bi == 1) else 1
                kind, main, projection, projection_from, tail = block(
                    self, name, prev, cin, width, cout, stride)
                shortcut = projection if (cin != cout or stride != 1) else []
                prev = self.residual(name, kind, si, prev, main, shortcut, projection_from, tail)
                cin = cout
            self.stages.append(StageInfo(si, cout, [b.id for b in self.blocks
                                                    if b.stage == si]))
        return prev, cin


def _basic_block(a, name, prev, cin, width, cout, stride):
    """conv-bn-relu-conv-bn; conv-bn projection from the block input; relu after the add."""
    main = [_conv(f"{name}.conv1", cin, width, stride=stride),
            *a.gate(f"{name}.gate", "block-middle", width),
            _bn(f"{name}.bn1", width), _relu(f"{name}.relu1"),
            _conv(f"{name}.conv2", width, width),
            *a.gate(f"{name}.gate", "block-output", width),
            _bn(f"{name}.bn2", width)]
    projection = [_conv(f"{name}.down.conv", cin, cout, kernel=1, stride=stride, padding=0),
                  _bn(f"{name}.down.bn", cout)]
    return "basic", main, projection, prev, [_relu(f"{name}.relu2")]


def _preact_bottleneck(a, name, prev, cin, width, cout, stride):
    """(bn-relu-conv) x3, 1x1/3x3/1x1; the projection reads the pre-activated input."""
    main = [_bn(f"{name}.bn1", cin), _relu(f"{name}.relu1"),
            _conv(f"{name}.conv1", cin, width, kernel=1, padding=0),
            _bn(f"{name}.bn2", width), _relu(f"{name}.relu2"),
            _conv(f"{name}.conv2", width, width, stride=stride),
            *a.gate(f"{name}.gate", "middle", width),
            _bn(f"{name}.bn3", width), _relu(f"{name}.relu3"),
            _conv(f"{name}.conv3", width, cout, kernel=1, padding=0),
            *a.gate(f"{name}.gate", "block-output", cout)]
    projection = [_conv(f"{name}.down.conv", cin, cout, kernel=1, stride=stride, padding=0)]
    return "preact-bottleneck", main, projection, f"{name}.relu1", []


def _vgg(a, plan, cin):
    """conv-bn-relu per width and a 2x2 max-pool per "M"; returns the end and its width."""
    prev, ci, pi = None, 0, 0
    for item in plan:
        if item == "M":
            pi += 1
            prev = a.chain(prev, [LayerNode(f"pool{pi}", "maxpool", {"kernel": 2, "stride": 2})])
            continue
        ci += 1
        prev = a.chain(prev, [_conv(f"conv{ci}", cin, item), _bn(f"bn{ci}", item),
                              *a.gate(f"gate{ci}", "pre-relu", item), _relu(f"relu{ci}")])
        cin = item
    return prev, cin


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
    placement = gate_placement or _PLACEMENTS[arch][0]
    if placement not in _PLACEMENTS[arch]:
        raise ValueError(f"{arch}: unsupported gate placement '{placement}'")
    input_shape = tuple(input_shape or _DEFAULT_INPUT[arch])

    a = _Assembler(placement if with_gates else None, reduction)
    if arch in VGG_PLANS:
        prev, cin = _vgg(a, VGG_PLANS[arch], input_shape[0])
    elif arch in RESNET_PLANS:
        widths, blocks_per_stage = RESNET_PLANS[arch]
        prev = a.chain(None, [_conv("stem.conv", input_shape[0], widths[0]),
                              _bn("stem.bn", widths[0]), _relu("stem.relu")])
        prev, cin = a.stage_loop(prev, widths, 1, blocks_per_stage, _basic_block)
    else:
        widths, expansion, blocks_per_stage = PRERESNET_PLANS[arch]
        prev = a.chain(None, [_conv("stem.conv", input_shape[0], widths[0])])
        prev, cin = a.stage_loop(prev, widths, expansion, blocks_per_stage, _preact_bottleneck)
        prev = a.chain(prev, [_bn("final.bn", cin), _relu("final.relu")])
    a.chain(prev, [LayerNode("gap", "globalavgpool"),
                   LayerNode("fc", "fullyconnected",
                             {"in_features": cin, "out_features": num_classes, "bias": True}),
                   LayerNode("softmax", "softmax")])
    g = ArchitectureGraph(a.nodes, a.edges, input_shape, a.blocks, a.stages, arch=arch)
    if init:
        initialize_parameters(g, seed)
    g.check_valid()
    return g


def initialize_parameters(graph: ArchitectureGraph, seed: int,
                          dtype=np.float32) -> None:
    """Each kind's declared parameters, drawn in node and declaration order.

    A name in ``weights`` gets the fan-in Gaussian of He et al. (2015),
    N(0, 2 / prod(shape[1:])); a name in ``ones`` starts at 1 and every
    other parameter at 0.  Every weight is drawn into one reused float64
    buffer, scaled there and cast to ``dtype``: the same draws in the same
    order as ``rng.normal(0.0, std, shape).astype(dtype)``, bit for bit.
    """
    rng = np.random.default_rng(seed)
    declared = [(node, rules, rules.param_shapes(node.attrs))
                for node in graph.nodes for rules in [kind_of(node)]]
    buf = np.empty(max((math.prod(shape) for _, rules, shapes in declared
                        for name, shape in shapes.items() if name in rules.weights),
                       default=0))
    for node, rules, shapes in declared:
        for name, shape in shapes.items():
            if name in rules.weights:
                draw = buf[:math.prod(shape)]
                rng.standard_normal(out=draw)
                draw *= np.sqrt(2.0 / math.prod(shape[1:]))
                draw += 0.0     # rng.normal adds its loc, which turns -0.0 into 0.0
                node.params[name] = draw.reshape(shape).astype(dtype)
            else:
                node.params[name] = np.full(shape, 1.0 if name in rules.ones else 0.0, dtype)


def strip_gates(graph: ArchitectureGraph) -> ArchitectureGraph:
    """The graph's skeleton, each gate's producer spliced to its consumers; no tensors.

    ``rewriter.apply`` with an identity plan strips a model and keeps its weights.
    """
    g = graph.skeleton()
    producers = g.topology.producers
    redirect = {n.id: producers[n.id] for n in g.nodes if n.kind == "gate"}
    if not redirect:
        return g
    for gid, prods in redirect.items():
        if len(prods) != 1:
            raise GraphValidationError([f"gate '{gid}' must have exactly one producer"])

    def resolve(nid):
        while nid in redirect:
            nid = redirect[nid][0]
        return nid

    for b in g.blocks:   # the skeleton's own copies
        b.node_ids = [nid for nid in b.node_ids if nid not in redirect]
        b.gate_id = None
    return ArchitectureGraph([n for n in g.nodes if n.id not in redirect],
                             [(resolve(s), d) for s, d in g.edges if d not in redirect],
                             g.input_shape, g.blocks, g.stages, g.arch)
