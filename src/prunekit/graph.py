"""Architecture graph: an ordered DAG of layer nodes with block/stage annotations.

The graph is the object every other module operates on: builders emit it,
the network executor walks it, the planner reads its annotations, the
rewriter produces a new one, and the accounting module counts it.  Graphs
are treated as immutable after construction; transformations copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

import numpy as np

from .errors import GraphValidationError, StructuralError
from .layers import LAYERS, checked_attrs, kind_of
from .records import Record, decode, encode


@dataclass
class LayerNode:
    id: str
    kind: str
    attrs: dict[str, Any] = field(default_factory=dict)
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def copy(self) -> "LayerNode":
        return LayerNode(self.id, self.kind, dict(self.attrs),
                         {k: v.copy() for k, v in self.params.items()})


@dataclass
class BlockInfo(Record):
    """A residual block: member nodes plus the handles pruning needs."""
    id: str
    kind: str                     # basic | bottleneck | preact-bottleneck
    stage: int
    node_ids: list[str]
    first_conv: str
    middle_conv: Optional[str]    # bottlenecks only
    last_conv: str
    shortcut_conv: Optional[str]  # None for identity shortcuts
    gate_id: Optional[str] = None

    def copy(self) -> "BlockInfo":
        return replace(self, node_ids=list(self.node_ids))


@dataclass
class StageInfo(Record):
    """Blocks sharing one input/output width."""
    index: int
    width: int
    block_ids: list[str]

    def copy(self) -> "StageInfo":
        return replace(self, block_ids=list(self.block_ids))


@dataclass
class NodeManifest(Record):
    id: str
    kind: str
    attrs: dict     # held to the kind's declaration by ``layers.checked_attrs``


@dataclass
class GraphManifest(Record):
    """The fields of a graph manifest, as ``from_manifest`` reads them."""
    input_shape: tuple[int, int, int]
    nodes: list[NodeManifest]
    edges: list[tuple[str, str]]
    blocks: list[BlockInfo] = field(default_factory=list)
    stages: list[StageInfo] = field(default_factory=list)
    arch: str = "custom"


class ArchitectureGraph:
    def __init__(self, nodes: Iterable[LayerNode], edges: Iterable[tuple[str, str]],
                 input_shape: tuple[int, int, int], blocks=None, stages=None,
                 arch: str = "custom"):
        self.nodes: list[LayerNode] = list(nodes)
        self.edges: list[tuple[str, str]] = [tuple(e) for e in edges]
        self.input_shape = tuple(input_shape)   # (channels, height, width)
        self.blocks: list[BlockInfo] = list(blocks or [])
        self.stages: list[StageInfo] = list(stages or [])
        self.arch = arch
        self._index = {n.id: n for n in self.nodes}

    # -- structure access ---------------------------------------------------

    def node(self, node_id: str) -> LayerNode:
        return self._index[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._index

    def producers(self, node_id: str) -> list[str]:
        return [s for s, d in self.edges if d == node_id]

    def producer_map(self) -> dict[str, list[str]]:
        """Producers of every node in edge order; rebuilt per call, as edges may change."""
        prods: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for s, d in self.edges:
            prods.setdefault(d, []).append(s)
        return prods

    def consumers(self, node_id: str) -> list[str]:
        return [d for s, d in self.edges if s == node_id]

    def entry_nodes(self) -> list[str]:
        have_in = {d for _, d in self.edges}
        return [n.id for n in self.nodes if n.id not in have_in]

    def nodes_of_kind(self, kind: str) -> list[LayerNode]:
        return [n for n in self.nodes if n.kind == kind]

    def block(self, block_id: str) -> BlockInfo:
        for b in self.blocks:
            if b.id == block_id:
                return b
        raise KeyError(block_id)

    def upstream_conv(self, node_id: str) -> Optional[str]:
        """Nearest convolution strictly upstream along first producers; None at the entry."""
        nid = node_id
        while True:
            prods = self.producers(nid)
            if not prods:
                return None
            nid = prods[0]
            if self.node(nid).kind == "conv":
                return nid

    def topo_order(self) -> list[str]:
        """Kahn's algorithm, stable w.r.t. node declaration order."""
        indeg = {n.id: 0 for n in self.nodes}
        consumers: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for s, d in self.edges:
            indeg[d] += 1
            consumers.setdefault(s, []).append(d)
        order, ready = [], [n.id for n in self.nodes if indeg[n.id] == 0]
        while ready:
            nid = ready.pop(0)
            order.append(nid)
            for c in consumers[nid]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(order) != len(self.nodes):
            raise GraphValidationError(["graph contains a cycle"])
        return order

    def copy(self) -> "ArchitectureGraph":
        return ArchitectureGraph(
            [n.copy() for n in self.nodes], list(self.edges), self.input_shape,
            [b.copy() for b in self.blocks], [s.copy() for s in self.stages], self.arch)

    # -- shape inference ----------------------------------------------------

    def io_shapes(self) -> dict[str, tuple[list, tuple]]:
        """Per node in topological order: (producers' output shapes, own output shape).

        Shapes are per-sample (channels, height, width); the entry node reads
        ``input_shape``.
        """
        entry = [self.input_shape]
        prods = self.producer_map()
        io: dict[str, tuple[list, tuple]] = {}
        for nid in self.topo_order():
            node = self.node(nid)
            ins = [io[p][1] for p in prods[nid]] or entry
            io[nid] = (ins, kind_of(node).out_shape(node, ins))
        return io

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Every invariant violation, as human-readable strings; [] means ok."""
        v: list[str] = []
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            v.append("duplicate node ids")
            return v
        known = set(ids)
        for s, d in self.edges:
            if s not in known or d not in known:
                v.append(f"edge ({s} -> {d}) references unknown node")
        if v:
            return v

        if min(self.input_shape) < 1:
            v.append(f"input_shape {self.input_shape} must be at least 1 in every dimension")
        entries = self.entry_nodes()
        if len(entries) != 1:
            v.append(f"expected exactly one entry node, found {entries}")
        try:
            self.topo_order()
        except GraphValidationError:
            v.append("graph contains a cycle")
            return v

        sinks = [n for n in self.nodes if n.kind == "softmax"]
        if len(sinks) != 1:
            v.append(f"expected exactly one softmax sink, found {len(sinks)}")
        elif self.consumers(sinks[0].id):
            v.append(f"softmax node '{sinks[0].id}' is not a sink")

        prods = self.producer_map()
        for n in self.nodes:
            if n.kind not in LAYERS:
                v.append(f"node '{n.id}': unknown kind '{n.kind}'")
                continue
            arity, np_in = LAYERS[n.kind].arity, len(prods[n.id])
            if arity > 1 and np_in != arity:
                v.append(f"{n.kind} node '{n.id}' has {np_in} inputs, needs exactly {arity}")
            if arity == 1 and np_in > 1:
                v.append(f"node '{n.id}' has {np_in} inputs, at most 1 allowed")
            try:
                checked_attrs(n)
            except StructuralError as exc:
                v.append(str(exc))
        if v:   # shape rules may read only known kinds and well-formed attributes
            return v

        try:
            io = self.io_shapes()
        except Exception as exc:  # shape arithmetic failure is itself a violation
            v.append(f"shape inference failed: {exc}")
            return v
        for n in self.nodes:
            rules = LAYERS[n.kind]
            v.extend(rules.check(n, io[n.id][0]))
            v.extend(f"{n.kind} '{n.id}': {name} shape {n.params[name].shape} != {shape}"
                     for name, shape in rules.param_shapes(n.attrs).items()
                     if name in n.params and n.params[name].shape != shape)
        v.extend(self._validate_annotations(io))
        return v

    def _validate_annotations(self, io) -> list[str]:
        v = []
        block_ids = {b.id for b in self.blocks}
        for b in self.blocks:
            for nid in b.node_ids:
                if not self.has_node(nid):
                    v.append(f"block '{b.id}': member node '{nid}' does not exist")
            for handle in ("first_conv", "middle_conv", "last_conv", "shortcut_conv"):
                nid = getattr(b, handle)
                kind = self.node(nid).kind if self.has_node(nid) else None
                if nid is not None and kind != "conv":
                    v.append(f"block '{b.id}': {handle} '{nid}' " + (
                        f"is a {kind}, not a conv" if kind else "does not exist"))
        for st in self.stages:
            for bid in st.block_ids:
                if bid not in block_ids:
                    v.append(f"stage {st.index}: block '{bid}' does not exist")
        if v:
            return v
        prev_width = None
        for st in sorted(self.stages, key=lambda s: s.index):
            for i, bid in enumerate(st.block_ids):
                b = self.block(bid)
                out_w = io[b.last_conv][1][0]
                if out_w != st.width:
                    v.append(f"stage {st.index}: block '{bid}' output width {out_w} "
                             f"!= stage width {st.width}")
                in_w = self.node(b.first_conv).attrs["in_channels"]
                expect_in = st.width if i > 0 else (prev_width if prev_width is not None else in_w)
                if in_w != expect_in:
                    v.append(f"stage {st.index}: block '{bid}' input width {in_w} "
                             f"!= expected {expect_in}")
            prev_width = st.width
        return v

    def check_valid(self) -> None:
        violations = self.validate()
        if violations:
            raise GraphValidationError(violations)

    # -- manifest (parameter-free structural form) ---------------------------

    def to_manifest(self) -> dict:
        return {
            "arch": self.arch,
            "input_shape": list(self.input_shape),
            "nodes": [{"id": n.id, "kind": n.kind, "attrs": n.attrs} for n in self.nodes],
            "edges": [list(e) for e in self.edges],
            "blocks": encode(self.blocks),
            "stages": encode(self.stages),
        }

    @classmethod
    def from_manifest(cls, m: dict) -> "ArchitectureGraph":
        g = decode(GraphManifest, m, "graph")
        nodes = [LayerNode(d.id, d.kind, checked_attrs(d)) for d in g.nodes]
        return cls(nodes, g.edges, g.input_shape, g.blocks, g.stages, g.arch)
