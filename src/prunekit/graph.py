"""Architecture graph: an ordered DAG of layer nodes with block/stage annotations.

The graph is the object every other module operates on: builders emit it,
the network executor walks it, the planner reads its annotations, the
rewriter produces a new one, and the accounting module counts it.  Nodes
and edges are tuples fixed at construction, so a graph works out its
:class:`Topology` once and its copies share it.  Node attributes may still
be narrowed in place, as the rewriter does, so shapes are inferred per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Iterable, NamedTuple, Optional

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


class Topology(NamedTuple):
    """Declaration-stable Kahn order (None on a cycle); producers, consumers in edge order."""
    order: Optional[tuple[str, ...]]
    producers: dict[str, list[str]]
    consumers: dict[str, list[str]]


class ArchitectureGraph:
    def __init__(self, nodes: Iterable[LayerNode], edges: Iterable[tuple[str, str]],
                 input_shape: tuple[int, int, int], blocks=None, stages=None,
                 arch: str = "custom"):
        self.nodes: tuple[LayerNode, ...] = tuple(nodes)
        self.edges: tuple[tuple[str, str], ...] = tuple(tuple(e) for e in edges)
        self.input_shape = tuple(input_shape)   # (channels, height, width)
        self.blocks: list[BlockInfo] = list(blocks or [])
        self.stages: list[StageInfo] = list(stages or [])
        self.arch = arch
        self._index = {n.id: n for n in self.nodes}

    @cached_property
    def topology(self) -> Topology:
        """The dataflow of the fixed ``nodes`` and ``edges``, worked out on first use."""
        prods: dict[str, list[str]] = {nid: [] for nid in self._index}
        cons: dict[str, list[str]] = {nid: [] for nid in self._index}
        for s, d in self.edges:
            prods.setdefault(d, []).append(s)
            cons.setdefault(s, []).append(d)
        indeg = {nid: len(p) for nid, p in prods.items()}
        order = [nid for nid, k in indeg.items() if k == 0]
        for nid in order:   # a FIFO queue: a node joins once its last producer has
            for c in cons.get(nid, ()):
                indeg[c] -= 1
                if indeg[c] == 0:
                    order.append(c)
        # a cycle, or an edge from an unknown node, leaves some node out
        return Topology(tuple(order) if len(order) == len(indeg) else None, prods, cons)

    # -- structure access ---------------------------------------------------

    def node(self, node_id: str) -> LayerNode:
        return self._index[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._index

    def producers(self, node_id: str) -> list[str]:
        return list(self.topology.producers.get(node_id, ()))

    def consumers(self, node_id: str) -> list[str]:
        return list(self.topology.consumers.get(node_id, ()))

    def entry_nodes(self) -> list[str]:
        return [n.id for n in self.nodes if not self.topology.producers[n.id]]

    def nodes_of_kind(self, kind: str) -> list[LayerNode]:
        return [n for n in self.nodes if n.kind == kind]

    def block(self, block_id: str) -> BlockInfo:
        for b in self.blocks:
            if b.id == block_id:
                return b
        raise KeyError(block_id)

    def upstream_conv(self, node_id: str) -> Optional[str]:
        """Nearest convolution strictly upstream along first producers; None at the entry."""
        prods, nid = self.topology.producers, node_id
        while prods.get(nid):
            nid = prods[nid][0]
            if self.node(nid).kind == "conv":
                return nid
        return None

    def topo_order(self) -> tuple[str, ...]:
        """The topology's order; a graph with none raises GraphValidationError."""
        if self.topology.order is None:
            raise GraphValidationError(["graph contains a cycle"])
        return self.topology.order

    def skeleton(self) -> "ArchitectureGraph":
        """A copy that holds no parameters: the same node ids, attrs copied."""
        g = ArchitectureGraph(
            [LayerNode(n.id, n.kind, dict(n.attrs)) for n in self.nodes], self.edges,
            self.input_shape, [b.copy() for b in self.blocks],
            [s.copy() for s in self.stages], self.arch)
        g.topology = self.topology   # same ids and edges, so the same dataflow
        return g

    def copy(self) -> "ArchitectureGraph":
        g = self.skeleton()
        for node, src in zip(g.nodes, self.nodes):
            node.params = {k: v.copy() for k, v in src.params.items()}
        return g

    # -- shape inference ----------------------------------------------------

    def io_shapes(self) -> dict[str, tuple[list, tuple]]:
        """Per node in topological order: (producers' output shapes, own output shape).

        Shapes are per-sample (channels, height, width); the entry node reads
        ``input_shape``.
        """
        prods = self.topology.producers
        io: dict[str, tuple[list, tuple]] = {}
        for nid in self.topo_order():
            node = self.node(nid)
            ins = [io[p][1] for p in prods[nid]] or [self.input_shape]
            io[nid] = (ins, kind_of(node).out_shape(node, ins))
        return io

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Every invariant violation, as human-readable strings; [] means ok.

        The attribute phase runs ``checked_attrs`` on each node, which also
        reports an unknown kind; only a graph that passes it goes on to
        :meth:`validate_structure`.
        """
        v: list[str] = []
        for n in self.nodes:
            try:
                checked_attrs(n)
            except StructuralError as exc:
                v.append(str(exc))
        return v or self.validate_structure()

    def validate_structure(self) -> list[str]:
        """:meth:`validate`'s structure phase, for nodes that passed its attribute phase."""
        if len(self._index) != len(self.nodes):
            return ["duplicate node ids"]
        v = [f"edge ({s} -> {d}) references unknown node" for s, d in self.edges
             if s not in self._index or d not in self._index]
        if v:
            return v

        if min(self.input_shape) < 1:
            v.append(f"input_shape {self.input_shape} must be at least 1 in every dimension")
        entries = self.entry_nodes()
        if len(entries) != 1:
            v.append(f"expected exactly one entry node, found {entries}")
        if self.topology.order is None:
            v.append("graph contains a cycle")
            return v

        sinks = [n for n in self.nodes if n.kind == "softmax"]
        if len(sinks) != 1:
            v.append(f"expected exactly one softmax sink, found {len(sinks)}")
        elif self.topology.consumers[sinks[0].id]:
            v.append(f"softmax node '{sinks[0].id}' is not a sink")

        prods = self.topology.producers
        for n in self.nodes:
            arity, np_in = LAYERS[n.kind].arity, len(prods[n.id])
            if arity > 1 and np_in != arity:
                v.append(f"{n.kind} node '{n.id}' has {np_in} inputs, needs exactly {arity}")
            if arity == 1 and np_in > 1:
                v.append(f"node '{n.id}' has {np_in} inputs, at most 1 allowed")
        if v:   # shape rules may read only well-wired nodes
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
        for i, st in enumerate(self.stages):
            if any(other.index == st.index for other in self.stages[:i]):
                v.append(f"stage {st.index} is listed twice")
            if not st.block_ids:
                v.append(f"stage {st.index} has no blocks")
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
