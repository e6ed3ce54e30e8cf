"""Graph executor: forward passes and reverse-mode differentiation.

:meth:`Network.walk` runs an :class:`ArchitectureGraph` in topological order
and drops each output once its last consumer has run.  A :class:`GradTape`
keeps each node's cache and output shape, all that ``backward`` reads;
``backward`` replays it in exact reverse order, accumulating parameter
gradients into buffers shaped like the parameters themselves.  It stops at
the graph input, so an entry conv skips its input-gradient GEMMs.  Fan-out
points (residual branches) sum their incoming gradients in a fixed edge
order, so identical seeds give bit-identical results.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .errors import StructuralError
from .graph import ArchitectureGraph
from .layers import kind_of


class GradTape:
    """Execution record of one forward pass plus gradient accumulators."""

    def __init__(self):
        self.order: list[str] = []            # node ids in execution order
        self.caches: dict[str, object] = {}
        self.outputs: dict[str, tuple] = {}   # output shapes, for backward's checks
        self.grads: dict[tuple[str, str], np.ndarray] = {}

    def accumulate(self, node_id: str, param: str, grad: np.ndarray) -> None:
        key = (node_id, param)
        if key in self.grads:
            self.grads[key] += grad
        else:
            self.grads[key] = grad


class Network:
    """Executable wrapper around a graph and its parameters."""

    def __init__(self, graph: ArchitectureGraph):
        self.graph = graph
        self._sink = graph.nodes_of_kind("softmax")[0].id
        prods = graph.topology.producers
        self._last_consumer = {p: nid for nid in graph.topo_order() for p in prods[nid]}

    # -- forward --------------------------------------------------------------

    def walk(self, x: np.ndarray, training: bool = False):
        """Run the graph in topological order, yielding ``(node, output, cache)``.

        Each output is dropped once its last consumer has run, so a caller
        that keeps nothing holds only the activations still to be read.
        Train mode lets batchnorm use batch statistics and update its running
        statistics in place; eval mode reads running statistics only.
        """
        ops.check_tensor4(x, "network input")
        if x.shape[1] != self.graph.input_shape[0]:
            raise StructuralError(
                f"network input has {x.shape[1]} channels, graph declares "
                f"{self.graph.input_shape[0]}")
        live: dict[str, np.ndarray] = {}
        topology = self.graph.topology   # acyclic: __init__ read its order
        for nid in topology.order:
            node = self.graph.node(nid)
            prods = topology.producers[nid]
            src = [live[p] for p in prods] if prods else [x]
            forward = kind_of(node).forward
            try:
                y, cache = forward(node, src, training)
            except StructuralError as exc:
                raise StructuralError(f"layer '{node.id}': {exc}") from None
            for p in prods:
                if self._last_consumer[p] == nid:
                    live.pop(p, None)   # a node may read one producer twice
            live[nid] = y
            yield node, y, cache

    def forward(self, x: np.ndarray, training: bool = False,
                tape: GradTape | None = None) -> np.ndarray:
        """Run :meth:`walk` to the end; returns class probabilities of shape (n, classes)."""
        for node, y, cache in self.walk(x, training):
            if tape is not None:
                tape.order.append(node.id)
                tape.caches[node.id] = cache
                tape.outputs[node.id] = y.shape
            if node.id == self._sink:
                probs = y[:, :, 0, 0]
        return probs

    # -- backward ---------------------------------------------------------------

    def backward(self, dprobs: np.ndarray, tape: GradTape) -> None:
        """Backpropagate d(loss)/d(probabilities) into the parameters.

        Parameter gradients accumulate into ``tape.grads`` keyed by
        ``(node_id, param_name)``.  The walk stops at the graph input: no
        caller reads d(loss)/d(input), so an entry node is asked for its
        parameter gradients only.
        """
        sink_shape = tape.outputs[self._sink]
        if dprobs.shape != sink_shape[:2]:
            raise StructuralError(
                f"upstream gradient shape {dprobs.shape} != output {sink_shape[:2]}")
        pending: dict[str, np.ndarray] = {self._sink: dprobs[:, :, None, None]}
        producers = self.graph.topology.producers
        for nid in reversed(tape.order):
            dy = pending.pop(nid, None)
            if dy is None:
                continue
            node = self.graph.node(nid)
            if dy.shape != tape.outputs[nid]:
                raise StructuralError(
                    f"layer '{nid}': upstream gradient shape {dy.shape} != "
                    f"forward output {tape.outputs[nid]}")
            rules, prods = kind_of(node), producers[nid]
            grads = rules.backward(dy, tape.caches[nid], bool(prods))
            for pname, grad in zip(rules.trainable, grads[rules.arity:]):
                if grad is not None:
                    tape.accumulate(nid, pname, grad)
            # out of place: an add hands both inputs one dy, and a gradient may
            # be a read-only broadcast view, so no pending array is written to
            for p, dx in zip(prods, grads[:rules.arity]):
                pending[p] = pending[p] + dx if p in pending else dx

    # -- parameters ----------------------------------------------------------------

    def trainable_parameters(self):
        """(node_id, param_name, array) for every updatable parameter."""
        for node in self.graph.nodes:
            for pname in kind_of(node).trainable:
                if pname in node.params:
                    yield node.id, pname, node.params[pname]

    def weight_parameters(self):
        """Weight matrices only (penalty term operands); excludes biases and BN."""
        for node in self.graph.nodes:
            for pname in kind_of(node).weights:
                if pname in node.params:
                    yield node.id, pname, node.params[pname]
