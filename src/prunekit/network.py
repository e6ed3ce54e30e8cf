"""Graph executor: forward passes and reverse-mode differentiation.

:meth:`Network.walk` runs an :class:`ArchitectureGraph` in topological order
and drops each output once its last consumer has run.  A :class:`GradTape`
keeps each node's cache and output shape, all that ``backward`` reads;
``backward`` replays its caches, keyed in execution order, in reverse,
accumulating parameter gradients into buffers shaped like the parameters
themselves.  It consumes the tape: each cache is freed once its node's rule
has run, so a tape serves one backward and a step's peak is its forward
tape.  The walk stops at the graph input, so an entry conv skips its
input-gradient GEMMs.  Fan-out points (residual branches) sum their
incoming gradients in a fixed edge order, so identical seeds give
bit-identical results.

A training walk runs a kind's ``lean_forward``, where it has one, for a
node that no consumer's cache keeps (``LayerKind.keeps_input``): a ReLU
that feeds a max-pool caches a 1-byte mask rather than its output, while
one that feeds a conv caches the output the conv keeps anyway.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .errors import StructuralError
from .graph import ArchitectureGraph
from .layers import kind_of, tensor_mismatch


class GradTape:
    """Execution record of one forward pass plus gradient accumulators;
    ``Network.backward`` empties ``caches`` and ``outputs`` as it goes."""

    def __init__(self):
        self.caches: dict[str, object] = {}   # in execution order
        self.outputs: dict[str, tuple] = {}   # output shapes, for backward's checks
        self.grads: dict[tuple[str, str], np.ndarray] = {}

    # node ids in execution order, the caches' keys; the benchmark's tests read it
    order = property(lambda self: list(self.caches))

    def accumulate(self, node_id: str, param: str, grad: np.ndarray) -> None:
        key = (node_id, param)
        if key in self.grads:
            self.grads[key] += grad
        else:
            self.grads[key] = grad


class Network:
    """Executable wrapper around a graph and its parameters."""

    def __init__(self, graph: ArchitectureGraph):
        for node in graph.nodes:
            if problem := tensor_mismatch(node):
                raise StructuralError(problem)
        self.graph = graph
        self._sink = graph.nodes_of_kind("softmax")[0].id
        prods, cons = graph.topology.producers, graph.topology.consumers
        self._last_consumer = {p: nid for nid in graph.topo_order() for p in prods[nid]}
        # the training forward of each node whose output no consumer's cache keeps
        self._lean = {node.id: lean for node in graph.nodes
                      if (lean := kind_of(node).lean_forward) is not None
                      and not any(kind_of(graph.node(c)).keeps_input
                                  for c in cons.get(node.id, ()))}

    # -- forward --------------------------------------------------------------

    def walk(self, x: np.ndarray, training: bool = False):
        """Run the graph in topological order, yielding ``(node, output, cache)``.

        Each output is dropped once its last consumer has run, so a caller
        that keeps nothing holds only the activations still to be read.
        Train mode lets batchnorm use batch statistics and update its running
        statistics in place, and runs a node's lean forward where
        ``__init__`` found one; eval mode reads running statistics only.
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
            rules = kind_of(node)
            forward = self._lean.get(nid, rules.forward) if training else rules.forward
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
                tape.caches[node.id] = cache
                tape.outputs[node.id] = y.shape
            if node.id == self._sink:
                probs = y[:, :, 0, 0]
        return probs

    # -- backward ---------------------------------------------------------------

    def backward(self, dprobs: np.ndarray, tape: GradTape) -> None:
        """Backpropagate d(loss)/d(probabilities) into the parameters.

        Parameter gradients accumulate into ``tape.grads`` keyed by
        ``(node_id, param_name)``.  Each node's cache and output shape leave
        the tape once its rule has run, so the tape serves one backward.
        The walk stops at the graph input: no caller reads d(loss)/d(input),
        so an entry node is asked for its parameter gradients only.
        """
        if self._sink not in tape.outputs:
            raise StructuralError(
                "backward needs the tape of a forward pass: this one holds none, "
                "or a backward has already consumed it")
        sink_shape = tape.outputs[self._sink]
        if dprobs.shape != sink_shape[:2]:
            raise StructuralError(
                f"upstream gradient shape {dprobs.shape} != output {sink_shape[:2]}")
        pending: dict[str, np.ndarray] = {self._sink: dprobs[:, :, None, None]}
        while tape.caches:
            nid, cache = tape.caches.popitem()   # the last node run
            shape = tape.outputs.pop(nid)
            if nid in pending:
                self._backprop(nid, pending.pop(nid), shape, cache, tape, pending)

    def _backprop(self, nid, dy, shape, cache, tape, pending) -> None:
        """One node's rule: its parameter gradients into ``tape.grads``, its
        input gradients into ``pending``.  Its temporaries die on return."""
        if dy.shape != shape:
            raise StructuralError(
                f"layer '{nid}': upstream gradient shape {dy.shape} != "
                f"forward output {shape}")
        rules, prods = kind_of(self.graph.node(nid)), self.graph.topology.producers[nid]
        grads = rules.backward(dy, cache, bool(prods))
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
