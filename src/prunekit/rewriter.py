"""Applies a pruning plan to a model, producing a compact model.

Slicing is propagated by dataflow over the graph, not by layer adjacency:
a planned convolution's kept output channels flow through batchnorm, ReLU,
pooling and gates until they hit the next parameterized consumer, whose
input side is sliced to match.  Residual adds assert that both branches
arrive with the same kept set, which stage-uniform plans guarantee by
construction.

A rewrite is a width walk, then a parameter step.  The walk runs over the
parent's :meth:`~ArchitectureGraph.skeleton`, which holds no parameters:
each kind's ``narrow`` sets widths from the kept sets, and gates are
stripped there, so no parent tensor is copied or sliced.  The parameter
step depends on the mode.  ``inherit-weights`` gathers each surviving
tensor bitwise from the parent's arrays, one fresh copy per tensor, its
axes indexed as the kind's ``param_keeps`` declares (the fine-tuning
path).  ``architecture-only`` draws every parameter from a seed and reads
no parent tensor (the retrain-from-scratch path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builders import initialize_parameters, strip_gates
from .bundle import ModelBundle
from .errors import PlanError
from .layers import kind_of
from .planner import PruningPlan
from .records import at_least

REWRITE_MODES = ("inherit-weights", "architecture-only")


@dataclass
class RewriteOptions:
    mode: str = "inherit-weights"      # or "architecture-only"
    strip_gates: bool = True
    seed: int | None = None            # required in architecture-only mode

    def __post_init__(self):
        if self.mode not in REWRITE_MODES:
            raise ValueError(f"unknown rewrite mode '{self.mode}'")
        if self.mode == "architecture-only" and self.seed is None:
            raise ValueError("architecture-only mode requires a seed")
        at_least(self, seed=0)


def apply(model: ModelBundle, plan: PruningPlan, opts: RewriteOptions) -> ModelBundle:
    """Rewrite a model per the plan; the result passes graph validation."""
    plan.validate()
    graph = model.graph
    for lp in plan.layers:
        if not graph.has_node(lp.layer_id):
            raise PlanError(f"plan references unknown layer '{lp.layer_id}'")
        node = graph.node(lp.layer_id)
        if node.kind != "conv":
            raise PlanError(f"plan entry '{lp.layer_id}' is not a convolution")
        if lp.original != node.attrs["out_channels"]:
            raise PlanError(
                f"plan says layer '{lp.layer_id}' has {lp.original} channels, "
                f"model has {node.attrs['out_channels']}")

    new_graph, out_keep = _width_walk(graph, plan, opts.strip_gates)
    if opts.mode == "architecture-only":
        initialize_parameters(new_graph, opts.seed)
    else:
        prods = new_graph.topology.producers
        for node in new_graph.nodes:
            in_keep = out_keep[prods[node.id][0]] if prods[node.id] else None
            _inherit(node, graph.node(node.id), in_keep, out_keep[node.id])
    new_graph.check_valid()

    meta = dict(model.metadata)
    meta.update({"rewrite_mode": opts.mode, "plan": plan.fingerprint()})
    if opts.mode == "architecture-only":
        meta["init"] = {"scheme": "fan-in-gaussian", "seed": opts.seed}
    return ModelBundle(new_graph, meta)


def _width_walk(graph, plan: PruningPlan, strip: bool):
    """The compact graph without parameters, and the kept set leaving each node.

    The walk runs over the parent's skeleton, so it reads no parent tensor.
    """
    # a gate only passes kept sets through, so stripping it first gives the same
    # compact graph
    view = graph.skeleton()
    new_graph = strip_gates(view) if strip else view
    # kept channel sets flow in dataflow order; None means every channel survives
    planned, prods = plan.layer_map(), new_graph.topology.producers
    out_keep: dict[str, np.ndarray | None] = {}
    for nid in new_graph.topo_order():
        node, lp = new_graph.node(nid), planned.get(nid)
        rules = kind_of(node)
        ins = [out_keep[p] for p in prods[nid]] or [None]
        out_keep[nid] = rules.out_keep(
            node, ins, None if lp is None else np.asarray(lp.kept, dtype=np.intp))
        if ins[0] is not None or out_keep[nid] is not None:
            rules.narrow(node, ins[0], out_keep[nid])

    # stage annotations follow the rewritten block output widths
    for st in new_graph.stages:
        widths = {new_graph.node(new_graph.block(bid).last_conv).attrs["out_channels"]
                  for bid in st.block_ids}
        if len(widths) == 1:
            st.width = widths.pop()
    return new_graph, out_keep


def _inherit(node, parent, in_keep, out_keep) -> None:
    """Gather each of ``parent``'s tensors into narrowed ``node``.

    Every tensor is one fresh C-contiguous copy, made by one gather with an
    index array on each axis up to the last one the keep sets cut; a tensor
    no keep set cuts is copied whole.
    """
    rules = kind_of(node)
    shapes = rules.param_shapes(node.attrs)
    keeps = {"in": in_keep, "out": out_keep}
    for name, a in parent.params.items():
        index = [np.arange(n) if role == "lead" and n != full else keeps.get(role)
                 for role, n, full in zip(rules.param_keeps[name], shapes[name], a.shape)]
        while index and index[-1] is None:
            index.pop()
        if index:
            node.params[name] = a[np.ix_(*[np.arange(full) if keep is None else keep
                                           for full, keep in zip(a.shape, index)])]
        else:
            node.params[name] = a.copy()
