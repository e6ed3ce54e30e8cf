"""Collection of gate scores into score records.

A score record holds, per scored convolution, the arithmetic mean and the
standard deviation of the gate vector over every sample seen, plus free-form
metadata.  The record is the file contract between scoring and planning:
third-party trainers can produce the same JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bundle import ModelBundle, bundle_fingerprint
from .errors import PrunekitError
from .graph import ArchitectureGraph
from .network import Network
from .records import Record


@dataclass
class LayerScore(Record):
    layer_id: str          # the conv whose output channels are scored
    gate_id: str
    channels: int
    mean: np.ndarray       # float64, entries in (0, 1)
    std: np.ndarray
    samples: int

    def __post_init__(self):
        for name, vector in (("mean", self.mean), ("std", self.std)):
            if len(vector) != self.channels:
                raise ValueError(f"layer '{self.layer_id}': {name} has {len(vector)} "
                                 f"entries for {self.channels} channels")


@dataclass
class ScoreRecord(Record):
    RETIRED = ("blocks", "stages")   # the per-block and per-stage summaries of older files
    layers: list[LayerScore]
    metadata: dict = field(default_factory=dict)

    def layer_map(self) -> dict[str, LayerScore]:
        return {ls.layer_id: ls for ls in self.layers}


def scored_conv_for_gate(graph: ArchitectureGraph, gate_id: str) -> str:
    """Nearest convolution upstream of a gate: the layer whose channels it scores."""
    conv = graph.upstream_conv(gate_id)
    if conv is None:
        raise PrunekitError(f"gate '{gate_id}' has no convolution upstream")
    return conv


def collect_scores(bundle: ModelBundle, batches, max_batches: int | None = None,
                   training: bool = False, model: str | None = None) -> ScoreRecord:
    """Run forward passes, eval mode by default, and average each gate's outputs.

    ``batches`` yields (x, y) pairs; only x is used.  Per-layer accumulators
    are merged in batch order, so a fixed data order gives a deterministic
    record.  The metadata names the scored model first: ``model``, the
    bundle's ``bundle_fingerprint`` when the caller already holds it (a
    pipeline's train row), else the fingerprint computed here.
    """
    if max_batches is not None and max_batches < 1:
        raise ValueError(f"max_batches must be at least 1, got {max_batches}")
    graph = bundle.graph
    gates = graph.nodes_of_kind("gate")
    if not gates:
        raise PrunekitError(
            "model has no gate nodes to score; build it with gates enabled")
    net = Network(graph)
    gate_to_conv = {g.id: scored_conv_for_gate(graph, g.id) for g in gates}

    # per gate: the sum and the sum of squares of its per-sample vectors
    acc = {g.id: np.zeros((2, g.attrs["channels"]), dtype=np.float64) for g in gates}
    seen = 0
    for bi, (x, _y) in enumerate(batches):
        if max_batches is not None and bi >= max_batches:
            break
        for node, _out, cache in net.walk(x, training):
            if node.id in acc:
                s = cache.s.astype(np.float64)   # per-sample gate vectors
                acc[node.id] += (s.sum(axis=0), (s * s).sum(axis=0))
        seen += x.shape[0]
    if seen == 0:
        raise PrunekitError("score collection saw no data")

    layers = []
    for g in gates:
        mean, meansq = acc[g.id] / seen
        if not ((mean > 0.0) & (mean < 1.0)).all():
            raise PrunekitError(
                f"gate '{g.id}': mean scores left the open interval (0,1); "
                "the sigmoid saturated, which happens when activations are "
                "far outside the trained operating range (e.g. scoring an "
                "untrained or diverged model in eval mode)")
        var = np.maximum(meansq - mean * mean, 0.0)
        layers.append(LayerScore(gate_to_conv[g.id], g.id, g.attrs["channels"],
                                 mean, np.sqrt(var), seen))

    return ScoreRecord(layers, metadata={
        "model": bundle_fingerprint(bundle) if model is None else model,
        "samples": seen,
        "mode": "train" if training else "eval",
    })


def attribute_scored_channels(bundle: ModelBundle, x_normal: np.ndarray,
                              x_muted: np.ndarray, layer_id: str | None = None):
    """Split a scored layer's channels into signal-driven and noise-driven.

    Runs the first scored convolution on a probe batch and on the same batch
    with the planted signal muted, measures the per-channel rise in mean
    absolute activation, and median-splits: channels whose activation drops
    most when the signal disappears are the signal-carrying half.  Returns
    (signal_indices, noise_indices).
    """
    graph = bundle.graph
    gates = graph.nodes_of_kind("gate")
    if not gates:
        raise PrunekitError("model has no gate nodes")
    if layer_id is None:
        layer_id = scored_conv_for_gate(graph, gates[0].id)
    net = Network(graph)

    def channel_energy(x):
        for node, y, _cache in net.walk(x):
            if node.id == layer_id:
                return np.abs(y).mean(axis=(0, 2, 3)).astype(np.float64)
        raise KeyError(layer_id)

    gap = channel_energy(x_normal) - channel_energy(x_muted)
    order = np.argsort(-gap, kind="stable")
    half = len(order) // 2
    signal = np.sort(order[:half])
    noise = np.sort(order[half:])
    return signal, noise
