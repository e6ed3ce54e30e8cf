"""Turns score records into deterministic pruning plans.

The selection rule: a layer's threshold is ``(1 +/- 10**-beta) * mean(scores)``
and channels scoring strictly below it are pruned.  The sign is coarse
control (minus keeps the threshold under the mean, plus pushes it above),
beta is fine control.  Two guards apply after thresholding:

* a floor: at least ``min_channels`` survive, filled by top score;
* the half-cut rule: a layer whose scores sit uniformly at the sigmoid
  plateau 0.5 carries no ranking information, so when the rule is enabled
  the layer is cut to the first ``ceil(C/2)`` channels outright.

Three policies produce whole-network plans: ``vgg-per-layer`` thresholds
every convolution independently and simultaneously; ``resnet-stage-uniform``
keeps one shared channel index set for all block inputs/outputs in a stage
(residual adds stay dimensionally consistent, intermediate block channels
are untouched); ``bottleneck-middle`` thresholds only the middle 3x3 conv of
each bottleneck, leaving block I/O widths intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PlanError
from .graph import ArchitectureGraph
from .records import Record
from .scoring import ScoreRecord

POLICIES = ("vgg-per-layer", "resnet-stage-uniform", "bottleneck-middle")
SIGNS = ("minus", "plus")


@dataclass(frozen=True)
class PruneConfig(Record):
    beta: int = 2
    sign: str = "minus"
    policy: str = "vgg-per-layer"
    min_channels: int = 1
    half_rule: bool = False
    half_rule_tolerance: float = 1e-6
    stage_targets: tuple[tuple[int, int], ...] | None = None  # ((stage, width), ...)

    def __post_init__(self):
        if self.beta < 1:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be one of {SIGNS}, got '{self.sign}'")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got '{self.policy}'")
        if self.min_channels < 1:
            raise ValueError("min_channels must be >= 1")
        listed = set()
        for stage, target in self.stage_targets or ():
            if stage in listed:
                raise ValueError(f"stage_targets: stage {stage} is listed twice")
            if target < 1:
                raise ValueError(f"stage_targets: stage {stage}: target {target} is below 1")
            listed.add(stage)

    @property
    def stage_target_map(self) -> dict[int, int]:
        return dict(self.stage_targets or ())


def threshold_factor(config: PruneConfig) -> float:
    lam = 10.0 ** (-config.beta)
    return (1.0 - lam) if config.sign == "minus" else (1.0 + lam)


def threshold(scores: np.ndarray, config: PruneConfig) -> float:
    """Pruning threshold: (1 +/- 10**-beta) times the mean score."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 1:
        raise ValueError("empty score vector")
    return threshold_factor(config) * float(scores.mean())


def _is_plateau(scores: np.ndarray, tol: float) -> bool:
    return (float(scores.max() - scores.min()) <= tol
            and bool(np.all(np.abs(scores - 0.5) <= tol)))


def select_channels(scores: np.ndarray, config: PruneConfig) -> np.ndarray:
    """Sorted indices of surviving channels for one layer."""
    scores = np.asarray(scores, dtype=np.float64)
    c = scores.size
    if config.half_rule and _is_plateau(scores, config.half_rule_tolerance):
        return np.arange(math.ceil(c / 2))
    thre = threshold(scores, config)
    kept = np.flatnonzero(scores >= thre)
    floor = min(config.min_channels, c)
    if kept.size < floor:
        kept = _top_k(scores, floor)
    return kept


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` top-scoring indices, sorted; ties go to the lower index."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    return np.sort(order[:k])


@dataclass
class LayerPlan(Record):
    layer_id: str
    original: int
    kept: tuple[int, ...]


@dataclass
class StagePlan(Record):
    index: int
    target: int
    kept: tuple[int, ...]
    block_ids: tuple[str, ...]


@dataclass
class PruningPlan(Record):
    config: PruneConfig
    layers: list[LayerPlan] = field(default_factory=list)
    stages: list[StagePlan] = field(default_factory=list)
    score_fingerprint: str = ""

    def layer(self, layer_id: str) -> LayerPlan:
        return self.layer_map()[layer_id]

    def layer_map(self) -> dict[str, LayerPlan]:
        return {lp.layer_id: lp for lp in self.layers}

    def validate(self) -> None:
        seen = set()
        for lp in self.layers:
            if lp.layer_id in seen:
                raise PlanError(f"duplicate plan entry for layer '{lp.layer_id}'")
            seen.add(lp.layer_id)
            k = len(lp.kept)
            if not (1 <= k <= lp.original):
                raise PlanError(f"layer '{lp.layer_id}': keeps {k} of {lp.original}")
            if list(lp.kept) != sorted(set(lp.kept)):
                raise PlanError(f"layer '{lp.layer_id}': indices not sorted unique")
            if lp.kept[0] < 0 or lp.kept[-1] >= lp.original:
                raise PlanError(f"layer '{lp.layer_id}': index out of range")

    @classmethod
    def from_dict(cls, d) -> "PruningPlan":
        plan = super().from_dict(d)
        plan.validate()
        return plan


# ---------------------------------------------------------------------------
# policies

def _threshold_layers(record: ScoreRecord, graph: ArchitectureGraph, config: PruneConfig,
                      conv_ids, what: str) -> PruningPlan:
    """Threshold each listed conv's scores independently; errors name the layer."""
    plan = PruningPlan(config, score_fingerprint=record.fingerprint())
    scores = record.layer_map()
    for conv_id in conv_ids:
        ls = scores.get(conv_id)
        if ls is None:
            raise PlanError(f"no score entry for {what} '{conv_id}'")
        width = graph.node(conv_id).attrs["out_channels"]
        if ls.channels != width:
            raise PlanError(f"layer '{conv_id}': scores cover {ls.channels} channels, "
                            f"layer has {width}")
        kept = select_channels(ls.mean, config)
        plan.layers.append(LayerPlan(conv_id, width, tuple(int(i) for i in kept)))
    plan.validate()
    return plan


def plan_vgg(record: ScoreRecord, graph: ArchitectureGraph,
             config: PruneConfig) -> PruningPlan:
    """Threshold every convolution independently, all layers at once."""
    return _threshold_layers(record, graph, config,
                             [n.id for n in graph.nodes_of_kind("conv")], "conv layer")


def plan_stage_uniform(record: ScoreRecord, graph: ArchitectureGraph,
                       config: PruneConfig) -> PruningPlan:
    """One shared kept-index set per stage, applied to every member block.

    Per-channel importance is the mean of the member blocks' score vectors.
    A stage with a target in ``config.stage_targets`` keeps its top ``target``
    indices (ties to the lower index); any other stage thresholds the mean
    vector by :func:`select_channels`, floor and half-cut rule included.  The
    kept set rewrites every block's output conv, the stage's shortcut convs,
    and the stem feeding the first stage; intermediate block channels are
    left untouched.
    """
    targets = config.stage_target_map
    if not graph.stages:
        raise PlanError("graph has no stage annotations")
    unknown = sorted(targets.keys() - {st.index for st in graph.stages})
    if unknown:
        raise PlanError(f"target width for stage {unknown[0]}, which the graph lacks")
    plan = PruningPlan(config, score_fingerprint=record.fingerprint())
    scores = record.layer_map()
    for st in sorted(graph.stages, key=lambda s: s.index):
        target = targets.get(st.index)
        if target is not None and target > st.width:
            raise PlanError(f"stage {st.index}: target {target} exceeds width {st.width}")
        votes = []
        for bid in st.block_ids:
            b = graph.block(bid)
            if b.kind != "basic":
                raise PlanError(f"stage-uniform policy needs basic blocks, "
                                f"block '{bid}' is {b.kind}")
            ls = scores.get(b.last_conv)
            if ls is None:
                raise PlanError(f"no score entry for block output conv '{b.last_conv}'")
            if ls.channels != st.width:
                raise PlanError(f"block '{bid}': scores cover {ls.channels} channels, "
                                f"stage width is {st.width}")
            votes.append(ls.mean)
        importance = np.mean(votes, axis=0)
        kept = tuple(int(i) for i in (select_channels(importance, config) if target is None
                                      else _top_k(importance, target)))
        plan.stages.append(StagePlan(st.index, len(kept), kept, tuple(st.block_ids)))
        for bid in st.block_ids:
            b = graph.block(bid)
            plan.layers.append(LayerPlan(b.last_conv, st.width, kept))
            if b.shortcut_conv is not None:
                plan.layers.append(LayerPlan(b.shortcut_conv, st.width, kept))
    # the stem feeds the first stage through an identity shortcut and must
    # share its kept set; with a projection shortcut it may keep full width
    first = min(graph.stages, key=lambda s: s.index)
    first_block = graph.block(first.block_ids[0])
    stem_conv = graph.upstream_conv(first_block.first_conv)
    if stem_conv is not None and first_block.shortcut_conv is None:
        stage_plan = plan.stages[0]
        stem_width = graph.node(stem_conv).attrs["out_channels"]
        if stem_width != first.width:
            raise PlanError(f"stem width {stem_width} != first stage width {first.width}")
        plan.layers.append(LayerPlan(stem_conv, stem_width, stage_plan.kept))
    plan.validate()
    return plan


def plan_bottleneck(record: ScoreRecord, graph: ArchitectureGraph,
                    config: PruneConfig) -> PruningPlan:
    """Threshold only each bottleneck block's middle 3x3 conv channels."""
    bottlenecks = [b for b in graph.blocks if b.kind in ("bottleneck", "preact-bottleneck")]
    if not bottlenecks:
        raise PlanError("graph has no bottleneck blocks")
    for b in bottlenecks:
        if b.middle_conv is None:
            raise PlanError(f"block '{b.id}' has no middle conv")
    return _threshold_layers(record, graph, config,
                             [b.middle_conv for b in bottlenecks], "middle conv")


def make_plan(record: ScoreRecord, graph: ArchitectureGraph,
              config: PruneConfig) -> PruningPlan:
    if config.policy == "vgg-per-layer":
        return plan_vgg(record, graph, config)
    if config.policy == "resnet-stage-uniform":
        return plan_stage_uniform(record, graph, config)
    return plan_bottleneck(record, graph, config)


def identity_plan(graph: ArchitectureGraph, config: PruneConfig | None = None) -> PruningPlan:
    """Plan that keeps every channel of every convolution."""
    plan = PruningPlan(config or PruneConfig())
    for node in graph.nodes_of_kind("conv"):
        c = node.attrs["out_channels"]
        plan.layers.append(LayerPlan(node.id, c, tuple(range(c))))
    plan.validate()
    return plan

