"""Turns score records into deterministic pruning plans.

The selection rule: a layer's threshold is ``(1 +/- 10**-beta) * mean(scores)``
and channels scoring strictly below it are pruned.  The sign is coarse
control (minus keeps the threshold under the mean, plus pushes it above),
beta is fine control.  Two guards apply after thresholding:

* a floor: at least ``min_channels`` survive, filled by top score;
* the half-cut rule: a layer whose scores sit uniformly at the sigmoid
  plateau 0.5 carries no ranking information, so when the rule is enabled
  the layer is cut to the first ``ceil(C/2)`` channels outright.

A policy is a grouping of convolutions.  Each group's voters average their
score vectors into one vote, the rule above (or a hand target's top ``k``)
picks one kept set from it, and every member of the group keeps that set:

* ``vgg-per-layer``: each conv is its own group;
* ``bottleneck-middle``: each bottleneck's middle 3x3 conv is its own group,
  so block I/O widths stay intact;
* ``resnet-stage-uniform``: one group per stage, whose blocks' output convs
  vote; its members are those convs, the stage's shortcut convs and, where
  the first block's shortcut is the identity, the stem, so residual adds
  stay dimensionally consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PlanError
from .graph import ArchitectureGraph
from .records import Record, at_least
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
        at_least(self, beta=1, min_channels=1)
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be one of {SIGNS}, got '{self.sign}'")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got '{self.policy}'")
        listed = set()
        for stage, target in self.stage_targets or ():
            if stage in listed:
                raise ValueError(f"stage_targets: stage {stage} is listed twice")
            if target < 1:
                raise ValueError(f"stage_targets: stage {stage}: target {target} is below 1")
            listed.add(stage)
        if self.stage_targets and self.policy != "resnet-stage-uniform":
            raise ValueError(f"stage_targets need the resnet-stage-uniform policy, "
                             f"got '{self.policy}'")


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
class PruningPlan(Record):
    RETIRED = ("stages",)   # the per-stage echo of older files; ``layers`` holds every set
    config: PruneConfig
    layers: list[LayerPlan] = field(default_factory=list)
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
# policies: each names the groups of convs that share one kept set

def _stage_groups(graph: ArchitectureGraph, config: PruneConfig) -> list:
    """One group per stage: its blocks' output convs vote, and the kept set also
    cuts the stage's shortcut convs and, ahead of an identity shortcut, the stem."""
    targets = dict(config.stage_targets or ())
    if not graph.stages:
        raise PlanError("graph has no stage annotations")
    unknown = sorted(targets.keys() - {st.index for st in graph.stages})
    if unknown:
        raise PlanError(f"target width for stage {unknown[0]}, which the graph lacks")
    groups, stages = [], sorted(graph.stages, key=lambda s: s.index)
    for st in stages:
        target = targets.get(st.index)
        if target is not None and target > st.width:
            raise PlanError(f"stage {st.index}: target {target} exceeds width {st.width}")
        blocks = [graph.block(bid) for bid in st.block_ids]
        for b in blocks:
            if b.kind != "basic":
                raise PlanError(f"stage-uniform policy needs basic blocks, "
                                f"block '{b.id}' is {b.kind}")
        groups.append(([b.last_conv for b in blocks], [
            c for b in blocks for c in (b.last_conv, b.shortcut_conv) if c is not None], target))
    # the stem feeds the first stage through an identity shortcut and must
    # share its kept set; with a projection shortcut it may keep full width
    first_block = graph.block(stages[0].block_ids[0])
    stem = graph.upstream_conv(first_block.first_conv)
    if stem is not None and first_block.shortcut_conv is None:
        stem_width = graph.node(stem).attrs["out_channels"]
        if stem_width != stages[0].width:
            raise PlanError(f"stem width {stem_width} != first stage width {stages[0].width}")
        groups[0][1].append(stem)
    return groups


def _groups(graph: ArchitectureGraph, config: PruneConfig) -> list:
    """The policy's ``(voters, members, target)`` groups, one per shared kept set."""
    if config.policy == "resnet-stage-uniform":
        return _stage_groups(graph, config)
    if config.policy == "vgg-per-layer":
        convs = [n.id for n in graph.nodes_of_kind("conv")]
    else:
        blocks = [b for b in graph.blocks if b.kind in ("bottleneck", "preact-bottleneck")]
        if not blocks:
            raise PlanError("graph has no bottleneck blocks")
        for b in blocks:
            if b.middle_conv is None:
                raise PlanError(f"block '{b.id}' has no middle conv")
        convs = [b.middle_conv for b in blocks]
    return [([c], [c], None) for c in convs]


def _vote(scores: dict, graph: ArchitectureGraph, conv: str, policy: str) -> np.ndarray:
    """A voting conv's mean score vector, checked against the conv's width."""
    ls = scores.get(conv)
    if ls is None:
        what = {"vgg-per-layer": "conv layer", "resnet-stage-uniform": "block output conv",
                "bottleneck-middle": "middle conv"}[policy]
        raise PlanError(f"no score entry for {what} '{conv}'")
    width = graph.node(conv).attrs["out_channels"]
    if ls.channels == width:
        return ls.mean
    if policy == "resnet-stage-uniform":    # a stage's voter is named by its block
        block = next(b.id for b in graph.blocks if b.last_conv == conv)
        raise PlanError(f"block '{block}': scores cover {ls.channels} channels, "
                        f"stage width is {width}")
    raise PlanError(f"layer '{conv}': scores cover {ls.channels} channels, layer has {width}")


def make_plan(record: ScoreRecord, graph: ArchitectureGraph,
              config: PruneConfig) -> PruningPlan:
    """One kept set per policy group, picked from its voters' mean vote, for every member."""
    plan = PruningPlan(config, score_fingerprint=record.fingerprint())
    scores = record.layer_map()
    for voters, members, target in _groups(graph, config):
        votes = [_vote(scores, graph, conv, config.policy) for conv in voters]
        vote = votes[0] if len(votes) == 1 else np.mean(votes, axis=0)
        kept = tuple((select_channels(vote, config) if target is None
                      else _top_k(vote, target)).tolist())
        plan.layers.extend(LayerPlan(conv, graph.node(conv).attrs["out_channels"], kept)
                           for conv in members)
    plan.validate()
    return plan


def identity_plan(graph: ArchitectureGraph, config: PruneConfig | None = None) -> PruningPlan:
    """Plan that keeps every channel of every convolution."""
    plan = PruningPlan(config or PruneConfig())
    for node in graph.nodes_of_kind("conv"):
        c = node.attrs["out_channels"]
        plan.layers.append(LayerPlan(node.id, c, tuple(range(c))))
    plan.validate()
    return plan

