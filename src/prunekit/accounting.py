"""Parameter and FLOP accounting, compression reports, epoch budgeting.

Two FLOP conventions are supported because published CIFAR baselines mix
them:

* ``mac``      -- one multiply-accumulate = one FLOP; convolutions and fully
                  connected layers only.  This matches the convention behind
                  the 3.14e8 VGG-16 / 1.27e8 ResNet-56 baselines.
* ``opcount``  -- multiply and add counted separately (2 per MAC) plus
                  elementwise work for batchnorm, activations, pooling and
                  residual adds.  This matches the convention behind the
                  7.99e8 VGG-19 / 5.14e8 pre-activation ResNet-164 baselines.

Ratios (compression / acceleration rates) are nearly identical under either
convention; ``mac`` is the default everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import ArchitectureGraph
from .layers import kind_of
from .records import Record, at_least

CONVENTIONS = ("mac", "opcount")
EPOCH_MODES = ("flop-matched", "literal-fraction")
# derived report values, each written after the field it follows in report.json
DERIVED_AFTER = {"flops_after": ("pruned_params_pct", "pruned_flops_pct"),
                 "epoch_mode": ("epoch_recommendation",)}


def node_param_count(node) -> int:
    """Parameters a node contributes; running statistics are excluded."""
    rules = kind_of(node)
    shapes = rules.param_shapes(node.attrs)
    return sum(math.prod(shapes[name]) for name in rules.trainable if name in shapes)


def count_params(graph: ArchitectureGraph) -> int:
    return sum(node_param_count(node) for node in graph.nodes)


def node_flop_count(node, in_shape, out_shape, convention: str) -> int:
    """Per-sample FLOPs for one node given its inferred input/output shapes."""
    rules = kind_of(node)
    count = rules.macs if convention == "mac" else rules.opcount
    return count(node.attrs, in_shape, out_shape)


def count_flops(graph: ArchitectureGraph, convention: str = "mac") -> int:
    """Per-sample FLOPs for a whole graph under the given convention."""
    return sum(r["flops"] for r in breakdown(graph, convention))


def breakdown(graph: ArchitectureGraph, convention: str = "mac") -> list[dict]:
    """Per-node params/FLOPs rows; the totals equal the sums exactly."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown FLOP convention '{convention}'")
    io = graph.io_shapes()
    rows = []
    for node in graph.nodes:
        ins, out = io[node.id]
        rows.append({
            "id": node.id,
            "kind": node.kind,
            "out_shape": out,
            "params": node_param_count(node),
            "flops": node_flop_count(node, ins[0], out, convention),
        })
    return rows


@dataclass
class CompressionReport(Record):
    params_before: int
    params_after: int
    flops_before: int
    flops_after: int
    base_epochs: int | None = None
    epoch_mode: str = "flop-matched"
    convention: str = "mac"
    per_layer: list = field(default_factory=list)

    def __post_init__(self):
        at_least(self, params_before=1, flops_before=1, flops_after=1, params_after=0,
                 base_epochs=1)
        if self.epoch_mode not in EPOCH_MODES:
            raise ValueError(f"epoch_mode must be one of {EPOCH_MODES}, got '{self.epoch_mode}'")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}, got '{self.convention}'")

    @property
    def pruned_params_pct(self) -> float:
        return round(100.0 * (1.0 - self.params_after / self.params_before), 1)

    @property
    def pruned_flops_pct(self) -> float:
        return round(100.0 * (1.0 - self.flops_after / self.flops_before), 1)

    @property
    def epoch_recommendation(self) -> int | None:
        """Retraining epochs.

        ``flop-matched`` scales the baseline epochs by FLOPs-before /
        FLOPs-after, keeping total training compute equal before and after
        pruning.  ``literal-fraction`` multiplies the baseline epochs by the
        pruned FLOP fraction instead.
        """
        if self.base_epochs is None:
            return None
        if self.epoch_mode == "literal-fraction":
            frac = 1.0 - self.flops_after / self.flops_before
            return max(1, round(self.base_epochs * frac))
        return max(1, round(self.base_epochs * self.flops_before / self.flops_after))

    def to_dict(self) -> dict:
        d = {}
        for name, value in super().to_dict().items():
            d[name] = value
            for derived in DERIVED_AFTER.get(name, ()):
                d[derived] = getattr(self, derived)
        return d

    @classmethod
    def from_dict(cls, d) -> "CompressionReport":
        """Inverse of :meth:`to_dict`; the derived percentages and epochs are recomputed."""
        if isinstance(d, dict):
            derived = {name for names in DERIVED_AFTER.values() for name in names}
            d = {k: v for k, v in d.items() if k not in derived}
        return super().from_dict(d)

    def to_text(self) -> str:
        lines = [
            f"{'metric':<12}{'before':>16}{'after':>16}{'pruned %':>10}",
            f"{'params':<12}{self.params_before:>16,}{self.params_after:>16,}"
            f"{self.pruned_params_pct:>10.1f}",
            f"{'flops':<12}{self.flops_before:>16,}{self.flops_after:>16,}"
            f"{self.pruned_flops_pct:>10.1f}",
        ]
        if self.base_epochs is not None:
            lines.append(f"retraining epochs: {self.epoch_recommendation} "
                         f"(base {self.base_epochs}, {self.epoch_mode})")
        return "\n".join(lines)


def report(before: ArchitectureGraph, after: ArchitectureGraph,
           base_epochs: int | None = None, epoch_mode: str = "flop-matched",
           convention: str = "mac") -> CompressionReport:
    """Compare two graphs structurally and budget the retraining epochs.

    Gates are left out of every count: they only score channels, and the
    rewrite strips them, so a gated model against its identity rewrite reads
    0% pruned.  ``per_layer`` has one row per parameterized layer of
    ``before``, with its output width and parameters on both sides; a layer
    missing from ``after`` reads 0.
    """
    def rows(graph):
        return [r for r in breakdown(graph, convention) if r["kind"] != "gate"]

    rows_before, rows_after = rows(before), rows(after)
    after_by_id = {r["id"]: r for r in rows_after}
    per_layer = []
    for b in rows_before:
        a = after_by_id.get(b["id"], {"out_shape": (0,), "params": 0})
        if b["params"] or a["params"]:
            per_layer.append({
                "id": b["id"], "kind": b["kind"],
                "width_before": b["out_shape"][0], "width_after": a["out_shape"][0],
                "params_before": b["params"], "params_after": a["params"],
            })
    return CompressionReport(
        params_before=sum(r["params"] for r in rows_before),
        params_after=sum(r["params"] for r in rows_after),
        flops_before=sum(r["flops"] for r in rows_before),
        flops_after=sum(r["flops"] for r in rows_after),
        base_epochs=base_epochs,
        epoch_mode=epoch_mode,
        convention=convention,
        per_layer=per_layer,
    )
