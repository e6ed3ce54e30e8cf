"""End-to-end orchestration: train, score, plan, rewrite, retrain, report.

Each stage is a function that computes its artifact, a model bundle or a
record, from the config and the artifacts before it, and writes only its
side files (``data.json``, the training histories, ``final.json``).  One
runner, :func:`_run_stages`, saves every artifact at its path in
:data:`STAGES`, hashes it and appends the stage's manifest row: name, wall
time, input and output hash.  A stage's input hash is the previous stage's
output hash, and build's is the content hash of the config without ``out``,
so a manifest is a verifiable chain that does not depend on where the
experiment lives.  A failing stage persists the partial manifest before the
failure propagates.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

from .accounting import report as make_report
from .builders import build
from .bundle import ModelBundle, bundle_fingerprint, save_bundle
from .data import DatasetSpec, load_dataset
from .errors import StageFailure
from .planner import PruneConfig, make_plan
from .records import Record, at_least, content_hash, write_json
from .rewriter import REWRITE_MODES, RewriteOptions, apply
from .scoring import collect_scores
from .trainer import TrainConfig, retrain, train


@dataclass
class PipelineConfig(Record):
    arch: str = "tiny-vgg"
    num_classes: int = 4
    data: DatasetSpec | None = None
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=20, lr=0.05))
    prune: PruneConfig = field(default_factory=lambda: PruneConfig(beta=1, sign="minus"))
    rewrite_mode: str = "architecture-only"   # retrain from scratch; "inherit-weights" fine-tunes
    gate_placement: str | None = None
    reduction: int = 4      # desk-scale default; wide nets conventionally use 16
    score_batches: int | None = None
    seed: int = 0
    out: str = "experiment"

    def __post_init__(self):
        at_least(self, num_classes=2, reduction=1, score_batches=1, seed=0)
        if self.data is None:
            self.data = DatasetSpec(source="synthetic-planted", classes=self.num_classes,
                                    seed=self.seed)
        if self.data.source.startswith("synthetic") and self.data.classes != self.num_classes:
            raise ValueError(f"data.classes ({self.data.classes}) must equal num_classes "
                             f"({self.num_classes}) for synthetic data")
        if self.rewrite_mode not in REWRITE_MODES:
            raise ValueError(f"rewrite_mode must be one of {REWRITE_MODES}, "
                             f"got '{self.rewrite_mode}'")


class ExperimentManifest:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.rows: list[dict] = []

    def record(self, stage: str, input_hash: str, output_hash: str,
               path: str, seconds: float) -> None:
        self.rows.append({
            "stage": stage, "input": input_hash, "output": output_hash,
            "path": path, "seconds": round(seconds, 3),
        })

    def verify_chain(self) -> bool:
        for prev, cur in zip(self.rows, self.rows[1:]):
            if cur["input"] != prev["output"]:
                return False
        return True

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(), "stages": self.rows}

    def save(self, path: str) -> None:
        write_json(self.to_dict(), path)


def stage_build(config: PipelineConfig, state: dict) -> ModelBundle:
    graph = build(config.arch, config.num_classes, with_gates=True,
                  gate_placement=config.gate_placement, reduction=config.reduction,
                  input_shape=(config.data.channels, config.data.image_size,
                               config.data.image_size)
                  if config.data.source.startswith("synthetic") else None,
                  seed=config.seed)
    return ModelBundle(graph, {"arch": config.arch, "seed": config.seed})


def stage_train(config: PipelineConfig, state: dict) -> ModelBundle:
    train_data = load_dataset(config.data)
    eval_data = load_dataset(replace(config.data, split="eval"))
    state["train_data"], state["eval_data"] = train_data, eval_data
    write_json({"spec": config.data.to_dict(),
                "normalization": train_data.normalization,
                "train_samples": train_data.size,
                "eval_samples": eval_data.size}, os.path.join(config.out, "data.json"))
    trained, history = train(state["build"], train_data, eval_data, config.train)
    write_json(history, os.path.join(config.out, "history.json"))
    return trained


def stage_score(config: PipelineConfig, state: dict) -> Record:
    # state["hash"] is the train row's output hash: the trained bundle's fingerprint
    return collect_scores(state["train"], state["train_data"].batches(config.train.batch_size),
                          max_batches=config.score_batches, model=state["hash"])


def stage_plan(config: PipelineConfig, state: dict) -> Record:
    return make_plan(state["score"], state["train"].graph, config.prune)


def stage_apply(config: PipelineConfig, state: dict) -> ModelBundle:
    return apply(state["train"], state["plan"],
                 RewriteOptions(mode=config.rewrite_mode, strip_gates=True, seed=config.seed + 1))


def stage_report(config: PipelineConfig, state: dict) -> Record:
    return make_report(state["train"].graph, state["apply"].graph,
                       base_epochs=config.train.epochs)


def stage_retrain(config: PipelineConfig, state: dict) -> ModelBundle:
    rep = state["report"]
    retrained, history = retrain(state["apply"], state["train_data"],
                                 state["eval_data"], config.train, rep)
    write_json(history, os.path.join(config.out, "retrain-history.json"))
    # train already evaluated the checkpoint it returns, at its best epoch
    write_json({"eval_acc": history[retrained.metadata["best_epoch"]]["eval_acc"],
                "epochs": rep.epoch_recommendation}, os.path.join(config.out, "final.json"))
    return retrained


# every stage in run order: the function computing its artifact, and the
# artifact's path under the experiment directory (a directory for a bundle)
STAGES = {
    "build": (stage_build, "model-gated"), "train": (stage_train, "model-trained"),
    "score": (stage_score, "scores.json"), "plan": (stage_plan, "plan.json"),
    "apply": (stage_apply, "model-compact"), "report": (stage_report, "report.json"),
    "retrain": (stage_retrain, "model-retrained"),
}
PIPELINE_STAGES = tuple(STAGES)


def _save(artifact, path: str) -> str:
    """Persist a stage's artifact, a bundle or a record, at ``path``; returns its hash."""
    if isinstance(artifact, ModelBundle):
        save_bundle(artifact, path)
        return bundle_fingerprint(artifact)
    artifact.save(path)
    return artifact.fingerprint()


def _run_stages(config: PipelineConfig, names, state: dict):
    """Run the named stages in order, persisting artifacts under ``config.out``.

    ``state`` maps each stage name to its in-memory artifact, ``"hash"`` to
    the last stage's output hash, and holds the loaded datasets; passing the
    state one call returns into another continues the run and its chain from
    there.  Returns the manifest of the stages run here and the state.
    """
    os.makedirs(config.out, exist_ok=True)
    manifest = ExperimentManifest(config)
    manifest_path = os.path.join(config.out, "manifest.json")
    for name in names:
        fn, artifact = STAGES[name]
        path = os.path.join(config.out, artifact)
        # the chain starts at the config; ``out`` is left out, so a moved run keeps its hashes
        input_hash = state["hash"] if name != "build" else content_hash(
            {k: v for k, v in config.to_dict().items() if k != "out"})
        start = time.monotonic()
        try:
            state[name] = fn(config, state)
            state["hash"] = _save(state[name], path)
        except Exception as exc:
            manifest.rows.append({"stage": name, "error": str(exc),
                                  "error_type": type(exc).__name__})
            manifest.save(manifest_path)
            raise StageFailure(name, exc) from exc
        manifest.record(name, input_hash, state["hash"], path, time.monotonic() - start)
        manifest.save(manifest_path)
    return manifest, state


def run_pipeline(config: PipelineConfig) -> ExperimentManifest:
    """Execute the full prune-and-retrain cycle, persisting every artifact."""
    return _run_stages(config, PIPELINE_STAGES, {})[0]


def run_sweep(config: PipelineConfig, variants: list[tuple[str, int]]) -> list[dict]:
    """Plan + rewrite + report once per (sign, beta), sharing the trained model.

    Build, train and score run once under ``<out>/sweep-base``; each variant's
    plan, apply and report stages run under ``<out>/<sign>-<beta>``, each
    directory with its own manifest.  Returns one row per variant with its
    compression rates; rows come back in the order given.
    """
    variant_cfgs = [
        replace(config, out=os.path.join(config.out, f"{sign}-{beta}"),
                prune=replace(config.prune, sign=sign, beta=beta))
        for sign, beta in variants]
    base_cfg = replace(config, out=os.path.join(config.out, "sweep-base"))
    _, base = _run_stages(base_cfg, ("build", "train", "score"), {})
    rows = []
    for cfg in variant_cfgs:
        _, state = _run_stages(cfg, ("plan", "apply", "report"), dict(base))
        plan, rep = state["plan"], state["report"]
        rows.append({
            "sign": cfg.prune.sign, "beta": cfg.prune.beta,
            "pruned_channels": sum(lp.original - len(lp.kept) for lp in plan.layers),
            "pruned_params_pct": rep.pruned_params_pct,
            "pruned_flops_pct": rep.pruned_flops_pct,
        })
    write_json(rows, os.path.join(config.out, "sweep.json"))
    return rows
