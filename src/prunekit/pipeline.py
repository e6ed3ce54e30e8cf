"""End-to-end orchestration: train, score, plan, rewrite, retrain, report.

Every stage persists its artifact under the experiment directory and logs a
manifest row holding the stage name, wall time, and content hashes; each
stage's input hash is the previous stage's output hash, so a manifest is a
verifiable chain.  A failing stage persists the partial manifest before the
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
from .records import Record, content_hash, write_json
from .rewriter import REWRITE_MODES, RewriteOptions, apply
from .scoring import collect_scores
from .trainer import TrainConfig, evaluate, retrain, train

PIPELINE_STAGES = ("build", "train", "score", "plan", "apply", "report", "retrain")
# stages whose artifact is a model bundle, and the directory it is saved in
STAGE_DIRS = {"build": "model-gated", "train": "model-trained",
              "apply": "model-compact", "retrain": "model-retrained"}


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


def _run_stages(config: PipelineConfig, names, state: dict):
    """Run the named stages in order, persisting artifacts under ``config.out``.

    ``state`` maps each stage name to its in-memory artifact (plus the loaded
    datasets); passing the state one call returns into another continues the
    run from there.  Returns the manifest of the stages run here and the state.
    """
    os.makedirs(config.out, exist_ok=True)
    manifest = ExperimentManifest(config)
    manifest_path = os.path.join(config.out, "manifest.json")

    def out(name):
        return os.path.join(config.out, name)

    def run_stage(name, fn):
        start = time.monotonic()
        try:
            input_hash, output_hash, path = fn()
        except Exception as exc:
            manifest.rows.append({"stage": name, "error": str(exc),
                                  "error_type": type(exc).__name__})
            manifest.save(manifest_path)
            raise StageFailure(name, exc) from exc
        manifest.record(name, input_hash, output_hash, path, time.monotonic() - start)
        manifest.save(manifest_path)

    def save_stage_bundle(stage, bundle, input_hash):
        """Keep and persist a stage's model; returns the stage's manifest fields."""
        state[stage] = bundle
        path = out(STAGE_DIRS[stage])
        save_bundle(bundle, path)
        return input_hash, bundle_fingerprint(bundle), path

    def stage_build():
        graph = build(config.arch, config.num_classes, with_gates=True,
                      gate_placement=config.gate_placement, reduction=config.reduction,
                      input_shape=(config.data.channels, config.data.image_size,
                                   config.data.image_size)
                      if config.data.source.startswith("synthetic") else None,
                      seed=config.seed)
        bundle = ModelBundle(graph, {"arch": config.arch, "seed": config.seed})
        return save_stage_bundle("build", bundle, content_hash(config.to_dict()))

    def stage_train():
        ih = bundle_fingerprint(state["build"])
        train_data = load_dataset(config.data)
        eval_data = load_dataset(replace(config.data, split="eval"))
        state["train_data"], state["eval_data"] = train_data, eval_data
        write_json({"spec": config.data.to_dict(),
                    "normalization": train_data.normalization,
                    "train_samples": train_data.size,
                    "eval_samples": eval_data.size}, out("data.json"))
        trained, history = train(state["build"], train_data, eval_data, config.train)
        fields = save_stage_bundle("train", trained, ih)
        write_json(history, out("history.json"))
        return fields

    def stage_score():
        ih = bundle_fingerprint(state["train"])
        record = collect_scores(state["train"],
                                state["train_data"].batches(config.train.batch_size),
                                max_batches=config.score_batches)
        state["score"] = record
        record.save(out("scores.json"))
        return ih, record.fingerprint(), out("scores.json")

    def stage_plan():
        plan = make_plan(state["score"], state["train"].graph, config.prune)
        state["plan"] = plan
        plan.save(out("plan.json"))
        return state["score"].fingerprint(), plan.fingerprint(), out("plan.json")

    def stage_apply():
        opts = RewriteOptions(mode=config.rewrite_mode, strip_gates=True,
                              seed=config.seed + 1
                              if config.rewrite_mode == "architecture-only" else None)
        compact = apply(state["train"], state["plan"], opts)
        return save_stage_bundle("apply", compact, state["plan"].fingerprint())

    def stage_report():
        rep = make_report(state["train"].graph, state["apply"].graph,
                          base_epochs=config.train.epochs)
        state["report"] = rep
        rep.save(out("report.json"))
        return bundle_fingerprint(state["apply"]), rep.fingerprint(), out("report.json")

    def stage_retrain():
        rep = state["report"]
        retrained, history = retrain(state["apply"], state["train_data"],
                                     state["eval_data"], config.train, rep)
        fields = save_stage_bundle("retrain", retrained, rep.fingerprint())
        write_json(history, out("retrain-history.json"))
        final_acc = evaluate(retrained, state["eval_data"])
        write_json({"eval_acc": final_acc, "epochs": rep.epoch_recommendation},
                   out("final.json"))
        return fields

    stage_fns = {
        "build": stage_build, "train": stage_train, "score": stage_score,
        "plan": stage_plan, "apply": stage_apply, "report": stage_report,
        "retrain": stage_retrain,
    }
    for name in names:
        run_stage(name, stage_fns[name])
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
