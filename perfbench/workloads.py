"""The three benchmark workloads.

Each workload builds its inputs from the workload seed, sets up (several
times, keeping the median), then either measures untraced for a stated
number of seconds or does a fixed amount of work twice, untraced and then
traced.  Every workload checks its outputs; a failed stage, step, variant or
check counts against ``attempted``.

The prunekit modules are called through their module attributes
(``planner.make_plan``, not a bound name) so the tracer's wrappers see the
benchmark's own calls too.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

from prunekit import accounting, builders, bundle, data, errors, pipeline, planner
from prunekit import rewriter, scoring, trainer

from tracing import Tracer

SETUP_REPS = 5          # setup_s is the median of this many set-ups

# desk-pipeline: the README quick-start config, cut to DESK_EPOCHS epochs
DESK_EPOCHS = 2         # ~8 s per pipeline on a 2-core Xeon, so several fit in a run
DESK_ACC_FLOOR = 0.9    # the planted task is linearly separable; chance is 0.25
QUICK_START = {
    "arch": "tiny-vgg", "num_classes": 4,
    "data": {"source": "synthetic-planted", "classes": 4, "samples": 512,
             "channels": 8, "signal_channels": 4, "image_size": 16,
             "amplitude": 1.0, "noise_std": 0.5, "seed": 0,
             "split": "train", "subset": 1.0, "root": None},
    "train": {"epochs": 20, "batch_size": 64, "lr": 0.05, "momentum": 0.9,
              "weight_decay": 0.0001, "seed": 0, "loss_variant": "softmax-ce",
              "lr_milestones": [0.5, 0.75], "lr_gamma": 0.1, "augment": False},
    "prune": {"beta": 1, "sign": "minus", "policy": "vgg-per-layer",
              "min_channels": 1, "half_rule": False,
              "half_rule_tolerance": 1e-06, "stage_targets": None},
    "rewrite_mode": "architecture-only", "gate_placement": None,
    "reduction": 4, "score_batches": None, "seed": 0, "out": "experiment",
}

# cifar-train-resnet56: batch 2 keeps a step under 200 ms on a 2-core Xeon,
# so a 36 s run has over 150 steps and its p90 has at least 10 samples above it
CIFAR_BATCH = 2
CIFAR_POOL = 64         # samples cycled through by the closed loop
CIFAR_CLASSES = 10
TRACE_STEPS = 20        # steps in each half of a traced run

# prune-sweep-preresnet164: the README sweep list with the bottleneck policy
SWEEP_VARIANTS = (("minus", 2), ("minus", 8), ("plus", 8), ("plus", 2))
SWEEP_POLICY = "bottleneck-middle"
SCORE_BATCH = 8         # scoring 64 samples takes ~8 s on preresnet164

MODEL_SEED = 0          # architectures are initialised the same in every run;
                        # the workload seed draws the data


@dataclass
class Outcome:
    """What one workload run did, measured and checked."""
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)      # (name, ok, detail)
    reported: dict = field(default_factory=dict)    # name -> {value, unit, n}
    contract: dict = field(default_factory=dict)    # BENCHMARK.json end-to-end metrics
    layers: dict = field(default_factory=dict)      # per-layer metrics (traced runs)
    determinism: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)     # raw per-operation samples

    def ops(self, done: int, failed: int = 0) -> None:
        self.attempted += done + failed
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops(1 if ok else 0, 0 if ok else 1)
        self.checks.append((name, bool(ok), detail))
        return ok

    def report(self, name: str, value: float, unit: str, n: int, **extra) -> None:
        self.reported[name] = {"value": value, "unit": unit, "n": n, **extra}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(setup) -> float:
    """Run ``setup`` SETUP_REPS times; returns the median seconds."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def repeat_for(seconds: float, op) -> None:
    """Call ``op`` until another call would overrun ``seconds``.

    ``op`` returns False to stop early (a failure).  It runs at least twice,
    because the repeat checks compare each call with the first.
    """
    start, times = time.perf_counter(), []
    while len(times) < 2 or time.perf_counter() - start + statistics.median(times) <= seconds:
        t0 = time.perf_counter()
        if not op():
            break
        times.append(time.perf_counter() - t0)


def untraced_then_traced(tracer: Tracer, span: str, op, generator_classes=()) -> bool:
    """Call ``op`` untraced, then traced under a root span; True if both succeed."""
    if not op():
        return False
    tracer.install(generator_classes)
    try:
        with tracer.span(span):
            return op()
    finally:
        tracer.uninstall()


def percentile_above(samples: list[float], q: int) -> tuple[float, int]:
    """The q-th percentile and how many samples lie above it."""
    value = statistics.quantiles(samples, n=100)[q - 1]
    return value, sum(1 for s in samples if s > value)


# ---------------------------------------------------------------------------
# desk-pipeline

def desk_config(seed: int, out: str) -> pipeline.PipelineConfig:
    cfg = json.loads(json.dumps(QUICK_START))
    cfg["data"]["seed"] = seed
    cfg["train"]["epochs"] = DESK_EPOCHS
    cfg["out"] = out
    return pipeline.PipelineConfig.from_dict(cfg)


def _desk_warmup(cfg: pipeline.PipelineConfig):
    spec = cfg.data
    graph = builders.build(cfg.arch, cfg.num_classes, with_gates=True, reduction=cfg.reduction,
                           input_shape=(spec.channels, spec.image_size, spec.image_size),
                           seed=cfg.seed)
    train_data = data.load_dataset(spec)
    eval_data = data.load_dataset(data.DatasetSpec.from_dict({**spec.to_dict(), "split": "eval"}))
    one_batch = data.Dataset(train_data.x[:cfg.train.batch_size],
                             train_data.y[:cfg.train.batch_size], train_data.classes)
    warm_cfg = trainer.TrainConfig.from_dict({**cfg.train.to_dict(), "epochs": 1})
    trained, _ = trainer.train(bundle.ModelBundle(graph), one_batch, None, warm_cfg)
    trainer.evaluate(trained, eval_data)


class DeskPipeline:
    """run_pipeline on the README quick-start config: every stage and bundle I/O."""
    name = "desk-pipeline"

    def __init__(self, seed: int, workdir: str, tracer: Tracer):
        self.config = desk_config(seed, os.path.join(workdir, "experiment"))
        self.tracer = tracer
        self.hashes = None          # stage hashes of the first pipeline
        self.mismatches = 0
        self.reps: list[dict] = []

    def setup(self) -> None:
        _desk_warmup(self.config)

    def _once(self, out: Outcome) -> bool:
        cfg = self.config
        shutil.rmtree(cfg.out, ignore_errors=True)
        start = time.perf_counter()
        try:
            manifest = pipeline.run_pipeline(cfg)
        except errors.StageFailure as exc:
            with open(os.path.join(cfg.out, "manifest.json")) as f:
                done = len(json.load(f)["stages"]) - 1
            out.ops(done, 1)
            out.checks.append((f"stage {exc.stage}", False, str(exc.cause)))
            return False
        seconds = time.perf_counter() - start
        out.ops(len(manifest.rows))
        with self.tracer.paused():
            self._check(out, manifest, seconds)
        return True

    def _check(self, out: Outcome, manifest, seconds: float) -> None:
        cfg = self.config

        def read(name):
            with open(os.path.join(cfg.out, name)) as f:
                return json.load(f)

        rep, final, info = read("report.json"), read("final.json"), read("data.json")
        stage_s = {row["stage"]: row["seconds"] for row in manifest.rows}
        out.check("verify_chain", manifest.verify_chain())
        expect = round(cfg.train.epochs * rep["flops_before"] / rep["flops_after"])
        out.check("retrain epochs FLOP-matched", final["epochs"] == expect,
                  f"{final['epochs']} vs round({cfg.train.epochs}*{rep['flops_before']}"
                  f"/{rep['flops_after']}) = {expect}")
        out.check("final_eval_acc floor", final["eval_acc"] >= DESK_ACC_FLOOR,
                  f"{final['eval_acc']} >= {DESK_ACC_FLOOR}")
        hashes = [(row["stage"], row["input"], row["output"]) for row in manifest.rows]
        if self.hashes is None:
            self.hashes = hashes
        else:
            same = hashes == self.hashes
            diff = [h[0] for h, g in zip(hashes, self.hashes) if h != g]
            out.check("stage hashes identical across runs", same, ", ".join(diff))
            self.mismatches += not same
        trained = (cfg.train.epochs + final["epochs"]) * info["train_samples"]
        self.reps.append({
            "seconds": seconds, "stages": stage_s, "eval_acc": final["eval_acc"],
            "samples_per_s": trained / (stage_s["train"] + stage_s["retrain"]),
            "pruned_flops_pct": rep["pruned_flops_pct"], "retrain_epochs": final["epochs"],
        })

    def _determinism(self, out: Outcome) -> None:
        out.determinism = {
            "pipelines": len(self.reps),
            "identical": self.mismatches == 0,
            "stage_hashes": {s: o[:16] for s, _, o in (self.hashes or [])},
        }

    def measure(self, out: Outcome, seconds: float) -> None:
        repeat_for(seconds, lambda: self._once(out))
        self._determinism(out)
        if not self.reps:
            return
        pipe_s = [r["seconds"] for r in self.reps]
        out.samples["pipelines"] = self.reps
        rate = statistics.median(r["samples_per_s"] for r in self.reps)
        out.report("pipeline_s", statistics.median(pipe_s), "s", len(pipe_s))
        out.report("train_samples_per_s", rate, "1/s", len(self.reps))
        out.report("final_eval_acc", statistics.median(r["eval_acc"] for r in self.reps),
                   "fraction", len(self.reps), better="higher")
        out.contract["op_ms_p50"] = statistics.median(pipe_s) * 1e3
        out.contract["samples_per_s"] = rate

    def traced(self, out: Outcome) -> tuple[dict, float]:
        """One untraced pipeline, then one traced; returns (stage seconds, overhead %)."""
        ok = untraced_then_traced(self.tracer, "bench.pipeline", lambda: self._once(out))
        self._determinism(out)
        if not ok:
            return {}, 0.0
        base, traced = self.reps[0]["seconds"], self.reps[1]["seconds"]
        return self.reps[0]["stages"], 100.0 * (traced - base) / base


# ---------------------------------------------------------------------------
# cifar-train-resnet56

class StepClock(data.Dataset):
    """A fixed sample pool served as a closed loop, one batch per SGD step.

    ``train`` asks for the next batch only after finishing the previous
    step, so the gap between consecutive hand-outs is one step.  The loop
    ends after ``steps`` batches or at ``deadline`` (perf_counter seconds).
    """

    def __init__(self, pool: data.Dataset, steps: int | None = None,
                 deadline: float | None = None):
        super().__init__(pool.x, pool.y, pool.classes, pool.normalization)
        self.steps, self.deadline = steps, deadline
        self.stamps: list[float] = []

    def batches(self, batch_size, shuffle=False, rng=None):
        i = 0
        while True:
            now = time.perf_counter()
            self.stamps.append(now)
            if ((self.steps is not None and i >= self.steps)
                    or (self.deadline is not None and now >= self.deadline)):
                return
            start = (i * batch_size) % self.size
            yield self.x[start:start + batch_size], self.y[start:start + batch_size]
            i += 1

    def step_seconds(self) -> list[float]:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


class CifarTrainResnet56:
    """trainer.train on gated resnet56 at CIFAR input shape, one closed-loop epoch."""
    name = "cifar-train-resnet56"

    def __init__(self, seed: int, workdir: str, tracer: Tracer):
        self.seed = seed
        self.tracer = tracer
        self.config = trainer.TrainConfig(epochs=1, batch_size=CIFAR_BATCH, seed=MODEL_SEED)

    def setup(self) -> None:
        graph = builders.build("resnet56", CIFAR_CLASSES, with_gates=True, seed=MODEL_SEED)
        self.model = bundle.ModelBundle(graph, {"arch": "resnet56"})
        self.pool = data.load_dataset(data.DatasetSpec(
            source="synthetic-random", classes=CIFAR_CLASSES, samples=CIFAR_POOL,
            channels=3, image_size=32, seed=self.seed))
        trainer.train(self.model, StepClock(self.pool, steps=2), None, self.config)

    def _train(self, out: Outcome, clock: StepClock) -> list[float]:
        try:
            _, history = trainer.train(self.model, clock, None, self.config)
        except errors.TrainingDiverged as exc:
            steps = clock.step_seconds()
            out.ops(len(steps) - 1, 1)
            out.checks.append(("loss finite", False, str(exc)))
            return []
        steps = clock.step_seconds()
        out.ops(len(steps))
        out.check("loss finite", math.isfinite(history[0]["train_loss"]),
                  f"mean train loss {history[0]['train_loss']}")
        return steps

    def measure(self, out: Outcome, seconds: float) -> None:
        steps = self._train(out, StepClock(self.pool, deadline=time.perf_counter() + seconds))
        if len(steps) < 2:
            return
        ms = [s * 1e3 for s in steps]
        out.samples["step_ms"] = ms
        p90, above = percentile_above(ms, 90)
        rate = len(steps) * CIFAR_BATCH / sum(steps)
        out.report("step_ms_p50", statistics.median(ms), "ms", len(ms))
        out.report("step_ms_p90", p90, "ms", len(ms), above=above)
        out.report("train_samples_per_s", rate, "1/s", len(ms))
        out.contract["op_ms_p50"] = statistics.median(ms)
        out.contract["samples_per_s"] = rate

    def traced(self, out: Outcome) -> tuple[dict, float]:
        """TRACE_STEPS untraced steps, then as many traced; returns ({}, overhead %)."""
        halves = []

        def op():
            halves.append(self._train(out, StepClock(self.pool, steps=TRACE_STEPS)))
            return bool(halves[-1])

        if not untraced_then_traced(self.tracer, "bench.train", op, (StepClock,)):
            return {}, 0.0
        base, traced = (statistics.median(h) for h in halves)
        return {}, 100.0 * (traced - base) / base


# ---------------------------------------------------------------------------
# prune-sweep-preresnet164

class PruneSweepPreresnet164:
    """collect_scores once, then plan -> apply -> report -> save -> load per variant."""
    name = "prune-sweep-preresnet164"

    def __init__(self, seed: int, workdir: str, tracer: Tracer):
        self.seed = seed
        self.tracer = tracer
        self.bundle_dir = os.path.join(workdir, "compact")
        self.pcts: dict | None = None
        self.sweeps: list[float] = []
        self.variants: list[float] = []
        self.scoring: list[float] = []

    def setup(self) -> None:
        graph = builders.build("preresnet164", CIFAR_CLASSES, with_gates=True, seed=MODEL_SEED)
        self.model = bundle.ModelBundle(graph, {"arch": "preresnet164"})
        self.baseline = builders.strip_gates(graph)
        batch = data.load_dataset(data.DatasetSpec(
            source="synthetic-random", classes=CIFAR_CLASSES, samples=SCORE_BATCH,
            channels=3, image_size=32, seed=self.seed))
        self.batch = (batch.x, batch.y)
        scoring.collect_scores(self.model.copy(), [(batch.x[:1], batch.y[:1])], training=True)

    def _once(self, out: Outcome) -> bool:
        # training-mode scoring updates batchnorm running statistics, so
        # every sweep scores a fresh copy of the same model
        scored = self.model.copy()
        start = time.perf_counter()
        try:
            # eval-mode scoring saturates the untrained gates and raises
            record = scoring.collect_scores(scored, [self.batch], training=True)
        except errors.PrunekitError as exc:
            out.ops(0, 1)
            out.checks.append(("collect_scores", False, str(exc)))
            return False
        score_s = time.perf_counter() - start
        out.ops(1)
        busy, pcts = score_s, {}
        for sign, beta in SWEEP_VARIANTS:
            cfg = planner.PruneConfig(beta=beta, sign=sign, policy=SWEEP_POLICY)
            t0 = time.perf_counter()
            try:
                plan = planner.make_plan(record, self.model.graph, cfg)
                compact = rewriter.apply(self.model, plan, rewriter.RewriteOptions(
                    mode="architecture-only", seed=MODEL_SEED + 1))
                rep = accounting.report(self.baseline, compact.graph)
                bundle.save_bundle(compact, self.bundle_dir)
                bundle.load_bundle(self.bundle_dir)
            except errors.PrunekitError as exc:
                out.ops(0, 1)
                out.checks.append((f"variant {sign}:{beta}", False, str(exc)))
                return False
            seconds = time.perf_counter() - t0
            out.ops(1)
            busy += seconds
            self.variants.append(seconds)
            with self.tracer.paused():
                key = f"{sign}:{beta}"
                try:
                    compact.graph.check_valid()
                    out.check(f"{key} compact graph valid", True)
                except errors.GraphValidationError as exc:
                    out.check(f"{key} compact graph valid", False, str(exc))
                flops = accounting.count_flops(compact.graph)
                out.check(f"{key} report.flops_after == count_flops", rep.flops_after == flops,
                          f"{rep.flops_after} vs {flops}")
                pcts[key] = (rep.pruned_params_pct, rep.pruned_flops_pct)
        if self.pcts is None:
            self.pcts = pcts
        else:
            out.check("reduction percentages repeat", pcts == self.pcts,
                      f"{pcts} vs {self.pcts}")
        self.sweeps.append(busy)
        self.scoring.append(score_s)
        return True

    def measure(self, out: Outcome, seconds: float) -> None:
        repeat_for(seconds, lambda: self._once(out))
        if not self.sweeps:
            return
        ms = [s * 1e3 for s in self.variants]
        out.samples.update(variant_ms=ms, sweep_s=self.sweeps, score_s=self.scoring)
        rate = SCORE_BATCH / statistics.median(self.scoring)
        out.report("sweep_s", statistics.median(self.sweeps), "s", len(self.sweeps))
        out.report("variant_ms_p50", statistics.median(ms), "ms", len(ms))
        out.report("score_samples_per_s", rate, "1/s", len(self.scoring))
        out.determinism = {"reduction_pct": self.pcts}
        out.contract["op_ms_p50"] = statistics.median(ms)
        out.contract["samples_per_s"] = rate

    def traced(self, out: Outcome) -> tuple[dict, float]:
        """One untraced sweep, then one traced; returns ({}, overhead %)."""
        if not untraced_then_traced(self.tracer, "bench.sweep", lambda: self._once(out)):
            return {}, 0.0
        base, traced = self.sweeps
        return {}, 100.0 * (traced - base) / base


WORKLOADS = {w.name: w for w in (DeskPipeline, CifarTrainResnet56, PruneSweepPreresnet164)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str,
                 import_s: float) -> tuple[Outcome, Tracer]:
    """Set up and run one workload in this process."""
    tracer = Tracer()
    out = Outcome()
    # numpy generators take non-negative seeds; any integer names a workload input
    work = WORKLOADS[name](seed % (1 << 32), workdir, tracer)
    setup_s = import_s + timed_setup(work.setup)
    if trace:
        stages, overhead = work.traced(out)
        out.layers = tracer.layer_metrics(stages, overhead)
    else:
        work.measure(out, seconds)
    rss = peak_rss_mib()
    out.report("setup_s", setup_s, "s", SETUP_REPS)
    out.report("peak_rss_mib", rss, "MiB", 1)
    out.report("fail_ratio", out.failed / max(out.attempted, 1), "ratio", out.attempted)
    out.contract.update({"setup_s": setup_s, "peak_rss_mib": rss})
    return out, tracer
