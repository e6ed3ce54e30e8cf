"""Command-line interface.

Subcommands mirror the pipeline stages and can be chained by hand:
``build``, ``train``, ``score``, ``plan``, ``apply``, ``count``, ``report``,
``retrain``, ``pipeline``, ``sweep``.  Config-heavy commands read JSON files.
Exit codes: 0 success, 2 validation failure or a file that cannot be opened,
3 stage failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .accounting import (CONVENTIONS, EPOCH_MODES, CompressionReport, count_params,
                         report as make_report)
from .builders import ARCHITECTURES, build
from .bundle import ModelBundle, load_bundle, save_bundle
from .data import DatasetSpec, load_dataset
from .errors import (BundleIntegrityError, DataError, GraphValidationError,
                     PlanError, PrunekitError, StageFailure)
from .planner import POLICIES, SIGNS, PruneConfig, PruningPlan, make_plan
from .records import write_json
from .rewriter import RewriteOptions, apply as apply_plan
from .scoring import ScoreRecord, collect_scores
from .trainer import TrainConfig, retrain, train

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STAGE = 3


def _training_inputs(args):
    """The train config of ``--config`` and the train and eval sets of ``--data``."""
    cfg = TrainConfig.load(args.config) if args.config else TrainConfig()
    spec = DatasetSpec.load(args.data)
    return cfg, load_dataset(spec), load_dataset(replace(spec, split="eval"))


def cmd_build(args) -> int:
    graph = build(args.arch, args.classes, with_gates=args.with_gates,
                  gate_placement=args.placement, reduction=args.reduction,
                  seed=args.seed)
    save_bundle(ModelBundle(graph, {"arch": args.arch, "seed": args.seed}), args.out)
    print(f"built {args.arch} ({args.classes} classes) -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    bundle = load_bundle(args.model)
    cfg, train_data, eval_data = _training_inputs(args)
    trained, history = train(bundle, train_data, eval_data, cfg)
    save_bundle(trained, args.out)
    if args.history:
        write_json(history, args.history)
    print(f"trained {cfg.epochs} epochs; best eval acc "
          f"{max(h.get('eval_acc', 0) for h in history):.4f} -> {args.out}")
    return EXIT_OK


def cmd_score(args) -> int:
    bundle = load_bundle(args.model)
    data = load_dataset(DatasetSpec.load(args.data))
    record = collect_scores(bundle, data.batches(args.batch_size),
                            max_batches=args.max_batches)
    record.save(args.out)
    print(f"scored {len(record.layers)} layers over {record.metadata['samples']} "
          f"samples -> {args.out}")
    return EXIT_OK


def cmd_plan(args) -> int:
    cfg = PruneConfig(beta=args.beta, sign=args.sign, policy=args.policy,
                      min_channels=args.min_channels,
                      half_rule=args.half_rule == "on",
                      stage_targets=args.stage_targets)
    record = ScoreRecord.load(args.scores)
    plan = make_plan(record, load_bundle(args.model).graph, cfg)
    plan.save(args.out)
    pruned = sum(lp.original - len(lp.kept) for lp in plan.layers)
    print(f"planned {len(plan.layers)} layers, {pruned} channels pruned -> {args.out}")
    return EXIT_OK


def cmd_apply(args) -> int:
    bundle = load_bundle(args.model)
    plan = PruningPlan.load(args.plan)
    mode = "architecture-only" if args.mode == "scratch" else "inherit-weights"
    opts = RewriteOptions(mode=mode, strip_gates=not args.keep_gates, seed=args.seed)
    compact = apply_plan(bundle, plan, opts)
    save_bundle(compact, args.out)
    print(f"rewrote model ({args.mode}) -> {args.out}")
    return EXIT_OK


def cmd_count(args) -> int:
    graph = load_bundle(args.model).graph
    counted = make_report(graph, graph, convention=args.convention)
    print(f"params {counted.params_before:,}")
    print(f"flops[{args.convention}] {counted.flops_before:,}")
    gates = graph.nodes_of_kind("gate")
    if gates:
        print(f"left out: {len(gates)} gates, "
              f"{count_params(graph) - counted.params_before:,} params")
    return EXIT_OK


def cmd_report(args) -> int:
    before = load_bundle(args.before)
    after = load_bundle(args.after)
    rep = make_report(before.graph, after.graph, base_epochs=args.base_epochs,
                      epoch_mode=args.epoch_mode, convention=args.convention)
    print(rep.to_text())
    if args.out:
        rep.save(args.out)
    return EXIT_OK


def cmd_retrain(args) -> int:
    rep = CompressionReport.load(args.report)
    bundle = load_bundle(args.model)
    cfg, train_data, eval_data = _training_inputs(args)
    retrained, history = retrain(bundle, train_data, eval_data, cfg, rep)
    save_bundle(retrained, args.out)
    acc = history[retrained.metadata["best_epoch"]]["eval_acc"]
    print(f"retrained {rep.epoch_recommendation} epochs; eval acc {acc:.4f} "
          f"-> {args.out}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    from .pipeline import PipelineConfig, run_pipeline
    cfg = PipelineConfig.load(args.config)
    if args.out:
        cfg.out = args.out
    manifest = run_pipeline(cfg)
    print(f"pipeline complete; manifest chain "
          f"{'ok' if manifest.verify_chain() else 'BROKEN'} -> {cfg.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .pipeline import PipelineConfig, run_sweep
    cfg = PipelineConfig.load(args.config)
    if args.out:
        cfg.out = args.out
    rows = run_sweep(cfg, args.variants)
    for r in rows:
        print(f"({r['sign']},{r['beta']}): {r['pruned_channels']} channels, "
              f"params -{r['pruned_params_pct']}%, flops -{r['pruned_flops_pct']}%")
    return EXIT_OK


def count(text: str) -> int:
    """A whole number of one or more, checked before any file is read."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _stage_targets(text: str) -> tuple:
    """``8,32,32`` as ((1, 8), (2, 32), (3, 32)): stage i keeps the i-th width."""
    try:
        return tuple((i + 1, int(t)) for i, t in enumerate(text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated widths such as 8,32,32, got '{text}'") from None


def _variants(text: str) -> list:
    """``minus:2,plus:8`` as [("minus", 2), ("plus", 8)]; the config checks the values."""
    try:
        return [(sign, int(beta)) for sign, beta in (v.split(":") for v in text.split(","))]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected sign:beta pairs such as minus:2,plus:8, got '{text}'") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="prunekit",
                                description="channel pruning toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct an architecture")
    b.add_argument("--arch", required=True, choices=ARCHITECTURES)
    b.add_argument("--classes", type=int, required=True)
    b.add_argument("--with-gates", action="store_true")
    b.add_argument("--placement", default=None)
    b.add_argument("--reduction", type=int, default=16)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--model", required=True)
    t.add_argument("--data", required=True, help="dataset spec JSON")
    t.add_argument("--config", default=None, help="train config JSON")
    t.add_argument("--history", default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train)

    s = sub.add_parser("score", help="collect gate scores")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--batch-size", type=count, default=64)
    s.add_argument("--max-batches", type=count, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_score)

    pl = sub.add_parser("plan", help="derive a pruning plan from scores")
    pl.add_argument("--scores", required=True)
    pl.add_argument("--model", required=True)
    pl.add_argument("--beta", type=int, default=2)
    pl.add_argument("--sign", choices=SIGNS, default="minus")
    pl.add_argument("--policy", choices=POLICIES, default="vgg-per-layer")
    pl.add_argument("--stage-targets", type=_stage_targets, default=None,
                    help="per-stage kept widths, e.g. 8,32,32; default: the threshold rule")
    pl.add_argument("--half-rule", choices=("on", "off"), default="off")
    pl.add_argument("--min-channels", type=int, default=1)
    pl.add_argument("--out", required=True)
    pl.set_defaults(fn=cmd_plan)

    a = sub.add_parser("apply", help="rewrite a model per a plan")
    a.add_argument("--model", required=True)
    a.add_argument("--plan", required=True)
    a.add_argument("--mode", choices=("scratch", "finetune"), default="scratch")
    a.add_argument("--keep-gates", action="store_true")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", required=True)
    a.set_defaults(fn=cmd_apply)

    c = sub.add_parser("count", help="count parameters and FLOPs")
    c.add_argument("--model", required=True)
    c.add_argument("--convention", choices=CONVENTIONS, default="mac")
    c.set_defaults(fn=cmd_count)

    r = sub.add_parser("report", help="compression report for two models")
    r.add_argument("--before", required=True)
    r.add_argument("--after", required=True)
    r.add_argument("--base-epochs", type=int, default=None)
    r.add_argument("--epoch-mode", choices=EPOCH_MODES, default="flop-matched")
    r.add_argument("--convention", choices=CONVENTIONS, default="mac")
    r.add_argument("--out", default=None)
    r.set_defaults(fn=cmd_report)

    rt = sub.add_parser("retrain", help="train a compact model for its report's epoch budget")
    rt.add_argument("--model", required=True)
    rt.add_argument("--data", required=True)
    rt.add_argument("--config", default=None)
    rt.add_argument("--report", required=True)
    rt.add_argument("--out", required=True)
    rt.set_defaults(fn=cmd_retrain)

    pp = sub.add_parser("pipeline", help="run the full prune-and-retrain cycle")
    pp.add_argument("--config", required=True)
    pp.add_argument("--out", default=None)
    pp.set_defaults(fn=cmd_pipeline)

    sw = sub.add_parser("sweep", help="plan/report across (sign,beta) variants")
    sw.add_argument("--config", required=True)
    sw.add_argument("--variants", type=_variants, default="minus:2,minus:8,plus:8,plus:2")
    sw.add_argument("--out", default=None)
    sw.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphValidationError, PlanError, DataError, BundleIntegrityError,
            ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageFailure as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except PrunekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as exc:   # e.g. a missing input path; the message names the file
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
