"""Acceptance criteria.

One test per criterion, each printing a single PASS/FAIL line (visible with
``pytest -v -s tests/test_acceptance.py``).  Tolerances are pinned here,
not configurable: count reproductions allow 3% on absolute values and 2
percentage points on reduction rates; gradient checks demand 1e-4 relative
error in 64-bit mode; selection equivalence is exact.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prunekit import (DatasetSpec, ModelBundle, Network, PruneConfig,
                      RewriteOptions, TrainConfig, apply, build, collect_scores,
                      count_flops, count_params, identity_plan, load_dataset,
                      select_channels, train)
from prunekit.accounting import CompressionReport
from prunekit.gate import excite
from prunekit.pipeline import PipelineConfig, run_pipeline
from prunekit.planner import LayerPlan, PruningPlan, make_plan
from prunekit.scoring import LayerScore, ScoreRecord, attribute_scored_channels

from gradcheck import grad_check
from oracles import select_channels_reference

VGG19_PRUNED_3 = [40, 64, 128, 128, 256, 256, 256, 256,
                  256, 133, 195, 256, 256, 256, 256, 256]
VGG19_PRUNED_8 = [35, 64, 128, 128, 128, 128, 128, 128,
                  256, 129, 235, 394, 256, 6, 230, 104]


def emit(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def reductions(before, after):
    p = 100 * (1 - count_params(after) / count_params(before))
    f = 100 * (1 - count_flops(after) / count_flops(before))
    return p, f


def engineered_record(graph, widths):
    convs = [n.id for n in graph.nodes_of_kind("conv")]
    layers = []
    for cid, keep in zip(convs, widths):
        c = graph.node(cid).attrs["out_channels"]
        s = np.full(c, 0.1)
        s[:keep] = 0.9
        layers.append(LayerScore(cid, cid + "/gate", c, s, np.zeros(c), 1))
    return ScoreRecord(layers)


# -- 1: baseline parameter/FLOP reproduction ---------------------------------

def test_criterion_01_baseline_counts():
    rows = [
        ("vgg16", 10, 1.50e7, 3.14e8, "mac"),
        ("vgg19", 100, 2.03e7, 7.99e8, "opcount"),
        ("resnet56", 10, 8.53e5, 1.27e8, "mac"),
        ("preresnet164", 100, 1.73e6, 5.14e8, "opcount"),
    ]
    msgs, ok = [], True
    for arch, classes, p_ref, f_ref, convention in rows:
        g = build(arch, classes, init=False)
        p, f = count_params(g), count_flops(g, convention=convention)
        dp, df = abs(p - p_ref) / p_ref, abs(f - f_ref) / f_ref
        ok &= dp < 0.03 and df < 0.03
        msgs.append(f"{arch} params {dp:.1%} flops {df:.1%}")
    emit(1, ok, "baseline counts within 3%: " + "; ".join(msgs))


# -- 2: published channel vectors reproduce published reductions -------------

def test_criterion_02_vgg19_pruned_columns():
    graph = build("vgg19", 100, seed=0)
    results, ok = [], True
    for beta, widths, p_want, f_want in [(3, VGG19_PRUNED_3, 68.3, 37.7),
                                         (8, VGG19_PRUNED_8, 81.3, 62.8)]:
        record = engineered_record(graph, widths)
        plan = make_plan(record, graph, PruneConfig(beta=beta, sign="minus"))
        got = [len(plan.layer(n.id).kept) for n in graph.nodes_of_kind("conv")]
        assert got == widths
        compact = apply(ModelBundle(graph), plan,
                        RewriteOptions(mode="architecture-only", seed=1))
        p_red, f_red = reductions(graph, compact.graph)
        ok &= abs(p_red - p_want) < 2.0 and abs(f_red - f_want) < 2.0
        results.append(f"({beta}): params -{p_red:.1f}% flops -{f_red:.1f}%")
    emit(2, ok, "vgg19 pruned columns: " + "; ".join(results))


# -- 3: stage-uniform reproduction --------------------------------------------

def test_criterion_03_stage_uniform_rates():
    graph = build("resnet56", 10, seed=0)
    record = ScoreRecord([
        LayerScore(b.last_conv, b.last_conv, st.width,
                   np.linspace(0.9, 0.1, st.width), np.zeros(st.width), 1)
        for st in graph.stages for b in [graph.block(bid) for bid in st.block_ids]])
    results, ok = [], True
    for targets, p_want, f_want in [(((1, 8), (2, 32), (3, 32)), 39.6, 33.3),
                                    (((1, 8), (2, 16), (3, 16)), 68.3, 57.6)]:
        cfg = PruneConfig(policy="resnet-stage-uniform", stage_targets=targets)
        plan = make_plan(record, graph, cfg)
        compact = apply(ModelBundle(graph), plan,
                        RewriteOptions(mode="architecture-only", seed=1))
        p_red, f_red = reductions(graph, compact.graph)
        ok &= abs(p_red - p_want) < 2.0 and abs(f_red - f_want) < 2.0
        label = "-".join(str(t[1]) for t in targets)
        results.append(f"{label}: params -{p_red:.1f}% flops -{f_red:.1f}%")
    emit(3, ok, "resnet56 stage-uniform: " + "; ".join(results))


# -- 4: selection rule equals the brute-force oracle --------------------------

def test_criterion_04_selection_oracle_equivalence():
    rng = np.random.default_rng(20240)
    checked = 0
    for _ in range(1000):
        c = int(rng.integers(1, 65))
        s = rng.uniform(0.01, 0.99, size=c)
        if rng.uniform() < 0.1:
            s[:] = 0.5
        floor = int(rng.choice([1, 2]))
        half = bool(rng.uniform() < 0.5)
        for beta in (1, 2, 4, 8):
            for sign in ("minus", "plus"):
                cfg = PruneConfig(beta=beta, sign=sign, min_channels=floor,
                                  half_rule=half)
                got = select_channels(s, cfg).tolist()
                want = select_channels_reference(s, beta, sign, floor, half)
                assert got == want, (s[:8], beta, sign, floor, half)
                checked += 1
    emit(4, checked == 8000, f"select_channels == oracle on {checked} cases")


# -- 5: pruning amount monotone in the config sequence ------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=48),
                min_size=1, max_size=8))
def test_criterion_05_hyperparameter_monotonicity(layer_scores):
    sequence = [("minus", 2), ("minus", 4), ("minus", 6), ("minus", 8),
                ("plus", 6), ("plus", 4), ("plus", 2)]
    totals = [sum(len(s) - select_channels(np.asarray(s),
                                           PruneConfig(beta=b, sign=sg)).size
                  for s in layer_scores) for sg, b in sequence]
    assert all(a <= b for a, b in zip(totals, totals[1:])), totals


def test_criterion_05_report():
    emit(5, True, "pruned-channel count non-decreasing along "
                  "(minus,2)...(plus,2) on random score records")


# -- 6: gradient fidelity of a gated network ----------------------------------

def test_criterion_06_gradient_fidelity():
    bundle = ModelBundle(build("tiny-vgg", 3, with_gates=True, reduction=4,
                               seed=2))
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 8, 16, 16)).astype(np.float32)
    y = rng.integers(0, 3, size=2)
    report = grad_check(bundle, x, y, samples_per_tensor=4, weight_decay=1e-4)
    emit(6, report.ok and report.max_rel_err < 1e-4,
         f"gated network max relative gradient error {report.max_rel_err:.2e} "
         f"over {report.checked} sampled entries (64-bit)")


# -- 7: zero-weight excitation plateau ----------------------------------------

def test_criterion_07_zero_weight_half_law():
    for c, r in ((8, 2), (16, 4), (64, 16)):
        hid = max(1, c // r)
        s = excite(np.random.default_rng(c).uniform(0, 5, size=c)[None],
                   np.zeros((hid, c)), np.zeros((c, hid)))
        assert (s == 0.5).all()
    emit(7, True, "zero-weight excitation is exactly 0.5 per channel")


# -- 8: planted-task channel importance ----------------------------------------

SEEDS = (0, 1, 2)


def gated_planted_run(seed):
    spec = DatasetSpec(source="synthetic-planted", classes=4, samples=512,
                       channels=8, signal_channels=4, seed=seed)
    train_data = load_dataset(spec)
    eval_data = load_dataset(DatasetSpec.from_dict(
        {**spec.to_dict(), "split": "eval", "samples": 256}))
    bundle = ModelBundle(build("tiny-vgg", 4, with_gates=True, reduction=4,
                               seed=seed + 100))
    cfg = TrainConfig(epochs=25, batch_size=64, lr=0.05, weight_decay=1e-4,
                      seed=seed)
    trained, history = train(bundle, train_data, eval_data, cfg)
    return spec, train_data, trained, history


def test_criterion_08_planted_feature_importance():
    margins, ok = [], True
    for seed in SEEDS:
        spec, train_data, trained, history = gated_planted_run(seed)
        assert history[-1]["epoch"] >= 20
        record = collect_scores(trained, train_data.batches(64))
        muted = load_dataset(replace(spec, amplitude=0.0))
        sig, noise = attribute_scored_channels(trained, train_data.x[:256],
                                               muted.x[:256])
        s = record.layers[0].mean
        margin = float(s[sig].mean() - s[noise].mean())
        ok &= margin > 0
        margins.append(f"seed {seed}: {margin:+.4f}")
    emit(8, ok, "signal-channel score exceeds noise-channel score at the "
                "first scored layer: " + "; ".join(margins))


# -- 9: desk-scale prune-and-retrain keeps accuracy ----------------------------

def test_criterion_09_desk_scale_retrain(tmp_path):
    seed = 0
    spec = DatasetSpec(source="synthetic-planted", classes=4, samples=512,
                       channels=8, signal_channels=4, seed=seed)
    train_data = load_dataset(spec)
    eval_data = load_dataset(DatasetSpec.from_dict(
        {**spec.to_dict(), "split": "eval", "samples": 256}))
    cfg = TrainConfig(epochs=25, batch_size=64, lr=0.05, weight_decay=1e-4,
                      seed=seed)
    baseline = ModelBundle(build("tiny-vgg", 4, seed=50))
    _, base_history = train(baseline, train_data, eval_data, cfg)
    base_acc = max(h["eval_acc"] for h in base_history)

    pipe = PipelineConfig(arch="tiny-vgg", num_classes=4, data=spec, train=cfg,
                          prune=PruneConfig(beta=1, sign="minus"),
                          seed=seed, out=str(tmp_path / "exp"))
    run_pipeline(pipe)
    import json, os
    final = json.load(open(os.path.join(pipe.out, "final.json")))
    report = json.load(open(os.path.join(pipe.out, "report.json")))
    ok = final["eval_acc"] >= base_acc - 0.02
    emit(9, ok, f"retrained compact net eval {final['eval_acc']:.3f} vs baseline "
                f"{base_acc:.3f} (params -{report['pruned_params_pct']}%, "
                f"epochs {report['epoch_recommendation']})")


# -- 10: identity plan with inheritance is a bitwise no-op ---------------------

def test_criterion_10_identity_plan_neutrality():
    bundle = ModelBundle(build("tiny-vgg", 4, with_gates=True, reduction=4,
                               seed=9))
    out = apply(bundle, identity_plan(bundle.graph),
                RewriteOptions(mode="inherit-weights", strip_gates=False))
    x = np.random.default_rng(4).normal(size=(8, 8, 16, 16)).astype(np.float32)
    before = Network(bundle.graph).forward(x)
    after = Network(out.graph).forward(x)
    ok = (before == after).all()
    emit(10, ok, "identity plan with weight inheritance and gates retained "
                 "leaves forward outputs bitwise unchanged")


# -- 11: FLOP-matched epoch arithmetic ----------------------------------------

def test_criterion_11_epoch_scaling_arithmetic():
    rep = CompressionReport(params_before=1, params_after=1,
                            flops_before=int(7.99e8), flops_after=int(2.97e8),
                            base_epochs=160)
    emit(11, rep.epoch_recommendation == 430,
         f"round(160 x 7.99e8 / 2.97e8) = {rep.epoch_recommendation}")
