"""Threshold rule, channel selection, and the three planning policies."""

import functools
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prunekit import (ModelBundle, PruneConfig, PruningPlan, build, count_flops,
                      count_params, make_plan, select_channels, threshold)
from prunekit.bundle import BLOB_NAME, MANIFEST_NAME, load_bundle
from prunekit.cli import main
from prunekit.errors import PlanError
from prunekit.planner import POLICIES, identity_plan, threshold_factor
from prunekit.rewriter import RewriteOptions, apply
from prunekit.scoring import LayerScore, ScoreRecord

from oracles import select_channels_reference

VGG19_PRUNED_3 = [40, 64, 128, 128, 256, 256, 256, 256,
                  256, 133, 195, 256, 256, 256, 256, 256]
VGG19_PRUNED_8 = [35, 64, 128, 128, 128, 128, 128, 128,
                  256, 129, 235, 394, 256, 6, 230, 104]


def record_for(graph, scores_by_layer):
    layers = [LayerScore(lid, lid + "/gate", len(s),
                         np.asarray(s, dtype=np.float64),
                         np.zeros(len(s)), 1)
              for lid, s in scores_by_layer.items()]
    return ScoreRecord(layers)


def engineered_scores(keep, total):
    """Score vector whose thresholded survivors are exactly the first `keep`."""
    s = np.full(total, 0.1)
    s[:keep] = 0.9
    return s


class TestThreshold:
    def test_minus_example(self):
        cfg = PruneConfig(beta=1, sign="minus")
        assert threshold(np.array([0.1, 0.2, 0.3, 0.4]), cfg) == pytest.approx(0.225)

    def test_plus_example(self):
        cfg = PruneConfig(beta=1, sign="plus")
        assert threshold(np.array([0.1, 0.26, 0.3, 0.34]), cfg) == pytest.approx(0.275)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=64),
           st.sampled_from([1, 2, 4, 8]), st.sampled_from(["minus", "plus"]))
    def test_factor_exactness(self, scores, beta, sign):
        cfg = PruneConfig(beta=beta, sign=sign)
        s = np.asarray(scores, dtype=np.float64)
        assert threshold(s, cfg) == threshold_factor(cfg) * s.mean()
        assert threshold_factor(cfg) in (1 - 10.0 ** -beta, 1 + 10.0 ** -beta)


class TestSelectChannels:
    def test_basic_example(self):
        cfg = PruneConfig(beta=1, sign="minus")
        kept = select_channels(np.array([0.1, 0.2, 0.3, 0.4]), cfg)
        assert kept.tolist() == [2, 3]

    def test_all_equal_scores_all_survive_under_minus(self):
        cfg = PruneConfig(beta=1, sign="minus")
        kept = select_channels(np.full(6, 0.37), cfg)
        assert kept.tolist() == list(range(6))

    def test_half_rule_cuts_plateau_layers(self):
        cfg = PruneConfig(beta=1, sign="minus", half_rule=True)
        kept = select_channels(np.full(8, 0.5), cfg)
        assert kept.tolist() == [0, 1, 2, 3]
        kept7 = select_channels(np.full(7, 0.5), cfg)
        assert kept7.tolist() == [0, 1, 2, 3]  # ceil(7/2)

    def test_half_rule_needs_plateau_at_half(self):
        cfg = PruneConfig(beta=1, sign="minus", half_rule=True)
        kept = select_channels(np.full(8, 0.37), cfg)   # flat but not at 0.5
        assert kept.tolist() == list(range(8))

    def test_tie_at_threshold_is_kept(self):
        # [0.45, 0.55] has mean exactly 0.5, so Thre(minus, beta=1) == 0.45
        cfg = PruneConfig(beta=1, sign="minus")
        s = np.array([0.45, 0.55])
        assert threshold(s, cfg) == s[0]
        assert select_channels(s, cfg).tolist() == [0, 1]

    def test_floor_keeps_top_scores(self):
        cfg = PruneConfig(beta=2, sign="plus", min_channels=2)
        s = np.array([0.2, 0.5, 0.2, 0.5, 0.1])
        kept = select_channels(s, cfg)
        assert kept.tolist() == [1, 3]  # ties go to the lower index

    def test_matches_reference_over_random_inputs(self, rng):
        for _ in range(100):
            c = int(rng.integers(1, 65))
            s = rng.uniform(0.01, 0.99, size=c)
            if rng.uniform() < 0.15:
                s[:] = 0.5
            beta = int(rng.choice([1, 2, 4, 8]))
            sign = str(rng.choice(["minus", "plus"]))
            half = bool(rng.uniform() < 0.5)
            floor = int(rng.choice([1, 3]))
            cfg = PruneConfig(beta=beta, sign=sign, half_rule=half,
                              min_channels=floor)
            got = select_channels(s, cfg).tolist()
            want = select_channels_reference(s, beta, sign, floor, half)
            assert got == want


class TestVggPolicy:
    @pytest.mark.parametrize("beta,column", [(3, VGG19_PRUNED_3),
                                             (8, VGG19_PRUNED_8)])
    def test_published_channel_columns(self, beta, column):
        graph = build("vgg19", 100, init=False)
        convs = [n.id for n in graph.nodes_of_kind("conv")]
        record = record_for(graph, {
            cid: engineered_scores(keep, graph.node(cid).attrs["out_channels"])
            for cid, keep in zip(convs, column)})
        plan = make_plan(record, graph, PruneConfig(beta=beta, sign="minus"))
        widths = [len(plan.layer(cid).kept) for cid in convs]
        assert widths == column

    def test_identity_scores_keep_everything(self):
        graph = build("tiny-vgg", 4, init=False)
        convs = graph.nodes_of_kind("conv")
        record = record_for(graph, {n.id: np.full(n.attrs["out_channels"], 0.6)
                                    for n in convs})
        plan = make_plan(record, graph, PruneConfig(beta=2, sign="minus"))
        for n in convs:
            assert list(plan.layer(n.id).kept) == list(range(n.attrs["out_channels"]))

    def test_beta1_pruned_subset_of_beta8(self, rng):
        graph = build("tiny-vgg", 4, init=False)
        convs = graph.nodes_of_kind("conv")
        record = record_for(graph, {
            n.id: rng.uniform(0.05, 0.95, size=n.attrs["out_channels"])
            for n in convs})
        p1 = make_plan(record, graph, PruneConfig(beta=1, sign="minus"))
        p8 = make_plan(record, graph, PruneConfig(beta=8, sign="minus"))
        for n in convs:
            pruned1 = set(range(n.attrs["out_channels"])) - set(p1.layer(n.id).kept)
            pruned8 = set(range(n.attrs["out_channels"])) - set(p8.layer(n.id).kept)
            assert pruned1 <= pruned8

    def test_missing_score_entry_is_named(self):
        graph = build("tiny-vgg", 4, init=False)
        record = record_for(graph, {"conv1": np.full(16, 0.5)})
        with pytest.raises(PlanError, match="conv2"):
            make_plan(record, graph, PruneConfig())


class TestStageUniformPolicy:
    def build_scored_resnet(self, arch="resnet56", classes=10, descending=True):
        graph = build(arch, classes, init=(arch != "resnet56"))
        scores = {}
        for b in graph.blocks:
            c = graph.node(b.last_conv).attrs["out_channels"]
            scores[b.last_conv] = (np.linspace(0.9, 0.1, c) if descending
                                   else np.full(c, 0.5))
        return graph, record_for(graph, scores)

    def test_resnet56_8_32_32_reproduces_published_rates(self):
        graph, record = self.build_scored_resnet()
        cfg = PruneConfig(policy="resnet-stage-uniform",
                          stage_targets=((1, 8), (2, 32), (3, 32)))
        plan = make_plan(record, graph, cfg)
        assert [len(plan.layer(graph.block(st.block_ids[0]).last_conv).kept)
                for st in graph.stages] == [8, 32, 32]
        from prunekit.builders import initialize_parameters
        initialize_parameters(graph, 0)
        compact = apply(ModelBundle(graph), plan,
                        RewriteOptions(mode="architecture-only", seed=1))
        p0, p1 = count_params(graph), count_params(compact.graph)
        f0, f1 = count_flops(graph), count_flops(compact.graph)
        assert 100 * (1 - p1 / p0) == pytest.approx(39.6, abs=2.0)
        assert 100 * (1 - f1 / f0) == pytest.approx(33.3, abs=2.0)

    def test_resnet56_8_16_16_reproduces_published_rates(self):
        graph, record = self.build_scored_resnet()
        cfg = PruneConfig(policy="resnet-stage-uniform",
                          stage_targets=((1, 8), (2, 16), (3, 16)))
        plan = make_plan(record, graph, cfg)
        from prunekit.builders import initialize_parameters
        initialize_parameters(graph, 0)
        compact = apply(ModelBundle(graph), plan,
                        RewriteOptions(mode="architecture-only", seed=1))
        assert 100 * (1 - count_params(compact.graph) / count_params(graph)) \
            == pytest.approx(68.3, abs=2.0)
        assert 100 * (1 - count_flops(compact.graph) / count_flops(graph)) \
            == pytest.approx(57.6, abs=2.0)

    def test_targets_equal_widths_is_identity(self):
        graph, record = self.build_scored_resnet("tiny-resnet", 4)
        cfg = PruneConfig(policy="resnet-stage-uniform",
                          stage_targets=((1, 8), (2, 16), (3, 32)))
        plan = make_plan(record, graph, cfg)
        for lp in plan.layers:
            assert list(lp.kept) == list(range(lp.original))

    def test_kept_set_is_top_k_of_block_mean_by_enumeration(self, rng):
        graph = build("tiny-resnet", 4, init=False)
        scores = {}
        for b in graph.blocks:
            c = graph.node(b.last_conv).attrs["out_channels"]
            scores[b.last_conv] = rng.uniform(0.05, 0.95, size=c)
        record = record_for(graph, scores)
        cfg = PruneConfig(policy="resnet-stage-uniform",
                          stage_targets=((1, 4), (2, 7), (3, 3)))
        plan = make_plan(record, graph, cfg)
        for st_info in graph.stages:
            votes = np.mean([scores[graph.block(bid).last_conv]
                             for bid in st_info.block_ids], axis=0)
            target = dict(cfg.stage_targets)[st_info.index]
            best = max(itertools.combinations(range(len(votes)), target),
                       key=lambda comb: sum(votes[list(comb)]))
            assert list(plan.layer(graph.block(st_info.block_ids[0]).last_conv).kept) \
                == sorted(best)

    def test_one_index_set_per_stage(self):
        graph, record = self.build_scored_resnet("tiny-resnet", 4)
        cfg = PruneConfig(policy="resnet-stage-uniform",
                          stage_targets=((1, 4), (2, 8), (3, 16)))
        plan = make_plan(record, graph, cfg)
        for st_info in graph.stages:
            blocks = [graph.block(bid) for bid in st_info.block_ids]
            convs = [c for b in blocks for c in (b.last_conv, b.shortcut_conv) if c]
            assert len({plan.layer(c).kept for c in convs}) == 1

    def test_stage_without_target_thresholds_its_mean_vote(self, rng):
        """Stage 2 keeps its hand target; stages 1 and 3 take the threshold rule."""
        graph = build("tiny-resnet", 4, init=False)
        widths = {b.last_conv: graph.node(b.last_conv).attrs["out_channels"]
                  for b in graph.blocks}
        scores = {conv: rng.uniform(0.05, 0.95, c) for conv, c in widths.items()}
        cfg = PruneConfig(beta=1, sign="plus", policy="resnet-stage-uniform",
                          stage_targets=((2, 5),))
        plan = make_plan(record_for(graph, scores), graph, cfg)
        for st_info in graph.stages:
            votes = np.mean([scores[graph.block(bid).last_conv]
                             for bid in st_info.block_ids], axis=0)
            want = (sorted(np.argsort(-votes, kind="stable")[:5]) if st_info.index == 2
                    else select_channels_reference(votes, cfg.beta, cfg.sign))
            assert list(plan.layer(graph.block(st_info.block_ids[0]).last_conv).kept) == want

    def test_plateau_stage_without_target_is_halved(self):
        graph, record = self.build_scored_resnet("tiny-resnet", 4, descending=False)
        plan = make_plan(record, graph, PruneConfig(
            policy="resnet-stage-uniform", half_rule=True))
        assert [plan.layer(graph.block(st.block_ids[0]).last_conv).kept
                for st in graph.stages] == [tuple(range(w // 2)) for w in (8, 16, 32)]

    def test_target_for_a_missing_stage_rejected(self):
        """Stages without a target take the threshold rule, so a mistyped index must not pass."""
        graph, record = self.build_scored_resnet("tiny-resnet", 4)
        cfg = PruneConfig(policy="resnet-stage-uniform", stage_targets=((4, 8),))
        with pytest.raises(PlanError, match="target width for stage 4, which the graph lacks"):
            make_plan(record, graph, cfg)

    def test_target_exceeding_width_rejected(self):
        graph, record = self.build_scored_resnet("tiny-resnet", 4)
        cfg = PruneConfig(policy="resnet-stage-uniform",
                          stage_targets=((1, 99), (2, 16), (3, 32)))
        with pytest.raises(PlanError, match="stage 1: target 99 exceeds width 8"):
            make_plan(record, graph, cfg)

    @pytest.mark.parametrize("policy", ["vgg-per-layer", "bottleneck-middle"])
    def test_targets_under_another_policy_rejected(self, policy):
        """Other policies have no stages to cut, so targets must not pass unread."""
        with pytest.raises(ValueError, match="stage_targets need the resnet-stage-uniform "
                                             f"policy, got '{policy}'"):
            PruneConfig(policy=policy, stage_targets=((1, 2), (2, 3)))

    @pytest.mark.parametrize("targets, message", [
        (((1, 0), (2, 16)), "stage 1: target 0 is below 1"),
        (((2, -3),), "stage 2: target -3 is below 1"),
        (((1, 8), (3, 4), (1, 4)), "stage 1 is listed twice"),
    ])
    def test_bad_targets_rejected_when_the_config_is_built(self, targets, message):
        with pytest.raises(ValueError, match=message):
            PruneConfig(policy="resnet-stage-uniform", stage_targets=targets)


class TestBottleneckPolicy:
    def test_preresnet_fixture_reproduces_published_rates(self):
        """Per-stage keep counts engineered to the beta=2 compression row."""
        graph = build("preresnet164", 100, seed=0)
        keep_by_stage = {1: 7, 2: 16, 3: 44}
        scores = {}
        for b in graph.blocks:
            c = graph.node(b.middle_conv).attrs["out_channels"]
            scores[b.middle_conv] = engineered_scores(keep_by_stage[b.stage], c)
        record = record_for(graph, scores)
        plan = make_plan(record, graph, PruneConfig(beta=2, sign="minus",
                                                          policy="bottleneck-middle"))
        compact = apply(ModelBundle(graph), plan,
                        RewriteOptions(mode="architecture-only", seed=1))
        p_red = 100 * (1 - count_params(compact.graph) / count_params(graph))
        f_red = 100 * (1 - count_flops(compact.graph) / count_flops(graph))
        assert p_red == pytest.approx(26.6, abs=2.0)
        assert f_red == pytest.approx(34.2, abs=2.0)
        # block I/O widths are untouched
        assert [s.width for s in compact.graph.stages] == [64, 128, 256]

    def test_half_rule_halves_every_middle_conv(self):
        graph = build("preresnet164", 100, init=False)
        scores = {b.middle_conv: np.full(
            graph.node(b.middle_conv).attrs["out_channels"], 0.5)
            for b in graph.blocks}
        record = record_for(graph, scores)
        plan = make_plan(record, graph,
                               PruneConfig(beta=2, policy="bottleneck-middle",
                                           half_rule=True))
        for lp in plan.layers:
            assert len(lp.kept) == lp.original // 2

    def test_threshold_sweep_matches_oracle(self, rng):
        graph = build("tiny-resnet", 4, init=False)
        # treat basic blocks' first conv as a middle conv via a bottleneck twin
        graph2 = build("preresnet164", 100, init=False)
        b = graph2.blocks[0]
        c = graph2.node(b.middle_conv).attrs["out_channels"]
        s = rng.uniform(0.05, 0.95, size=c)
        for beta in (1, 2, 4, 8):
            for sign in ("minus", "plus"):
                cfg = PruneConfig(beta=beta, sign=sign, policy="bottleneck-middle")
                kept = select_channels(s, cfg).tolist()
                assert kept == select_channels_reference(s, beta, sign)


class TestPlanObject:
    def test_determinism(self, rng):
        graph = build("tiny-vgg", 4, init=False)
        record = record_for(graph, {
            n.id: rng.uniform(0.05, 0.95, size=n.attrs["out_channels"])
            for n in graph.nodes_of_kind("conv")})
        cfg = PruneConfig(beta=2, sign="minus")
        assert make_plan(record, graph, cfg).fingerprint() == \
            make_plan(record, graph, cfg).fingerprint()

    def test_json_roundtrip(self, tmp_path, rng):
        graph = build("tiny-vgg", 4, init=False)
        record = record_for(graph, {
            n.id: rng.uniform(0.05, 0.95, size=n.attrs["out_channels"])
            for n in graph.nodes_of_kind("conv")})
        plan = make_plan(record, graph, PruneConfig(beta=1, sign="minus"))
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert PruningPlan.load(path).fingerprint() == plan.fingerprint()

    def test_plan_file_with_a_stages_echo_applies_as_without(self, tmp_path):
        """Older plan files carry a per-stage echo of the kept sets; a load drops it."""
        model = str(tmp_path / "model")
        assert main(["build", "--arch", "tiny-resnet", "--classes", "4", "--out", model]) == 0
        graph = load_bundle(model).graph
        record = record_for(graph, {b.last_conv: np.linspace(0.9, 0.1, st.width)
                                    for st in graph.stages for b in map(graph.block, st.block_ids)})
        plan = make_plan(record, graph, PruneConfig(policy="resnet-stage-uniform",
                                                    stage_targets=((1, 4), (2, 8))))
        new, old = str(tmp_path / "plan.json"), str(tmp_path / "old-plan.json")
        plan.save(new)
        json.dump({**plan.to_dict(), "stages": [
            {"index": st.index, "target": len(kept), "kept": kept, "block_ids": st.block_ids}
            for st in graph.stages
            for kept in [list(plan.layer(graph.block(st.block_ids[0]).last_conv).kept)]]},
            open(old, "w"))
        assert PruningPlan.load(old).fingerprint() == plan.fingerprint()
        outs = [str(tmp_path / name) for name in ("from-new", "from-old")]
        for path, out in zip((new, old), outs):
            assert main(["apply", "--model", model, "--plan", path, "--out", out]) == 0
        for name in (MANIFEST_NAME, BLOB_NAME):
            assert (open(os.path.join(outs[0], name), "rb").read()
                    == open(os.path.join(outs[1], name), "rb").read())

    def test_identity_plan_covers_all_convs(self):
        graph = build("tiny-resnet", 4, init=False)
        plan = identity_plan(graph)
        assert {lp.layer_id for lp in plan.layers} == \
            {n.id for n in graph.nodes_of_kind("conv")}


class TestConfigAndHeuristics:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="beta must be at least 1, got 0"):
            PruneConfig(beta=0)
        with pytest.raises(ValueError, match="sign"):
            PruneConfig(sign="negative")
        with pytest.raises(ValueError, match="policy"):
            PruneConfig(policy="global")
        with pytest.raises(ValueError, match="min_channels must be at least 1, got 0"):
            PruneConfig(min_channels=0)

    def test_empty_score_vector_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            threshold(np.array([]), PruneConfig())

    def test_config_json_roundtrip(self):
        cfg = PruneConfig(beta=3, sign="plus", policy="resnet-stage-uniform",
                          half_rule=True, stage_targets=((1, 8), (2, 16)))
        assert PruneConfig.from_dict(cfg.to_dict()) == cfg


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=32),
                min_size=1, max_size=6),
       st.booleans())
def test_pruned_count_monotone_along_config_sequence(layer_scores, half_rule):
    """More aggressive configs never prune fewer channels in total."""
    sequence = [("minus", 2), ("minus", 4), ("minus", 6), ("minus", 8),
                ("plus", 6), ("plus", 4), ("plus", 2)]
    totals = []
    for sign, beta in sequence:
        cfg = PruneConfig(beta=beta, sign=sign, half_rule=half_rule)
        pruned = sum(len(s) - select_channels(np.asarray(s), cfg).size
                     for s in layer_scores)
        totals.append(pruned)
    assert all(a <= b for a, b in zip(totals, totals[1:]))


ARCH_OF = {"vgg-per-layer": "tiny-vgg", "resnet-stage-uniform": "tiny-resnet",
           "bottleneck-middle": "preresnet164"}


@functools.cache
def unscored_graph(arch):
    return build(arch, 10, init=False)


def reference_groups(graph, policy, targets):
    """(voters, members, target) per kept set, read off the graph without the planner."""
    if policy == "vgg-per-layer":
        return [([n.id], [n.id], None) for n in graph.nodes_of_kind("conv")]
    if policy == "bottleneck-middle":
        return [([b.middle_conv], [b.middle_conv], None) for b in graph.blocks]
    groups = []
    for st_info in graph.stages:
        blocks = [graph.block(bid) for bid in st_info.block_ids]
        members = [b.last_conv for b in blocks] + [b.shortcut_conv for b in blocks
                                                    if b.shortcut_conv is not None]
        groups.append(([b.last_conv for b in blocks], members, targets.get(st_info.index)))
    if graph.block(graph.stages[0].block_ids[0]).shortcut_conv is None:
        # an identity shortcut carries the stem's channels into stage 1
        groups[0][1].append(graph.nodes_of_kind("conv")[0].id)
    return groups


@settings(max_examples=40, deadline=None)
@given(policy=st.sampled_from(POLICIES), seed=st.integers(0, 2**32 - 1),
       beta=st.sampled_from([1, 2, 4, 8]), sign=st.sampled_from(["minus", "plus"]),
       half_rule=st.booleans(), floor=st.integers(1, 3), data=st.data())
def test_every_policy_matches_the_reference_group_by_group(policy, seed, beta, sign, half_rule,
                                                           floor, data):
    """A group's members all keep the reference selection of its mean vote, or its top k."""
    graph = unscored_graph(ARCH_OF[policy])
    rng = np.random.default_rng(seed)
    scores = {}
    for n in graph.nodes_of_kind("conv"):
        c = n.attrs["out_channels"]
        scores[n.id] = np.full(c, 0.5) if rng.uniform() < 0.2 else rng.uniform(0.01, 0.99, c)
    targets = None
    if policy == "resnet-stage-uniform":
        targets = tuple((st_info.index, k) for st_info in graph.stages
                        for k in [data.draw(st.none() | st.integers(1, st_info.width))]
                        if k is not None)
    cfg = PruneConfig(beta=beta, sign=sign, policy=policy, half_rule=half_rule,
                      min_channels=floor, stage_targets=targets)
    plan = make_plan(record_for(graph, scores), graph, cfg)
    groups = reference_groups(graph, policy, dict(targets or ()))
    assert sorted(lp.layer_id for lp in plan.layers) == sorted(
        conv for _, members, _ in groups for conv in members)
    for voters, members, k in groups:
        vote = np.mean([scores[conv] for conv in voters], axis=0)
        want = (select_channels_reference(vote, beta, sign, floor, half_rule) if k is None
                else sorted(sorted(range(len(vote)), key=lambda j: (-vote[j], j))[:k]))
        for conv in members:
            assert list(plan.layer(conv).kept) == want
