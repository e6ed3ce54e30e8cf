"""End-to-end pipeline orchestration and the command-line interface."""

import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from prunekit import (DatasetSpec, ModelBundle, PruneConfig, TrainConfig, build,
                      count_params, identity_plan, load_bundle, report, save_bundle)
from prunekit.bundle import BLOB_NAME, bundle_fingerprint
from prunekit.cli import main
from prunekit.data import class_amplitudes, load_dataset
from prunekit.errors import StageFailure
from prunekit.pipeline import (STAGES, ExperimentManifest, PipelineConfig, run_pipeline,
                               run_sweep)
from prunekit.records import content_hash, read_json
from prunekit.trainer import evaluate

from oracles import resign


def small_config(out, seed=0, epochs=3):
    return PipelineConfig(
        arch="tiny-vgg", num_classes=4,
        data=DatasetSpec(source="synthetic-planted", classes=4, samples=128,
                         seed=seed),
        train=TrainConfig(epochs=epochs, batch_size=32, lr=0.05, seed=seed),
        prune=PruneConfig(beta=1, sign="minus"),
        seed=seed, out=out)


@pytest.mark.parametrize("classes, signal_channels", [(4, 4), (16, 4), (20, 5), (100, 7)])
def test_a_defaulted_planted_task_has_a_code_for_every_class(classes, signal_channels):
    """Without a data spec, the planted task takes as many signal channels as
    its class codes need, at least 4, so 16 or fewer classes keep their data."""
    config = PipelineConfig(arch="tiny-vgg", num_classes=classes)
    assert config.data.signal_channels == signal_channels
    spec = config.data
    codes = class_amplitudes(classes, spec.signal_channels, spec.amplitude)
    assert len(np.unique(codes, axis=0)) == classes


@pytest.fixture(scope="module")
def completed(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("exp"))
    manifest = run_pipeline(small_config(out))
    return out, manifest


class TestPipeline:
    def test_all_stages_recorded_in_order(self, completed):
        _, manifest = completed
        assert [r["stage"] for r in manifest.rows] == \
            ["build", "train", "score", "plan", "apply", "report", "retrain"]

    def test_hash_chain_verifies(self, completed):
        _, manifest = completed
        assert manifest.verify_chain()

    def test_artifacts_exist(self, completed):
        out, _ = completed
        for name in ("model-gated", "model-trained", "model-compact",
                     "model-retrained"):
            assert os.path.exists(os.path.join(out, name, "manifest.json"))
        for name in ("scores.json", "plan.json", "report.json", "history.json",
                     "manifest.json", "final.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_compact_model_strictly_smaller(self, completed):
        out, _ = completed
        gated = load_bundle(os.path.join(out, "model-gated"))
        compact = load_bundle(os.path.join(out, "model-compact"))
        assert count_params(compact.graph) < count_params(gated.graph)
        assert compact.graph.nodes_of_kind("gate") == []

    def test_identical_seeds_give_identical_hashes(self, completed, tmp_path):
        """Every input and output hash, build's input included: the chain
        starts at the config without ``out``, so another directory keeps it."""
        out1, manifest1 = completed
        out2 = str(tmp_path / "again")
        manifest2 = run_pipeline(small_config(out2))
        assert [(r["input"], r["output"]) for r in manifest1.rows] == \
            [(r["input"], r["output"]) for r in manifest2.rows]

    def test_each_artifact_is_at_its_table_path(self, completed):
        """Each row's path is its stage's path in ``STAGES``, and the artifact
        saved there hashes to the row's output hash."""
        out, manifest = completed
        for row in manifest.rows:
            path = os.path.join(out, STAGES[row["stage"]][1])
            assert row["path"] == path
            saved = (bundle_fingerprint(load_bundle(path)) if os.path.isdir(path)
                     else content_hash(read_json(path)))
            assert saved == row["output"], row["stage"]

    def test_compact_bundle_reaches_its_parent_through_the_plan_chain(self, completed):
        """The compact bundle names its plan, the plan its score record and the
        record the trained model; apply adds no hash of the parent itself."""
        out, manifest = completed
        output = {r["stage"]: r["output"] for r in manifest.rows}
        compact = load_bundle(os.path.join(out, STAGES["apply"][1]))
        assert compact.metadata["plan"] == output["plan"]
        plan = read_json(os.path.join(out, STAGES["plan"][1]))
        assert plan["score_fingerprint"] == output["score"]
        scores = read_json(os.path.join(out, STAGES["score"][1]))
        assert scores["metadata"]["model"] == output["train"]
        trained = load_bundle(os.path.join(out, STAGES["train"][1]))
        assert set(compact.metadata) == \
            set(trained.metadata) | {"rewrite_mode", "plan", "init"}

    def test_failure_persists_partial_manifest(self, tmp_path):
        out = str(tmp_path / "fail")
        cfg = small_config(out)
        cfg.prune = PruneConfig(beta=1, sign="minus",
                                policy="resnet-stage-uniform")  # no stages in vgg
        with pytest.raises(StageFailure, match="plan"):
            run_pipeline(cfg)
        saved = json.load(open(os.path.join(out, "manifest.json")))
        stages = [r["stage"] for r in saved["stages"]]
        assert stages[-1] == "plan" and "error" in saved["stages"][-1]
        assert saved["stages"][-1]["error_type"] == "PlanError"

    def test_manifest_roundtrip(self, completed):
        out, manifest = completed
        saved = json.load(open(os.path.join(out, "manifest.json")))
        assert saved["config"]["arch"] == "tiny-vgg"
        assert len(saved["stages"]) == 7

    def test_data_record_carries_normalization(self, completed):
        out, _ = completed
        rec = json.load(open(os.path.join(out, "data.json")))
        assert rec["spec"]["source"] == "synthetic-planted"
        assert "normalization" in rec and rec["train_samples"] == 128

    def test_stage_bundles_load_from_their_directories(self, completed):
        out, _ = completed
        compact = load_bundle(os.path.join(out, STAGES["apply"][1]))
        assert compact.graph.nodes_of_kind("gate") == []
        retrained = load_bundle(os.path.join(out, STAGES["retrain"][1]))
        assert retrained.metadata["epochs_seen"] >= 1

    def test_final_accuracy_is_the_saved_retrained_models(self, completed):
        """final.json reuses train's evaluation of the checkpoint it returns;
        it equals an evaluation of the bundle saved and loaded back."""
        out, _ = completed
        final = json.load(open(os.path.join(out, "final.json")))
        eval_data = load_dataset(replace(small_config(out).data, split="eval"))
        retrained = load_bundle(os.path.join(out, STAGES["retrain"][1]))
        assert final["eval_acc"] == evaluate(retrained, eval_data)


def saved_manifest(out_dir):
    saved = json.load(open(os.path.join(out_dir, "manifest.json")))
    manifest = ExperimentManifest(PipelineConfig.from_dict(saved["config"]))
    manifest.rows = saved["stages"]
    return manifest


def check_sweep_manifests(out, variant_dirs):
    """Base and variant manifests each chain, and every plan reads the base scores."""
    base = saved_manifest(os.path.join(out, "sweep-base"))
    assert [r["stage"] for r in base.rows] == ["build", "train", "score"]
    assert base.verify_chain()
    assert os.path.exists(os.path.join(out, "sweep-base", "model-trained", "manifest.json"))
    for name in variant_dirs:
        variant = saved_manifest(os.path.join(out, name))
        assert [r["stage"] for r in variant.rows] == ["plan", "apply", "report"]
        assert variant.verify_chain()
        assert variant.rows[0]["input"] == base.rows[-1]["output"]


class TestSweep:
    def test_compression_monotone_along_variant_order(self, tmp_path):
        out = str(tmp_path / "sweep")
        cfg = small_config(out, epochs=3)
        rows = run_sweep(cfg, [("minus", 2), ("minus", 8), ("plus", 8), ("plus", 2)])
        pruned = [r["pruned_channels"] for r in rows]
        assert pruned == sorted(pruned)
        pcts = [r["pruned_params_pct"] for r in rows]
        assert all(a <= b + 1e-9 for a, b in zip(pcts, pcts[1:]))
        check_sweep_manifests(out, ["minus-2", "minus-8", "plus-8", "plus-2"])
        variant_cfg = saved_manifest(os.path.join(out, "plus-8")).config
        assert (variant_cfg.prune.sign, variant_cfg.prune.beta) == ("plus", 8)

    def test_a_variant_does_not_hash_its_parent(self, tmp_path, monkeypatch):
        """Four model hashes: build, train and one per compact save; the score
        record reuses the train row's hash.  Every module alias of
        ``bundle_fingerprint`` is counted."""
        calls = []

        def counted(bundle):
            calls.append(bundle)
            return bundle_fingerprint(bundle)

        for name, module in list(sys.modules.items()):
            if module is not None and name.partition(".")[0] == "prunekit":
                for alias, value in list(vars(module).items()):
                    if value is bundle_fingerprint:
                        monkeypatch.setattr(module, alias, counted)
        run_sweep(small_config(str(tmp_path / "sweep"), epochs=1),
                  [("minus", 2), ("plus", 2)])
        assert len(calls) == 4


class TestStageUniformWithoutTargets:
    """Basic-block nets plan from the threshold rule when no stage has a hand target."""

    def config(self, out):
        return replace(small_config(out, epochs=1), arch="tiny-resnet",
                       prune=PruneConfig(beta=1, sign="minus", policy="resnet-stage-uniform"))

    def test_pipeline_completes(self, tmp_path):
        manifest = run_pipeline(self.config(str(tmp_path / "exp")))
        assert manifest.verify_chain() and manifest.rows[-1]["stage"] == "retrain"

    def test_sweep_compression_monotone_along_variant_order(self, tmp_path):
        rows = run_sweep(self.config(str(tmp_path / "sweep")),
                         [("minus", 2), ("minus", 8), ("plus", 8), ("plus", 2)])
        flops = [r["pruned_flops_pct"] for r in rows]
        assert flops == sorted(flops) and flops[0] < flops[-1]


class TestCli:
    def test_build_and_count(self, tmp_path, capsys):
        out = str(tmp_path / "m")
        assert main(["build", "--arch", "tiny-vgg", "--classes", "4",
                     "--with-gates", "--out", out]) == 0
        assert main(["count", "--model", out]) == 0
        text = capsys.readouterr().out
        assert "params" in text and "flops[mac]" in text

    def test_count_opcount_convention(self, tmp_path, capsys):
        out = str(tmp_path / "m")
        main(["build", "--arch", "tiny-vgg", "--classes", "4", "--out", out])
        assert main(["count", "--model", out, "--convention", "opcount"]) == 0
        assert "opcount" in capsys.readouterr().out

    def test_validation_failure_exits_2(self, tmp_path):
        assert main(["build", "--arch", "tiny-vgg", "--classes", "1",
                     "--out", str(tmp_path / "x")]) == 2

    def test_plan_with_a_zero_stage_target_exits_2_naming_the_stage(self, tmp_path, capsys):
        # the config rejects the target before the scores or model are read
        missing = str(tmp_path / "missing")
        assert main(["plan", "--scores", missing, "--model", missing,
                     "--policy", "resnet-stage-uniform", "--stage-targets", "0,8,16",
                     "--out", str(tmp_path / "plan.json")]) == 2
        assert "stage 1: target 0 is below 1" in capsys.readouterr().err

    def test_retrain_report_missing_field_exits_2(self, tmp_path, capsys):
        model, data_json = str(tmp_path / "m"), str(tmp_path / "data.json")
        assert main(["build", "--arch", "tiny-vgg", "--classes", "4", "--out", model]) == 0
        json.dump(DatasetSpec(source="synthetic-planted", classes=4, samples=32).to_dict(),
                  open(data_json, "w"))
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"params_before": 2, "params_after": 1,
                                      "flops_before": 2, "base_epochs": 1}))
        assert main(["retrain", "--model", model, "--data", data_json,
                     "--report", str(report), "--out", str(tmp_path / "out")]) == 2
        assert "missing required field 'flops_after'" in capsys.readouterr().err

    def test_score_records_the_fingerprint_of_the_model_it_scored(self, tmp_path):
        model, data_json = str(tmp_path / "m"), str(tmp_path / "data.json")
        scores = str(tmp_path / "scores.json")
        assert main(["build", "--arch", "tiny-vgg", "--classes", "4", "--with-gates",
                     "--reduction", "4", "--out", model]) == 0
        json.dump(DatasetSpec(source="synthetic-planted", classes=4, samples=32).to_dict(),
                  open(data_json, "w"))
        assert main(["score", "--model", model, "--data", data_json, "--out", scores]) == 0
        metadata = read_json(scores)["metadata"]
        assert list(metadata) == ["model", "samples", "mode"]
        assert metadata["model"] == bundle_fingerprint(load_bundle(model))

    @pytest.mark.parametrize("flag, value, name", [
        ("--max-batches", "0", "max_batches"), ("--max-batches", "-1", "max_batches"),
        ("--batch-size", "0", "batch_size"), ("--batch-size", "-3", "batch_size")])
    def test_score_batch_argument_below_1_exits_2_naming_it(self, tmp_path, capsys,
                                                             flag, value, name):
        # neither the model directory nor the data file exists: argparse checks
        # the argument before either is read, and names the flag, not the field
        with pytest.raises(SystemExit) as exc:
            main(["score", "--model", str(tmp_path / "missing"),
                  "--data", str(tmp_path / "missing.json"), flag, value,
                  "--out", str(tmp_path / "scores.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be at least 1, got {value}" in err
        assert name not in err

    def test_full_cli_cycle(self, tmp_path, capsys):
        d = tmp_path
        model = str(d / "model")
        trained = str(d / "trained")
        data_json = str(d / "data.json")
        spec = DatasetSpec(source="synthetic-planted", classes=4, samples=96, seed=1)
        json.dump(spec.to_dict(), open(data_json, "w"))
        train_json = str(d / "train.json")
        json.dump(TrainConfig(epochs=2, batch_size=32, lr=0.05).to_dict(),
                  open(train_json, "w"))

        assert main(["build", "--arch", "tiny-vgg", "--classes", "4",
                     "--with-gates", "--reduction", "4", "--out", model]) == 0
        assert main(["train", "--model", model, "--data", data_json,
                     "--config", train_json, "--out", trained]) == 0
        scores = str(d / "scores.json")
        assert main(["score", "--model", trained, "--data", data_json,
                     "--out", scores]) == 0
        plan = str(d / "plan.json")
        assert main(["plan", "--scores", scores, "--model", trained,
                     "--beta", "1", "--sign", "minus", "--out", plan]) == 0
        compact = str(d / "compact")
        assert main(["apply", "--model", trained, "--plan", plan,
                     "--mode", "scratch", "--seed", "3", "--out", compact]) == 0
        report = str(d / "report.json")
        assert main(["report", "--before", trained, "--after", compact,
                     "--base-epochs", "2", "--out", report]) == 0
        retrained = str(d / "retrained")
        assert main(["retrain", "--model", compact, "--data", data_json,
                     "--config", train_json, "--report", report,
                     "--out", retrained]) == 0
        assert os.path.exists(os.path.join(retrained, "params.bin"))
        acc = evaluate(load_bundle(retrained), load_dataset(replace(spec, split="eval")))
        assert f"eval acc {acc:.4f} -> {retrained}" in capsys.readouterr().out
        assert count_params(load_bundle(compact).graph) < \
            count_params(load_bundle(trained).graph)

    def test_report_leaves_gates_out(self, tmp_path, capsys):
        gated, compact, plan = (str(tmp_path / n) for n in ("gated", "compact", "plan.json"))
        bundle = ModelBundle(build("tiny-vgg", 4, with_gates=True, reduction=4, seed=0))
        save_bundle(bundle, gated)
        identity_plan(bundle.graph).save(plan)
        assert main(["apply", "--model", gated, "--plan", plan, "--mode", "finetune",
                     "--out", compact]) == 0
        for convention in ("mac", "opcount"):
            capsys.readouterr()
            assert main(["report", "--before", gated, "--after", compact,
                         "--convention", convention]) == 0
            rows = capsys.readouterr().out.splitlines()
            assert rows[1].startswith("params") and rows[1].endswith(" 0.0")
            assert rows[2].startswith("flops") and rows[2].endswith(" 0.0")

    def test_count_leaves_gates_out_like_the_report(self, tmp_path, capsys):
        gated = str(tmp_path / "gated")
        graph = build("tiny-vgg", 4, with_gates=True, reduction=4, seed=0)
        save_bundle(ModelBundle(graph), gated)
        for convention in ("mac", "opcount"):
            capsys.readouterr()
            assert main(["count", "--model", gated, "--convention", convention]) == 0
            rows = capsys.readouterr().out.splitlines()
            rep = report(graph, graph, convention=convention)
            assert rows[0] == f"params {rep.params_before:,}"
            assert rows[1] == f"flops[{convention}] {rep.flops_before:,}"
            gate_params = count_params(graph) - rep.params_before
            assert gate_params > 0 and rows[2] == f"left out: 4 gates, {gate_params:,} params"

    def test_truncated_bundle_manifest_exits_2_naming_it(self, tmp_path, capsys):
        model = str(tmp_path / "m")
        assert main(["build", "--arch", "tiny-vgg", "--classes", "4", "--out", model]) == 0
        manifest = os.path.join(model, "manifest.json")
        with open(manifest, "r+") as f:
            f.truncate(50)
        capsys.readouterr()
        assert main(["count", "--model", model]) == 2
        assert f"{manifest}: not valid JSON" in capsys.readouterr().err

    def test_bundle_missing_a_declared_tensor_exits_2_naming_it(self, tmp_path, capsys):
        """A blob cut short, re-signed so the checksum passes, lacks the last tensor."""
        model = str(tmp_path / "m")
        assert main(["build", "--arch", "tiny-vgg", "--classes", "4", "--with-gates",
                     "--out", model]) == 0
        blob_path = os.path.join(model, BLOB_NAME)
        with open(blob_path, "r+b") as f:
            f.truncate(os.path.getsize(blob_path) - 4)
        resign(model, lambda m: None)
        capsys.readouterr()
        assert main(["count", "--model", model]) == 2
        assert "tensor 'fc/weight': declared shape (4, 32) runs past the end of " \
            "params.bin" in capsys.readouterr().err

    def test_retrain_reproduces_the_pipeline_retrain(self, completed, tmp_path):
        out, _ = completed
        cfg = small_config(out)
        data_json, train_json = str(tmp_path / "data.json"), str(tmp_path / "train.json")
        cfg.data.save(data_json)
        cfg.train.save(train_json)
        retrained = str(tmp_path / "retrained")
        assert main(["retrain", "--model", os.path.join(out, "model-compact"),
                     "--data", data_json, "--config", train_json,
                     "--report", os.path.join(out, "report.json"), "--out", retrained]) == 0
        assert bundle_fingerprint(load_bundle(retrained)) == \
            bundle_fingerprint(load_bundle(os.path.join(out, "model-retrained")))

    def test_retrain_fine_tunes_an_inherited_model(self, tmp_path):
        gated, compact, plan = (str(tmp_path / n) for n in ("gated", "compact", "plan.json"))
        bundle = ModelBundle(build("tiny-vgg", 4, with_gates=True, reduction=4, seed=0))
        save_bundle(bundle, gated)
        identity_plan(bundle.graph).save(plan)
        assert main(["apply", "--model", gated, "--plan", plan, "--mode", "finetune",
                     "--out", compact]) == 0
        report, data_json, train_json = (str(tmp_path / n) for n in
                                         ("report.json", "data.json", "train.json"))
        assert main(["report", "--before", gated, "--after", compact,
                     "--base-epochs", "2", "--out", report]) == 0
        DatasetSpec(source="synthetic-planted", classes=4, samples=32).save(data_json)
        TrainConfig(epochs=1, batch_size=32, lr=0.05).save(train_json)
        retrained = str(tmp_path / "retrained")
        assert main(["retrain", "--model", compact, "--data", data_json,
                     "--config", train_json, "--report", report, "--out", retrained]) == 0
        meta = load_bundle(retrained).metadata
        assert meta["rewrite_mode"] == "inherit-weights" and meta["epochs_seen"] == 2

    def test_pipeline_and_sweep_subcommands(self, tmp_path, capsys):
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(small_config(str(tmp_path / "exp"), epochs=2).to_dict(),
                  open(cfg_path, "w"))
        assert main(["pipeline", "--config", cfg_path]) == 0
        assert "complete" in capsys.readouterr().out
        assert main(["sweep", "--config", cfg_path,
                     "--out", str(tmp_path / "sweep"),
                     "--variants", "minus:2,plus:2"]) == 0
        rows = json.load(open(os.path.join(str(tmp_path / "sweep"), "sweep.json")))
        assert len(rows) == 2
        check_sweep_manifests(str(tmp_path / "sweep"), ["minus-2", "plus-2"])

    @pytest.mark.parametrize("variants", ["minus:2,bogus:3", "minus:0"])
    def test_bad_sweep_variant_exits_2_before_training(self, tmp_path, capsys, variants):
        cfg_path, out = str(tmp_path / "cfg.json"), str(tmp_path / "sweep")
        json.dump(small_config(out, epochs=1).to_dict(), open(cfg_path, "w"))
        assert main(["sweep", "--config", cfg_path, "--variants", variants]) == 2
        assert "validation error" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "sweep-base", "model-trained"))
        assert not os.path.exists(os.path.join(out, "sweep-base"))   # no stage started

    @pytest.mark.parametrize("variants", ["minus2", "minus:x", "minus:2:3"])
    def test_malformed_sweep_variants_exit_2_naming_the_argument(self, tmp_path, capsys,
                                                                 variants):
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", missing, "--variants", variants])
        assert exc.value.code == 2
        assert f"argument --variants: expected sign:beta pairs such as minus:2,plus:8, " \
            f"got '{variants}'" in capsys.readouterr().err

    @pytest.mark.parametrize("targets", ["8,,3", "8,x"])
    def test_malformed_stage_targets_exit_2_naming_the_argument(self, tmp_path, capsys,
                                                                targets):
        missing = str(tmp_path / "missing")
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--scores", missing, "--model", missing,
                  "--policy", "resnet-stage-uniform", "--stage-targets", targets,
                  "--out", str(tmp_path / "plan.json")])
        assert exc.value.code == 2
        assert f"argument --stage-targets: expected comma-separated widths such as " \
            f"8,32,32, got '{targets}'" in capsys.readouterr().err

    SPEC = {"source": "synthetic-planted", "classes": 4, "samples": 32}
    REPORT = {"params_before": 2, "params_after": 1, "flops_before": 2, "flops_after": 1}

    @pytest.mark.parametrize("command, flag, content, named", [
        ("pipeline", "--config", {"bogus": 1}, "PipelineConfig: unknown field 'bogus'"),
        ("train", "--data", {**SPEC, "colour": 1}, "DatasetSpec: unknown field 'colour'"),
        ("train", "--data", [SPEC], "DatasetSpec: expected an object, got an array"),
        ("train", "--config", {"lr": "fast"}, "TrainConfig.lr: expected a number, got a string"),
        ("plan", "--scores", {"layers": [{"layer_id": "conv1", "channels": 1, "mean": [0.5],
                                          "std": [0.0], "samples": 1}]},
         "ScoreRecord.layers[0]: missing required field 'gate_id'"),
        ("plan", "--scores", {"layers": [{"layer_id": "conv1", "gate_id": "gate1",
                                          "channels": 16, "mean": [0.5] * 8,
                                          "std": [0.0] * 16, "samples": 1}]},
         "layer 'conv1': mean has 8 entries for 16 channels"),
        ("apply", "--plan", {"config": {}, "layers": [{"layer_id": "conv1", "kept": [0]}]},
         "PruningPlan.layers[0]: missing required field 'original'"),
        ("retrain", "--report", {**REPORT, "bogus": 1}, "CompressionReport: unknown field 'bogus'"),
        ("pipeline", "--config", {"train": {"epochs": 0}}, "epochs must be at least 1"),
        ("pipeline", "--config", {"train": {"batch_size": 0}}, "batch_size must be at least 1"),
        ("pipeline", "--config", {"data": {**SPEC, "samples": 0}}, "samples must be at least 1"),
        ("pipeline", "--config", {"num_classes": 4, "data": {**SPEC, "classes": 8}},
         "data.classes (8) must equal num_classes (4)"),
        ("retrain", "--report", {**REPORT, "params_before": 0}, "params_before must be at least 1"),
        ("retrain", "--report", {**REPORT, "params_after": -1}, "params_after must be at least 0"),
        ("retrain", "--report", {**REPORT, "flops_before": 0}, "flops_before must be at least 1"),
        ("retrain", "--report", {**REPORT, "flops_after": 0}, "flops_after must be at least 1"),
        ("retrain", "--report", {**REPORT, "base_epochs": -5}, "base_epochs must be at least 1"),
        ("retrain", "--report", {**REPORT, "base_epochs": 1, "epoch_mode": "literal"},
         "epoch_mode must be one of"),
        ("retrain", "--report", {**REPORT, "base_epochs": 1, "convention": "flops"},
         "convention must be one of"),
        ("pipeline", "--config", {"train": {"lr_gamma": -1}}, "lr_gamma must be positive"),
        ("pipeline", "--config", {"seed": -1}, "seed must be at least 0, got -1"),
        ("pipeline", "--config", {"data": {**SPEC, "channels": 0}},
         "channels must be at least 1, got 0"),
        ("pipeline", "--config", {"data": {**SPEC, "image_size": 0}},
         "image_size must be at least 1, got 0"),
        ("pipeline", "--config", {"data": {**SPEC, "noise_std": -1}},
         "noise_std must be at least 0, got -1"),
        ("pipeline", "--config", {"score_batches": 0}, "score_batches must be at least 1, got 0"),
        ("pipeline", "--config", {"reduction": 0}, "reduction must be at least 1, got 0"),
        ("pipeline", "--config", {"num_classes": 1}, "num_classes must be at least 2, got 1"),
        ("pipeline", "--config", {"prune": {"beta": 0}}, "beta must be at least 1, got 0"),
        ("pipeline", "--config", {"prune": {"min_channels": 0}},
         "min_channels must be at least 1, got 0"),
        ("pipeline", "--config", {"train": {"weight_decay": -1}},
         "weight_decay must be at least 0, got -1"),
        ("pipeline", "--config", {"data": {**SPEC, "channels": 3}},
         "signal_channels (4) must be at most channels (3)"),
        ("pipeline", "--config", {"data": {**SPEC, "signal_channels": 1}},
         "signal_channels (1) cannot encode 4 classes"),
    ], ids=["pipeline-unknown", "data-unknown", "data-list", "config-lr", "scores-gate_id",
            "scores-short-mean", "plan-original", "report-unknown", "pipeline-epochs-0",
            "pipeline-batch-0", "pipeline-samples-0", "pipeline-classes-mismatch",
            "report-params-before-0", "report-params-after-negative", "report-flops-before-0",
            "report-flops-after-0", "report-base-epochs-negative", "report-epoch-mode",
            "report-convention", "pipeline-lr-gamma-negative", "pipeline-seed-negative",
            "pipeline-channels-0", "pipeline-image-size-0", "pipeline-noise-std-negative",
            "pipeline-score-batches-0", "pipeline-reduction-0", "pipeline-classes-1",
            "pipeline-beta-0", "pipeline-min-channels-0", "pipeline-weight-decay-negative",
            "pipeline-signal-over-channels", "pipeline-signal-cannot-encode"])
    def test_malformed_json_input_exits_2(self, tmp_path, capsys, command, flag, content, named):
        model, data_json = str(tmp_path / "m"), str(tmp_path / "data.json")
        assert main(["build", "--arch", "tiny-vgg", "--classes", "4", "--out", model]) == 0
        json.dump(self.SPEC, open(data_json, "w"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        valid = {"pipeline": [], "plan": ["--model", model], "apply": ["--model", model],
                 "train": ["--model", model, "--data", data_json],
                 "retrain": ["--model", model, "--data", data_json]}[command]
        # the bad file comes last, so it wins over a valid file given for the same flag
        assert main([command, *valid, "--out", str(tmp_path / "out"), flag, str(bad)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()   # no stage ran, no manifest written

    def test_missing_config_exits_2_naming_it(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["pipeline", "--config", missing]) == 2
        assert missing in capsys.readouterr().err

    def test_count_without_bundle_manifest_exits_2_naming_it(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["count", "--model", str(empty)]) == 2
        assert str(empty / "manifest.json") in capsys.readouterr().err

    def test_truncated_json_exits_2_naming_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        text = json.dumps(small_config(str(tmp_path / "exp"), epochs=1).to_dict())
        cfg_path.write_text(text[:len(text) // 2])
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert f"{cfg_path}: not valid JSON" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "exp")

    def test_unknown_rewrite_mode_exits_2_at_config_load(self, tmp_path, capsys):
        cfg_path, out = str(tmp_path / "cfg.json"), str(tmp_path / "exp")
        json.dump({**small_config(out, epochs=1).to_dict(), "rewrite_mode": "scratch"},
                  open(cfg_path, "w"))
        assert main(["pipeline", "--config", cfg_path]) == 2
        assert "rewrite_mode must be one of" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_manifest_chain_detects_tampering():
    cfg = small_config("unused")
    m = ExperimentManifest(cfg)
    m.record("a", "h0", "h1", "p", 0.1)
    m.record("b", "h1", "h2", "p", 0.1)
    assert m.verify_chain()
    m.rows[1]["input"] = "bogus"
    assert not m.verify_chain()
