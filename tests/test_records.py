"""The JSON codec: round trips, strict decoding of mutated input, atomic writes."""

import ast
import dataclasses
import json
import os
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import prunekit
from prunekit.accounting import CONVENTIONS, CompressionReport
from prunekit.data import SOURCES, DatasetSpec
from prunekit.errors import DataError, PlanError
from prunekit.pipeline import PipelineConfig
from prunekit.planner import POLICIES, SIGNS, LayerPlan, PruneConfig, PruningPlan
from prunekit.rewriter import REWRITE_MODES
from prunekit.scoring import LayerScore, ScoreRecord
from prunekit.trainer import LOSS_VARIANTS, TrainConfig

names = st.text(string.ascii_lowercase + "_/0", min_size=1, max_size=6)
small = st.integers(0, 64)
unit = st.floats(0.0, 1.0)
scalars = st.none() | st.booleans() | small | unit | names
json_dicts = st.dictionaries(names, scalars, max_size=3)
index_sets = st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True).map(
    lambda kept: tuple(sorted(kept)))

counts = st.integers(1, 64)     # epochs, batch size, samples and widths start at 1


@st.composite
def dataset_specs(draw, num_classes):
    """Synthetic data draws the pipeline's class count, CIFAR data its own; a
    planted task's signal channels fit in its channels and encode its classes."""
    source = draw(st.sampled_from(SOURCES))
    classes = num_classes if source.startswith("synthetic") else draw(small)
    planted = source == "synthetic-planted"
    signal = draw(st.integers(max(1, (classes - 1).bit_length()) if planted else 1, 8))
    return DatasetSpec(
        source=source, root=draw(st.none() | names),
        split=draw(st.sampled_from(("train", "eval"))), subset=draw(st.floats(0.01, 1.0)),
        classes=classes, samples=draw(counts),
        channels=draw(st.integers(signal, 64) if planted else counts), signal_channels=signal,
        image_size=draw(counts), amplitude=draw(unit), noise_std=draw(unit), seed=draw(small))


# stage targets only pass with the policy that reads them
prune_configs = st.sampled_from(POLICIES).flatmap(lambda policy: st.builds(
    PruneConfig, beta=st.integers(1, 9), sign=st.sampled_from(SIGNS), policy=st.just(policy),
    min_channels=st.integers(1, 8), half_rule=st.booleans(), half_rule_tolerance=unit,
    stage_targets=st.none() | (
        st.lists(st.tuples(small, counts), max_size=3, unique_by=lambda t: t[0]).map(tuple)
        if policy == "resnet-stage-uniform" else st.nothing())))

pipeline_configs = st.integers(2, 64).flatmap(lambda num_classes: st.builds(
    PipelineConfig,
    arch=names, num_classes=st.just(num_classes),
    data=st.none() | dataset_specs(num_classes),
    train=st.builds(
        TrainConfig, epochs=counts, batch_size=counts, lr=st.floats(1e-4, 1.0),
        momentum=st.floats(0.0, 0.99), weight_decay=unit, seed=small,
        loss_variant=st.sampled_from(LOSS_VARIANTS), lr_milestones=st.tuples(unit, unit),
        lr_gamma=st.floats(0.01, 1.0), augment=st.booleans()),
    prune=prune_configs,
    rewrite_mode=st.sampled_from(REWRITE_MODES), gate_placement=st.none() | names,
    reduction=counts, score_batches=st.none() | counts, seed=small, out=names))

pruning_plans = st.builds(
    PruningPlan,
    config=st.builds(PruneConfig, beta=st.integers(1, 9), sign=st.sampled_from(SIGNS)),
    layers=st.lists(st.builds(LayerPlan, layer_id=names, original=st.just(8), kept=index_sets),
                    max_size=4, unique_by=lambda lp: lp.layer_id),
    score_fingerprint=names)


@st.composite
def layer_scores(draw):
    channels = draw(st.integers(1, 6))
    vector = st.lists(unit, min_size=channels, max_size=channels).map(np.array)
    return LayerScore(draw(names), draw(names), channels, draw(vector), draw(vector),
                      draw(small))


score_records = st.builds(ScoreRecord, layers=st.lists(layer_scores(), max_size=3),
                          metadata=json_dicts)

compression_reports = st.builds(
    CompressionReport, params_before=st.integers(1, 10**6), params_after=small,
    flops_before=st.integers(1, 10**6), flops_after=st.integers(1, 10**6),
    base_epochs=st.none() | st.integers(1, 200),
    epoch_mode=st.sampled_from(("flop-matched", "literal-fraction")),
    convention=st.sampled_from(CONVENTIONS), per_layer=st.lists(json_dicts, max_size=3))

RECORDS = {PipelineConfig: pipeline_configs, PruningPlan: pruning_plans,
           ScoreRecord: score_records, CompressionReport: compression_reports}
FUZZ = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def same(a, b) -> bool:
    """Equality that compares arrays by value and float64 dtype, and sequences by type."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and b.dtype == np.float64 and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@FUZZ
@given(data=st.data())
def test_round_trip_through_json_text(cls, data):
    record = data.draw(RECORDS[cls])
    back = cls.from_dict(json.loads(json.dumps(record.to_dict())))
    assert same(back, record)
    assert back.fingerprint() == record.fingerprint()


JSON_TYPES = {"null": st.none(), "boolean": st.booleans(), "integer": small,
              "number": st.floats(-2.0, 2.0), "string": names,
              "array": st.lists(small, max_size=2), "object": json_dicts}


def json_type(value) -> str:
    return {type(None): "null", bool: "boolean", int: "integer", float: "number",
            str: "string", list: "array", dict: "object"}[type(value)]


def paths(tree, path=()):
    """The key path of every node of a JSON tree, the root's first."""
    yield path
    if isinstance(tree, (dict, list)):
        for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
            yield from paths(value, path + (key,))


def reach(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@FUZZ
@given(data=st.data())
def test_mutated_input_decodes_or_raises_a_named_error(cls, data):
    tree = json.loads(json.dumps(data.draw(RECORDS[cls]).to_dict()))
    path = data.draw(st.sampled_from(list(paths(tree))))
    target = reach(tree, path)
    op = data.draw(st.sampled_from(("drop", "add", "replace")))
    if op == "add" and isinstance(target, dict):
        target[data.draw(names)] = data.draw(st.one_of(*JSON_TYPES.values()))
    elif op == "drop" and path and isinstance(reach(tree, path[:-1]), dict):
        del reach(tree, path[:-1])[path[-1]]
    else:
        other = data.draw(st.one_of(*(s for name, s in JSON_TYPES.items()
                                      if name != json_type(target))))
        if path:
            reach(tree, path[:-1])[path[-1]] = other
        else:
            tree = other
    try:
        cls.from_dict(tree)
    except (ValueError, PlanError, DataError):
        pass


def test_missing_fields_with_defaults_take_them():
    assert PipelineConfig.from_dict({}) == PipelineConfig()
    assert PruneConfig.from_dict(PruneConfig(stage_targets=()).to_dict()).stage_targets == ()


def test_error_names_the_field_path():
    d = PruningPlan(PruneConfig(), [LayerPlan("c", 2, (0,))]).to_dict()
    del d["layers"][0]["original"]
    with pytest.raises(ValueError, match=r"PruningPlan\.layers\[0\]: missing required "
                                         r"field 'original'"):
        PruningPlan.from_dict(d)
    with pytest.raises(ValueError, match=r"TrainConfig\.lr: expected a number, got a boolean"):
        TrainConfig.from_dict({"lr": True})


def test_failed_save_leaves_the_old_file_intact(tmp_path):
    path = tmp_path / "scores.json"
    record = ScoreRecord([LayerScore("c", "g", 2, np.array([0.2, 0.8]), np.zeros(2), 4)])
    record.save(str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        ScoreRecord(record.layers, metadata={"model": object()}).save(str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["scores.json"]


def json_calls(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "json" and node.attr in ("dump", "dumps", "load")):
            found.append(f"{path.name}:{node.lineno} json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.append(f"{path.name}:{node.lineno} from json import")
    return found


def test_only_the_codec_and_bundle_call_json():
    """And no module streams with ``json.dump``, which writes once per token:
    the codec and the bundle encode with ``dumps``, then call ``write_bytes``."""
    package = Path(prunekit.__file__).parent
    assert json_calls(package / "records.py"), "found no json calls; the scan is broken"
    calls = {path.name: json_calls(path) for path in sorted(package.glob("*.py"))}
    offenders = [call for name, found in calls.items()
                 if name not in ("records.py", "bundle.py") for call in found]
    assert not offenders
    streaming = [call for found in calls.values() for call in found
                 if call.endswith("json.dump")]
    assert not streaming
