"""Score collection semantics: means, stds, determinism, memory, the record file."""

import json

import numpy as np
import pytest

from prunekit import (DatasetSpec, ModelBundle, Network, PruneConfig, build, collect_scores,
                      load_dataset, make_plan)
from prunekit.errors import PrunekitError
from prunekit.scoring import LayerScore, ScoreRecord, scored_conv_for_gate

from oracles import excite_loops, squeeze_loops


def zero_gate_weights(graph):
    for node in graph.nodes_of_kind("gate"):
        node.params["w1"][:] = 0
        node.params["w2"][:] = 0


@pytest.fixture
def planted(planted_spec):
    return load_dataset(planted_spec)


class TestCollect:
    def test_zero_gate_weights_give_exact_half_and_zero_std(self, tiny_gated_bundle,
                                                            planted):
        zero_gate_weights(tiny_gated_bundle.graph)
        record = collect_scores(tiny_gated_bundle, planted.batches(32), max_batches=2)
        for ls in record.layers:
            np.testing.assert_array_equal(ls.mean, np.full(ls.channels, 0.5))
            np.testing.assert_array_equal(ls.std, np.zeros(ls.channels))

    def test_single_sample_mean_equals_sample_scores(self, tiny_gated_bundle, planted):
        record = collect_scores(tiny_gated_bundle,
                                planted.batches(1), max_batches=1)
        outputs = {node.id: y for node, y, _ in
                   Network(tiny_gated_bundle.graph).walk(planted.x[:1])}
        for ls in record.layers:
            conv_out = outputs[ls.layer_id][0]
            z = np.array([squeeze_loops(conv_out[c]) for c in range(ls.channels)])
            gate = tiny_gated_bundle.graph.node(ls.gate_id)
            s_oracle = excite_loops(z, gate.params["w1"].astype(np.float64),
                                    gate.params["w2"].astype(np.float64))
            np.testing.assert_allclose(ls.mean, s_oracle, atol=1e-6)
            np.testing.assert_allclose(ls.std, 0.0, atol=1e-12)
            assert ls.samples == 1

    def test_two_sample_mean_is_average_of_oracles(self, tiny_gated_bundle, planted):
        record = collect_scores(tiny_gated_bundle, planted.batches(2), max_batches=1)
        outputs = {node.id: y for node, y, _ in
                   Network(tiny_gated_bundle.graph).walk(planted.x[:2])}
        ls = record.layers[0]
        gate = tiny_gated_bundle.graph.node(ls.gate_id)
        per_sample = []
        for b in range(2):
            conv_out = outputs[ls.layer_id][b]
            z = np.array([squeeze_loops(conv_out[c]) for c in range(ls.channels)])
            per_sample.append(excite_loops(z, gate.params["w1"].astype(np.float64),
                                           gate.params["w2"].astype(np.float64)))
        np.testing.assert_allclose(ls.mean, np.mean(per_sample, axis=0), atol=1e-6)

    def test_deterministic_given_fixed_data_order(self, tiny_gated_bundle, planted):
        r1 = collect_scores(tiny_gated_bundle, planted.batches(16), max_batches=4)
        r2 = collect_scores(tiny_gated_bundle, planted.batches(16), max_batches=4)
        assert r1.fingerprint() == r2.fingerprint()

    def test_scores_strictly_inside_unit_interval(self, tiny_gated_bundle, planted):
        record = collect_scores(tiny_gated_bundle, planted.batches(32), max_batches=2)
        for ls in record.layers:
            assert ((ls.mean > 0) & (ls.mean < 1)).all()

    def test_gateless_model_rejected_with_hint(self, planted):
        plain = ModelBundle(build("tiny-vgg", 4, seed=0))
        with pytest.raises(PrunekitError, match="gates enabled"):
            collect_scores(plain, planted.batches(8))

    def test_eval_mode_leaves_running_stats(self, tiny_gated_bundle, planted):
        bn = tiny_gated_bundle.graph.nodes_of_kind("batchnorm")[0]
        before = bn.params["running_mean"].copy()
        collect_scores(tiny_gated_bundle, planted.batches(16), max_batches=2)
        np.testing.assert_array_equal(bn.params["running_mean"], before)

    def test_max_batches_caps_samples(self, tiny_gated_bundle, planted):
        record = collect_scores(tiny_gated_bundle, planted.batches(16), max_batches=3)
        assert record.layers[0].samples == 48

    def test_peak_memory_below_one_forward_of_activations(self, rng, traced_peak):
        """Scoring keeps each activation only until its last reader has run."""
        bundle = ModelBundle(build("resnet56", 10, with_gates=True, seed=0))
        x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        activations = sum(y.nbytes for _, y, _ in Network(bundle.graph).walk(x))
        # training mode: eval-mode scores saturate on an untrained net
        peak, _ = traced_peak(lambda: collect_scores(bundle, [(x, None)], training=True))
        assert peak < activations


class TestAggregatesAndIO:
    def test_record_holds_only_layers_and_metadata(self, tiny_gated_bundle, planted):
        record = collect_scores(tiny_gated_bundle, planted.batches(16), max_batches=1)
        assert list(record.to_dict()) == ["layers", "metadata"]

    def test_older_file_with_aggregates_loads_and_plans_the_same(self, planted, tmp_path):
        """Older versions also wrote per-block and per-stage summaries; a load drops them."""
        bundle = ModelBundle(build("tiny-resnet", 4, with_gates=True, reduction=4, seed=5))
        record = collect_scores(bundle, planted.batches(32), max_batches=2)
        summary = {"mean": 0.5, "min": 0.4, "max": 0.6, "mean_std": 0.01}
        new = record.to_dict()
        old = {"layers": new["layers"],
               "blocks": [{"block_id": b.id, "stage": b.stage, "layer_id": b.last_conv,
                           **summary} for b in bundle.graph.blocks],
               "stages": [{"index": st.index, "width": st.width,
                           "blocks": len(st.block_ids), **summary}
                          for st in bundle.graph.stages],
               "metadata": new["metadata"]}
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(old, indent=1))
        loaded = ScoreRecord.load(str(path))
        assert loaded.fingerprint() == record.fingerprint()
        config = PruneConfig(beta=1, sign="plus", policy="resnet-stage-uniform")
        plans = [make_plan(r, bundle.graph, config) for r in (loaded, record)]
        assert [lp.kept for lp in plans[0].layers] == [lp.kept for lp in plans[1].layers]

    def test_std_vector_must_cover_every_channel(self):
        """The CLI test of malformed input covers a short ``mean``."""
        with pytest.raises(ValueError, match="layer 'conv1': std has 17 entries for 16"):
            LayerScore("conv1", "gate1", 16, np.full(16, 0.5), np.zeros(17), 1)

    def test_json_roundtrip(self, tiny_gated_bundle, planted, tmp_path):
        record = collect_scores(tiny_gated_bundle, planted.batches(16), max_batches=2)
        path = str(tmp_path / "scores.json")
        record.save(path)
        loaded = ScoreRecord.load(path)
        assert loaded.fingerprint() == record.fingerprint()
        np.testing.assert_array_equal(loaded.layers[0].mean, record.layers[0].mean)

    def test_gate_maps_to_upstream_conv(self):
        g = build("vgg16", 10, with_gates=True, init=False)
        assert scored_conv_for_gate(g, "gate3") == "conv3"
        g2 = build("preresnet164", 100, with_gates=True, init=False)
        assert scored_conv_for_gate(g2, "s2.b1.gate") == "s2.b1.conv2"
