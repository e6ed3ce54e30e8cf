"""Loss forms, the momentum update, the LR schedule, and the train loop."""

import math
import tracemalloc

import numpy as np
import pytest

from prunekit import (DatasetSpec, GradTape, ModelBundle, Network, TrainConfig, build,
                      evaluate, load_dataset, train)
from prunekit import trainer
from prunekit.bundle import bundle_fingerprint
from prunekit.data import Dataset
from prunekit.errors import TrainingDiverged
from prunekit.trainer import (OptimizerState, data_loss_and_grad, lr_at, penalized_loss,
                              penalty_value, retrain)

from gradcheck import astype
from oracles import penalized_loss_loops, sgd_recurrence


def loss(p, y, weights=(), weight_decay=0.0, variant="softmax-ce"):
    """The scalar ``penalized_loss`` returns: the data term plus the L2 penalty."""
    return data_loss_and_grad(p, y, variant)[0] + penalty_value(list(weights), weight_decay)[0]


class TestLoss:
    def test_perfect_prediction_is_zero_for_both_variants(self):
        y = np.array([[1.0, 0.0]])
        p = np.array([[1.0, 0.0]])
        assert loss(p, y, variant="softmax-ce") == pytest.approx(0.0, abs=1e-9)
        assert loss(p, y, variant="binary-ce") == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction_reference_values(self):
        y = np.array([[1.0, 0.0]])
        p = np.array([[0.5, 0.5]])
        assert loss(p, y, variant="softmax-ce") == pytest.approx(math.log(2), rel=1e-9)
        assert loss(p, y, variant="binary-ce") == pytest.approx(2 * math.log(2),
                                                                rel=1e-9)

    def test_matches_scalar_loop_oracle(self, rng):
        logits = rng.normal(size=(5, 4))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        y = np.zeros_like(p)
        y[np.arange(5), rng.integers(0, 4, 5)] = 1
        weights = [rng.normal(size=(3, 3)), rng.normal(size=7)]
        for variant in ("softmax-ce", "binary-ce"):
            got = loss(p, y, weights, weight_decay=0.05, variant=variant)
            want = penalized_loss_loops(p, y, weights, 0.05, variant)
            assert got == pytest.approx(want, rel=1e-6)

    def test_loss_nonnegative_under_clamp(self, rng):
        for _ in range(20):
            logits = rng.normal(size=(3, 4)) * 20
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            y = np.zeros_like(p)
            y[np.arange(3), rng.integers(0, 4, 3)] = 1
            assert loss(p, y, variant="softmax-ce") >= 0
            assert loss(p, y, variant="binary-ce") >= 0


def sgd_steps(w0, grads, lr, momentum):
    """Feed scalar gradients to the optimizer ``train`` uses; returns the
    weight after each step and the final velocity."""
    opt, w = OptimizerState(), np.array(w0)
    track = []
    for g in grads:
        opt.step([("n", "w", w)], {("n", "w"): np.array(g)}, lr, momentum)
        track.append(float(w))
    return track, opt.velocity[("n", "w")]


class TestSgdStep:
    def test_zero_momentum_is_plain_descent(self):
        (w,), v = sgd_steps(1.0, [0.5], lr=0.1, momentum=0.0)
        assert w == pytest.approx(0.95)
        assert v == pytest.approx(-0.05)

    def test_two_step_worked_example(self):
        track, _ = sgd_steps(1.0, [0.5, 0.5], lr=0.1, momentum=0.9)
        assert track[0] == pytest.approx(0.95)
        assert track[1] == pytest.approx(0.855)

    def test_matches_scalar_recurrence_oracle(self, rng):
        grads = rng.normal(size=10)
        track, _ = sgd_steps(2.0, grads, lr=0.05, momentum=0.9)
        np.testing.assert_allclose(track, sgd_recurrence(2.0, grads, 0.05, 0.9),
                                   rtol=1e-12)

    def test_one_step_descends_a_quadratic(self):
        # f(w) = 0.5 * w^2, gradient w; small lr strictly decreases f
        w = 3.0
        (w2,), _ = sgd_steps(w, [w], lr=0.1, momentum=0.0)
        assert 0.5 * w2 ** 2 < 0.5 * w ** 2


class TestSchedule:
    def test_three_plateaus_for_160_epochs(self):
        cfg = TrainConfig(epochs=160, lr=0.1)
        lrs = [lr_at(e, cfg) for e in range(160)]
        assert all(lr == pytest.approx(0.1) for lr in lrs[:80])
        assert all(lr == pytest.approx(0.01) for lr in lrs[80:120])
        assert all(lr == pytest.approx(0.001) for lr in lrs[120:160])

    def test_schedule_scales_with_budget(self):
        cfg = TrainConfig(epochs=40, lr=0.2)
        assert lr_at(19, cfg) == pytest.approx(0.2)
        assert lr_at(20, cfg) == pytest.approx(0.02)
        assert lr_at(30, cfg) == pytest.approx(0.002)


@pytest.fixture(scope="module")
def planted_pair():
    spec = DatasetSpec(source="synthetic-planted", classes=4, samples=192, seed=6)
    train_data = load_dataset(spec)
    eval_data = load_dataset(DatasetSpec.from_dict(
        {**spec.to_dict(), "split": "eval", "samples": 96}))
    return train_data, eval_data


class TestTrainLoop:
    def test_planted_task_reaches_90pct_train_accuracy(self, planted_pair):
        train_data, eval_data = planted_pair
        bundle = ModelBundle(build("tiny-vgg", 4, seed=1))
        cfg = TrainConfig(epochs=20, batch_size=32, lr=0.05, seed=3)
        trained, history = train(bundle, train_data, eval_data, cfg)
        assert history[-1]["train_acc"] > 0.9

    def test_fixed_seed_is_bit_deterministic(self, planted_pair):
        train_data, eval_data = planted_pair
        cfg = TrainConfig(epochs=3, batch_size=32, lr=0.05, seed=9)
        runs = []
        for _ in range(2):
            bundle = ModelBundle(build("tiny-vgg", 4, with_gates=True,
                                       reduction=4, seed=2))
            trained, history = train(bundle, train_data, eval_data, cfg)
            runs.append((bundle_fingerprint(trained),
                         tuple(h["train_loss"] for h in history)))
        assert runs[0] == runs[1]

    def test_history_records_schedule_and_metrics(self, planted_pair):
        train_data, eval_data = planted_pair
        bundle = ModelBundle(build("tiny-vgg", 4, seed=1))
        cfg = TrainConfig(epochs=4, batch_size=32, lr=0.08, seed=0)
        _, history = train(bundle, train_data, eval_data, cfg)
        assert [h["epoch"] for h in history] == [0, 1, 2, 3]
        assert history[0]["lr"] == pytest.approx(0.08)
        assert history[2]["lr"] == pytest.approx(0.008)
        assert history[3]["lr"] == pytest.approx(0.0008)
        assert all(0 <= h["eval_acc"] <= 1 for h in history)

    def test_best_checkpoint_matches_history_peak(self, planted_pair):
        train_data, eval_data = planted_pair
        bundle = ModelBundle(build("tiny-vgg", 4, seed=1))
        cfg = TrainConfig(epochs=5, batch_size=32, lr=0.05, seed=4)
        trained, history = train(bundle, train_data, eval_data, cfg)
        best = max(h["eval_acc"] for h in history)
        assert evaluate(trained, eval_data) == pytest.approx(best)

    def test_nonfinite_loss_aborts_with_location(self, planted_pair):
        train_data, eval_data = planted_pair
        bundle = ModelBundle(build("tiny-vgg", 4, seed=1))
        bundle.graph.node("conv3").params["weight"][0, 0, 0, 0] = np.nan
        cfg = TrainConfig(epochs=2, batch_size=32, lr=0.05, seed=0)
        with pytest.raises(TrainingDiverged) as err:
            train(bundle, train_data, eval_data, cfg)
        assert err.value.epoch == 0 and err.value.batch == 0

    def test_binary_ce_variant_trains(self, planted_pair):
        train_data, eval_data = planted_pair
        bundle = ModelBundle(build("tiny-vgg", 4, seed=1))
        cfg = TrainConfig(epochs=6, batch_size=32, lr=0.05, seed=0,
                          loss_variant="binary-ce")
        _, history = train(bundle, train_data, eval_data, cfg)
        assert history[-1]["train_acc"] > 0.7

    def test_augmentation_flag_trains_and_stays_deterministic(self, planted_pair):
        train_data, eval_data = planted_pair
        cfg = TrainConfig(epochs=3, batch_size=32, lr=0.05, seed=2, augment=True)
        fps = []
        for _ in range(2):
            bundle = ModelBundle(build("tiny-vgg", 4, seed=1))
            trained, history = train(bundle, train_data, eval_data, cfg)
            fps.append(bundle_fingerprint(trained))
        assert fps[0] == fps[1]
        assert history[-1]["train_acc"] > 0.5

    def test_augment_batch_preserves_shape_and_values_range(self):
        from prunekit.trainer import augment_batch
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        out = augment_batch(x, np.random.default_rng(1))
        assert out.shape == x.shape
        assert np.abs(out).max() <= np.abs(x).max() + 1e-6


class TestActivationBound:
    """No pass holds more than one training batch of activations."""

    def test_every_evaluation_runs_at_the_training_batch(self, planted_pair, monkeypatch):
        train_data, eval_data = planted_pair
        sizes, batches = [], eval_data.batches

        def spy(batch_size, *args, **kwargs):
            sizes.append(batch_size)
            return batches(batch_size, *args, **kwargs)

        monkeypatch.setattr(eval_data, "batches", spy)
        cfg = TrainConfig(epochs=3, batch_size=24, lr=0.05, seed=0)
        train(ModelBundle(build("tiny-vgg", 4, seed=1)), train_data, eval_data, cfg)
        assert sizes == [24, 24, 24]

    def test_epoch_evaluation_peaks_no_higher_than_a_training_step(self, traced_peak,
                                                                   monkeypatch):
        """Desk tiny-vgg: one 64-sample step, then an evaluation of 512 samples.
        The evaluation's peak counts all that the epoch still holds."""
        spec = DatasetSpec(source="synthetic-planted")
        train_data = load_dataset(spec)
        eval_data = load_dataset(DatasetSpec.from_dict({**spec.to_dict(), "split": "eval"}))
        cfg = TrainConfig(epochs=1)
        one_step = Dataset(train_data.x[:cfg.batch_size], train_data.y[:cfg.batch_size],
                           train_data.classes)
        bundle = ModelBundle(build("tiny-vgg", 4, with_gates=True, reduction=4, seed=0))
        peaks, original = {}, trainer.evaluate

        def measured(*args):
            peaks["step"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            try:
                return original(*args)
            finally:
                peaks["eval"] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(trainer, "evaluate", measured)
        traced_peak(lambda: train(bundle, one_step, eval_data, cfg))
        assert eval_data.size == 8 * cfg.batch_size
        assert 0 < peaks["eval"] <= peaks["step"]


class TestRetrainScratch:
    def test_epoch_budget_comes_from_report(self, planted_pair):
        from prunekit.accounting import CompressionReport
        train_data, eval_data = planted_pair
        compact = ModelBundle(build("tiny-vgg", 4, seed=2),
                              {"rewrite_mode": "architecture-only"})
        rep = CompressionReport(params_before=2, params_after=1,
                                flops_before=1000, flops_after=500, base_epochs=2)
        _, history = retrain(compact, train_data, eval_data,
                             TrainConfig(epochs=2, batch_size=32, lr=0.05), rep)
        assert len(history) == rep.epoch_recommendation == 4

    def test_identity_budget_is_base_epochs(self, planted_pair):
        from prunekit.accounting import CompressionReport
        rep = CompressionReport(params_before=1, params_after=1,
                                flops_before=777, flops_after=777, base_epochs=3)
        assert rep.epoch_recommendation == 3

    def test_report_without_base_epochs_rejected(self, planted_pair):
        from prunekit.accounting import CompressionReport
        train_data, eval_data = planted_pair
        compact = ModelBundle(build("tiny-vgg", 4, seed=2))
        rep = CompressionReport(1, 1, 10, 10)
        with pytest.raises(ValueError, match="no epoch budget"):
            retrain(compact, train_data, eval_data, TrainConfig(), rep)


class TestL2Scale:
    """The penalty divides weight_decay by the total weight count n."""

    @pytest.mark.parametrize("arch, classes, reduction, n", [
        ("tiny-vgg", 4, 4, 18688), ("resnet56", 10, 16, 857552)])
    def test_weight_count_of_gated_nets(self, arch, classes, reduction, n):
        net = Network(build(arch, classes, with_gates=True, reduction=reduction, seed=0))
        assert penalty_value([w for _, _, w in net.weight_parameters()], 1e-4)[1] == n

    def test_penalty_gradient_is_weight_decay_over_n_times_w(self):
        net = astype(Network(build("tiny-vgg", 4, with_gates=True, reduction=4, seed=0)),
                     np.float64)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(4, 8, 16, 16)), rng.integers(0, 4, size=4)
        grads = {}
        for wd in (0.0, 1e-4):
            tape = GradTape()
            penalized_loss(net, x, y, "softmax-ce", wd, False, tape)
            grads[wd] = tape.grads
        weights = list(net.weight_parameters())
        for node_id, pname, w in weights:
            decay = grads[1e-4][(node_id, pname)] - grads[0.0][(node_id, pname)]
            np.testing.assert_allclose(decay, 1e-4 / 18688 * w, rtol=1e-6, atol=1e-18)

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError, match="weight_decay must be at least 0, got -0.0001"):
        TrainConfig(weight_decay=-1e-4)
    with pytest.raises(ValueError):
        TrainConfig(loss_variant="hinge")
