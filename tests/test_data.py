"""Dataset ingestion contracts and the planted-task constructive oracle."""

from dataclasses import replace

import numpy as np
import pytest

from prunekit import DatasetSpec, Network, load_dataset
from prunekit.builders import initialize_parameters
from prunekit.data import class_amplitudes, spatial_template
from prunekit.errors import DataError
from prunekit.graph import ArchitectureGraph, LayerNode


def write_cifar10_file(path, n_records, rng, bad_label=None):
    rec = rng.integers(0, 256, size=(n_records, 3073), dtype=np.uint8)
    rec[:, 0] = rng.integers(0, 10, size=n_records)
    if bad_label is not None:
        rec[0, 0] = bad_label
    rec.tofile(path)


def write_cifar100_file(path, n_records, rng):
    rec = rng.integers(0, 256, size=(n_records, 3074), dtype=np.uint8)
    rec[:, 0] = rng.integers(0, 20, size=n_records)    # coarse
    rec[:, 1] = rng.integers(0, 100, size=n_records)   # fine
    rec.tofile(path)


class TestCifarBinary:
    def test_test_batch_of_10000_records(self, tmp_path, rng):
        write_cifar10_file(tmp_path / "test_batch.bin", 10000, rng)
        spec = DatasetSpec(source="cifar10-binary", root=str(tmp_path), split="eval")
        ds = load_dataset(spec)
        assert ds.size == 10000
        assert ds.x.shape == (10000, 3, 32, 32)
        assert ds.x.dtype == np.float32
        assert ds.y.min() >= 0 and ds.y.max() < 10

    def test_train_split_concatenates_five_batches(self, tmp_path, rng):
        for i in range(1, 6):
            write_cifar10_file(tmp_path / f"data_batch_{i}.bin", 20, rng)
        ds = load_dataset(DatasetSpec(source="cifar10-binary", root=str(tmp_path)))
        assert ds.size == 100

    def test_subset_fraction_is_exact(self, tmp_path, rng):
        write_cifar10_file(tmp_path / "test_batch.bin", 10000, rng)
        spec = DatasetSpec(source="cifar10-binary", root=str(tmp_path),
                           split="eval", subset=0.1)
        assert load_dataset(spec).size == 1000

    def test_truncated_file_rejected(self, tmp_path, rng):
        write_cifar10_file(tmp_path / "test_batch.bin", 5, rng)
        with open(tmp_path / "test_batch.bin", "ab") as f:
            f.write(b"\x00" * 100)
        with pytest.raises(DataError, match="3073"):
            load_dataset(DatasetSpec(source="cifar10-binary", root=str(tmp_path),
                                     split="eval"))

    def test_label_out_of_range_rejected(self, tmp_path, rng):
        write_cifar10_file(tmp_path / "test_batch.bin", 5, rng, bad_label=10)
        with pytest.raises(DataError, match="label"):
            load_dataset(DatasetSpec(source="cifar10-binary", root=str(tmp_path),
                                     split="eval"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            load_dataset(DatasetSpec(source="cifar10-binary", root=str(tmp_path)))

    def test_cifar100_uses_fine_labels(self, tmp_path, rng):
        write_cifar100_file(tmp_path / "test.bin", 50, rng)
        ds = load_dataset(DatasetSpec(source="cifar100-binary", root=str(tmp_path),
                                      split="eval"))
        assert ds.classes == 100
        assert ds.size == 50
        assert ds.y.max() < 100

    def test_normalization_recorded(self, tmp_path, rng):
        write_cifar10_file(tmp_path / "test_batch.bin", 10, rng)
        ds = load_dataset(DatasetSpec(source="cifar10-binary", root=str(tmp_path),
                                      split="eval"))
        assert len(ds.normalization["mean"]) == 3
        assert len(ds.normalization["std"]) == 3


def matched_filter_detector(spec):
    """Hand-built network that reads class identity off the channel means."""
    amps = class_amplitudes(spec.classes, spec.signal_channels, spec.amplitude)
    nodes = [
        LayerNode("probe", "conv", {"in_channels": spec.channels,
                                    "out_channels": spec.signal_channels,
                                    "kernel": (1, 1), "stride": 1, "padding": 0,
                                    "bias": True}),
        LayerNode("gap", "globalavgpool"),
        LayerNode("fc", "fullyconnected", {"in_features": spec.signal_channels,
                                           "out_features": spec.classes,
                                           "bias": True}),
        LayerNode("softmax", "softmax"),
    ]
    g = ArchitectureGraph(nodes, [("probe", "gap"), ("gap", "fc"),
                                  ("fc", "softmax")],
                          (spec.channels, spec.image_size, spec.image_size))
    initialize_parameters(g, 0)
    w = np.zeros((spec.signal_channels, spec.channels, 1, 1), dtype=np.float32)
    for c in range(spec.signal_channels):
        w[c, c, 0, 0] = 1.0         # copy signal channel c
    g.node("probe").params["weight"] = w
    g.node("probe").params["bias"][:] = 0
    # nearest-centroid classifier over channel means: 2<a_k, m> - |a_k|^2
    g.node("fc").params["weight"] = (2 * amps).astype(np.float32)
    g.node("fc").params["bias"] = (-(amps ** 2).sum(axis=1)).astype(np.float32)
    return g


class TestPlantedTask:
    def test_hand_built_detector_is_perfect_with_one_hot_code(self):
        spec = DatasetSpec(source="synthetic-planted", classes=4, samples=256,
                           channels=8, signal_channels=4, seed=0)
        ds = load_dataset(spec)
        net = Network(matched_filter_detector(spec))
        pred = net.forward(ds.x).argmax(axis=1)
        assert (pred == ds.y).all()

    def test_hand_built_detector_is_perfect_with_binary_code(self):
        # 2 signal channels among 8 encode 4 classes
        spec = DatasetSpec(source="synthetic-planted", classes=4, samples=256,
                           channels=8, signal_channels=2, seed=1)
        ds = load_dataset(spec)
        net = Network(matched_filter_detector(spec))
        pred = net.forward(ds.x).argmax(axis=1)
        assert (pred == ds.y).all()

    def test_amplitude_codes_are_pairwise_distinct(self):
        for classes, sig in ((4, 4), (4, 2), (8, 3), (6, 8)):
            amps = class_amplitudes(classes, sig, 1.0)
            rows = {tuple(r) for r in amps}
            assert len(rows) == classes

    def test_too_few_signal_channels_rejected(self):
        with pytest.raises(DataError, match="cannot encode"):
            class_amplitudes(classes=9, signal_channels=3, amplitude=1.0)

    def test_template_positive_unit_mean(self):
        t = spatial_template(16, seed=5)
        assert (t > 0).all()
        assert t.mean() == pytest.approx(1.0)

    def test_muted_probe_removes_signal_only(self):
        spec = DatasetSpec(source="synthetic-planted", classes=4, samples=64,
                           channels=8, signal_channels=4, seed=3)
        ds = load_dataset(spec)
        muted = load_dataset(replace(spec, amplitude=0.0))
        # noise channels identical, signal channels differ
        np.testing.assert_array_equal(ds.x[:, 4:], muted.x[:, 4:])
        assert np.abs(ds.x[:, :4] - muted.x[:, :4]).max() > 0.1
        np.testing.assert_array_equal(ds.y, muted.y)

    def test_splits_differ_and_are_reproducible(self):
        spec = DatasetSpec(source="synthetic-planted", seed=7)
        a = load_dataset(spec)
        b = load_dataset(spec)
        np.testing.assert_array_equal(a.x, b.x)
        ev = load_dataset(DatasetSpec.from_dict({**spec.to_dict(), "split": "eval"}))
        assert np.abs(a.x[:64] - ev.x[:64]).max() > 0.01


class TestBatches:
    def test_shuffle_is_deterministic_under_rng(self, planted_spec):
        ds = load_dataset(planted_spec)
        def order(seed):
            rng = np.random.default_rng(seed)
            return [y[0] for _, y in ds.batches(16, shuffle=True, rng=rng)]
        assert order(5) == order(5)
        assert order(5) != order(6)

    def test_batches_cover_every_sample_once(self, planted_spec):
        ds = load_dataset(planted_spec)
        seen = sum(x.shape[0] for x, _ in ds.batches(13))
        assert seen == ds.size


def test_spec_validation():
    with pytest.raises(DataError, match="subset"):
        DatasetSpec(source="synthetic-random", subset=0.0)
    with pytest.raises(DataError, match="unknown source"):
        DatasetSpec(source="imagenet")
    with pytest.raises(DataError, match="split"):
        DatasetSpec(source="synthetic-random", split="dev")
    with pytest.raises(DataError, match="signal"):
        DatasetSpec(source="synthetic-planted", signal_channels=0)
    with pytest.raises(DataError, match=r"signal_channels \(4\) must be at most channels \(3\)"):
        DatasetSpec(source="synthetic-planted", channels=3)
    with pytest.raises(DataError, match=r"signal_channels \(2\) cannot encode 5 classes"):
        DatasetSpec(source="synthetic-planted", classes=5, signal_channels=2)
    # a binary code over amplitudes {a, 2a} fits 2**signal_channels classes
    DatasetSpec(source="synthetic-planted", classes=4, signal_channels=2)
    # only the planted task reads signal_channels
    DatasetSpec(source="synthetic-random", channels=3)


def test_random_source_shapes():
    ds = load_dataset(DatasetSpec(source="synthetic-random", classes=3,
                                  samples=17, channels=2, image_size=8))
    assert ds.x.shape == (17, 2, 8, 8)
    assert ds.classes == 3
