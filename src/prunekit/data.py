"""Dataset ingestion: CIFAR binary files and synthetic desk-scale tasks.

CIFAR-10 files are sequences of 3073-byte records (one label byte, then
3x32x32 pixel bytes); CIFAR-100 records are 3074 bytes (coarse label, fine
label, pixels).  Pixels are scaled to [0,1] and normalized per channel with
constants recorded on the dataset, not hard-coded downstream.

The synthetic-planted task provides what no real dataset can: a ground-truth
channel-importance ordering.  Each class is a distinct amplitude code over
the designated signal channels, textured by a fixed smooth spatial template;
the remaining channels are pure Gaussian noise.  Channel means therefore
separate the classes linearly, a hand-built detector classifies perfectly,
and any useful importance score must rank signal channels above noise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .records import Record, at_least

SOURCES = ("cifar10-binary", "cifar100-binary", "synthetic-planted", "synthetic-random")


@dataclass
class DatasetSpec(Record):
    source: str
    root: str | None = None
    split: str = "train"
    subset: float = 1.0
    # synthetic generator parameters
    classes: int = 4
    samples: int = 512
    channels: int = 8
    signal_channels: int = 4
    image_size: int = 16
    amplitude: float = 1.0
    noise_std: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.source not in SOURCES:
            raise DataError(f"unknown source '{self.source}'")
        if not (0.0 < self.subset <= 1.0):
            raise DataError(f"subset fraction must be in (0, 1], got {self.subset}")
        at_least(self, DataError, samples=1, channels=1, image_size=1, noise_std=0, seed=0)
        if self.split not in ("train", "eval"):
            raise DataError(f"split must be train or eval, got '{self.split}'")
        if self.source == "synthetic-planted" and self.signal_channels < 1:
            raise DataError("synthetic-planted needs at least one signal channel")


@dataclass
class Dataset:
    x: np.ndarray            # (n, c, h, w) float32
    y: np.ndarray            # (n,) int64
    classes: int
    normalization: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.x.shape[0]

    def batches(self, batch_size: int, shuffle: bool = False, rng=None):
        """Yield (x, y) mini-batches; order is deterministic given rng state."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        idx = np.arange(self.size)
        if shuffle:
            (rng or np.random.default_rng(0)).shuffle(idx)
        for start in range(0, self.size, batch_size):
            sel = idx[start:start + batch_size]
            yield self.x[sel], self.y[sel]


def _apply_subset(x, y, fraction):
    if fraction >= 1.0:
        return x, y
    n = max(1, int(round(fraction * x.shape[0])))
    return x[:n], y[:n]


# ---------------------------------------------------------------------------
# CIFAR binary readers

def _read_cifar_records(path: str, record_len: int, label_offset: int,
                        num_labels: int):
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % record_len != 0:
        raise DataError(f"{path}: size {raw.size} is not a multiple of "
                        f"{record_len}-byte records")
    rec = raw.reshape(-1, record_len)
    labels = rec[:, label_offset].astype(np.int64)
    if labels.max(initial=0) >= num_labels:
        raise DataError(f"{path}: label {labels.max()} out of range [0, {num_labels})")
    pixels = rec[:, label_offset + 1:].reshape(-1, 3, 32, 32)
    return pixels, labels


def _normalize(pixels: np.ndarray, mean, std) -> np.ndarray:
    x = pixels.astype(np.float32) / 255.0
    m = np.asarray(mean, dtype=np.float32)[None, :, None, None]
    s = np.asarray(std, dtype=np.float32)[None, :, None, None]
    return (x - m) / s


# per source: name in messages, files per split, record length, label offset
# (CIFAR-100's fine label), classes, per-channel mean and std
CIFAR_FORMATS = {
    "cifar10-binary": ("CIFAR-10", {"train": [f"data_batch_{i}.bin" for i in range(1, 6)],
                                    "eval": ["test_batch.bin"]},
                       3073, 0, 10, (0.4914, 0.4822, 0.4465), (0.2470, 0.2435, 0.2616)),
    "cifar100-binary": ("CIFAR-100", {"train": ["train.bin"], "eval": ["test.bin"]},
                        3074, 1, 100, (0.5071, 0.4865, 0.4409), (0.2673, 0.2564, 0.2762)),
}


def _load_cifar(spec: DatasetSpec) -> Dataset:
    name, files, record_len, label_offset, classes, mean, std = CIFAR_FORMATS[spec.source]
    if spec.root is None:
        raise DataError(f"{spec.source} needs a root directory")
    xs, ys = [], []
    for file in files[spec.split]:
        path = os.path.join(spec.root, file)
        if not os.path.exists(path):
            raise DataError(f"missing {name} file {path}")
        px, lb = _read_cifar_records(path, record_len, label_offset, classes)
        xs.append(px)
        ys.append(lb)
    px, y = _apply_subset(np.concatenate(xs), np.concatenate(ys), spec.subset)
    return Dataset(_normalize(px, mean, std), y, classes, {"mean": list(mean), "std": list(std)})


# ---------------------------------------------------------------------------
# synthetic tasks

def class_amplitudes(classes: int, signal_channels: int, amplitude: float) -> np.ndarray:
    """Per-class amplitude over signal channels; rows are pairwise distinct.

    With enough signal channels the code is one-hot; otherwise a binary
    code over amplitudes {a, 2a} is used, which needs
    2**signal_channels >= classes.
    """
    amps = np.zeros((classes, signal_channels))
    if signal_channels >= classes:
        for k in range(classes):
            amps[k, k] = amplitude
        return amps
    if 2 ** signal_channels < classes:
        raise DataError(f"{signal_channels} signal channels cannot encode "
                        f"{classes} classes")
    for k in range(classes):
        for c in range(signal_channels):
            amps[k, c] = amplitude * (1 + ((k >> c) & 1))
    return amps


def spatial_template(image_size: int, seed: int) -> np.ndarray:
    """Fixed positive template with mean 1; gives the planted signal texture."""
    rng = np.random.default_rng(seed + 7919)
    i = np.arange(image_size)[:, None]
    j = np.arange(image_size)[None, :]
    phase = rng.uniform(0, 2 * np.pi, size=2)
    t = 1.0 + 0.25 * np.cos(2 * np.pi * i / image_size + phase[0]) \
            * np.cos(2 * np.pi * j / image_size + phase[1])
    return t / t.mean()


def _make_planted(spec: DatasetSpec) -> Dataset:
    if spec.signal_channels > spec.channels:
        raise DataError("more signal channels than channels")
    split_salt = 0 if spec.split == "train" else 1
    rng = np.random.default_rng((spec.seed, split_salt))
    n = spec.samples
    amps = class_amplitudes(spec.classes, spec.signal_channels, spec.amplitude)
    template = spatial_template(spec.image_size, spec.seed)

    y = rng.integers(0, spec.classes, size=n)
    x = rng.normal(0.0, spec.noise_std,
                   size=(n, spec.channels, spec.image_size, spec.image_size))
    per_sample = amps[y]  # (n, signal_channels)
    x[:, :spec.signal_channels] += per_sample[:, :, None, None] * template
    x = x.astype(np.float32)
    x, y = _apply_subset(x, y.astype(np.int64), spec.subset)
    return Dataset(x, y, spec.classes, {
        "task": "planted", "signal_channels": spec.signal_channels,
        "amplitude": spec.amplitude,
        "noise_std": spec.noise_std,
    })


def _make_random(spec: DatasetSpec) -> Dataset:
    split_salt = 0 if spec.split == "train" else 1
    rng = np.random.default_rng((spec.seed, split_salt))
    x = rng.normal(0.0, 1.0, size=(spec.samples, spec.channels, spec.image_size,
                                   spec.image_size)).astype(np.float32)
    y = rng.integers(0, spec.classes, size=spec.samples).astype(np.int64)
    x, y = _apply_subset(x, y, spec.subset)
    return Dataset(x, y, spec.classes, {"task": "random"})


def load_dataset(spec: DatasetSpec) -> Dataset:
    if spec.source in CIFAR_FORMATS:
        return _load_cifar(spec)
    if spec.source == "synthetic-planted":
        return _make_planted(spec)
    return _make_random(spec)

