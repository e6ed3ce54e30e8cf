import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _traced_peak(fn):
    """Run ``fn()`` under tracemalloc; returns (peak bytes traced, its result).

    Only allocations made while ``fn`` runs are traced, so the peak is what
    the call holds at its highest on top of what already existed.
    """
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak


@pytest.fixture
def tiny_gated_bundle():
    from prunekit import ModelBundle, build
    return ModelBundle(build("tiny-vgg", 4, with_gates=True, reduction=4, seed=7))


@pytest.fixture
def planted_spec():
    from prunekit import DatasetSpec
    return DatasetSpec(source="synthetic-planted", classes=4, samples=128,
                       channels=8, signal_channels=4, seed=11)
