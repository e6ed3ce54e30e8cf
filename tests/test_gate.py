"""Squeeze / excite / scale semantics and their invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from prunekit.errors import StructuralError
from prunekit.gate import excite, gate_forward, hidden_width, scale, squeeze

from oracles import excite_loops, squeeze_loops


class TestSqueeze:
    def test_all_zeros_gives_zero(self):
        u = np.zeros((1, 1, 3, 3))
        assert squeeze(u)[0, 0] == 0.0

    def test_mixed_signs_average_absolute_values(self):
        u = np.array([[[[1.0, -1.0], [2.0, -2.0]]]])
        assert squeeze(u)[0, 0] == pytest.approx(1.5)

    def test_matches_scalar_loop_exactly(self, rng):
        u = rng.normal(size=(1, 1, 7, 5))
        got = squeeze(u)[0, 0]
        want = squeeze_loops(u[0, 0])
        assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, (1, 2, 3, 4),
                      elements=st.floats(-1e3, 1e3, allow_nan=False)))
    def test_sign_flip_invariance_is_exact(self, u):
        np.testing.assert_array_equal(squeeze(u), squeeze(-u))


class TestExcite:
    def test_zero_weights_give_exact_half(self):
        c, hid = 6, 3
        s = excite(np.random.default_rng(0).normal(size=c)[None],
                   np.zeros((hid, c)), np.zeros((c, hid)))
        np.testing.assert_array_equal(s, np.full((1, c), 0.5))

    def test_zero_input_gives_half(self, rng):
        c, hid = 4, 2
        s = excite(np.zeros((1, c)), rng.normal(size=(hid, c)), rng.normal(size=(c, hid)))
        np.testing.assert_array_equal(s, np.full((1, c), 0.5))

    def test_matches_dense_oracle(self, rng):
        c, r = 6, 2
        hid = hidden_width(c, r)
        z = rng.normal(size=c) ** 2
        w1 = rng.normal(size=(hid, c))
        w2 = rng.normal(size=(c, hid))
        np.testing.assert_allclose(excite(z[None], w1, w2)[0], excite_loops(z, w1, w2),
                                   atol=1e-6)

    def test_output_strictly_inside_unit_interval(self, rng):
        # inputs at the scale the gate actually sees: nonnegative squeeze
        # values and fan-in-scaled weights
        for _ in range(20):
            c = int(rng.integers(1, 9))
            hid = hidden_width(c, 2)
            z = np.abs(rng.normal(size=c)) * 3
            w1 = rng.normal(0, np.sqrt(2 / c), size=(hid, c))
            w2 = rng.normal(0, np.sqrt(2 / hid), size=(c, hid))
            s = excite(z[None], w1, w2)
            assert ((s > 0) & (s < 1)).all()


class TestScale:
    def test_ones_identity(self, rng):
        u = rng.normal(size=(2, 3, 4, 4))
        np.testing.assert_array_equal(scale(u, np.ones((2, 3))), u)

    def test_zeros_annihilate(self, rng):
        u = rng.normal(size=(2, 3, 4, 4))
        assert (scale(u, np.zeros((2, 3))) == 0).all()

    def test_one_hot_selects_single_channel(self, rng):
        u = rng.normal(size=(1, 4, 3, 3))
        s = np.zeros(4)
        s[2] = 1.0
        out = scale(u, s[None])
        np.testing.assert_array_equal(out[:, 2], u[:, 2])
        assert (np.delete(out, 2, axis=1) == 0).all()

    def test_channel_sum_linear_in_gate(self, rng):
        u = rng.normal(size=(1, 3, 4, 4))
        s = rng.uniform(0.1, 0.9, size=3)
        base = scale(u, s[None]).sum(axis=(2, 3))
        s2 = s.copy()
        s2[1] *= 2.0
        doubled = scale(u, s2[None]).sum(axis=(2, 3))
        assert doubled[0, 1] == pytest.approx(2 * base[0, 1], rel=1e-6)
        assert doubled[0, 0] == pytest.approx(base[0, 0], rel=1e-6)

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(StructuralError, match="gate values"):
            scale(rng.normal(size=(1, 3, 2, 2)), np.ones((1, 5)))


def test_hidden_width_floors_at_one():
    assert hidden_width(16, 16) == 1
    assert hidden_width(15, 16) == 1
    assert hidden_width(64, 16) == 4
    assert hidden_width(3, 1) == 3
    with pytest.raises(ValueError, match="reduction must be at least 1, got 0"):
        hidden_width(4, 0)


def test_gate_forward_composition(rng):
    """Full block equals squeeze -> excite -> scale applied separately."""
    u = rng.normal(size=(2, 4, 5, 5))
    w1 = rng.normal(size=(2, 4))
    w2 = rng.normal(size=(4, 2))
    y, cache = gate_forward(u, w1, w2)
    z = squeeze(u)
    s = excite(z, w1, w2)
    np.testing.assert_allclose(y, scale(u, s), rtol=1e-12)
    assert y.shape == u.shape
    np.testing.assert_array_equal(cache.s, s)   # scoring reads the scores by name
