"""Forward kernels against independent oracles, plus routing invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prunekit import ops
from prunekit.errors import StructuralError

from oracles import batchnorm_loops, conv2d_backward_loops, conv2d_loops, maxpool_loops


def draw_conv_case(data, max_n=2):
    """A random conv problem, float64: n <= max_n, cin, cout, h, w, k <= 3, stride 1-3, padding 0-2.

    The draws include phases that no kernel tap reads (k < stride), padding
    past k-1, and padded widths that are not a multiple of the stride."""
    n = data.draw(st.integers(1, max_n))
    cin = data.draw(st.integers(1, 4))
    cout = data.draw(st.integers(1, 4))
    h = data.draw(st.integers(1, 8))
    w = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, min(3, h, w)))
    stride = data.draw(st.integers(1, 3))
    padding = data.draw(st.integers(0, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    return (rng.normal(size=(n, cin, h, w)), rng.normal(size=(cout, cin, k, k)),
            rng.normal(size=cout), stride, padding)


def small_tiles(data, x, wt, stride, padding):
    """A TILE_BYTES of at most three samples' patches, so a batch of up to 7
    spans several tiles and the last is often ragged.  One sample's patches
    are cin*kh*kw runs of ho*Wq values, Wq = max(wo, ceil((w + padding) / stride))."""
    n, cin, h, w = x.shape
    _, _, kh, kw = wt.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    wq = max(wo, -(-(w + padding) // stride))
    sample = cin * kh * kw * ho * wq * x.itemsize
    return data.draw(st.integers(1, 3 * sample))


class TestConvForward:
    def test_identity_1x1_kernel(self):
        x = np.random.default_rng(0).normal(size=(2, 1, 5, 5)).astype(np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        y, _ = ops.conv2d_forward(x, w, b, stride=1, padding=0)
        np.testing.assert_array_equal(y, x)

    def test_matches_nested_loop_oracle(self, rng):
        x = rng.normal(size=(1, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        y, _ = ops.conv2d_forward(x, w, None, stride=1, padding=1)
        ref = conv2d_loops(x.astype(np.float64), w.astype(np.float64), padding=1)
        rel = np.abs(y - ref).max() / np.abs(ref).max()
        assert rel < 1e-5

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_oracle_property_over_random_shapes(self, data):
        x, wt, b, stride, padding = draw_conv_case(data)
        y, _ = ops.conv2d_forward(x, wt, b, stride=stride, padding=padding)
        ref = conv2d_loops(x, wt, b, stride=stride, padding=padding)
        np.testing.assert_allclose(y, ref, rtol=1e-9, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_oracle_property_across_tiles(self, data):
        x, wt, b, stride, padding = draw_conv_case(data, max_n=7)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "TILE_BYTES", small_tiles(data, x, wt, stride, padding))
            y, _ = ops.conv2d_forward(x, wt, b, stride=stride, padding=padding)
        ref = conv2d_loops(x, wt, b, stride=stride, padding=padding)
        np.testing.assert_allclose(y, ref, rtol=1e-9, atol=1e-9)

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(2, 5, 3, 3))
        with pytest.raises(StructuralError, match="3 channels.*expects 5"):
            ops.conv2d_forward(x, w, None, 1, 1)

    def test_kernel_too_large_raises(self, rng):
        x = rng.normal(size=(1, 1, 2, 2))
        w = rng.normal(size=(1, 1, 5, 5))
        with pytest.raises(StructuralError, match="does not fit"):
            ops.conv2d_forward(x, w, None, 1, 0)


def check_backward_against_oracle(x, wt, b, stride, padding):
    y, cache = ops.conv2d_forward(x, wt, b, stride=stride, padding=padding)
    dy = np.random.default_rng(0).normal(size=y.shape)
    dx, dw, db = ops.conv2d_backward(dy, cache)
    ref_dx, ref_dw, ref_db = conv2d_backward_loops(x, wt, dy, stride=stride, padding=padding)
    for got, ref in ((dx, ref_dx), (dw, ref_dw), (db, ref_db)):
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)


class TestConvBackward:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_oracle_property_over_random_shapes(self, data):
        check_backward_against_oracle(*draw_conv_case(data))

    # k=1 with padding 1 (padding > k-1), strides that leave trailing rows and
    # columns no window covers, and stride 3, where a kernel of 2 leaves a
    # phase with no tap; then k=1 with padding 2, where the output is wider
    # than the image after its left margin and so sets the plane width, and
    # two shapes whose last output column's run reads past its row's end and
    # wraps into the next row's left margin
    @pytest.mark.parametrize("k, stride, padding, h, w",
                             [(1, 1, 1, 4, 3), (1, 2, 1, 5, 4), (3, 2, 0, 6, 7), (2, 2, 1, 5, 6),
                              (3, 3, 1, 7, 8), (2, 3, 2, 5, 7), (1, 1, 2, 4, 3), (1, 3, 2, 5, 4),
                              (3, 2, 1, 7, 7), (4, 3, 2, 6, 7)])
    def test_oracle_edge_cases(self, rng, k, stride, padding, h, w):
        x = rng.normal(size=(2, 3, h, w))
        check_backward_against_oracle(x, rng.normal(size=(2, 3, k, k)), rng.normal(size=2),
                                      stride, padding)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_oracle_property_across_tiles(self, data):
        x, wt, b, stride, padding = draw_conv_case(data, max_n=7)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "TILE_BYTES", small_tiles(data, x, wt, stride, padding))
            check_backward_against_oracle(x, wt, b, stride, padding)

    def test_repeated_backward_gives_bit_identical_weight_grad(self, rng, monkeypatch):
        # 5 samples in tiles of 2: the weight gradient rebuilds all three, last to first
        x = rng.normal(size=(5, 3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        walks, tiles = [], ops._tiles

        def spy(*args, **kwargs):
            walks.append([])
            for s, e, cols in tiles(*args, **kwargs):
                walks[-1].append((s, e))
                yield s, e, cols

        monkeypatch.setattr(ops, "_tiles", spy)
        for stride in (1, 2):
            ho, wq = 6 // stride, -(-7 // stride)  # the left-padded input is 7 wide
            monkeypatch.setattr(ops, "TILE_BYTES", 2 * 3 * 9 * ho * wq * 4)
            y, cache = ops.conv2d_forward(x, w, None, stride=stride, padding=1)
            dy = rng.normal(size=y.shape).astype(np.float32)
            del walks[:]
            first, second = ops.conv2d_backward(dy, cache), ops.conv2d_backward(dy, cache)
            # each backward: the weight gradient's walk, then the input gradient's
            assert walks[0] == walks[2] == [(4, 5), (2, 4), (0, 2)]
            assert first[1].tobytes() == second[1].tobytes()
            assert first[0].tobytes() == second[0].tobytes()

    @pytest.mark.parametrize("k, stride, padding", [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)])
    def test_parameter_gradients_alone_are_bitwise_the_full_ones(self, rng, k, stride, padding):
        """``input_grad=False`` skips the input gradient and leaves the rest unchanged."""
        x = rng.normal(size=(3, 4, 7, 7)).astype(np.float32)
        w = rng.normal(size=(5, 4, k, k)).astype(np.float32)
        y, cache = ops.conv2d_forward(x, w, rng.normal(size=5).astype(np.float32),
                                      stride=stride, padding=padding)
        dy = rng.normal(size=y.shape).astype(np.float32)
        dx, dw, db = ops.conv2d_backward(dy, cache, input_grad=False)
        full = ops.conv2d_backward(dy, cache)
        assert dx is None and full[0].shape == x.shape
        assert dw.tobytes() == full[1].tobytes() and db.tobytes() == full[2].tobytes()

    def test_cache_layout(self, rng, monkeypatch):
        # perfbench's tracer reads slot 1's size and the weight from the cache;
        # the k x k path keeps the input there and no patch matrix
        x = rng.normal(size=(5, 3, 7, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 2, 3)).astype(np.float32)
        # one tile of all 5 samples, or tiles of 2: a sample's patches are
        # cin*kh*kw = 18 runs of a 4x5 output grid
        for tile_bytes in (ops.TILE_BYTES, 2 * 18 * 4 * 5 * x.itemsize):
            monkeypatch.setattr(ops, "TILE_BYTES", tile_bytes)
            y, cache = ops.conv2d_forward(x, w, None, stride=2, padding=1)
            assert y.shape[2:] == (4, 4)
            x_in, kept, weight, has_bias, stride, padding = cache
            assert x_in is x and kept is x and weight is w
            assert (has_bias, stride, padding) == (False, 2, 1)


class TestConv1x1:
    """A 1x1 kernel with padding 0 runs as one batched GEMM on the input."""

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-9), (np.float32, 1e-5)])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_loop_oracles(self, rng, stride, with_bias, n, dtype, tol):
        # 5x6 leaves a trailing column that no stride-2 window covers
        x = rng.normal(size=(n, 3, 5, 6))
        wt = rng.normal(size=(4, 3, 1, 1))
        b = rng.normal(size=4) if with_bias else None
        y, cache = ops.conv2d_forward(x.astype(dtype), wt.astype(dtype),
                                      None if b is None else b.astype(dtype), stride, 0)
        ref = conv2d_loops(x, wt, b, stride=stride)
        assert y.dtype == dtype and y.shape == ref.shape
        np.testing.assert_allclose(y, ref, rtol=tol, atol=tol)

        dy = rng.normal(size=y.shape)
        dx, dw, db = ops.conv2d_backward(dy.astype(dtype), cache)
        ref_dx, ref_dw, ref_db = conv2d_backward_loops(x, wt, dy, stride=stride)
        for got, want in ((dx, ref_dx), (dw, ref_dw)):
            assert got.dtype == dtype and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
        if with_bias:
            np.testing.assert_allclose(db, ref_db, rtol=tol, atol=tol)
        else:
            assert db is None

    @pytest.mark.parametrize("stride", [1, 2])
    def test_cache_holds_the_gemm_input(self, rng, stride):
        x = rng.normal(size=(3, 4, 6, 6)).astype(np.float32)
        w = rng.normal(size=(5, 4, 1, 1)).astype(np.float32)
        y, cache = ops.conv2d_forward(x, w, None, stride, 0)
        x_in, xs, weight, has_bias, cached_stride, padding = cache
        assert xs.shape == (3, 4, y.shape[2] * y.shape[3])
        assert x_in is x and weight is w
        assert (has_bias, cached_stride, padding) == (False, stride, 0)
        # stride 1 reads x itself; stride 2 copies the strided pixels once
        assert np.shares_memory(xs, x) == (stride == 1)
        np.testing.assert_array_equal(xs.reshape(y.shape[0], 4, *y.shape[2:]),
                                      x[:, :, ::stride, ::stride])

    def test_padded_1x1_takes_the_general_path(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        wt, b = rng.normal(size=(2, 3, 1, 1)), rng.normal(size=2)
        y, cache = ops.conv2d_forward(x, wt, b, 1, 1)
        assert cache[0] is x and cache[1] is x  # the general path's, not a 1x1 GEMM input
        np.testing.assert_allclose(y, conv2d_loops(x, wt, b, padding=1), rtol=1e-9, atol=1e-9)
        check_backward_against_oracle(x, wt, b, stride=1, padding=1)


class TestBatchNorm:
    def test_eval_identity_statistics(self, rng):
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        c = 3
        y, _, _, _ = ops.batchnorm_forward(
            x, np.ones(c, np.float32), np.zeros(c, np.float32),
            np.zeros(c, np.float32), np.ones(c, np.float32), training=False)
        # identity up to the eps term in the denominator
        np.testing.assert_allclose(y, x, rtol=2e-5, atol=1e-6)

    def test_train_normalizes_batch(self, rng):
        x = rng.normal(2.0, 3.0, size=(4, 2, 5, 5))
        c = 2
        y, _, new_mean, new_var = ops.batchnorm_forward(
            x, np.ones(c), np.zeros(c), np.zeros(c), np.ones(c), training=True)
        assert np.allclose(y.mean(axis=(0, 2, 3)), 0, atol=1e-10)
        assert np.allclose(y.var(axis=(0, 2, 3)), 1, atol=1e-3)
        # running stats move toward batch stats with momentum 0.1
        np.testing.assert_allclose(new_mean, 0.1 * x.mean(axis=(0, 2, 3)))
        np.testing.assert_allclose(
            new_var, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3)))

    def test_width_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 3, 2, 2))
        with pytest.raises(StructuralError, match="3 channels"):
            ops.batchnorm_forward(x, np.ones(5), np.zeros(5), np.zeros(5), np.ones(5))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_loop_oracle(self, data):
        """Output, running statistics and all three gradients, both modes, float64."""
        n, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        h, w = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        training = data.draw(st.booleans())
        eps = data.draw(st.sampled_from([1e-5, 1e-3]))
        momentum = data.draw(st.floats(0.0, 1.0))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.1, 3), size=(n, c, h, w))
        gamma, beta = rng.normal(1.0, 0.5, size=c), rng.normal(0.0, 0.5, size=c)
        rm, rv = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
        dy = rng.normal(size=x.shape)
        y, cache, new_mean, new_var = ops.batchnorm_forward(
            x, gamma, beta, rm, rv, eps, momentum, training)
        got = (y, new_mean, new_var, *ops.batchnorm_backward(dy, cache))
        want = batchnorm_loops(x, gamma, beta, rm, rv, eps, momentum, training, dy)
        for name, a, b in zip(("y", "mean", "var", "dx", "dgamma", "dbeta"), got, want):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9, err_msg=name)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("n", [64, 256])
    def test_float32_error_against_float64(self, n, training, rng):
        """float32 outputs and gradients within 2e-6 of the float64 run on the
        same float32 inputs, as max-abs error over max-abs."""
        x = rng.normal(2.0, 3.0, size=(n, 16, 16, 16)).astype(np.float32)
        dy = rng.normal(size=x.shape).astype(np.float32)
        params = [rng.normal(1.0, 0.5, size=16), rng.normal(0.0, 0.5, size=16),
                  rng.normal(size=16), rng.uniform(0.5, 2.0, size=16)]
        params = [p.astype(np.float32) for p in params]

        def run(dtype):
            y, cache, mean, var = ops.batchnorm_forward(
                x.astype(dtype), *(p.astype(dtype) for p in params), training=training)
            return (y, mean, var, *ops.batchnorm_backward(dy.astype(dtype), cache))

        for name, lo, hi in zip(("y", "mean", "var", "dx", "dgamma", "dbeta"),
                                run(np.float32), run(np.float64)):
            assert np.abs(lo - hi).max() / np.abs(hi).max() <= 2e-6, name

    @pytest.mark.parametrize("training", [True, False])
    def test_float32_stays_float32(self, training, rng):
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        ones, zeros = np.ones(3, np.float32), np.zeros(3, np.float32)
        y, cache, mean, var = ops.batchnorm_forward(x, ones, zeros, zeros, ones,
                                                    training=training)
        dx, dgamma, dbeta = ops.batchnorm_backward(np.ones_like(x), cache)
        assert [a.dtype for a in (y, mean, var, dx, dgamma, dbeta)] == [np.float32] * 6


class TestPooling:
    def test_maxpool_first_max_wins_on_ties(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        x[0, 0] = [[7, 7], [7, 7]]
        y, cache = ops.maxpool_forward(x, 2, 2)
        assert y[0, 0, 0, 0] == 7
        dx = ops.maxpool_backward(np.ones((1, 1, 1, 1), dtype=np.float32), cache)
        assert dx[0, 0].tolist() == [[1, 0], [0, 0]]  # lowest linear index

    def test_maxpool_backward_routes_to_argmax_only(self, rng):
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        y, cache = ops.maxpool_forward(x, 2, 2)
        dy = rng.normal(size=y.shape).astype(np.float32)
        dx = ops.maxpool_backward(dy, cache)
        # each upstream element lands on exactly one input position
        assert np.count_nonzero(dx) <= dy.size
        np.testing.assert_allclose(np.abs(dx).sum(), np.abs(dy).sum(), rtol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_maxpool_matches_loop_oracle(self, data):
        """Integer-valued inputs make ties common; extents may leave a cropped edge."""
        k = data.draw(st.integers(1, 3))
        n, c = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
        h, w = data.draw(st.integers(k, 3 * k + 2)), data.draw(st.integers(k, 3 * k + 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        x = rng.integers(-2, 3, size=(n, c, h, w)).astype(np.float64)
        y, cache = ops.maxpool_forward(x, k, k)
        dy = rng.normal(size=y.shape)
        dx = ops.maxpool_backward(dy, cache)
        ref_y, ref_dx = maxpool_loops(x, k, dy)
        np.testing.assert_array_equal(y, ref_y)
        np.testing.assert_array_equal(dx, ref_dx)

    def test_maxpool_overlapping_windows_raise(self, rng):
        with pytest.raises(StructuralError, match="kernel 3 != stride 2"):
            ops.maxpool_forward(rng.normal(size=(1, 1, 6, 6)), 3, 2)

    def test_global_avg_pool_constant_channel_is_exact(self):
        for c_val in (2.5, -1.25, 4.0):
            x = np.full((1, 2, 7, 5), c_val, dtype=np.float32)
            y, _ = ops.global_avg_pool_forward(x)
            assert (y == c_val).all()


class TestHead:
    def test_linear_shapes_and_values(self, rng):
        x = rng.normal(size=(3, 4, 1, 1))
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        y, _ = ops.linear_forward(x, w, b)
        assert y.shape == (3, 2, 1, 1)
        np.testing.assert_allclose(y[:, :, 0, 0], x[:, :, 0, 0] @ w.T + b)

    def test_linear_feature_mismatch(self, rng):
        x = rng.normal(size=(1, 3, 1, 1))
        with pytest.raises(StructuralError, match="3 features.*expects 7"):
            ops.linear_forward(x, rng.normal(size=(2, 7)), None)

    def test_softmax_normalizes(self, rng):
        x = rng.normal(size=(4, 5, 1, 1)) * 10
        p, _ = ops.softmax_forward(x)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all()
