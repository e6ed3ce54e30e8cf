"""Per-layer backward passes against central finite differences.

Single layers have mild curvature, so the coarse 1e-3 step in 64-bit
arithmetic comfortably resolves gradients to 1e-4 relative error.
"""

import numpy as np
import pytest

from prunekit import ops
from prunekit.gate import gate_forward, gate_backward

STEP = 1e-3
TOL = 1e-4


def fd_grad(loss_fn, tensor, idx, step=STEP):
    flat = tensor.reshape(-1)
    orig = flat[idx]
    flat[idx] = orig + step
    lp = loss_fn()
    flat[idx] = orig - step
    lm = loss_fn()
    flat[idx] = orig
    return (lp - lm) / (2 * step)


def max_rel_error(analytic, tensor, loss_fn, rng, samples=12):
    worst = 0.0
    flat = analytic.reshape(-1)
    for idx in rng.choice(tensor.size, size=min(samples, tensor.size), replace=False):
        num = fd_grad(loss_fn, tensor, idx)
        a = float(flat[idx])
        worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1e-8))
    return worst


class TestReLU:
    def test_positive_passes_through(self):
        x = np.array([[[[2.0]]]])
        _, cache = ops.relu_forward(x)
        dy = np.array([[[[3.5]]]])
        np.testing.assert_array_equal(ops.relu_backward(dy, cache), dy)

    def test_negative_blocks_exactly(self):
        x = np.array([[[[-2.0]]]])
        _, cache = ops.relu_forward(x)
        dy = np.array([[[[3.5]]]])
        assert ops.relu_backward(dy, cache)[0, 0, 0, 0] == 0.0

    def test_routes_as_the_input_mask(self):
        """dy passes exactly where x > 0, as a mask kept from the forward would
        route it: zero, -0.0, negatives, NaN and -inf block; a non-finite dy
        at a blocked element gives NaN both ways."""
        x = np.array([0.0, -0.0, -1.5, np.nan, -np.inf, 2.0, np.inf, 1e-300])
        dy = np.array([1.5, -2.0, 3.0, -4.0, np.inf, 0.5, -1.0, np.nan])
        x4, dy4 = x.reshape(1, 1, 2, 4), dy.reshape(1, 1, 2, 4)
        _, cache = ops.relu_forward(x4)
        with np.errstate(invalid="ignore"):   # inf * 0 at a blocked element
            assert ops.relu_backward(dy4, cache).tobytes() == (dy4 * (x4 > 0)).tobytes()

    def test_cache_is_the_output(self, rng):
        y, cache = ops.relu_forward(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
        assert cache is y and y.dtype == np.float32


@pytest.mark.parametrize("layer", ["conv", "batchnorm", "linear", "gate"])
def test_layer_gradients_match_finite_differences(layer, rng):
    x = rng.normal(size=(1, 2, 4, 4))
    r_holder = {}

    if layer == "conv":
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)

        def run():
            y, cache = ops.conv2d_forward(x, w, b, 1, 1)
            r_holder.setdefault("r", rng.normal(size=y.shape))
            return y, cache

        y, cache = run()
        dx, dw, db = ops.conv2d_backward(r_holder["r"], cache)
        loss = lambda: float((run()[0] * r_holder["r"]).sum())
        for grad, tensor in ((dx, x), (dw, w), (db, b)):
            assert max_rel_error(grad, tensor, loss, rng) < TOL

    elif layer == "batchnorm":
        gamma = rng.normal(size=2) * 0.4 + 1.0
        beta = rng.normal(size=2) * 0.2
        rm, rv = np.zeros(2), np.ones(2)

        def run():
            y, cache, _, _ = ops.batchnorm_forward(x, gamma, beta, rm, rv,
                                                   training=True)
            r_holder.setdefault("r", rng.normal(size=y.shape))
            return y, cache

        y, cache = run()
        dx, dgamma, dbeta = ops.batchnorm_backward(r_holder["r"], cache)
        loss = lambda: float((run()[0] * r_holder["r"]).sum())
        for grad, tensor in ((dx, x), (dgamma, gamma), (dbeta, beta)):
            assert max_rel_error(grad, tensor, loss, rng) < TOL

    elif layer == "linear":
        xf = rng.normal(size=(3, 5, 1, 1))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=4)

        def run():
            y, cache = ops.linear_forward(xf, w, b)
            r_holder.setdefault("r", rng.normal(size=y.shape))
            return y, cache

        y, cache = run()
        dx, dw, db = ops.linear_backward(r_holder["r"], cache)
        loss = lambda: float((run()[0] * r_holder["r"]).sum())
        for grad, tensor in ((dx, xf), (dw, w), (db, b)):
            assert max_rel_error(grad, tensor, loss, rng) < TOL

    else:  # gate
        w1 = rng.normal(size=(1, 2)) * 0.7
        w2 = rng.normal(size=(2, 1)) * 0.7

        def run():
            y, cache = gate_forward(x, w1, w2)
            r_holder.setdefault("r", rng.normal(size=y.shape))
            return y, cache

        y, cache = run()
        dx, dw1, dw2 = gate_backward(r_holder["r"], cache)
        loss = lambda: float((run()[0] * r_holder["r"]).sum())
        for grad, tensor in ((dx, x), (dw1, w1), (dw2, w2)):
            assert max_rel_error(grad, tensor, loss, rng) < TOL


def test_batchnorm_eval_backward_matches_fd(rng):
    # eval mode normalizes with fixed running statistics, so they are constants
    x = rng.normal(size=(2, 2, 3, 3))
    gamma, beta = rng.normal(size=2) * 0.4 + 1.0, rng.normal(size=2) * 0.2
    rm, rv = rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)
    r = rng.normal(size=x.shape)

    def loss():
        y, _, _, _ = ops.batchnorm_forward(x, gamma, beta, rm, rv, training=False)
        return float((y * r).sum())

    _, cache, _, _ = ops.batchnorm_forward(x, gamma, beta, rm, rv, training=False)
    dx, dgamma, dbeta = ops.batchnorm_backward(r, cache)
    for grad, tensor in ((dx, x), (dgamma, gamma), (dbeta, beta)):
        assert max_rel_error(grad, tensor, loss, rng) < TOL


def test_softmax_backward_matches_fd(rng):
    x = rng.normal(size=(2, 4, 1, 1))
    r = rng.normal(size=x.shape)

    def loss():
        p, _ = ops.softmax_forward(x)
        return float((p * r).sum())

    p, cache = ops.softmax_forward(x)
    dx = ops.softmax_backward(r, cache)
    assert max_rel_error(dx, x, loss, rng) < TOL


def test_gap_backward_matches_fd(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    r = rng.normal(size=(2, 3, 1, 1))

    def loss():
        y, _ = ops.global_avg_pool_forward(x)
        return float((y * r).sum())

    _, cache = ops.global_avg_pool_forward(x)
    dx = ops.global_avg_pool_backward(r, cache)
    assert max_rel_error(dx, x, loss, rng) < TOL


def test_maxpool_backward_matches_fd(rng):
    # values spaced apart so the 1e-3 step never flips an argmax
    x = rng.permutation(np.arange(2 * 2 * 4 * 4, dtype=np.float64)).reshape(2, 2, 4, 4)
    r = rng.normal(size=(2, 2, 2, 2))

    def loss():
        y, _ = ops.maxpool_forward(x, 2, 2)
        return float((y * r).sum())

    _, cache = ops.maxpool_forward(x, 2, 2)
    dx = ops.maxpool_backward(r, cache)
    assert max_rel_error(dx, x, loss, rng) < TOL
