"""Channel gate: absolute-value squeeze, two-layer excitation, channel scaling.

The gate compresses each channel of a feature map into one non-negative
scalar (mean of absolute values, so positive and negative activations do
not cancel), pushes the vector through a bottleneck of width
``max(1, C // reduction)`` built from two bias-free 1x1 projections with a
ReLU in between, and squashes the result with a sigmoid.  The sigmoid
outputs, one per channel in (0, 1), multiply the corresponding channels and
double as the channel-importance scores consumed by the pruning planner.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import StructuralError
from .ops import check_tensor4


def hidden_width(channels: int, reduction: int) -> int:
    """Bottleneck width; never collapses below one unit."""
    if reduction < 1:
        raise ValueError(f"reduction must be at least 1, got {reduction}")
    return max(1, channels // reduction)


def squeeze(u: np.ndarray) -> np.ndarray:
    """Per-channel mean of absolute values: (n,c,h,w) -> (n,c)."""
    check_tensor4(u, "squeeze input")
    n, c, h, w = u.shape
    return np.einsum("ncs->nc", np.abs(u).reshape(n, c, -1)) / (h * w)


def sigmoid(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def excite(z: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Gate vector s = sigmoid(w2 @ relu(w1 @ z)) for each row of z (n,c)."""
    if z.shape[1] != w1.shape[1]:
        raise StructuralError(f"excite: z has {z.shape[1]} channels, w1 expects {w1.shape[1]}")
    hidden = np.maximum(z @ w1.T, 0)
    return sigmoid(hidden @ w2.T)


def scale(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Channel-wise product; s is (n,c) matching u's channel count."""
    check_tensor4(u, "scale input")
    if s.shape[1] != u.shape[1]:
        raise StructuralError(f"scale: {s.shape[1]} gate values for {u.shape[1]} channels")
    return u * s[:, :, None, None]


class GateCache(NamedTuple):
    """What ``gate_backward`` needs; ``s`` doubles as the per-sample scores."""
    u: np.ndarray
    z: np.ndarray
    s: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


def gate_forward(u, w1, w2):
    """Full gate pass: squeeze -> excite -> scale."""
    z = squeeze(u)
    s = excite(z, w1, w2)
    return scale(u, s), GateCache(u, z, s, w1, w2)


def gate_backward(dy, cache):
    """Gradients through scale, excitation, and the absolute-value squeeze."""
    u, z, s, w1, w2 = cache
    hw = u.shape[2] * u.shape[3]
    # the bottleneck is recomputed rather than kept on the tape
    h = np.maximum(z @ w1.T, 0)

    n, c = s.shape
    ds = np.einsum("ncs,ncs->nc", dy.reshape(n, c, -1), u.reshape(n, c, -1))

    da2 = ds * s * (1.0 - s)
    dw2 = da2.T @ h
    dh = da2 @ w2
    da1 = dh * (h > 0)
    dw1 = da1.T @ z
    dz = da1 @ w1

    # d|u|/du is sign(u); sign(0) = 0 is the subgradient choice
    du = np.sign(u)
    du *= (dz / hw)[:, :, None, None]
    du += dy * s[:, :, None, None]
    return du, dw1, dw2
