"""Independent reference implementations used as test oracles.

Everything here deliberately shares no code with the package: these are the
second route of every dual-route check.  The numeric references are plain
scalar loops; :func:`resign` restates the bundle checksum rule.
"""

import hashlib
import json
import math
import os

import numpy as np


def conv2d_loops(x, weight, bias=None, stride=1, padding=0):
    """Direct nested-loop convolution (cross-correlation)."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    y = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for b in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[b, c, i * stride + u, j * stride + v] \
                                    * weight[o, c, u, v]
                    if bias is not None:
                        acc += bias[o]
                    y[b, o, i, j] = acc
    return y


def conv2d_backward_loops(x, weight, dy, stride=1, padding=0):
    """Gradients (dx, dweight, dbias) of conv2d_loops by direct accumulation."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    _, _, ho, wo = dy.shape
    xp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros((cout, cin, kh, kw), dtype=np.float64)
    db = np.zeros(cout, dtype=np.float64)
    for b in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    g = dy[b, o, i, j]
                    db[o] += g
                    for c in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                r, s = i * stride + u, j * stride + v
                                dw[o, c, u, v] += g * xp[b, c, r, s]
                                dxp[b, c, r, s] += g * weight[o, c, u, v]
    return dxp[:, :, padding:padding + h, padding:padding + w], dw, db


def maxpool_loops(x, kernel, dy):
    """Max pooling over non-overlapping kernel x kernel windows, and its gradient.

    Rows and columns that do not fill a window are cropped.  Returns (y, dx):
    dx routes each dy[b, c, i, j] to the first maximum of its window in
    row-major window order, and is zero everywhere else.
    """
    n, ch, h, w = x.shape
    ho, wo = h // kernel, w // kernel
    y = np.zeros((n, ch, ho, wo), dtype=np.float64)
    dx = np.zeros(x.shape, dtype=np.float64)
    for b in range(n):
        for c in range(ch):
            for i in range(ho):
                for j in range(wo):
                    best, at = None, None
                    for u in range(kernel):
                        for v in range(kernel):
                            r, s = i * kernel + u, j * kernel + v
                            if best is None or x[b, c, r, s] > best:
                                best, at = x[b, c, r, s], (r, s)
                    y[b, c, i, j] = best
                    dx[b, c, at[0], at[1]] = dy[b, c, i, j]
    return y, dx


def batchnorm_loops(x, gamma, beta, running_mean, running_var, eps, momentum,
                    training, dy):
    """Batch normalization and its gradient, one channel at a time, in float64.

    Train mode normalizes by the batch mean and population variance and
    moves the running statistics toward them by ``momentum``; eval mode
    normalizes by the running statistics and returns them unchanged.
    Returns (y, new_mean, new_var, dx, dgamma, dbeta); in train mode dx is
    the textbook (dy - mean(dy) - xhat * mean(dy * xhat)) * gamma / std.
    """
    x, dy = np.asarray(x, np.float64), np.asarray(dy, np.float64)
    y, dx = np.zeros_like(x), np.zeros_like(x)
    channels = x.shape[1]
    new_mean, new_var = np.zeros(channels), np.zeros(channels)
    dgamma, dbeta = np.zeros(channels), np.zeros(channels)
    for c in range(channels):
        v, g = x[:, c].ravel(), dy[:, c].ravel()
        m = v.size
        if training:
            mean = math.fsum(v) / m
            var = math.fsum((v - mean) ** 2) / m
            new_mean[c] = (1 - momentum) * running_mean[c] + momentum * mean
            new_var[c] = (1 - momentum) * running_var[c] + momentum * var
        else:
            mean, var = float(running_mean[c]), float(running_var[c])
            new_mean[c], new_var[c] = mean, var
        std = math.sqrt(var + eps)
        xhat = (v - mean) / std
        y[:, c] = (gamma[c] * xhat + beta[c]).reshape(y[:, c].shape)
        dbeta[c] = math.fsum(g)
        dgamma[c] = math.fsum(g * xhat)
        if training:
            d = (g - dbeta[c] / m - xhat * dgamma[c] / m) * gamma[c] / std
        else:
            d = g * gamma[c] / std
        dx[:, c] = d.reshape(dx[:, c].shape)
    return y, new_mean, new_var, dx, dgamma, dbeta


def squeeze_loops(channel):
    """Mean of absolute values of one (h, w) channel, scalar accumulation."""
    h, w = channel.shape
    acc = 0.0
    for i in range(h):
        for j in range(w):
            acc += abs(float(channel[i, j]))
    return acc / (h * w)


def excite_loops(z, w1, w2):
    """sigmoid(w2 @ relu(w1 @ z)) with explicit loops."""
    hid = [0.0] * w1.shape[0]
    for i in range(w1.shape[0]):
        acc = 0.0
        for j in range(w1.shape[1]):
            acc += w1[i, j] * z[j]
        hid[i] = max(acc, 0.0)
    out = [0.0] * w2.shape[0]
    for i in range(w2.shape[0]):
        acc = 0.0
        for j in range(w2.shape[1]):
            acc += w2[i, j] * hid[j]
        out[i] = 1.0 / (1.0 + math.exp(-acc))
    return np.array(out)


def select_channels_reference(scores, beta, sign, min_channels=1,
                              half_rule=False, half_tol=1e-6):
    """Scalar re-implementation of the threshold selection rule."""
    scores = [float(s) for s in scores]
    c = len(scores)
    if half_rule:
        lo, hi = min(scores), max(scores)
        if hi - lo <= half_tol and all(abs(s - 0.5) <= half_tol for s in scores):
            return list(range(math.ceil(c / 2)))
    lam = 10.0 ** (-beta)
    factor = 1.0 - lam if sign == "minus" else 1.0 + lam
    thre = factor * (math.fsum(scores) / c)
    kept = [i for i, s in enumerate(scores) if s >= thre]
    floor = min(min_channels, c)
    if len(kept) < floor:
        ranked = sorted(range(c), key=lambda i: (-scores[i], i))
        kept = sorted(ranked[:floor])
    return kept


def param_count_loops(graph):
    """Naive parameter counter, separate from the accounting walker."""
    total = 0
    for node in graph.nodes:
        a = node.attrs
        if node.kind == "conv":
            total += a["kernel"][0] * a["kernel"][1] * a["in_channels"] * a["out_channels"]
            if a.get("bias"):
                total += a["out_channels"]
        elif node.kind == "batchnorm":
            total += 2 * a["channels"]
        elif node.kind == "fullyconnected":
            total += a["in_features"] * a["out_features"]
            if a.get("bias", True):
                total += a["out_features"]
        elif node.kind == "gate":
            total += a["hidden"] * a["channels"] + a["channels"] * a["hidden"]
    return total


def conv_mac_loops(graph, input_shape):
    """Naive MAC counter: walks layer shapes with its own spatial arithmetic."""
    shapes = {}

    def out_shape(node, src):
        c, h, w = src
        a = node.attrs
        if node.kind == "conv":
            kh, kw = a["kernel"]
            ho = (h + 2 * a["padding"] - kh) // a["stride"] + 1
            wo = (w + 2 * a["padding"] - kw) // a["stride"] + 1
            return (a["out_channels"], ho, wo)
        if node.kind == "maxpool":
            return (c, (h - a["kernel"]) // a["stride"] + 1,
                    (w - a["kernel"]) // a["stride"] + 1)
        if node.kind == "globalavgpool":
            return (c, 1, 1)
        if node.kind == "fullyconnected":
            return (a["out_features"], 1, 1)
        return (c, h, w)

    total = 0
    for nid in graph.topo_order():
        node = graph.node(nid)
        prods = graph.producers(nid)
        src = shapes[prods[0]] if prods else tuple(input_shape)
        shp = out_shape(node, src)
        shapes[nid] = shp
        if node.kind == "conv":
            a = node.attrs
            total += shp[1] * shp[2] * a["out_channels"] * \
                a["kernel"][0] * a["kernel"][1] * a["in_channels"]
        elif node.kind == "fullyconnected":
            total += node.attrs["in_features"] * node.attrs["out_features"]
    return total


def kahn_order(node_ids, edges):
    """Topological order by Kahn's algorithm: a FIFO queue seeded in declaration order."""
    indegree = {nid: 0 for nid in node_ids}
    for _, d in edges:
        indegree[d] += 1
    queue = [nid for nid in node_ids if indegree[nid] == 0]
    order = []
    while queue:
        nid = queue.pop(0)
        order.append(nid)
        for s, d in edges:
            if s == nid:
                indegree[d] -= 1
                if indegree[d] == 0:
                    queue.append(d)
    return order


def sgd_recurrence(w0, grads, lr, momentum):
    """Scalar velocity recurrence: v = a*v - lr*g; w += v."""
    w, v = float(w0), 0.0
    track = []
    for g in grads:
        v = momentum * v - lr * float(g)
        w = w + v
        track.append(w)
    return track


def penalized_loss_loops(probs, onehot, weights, weight_decay, variant):
    """Scalar-loop evaluation of the penalized loss."""
    n, k = probs.shape
    total = 0.0
    for i in range(n):
        for j in range(k):
            p = min(max(float(probs[i, j]), 1e-12), 1.0 - 1e-12)
            y = float(onehot[i, j])
            if variant == "softmax-ce":
                total += -y * math.log(p)
            else:
                total += -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))
    total /= n
    count = sum(w.size for w in weights)
    if count and weight_decay:
        sq = 0.0
        for w in weights:
            for val in np.ravel(w):
                sq += float(val) ** 2
        total += weight_decay / (2.0 * count) * sq
    return total


def resign(path, edit):
    """Apply ``edit`` to a bundle's manifest and re-sign it with the checksum rule
    (sha256 of the blob, then the sorted-key, whitespace-free manifest with the
    checksum blank), so the check under test is the one that fires."""
    mpath = os.path.join(path, "manifest.json")
    with open(mpath) as f:
        manifest = json.load(f)
    edit(manifest)
    with open(os.path.join(path, "params.bin"), "rb") as f:
        blob = f.read()
    manifest["checksum"] = ""
    canon = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    manifest["checksum"] = hashlib.sha256(blob + canon).hexdigest()
    with open(mpath, "w") as f:
        json.dump(manifest, f)
