"""Dense 4-d tensor kernels with hand-written backward passes.

All activations are (batch, channels, height, width) arrays.  Kernels are
dtype-generic: training runs in float32, gradient checking feeds float64
through the same code paths.  Each forward returns ``(output, cache)`` and
the matching backward consumes ``cache`` and the upstream gradient, so a
network executor can replay layers in exact reverse order.  A backward
leaves its cache unchanged, so it can run more than once.

Convolution is im2col + GEMM in both directions, on one channel-major patch
layout, tiled over the batch.  A tile holds as many whole samples as fit
their patch matrix in ``TILE_BYTES`` (at least one).  1 MiB is half of a
2 MiB L2, so a tile's patches, the weight and the tile's GEMM output stay in
cache from the patch build to the GEMM that reads them; a whole-batch patch
matrix at batch 256 is 36 MiB and runs from memory.  Each call allocates one
patch buffer and reuses it for every tile.  The conv cache keeps a reference
to the input and the last tile's patch matrix, not the whole batch's: the
backward walks the tiles last to first, uses the kept patches for the last
and rebuilds each earlier tile's (recompute over store, Chen et al. 2016).

A 1x1 kernel with padding 0 skips im2col (as Caffe's ``is_1x1_`` does): its
patch matrix is the input itself, so the conv is one batched GEMM
``W (cout, cin) @ xs (n, cin, ho*wo)`` written straight into the output.
``xs`` is a view of ``x`` at stride 1 and one strided copy otherwise; the
cache keeps it where the general path keeps the last tile's patches.  The
backward sums the per-sample products ``dy_n @ xs_n.T`` for the weight and
scatters ``W.T @ dy_n`` onto the stride grid for the input.

Batchnorm caches ``(x - mean, gamma, inv_std, None)`` in train mode and
``(x, gamma, inv_std, running_mean)`` in eval mode.  ReLU caches its output.

Max pooling takes non-overlapping windows only (kernel == stride), cropping
the rows and columns that do not fill a window.  It takes pairwise maxima of
strided views, within each window row first, then across rows; a later
element wins only when strictly greater, so ties go to the first maximum in
row-major window order, and the backward routes each upstream gradient to
that one element.
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError

TILE_BYTES = 1 << 20  # patch bytes of one conv tile; see the module docstring


def check_tensor4(x: np.ndarray, what: str = "tensor") -> None:
    if x.ndim != 4:
        raise StructuralError(f"{what}: expected 4-d (n,c,h,w), got shape {x.shape}")
    if any(d < 1 for d in x.shape):
        raise StructuralError(f"{what}: all dims must be >= 1, got {x.shape}")


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise StructuralError(
            f"kernel {kernel} (pad {padding}) does not fit input extent {size}"
        )
    return out


# ---------------------------------------------------------------------------
# convolution
#
# Both directions are im2col + GEMM (Chellapilla et al. 2006) on one
# channel-major patch layout: a (c, m, hp, wp) view of a tile of m samples
# is cut into a (c*kh*kw, m*ho*wo) matrix by kh*kw strided slice copies, one
# per kernel offset.  Its row order (c, u, v) is that of weight.reshape(cout, -1).

def _tile(n, sample_bytes):
    """Samples per tile: as many as fit their patches in TILE_BYTES, at least one."""
    return min(n, max(1, TILE_BYTES // sample_bytes))


def _stage(a, s, e, buf, off, step=1):
    """Samples s:e of a (n,c,h,w) as a channel-major (c, m, ., .) array.

    With ``buf`` None this is a view of ``a``.  Otherwise the samples are
    copied into the zero-bordered buffer (c, tile, ., .), every ``step``-th
    pixel from offset ``off``; the pixels between are never written, so
    they stay zero from one tile to the next.
    """
    src = a[s:e].transpose(1, 0, 2, 3)
    if buf is None:
        return src
    m, (h, w), (oh, ow) = src.shape[1], a.shape[2:], off
    buf[:, :m, oh:oh + step * h:step, ow:ow + step * w:step] = src
    return buf[:, :m]


def _patches(src, kh, kw, stride, ho, wo, buf):
    """(c*kh*kw, m*ho*wo) patch matrix of the channel-major src (c, m, hp, wp), built in buf."""
    c, m = src.shape[:2]
    cols = buf[:c * kh * kw * m * ho * wo].reshape(c, kh, kw, m, ho, wo)
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = src[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]
    return cols.reshape(c * kh * kw, m * ho * wo)


def _padded(x, tile, padding):
    """The zero-bordered staging buffer of a padded conv's input tiles, or None."""
    if not padding:
        return None
    cin, h, w = x.shape[1:]
    return np.zeros((cin, tile, h + 2 * padding, w + 2 * padding), dtype=x.dtype)


def conv2d_forward(x, weight, bias, stride=1, padding=0):
    """Cross-correlation of x (n,cin,h,w) with weight (cout,cin,kh,kw).

    The cache is ``(x, cols, weight, has_bias, stride, padding)``: ``cols``
    is the last tile's patch matrix, or a 1x1 conv's ``xs`` (n, cin, ho*wo),
    and ``x`` the input itself.
    """
    check_tensor4(x, "conv input")
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise StructuralError(f"conv: input has {cin} channels, kernel expects {cin_w}")
    ho = conv_output_size(h, kh, stride, padding)
    wo = conv_output_size(w, kw, stride, padding)
    if (kh, kw) == (1, 1) and not padding:
        return _conv1x1_forward(x, weight, bias, stride, ho, wo)

    rows, pixels = cin * kh * kw, ho * wo
    tile = _tile(n, rows * pixels * x.itemsize)
    buf = np.empty(rows * tile * pixels, dtype=x.dtype)
    xp = _padded(x, tile, padding)
    w2 = weight.reshape(cout, rows)
    y = np.empty((n, cout, ho, wo), dtype=np.result_type(x, weight))
    for s in range(0, n, tile):
        src = _stage(x, s, s + tile, xp, (padding, padding))
        cols = _patches(src, kh, kw, stride, ho, wo, buf)
        out = w2 @ cols
        if bias is not None:
            out += bias[:, None]
        y[s:s + tile] = out.reshape(cout, -1, ho, wo).transpose(1, 0, 2, 3)
    return y, (x, cols, weight, bias is not None, stride, padding)


def conv2d_backward(dy, cache):
    """Returns (dx, dweight, dbias); dbias is None when the conv has no bias.

    The weight gradient walks the forward's tiles last to first: the last
    uses the kept patch matrix, each earlier tile is rebuilt into one buffer,
    and the tiles' products are summed in that fixed order.

    The input gradient is a stride-1 correlation through ``_patches``, tiled
    by the size of its own patches: dy is zero-dilated by the stride and
    padded by k-1 to cover the padded input, and the kernel is flipped with
    its in/out channels swapped.  Only the windows over the unpadded input
    are built, so the same slicing holds for any padding, including
    padding > k-1.
    """
    x, last, weight, has_bias, stride, padding = cache
    if weight.shape[2:] == (1, 1) and not padding:
        return _conv1x1_backward(dy, cache)
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    _, _, ho, wo = dy.shape
    rows, pixels = cin * kh * kw, ho * wo

    # weight gradient; this orientation ran ~1.8x faster than dy_mat @ cols.T on OpenBLAS
    tile = _tile(n, rows * pixels * x.itemsize)
    start = n - last.shape[1] // pixels
    buf = np.empty(rows * tile * pixels, dtype=x.dtype) if start else None
    xp = _padded(x, tile, padding) if start else None
    dwt = None
    for s in [start, *reversed(range(0, start, tile))]:
        e = min(s + tile, n)
        cols = last if s == start else _patches(
            _stage(x, s, e, xp, (padding, padding)), kh, kw, stride, ho, wo, buf)
        dy_mat = dy[s:e].transpose(1, 0, 2, 3).reshape(cout, (e - s) * pixels)
        part = cols @ dy_mat.T
        if dwt is None:
            dwt = part
        else:
            dwt += part
    dw = np.ascontiguousarray(dwt.T).reshape(weight.shape)
    db = dy.sum(axis=(0, 2, 3)) if has_bias else None

    # input gradient: dy dilated by the stride at offset k-1 in the padded
    # input's extent plus k-1; the windows starting at offset p are those
    # over the unpadded input
    p = padding
    tile = _tile(n, cout * kh * kw * h * w * dy.itemsize)
    dd = np.zeros((cout, tile, h + 2 * p + kh - 1, w + 2 * p + kw - 1), dtype=dy.dtype)
    dbuf = np.empty(cout * kh * kw * tile * h * w, dtype=dy.dtype)
    wt = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
    dx = np.empty(x.shape, dtype=np.result_type(dy, weight))
    for s in range(0, n, tile):
        src = _stage(dy, s, s + tile, dd, (kh - 1, kw - 1), stride)[:, :, p:, p:]
        dcols = _patches(src, kh, kw, 1, h, w, dbuf)
        dx[s:s + tile] = (wt @ dcols).reshape(cin, -1, h, w).transpose(1, 0, 2, 3)
    return dx, dw, db


def _conv1x1_forward(x, weight, bias, stride, ho, wo):
    """A 1x1, padding-0 conv as one batched GEMM on the (n, cin, ho*wo) input."""
    n, cin = x.shape[:2]
    cout = weight.shape[0]
    xs = x[:, :, ::stride, ::stride].reshape(n, cin, ho * wo)  # a view at stride 1
    y = np.empty((n, cout, ho, wo), dtype=np.result_type(x, weight))
    np.matmul(weight.reshape(cout, cin), xs, out=y.reshape(n, cout, ho * wo))
    if bias is not None:
        y += bias[:, None, None]
    return y, (x, xs, weight, bias is not None, stride, 0)


def _conv1x1_backward(dy, cache):
    """(dx, dweight, dbias) of ``_conv1x1_forward`` from its cache."""
    x, xs, weight, has_bias, stride, _ = cache
    n, cin = x.shape[:2]
    cout = weight.shape[0]
    dy3 = dy.reshape(n, cout, -1)
    # the per-sample products, summed in sample order
    dw = np.matmul(dy3, xs.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
    db = dy.sum(axis=(0, 2, 3)) if has_bias else None
    dxs = np.matmul(weight.reshape(cout, cin).T, dy3).reshape(n, cin, *dy.shape[2:])
    if stride == 1:
        return dxs, dw, db
    dx = np.zeros(x.shape, dtype=dxs.dtype)
    dx[:, :, ::stride, ::stride] = dxs
    return dx, dw, db


# ---------------------------------------------------------------------------
# batch normalization

def batchnorm_forward(x, gamma, beta, running_mean, running_var,
                      eps=1e-5, momentum=0.1, training=False):
    """Per-channel normalization; returns (y, cache, running mean, running var).
    Train mode updates the running statistics; eval mode leaves them unchanged."""
    check_tensor4(x, "batchnorm input")
    n, c = x.shape[:2]
    if gamma.shape[0] != c:
        raise StructuralError(f"batchnorm: input has {c} channels, params have {gamma.shape[0]}")
    x3 = x.reshape(n, c, -1)
    if training:
        m = n * x3.shape[2]
        mu = np.einsum("ncs->c", x3) / m
        xc = x3 - mu[:, None]
        var = np.einsum("ncs,ncs->c", xc, xc) / m
        inv_std = 1.0 / np.sqrt(var + eps)
        shift, cache = beta, (xc, gamma, inv_std, None)
        running_mean = (1.0 - momentum) * running_mean + momentum * mu
        running_var = (1.0 - momentum) * running_var + momentum * var
    else:  # x itself is scaled; the shift folds in the running mean
        inv_std = 1.0 / np.sqrt(running_var + eps)
        xc, shift = x3, beta - running_mean * (gamma * inv_std)
        cache = (x, gamma, inv_std, running_mean)
    y = xc * (gamma * inv_std)[:, None]
    y += shift[:, None]
    return y.reshape(x.shape).astype(x.dtype, copy=False), cache, running_mean, running_var


def batchnorm_backward(dy, cache):
    """sum(dy) and sum(dy * xc) are reductions; dx is built in place in one new array."""
    xc, gamma, inv_std, running_mean = cache
    dy3 = dy.reshape(*dy.shape[:2], -1)
    if running_mean is not None:
        xc = xc.reshape(dy3.shape) - running_mean[:, None]
    dbeta = np.einsum("ncs->c", dy3)
    dgamma = np.einsum("ncs,ncs->c", dy3, xc) * inv_std
    if running_mean is None:  # batch statistics depend on the input; running ones are constants
        m = dy3.shape[0] * dy3.shape[2]
        dx = xc * (-inv_std * dgamma / m)[:, None]
        dx += dy3
        dx -= (dbeta / m)[:, None]
        dx *= (gamma * inv_std)[:, None]
    else:
        dx = dy3 * (gamma * inv_std)[:, None]
    return dx.reshape(dy.shape).astype(dy.dtype, copy=False), dgamma, dbeta


# ---------------------------------------------------------------------------
# activations and pooling

def relu_forward(x):
    y = np.maximum(x, 0)
    return y, y


def relu_backward(dy, y):
    return dy * (y > 0)


def _first_max(vals):
    """Elementwise maximum of equal-shape arrays, and a mask per array of
    where it is the first to hold that maximum."""
    best, won = vals[0], [np.ones(vals[0].shape, dtype=bool)]
    for v in vals[1:]:
        gt = v > best  # a later element wins only when strictly greater
        lost = ~gt
        for mask in won:
            mask &= lost
        won.append(gt)
        best = np.maximum(best, v)
    return best, won


def maxpool_forward(x, kernel=2, stride=2):
    """Max pooling over non-overlapping windows; ties go to the first maximum.

    The cache is ``(x.shape, kernel, routes)``: ``routes[u*kernel + v]`` marks
    the windows whose first maximum sits at offset (u, v).
    """
    check_tensor4(x, "maxpool input")
    if kernel != stride:
        raise StructuralError(
            f"maxpool: kernel {kernel} != stride {stride}; only non-overlapping windows")
    k, (h, w) = kernel, x.shape[2:]
    ho = conv_output_size(h, k, k, 0)
    wo = conv_output_size(w, k, k, 0)
    row_max, col_won = zip(*(
        _first_max([x[:, :, u:k * ho:k, v:k * wo:k] for v in range(k)]) for u in range(k)))
    y, row_won = _first_max(row_max)
    routes = [r & col for r, cols in zip(row_won, col_won) for col in cols]
    y = y.copy() if k == 1 else y  # a 1x1 window's maximum is a view of x
    return y, (x.shape, k, routes)


def maxpool_backward(dy, cache):
    """Routes each dy to its window's first maximum by multiplying with the
    route masks, so a non-finite dy also reaches the window's other elements
    (as NaN); a masked copy ran ~4.7x slower."""
    x_shape, k, routes = cache
    _, _, ho, wo = dy.shape
    # every element in a window is written once; only cropped edges need zeros
    cropped = x_shape[2:] != (k * ho, k * wo)
    dx = (np.zeros if cropped else np.empty)(x_shape, dtype=dy.dtype)
    for i, route in enumerate(routes):
        u, v = divmod(i, k)
        np.multiply(dy, route, out=dx[:, :, u:k * ho:k, v:k * wo:k])
    return dx


def global_avg_pool_forward(x):
    check_tensor4(x, "global pool input")
    y = x.mean(axis=(2, 3), keepdims=True)
    return y, x.shape


def global_avg_pool_backward(dy, x_shape):
    n, c, h, w = x_shape
    return np.broadcast_to(dy / (h * w), x_shape).astype(dy.dtype, copy=False)


# ---------------------------------------------------------------------------
# classifier head

def linear_forward(x, weight, bias):
    """Fully connected layer on a (n, f, 1, 1) activation; weight is (out, in)."""
    check_tensor4(x, "linear input")
    n = x.shape[0]
    flat = x.reshape(n, -1)
    if flat.shape[1] != weight.shape[1]:
        raise StructuralError(
            f"linear: input has {flat.shape[1]} features, weight expects {weight.shape[1]}"
        )
    y = flat @ weight.T
    if bias is not None:
        y = y + bias
    return y[:, :, None, None], (flat, weight, x.shape, bias is not None)


def linear_backward(dy, cache):
    flat, weight, x_shape, has_bias = cache
    dy_mat = dy.reshape(dy.shape[0], -1)
    dw = dy_mat.T @ flat
    db = dy_mat.sum(axis=0) if has_bias else None
    dx = (dy_mat @ weight).reshape(x_shape)
    return dx, dw, db


def softmax_forward(x):
    """Channel-wise softmax on a (n, classes, 1, 1) activation."""
    check_tensor4(x, "softmax input")
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    return p, p


def softmax_backward(dp, p):
    inner = (dp * p).sum(axis=1, keepdims=True)
    return p * (dp - inner)
