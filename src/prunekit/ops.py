"""Dense 4-d tensor kernels with hand-written backward passes.

All activations are (batch, channels, height, width) arrays.  Kernels are
dtype-generic: training runs in float32, gradient checking feeds float64
through the same code paths.  Each forward returns ``(output, cache)`` and
the matching backward consumes ``cache`` and the upstream gradient, so a
network executor can replay layers in exact reverse order.  A kernel's
backward leaves its cache unchanged, so it can run more than once; the
executor frees each cache once its backward has run.

Convolution is im2col + GEMM in both directions, tiled over the batch.  A
k x k conv stages each tile's input once into a zeroed phase-split grid: at
stride s, phase (a, b) holds the padded input's pixels a::s, b::s.  Every
phase plane has one layout: it holds the image after its top and left
margins only, and it is Wq = max(cols, ceil((w + pad)/s)) wide for cols
output columns, so a patch run that reads past a row's end wraps into the
next row's left margin, which is zero.  Every patch row (channel, tap) of a
sample is then one contiguous run of rows*Wq values of one phase, so the
patch matrix is kh*kw long copies (im2col without short runs) and the GEMM
fills a (rows, Wq) output grid whose columns past the output width are
cropped.  One tile walker builds the patches of all three GEMMs.  The
forward multiplies them by the weight, and the weight gradient by dy laid
on the (ho, Wq) grid with zero columns.  The input gradient is one stride-1
correlation: dy, padded by ceil(k/s) - 1, against the flipped kernel split
into its s*s sub-pixel phases (Shi et al. 2016) and stacked as s*s*cin
output rows.  It computes only the plane rows and columns that hold input
pixels, and un-staging, the inverse of staging, writes them to dx; no
zero-dilated dy is built or multiplied.

A tile holds as many whole samples as fit their patch matrix in
``TILE_BYTES`` (at least one).  1 MiB is half of a 2 MiB L2, so a tile's
patches, the weight and the tile's GEMM output stay in cache from the patch
build to the GEMM that reads them; a whole-batch patch matrix at batch 256
is 36 MiB and runs from memory.  Each walk over the tiles allocates one
grid and one patch buffer and reuses them for every tile.  The conv cache
keeps a reference to the input and no patch matrix: a tile holds at least
one sample, so even one kept tile can be the whole batch's patches, about
k*k times the input.  The backward walks the tiles last to first and
rebuilds each one's patches (recompute over store, Chen et al. 2016).  Its
two walks run one after the other in functions of their own, so the weight
gradient's patch buffer is freed before the input gradient's is made.

A 1x1 kernel with padding 0 skips im2col (as Caffe's ``is_1x1_`` does): its
patch matrix is the input itself, so the conv is one batched GEMM
``W (cout, cin) @ xs (n, cin, ho*wo)`` written straight into the output.
``xs`` is a view of ``x`` at stride 1 and one strided copy otherwise; the
cache keeps it in the slot where the general path repeats ``x``.  The
backward sums the per-sample products ``dy_n @ xs_n.T`` for the weight and
scatters ``W.T @ dy_n`` onto the stride grid for the input.

Batchnorm caches ``(x - mean, gamma, inv_std, None)`` in train mode and
``(x, gamma, inv_std, running_mean)`` in eval mode.  ReLU caches its output,
or its 1-byte mask ``y > 0`` where no other cache keeps the output.

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
# A k x k conv is im2col + GEMM (Chellapilla et al. 2006) on a phase-split
# grid.  A tile of m samples is staged once into a zeroed (c, tile, s, s, Hq,
# Wq) grid whose phase (a, b) holds the padded input's pixels a::s, b::s, so
# the pixel that tap (u, v) reads for output (i, j) sits at row i + u//s and
# column j + v//s of phase (u%s, v%s).  A plane holds the image after its top
# and left margins only, Wq = max(cols, ceil((w + pad)/s)) wide for cols
# output columns (``_width``): a run that reads past a row's end wraps into
# the next row's left margin, which is zero.  With each plane flattened,
# patch row (c, u, v) is one contiguous run of rows*Wq values from
# (u//s)*Wq + v//s: the GEMM fills a (rows, Wq) output grid and the columns
# past the output width are cropped.  Row order (c, u, v) is that of
# weight.reshape(cout, -1).  One walker, ``_tiles``, builds the patches of
# all three GEMMs.
#
# The input gradient stages dy at stride 1 and correlates it with the
# kernel's s*s phases stacked as one (s*s*cin, cout*ka*kb) matrix: its GEMM
# yields the gradient's phase planes, and ``_unstage``, the inverse of
# ``_stage``, scatters their input pixels into dx.

def _width(w, stride, pad, cols):
    """Plane width: the image after its left margin, at least ``cols`` wide."""
    return max(cols, -(-(w + pad) // stride))


def _phases(stride, h, w, pad):
    """Where an (h, w) image padded by ``pad`` = (ph, pw) sits in a phase grid:
    per phase (a, b), the image's pixels in it and the plane rows and columns
    they fill."""
    def axis(size, p):
        for a in range(stride):
            first = (a - p) % stride  # the first image index in phase a
            start = (first + p) // stride
            yield a, slice(first, size, stride), slice(start, start + len(range(first, size, stride)))
    return [((a, b), (ys, xs), (rows, cols))
            for a, ys, rows in axis(h, pad[0]) for b, xs, cols in axis(w, pad[1])]


def _stage(a, s, e, grid, pad):
    """Samples s:e of a (n, c, h, w) staged in the phase grid, as flat planes
    (c, m, stride, stride, Hq*Wq).  Only the image's pixels are written, so the
    rest of the grid stays zero from one tile to the next."""
    src = a[s:e].transpose(1, 0, 2, 3)
    for (pa, pb), (ys, xs), (rows, cols) in _phases(grid.shape[2], *src.shape[2:], pad):
        grid[:, :src.shape[1], pa, pb, rows, cols] = src[:, :, ys, xs]
    planes = grid[:, :src.shape[1]]
    return planes.reshape(*planes.shape[:4], -1)


def _unstage(planes, out, s, pad):
    """The inverse of ``_stage``: samples s:s+m of the (n, c, h, w) ``out`` read
    from the phase planes (c, m, stride, stride, ., .)."""
    dst = out[s:s + planes.shape[1]].transpose(1, 0, 2, 3)
    for (pa, pb), (ys, xs), (rows, cols) in _phases(planes.shape[2], *dst.shape[2:], pad):
        dst[:, :, ys, xs] = planes[:, :, pa, pb, rows, cols]


def _tiles(a, kh, kw, stride, pad, rows, wq, r0=0, reverse=False):
    """The patch matrices of a (n, c, h, w) padded by ``pad`` = (ph, pw), tile
    by tile: yields (start, end, cols), cols the (c*kh*kw, m*rows*wq) patches
    of samples start:end, whose row (c, u, v) is the run of rows*wq values
    from (r0 + u//s)*wq + r0 + v//s in phase (u%s, v%s).

    The tiles go first to last or, given ``reverse``, last to first.  One
    zeroed grid and one patch buffer serve every tile, so each tile's cols is
    overwritten by the next one's."""
    n, c, h = a.shape[:3]
    run = rows * wq
    size = c * kh * kw * run  # one sample's patch values
    tile = min(n, max(1, TILE_BYTES // (size * a.itemsize)))
    reach = (r0 + (kh - 1) // stride) * wq + r0 + (kw - 1) // stride + run  # the last run's end
    hq = max(-(-(h + pad[0]) // stride), -(-reach // wq))
    grid = np.zeros((c, tile, stride, stride, hq, wq), dtype=a.dtype)
    buf = np.empty(size * tile, dtype=a.dtype)
    for t in reversed(range(0, n, tile)) if reverse else range(0, n, tile):
        planes = _stage(a, t, t + tile, grid, pad)
        m = planes.shape[1]
        cols = buf[:size * m].reshape(c, kh, kw, m, run)
        for u in range(kh):
            for v in range(kw):
                at = (r0 + u // stride) * wq + r0 + v // stride
                cols[:, u, v] = planes[:, :, u % stride, v % stride, at:at + run]
        yield t, t + m, cols.reshape(c * kh * kw, m * run)


def conv2d_forward(x, weight, bias, stride=1, padding=0):
    """Cross-correlation of x (n,cin,h,w) with weight (cout,cin,kh,kw).

    The cache is ``(x, xs, weight, has_bias, stride, padding)``: ``x`` is the
    input itself, and ``xs`` is the GEMM input a 1x1 conv keeps,
    (n, cin, ho*wo), or ``x`` again on the k x k path, which keeps no patches.
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

    wq = _width(w, stride, padding, wo)
    w2 = weight.reshape(cout, -1)
    y = np.empty((n, cout, ho, wo), dtype=np.result_type(x, weight))
    for s, e, cols in _tiles(x, kh, kw, stride, (padding, padding), ho, wq):
        out = w2 @ cols
        if bias is not None:
            out += bias[:, None]
        y[s:e] = out.reshape(cout, -1, ho, wq)[..., :wo].transpose(1, 0, 2, 3)
    return y, (x, x, weight, bias is not None, stride, padding)


def conv2d_backward(dy, cache, input_grad=True):
    """Returns (dx, dweight, dbias); dbias is None when the conv has no bias,
    and dx is None when ``input_grad`` is False, which skips its GEMMs."""
    x, _, weight, has_bias, stride, padding = cache
    if weight.shape[2:] == (1, 1) and not padding:
        return _conv1x1_backward(dy, cache, input_grad)
    dw = _conv_weight_grad(dy, x, weight.shape, stride, padding)
    db = dy.sum(axis=(0, 2, 3)) if has_bias else None
    if not input_grad:
        return None, dw, db
    return _conv_input_grad(dy, x.shape, weight, stride, padding), dw, db


def _conv_weight_grad(dy, x, shape, stride, padding):
    """The weight gradient: the forward's tiles, rebuilt with ``_tiles``, times
    dy laid on the (ho, Wq) output grid with zero columns, summed last to
    first: a fixed order, which the trained-model hashes pin."""
    cout, _, kh, kw = shape
    _, _, ho, wo = dy.shape
    # cols @ dy.T ran ~1.8x faster than dy @ cols.T on OpenBLAS
    wq = _width(x.shape[3], stride, padding, wo)
    dyg = dwt = None
    for s, e, cols in _tiles(x, kh, kw, stride, (padding, padding), ho, wq, reverse=True):
        if dyg is None or dyg.shape[1] != e - s:  # the last tile may be short
            dyg = np.zeros((cout, e - s, ho, wq), dtype=dy.dtype)
        dyg[..., :wo] = dy[s:e].transpose(1, 0, 2, 3)
        part = cols @ dyg.reshape(cout, -1).T
        if dwt is None:
            dwt = part
        else:
            dwt += part
    return np.ascontiguousarray(dwt.T).reshape(shape)


def _conv_input_grad(dy, x_shape, weight, stride, padding):
    """The input gradient, one stride-1 correlation through the tile walker.

    Tap (u, v) = (a + s*i, b + s*j) sends dy[oy, ox] to row oy + i, column
    ox + j of phase (a, b), so phase (a, b) of the input's gradient
    correlates dy, padded by ceil(k/s) - 1, with the flipped sub-kernel
    weight[:, :, a::s, b::s]; the phases stack as s*s*cin rows of one
    kernel, with zeros for the taps a phase lacks.  Only the plane rows and
    columns that hold input pixels are computed, and ``_unstage`` writes
    them to dx.
    """
    _, cin, h, w = x_shape
    cout, _, kh, kw = weight.shape
    wo = dy.shape[3]
    # rows r0 = padding//s to r0 + hr of each phase plane hold input pixels,
    # and likewise columns, so the runs start at (r0, r0)
    s, ka, kb = stride, -(-kh // stride), -(-kw // stride)
    r0, hr, wr = padding // s, -(-(padding % s + h) // s), -(-(padding % s + w) // s)
    wq = _width(wo, 1, kb - 1, r0 + wr)
    wt = np.zeros((cout, cin, s * ka, s * kb), dtype=weight.dtype)
    wt[:, :, :kh, :kw] = weight
    wt = wt.reshape(cout, cin, ka, s, kb, s)[:, :, ::-1, :, ::-1].transpose(1, 3, 5, 0, 2, 4)
    wt = wt.reshape(cin * s * s, cout * ka * kb)
    dx = np.empty(x_shape, dtype=np.result_type(dy, weight))
    for t, _, cols in _tiles(dy, ka, kb, 1, (ka - 1, kb - 1), hr, wq, r0):
        out = (wt @ cols).reshape(cin, s, s, -1, hr, wq)
        _unstage(out[..., :wr].transpose(0, 3, 1, 2, 4, 5), dx, t, (padding % s, padding % s))
    return dx


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


def _conv1x1_backward(dy, cache, input_grad):
    """(dx, dweight, dbias) of ``_conv1x1_forward`` from its cache."""
    x, xs, weight, has_bias, stride, _ = cache
    n, cin = x.shape[:2]
    cout = weight.shape[0]
    dy3 = dy.reshape(n, cout, -1)
    # the per-sample products, summed in sample order
    dw = np.matmul(dy3, xs.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
    db = dy.sum(axis=(0, 2, 3)) if has_bias else None
    if not input_grad:
        return None, dw, db
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

def relu_forward(x, mask=False):
    """max(x, 0); the cache is the output or, given ``mask``, the bool
    ``y > 0``, a quarter of a float32 output's bytes."""
    y = np.maximum(x, 0)
    return y, (y > 0 if mask else y)


def relu_backward(dy, cache):
    """dy where the output is positive; ``cache`` is the output or its mask,
    and ``cache > 0`` is the same mask for both, so both give the same dx."""
    return dy * (cache > 0)


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
