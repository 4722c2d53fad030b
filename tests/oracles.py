"""Independent reference implementations used to freeze expected test values.

These stay deliberately naive (explicit loops, direct formulas) so they never
share code with the production paths they check. The two at the end are
test-only API rather than references: an enumeration of augmentation
choices and a one-sample adapter over the batch softmax cross-entropy.
"""

import numpy as np

from pdcnn.data import AugmentationChoice
from pdcnn.layers import softmax_xent_batch


def fd_grad(f, x, h=1e-3):
    """Central finite differences of scalar f() with respect to array x,
    mutating x in place coordinate by coordinate."""
    g = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def conv_naive(x, w, b, stride, padding):
    """Quadruple-loop convolution."""
    co, ci, kh, kw = w.shape
    p = padding
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    oh = (x.shape[1] + 2 * p - kh) // stride + 1
    ow = (x.shape[2] + 2 * p - kw) // stride + 1
    out = np.zeros((co, oh, ow))
    for o in range(co):
        for y in range(oh):
            for xx in range(ow):
                acc = b[o]
                for c in range(ci):
                    for i in range(kh):
                        for j in range(kw):
                            acc += w[o, c, i, j] * xp[c, y * stride + i, xx * stride + j]
                out[o, y, xx] = acc
    return out


def _whole_batch_columns(x, kh, kw, stride, padding):
    """The channel-major im2col matrix (C*kh*kw, N*oh*ow) of an (N,C,H,W)
    batch, as a contiguous copy: at a 1x1 output a plain reshape can return
    a strided view, which numpy multiplies with a transposed GEMM that
    rounds differently in float64."""
    n, c, _, _ = x.shape
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (N,C,oh,ow,kh,kw)
    oh, ow = win.shape[2], win.shape[3]
    return np.ascontiguousarray(
        win.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n * oh * ow))


def conv_whole_batch(x, w, b, stride, padding):
    """Convolution of an (N,C,H,W) batch as one GEMM over the whole batch's
    channel-major im2col matrix, then the bias, then the NCHW transpose: the
    unblocked forward whose output bytes the blocked one must reproduce."""
    n, _, h, wd = x.shape
    co, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    cols_t = _whole_batch_columns(x, kh, kw, stride, padding)
    out_t = w.reshape(co, -1) @ cols_t + b[:, None]
    return np.ascontiguousarray(out_t.reshape(co, n, oh, ow).transpose(1, 0, 2, 3))


def conv_backward_whole_batch(x, w, dout, stride, padding):
    """(grad_weights, grad_bias, dx) of conv_whole_batch for the upstream
    gradient dout: the weight gradient is one GEMM of dout with the whole
    batch's column matrix, the column gradient one GEMM of the transposed
    weights with dout, added into the padded input gradient tap by tap, kernel
    rows outermost. The unsplit backward whose bytes a split one must
    reproduce."""
    n, c, h, wd = x.shape
    co, _, kh, kw = w.shape
    _, _, oh, ow = dout.shape
    s, p = stride, padding
    dmat_t = dout.transpose(1, 0, 2, 3).reshape(co, n * oh * ow)
    grad_weights = (dmat_t @ _whole_batch_columns(x, kh, kw, s, p).T).reshape(w.shape)
    dcols_t = (w.reshape(co, -1).T @ dmat_t).reshape(c, kh, kw, n, oh, ow)
    dxp = np.zeros((c, n, h + 2 * p, wd + 2 * p), dtype=dout.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += dcols_t[:, i, j]
    dx = np.ascontiguousarray(dxp[:, :, p:p + h, p:p + wd].transpose(1, 0, 2, 3))
    return grad_weights, dmat_t.sum(axis=1), dx


def pool_naive(x, window, stride):
    """Exhaustive window-scan max pooling."""
    c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((c, oh, ow))
    for ch in range(c):
        for y in range(oh):
            for xx in range(ow):
                out[ch, y, xx] = x[ch, y * stride:y * stride + window,
                                   xx * stride:xx * stride + window].max()
    return out


def pool_argmax(x, window, stride, dout):
    """Max pooling by argmax over a copy of every window, and its input
    gradient by a float64 bincount of dout over the argmax positions: the
    (out, dx) of an (N,C,H,W) batch x. Ties and NaNs go to the first
    position in row-major scan order, as argmax picks them."""
    n, c, h, w = x.shape
    k, s = window, stride
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::s, ::s]
    oh, ow = win.shape[2], win.shape[3]
    flat = win.reshape(n, c, oh, ow, k * k)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    y = np.arange(oh)[:, None] * s + idx // k
    xx = np.arange(ow) * s + idx % k
    plane = np.arange(n * c).reshape(n, c, 1, 1)
    flat_idx = (plane * h + y) * w + xx
    dx = np.bincount(flat_idx.ravel(), weights=dout.ravel(), minlength=x.size)
    return out, dx.reshape(x.shape).astype(dout.dtype)


def lrn_naive(x, radius, k, alpha, beta):
    """Direct per-element evaluation of the cross-channel formula."""
    c, h, w = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    for ch in range(c):
        lo = max(0, ch - radius)
        hi = min(c - 1, ch + radius)
        for y in range(h):
            for xx in range(w):
                s = sum(x[cc, y, xx] ** 2 for cc in range(lo, hi + 1))
                out[ch, y, xx] = x[ch, y, xx] / (k + alpha * s) ** beta
    return out


def channel_window_sum_cumsum(v, radius):
    """Sum of an (N,C,H,W) v over each channel window [c-radius, c+radius],
    as a difference of np.cumsum prefix sums picked by fancy indexing."""
    c = v.shape[1]
    cs = np.concatenate([np.zeros_like(v[:, :1]), np.cumsum(v, axis=1)], axis=1)
    hi = np.minimum(np.arange(c) + radius + 1, c)
    lo = np.maximum(np.arange(c) - radius, 0)
    return cs[:, hi] - cs[:, lo]


def lrn_cumsum(x, dout, radius, k, alpha, beta):
    """(out, dx) of cross-channel LRN on an (N,C,H,W) batch, written as
    whole-array expressions over channel_window_sum_cumsum: the operations,
    in their order, whose bytes the layer must reproduce."""
    base = k + alpha * channel_window_sum_cumsum(x * x, radius)
    scale = base ** (-beta)
    inner = dout * x * base ** (-beta - 1.0)
    dx = dout * scale - (2.0 * alpha * beta) * x * \
        channel_window_sum_cumsum(inner, radius)
    return x * scale, dx


def variance_loop(values):
    """Population variance by explicit summation."""
    values = [float(v) for v in np.asarray(values).reshape(-1)]
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def rotate90cw_naive(img):
    """Index permutation: (y, x) -> (x, S-1-y), looped per pixel."""
    c, s, _ = img.shape
    out = np.zeros_like(img)
    for ch in range(c):
        for y in range(s):
            for x in range(s):
                out[ch, x, s - 1 - y] = img[ch, y, x]
    return out


def highpass_energy(img):
    """Mean squared 3x3 Laplacian response, the texture-vs-smooth statistic."""
    kernel = np.array([[0, -1, 0], [-1, 4, -1], [0, -1, 0]], dtype=np.float64)
    total = 0.0
    count = 0
    for ch in range(img.shape[0]):
        plane = img[ch]
        h, w = plane.shape
        for y in range(1, h - 1):
            for x in range(1, w - 1):
                v = float(np.sum(plane[y - 1:y + 2, x - 1:x + 2] * kernel))
                total += v * v
                count += 1
    return total / count


def highpass_energy_fast(img):
    """Vectorized Laplacian energy; cross-checked against highpass_energy."""
    k = np.array([[0, -1, 0], [-1, 4, -1], [0, -1, 0]], dtype=np.float64)
    total = 0.0
    count = 0
    for ch in range(img.shape[0]):
        p = img[ch].astype(np.float64)
        resp = (4 * p[1:-1, 1:-1] - p[:-2, 1:-1] - p[2:, 1:-1]
                - p[1:-1, :-2] - p[1:-1, 2:])
        total += float((resp ** 2).sum())
        count += resp.size
    return total / count


def all_choices(source_size: int, crop: int):
    """Every AugmentationChoice of a crop from a square source, in offset
    order."""
    span = source_size - crop
    offsets = range(span) if span > 0 else range(1)
    return [AugmentationChoice(y, x, flip)
            for y in offsets for x in offsets for flip in (False, True)]


def softmax_xent(logits: np.ndarray, label: int):
    """Stabilized softmax cross-entropy for one sample.

    Returns (loss, grad) with loss = -log softmax(logits)[label] and
    grad = softmax(logits) - onehot(label).
    """
    logits = np.asarray(logits)
    if not 0 <= label < logits.shape[-1]:
        raise ValueError(f"label {label} out of range [0, {logits.shape[-1]})")
    losses, grads = softmax_xent_batch(logits[None], np.array([label]))
    return float(losses[0]), grads[0]
