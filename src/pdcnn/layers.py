"""Layer forward/backward semantics: convolution, max-pooling, cross-channel
local response normalization, ReLU, fully connected classifier, and softmax
cross-entropy loss.

Layers take batches only, as does the network's PdcnnNet.forward: Conv2d,
MaxPool and Lrn take (N,C,H,W), the fully connected layer (N,D), and Relu
any shape. backward() takes the upstream gradient for the most recent
forward(), returns the input gradient, and leaves parameter gradients on
grad_* attributes. It consumes that forward's cache: the layer drops its
reference before computing, so each cached buffer is freed at its last use
within backward, not when the next forward replaces it, and a second
backward() raises ValueError. A Conv2d built with input_grad=False fills its
grad_* attributes the same way but returns None: it skips the input-gradient
GEMM and col2im, for a layer that reads the network input, whose gradient
nothing consumes. Relu caches its output and MaxPool its input and output,
and backward finds the routing from them, so forward computes only the
output. Analytic gradients are finite-difference verified in the test suite
(central differences, step 1e-3, double precision, relative error < 1e-4).

Every layer has an `inference` attribute, off by default; PdcnnNet sets it
on all of its layers while the network is in inference mode. With it on,
forward computes the same output but keeps no backward cache. A layer's
input, upstream gradient and parameters share one dtype, float32 or float64:
PdcnnNet casts its input batch and its logit gradients to its own.

Convolution is a GEMM over a channel-major im2col matrix (C*kh*kw, N*oh*ow)
for every stride and padding (Chellapilla et al. 2006, "High performance
convolutional neural networks for document processing"). In inference mode a
float32 conv pads the input and builds the matrix one block of samples at a
time, into reused buffers, each block's columns within COL_BUDGET bytes, and
keeps none (cache blocking after Goto & van de Geijn 2008, "Anatomy of
high-performance matrix multiplication"). When backward will follow (the
default), a float32 conv that computes its input gradient and has more than
RECOMPUTE_COL_BYTES of columns runs the same blocks and caches only its
input; backward rebuilds the columns one kernel row at a time (recompute for
memory after Chen et al. 2016, arXiv:1604.06174). Every other training conv
builds the matrix for the whole batch in one block and keeps it as the cache:
a conv without an input gradient (each branch's conv1) and a small one would
spend more time on the rebuild than its columns cost memory, and a float64
conv is never split (the comment above COL_BUDGET says why). The output and
gradient bytes are the same on every path.
"""

import numpy as np

# The split sizes of a float32 conv's im2col GEMM, in column bytes. A split
# GEMM keeps the whole one's bits only in float32, and only while each part is
# large enough for OpenBLAS's sgemm to run the same kernels (4 MiB blocks at
# every shape tried, kernel rows at the full-scale conv2 shapes, 256 KiB
# chunks at desk batches 16-500 and full 5-64; not 1 or 64 KiB blocks, nor
# desk chunks of 4 or 8 samples). dgemm rounds a column by where it falls, so
# a float64 GEMM is never split.
COL_BUDGET = 4 << 20  # per block of a blocked conv
RECOMPUTE_COL_BYTES = 8 * COL_BUDGET  # above it, training recomputes columns
CHUNK_COL_BYTES = 256 << 10  # fewest an inference chunk gives the smallest conv


class ShapeError(ValueError):
    """Layer input incompatible with layer parameters (channel or extent mismatch)."""


def conv_extent(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent: floor((size + 2*padding - kernel) / stride) + 1."""
    return (size + 2 * padding - kernel) // stride + 1


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, i0: int, i1: int,
            out: np.ndarray) -> None:
    """Write kernel rows i0:i1 of the channel-major columns of the padded
    (N,C,Hp,Wp) input xp into the contiguous out, (C*(i1-i0)*kw, N*oh*ow)."""
    n, c = xp.shape[:2]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride, i0:i1]
    oh, ow = win.shape[2:4]
    np.copyto(out.reshape(c, i1 - i0, kw, n, oh, ow),
              win.transpose(1, 4, 5, 0, 2, 3))


class Layer:
    """What every layer shares: the backward cache of the latest forward,
    which backward consumes, and the `inference` switch under which forward
    keeps none."""

    inference = False
    _cache = None

    def _take_cache(self):
        """The latest forward's cache, dropped from the layer so that
        backward holds its only reference."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise ValueError("backward() needs a new forward() run outside "
                             "inference mode")
        return cache


class Conv2d(Layer):
    """2D convolution with symmetric zero padding and square kernels.

    out[o,y,x] = bias[o] + sum_{c,i,j} w[o,c,i,j] * padded[c, y*stride+i, x*stride+j]

    Columns are channel-major, cols_t[(c,i,j), (n,y,x)], so out = W @ cols_t
    and grad_weights = dout @ cols_t.T. Forward loops over blocks of samples:
    each block is zero-padded into one reused buffer, its columns are copied
    into a second and multiplied into a third, the bias is added there, and
    the result is copied transposed into the block's rows of the
    (N,Co,oh*ow) output. A float32 conv runs in ceil(column bytes /
    COL_BUDGET) blocks, at most one per sample, with edges at n*i//nblk, in
    inference mode, and in training when it computes its input gradient and
    its columns exceed RECOMPUTE_COL_BYTES; it then keeps no columns, and a
    training forward caches its unpadded input. Any other forward is one
    block, the whole batch, whose column matrix training keeps as its cache.

    Backward loops over groups of kernel rows: the cached columns are one
    group of all kh rows; uncached ones are kh groups of one row, each
    rebuilt from the padded input into one reused (C*kw, N*oh*ow) buffer.
    For each group it writes dout @ rows.T into grad_weights[:, :, rows],
    then the group's column gradient W[:, :, rows].T @ dout into the
    columns' own buffer, so the two are not alive side by side, and col2im
    adds each tap's (C,N,oh,ow) block into a (C,N,Hp,Wp) buffer, kernel rows
    outermost, transposed back once. With input_grad=False, backward stops
    after the parameter gradients and returns None.
    """

    def __init__(self, weights: np.ndarray, bias: np.ndarray, stride: int = 1,
                 padding: int = 0, input_grad: bool = True):
        weights = np.asarray(weights)
        bias = np.asarray(bias)
        if weights.ndim != 4:
            raise ShapeError(f"conv weights must be 4D, got shape {weights.shape}")
        if weights.shape[2] != weights.shape[3]:
            raise ShapeError(f"conv kernels must be square, got {weights.shape[2:]}")
        if bias.shape != (weights.shape[0],):
            raise ShapeError(f"conv bias shape {bias.shape} != ({weights.shape[0]},)")
        if stride < 1 or padding < 0:
            raise ShapeError(f"bad stride/padding ({stride}, {padding})")
        self.weights = weights
        self.bias = bias
        self.stride = stride
        self.padding = padding
        self.input_grad = input_grad
        self.grad_weights = None
        self.grad_bias = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        co, ci, kh, kw = self.weights.shape
        if c != ci:
            raise ShapeError(f"conv expects {ci} input channels, got {c}")
        oh = conv_extent(h, kh, self.stride, self.padding)
        ow = conv_extent(w, kw, self.stride, self.padding)
        if oh < 1 or ow < 1:
            raise ShapeError(
                f"conv output extent collapsed to {oh}x{ow} "
                f"(input {h}x{w}, kernel {kh}, stride {self.stride}, pad {self.padding})")
        s, p = self.stride, self.padding
        k, m = c * kh * kw, oh * ow
        wmat = self.weights.reshape(co, k)
        col_bytes = k * n * m * x.itemsize
        blocked = x.dtype == np.float32 and (self.inference or (
            self.input_grad and col_bytes > RECOMPUTE_COL_BYTES))
        nblk = max(1, min(n, -(-col_bytes // COL_BUDGET))) if blocked else 1
        nb_max = -(-n // nblk)
        if p:  # only the interior is written, so the border stays zero
            pad_buf = np.zeros((nb_max, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
        col_buf = np.empty(k * nb_max * m, dtype=x.dtype)
        gemm_buf = np.empty(co * nb_max * m, dtype=x.dtype)
        out = np.empty((n, co, m), dtype=x.dtype)
        for i in range(nblk):
            n0, n1 = n * i // nblk, n * (i + 1) // nblk
            nb = n1 - n0
            xb = x[n0:n1]
            if p:
                xb = pad_buf[:nb]
                xb[:, :, p:p + h, p:p + w] = x[n0:n1]
            cols_t = col_buf[:k * nb * m].reshape(k, nb * m)
            _im2col(xb, kh, kw, s, 0, kh, cols_t)
            gemm = np.matmul(wmat, cols_t,
                             out=gemm_buf[:co * nb * m].reshape(co, nb * m))
            gemm += self.bias[:, None]
            out[n0:n1] = gemm.reshape(co, nb, m).transpose(1, 0, 2)
        self._cache = (None if self.inference else (x.shape, None, x) if blocked
                       else (x.shape, cols_t, None))
        return out.reshape(n, co, oh, ow)

    def backward(self, dout: np.ndarray) -> np.ndarray | None:
        (n, c, h, w), cols, x = self._take_cache()
        co, ci, kh, kw = self.weights.shape
        _, _, oh, ow = dout.shape
        s, p = self.stride, self.padding
        dmat_t = dout.transpose(1, 0, 2, 3).reshape(co, n * oh * ow)
        self.grad_bias = dmat_t.sum(axis=1)
        rebuild = cols is None
        if rebuild:
            if p:
                xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
                xp[:, :, p:p + h, p:p + w] = x
                x = xp
            cols = np.empty((c * kw, n * oh * ow), dtype=x.dtype)
        groups = [(i, i + 1) for i in range(kh)] if rebuild else [(0, kh)]
        grad_weights = np.empty_like(self.weights)
        if self.input_grad:
            dxp = np.zeros((ci, n, h + 2 * p, w + 2 * p), dtype=dout.dtype)
        for i0, i1 in groups:
            if rebuild:
                _im2col(x, kh, kw, s, i0, i1, cols)
            grad_weights[:, :, i0:i1] = (dmat_t @ cols.T).reshape(
                co, ci, i1 - i0, kw)
            if not self.input_grad:
                continue
            wrows_t = self.weights[:, :, i0:i1].reshape(co, -1).T
            dcols_t = np.matmul(wrows_t, dmat_t, out=cols).reshape(
                ci, i1 - i0, kw, n, oh, ow)
            for i in range(i0, i1):
                for j in range(kw):
                    dxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += dcols_t[:, i - i0, j]
        self.grad_weights = grad_weights
        if not self.input_grad:
            return None
        del x, cols, dcols_t  # not alive beside dx
        dx = dxp[:, :, p:p + h, p:p + w].transpose(1, 0, 2, 3)
        return np.ascontiguousarray(dx)


class MaxPool(Layer):
    """Max pooling; backward routes each upstream value to the window's first
    maximum (first NaN, if any) in row-major scan order, zero elsewhere."""

    def __init__(self, window: int, stride: int):
        if window < 1 or stride < 1:
            raise ShapeError(f"bad pool window/stride ({window}, {stride})")
        self.window = window
        self.stride = stride

    def forward(self, x: np.ndarray) -> np.ndarray:
        _, _, h, w = x.shape
        k, s = self.window, self.stride
        if k > h or k > w:
            raise ShapeError(f"pool window {k} larger than input {h}x{w}")
        oh, ow = conv_extent(h, k, s, 0), conv_extent(w, k, s, 0)
        # by columns, then rows; on ties np.maximum keeps its 2nd (earlier) argument
        cols = x[:, :, :, :s * ow:s].copy()
        for j in range(1, k):
            np.maximum(x[:, :, :, j:j + s * ow:s], cols, out=cols)
        out = cols[:, :, :s * oh:s].copy()
        for i in range(1, k):
            np.maximum(cols[:, :, i:i + s * oh:s], out, out=out)
        self._cache = None if self.inference else (x, out)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, out = self._take_cache()
        n, c, h, w = x.shape
        k, s = self.window, self.stride
        oh, ow = out.shape[2], out.shape[3]
        # a hit: x_tap == out, or a NaN tap where out is NaN; rank = last - the
        # first tap hit, a running max of hit * (last - t), 0 needing no pass
        last = k * k - 1
        rank = np.zeros(out.shape, dtype=np.min_scalar_type(last))
        nan = np.isnan(out)
        any_nan = nan.any()
        for t in range(last):
            i, j = divmod(t, k)
            tap = x[:, :, i:i + s * oh:s, j:j + s * ow:s]
            hit = np.equal(tap, out)
            if any_nan:
                hit |= nan & np.isnan(tap)
            np.maximum(rank, np.multiply(hit, last - t, dtype=rank.dtype), out=rank)
        # flat input index: plane offset + window corner + tap offset i*w + j
        tap_offset = (np.arange(k)[:, None] * w + np.arange(k)).ravel()[::-1]
        flat = tap_offset.take(rank)
        flat += (np.arange(n * c) * (h * w)).reshape(n, c, 1, 1)
        flat += (np.arange(oh) * (s * w))[:, None] + np.arange(ow) * s
        # bincount casts its weights to float64 itself, so overlapping-window
        # contributions accumulate in double precision whatever dout's dtype
        acc = np.bincount(flat.ravel(), weights=dout.ravel(), minlength=x.size)
        return acc.reshape(x.shape).astype(dout.dtype)


def _channel_window_sum(v: np.ndarray, radius: int) -> np.ndarray:
    """Per-position sum of v over the channel window [c-radius, c+radius].

    The difference of two running sums over the channels, built channel by
    channel with the adds of np.cumsum, in its order. The running sum sits
    between r+1 zeros and r copies of its total, with r = min(radius, C), so
    channel c's window is slot c+2r+1 minus slot c, one slice difference."""
    n, c = v.shape[:2]
    r = min(radius, c)
    cs = np.empty((n, c + 2 * r + 1) + v.shape[2:], dtype=v.dtype)
    cs[:, :r + 1] = 0
    cs[:, r + 1] = v[:, 0]
    for i in range(1, c):
        np.add(cs[:, r + i], v[:, i], out=cs[:, r + i + 1])
    cs[:, r + c + 1:] = cs[:, r + c:r + c + 1]
    return cs[:, 2 * r + 1:] - cs[:, :c]


class Lrn(Layer):
    """Cross-channel local response normalization.

    out[c,y,x] = in[c,y,x] / (k + alpha * sum_{|c'-c| <= radius} in[c',y,x]^2)^beta
    """

    def __init__(self, radius: int, k: float = 2.0, alpha: float = 1e-4,
                 beta: float = 0.75):
        if k <= 0 or beta <= 0 or radius < 0:
            raise ValueError(f"bad LRN constants (radius={radius}, k={k}, beta={beta})")
        self.radius = radius
        self.k = k
        self.alpha = alpha
        self.beta = beta

    def forward(self, x: np.ndarray) -> np.ndarray:
        base = _channel_window_sum(x * x, self.radius)
        base *= self.alpha
        base += self.k
        scale = base ** (-self.beta)
        self._cache = None if self.inference else (x, base, scale)
        return x * scale

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, base, scale = self._take_cache()
        # the cache is backward's alone now: base's buffer takes the inner term
        base **= -self.beta - 1.0
        base *= dout * x
        grad = _channel_window_sum(base, self.radius)
        grad *= (2.0 * self.alpha * self.beta) * x
        return dout * scale - grad


class Relu(Layer):
    """max(0, x); gradient passes where out > 0 (where x > 0), zero elsewhere."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.maximum(x, 0)
        self._cache = None if self.inference else out
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * (self._take_cache() > 0)


class FullyConnected(Layer):
    """Affine map W @ x + b over flattened feature vectors."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        weights = np.asarray(weights)
        bias = np.asarray(bias)
        if weights.ndim != 2 or bias.shape != (weights.shape[0],):
            raise ShapeError(
                f"fc expects weights (K,D) and bias (K,), got {weights.shape}, {bias.shape}")
        self.weights = weights
        self.bias = bias
        self.grad_weights = None
        self.grad_bias = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.weights.shape[1]:
            raise ShapeError(
                f"fc expects {self.weights.shape[1]} features, got {x.shape[1]}")
        self._cache = None if self.inference else x
        return x @ self.weights.T + self.bias

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x = self._take_cache()
        self.grad_weights = dout.T @ x
        self.grad_bias = dout.sum(axis=0)
        return dout @ self.weights


def softmax_xent_batch(logits: np.ndarray, labels: np.ndarray):
    """Per-sample losses (N,) and logit gradients (N,K) for a batch."""
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    p = ez / sez
    n = logits.shape[0]
    losses = np.log(sez[:, 0]) - z[np.arange(n), labels]
    grads = p.copy()
    grads[np.arange(n), labels] -= 1.0
    return losses, grads
