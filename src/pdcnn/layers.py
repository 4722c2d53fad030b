"""Layer forward/backward semantics: convolution, max-pooling, cross-channel
local response normalization, ReLU, fully connected classifier, and softmax
cross-entropy loss.

Layers take batches only, as does the network's PdcnnNet.forward: Conv2d,
MaxPool and Lrn take (N,C,H,W), the fully connected layer (N,D), and Relu
any shape. A training forward runs within `with part:`, a Part of a Split:
a sample range of one batch, all of it or a slice. The layer keeps its
backward cache in the part, never in itself, and backward(), within the
same part, takes the upstream gradient for that forward, returns the input
gradient, and leaves parameter gradients on grad_* attributes. It consumes
the cache: the part drops its reference before backward computes, so each
cached buffer is freed at its last use within backward, and a second
backward() raises ValueError. A forward outside any part is an inference
forward: the same output, and no cache. A Conv2d built with input_grad=False
fills its grad_* attributes the same way but returns None: it skips the
input-gradient GEMM and col2im, for a layer that reads the network input,
whose gradient nothing consumes. A training Relu keeps only its bool mask
and MaxPool only its input shape and each window's winning tap, found in
forward, so a conv output is freed once the pool has read it (a branch's
spec puts each pool before its ReLU); an inference forward finds neither.
Analytic gradients are checked against finite differences (central, step
1e-3, double precision, relative error < 1e-4).
A layer's input, upstream gradient and parameters share one dtype, float32
or float64: PdcnnNet casts its input batch and its logit gradients to its own.

Convolution is a GEMM over a channel-major im2col matrix (C*kh*kw, N*oh*ow)
for every stride and padding (Chellapilla et al. 2006, "High performance
convolutional neural networks for document processing"). In inference a
float32 conv pads its input once, then builds the matrix one block of samples
at a time, each block's columns within COL_BUDGET bytes, and keeps none (cache
blocking after Goto & van de Geijn 2008, "Anatomy of high-performance matrix
multiplication"); the columns and the GEMM output share its thread's
workspace, which the network drops when the thread's run ends. In training, a
float32 conv that computes its input gradient and whose whole batch has more
than RECOMPUTE_COL_BYTES of columns pads its input once, into the whole batch's
zero-padded input, runs the same blocks over its rows and keeps only it;
backward rebuilds the columns one kernel row at a time (recompute for
memory after Chen et al. 2016, arXiv:1604.06174). Every other training conv
keeps its whole batch's columns: a conv without an input gradient (each
branch's conv1) and a small one would spend more time on the rebuild than
they cost, and a float64 conv is never split (the comment above COL_BUDGET
says why). The conv1s of equal stride, padding and output extent read one
stem, the batch's columns at their widest kernel, which the network builds
once per training step, read-only; a conv of kernel k copies the stem's
rows (c, i<k, j<k) for its forward, and for its weight gradient one kernel
row at a time, in the loop that rebuilds a recomputed conv's rows. A conv1
alone in its group, and every inference forward, builds its own columns.
The output and gradient bytes are the same on every path.

A conv's whole-batch arrays, its columns or padded input and from backward
on its upstream gradient, live in the Split, each part filling its own sample
range. A training step runs all its branches in one Split: whole branches
share its one part, the whole batch, whose backward computes the weight and
bias gradients; or each thread runs every branch as one sample slice, a Part
each, whose backward computes only its input gradient, and Split.weight_grads
then runs the whole-batch weight and bias gradient GEMMs, shared out over
the threads, once every slice is done. Inference takes its chunks' sample
ranges from a Split's parts but runs outside them.
"""

import threading

import numpy as np

# The split sizes of a float32 conv's im2col GEMM, in column bytes. A split
# GEMM keeps the whole one's bits only in float32, only with one BLAS thread
# (a threaded OpenBLAS splits a long reduction itself, by its thread count),
# and only while each part is large enough for sgemm to run the same kernels
# (4 MiB blocks at every shape tried, kernel rows at the full-scale conv2
# shapes, 256 KiB chunks at desk batches 16-500 and full 5-64; not 1 or 64 KiB
# blocks, nor desk chunks of 4 or 8 samples). dgemm rounds a column by where
# it falls, so a float64 GEMM is never split. Measured with numpy 2.4.6 and
# OpenBLAS 0.3.31 on one thread, for the split training branch:
# - full scale, batches 32, 16, 8, 7 and 6, every 4,3,4 conv shape: the
#   forward W @ cols and the input gradient W.T @ dmat keep the whole-batch
#   bytes split into sample halves (as contiguous columns or as column ranges
#   of the whole matrix), and so does dW = dmat @ cols.T split by output rows,
#   by input channels or by kernel rows;
# - desk scale: the forward split loses bytes below the chunk rule (b3 conv4
#   at 8-sample slices, conv3 at 3), while W.T @ dmat keeps them everywhere,
#   and so does dW by output rows at 76 samples and more.
COL_BUDGET = 4 << 20  # per block of a blocked conv or pool backward
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


_THREAD = threading.local()  # .part: the Part this thread runs; .workspace


def _part():
    return getattr(_THREAD, "part", None)


def _workspace(nbytes: int) -> np.ndarray:
    """nbytes of this thread's byte buffer, grown to the largest asked."""
    workspace = getattr(_THREAD, "workspace", None)
    if workspace is None or len(workspace) < nbytes:
        workspace = _THREAD.workspace = np.empty(nbytes, np.uint8)
    return workspace[:nbytes]


def release_workspace() -> None:
    vars(_THREAD).pop("workspace", None)


class Split:
    """A training step of one n-sample batch run as parts, one per thread:
    what the parts share, each conv's whole-batch arrays, filled by
    whichever part's forward reaches the conv first."""

    def __init__(self, n: int):
        self.n = n
        self.convs = {}  # Conv2d -> _Whole
        self._lock = threading.Lock()

    def parts(self, k: int):
        """The batch cut into k parts, edges at n*i//k; only the parts
        refer to the split, so it is freed with them, without the GC."""
        return [Part(self, self.n * i // k, self.n * (i + 1) // k)
                for i in range(k)]

    def whole(self, conv, make):
        """conv's whole-batch arrays, made by make() on first use."""
        with self._lock:
            if conv not in self.convs:
                self.convs[conv] = make()
            return self.convs[conv]

    def share(self, conv, stem: np.ndarray, kernel: int) -> None:
        """Give conv a stem of kernel `kernel` as its columns (_Whole)."""
        self.convs[conv] = _Whole(stem, kernel)

    def weight_grads(self, t: int, k: int) -> None:
        """Share t of k of the weight and bias gradients of every conv that
        ran as slices; run once every slice's backward is done, the k shares
        on k threads. A one-part split's convs leave nothing here."""
        for conv, whole in self.convs.items():
            conv._weight_grads(whole, t, k)


class Part:
    """Samples n0:n1 of a Split's batch. Within `with part:` the layers this
    thread runs keep their backward caches in the part."""

    def __init__(self, split: Split, n0: int, n1: int):
        self.split, self.n0, self.n1 = split, n0, n1
        self.caches = {}

    @property
    def sole(self) -> bool:
        """Whether the part is its split's whole batch."""
        return self.n1 - self.n0 == self.split.n

    def __enter__(self):
        _THREAD.part = self

    def __exit__(self, *exc):
        _THREAD.part = None


def batch_part(n: int) -> Part:
    """A whole n-sample batch as the one part of its Split."""
    return Split(n).parts(1)[0]


class _Whole:
    """A conv's whole-batch arrays for its weight and bias gradients: the
    columns cols, or, when those are rebuilt (cols None), the zero-padded
    input xp; from backward on, the upstream gradient dmat (Co, N*oh*ow) and
    the gradients. The parts fill disjoint sample ranges. cols may instead
    be a read-only stem, the columns at kernel `kernel` (else 0) >= the
    conv's k, whose rows (c, i<k, j<k) are the conv's columns. A whole-batch
    part's backward drops it after the weight gradient."""

    def __init__(self, cols, kernel: int = 0, xp=None):
        self.cols, self.kernel, self.xp, self.dmat = cols, kernel, xp, None
        self._lock = threading.Lock()

    def start_backward(self, conv, n: int, dout: np.ndarray) -> None:
        """Make dmat for n samples of dout's extent and the gradients, once."""
        with self._lock:
            if self.dmat is None:
                _, co, oh, ow = dout.shape
                self.dmat = np.empty((co, n * oh * ow), dout.dtype)
                self.grad_weights = np.empty_like(conv.weights)
                self.grad_bias = np.empty_like(conv.bias)


class Layer:
    """What every layer shares: a training forward keeps its backward cache
    in the Part its thread runs, and backward takes it back; outside a part
    forward keeps none."""

    def _keep(self, cache):
        part = _part()
        if part is not None:
            part.caches[self] = cache

    def _take_cache(self):
        """This part's latest forward cache, dropped from the part so that
        backward holds its only reference."""
        part = _part()
        cache = None if part is None else part.caches.pop(self, None)
        if cache is None:
            raise ValueError("backward() needs a new forward() within the "
                             "same Part since the last backward()")
        return cache


class Conv2d(Layer):
    """2D convolution with symmetric zero padding and square kernels.

    out[o,y,x] = bias[o] + sum_{c,i,j} w[o,c,i,j] * padded[c, y*stride+i, x*stride+j]

    Columns are channel-major, cols_t[(c,i,j), (n,y,x)], so out = W @ cols_t
    and grad_weights = dout @ cols_t.T. Forward zero-pads its input once, then
    loops over blocks of samples: each block's columns are copied from its
    rows of the padded input into one reused buffer and multiplied into a
    second (in inference, both views of its thread's workspace), the bias is
    added there, and the result is copied transposed into the block's rows of
    the (N,Co,oh*ow) output. A float32 conv runs in
    ceil(column bytes / COL_BUDGET) blocks, at most one per sample, with edges
    at n*i//nblk, in inference, and in training when it computes its input
    gradient and its whole batch's columns exceed RECOMPUTE_COL_BYTES; it then
    keeps no columns, and pads its part's input into the whole batch's padded
    input, which it keeps; every other conv pads into a fresh array. Any other
    forward is one block, whose columns in training are its part's sample
    range of the whole batch's column matrix: written there, or read from a
    stem its Split holds (see the module docstring).

    Backward writes its part's upstream gradient into the whole batch's. A
    part that is the whole batch then writes the weight gradient dout @
    cols_t.T: in one GEMM from columns at its own kernel, else kernel row by
    kernel row, each row's columns rebuilt from the padded input or copied
    from a wider stem into one reused (C*kw, N*oh*ow) buffer (on a slice,
    Split.weight_grads does this later). Then it drops the whole-batch arrays,
    which frees a whole-batch part's kept columns before the column gradient's
    buffer is made, and loops over groups of kernel rows, all kh for kept
    columns, one otherwise, writing each group's column gradient
    W[:, :, rows].T @ dout into one buffer of the group's size; col2im adds
    each tap's (C,N,oh,ow) block into a (C,N,Hp,Wp) buffer, kernel rows
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
        part = _part()  # None in inference
        # a part decides as its whole batch does
        blocked = x.dtype == np.float32 and (part is None or (
            self.input_grad
            and k * part.split.n * m * x.itemsize > RECOMPUTE_COL_BYTES))
        col_bytes = k * n * m * x.itemsize
        nblk = max(1, min(n, -(-col_bytes // COL_BUDGET))) if blocked else 1
        nb_max = -(-n // nblk)
        whole = cols = None  # cols: the part's range of the kept columns
        if part is not None:
            nw = part.split.n
            whole = part.split.whole(self, lambda: _Whole(None, xp=np.zeros(
                (nw, c, h + 2 * p, w + 2 * p), x.dtype)) if blocked
                else _Whole(np.empty((k, nw * m), x.dtype)))
            if not blocked:  # a view of the kept columns, or a wider stem's rows copied
                cols = whole.cols[:, part.n0 * m:part.n1 * m]
                if whole.kernel > kh:
                    wk = whole.kernel
                    cols = cols.reshape(c, wk, wk, -1)[:, :kh, :kw].reshape(k, -1)
        stem = whole is not None and whole.kernel  # columns built already
        if not stem:  # padded once; only the interior is written, the border stays zero
            xp = (whole.xp[part.n0:part.n1] if blocked and whole is not None
                  else np.zeros((n, c, h + 2 * p, w + 2 * p), x.dtype))
            xp[:, :, p:p + h, p:p + w] = x
        if part is None and blocked:  # one view of the thread's workspace
            col_buf = _workspace((k + co) * nb_max * m * x.itemsize).view(x.dtype)
            gemm_buf = col_buf[k * nb_max * m:]
        else:
            col_buf = None if cols is not None else np.empty(k * nb_max * m, x.dtype)
            gemm_buf = np.empty(co * nb_max * m, dtype=x.dtype)
        out = np.empty((n, co, m), dtype=x.dtype)
        for i in range(nblk):
            n0, n1 = n * i // nblk, n * (i + 1) // nblk
            nb = n1 - n0
            cols_t = (cols if cols is not None
                      else col_buf[:k * nb * m].reshape(k, nb * m))
            if not stem:
                _im2col(xp[n0:n1], kh, kw, s, 0, kh, cols_t)
            gemm = np.matmul(wmat, cols_t,
                             out=gemm_buf[:co * nb * m].reshape(co, nb * m))
            gemm += self.bias[:, None]
            out[n0:n1] = gemm.reshape(co, nb, m).transpose(1, 0, 2)
        self._keep(((n, c, h, w), whole))
        return out.reshape(n, co, oh, ow)

    def backward(self, dout: np.ndarray) -> np.ndarray | None:
        (n, _, h, w), whole = self._take_cache()
        part = _part()
        co, ci, kh, kw = self.weights.shape
        _, _, oh, ow = dout.shape
        s, p, m, n0 = self.stride, self.padding, oh * ow, part.n0
        whole.start_backward(self, part.split.n, dout)
        whole.dmat.reshape(co, -1, m)[:, n0:n0 + n] = (
            dout.reshape(n, co, m).transpose(1, 0, 2))
        dmat = whole.dmat[:, n0 * m:(n0 + n) * m]
        # the whole batch's weight gradients come first, so that its columns
        # are freed before the column gradient's buffer is made; a slice's
        # come from Split.weight_grads, once every slice has written its dmat
        if part.sole:
            del part.split.convs[self]
            self._weight_grads(whole)
        if not self.input_grad:
            return None
        # kernel rows per group: all of them with kept columns, else one
        # (splitting a kept-columns GEMM by kernel row changes float64 bytes)
        g = kh if whole.cols is not None else 1
        del whole
        cols = np.empty((ci * g * kw, n * m), dtype=dout.dtype)
        dxp = np.zeros((ci, n, h + 2 * p, w + 2 * p), dtype=dout.dtype)
        for i0 in range(0, kh, g):
            wrows_t = self.weights[:, :, i0:i0 + g].reshape(co, -1).T
            dcols_t = np.matmul(wrows_t, dmat, out=cols).reshape(
                ci, g, kw, n, oh, ow)
            for i in range(i0, i0 + g):
                for j in range(kw):
                    dxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += dcols_t[:, i - i0, j]
        del cols, dmat, dcols_t  # not alive beside dx
        dx = dxp[:, :, p:p + h, p:p + w].transpose(1, 0, 2, 3)
        return np.ascontiguousarray(dx)

    def im2col(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write batch x's columns into out, (C*kh*kw, N*oh*ow) or a range."""
        p, kh = self.padding, self.weights.shape[2]
        _im2col(np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))), kh, kh,
                self.stride, 0, kh, out)

    def _weight_grads(self, whole: _Whole, t: int = 0, k: int = 1) -> None:
        """Share t of k of the weight and bias gradients, from whole-batch
        arrays: a range of output channels when the conv has columns at its
        own kernel, else of kernel rows, each copied from a wider stem or
        rebuilt from the padded input."""
        co, ci, kh, kw = self.weights.shape
        dmat, gw, gb = whole.dmat, whole.grad_weights, whole.grad_bias
        if whole.cols is not None and whole.kernel <= kh:
            o0, o1 = co * t // k, co * (t + 1) // k
            gw[o0:o1] = (dmat[o0:o1] @ whole.cols.T).reshape(o1 - o0, ci, kh, kw)
            gb[o0:o1] = dmat[o0:o1].sum(axis=1)
        else:
            rows = np.empty((ci * kw, dmat.shape[1]), dtype=dmat.dtype)
            for i in range(kh * t // k, kh * (t + 1) // k):
                if whole.cols is None:
                    _im2col(whole.xp, kh, kw, self.stride, i, i + 1, rows)
                else:
                    stem = whole.cols.reshape(ci, whole.kernel, whole.kernel, -1)
                    np.copyto(rows.reshape(ci, kw, -1), stem[:, i, :kw])
                gw[:, :, i] = (dmat @ rows.T).reshape(co, ci, kw)
            if t == 0:
                gb[...] = dmat.sum(axis=1)
        self.grad_weights, self.grad_bias = gw, gb


class MaxPool(Layer):
    """Max pooling; backward routes each upstream value to the window's first
    maximum (first NaN, if any) in row-major scan order, zero elsewhere: a
    tap a training forward finds and keeps, as a rank (uint8 up to 16x16).
    Backward sums a block of samples at a time, within COL_BUDGET bytes."""

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
        if _part() is None:  # inference: no winners to find
            return out
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
        self._keep((x.shape, rank))
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        (n, c, h, w), rank = self._take_cache()
        k, s = self.window, self.stride
        oh, ow = rank.shape[2:]
        b = max(1, COL_BUDGET // (c * h * w * 8))  # samples per float64 block
        # flat input index in a block: plane offset + window corner + tap
        # offset i*w + j
        tap_offset = (np.arange(k)[:, None] * w + np.arange(k)).ravel()[::-1]
        corner = ((np.arange(min(n, b) * c) * (h * w)).reshape(-1, c, 1, 1)
                  + (np.arange(oh) * (s * w))[:, None] + np.arange(ow) * s)
        dx = np.empty((n, c, h, w), dtype=dout.dtype)
        for a in range(0, n, b):
            flat, blk = tap_offset.take(rank[a:a + b]), dx[a:a + b]
            flat += corner[:len(blk)]
            # bincount sums its weights in float64 whatever dout's dtype, and
            # samples share no window: each sum keeps its whole-batch order
            blk[...] = np.bincount(flat.ravel(), weights=dout[a:a + b].ravel(),
                                   minlength=blk.size).reshape(blk.shape)
        return dx


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
        self._keep((x, base, scale))
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
    """max(0, x); gradient passes where out > 0, a mask training keeps."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.maximum(x, 0)
        if _part() is not None:
            self._keep(out > 0)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self._take_cache()


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
        self._keep(x)
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
