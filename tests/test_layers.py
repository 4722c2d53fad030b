import sys
import threading
import tracemalloc
import weakref
from contextlib import nullcontext

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from pdcnn import layers as L
from pdcnn import tensor as T
from pdcnn.arch import ArchConfig, build_pdcnn, shape_check
from pdcnn.layers import (COL_BUDGET, RECOMPUTE_COL_BYTES, Conv2d,
                          FullyConnected, Lrn, MaxPool, Relu, ShapeError,
                          Split, _channel_window_sum, batch_part,
                          conv_extent, softmax_xent_batch)
from pdcnn.network import INPUT_OFFSET, INPUT_SCALE, PdcnnNet
from oracles import (channel_window_sum_cumsum, conv_backward_whole_batch,
                     conv_naive, conv_whole_batch, lrn_cumsum, lrn_naive,
                     max_rel_err, pool_argmax, pool_naive, softmax_xent)


# --- conv2d ---

def test_conv_identity_kernel():
    x = np.random.default_rng(0).normal(0, 1, (2, 4, 4))
    w = np.zeros((2, 2, 1, 1))
    w[0, 0, 0, 0] = 1.0
    w[1, 1, 0, 0] = 1.0
    conv = Conv2d(w, np.zeros(2))
    npt.assert_allclose(conv.forward(x[None])[0], x, atol=0)


def test_conv_hand_example():
    x = np.arange(1.0, 10.0).reshape(1, 3, 3)
    conv = Conv2d(np.ones((1, 1, 2, 2)), np.zeros(1))
    npt.assert_array_equal(conv.forward(x[None])[0],
                           np.array([[[12.0, 16.0], [24.0, 28.0]]]))


def test_conv_output_channels():
    # a conv1-shaped layer (64 filters over 3 channels) yields 64 channels
    rng = np.random.default_rng(1)
    conv = Conv2d(rng.normal(0, 0.01, (64, 3, 7, 7)), np.zeros(64),
                  stride=4, padding=2)
    out = conv.forward(rng.normal(0, 1, (3, 31, 31))[None])[0]
    assert out.shape[0] == 64


@pytest.mark.parametrize("seed", range(6))
def test_conv_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, 2))
    h = int(rng.integers(k, 7))
    w = int(rng.integers(k, 7))
    if conv_extent(h, k, stride, pad) < 1 or conv_extent(w, k, stride, pad) < 1:
        h, w = k + 2, k + 2
    x = rng.normal(0, 1, (ci, h, w))
    weights = rng.normal(0, 1, (co, ci, k, k))
    bias = rng.normal(0, 1, co)
    conv = Conv2d(weights, bias, stride=stride, padding=pad)
    npt.assert_allclose(conv.forward(x[None])[0],
                        conv_naive(x, weights, bias, stride, pad), atol=1e-12)


def test_conv_linear_in_weights_and_input():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, (2, 5, 5))
    w = rng.normal(0, 1, (3, 2, 3, 3))
    conv1 = Conv2d(w, np.zeros(3), padding=1)
    conv2 = Conv2d(2 * w, np.zeros(3), padding=1)
    npt.assert_allclose(conv2.forward(x[None]), 2 * conv1.forward(x[None]),
                        atol=1e-12)
    npt.assert_allclose(conv1.forward(2 * x[None]), 2 * conv1.forward(x[None]),
                        atol=1e-12)


def test_conv_batched_matches_single():
    rng = np.random.default_rng(4)
    xs = rng.normal(0, 1, (3, 2, 5, 5))
    conv = Conv2d(rng.normal(0, 1, (2, 2, 3, 3)), rng.normal(0, 1, 2), padding=1)
    batched = conv.forward(xs)
    for i in range(3):
        npt.assert_allclose(batched[i], conv.forward(xs[i:i + 1])[0], atol=1e-12)


@pytest.mark.parametrize("stride,pad", [(4, 2), (1, 2)])
def test_conv_batched_backward_matches_per_sample(stride, pad):
    # N, Ci and Co all differ, so a batch/channel axis swap in the column
    # layout cannot cancel out; the FD gradcheck only feeds single samples
    n, ci, co, k, size = 3, 2, 5, 3, 9
    rng = np.random.default_rng(stride)
    xs = rng.normal(0, 1, (n, ci, size, size))
    weights = rng.normal(0, 1, (co, ci, k, k))
    bias = rng.normal(0, 1, co)
    conv = Conv2d(weights, bias, stride=stride, padding=pad)
    with batch_part(n):
        out = conv.forward(xs)
        dout = rng.normal(0, 1, out.shape)
        dx = conv.backward(dout)
    grad_weights, grad_bias = conv.grad_weights, conv.grad_bias
    # without the input gradient, the parameter gradients are the same bits
    no_dx = Conv2d(weights, bias, stride=stride, padding=pad, input_grad=False)
    with batch_part(n):
        no_dx.forward(xs)
        assert no_dx.backward(dout) is None
    npt.assert_array_equal(no_dx.grad_weights, grad_weights)
    npt.assert_array_equal(no_dx.grad_bias, grad_bias)
    sum_gw, sum_gb = np.zeros_like(weights), np.zeros_like(bias)
    for i in range(n):
        npt.assert_allclose(out[i], conv_naive(xs[i], weights, bias, stride, pad),
                            atol=1e-12)
        with batch_part(1):
            conv.forward(xs[i:i + 1])
            npt.assert_allclose(dx[i], conv.backward(dout[i:i + 1])[0],
                                atol=1e-12)
        sum_gw += conv.grad_weights
        sum_gb += conv.grad_bias
    npt.assert_allclose(grad_weights, sum_gw, atol=1e-12)
    npt.assert_allclose(grad_bias, sum_gb, atol=1e-12)


def test_conv_backward_frees_columns_before_column_gradient():
    # a 5x5 float32 conv whose columns dwarf everything else backward
    # allocates: the column gradient may only be built once they are freed
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 16, 27, 27), dtype=np.float32)
    conv = Conv2d(rng.standard_normal((8, 16, 5, 5), dtype=np.float32),
                  np.zeros(8, dtype=np.float32), stride=1, padding=2)
    dout = rng.standard_normal((8, 8, 27, 27), dtype=np.float32)
    col_bytes = _col_bytes(conv, x)
    part = batch_part(8)
    tracemalloc.start()
    try:
        with part:
            conv.forward(x)
            assert _holds_columns(part, conv)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            conv.backward(dout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < col_bytes / 2, (peak - before, col_bytes)
    assert not part.caches and not part.split.convs


@pytest.mark.parametrize("layer,x", [
    (Conv2d(np.ones((2, 1, 3, 3)), np.zeros(2), padding=1), np.ones((1, 1, 4, 4))),
    (MaxPool(2, 2), np.ones((1, 1, 4, 4))),
    (Lrn(1), np.ones((1, 3, 2, 2))),
    (Relu(), np.ones((1, 3))),
    (FullyConnected(np.ones((2, 3)), np.zeros(2)), np.ones((1, 3))),
], ids=["conv", "pool", "lrn", "relu", "fc"])
def test_backward_consumes_the_forward_cache(layer, x):
    # the part holds the cache until backward, which takes it; a backward
    # without a training forward in its part raises, also after an
    # inference forward
    out = layer.forward(x)
    with pytest.raises(ValueError, match="needs a new forward"):
        layer.backward(np.ones_like(out))
    part = batch_part(len(x))
    with part:
        layer.forward(x)
        assert list(part.caches) == [layer]
        layer.backward(np.ones_like(out))
        assert not part.caches and not part.split.convs
        with pytest.raises(ValueError, match="needs a new forward"):
            layer.backward(np.ones_like(out))


DESK = ArchConfig(conv1_stride=2, filter_scale=0.25, init_sigma=0.06)
TINY = ArchConfig(conv1_stride=2, pool_window=2, pool_stride=2,
                  filter_scale=0.04, init_sigma=0.5)


FULL = ArchConfig()


def _conv_inputs(config, size, batch, dtype):
    """(conv layer, its input) for every conv of a 4,3,4 network on a random
    image batch, each input the batch run through the layers before it by
    inference forwards, outside any part."""
    net = PdcnnNet(build_pdcnn([4, 3, 4], input_shape=(3, size, size),
                               config=config), T.Rng(9), dtype=dtype)
    images = np.random.default_rng(batch).random((batch, 3, size, size))
    x = ((images - INPUT_OFFSET) * INPUT_SCALE).astype(dtype)
    pairs = []
    for layers in net.branches:
        h = x
        for layer in layers:
            if isinstance(layer, Conv2d):
                pairs.append((layer, h))
            h = layer.forward(h)
    return pairs


def _full_conv2(batch, dtype):
    """A full-scale canonical conv2 (96 5x5 filters over 64 channels of 27x27,
    padding 2) and a random input batch for it."""
    rng = np.random.default_rng(batch)
    conv = Conv2d(rng.normal(0, 0.01, (96, 64, 5, 5)).astype(dtype),
                  rng.normal(0, 1, 96).astype(dtype), stride=1, padding=2)
    return conv, rng.standard_normal((batch, 64, 27, 27)).astype(dtype)


def _holds_columns(part, conv):
    """Whether conv's training forward in part kept its column matrix."""
    return part.caches[conv][1].cols is not None


def _trained_part(conv, x):
    """The part of a training forward of conv at x, the whole batch."""
    part = batch_part(len(x))
    with part:
        conv.forward(x)
    return part


def _held_arrays(layer):
    """The names of the arrays layer holds besides its parameters."""
    return {name for name, value in vars(layer).items()
            if isinstance(value, np.ndarray)} - {
                "weights", "bias", "grad_weights", "grad_bias"}


def _col_bytes(conv, x):
    n, c, h, w = x.shape
    _, _, k, _ = conv.weights.shape
    oh = conv_extent(h, k, conv.stride, conv.padding)
    ow = conv_extent(w, k, conv.stride, conv.padding)
    return c * k * k * n * oh * ow * x.itemsize


@pytest.mark.bit_equal
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("config,size,batch", [(DESK, 56, 32), (DESK, 56, 64),
                                               (TINY, 20, 7)],
                         ids=["desk32", "desk64", "tiny7"])
def test_conv_blocked_inference_forward_is_bit_equal(config, size, batch, dtype):
    # every conv of 4,3,4 at the real COL_BUDGET; at the desk shapes conv1 and
    # conv2 have several budgets' worth of columns, so float32 runs in blocks
    pairs = _conv_inputs(config, size, batch, dtype)
    if config is DESK:
        assert sum(_col_bytes(conv, x) > COL_BUDGET for conv, x in pairs) >= 4
    full = np.random.default_rng(5)
    conv1 = Conv2d(full.normal(0, 0.01, (64, 3, 7, 7)).astype(dtype),
                   full.normal(0, 1, 64).astype(dtype), stride=4, padding=2)
    x1 = ((full.random((3, 3, 224, 224)) - INPUT_OFFSET) * INPUT_SCALE).astype(dtype)
    assert _col_bytes(conv1, x1) > COL_BUDGET
    for conv, x in pairs + [(conv1, x1)]:
        out = conv.forward(x)  # outside any part: an inference forward
        assert not _held_arrays(conv)
        want = conv_whole_batch(x, conv.weights, conv.bias, conv.stride,
                                conv.padding)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()


@pytest.mark.bit_equal
@pytest.mark.parametrize("config,size,batch,dtype", [
    *[(config, size, batch, dtype) for dtype in (np.float32, np.float64)
      for config, size, batch in [(DESK, 56, 32), (DESK, 56, 64),
                                  (DESK, 56, 19), (TINY, 20, 7)]],
    (FULL, 224, 32, np.float32), (FULL, 224, 16, np.float32),
], ids=[f"{name}-{dtype}" for dtype in ("float32", "float64")
        for name in ("desk32", "desk64", "desk19", "tiny7")]
    + ["full32-float32", "full16-float32"])
def test_conv_training_backward_is_bit_equal(config, size, batch, dtype):
    # every 4,3,4 conv as the network builds it, its columns kept or
    # recomputed, at the full-scale training batch and the benchmark's final
    # batch too: the forward and all three gradients keep the bytes of the
    # whole-batch GEMMs (conv1 computes no input gradient)
    rng = np.random.default_rng(batch)
    recomputed = 0
    for conv, x in _conv_inputs(config, size, batch, dtype):
        part = batch_part(batch)
        with part:
            out = conv.forward(x)
            recomputed += not _holds_columns(part, conv)
            dout = rng.standard_normal(out.shape, dtype=dtype)
            dx = conv.backward(dout)
        got = [out, conv.grad_weights, conv.grad_bias, dx]
        want = [conv_whole_batch(x, conv.weights, conv.bias, conv.stride,
                                 conv.padding),
                *conv_backward_whole_batch(x, conv.weights, dout, conv.stride,
                                           conv.padding)]
        if not conv.input_grad:
            assert dx is None
            del got[-1], want[-1]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
    # full scale: every branch's conv2 at 32; at 16, the 5x5 ones
    assert recomputed == ({32: 3, 16: 2}[batch] if config is FULL else 0)


def test_conv_caches_columns_below_the_recompute_rule():
    # only a float32 conv with an input gradient and over RECOMPUTE_COL_BYTES
    # of columns rebuilds them in backward. Splitting a small GEMM by kernel
    # row can change its float32 bits, so the rule guards bit-equality too.
    for batch in (32, 64):
        for conv, x in _conv_inputs(DESK, 56, batch, np.float32):
            assert _holds_columns(_trained_part(conv, x), conv)
    held = [_holds_columns(_trained_part(conv, x), conv)
            for conv, x in _conv_inputs(FULL, 224, 32, np.float32)]
    # branches of 4, 3 and 4 convs: all but each conv2 keep their columns
    assert held == [True, False, True, True,
                    True, False, True,
                    True, False, True, True]
    conv, x = _full_conv2(8, np.float64)
    assert _col_bytes(conv, x) > RECOMPUTE_COL_BYTES
    assert _holds_columns(_trained_part(conv, x), conv)


def test_conv_recomputed_columns_hold_no_memory():
    # a full-scale conv2 at batch 8, 37.3 MB of columns: the training forward
    # keeps its output and the zero-padded input, and frees the caller's
    # input; backward's transient peak, kernel-row columns included, stays
    # below 9/25 of the columns
    conv, x = _full_conv2(8, np.float32)
    dout = np.random.default_rng(2).standard_normal((8, 96, 27, 27),
                                                    dtype=np.float32)
    col_bytes = _col_bytes(conv, x)
    assert col_bytes > RECOMPUTE_COL_BYTES
    padded = x.size // 27 ** 2 * 31 ** 2 * x.itemsize  # 27x27 padded by 2
    part = batch_part(8)
    tracemalloc.start()
    try:
        with part:
            start = tracemalloc.get_traced_memory()[0]
            fresh = x.copy()  # traced, and freed unless the layer keeps it
            ref = weakref.ref(fresh)
            out = conv.forward(fresh)
            del fresh
            held = tracemalloc.get_traced_memory()[0] - start
            assert ref() is None
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            conv.backward(dout)
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert held < out.nbytes + padded + (1 << 16), (held, out.nbytes)
    assert peak < col_bytes * 9 // 25, (peak, col_bytes)


@pytest.mark.bit_equal
def test_narrower_conv1_weight_gradient_copies_no_stem_rows():
    # a full-scale 5x5 conv1 reads the 7x7 stem of its group (b3 beside b1
    # of 4,3,4, both 56x56) as the one part of its split: its weight
    # gradient takes the stem's rows one kernel row at a time, so backward's
    # peak stays below dmat plus half of the 7.2 MB of rows a copy would
    # take, and the gradients keep the whole-batch GEMMs' bytes
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 3, 224, 224), dtype=np.float32)
    wide = Conv2d(np.zeros((64, 3, 7, 7), np.float32),
                  np.zeros(64, np.float32), stride=4, padding=2)
    conv = Conv2d(rng.normal(0, 0.01, (64, 3, 5, 5)).astype(np.float32),
                  rng.normal(0, 1, 64).astype(np.float32), stride=4,
                  padding=2, input_grad=False)
    stem = np.empty((3 * 7 * 7, 8 * 56 * 56), np.float32)
    wide.im2col(x, stem)
    stem.flags.writeable = False
    part = batch_part(8)
    part.split.share(conv, stem, 7)
    with part:
        out = conv.forward(x)
    assert out.tobytes() == conv_whole_batch(x, conv.weights, conv.bias, 4,
                                             2).tobytes()
    dout = rng.standard_normal(out.shape, dtype=np.float32)
    tracemalloc.start()
    try:
        with part:
            assert conv.backward(dout) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dout.nbytes + _col_bytes(conv, x) // 2, peak
    gw, gb, _ = conv_backward_whole_batch(x, conv.weights, dout, 4, 2)
    assert conv.grad_weights.tobytes() == gw.tobytes()
    assert conv.grad_bias.tobytes() == gb.tobytes()


@pytest.mark.bit_equal
def test_conv_slices_over_the_recompute_rule_hold_no_columns():
    # a full-scale conv2 at batch 8 has 37.3 MB of columns, over
    # RECOMPUTE_COL_BYTES, and each 4-sample slice 18.7 MB, under it: the
    # slices decide as their whole batch does, so their forwards keep only
    # their outputs and the padded whole-batch input, and the gradients are
    # the whole-batch GEMMs' bytes
    conv, x = _full_conv2(8, np.float32)
    col_bytes = _col_bytes(conv, x)
    assert col_bytes / 2 < RECOMPUTE_COL_BYTES < col_bytes
    parts = Split(8).parts(2)
    outs = []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for part in parts:
            with part:
                outs.append(conv.forward(x[part.n0:part.n1]))
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    padded = x.size // 27 ** 2 * 31 ** 2 * x.itemsize  # 27x27 padded by 2
    assert held < sum(o.nbytes for o in outs) + padded + (1 << 16), held
    dout = np.random.default_rng(2).standard_normal((8, 96, 27, 27),
                                                    dtype=np.float32)
    dx = []
    for part in parts:
        with part:
            dx.append(conv.backward(dout[part.n0:part.n1]))
    split = parts[0].split
    for t in range(2):
        split.weight_grads(t, 2)
    got = [np.concatenate(outs), conv.grad_weights, conv.grad_bias,
           np.concatenate(dx)]
    want = [conv_whole_batch(x, conv.weights, conv.bias, 1, 2),
            *conv_backward_whole_batch(x, conv.weights, dout, 1, 2)]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _on_threads(fn, parts):
    """fn(part) for each part, each on a thread of its own, all started at
    once; fails unless every thread ends within a minute without error."""
    errors = []

    def run(part):
        try:
            fn(part)
        except Exception as err:  # reported below, on the test's thread
            errors.append(err)

    threads = [threading.Thread(target=run, args=(part,)) for part in parts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


@pytest.mark.bit_equal
@pytest.mark.parametrize("shape,kernel,pad,recompute", [
    ((64, 27, 27), 5, 2, True), ((96, 13, 13), 3, 1, False)],
    ids=["conv2", "conv3"])
def test_conv_slices_on_concurrent_threads_fill_whole_batch_arrays(
        shape, kernel, pad, recompute):
    # a full-scale conv2 (columns rebuilt) and conv3 (columns kept) at batch
    # 12, as 4 slices of 3 samples on 4 threads at once, switching threads
    # often: every slice finds the one set of whole-batch arrays, so the
    # outputs and gradients are the whole-batch GEMMs' bytes
    rng = np.random.default_rng(7)
    co = 96
    conv = Conv2d(rng.normal(0, 0.01, (co, shape[0], kernel, kernel))
                  .astype(np.float32), rng.normal(0, 1, co).astype(np.float32),
                  stride=1, padding=pad)
    x = rng.standard_normal((12, *shape), dtype=np.float32)
    assert (_col_bytes(conv, x) > RECOMPUTE_COL_BYTES) == recompute
    parts = Split(12).parts(4)
    outs, dx = {}, {}
    dout = rng.standard_normal((12, co, *shape[1:]), dtype=np.float32)

    def forward(part):
        with part:
            outs[part.n0] = conv.forward(x[part.n0:part.n1])

    def backward(part):
        with part:
            dx[part.n0] = conv.backward(dout[part.n0:part.n1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _on_threads(forward, parts)
        _on_threads(backward, parts)
        _on_threads(lambda part: part.split.weight_grads(parts.index(part), 4),
                    parts)
    finally:
        sys.setswitchinterval(interval)
    assert len(parts[0].split.convs) == 1
    got = [np.concatenate([outs[n0] for n0 in sorted(outs)]), conv.grad_weights,
           conv.grad_bias, np.concatenate([dx[n0] for n0 in sorted(dx)])]
    want = [conv_whole_batch(x, conv.weights, conv.bias, 1, pad),
            *conv_backward_whole_batch(x, conv.weights, dout, 1, pad)]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_conv_shape_errors():
    conv = Conv2d(np.zeros((1, 2, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 3, 5, 5)))  # channel mismatch
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 2, 2, 2)))  # output extent < 1
    with pytest.raises(ShapeError):
        Conv2d(np.zeros((1, 1, 2, 3)), np.zeros(1))  # non-square kernel


# --- maxpool ---

def test_pool_constant_field():
    out = MaxPool(2, 2).forward(np.full((1, 4, 4), 3.3)[None])[0]
    npt.assert_array_equal(out, np.full((1, 2, 2), 3.3))


def test_pool_hand_example_and_routing():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    pool = MaxPool(2, 2)
    with batch_part(1):
        out = pool.forward(x[None])[0]
        dx = pool.backward(np.array([[[5.0]]])[None])[0]
    npt.assert_array_equal(out, np.array([[[4.0]]]))
    npt.assert_array_equal(dx, np.array([[[0.0, 0.0], [0.0, 5.0]]]))


def test_pool_positive_homogeneity():
    x = np.random.default_rng(5).random((2, 5, 5)) + 0.1
    pool = MaxPool(3, 2)
    npt.assert_allclose(pool.forward(2 * x[None]), 2 * pool.forward(x[None]), atol=0)


def test_pool_matches_window_maxima():
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.normal(0, 1, (2, 6, 6))
        window, stride = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        out = MaxPool(window, stride).forward(x[None])[0]
        npt.assert_array_equal(out, pool_naive(x, window, stride))
        assert out.max() <= x.max()


def test_pool_tie_routes_to_first_in_scan_order():
    x = np.array([[[7.0, 7.0], [7.0, 7.0]]])
    pool = MaxPool(2, 2)
    with batch_part(1):
        pool.forward(x[None])
        dx = pool.backward(np.array([[[1.0]]])[None])[0]
    npt.assert_array_equal(dx, np.array([[[1.0, 0.0], [0.0, 0.0]]]))


def test_pool_nan_window_outputs_nan_and_routes_to_first_nan():
    x = np.array([[[1.0, np.nan, 2.0], [np.nan, 5.0, 0.0]]])
    pool = MaxPool(2, 1)
    with batch_part(1):
        out = pool.forward(x[None])[0]
        dx = pool.backward(np.array([[[3.0, 4.0]]])[None])[0]
    npt.assert_array_equal(out, np.array([[[np.nan, np.nan]]]))
    npt.assert_array_equal(dx, np.array([[[0.0, 7.0, 0.0], [0.0, 0.0, 0.0]]]))


def _tied_batch(draw):
    """A batch drawn continuous, quantized to 2-3 levels with zeros of both
    signs, or through a ReLU, optionally with NaNs sprinkled in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             draw(st.integers(k, k + 7)), draw(st.integers(k, k + 7)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(st.sampled_from(["normal", "quantized", "relu"]))
    x = rng.normal(0, 1, shape)
    if kind == "quantized":
        x = rng.integers(-1, draw(st.integers(1, 2)), shape) * 0.5
        x = np.where(x == 0, np.copysign(0.0, rng.normal(0, 1, shape)), x)
    elif kind == "relu":
        x = np.maximum(x, 0.0)
    if draw(st.booleans()):
        x[rng.random(shape) < 0.05] = np.nan
    return x.astype(dtype), k, draw(st.integers(1, 4)), rng


@pytest.mark.bit_equal
@pytest.mark.parametrize("budget", [COL_BUDGET, 1], ids=["default", "1-sample"])
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_pool_matches_argmax_reference_bit_for_bit(budget, data):
    # backward sums one block of samples at a time: with the default budget
    # the whole batch, with a 1-byte budget each sample alone
    x, window, stride, rng = _tied_batch(data.draw)
    pool = MaxPool(window, stride)
    part = batch_part(len(x))
    with part:
        out = pool.forward(x)
    dout = rng.normal(0, 1, out.shape).astype(x.dtype)
    ref_out, ref_dx = pool_argmax(x, window, stride, dout)
    assert out.dtype == x.dtype and out.shape == ref_out.shape
    # NaN payloads aside, every bit agrees: the sign of each tied zero too
    nan = np.isnan(ref_out)
    npt.assert_array_equal(np.isnan(out), nan)
    assert out[~nan].tobytes() == ref_out[~nan].tobytes()
    with part, pytest.MonkeyPatch.context() as mp:
        mp.setattr(L, "COL_BUDGET", budget)
        dx = pool.backward(dout)
    assert dx.dtype == dout.dtype
    assert dx.tobytes() == ref_dx.tobytes()


def test_pool_backward_sums_a_block_of_samples_at_a_time():
    # pool1 of a full-scale batch of 32: a whole-batch float64 sum would
    # take 51 MB beside the 26 MB float32 gradient; 2-sample blocks keep
    # backward's peak below 40 MiB (about 29 MiB)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((32, 64, 56, 56), dtype=np.float32)
    pool = MaxPool(3, 2)
    part = batch_part(32)
    with part:
        out = pool.forward(x)
    dout = rng.standard_normal(out.shape, dtype=np.float32)
    del x, out
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with part:
            dx = pool.backward(dout)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert dx.shape == (32, 64, 56, 56) and dx.dtype == np.float32
    assert peak < 40 << 20, peak / 2**20


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_relu_gradient_is_dout_where_input_positive(data):
    x, _, _, rng = _tied_batch(data.draw)
    relu = Relu()
    dout = rng.normal(0, 1, x.shape).astype(x.dtype)
    with batch_part(len(x)):
        relu.forward(x)
        assert relu.backward(dout).tobytes() == (dout * (x > 0)).tobytes()


def _traced_forward(layer, x, part):
    """layer.forward(x) within part (None: inference), and its tracemalloc
    peak above the memory traced at the call."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with part or nullcontext():
            out = layer.forward(x)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["pool", "relu"])
def test_inference_forward_finds_no_winners_or_mask(kind, dtype):
    # outside any part a forward allocates its output and, for the pool, its
    # column pass (N,C,H,ow), nothing more: a training forward also finds
    # the pool's winners or the ReLU's mask, which the bound leaves no room
    # for. The output bytes are the training forward's, ties and NaNs too.
    rng = np.random.default_rng(3)
    x = np.maximum(rng.integers(-2, 3, (8, 16, 55, 55)) * 0.5, -0.0)
    x[rng.random(x.shape) < 0.01] = np.nan
    x = x.astype(dtype)
    layer = MaxPool(3, 2) if kind == "pool" else Relu()
    out, peak = _traced_forward(layer, x, None)
    work = out.nbytes + (x[..., :2 * out.shape[3]:2].nbytes if kind == "pool"
                         else 0)
    slack = 1 << 17  # numpy's ufunc buffers for strided operands
    assert peak <= work + slack, (peak, work)
    part = batch_part(len(x))
    train_out, train_peak = _traced_forward(layer, x, part)
    assert train_peak > work + slack, (train_peak, work)
    assert list(part.caches) == [layer]
    assert out.tobytes() == train_out.tobytes()


def test_pool_window_too_large():
    with pytest.raises(ShapeError):
        MaxPool(3, 1).forward(np.zeros((1, 2, 5))[None])


# --- lrn ---

def test_lrn_zero_input():
    out = Lrn(2).forward(np.zeros((4, 3, 3))[None])[0]
    npt.assert_array_equal(out, np.zeros((4, 3, 3)))


def test_lrn_single_value_formula():
    out = Lrn(radius=0, k=1.0, alpha=1.0, beta=1.0).forward(np.ones((1, 1, 1))[None])[0]
    assert out[0, 0, 0] == pytest.approx(0.5, abs=1e-15)


def test_lrn_alpha_zero_scales_by_k_pow():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, (3, 4, 4))
    out = Lrn(radius=1, k=2.0, alpha=0.0, beta=0.75).forward(x[None])[0]
    npt.assert_allclose(out, x * 2.0 ** -0.75, atol=1e-12)


def test_lrn_matches_direct_formula():
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.normal(0, 1, (5, 3, 3))
        radius = int(rng.integers(0, 3))
        k, alpha, beta = 1.5, 0.3, 0.9
        out = Lrn(radius, k, alpha, beta).forward(x[None])[0]
        npt.assert_allclose(out, lrn_naive(x, radius, k, alpha, beta), atol=1e-12)


def _lrn_shapes():
    """The (C,H,W) at every LRN of 4,3,4 at desk and at full scale."""
    shapes = set()
    for size, config in ((56, DESK), (224, ArchConfig())):
        spec = build_pdcnn([4, 3, 4], input_shape=(3, size, size), config=config)
        shapes |= {row.shape for row in shape_check(spec)
                   if row.layer.endswith(("norm1", "norm2", "norm3"))}
    return sorted(shapes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lrn_bytes_equal_cumsum_reference(dtype):
    # the channel-loop running sum adds what np.cumsum adds, in its order,
    # so the window sums, the outputs and the input gradients keep their
    # bytes, signed zeros included; radius 0 and radii >= C at the edges
    shapes = _lrn_shapes()
    assert len(shapes) >= 6
    rng = np.random.default_rng(12)
    cases = [(shape, 2) for shape in shapes]
    cases += [((5, 3, 4), 0), ((5, 3, 4), 5), ((5, 3, 4), 9), ((1, 2, 2), 1)]
    for (c, h, w), radius in cases:
        x = (rng.standard_normal((2, c, h, w)) * 40).astype(dtype)
        dout = rng.standard_normal(x.shape).astype(dtype)
        x.flat[::13] = -0.0
        dout.flat[::17] = -0.0
        for v in (x * x, dout * x):
            assert (_channel_window_sum(v, radius).tobytes()
                    == channel_window_sum_cumsum(v, radius).tobytes())
        layer = Lrn(radius)
        want_out, want_dx = lrn_cumsum(x, dout, radius, layer.k, layer.alpha,
                                       layer.beta)
        with batch_part(len(x)):
            out = layer.forward(x)
            dx = layer.backward(dout)
        assert out.dtype == dtype and out.tobytes() == want_out.tobytes()
        assert dx.dtype == dtype and dx.tobytes() == want_dx.tobytes()


def test_lrn_rejects_bad_constants():
    with pytest.raises(ValueError):
        Lrn(radius=1, k=0.0)
    with pytest.raises(ValueError):
        Lrn(radius=1, beta=-1.0)


# --- relu ---

def test_relu_all_negative():
    npt.assert_array_equal(Relu().forward(-np.ones((2, 2))), np.zeros((2, 2)))


def test_relu_sign_cases():
    npt.assert_array_equal(Relu().forward(np.array([-1.0, 0.0, 2.0])),
                           np.array([0.0, 0.0, 2.0]))


def test_relu_gate_gradient():
    relu = Relu()
    with batch_part(2):
        relu.forward(np.array([-1.0, 2.0]))
        npt.assert_array_equal(relu.backward(np.array([5.0, 5.0])),
                               np.array([0.0, 5.0]))


def test_relu_zero_subgradient_is_zero():
    relu = Relu()
    with batch_part(1):
        relu.forward(np.array([0.0]))
        npt.assert_array_equal(relu.backward(np.array([3.0])), np.array([0.0]))


# --- fully connected ---

def test_fc_identity():
    fc = FullyConnected(np.eye(3), np.zeros(3))
    x = np.array([1.0, -2.0, 0.5])
    npt.assert_array_equal(fc.forward(x[None])[0], x)


def test_fc_hand_example():
    fc = FullyConnected(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]))
    npt.assert_array_equal(fc.forward(np.array([1.0, 1.0])[None])[0],
                           np.array([4.0, 8.0]))


def test_fc_bias_passthrough():
    fc = FullyConnected(np.ones((2, 3)), np.array([0.5, -0.5]))
    npt.assert_array_equal(fc.forward(np.zeros(3)[None])[0], np.array([0.5, -0.5]))


def test_fc_dimension_mismatch():
    with pytest.raises(ShapeError):
        FullyConnected(np.ones((2, 3)), np.zeros(2)).forward(np.zeros(4)[None])


# --- softmax cross-entropy ---

def test_xent_uniform_logits():
    loss, _ = softmax_xent(np.zeros(2), 0)
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_xent_large_logits_stable():
    loss, grad = softmax_xent(np.array([1000.0, 0.0]), 0)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grad))


def test_xent_grad_example():
    _, grad = softmax_xent(np.array([0.0, 0.0]), 1)
    npt.assert_allclose(grad, np.array([0.5, -0.5]), atol=1e-15)


def test_xent_loss_nonneg_grad_sums_zero():
    rng = np.random.default_rng(9)
    for _ in range(20):
        logits = rng.normal(0, 3, 2)
        label = int(rng.integers(0, 2))
        loss, grad = softmax_xent(logits, label)
        assert loss >= 0.0
        assert abs(grad.sum()) < 1e-12


def test_xent_label_out_of_range():
    with pytest.raises(ValueError):
        softmax_xent(np.zeros(2), 2)
    with pytest.raises(ValueError):
        softmax_xent(np.zeros(2), -1)


def test_xent_batch_matches_single():
    rng = np.random.default_rng(10)
    logits = rng.normal(0, 2, (5, 2))
    labels = rng.integers(0, 2, 5)
    losses, grads = softmax_xent_batch(logits, labels)
    for i in range(5):
        loss_i, grad_i = softmax_xent(logits[i], int(labels[i]))
        assert losses[i] == pytest.approx(loss_i, abs=1e-15)
        npt.assert_allclose(grads[i], grad_i, atol=1e-15)
