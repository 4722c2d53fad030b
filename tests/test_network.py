import hashlib
import struct
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from pdcnn import layers as L
from pdcnn import network as N
from pdcnn import tensor as T
from pdcnn.arch import ArchConfig, build_pdcnn, param_count, shape_check
from pdcnn.data import gen_synthetic
from pdcnn.layers import ShapeError, softmax_xent_batch
from pdcnn.network import INPUT_OFFSET, INPUT_SCALE, PdcnnNet, load_model, save_model
from pdcnn.optim import SgdConfig, evaluate, init_state, sgd_step
from oracles import (conv_backward_whole_batch, conv_whole_batch, fd_grad,
                     max_rel_err)

# tiny geometry that every depth survives: 20x20 input, pool window 2
TINY = ArchConfig(conv1_stride=2, pool_window=2, pool_stride=2,
                  filter_scale=0.04, init_sigma=0.5)
DESK = ArchConfig(conv1_stride=2, filter_scale=0.25, init_sigma=0.06)


def tiny_net(depths, seed=3, dtype=np.float64):
    spec = build_pdcnn(depths, input_shape=(3, 20, 20), config=TINY)
    return PdcnnNet(spec, T.Rng(seed), dtype=dtype)


def test_init_deterministic():
    a = tiny_net([4], seed=11)
    b = tiny_net([4], seed=11)
    for (na, wa), (nb, wb) in zip(a.parameters(), b.parameters()):
        assert na == nb
        assert wa.tobytes() == wb.tobytes()


def test_init_biases_zero_weights_gaussian():
    net = tiny_net([4, 3])
    for name, w in net.parameters():
        if name.endswith("/bias"):
            npt.assert_array_equal(w, np.zeros_like(w))
        else:
            assert np.abs(w).max() > 0


def test_forward_batch_matches_single():
    net = tiny_net([4, 3])
    rng = np.random.default_rng(0)
    xs = rng.random((4, 3, 20, 20))
    batched = net.forward(xs)
    for i in range(4):
        npt.assert_allclose(net.forward(xs[i][None])[0], batched[i], atol=1e-12)


def test_input_convention_centered_pixel_scale():
    net = tiny_net([3])
    x = np.full((3, 20, 20), INPUT_OFFSET)  # midpoint maps to exactly zero
    conv1 = net.branches[0][0]
    conv1.bias[...] = 0.0
    net.forward(x[None])
    first = net.branches[0][0]
    # conv of an all-zero field with zero bias is zero
    assert float(np.abs(first.forward((x[None] - INPUT_OFFSET) * INPUT_SCALE)).max()) == 0.0


@pytest.mark.parametrize("inference", [False, True])
@pytest.mark.parametrize("net_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("in_dtype", [np.float32, np.float64])
def test_forward_leaves_input_batch_unchanged(monkeypatch, in_dtype, net_dtype,
                                              inference):
    # the batch is normalized in place in the network's own copy, which holds
    # the bits (x - INPUT_OFFSET) * INPUT_SCALE gives in the network's dtype
    net = tiny_net([4, 3], dtype=net_dtype)
    net.inference = inference
    conv1 = net.branches[0][0]
    seen = []
    monkeypatch.setattr(conv1, "forward",
                        lambda h, forward=conv1.forward:
                        forward(seen.append(h.copy()) or h))
    x = np.random.default_rng(5).random((3, 3, 20, 20)).astype(in_dtype)
    before = x.copy()
    net.forward(x)
    assert x.tobytes() == before.tobytes()
    normalized = (before.astype(net_dtype) - INPUT_OFFSET) * INPUT_SCALE
    assert seen[0].dtype == net_dtype
    assert seen[0].tobytes() == normalized.tobytes()


@pytest.mark.bit_equal
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_inference_logits_bit_equal_to_training_forward(dtype):
    # the desk 4,3,4 geometry at eval batch 64, where float32 inference runs
    # conv1 and conv2 in blocks of samples; no layer keeps a cache
    spec = build_pdcnn([4, 3, 4], input_shape=(3, 56, 56), config=DESK)
    net = PdcnnNet(spec, T.Rng(4), dtype=dtype)
    x = np.random.default_rng(6).random((64, 3, 56, 56))
    net.inference = True
    blocked = net.forward(x)
    assert net._plan is None
    net.inference = False
    assert blocked.tobytes() == net.forward(x).tobytes()


@pytest.mark.bit_equal
@pytest.mark.parametrize("size,config,batch,dtype,sizes", [
    (56, DESK, 160, np.float32, [80, 80]),
    (224, ArchConfig(), 8, np.float32, [4, 4]),
    (56, DESK, 160, np.float64, [160]),
], ids=["desk", "full", "desk-float64"])
def test_chunked_inference_bit_equal_to_training_forward(monkeypatch, size, config,
                                                         batch, dtype, sizes):
    # float32 inference runs each 4,3,4 branch over 2 sample chunks, the
    # fewest samples that give the smallest conv 256 KiB of columns being 76
    # at desk and 3 at full scale; float64 runs whole-batch
    spec = build_pdcnn([4, 3, 4], input_shape=(3, size, size), config=config)
    net = PdcnnNet(spec, T.Rng(4), dtype=dtype)
    x = np.random.default_rng(6).random((batch, 3, size, size))
    seen = []
    real = N._branch_forward

    def branch_forward(layers, h):
        seen.append(len(h))
        return real(layers, h)

    monkeypatch.setattr(N, "_branch_forward", branch_forward)
    net.inference = True
    chunked = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(N, "usable_cores", lambda: cores)
        seen.clear()
        chunked.append(net.forward(x).tobytes())
        assert sorted(seen) == sorted(sizes * 3)
    assert net._plan is None
    net.inference = False
    whole = net.forward(x).tobytes()
    assert seen[-3:] == [batch] * 3
    assert chunked == [whole] * 3


def _fill_workspace():
    """Leave this thread a workspace larger than any 4,3,4 net's, full of
    another conv's columns and output (outside the network a conv's workspace
    stays); its size in bytes."""
    rng = np.random.default_rng(9)
    conv = L.Conv2d(rng.standard_normal((256, 64, 5, 5), dtype=np.float32),
                    np.ones(256, np.float32), padding=2)
    conv.forward(rng.standard_normal((1, 64, 56, 56), dtype=np.float32))
    return L._THREAD.workspace.size


@pytest.mark.bit_equal
@pytest.mark.parametrize("size,config,batch", [
    (56, DESK, 64), (224, ArchConfig(), 6)], ids=["desk", "full"])
def test_reused_workspace_leaks_nothing_into_logits(monkeypatch, size, config,
                                                    batch):
    # one thread runs every item of a float32 4,3,4 inference forward (at
    # full scale 2 chunks of 3 samples per branch) in a workspace that a
    # larger conv filled first and that each conv leaves to the next; the
    # logits are the bytes of the same forward given fresh buffers per conv
    monkeypatch.setattr(N, "usable_cores", lambda: 1)
    spec = build_pdcnn([4, 3, 4], input_shape=(3, size, size), config=config)
    net = PdcnnNet(spec, T.Rng(4), dtype=np.float32)
    net.inference = True
    x = np.random.default_rng(6).random((batch, 3, size, size))
    asked = []

    def fresh(nbytes):
        asked.append(nbytes)
        return np.empty(nbytes, np.uint8)

    with monkeypatch.context() as patch:
        patch.setattr(L, "_workspace", fresh)
        want = net.forward(x).tobytes()
    assert _fill_workspace() > max(asked)
    assert net.forward(x).tobytes() == want
    assert not hasattr(L._THREAD, "workspace")


def _sgd_run(monkeypatch, tmp_path, cores, dtype, size, config, batch, steps):
    """Parameters, gradients and model-file bytes after a few SGD steps of a
    4,3,4 net on `cores` threads, and the sorted batch sizes its branches ran
    in the last step."""
    monkeypatch.setattr(N, "usable_cores", lambda: cores)
    seen = []
    real = N._branch_forward

    def branch_forward(layers, h):
        seen.append(len(h))
        return real(layers, h)

    monkeypatch.setattr(N, "_branch_forward", branch_forward)
    spec = build_pdcnn([4, 3, 4], input_shape=(3, size, size), config=config)
    net = PdcnnNet(spec, T.Rng(4), dtype=dtype)
    cfg = SgdConfig()
    state = init_state(net, 0, cfg)
    rng = np.random.default_rng(8)
    for _ in range(steps):
        seen.clear()
        x = rng.random((batch, 3, size, size))
        _, dlogits = softmax_xent_batch(net.forward(x), rng.integers(0, 2, batch))
        net.backward(dlogits / batch)
        sgd_step(state, net.gradients(), cfg)
    path = tmp_path / f"cores{cores}.bin"
    save_model(net, path)
    return ([w.tobytes() for _, w in net.parameters()],
            [g.tobytes() for _, g in net.gradients()], path.read_bytes(),
            sorted(seen))


@pytest.mark.bit_equal
@pytest.mark.parametrize("size,config,batch,dtype,steps,runs", [
    (56, DESK, 16, np.float32, 3, {2: [16] * 4, 3: [16] * 3}),
    (56, DESK, 16, np.float64, 3, {2: [16] * 4, 3: [16] * 3}),
    (224, ArchConfig(), 8, np.float32, 2,
     {2: [4, 4, 8, 8], 3: [8] * 3, 4: [4] * 6}),
    (224, ArchConfig(), 7, np.float32, 2,
     {2: [3, 4, 7, 7], 3: [7] * 3, 4: [3, 4] * 3}),
], ids=["float32", "float64", "full-8", "full-7"])
def test_parallel_branches_train_bit_equal_to_sequential(
        monkeypatch, tmp_path, size, config, batch, dtype, steps, runs):
    # branches spread over 2, 3 or 4 threads give the bytes of one thread.
    # At full scale in float32, 2 threads run b1 and b2 whole, then b3 as one
    # slice of at least 3 samples per thread, and 4 threads every branch as
    # 2 slices; a desk slice would need 76 samples, so desk and float64 runs
    # keep whole branches in contiguous runs, and on 2 threads b3 runs as two
    # pieces cut before its conv2, [b1, b3 conv2...] | [b3 stage 1, b2]
    sequential = _sgd_run(monkeypatch, tmp_path, 1, dtype, size, config,
                          batch, steps)
    assert sequential[3] == [batch] * 3
    for cores, sizes in runs.items():
        got = _sgd_run(monkeypatch, tmp_path, cores, dtype, size, config,
                       batch, steps)
        assert got[:3] == sequential[:3]
        assert got[3] == sorted(sizes)


def _record_calls(net, calls):
    """Append (method, branch, layer index, thread) to calls at every branch
    layer's forward and backward."""
    for b, layers in enumerate(net.branches):
        for i, layer in enumerate(layers):
            for method in ("forward", "backward"):
                def call(h, real=getattr(layer, method), key=(method, b, i)):
                    calls.append((*key, threading.get_ident()))
                    return real(h)

                setattr(layer, method, call)


def _desk_sgd(tmp_path, dtype, batch, steps, seed=4, calls=None):
    """Parameter, gradient and model-file bytes after `steps` SGD steps of a
    desk 4,3,4 net; calls, if given, records the last step's layer calls."""
    spec = build_pdcnn([4, 3, 4], input_shape=(3, 56, 56), config=DESK)
    net = PdcnnNet(spec, T.Rng(seed), dtype=dtype)
    if calls is not None:
        _record_calls(net, calls)
    cfg = SgdConfig()
    state = init_state(net, 0, cfg)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        if calls is not None:
            calls.clear()
        x = rng.random((batch, 3, 56, 56))
        _, dlogits = softmax_xent_batch(net.forward(x), rng.integers(0, 2, batch))
        net.backward(dlogits / batch)
        sgd_step(state, net.gradients(), cfg)
    path = tmp_path / f"desk-{seed}-{threading.get_ident()}.bin"
    save_model(net, path)
    return ([w.tobytes() for _, w in net.parameters()],
            [g.tobytes() for _, g in net.gradients()], path.read_bytes())


@pytest.mark.bit_equal
@pytest.mark.parametrize("dtype,batch", [(np.float32, 32), (np.float64, 19)],
                         ids=["float32", "float64"])
def test_cut_branch_bit_equal_to_sequential(monkeypatch, tmp_path, dtype, batch):
    # desk 4,3,4 on 2 cores, which may not slice (a slice needs 76 samples,
    # and float64 never slices), cuts b3 before its conv2: in forward the
    # pool runs b3's first stage, conv1 to norm1, before b2, and the caller
    # b3's conv2 onward after b1; backward is the mirror image. Every byte
    # is one thread's
    monkeypatch.setattr(N, "usable_cores", lambda: 1)
    sequential = _desk_sgd(tmp_path, dtype, batch, 3)
    monkeypatch.setattr(N, "usable_cores", lambda: 2)
    calls = []
    assert _desk_sgd(tmp_path, dtype, batch, 3, calls=calls) == sequential
    caller = threading.get_ident()
    for method, ahead, behind in [("forward", range(4), range(4, 14)),
                                  ("backward", range(4, 14), range(4))]:
        order = [(b, i, thread) for m, b, i, thread in calls if m == method]
        at = {(b, i): k for k, (b, i, _) in enumerate(order)}
        threads = {(b, i): thread for b, i, thread in order}
        assert len(at) == len(order) == 14 + 12 + 14
        assert all(threads[2, i] != caller for i in ahead)
        assert all(threads[2, i] == caller for i in behind)
        assert all(threads[1, i] == threads[2, ahead[0]] for i in range(12))
        assert all(threads[0, i] == caller for i in range(14))
        assert max(at[2, i] for i in ahead) < min(at[1, i] for i in range(12))
        assert min(at[2, i] for i in behind) > max(at[0, i] for i in range(14))
    # a full-scale float32 batch of 8 still runs b3 as two slices, uncut
    spec = build_pdcnn([4, 3, 4], input_shape=(3, 224, 224), config=ArchConfig())
    plan = PdcnnNet(spec, T.Rng(4), dtype=np.float32)._schedule(8)
    assert [[(b, part.sole) for b, part in run] for run in plan] == [
        [(0, True), (2, False)], [(1, True), (2, False)]]


def _ends_within(seconds, fn):
    """The exception fn() raised on a thread of its own, None if it
    returned; asserts that it ended within `seconds`."""
    raised = []

    def run():
        try:
            fn()
        except Exception as err:
            raised.append(err)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive()
    return raised[0] if raised else None


@pytest.mark.parametrize("method,b,i,on_pool", [
    ("forward", 2, 3, True), ("backward", 2, 4, True),
    ("forward", 0, 1, False), ("backward", 0, 4, False),
], ids=["b3-norm1-forward", "b3-conv2-backward", "b1-pool1-forward",
        "b1-conv2-backward"])
def test_cut_handoff_error_reaches_caller_unchanged(monkeypatch, method, b, i,
                                                    on_pool):
    # desk 4,3,4 in float32 at batch 8 on 2 cores, b3 cut before its conv2.
    # An error in a piece that runs ahead on the pool (b3's norm1 forward or
    # conv2 backward) is set on the handoff and raised, the same object, by
    # the caller waiting on it; an error in b1, before the caller's piece,
    # leaves nothing waiting: the pool runs all of its work and the caller
    # never runs its piece. Either way the pool answers a probe and the next
    # step's gradients are a fresh net's
    monkeypatch.setattr(N, "usable_cores", lambda: 2)
    spec = build_pdcnn([4, 3, 4], input_shape=(3, 56, 56), config=DESK)
    net = PdcnnNet(spec, T.Rng(4), dtype=np.float32)
    x = np.random.default_rng(1).random((8, 3, 56, 56))
    dlogits = np.ones((8, 2))
    calls = []
    _record_calls(net, calls)
    layer = net.branches[b][i]
    real = getattr(layer, method)
    planted = ShapeError(f"planted in branch{b + 1}")

    def raise_planted(h):
        real(h)
        raise planted

    setattr(layer, method, raise_planted)

    def step():
        net.forward(x)
        net.backward(dlogits)

    assert _ends_within(60, step) is planted
    caller = {thread for m, bb, _, thread in calls if bb == 0}
    assert len(caller) == 1
    threads = {(m, bb, ii): thread for m, bb, ii, thread in calls}
    assert (threads[method, b, i] in caller) != on_pool
    if not on_pool:  # the pool ran to its end, b2; the caller stopped at b1
        assert (method, 1, 11 if method == "forward" else 0) in threads
        assert (method, 2, 4 if method == "forward" else 3) not in threads
    assert N._POOL.submit(threading.get_ident).result(timeout=60) not in caller
    setattr(layer, method, real)
    fresh = PdcnnNet(spec, T.Rng(4), dtype=np.float32)
    for model in (net, fresh):
        model.forward(x)
        model.backward(dlogits)
    for (_, g), (_, want) in zip(net.gradients(), fresh.gradients()):
        assert g.tobytes() == want.tobytes()


@pytest.mark.bit_equal
def test_two_trainings_share_the_pool(monkeypatch, tmp_path):
    # two desk trainings from two threads at once, each cutting b3 on 2
    # cores, share _POOL (a single thread on a 2-core machine); each
    # caller waits only on its own pool piece, which never waits, so both
    # finish with their one-thread bytes, also with threads switched often
    monkeypatch.setattr(N, "usable_cores", lambda: 1)
    want = [_desk_sgd(tmp_path, np.float32, 16, 3, seed) for seed in (4, 5)]
    monkeypatch.setattr(N, "usable_cores", lambda: 2)
    got = {}
    threads = [threading.Thread(target=lambda seed=seed: got.update(
        {seed: _desk_sgd(tmp_path, np.float32, 16, 3, seed)}), daemon=True)
        for seed in (4, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [got.get(seed) for seed in (4, 5)] == want


@pytest.mark.parametrize("method", ["forward", "backward"])
@pytest.mark.parametrize("failing", [[2], [0, 2]], ids=["pool", "both"])
def test_branch_error_reaches_caller_unchanged(monkeypatch, method, failing):
    # two cores: branch 1 runs on the calling thread, branches 2 and 3 on the
    # pool; the first failing branch's exception is the one raised. b3 is cut
    # before its conv2, so pool1's forward and conv2's backward run on the pool
    monkeypatch.setattr(N, "usable_cores", lambda: 2)
    layer = 1 if method == "forward" else 4
    net = tiny_net([4, 3, 3], seed=5)
    x = np.random.default_rng(1).random((2, 3, 20, 20))
    dlogits = np.ones((2, 2))
    errors = {b: ShapeError(f"planted in branch{b + 1}") for b in failing}
    threads = {}

    def fail(b):
        def raise_planted(_):
            threads[b] = threading.get_ident()
            raise errors[b]
        return raise_planted

    for b in failing:
        setattr(net.branches[b][layer], method, fail(b))
    with pytest.raises(ShapeError) as got:
        net.forward(x)
        net.backward(dlogits)
    assert got.value is errors[failing[0]]
    assert threads[2] != threading.get_ident()
    for b in failing:
        delattr(net.branches[b][layer], method)
    net.forward(x)
    net.backward(dlogits)
    fresh = tiny_net([4, 3, 3], seed=5)
    fresh.forward(x)
    fresh.backward(dlogits)
    for (_, g), (_, want) in zip(net.gradients(), fresh.gradients()):
        assert g.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", ["forward", "backward"])
@pytest.mark.parametrize("failing", [["pool"], ["caller", "pool"]],
                         ids=["pool", "both"])
def test_slice_error_reaches_caller_unchanged(monkeypatch, method, failing):
    # full-scale 4,3,4 in float32 at batch 6 on two cores: the calling thread
    # runs b1 and b3's first 3-sample slice, the pool b2 and b3's second. An
    # error planted in b3's conv2 on a slice's thread ends the step once
    # both threads are done, the calling thread's first; no thread is left
    # waiting, and the next step's gradients are a fresh net's
    monkeypatch.setattr(N, "usable_cores", lambda: 2)
    spec = build_pdcnn([4, 3, 4], input_shape=(3, 224, 224), config=ArchConfig())
    net = PdcnnNet(spec, T.Rng(4), dtype=np.float32)
    x = np.random.default_rng(1).random((6, 3, 224, 224))
    dlogits = np.ones((6, 2))
    caller = threading.get_ident()
    errors = {who: ShapeError(f"planted on the {who} thread") for who in failing}
    conv2 = net.branches[2][4]
    real = getattr(conv2, method)
    raised = []

    def planted(h):
        who = "caller" if threading.get_ident() == caller else "pool"
        if who in errors:
            raised.append((who, len(h)))
            raise errors[who]
        return real(h)

    setattr(conv2, method, planted)
    with pytest.raises(ShapeError) as got:
        net.forward(x)
        net.backward(dlogits)
    assert got.value is errors[failing[0]]
    assert sorted(raised) == sorted((who, 3) for who in failing)
    assert N._POOL.submit(threading.get_ident).result(timeout=60) != caller
    delattr(conv2, method)
    fresh = PdcnnNet(spec, T.Rng(4), dtype=np.float32)
    for model in (net, fresh):
        model.forward(x)
        model.backward(dlogits)
    for (_, g), (_, want) in zip(net.gradients(), fresh.gradients()):
        assert g.tobytes() == want.tobytes()


def test_chunk_error_on_pool_thread_reaches_caller_unchanged(monkeypatch, tmp_path):
    # desk 4,3,4 in float32 at eval batch 152: each branch runs as 2 chunks of
    # 76 samples; on two cores the calling thread runs b1's chunks and b2's
    # first, the pool b2's second and b3's, where the error is planted
    monkeypatch.setattr(N, "usable_cores", lambda: 2)
    spec = build_pdcnn([4, 3, 4], input_shape=(3, 56, 56), config=DESK)
    net = PdcnnNet(spec, T.Rng(4), dtype=np.float32)
    test_set = gen_synthetic(76, 56, 0.0, seed=5, out_dir=tmp_path)
    test_set.crop_size = 56
    planted = ShapeError("planted in branch3")
    threads = []

    def raise_planted(_):
        threads.append(threading.get_ident())
        raise planted

    net.branches[2][1].forward = raise_planted
    with pytest.raises(ShapeError) as got:
        evaluate(net, test_set, batch_size=152)
    assert got.value is planted
    assert threading.get_ident() not in threads
    assert net.inference is False
    del net.branches[2][1].forward
    x = np.random.default_rng(1).random((4, 3, 56, 56))
    dlogits = np.ones((4, 2))
    fresh = PdcnnNet(spec, T.Rng(4), dtype=np.float32)
    for model in (net, fresh):
        model.forward(x)
        model.backward(dlogits)
    for (_, g), (_, want) in zip(net.gradients(), fresh.gradients()):
        assert g.tobytes() == want.tobytes()


def _pool_threads_holding_a_workspace():
    """How many of _POOL's threads hold a workspace: one probe on each, all
    held at a barrier until every thread has taken one."""
    k = N._POOL._max_workers
    barrier = threading.Barrier(k)

    def probe():
        barrier.wait(timeout=60)
        return hasattr(L._THREAD, "workspace")

    return sum(future.result(timeout=60)
               for future in [N._POOL.submit(probe) for _ in range(k)])


def test_inference_workspace_is_one_buffer_per_thread_per_run(monkeypatch):
    # desk 4,3,4 in float32 at eval batch 152 on two cores: the calling
    # thread runs b1's 2 chunks and b2's first, the pool b2's second and
    # b3's. Each blocked conv's columns and GEMM output are views of its
    # thread's one workspace, reused by the next conv, and no thread holds
    # a workspace once forward returns, also when a layer raises on both
    monkeypatch.setattr(N, "usable_cores", lambda: 2)
    spec = build_pdcnn([4, 3, 4], input_shape=(3, 56, 56), config=DESK)
    net = PdcnnNet(spec, T.Rng(4), dtype=np.float32)
    net.inference = True
    x = np.random.default_rng(1).random((152, 3, 56, 56))
    caller = threading.get_ident()
    gemms = []  # (thread, columns' base, output's base) of each conv block

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b, out=None):
            gemms.append((threading.get_ident(), b.base, out.base))
            return np.matmul(a, b, out=out)

    monkeypatch.setattr(L, "np", Numpy())
    net.forward(x)
    assert {thread for thread, _, _ in gemms} - {caller}
    for thread in {thread for thread, _, _ in gemms}:
        bases = [(cols, out) for t, cols, out in gemms if t == thread]
        assert all(cols is out and cols.dtype == np.uint8
                   for cols, out in bases)
        # reused: a thread makes a new one only for a block that needs more
        assert len({id(cols) for cols, _ in bases}) < len(bases) / 4
    assert not hasattr(L._THREAD, "workspace")
    assert _pool_threads_holding_a_workspace() == 0
    planted = ShapeError("planted after conv1")
    gemms.clear()

    def raise_planted(_):
        raise planted

    for b in (0, 2):
        net.branches[b][1].forward = raise_planted
    with pytest.raises(ShapeError) as got:
        net.forward(x)
    assert got.value is planted
    assert len({thread for thread, _, _ in gemms}) == 2
    assert not hasattr(L._THREAD, "workspace")
    assert _pool_threads_holding_a_workspace() == 0


def test_training_never_makes_a_workspace(monkeypatch):
    # full-scale 4,3,4 in float32 at batch 8 on two cores: b1 and b2's conv2
    # recompute their columns, running blocks as an inference conv does, and
    # b3 runs as two 4-sample slices; every training conv allocates its own
    # buffers
    monkeypatch.setattr(N, "usable_cores", lambda: 2)
    made = []
    monkeypatch.setattr(L, "_workspace", made.append)
    spec = build_pdcnn([4, 3, 4], input_shape=(3, 224, 224), config=ArchConfig())
    net = PdcnnNet(spec, T.Rng(4), dtype=np.float32)
    net.forward(np.random.default_rng(1).random((8, 3, 224, 224)))
    parts = [part for run in net._plan[0] for _, part in run]
    assert sum(not part.sole for part in parts) == 2
    assert sum(whole.cols is None for part in parts
               for whole in part.split.convs.values()) >= 2
    net.backward(np.ones((8, 2)))
    assert made == []


@pytest.mark.parametrize("dtype,other", [(np.float32, np.float64),
                                         (np.float64, np.float32)])
def test_backward_casts_logit_gradients_to_the_network_dtype(dtype, other):
    # every gradient takes the network's dtype and the bytes of a backward
    # from logit gradients already cast to it, so every layer runs in one dtype
    x = np.random.default_rng(2).random((3, 3, 20, 20))
    dlogits = np.random.default_rng(3).standard_normal((3, 2)).astype(other)
    got, want = tiny_net([4, 3], dtype=dtype), tiny_net([4, 3], dtype=dtype)
    for net, d in ((got, dlogits), (want, dlogits.astype(dtype))):
        net.forward(x)
        net.backward(d)
    for (name, g), (_, w) in zip(got.gradients(), want.gradients()):
        assert g.dtype == dtype, name
        assert g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("shape", [(2, 4, 20, 20), (2, 3, 20, 21), (3, 20, 20)],
                         ids=["channels", "extent", "single-sample"])
def test_forward_rejects_input_of_another_shape(shape):
    net = tiny_net([4, 3])
    with pytest.raises(ShapeError) as err:
        net.forward(np.zeros(shape))
    assert str(err.value) == ("network expects (N, 3, 20, 20) input batches, "
                              f"got shape {shape}")


@pytest.mark.parametrize("size,config", [
    (20, TINY),
    (56, DESK),
    (224, ArchConfig()),
], ids=["tiny", "desk", "full"])
def test_feature_shapes_from_spec_match_branch_outputs(size, config):
    spec = build_pdcnn([4, 3, 4], input_shape=(3, size, size), config=config)
    net = PdcnnNet(spec, T.Rng(1), dtype=np.float32)
    net.inference = True
    x = np.zeros((2, 3, size, size), dtype=np.float32)
    assert ([N._branch_forward(layers, x).shape[1:] for layers in net.branches]
            == net._feat_shapes)


@pytest.mark.parametrize("size,config", [
    (20, TINY),
    (56, DESK),
    (224, ArchConfig()),
], ids=["tiny", "desk", "full"])
@pytest.mark.parametrize("depths", [[3], [4], [5], [3, 4, 5], [3, 3, 3],
                                    [4, 4, 4, 4], [5, 3, 5]])
def test_shape_rows_count_the_network_parameters(size, config, depths):
    # load_model refuses a meta text by this count before building the net
    spec = build_pdcnn(depths, input_shape=(3, size, size), config=config)
    net = PdcnnNet(spec, T.Rng(1), dtype=np.float32)
    sizes = Counter()
    for name, array in net.parameters():
        sizes[name.rsplit("/", 1)[0]] += array.size
    assert {f"{row.branch}/{row.layer}": row.params
            for row in shape_check(spec) if row.params} == sizes
    assert param_count(spec) == sum(sizes.values())


_LAYER_KIND = {L.Conv2d: "conv", L.MaxPool: "pool", L.Relu: "relu",
               L.Lrn: "lrn"}


@pytest.mark.parametrize("depths", [[3], [4], [5], [4, 3, 4], [4, 4, 4, 4]],
                         ids=["3", "4", "5", "4,3,4", "4,4,4,4"])
def test_network_builds_each_branch_in_spec_order(depths):
    # one order per branch: the spec's layers, the network's layers and
    # names, and shape_check's rows; [4, 4, 4, 4] covers variants 0-3
    spec = build_pdcnn(depths, input_shape=(3, 20, 20), config=TINY)
    net = PdcnnNet(spec, T.Rng(1), dtype=np.float32)
    rows = shape_check(spec)
    assert len(net.branches) == len(spec.branches)
    for b, arch in enumerate(spec.branches):
        names = [ls.name for ls in arch.layers]
        assert ([_LAYER_KIND[type(layer)] for layer in net.branches[b]]
                == [ls.kind for ls in arch.layers])
        assert net.branch_layer_names[b] == names
        branch_rows = [row for row in rows if row.branch == f"branch{b + 1}"]
        assert [row.layer for row in branch_rows] == names


def test_backward_consumes_every_layer_cache():
    # backward raises one error before any forward, a second time, and
    # after an inference forward
    net = tiny_net([4, 3])
    x = np.random.default_rng(1).random((2, 3, 20, 20))
    dlogits = np.ones((2, 2))
    with pytest.raises(ValueError, match="needs a new forward"):
        net.backward(dlogits)
    net.forward(x)
    plan, head = net._plan
    net.backward(dlogits)
    parts = [part for run in plan for _, part in run] + [head]
    assert not any(part.caches or part.split.convs for part in parts)
    assert net._plan is None
    with pytest.raises(ValueError, match="needs a new forward"):
        net.backward(dlogits)
    net.forward(x)  # a new forward makes backward valid again
    net.backward(dlogits)
    net.forward(x)
    net.inference = True
    net.forward(x)
    with pytest.raises(ValueError, match="needs a new forward") as err:
        net.backward(dlogits)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("size,config,batch,cores", [
    (56, DESK, 16, 1), (224, ArchConfig(), 8, 2)], ids=["desk", "full-split"])
def test_no_layer_holds_per_step_state(monkeypatch, size, config, batch, cores):
    # a training forward keeps every backward cache in the parts of the
    # network's plan, never in a layer: at desk scale every branch runs
    # whole, at full scale on 2 cores b3 runs as two slices; backward then
    # empties every part and every split
    monkeypatch.setattr(N, "usable_cores", lambda: cores)
    spec = build_pdcnn([4, 3, 4], input_shape=(3, size, size), config=config)
    net = PdcnnNet(spec, T.Rng(4), dtype=np.float32)
    params = {"weights", "bias", "grad_weights", "grad_bias"}
    x = np.random.default_rng(2).random((batch, 3, size, size))
    for _ in range(2):
        logits = net.forward(x)
        for layer in sum(net.branches, [net.head]):
            state = vars(layer)
            assert "_cache" not in state and "inference" not in state
            assert {name for name, value in state.items()
                    if isinstance(value, np.ndarray)} <= params
        plan, head = net._plan
        parts = [part for run in plan for _, part in run] + [head]
        assert any(part.caches for part in parts)
        assert sum(not part.sole for part in parts) == (2 if cores > 1 else 0)
        net.backward(np.ones_like(logits))
        assert not any(part.caches or part.split.convs for part in parts)


def test_training_caches_hold_winners_and_masks_not_activations(monkeypatch):
    # a full-scale 4,3,4 float32 training forward at batch 8 on 2 cores (b3
    # as two slices): each stage runs conv -> pool -> ReLU, so a MaxPool part
    # cache is (input shape, integer rank shaped like the output), the next
    # Relu's a bool mask of that same shape, and every conv output a pool
    # reads is freed by the end of the forward, so what the forward leaves
    # allocated stays below 74 MiB (about 70 MiB; 76 MiB with the ReLU before
    # the pool, 93 MiB when the ReLU kept its output and the pool its input
    # and output)
    monkeypatch.setattr(N, "usable_cores", lambda: 2)
    spec = build_pdcnn([4, 3, 4], input_shape=(3, 224, 224),
                       config=ArchConfig())
    net = PdcnnNet(spec, T.Rng(4), dtype=np.float32)
    outputs = []  # a weak reference to the output of every conv a pool reads

    def hook(conv):
        forward = conv.forward

        def fwd(h):
            out = forward(h)
            outputs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(conv, "forward", fwd)

    for layers in net.branches:
        for conv, pool in zip(layers, layers[1:]):
            if isinstance(pool, L.MaxPool):
                assert isinstance(conv, L.Conv2d)
                hook(conv)
    x = np.random.default_rng(2).random((8, 3, 224, 224))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        logits = net.forward(x)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 74 << 20, held / 2**20
    assert len(outputs) == 3 + 3 + 2 * 3  # b3 runs as 2 slices
    assert all(ref() is None for ref in outputs)
    plan, head = net._plan
    pools = relus = 0
    for b, part in [(b, part) for run in plan for b, part in run]:
        layers = net.branches[b]
        for pool, relu in zip(layers, layers[1:]):
            if isinstance(pool, L.MaxPool):
                (shape, rank), mask = part.caches[pool], part.caches[relu]
                k, s = pool.window, pool.stride
                assert rank.dtype == np.uint8  # a 3x3 window's 9 taps
                assert rank.shape == (*shape[:2], *(L.conv_extent(e, k, s, 0)
                                                    for e in shape[2:]))
                assert isinstance(relu, L.Relu)
                assert mask.dtype == bool and mask.shape == rank.shape
                pools += 1
        relus += sum(isinstance(layer, L.Relu) for layer in part.caches)
    assert (pools, relus) == (len(outputs), 4 + 3 + 2 * 4)
    net.backward(np.ones_like(logits))


def _paper_order(net):
    """net with each branch's (MaxPool, Relu) pairs swapped to the paper's
    order, conv -> ReLU -> pool."""
    for layers, names in zip(net.branches, net.branch_layer_names):
        for i in range(len(layers) - 1):
            if (isinstance(layers[i], L.MaxPool)
                    and isinstance(layers[i + 1], L.Relu)):
                for seq in (layers, names):
                    seq[i], seq[i + 1] = seq[i + 1], seq[i]
    return net


@pytest.mark.bit_equal
@pytest.mark.parametrize("size,config,batch,dtype,cores", [
    (56, DESK, 32, np.float32, 1), (56, DESK, 32, np.float64, 1),
    (56, DESK, 19, np.float32, 1), (56, DESK, 19, np.float64, 1),
    (20, TINY, 7, np.float32, 1), (20, TINY, 7, np.float64, 1),
    (224, ArchConfig(), 8, np.float32, 2),
], ids=["desk32-float32", "desk32-float64", "desk19-float32", "desk19-float64",
        "tiny7-float32", "tiny7-float64", "full8-split"])
def test_pool_before_relu_bit_equal_to_paper_order(monkeypatch, size, config,
                                                   batch, dtype, cores):
    # the spec runs each stage's pool before its ReLU; a training step
    # gives the logits and gradient bytes of the paper's order, ReLU first,
    # the sign of every zero included: a window whose max is <= 0 sends
    # nothing back in either order. Full scale on 2 cores runs b3 as slices
    monkeypatch.setattr(N, "usable_cores", lambda: cores)
    spec = build_pdcnn([4, 3, 4], input_shape=(3, size, size), config=config)
    rng = np.random.default_rng(6)
    x = rng.random((batch, 3, size, size))
    labels = rng.integers(0, 2, batch)
    nets = [PdcnnNet(spec, T.Rng(4), dtype=dtype),
            _paper_order(PdcnnNet(spec, T.Rng(4), dtype=dtype))]
    assert [[type(layer) for layer in net.branches[0][:4]] for net in nets] == [
        [L.Conv2d, L.MaxPool, L.Relu, L.Lrn], [L.Conv2d, L.Relu, L.MaxPool, L.Lrn]]
    got = []
    for net in nets:
        logits = net.forward(x)
        net.backward(softmax_xent_batch(logits, labels)[1])
        got.append([logits.tobytes()] + [g.tobytes() for _, g in net.gradients()])
    assert got[0] == got[1]


@pytest.mark.bit_equal
@pytest.mark.parametrize("size,config,depths,batch,dtype,cores", [
    (224, ArchConfig(), [4, 3, 4], 32, np.float32, 2),
    (224, ArchConfig(), [4, 3, 4], 32, np.float32, 1),
    (224, ArchConfig(), [4, 3, 4], 16, np.float32, 2),
    (224, ArchConfig(), [4, 3, 4], 16, np.float32, 1),
    (56, DESK, [4, 3, 4], 16, np.float64, 2),
    (224, ArchConfig(), [4, 4], 5, np.float32, 1),
    (224, ArchConfig(), [4, 4], 8, np.float32, 1),
], ids=["full-32-split", "full-32", "full-16-split", "full-16", "desk-float64",
        "full-4,4-5", "full-4,4-8"])
def test_conv1_reading_the_stem_bit_equal_to_whole_batch_conv(
        monkeypatch, size, config, depths, batch, dtype, cores):
    # every branch's conv1 gives the output and gradient bytes of one
    # whole-batch GEMM over its own columns: at full scale the 7x7s read the
    # stem as it is and a 5x5 (b3 of 4,3,4, b2 of 4,4) its rows, for its
    # forward and, one kernel row at a time, for its weight gradient; on 2
    # cores b3 runs as 2 slices; at desk scale b1 and b2 share and b3 builds
    # its own
    monkeypatch.setattr(N, "usable_cores", lambda: cores)
    spec = build_pdcnn(depths, input_shape=(3, size, size), config=config)
    net = PdcnnNet(spec, T.Rng(4), dtype=dtype)
    seen = {}  # conv1 -> {first sample: (input, output, upstream gradient)}

    def hook(conv):
        forward, backward = conv.forward, conv.backward

        def fwd(h):
            out = forward(h)
            seen.setdefault(conv, {})[L._part().n0] = [h, out]
            return out

        def bwd(d):
            seen[conv][L._part().n0].append(d)
            return backward(d)

        monkeypatch.setattr(conv, "forward", fwd)
        monkeypatch.setattr(conv, "backward", bwd)

    convs = [layers[0] for layers in net.branches]
    for conv in convs:
        hook(conv)
    rng = np.random.default_rng(9)
    x = rng.random((batch, 3, size, size))
    _, dlogits = softmax_xent_batch(net.forward(x), rng.integers(0, 2, batch))
    net.backward(dlogits / batch)
    for conv in convs:
        h, out, dout = (np.concatenate(a) for a in
                        zip(*(seen[conv][n0] for n0 in sorted(seen[conv]))))
        assert len(seen[conv]) == (2 if cores > 1 and conv is convs[2]
                                   and size == 224 else 1)
        want = conv_whole_batch(h, conv.weights, conv.bias, conv.stride,
                                conv.padding)
        assert out.tobytes() == want.tobytes()
        gw, gb, _ = conv_backward_whole_batch(h, conv.weights, dout,
                                              conv.stride, conv.padding)
        assert conv.grad_weights.tobytes() == gw.tobytes()
        assert conv.grad_bias.tobytes() == gb.tobytes()


@pytest.mark.parametrize("size,config,depths,shared,own", [
    (224, ArchConfig(), [4, 3, 4], [0, 1, 2], []),
    (56, DESK, [4, 3, 4], [0, 1], [2]),
    (224, ArchConfig(), [4, 4, 4], [0, 1], [2]),
    (224, ArchConfig(), [4], [], [0]),
], ids=["full", "desk", "full-9x9", "one-branch"])
def test_conv1_groups_share_one_read_only_stem_per_step(
        monkeypatch, size, config, depths, shared, own):
    # conv1s of equal stride, padding and output extent share one stem, at
    # the group's widest kernel: at full scale 7x7 b1, b2 and 5x5 b3 (56x56
    # outputs); not the desk 5x5 (28x28 against 27x27), a variant-2 9x9
    # (55x55) or a group of one. On 2 cores full-scale b3 runs as 2 slices of
    # one split. No stem survives backward.
    monkeypatch.setattr(N, "usable_cores", lambda: 2)
    spec = build_pdcnn(depths, input_shape=(3, size, size), config=config)
    net = PdcnnNet(spec, T.Rng(4), dtype=np.float32)
    x = np.random.default_rng(2).random((8, 3, size, size))
    logits = net.forward(x)
    plan, head = net._plan
    splits = {b: part.split for run in plan for b, part in run}
    wholes = [splits[b].convs[layers[0]] for b, layers in enumerate(net.branches)]
    for b in shared:
        assert wholes[b].cols is wholes[shared[0]].cols
        assert wholes[b].kernel == max(net.branches[a][0].weights.shape[2]
                                       for a in shared)
    for b in own:
        assert wholes[b].kernel == 0 and wholes[b].cols.flags.writeable
        assert not any(np.shares_memory(wholes[b].cols, wholes[a].cols)
                       for a in range(len(depths)) if a != b)
    assert all(not conv.input_grad for split in splits.values()
               for conv, whole in split.convs.items() if whole.kernel)
    refs = []
    if shared:
        stem = wholes[shared[0]].cols
        assert not stem.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stem[0, 0] = 0
        refs.append(weakref.ref(stem))
        del stem
    del wholes
    net.backward(np.ones_like(logits))
    assert not any(split.convs for split in splits.values())
    assert all(ref() is None for ref in refs)


def test_whole_network_gradients_match_finite_differences():
    # end-to-end check through fusion and the shared head, double precision
    net = tiny_net([3, 3], seed=5)
    rng = np.random.default_rng(2)
    x = rng.random((2, 3, 20, 20))
    labels = np.array([0, 1])

    def loss():
        logits = net.forward(x)
        losses, _ = softmax_xent_batch(logits, labels)
        return float(losses.mean())

    logits = net.forward(x)
    _, dlogits = softmax_xent_batch(logits, labels)
    net.backward(dlogits / 2)
    grads = dict(net.gradients())
    worst = 0.0
    for name, param in net.parameters():
        fd = fd_grad(loss, param, 1e-3)
        worst = max(worst, max_rel_err(grads[name], fd))
    assert worst < 1e-4, f"worst rel err {worst:.3g}"


def test_branch_variants_give_distinct_parameter_shapes():
    net = tiny_net([4, 4])
    params = dict(net.parameters())
    assert params["branch1/conv1/weights"].shape[2] == 7
    assert params["branch2/conv1/weights"].shape[2] == 5


def test_parameter_declaration_order():
    net = tiny_net([4, 3])
    names = [n for n, _ in net.parameters()]
    assert names[0] == "branch1/conv1/weights"
    assert names[1] == "branch1/conv1/bias"
    assert names[-2] == "head/fc2/weights"
    assert names[-1] == "head/fc2/bias"
    assert names.index("branch2/conv1/weights") > names.index("branch1/conv4/bias")


def test_save_load_round_trip(tmp_path):
    net = tiny_net([4, 3], seed=9, dtype=np.float32)
    path = tmp_path / "model.bin"
    save_model(net, path)
    back = load_model(path)
    assert back.dtype == np.float32
    assert [a.depth for a in back.spec.branches] == [4, 3]
    assert back.spec.input_shape == (3, 20, 20)
    assert back.spec.config == net.spec.config
    for (na, wa), (nb, wb) in zip(net.parameters(), back.parameters()):
        assert na == nb
        npt.assert_array_equal(wa, wb)
    x = np.random.default_rng(1).random((2, 3, 20, 20))
    npt.assert_array_equal(net.forward(x), back.forward(x))


def test_save_is_byte_deterministic(tmp_path):
    net = tiny_net([4], seed=2)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(net, p1)
    save_model(net, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_double_precision_save_rounds_to_single(tmp_path):
    net = tiny_net([3], seed=4, dtype=np.float64)
    path = tmp_path / "model.bin"
    save_model(net, path)
    back = load_model(path)
    for (_, wa), (_, wb) in zip(net.parameters(), back.parameters()):
        npt.assert_array_equal(wa.astype(np.float32).astype(np.float64), wb)


def test_set_parameters_mismatch_errors():
    net = tiny_net([3])
    with pytest.raises(ValueError, match="unknown tensor"):
        net.set_parameters([("branch9/conv1/weights", np.zeros((1, 1, 1, 1)))])
    with pytest.raises(ValueError, match="mismatch"):
        net.set_parameters([("branch1/conv1/bias", np.zeros(99))])


def test_load_rejects_non_model_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ValueError):
        load_model(path)


def test_load_rejects_model_truncated_at_any_offset(tmp_path):
    raw_path = tmp_path / "model.bin"
    save_model(tiny_net([4, 3], seed=6, dtype=np.float32), raw_path)
    raw = raw_path.read_bytes()
    path = tmp_path / "cut.bin"
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: "), (cut, err.value)


def test_load_rejects_model_extents_beyond_file(tmp_path):
    path = tmp_path / "model.bin"
    save_model(tiny_net([4, 3], seed=6, dtype=np.float32), path)
    raw = bytearray(path.read_bytes())
    first = raw.index(T.PDT1_MAGIC)  # the first parameter record
    rank = struct.unpack_from("<I", raw, first + 4)[0]
    struct.pack_into(f"<{rank}I", raw, first + 8, *[2**32 - 1] * rank)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: ")


def test_load_rejects_bytes_after_the_last_tensor(tmp_path):
    path = tmp_path / "model.bin"
    save_model(tiny_net([4, 3], seed=6, dtype=np.float32), path)
    path.write_bytes(path.read_bytes() + b"\0" * 4)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: 4 bytes after the last tensor"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_tensor_naming_it(tmp_path, bad):
    net = tiny_net([4, 3], seed=6, dtype=np.float32)
    net.branches[1][0].weights[0, 0, 0, 0] = bad
    path = tmp_path / "model.bin"
    save_model(net, path)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == (f"{path}: tensor branch2/conv1/weights "
                              "contains non-finite elements")


def _pdm1(path, meta, named):
    """Write a PDM1 file from meta text and (name, array) pairs, unchecked."""
    T.write_pdm(path, meta.encode(), [(n.encode(), a) for n, a in named])


@pytest.mark.parametrize("meta_edit,index_edit", [
    (lambda m: m.replace("dtype=float32", "dtype=foo"), None),
    (lambda m: m.replace("dtype=float32", "dtype=int8"), None),
    (lambda m: m + "no_equals_sign\n", None),
    (lambda m: m + "zoom=2\n", None),
    (None, lambda named: []),
    (None, lambda named: named[:3] + named[4:]),
    (None, lambda named: named + named[:1]),
], ids=["dtype_foo", "dtype_int8", "line_without_equals", "unknown_key",
        "zero_tensors", "one_tensor_dropped", "one_tensor_twice"])
def test_load_rejects_corrupt_meta_or_index(tmp_path, meta_edit, index_edit):
    good = tmp_path / "good.bin"
    net = tiny_net([4, 3], seed=6, dtype=np.float32)
    save_model(net, good)
    raw = good.read_bytes()
    meta = raw[12:12 + struct.unpack_from("<I", raw, 8)[0]].decode()
    named = net.parameters()
    if meta_edit:
        assert meta_edit(meta) != meta
        meta = meta_edit(meta)
    if index_edit:
        named = index_edit(named)
    path = tmp_path / "bad.bin"
    _pdm1(path, meta, named)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: "), err.value


def test_load_meta_bad_value_names_line_and_key(tmp_path):
    path = tmp_path / "bad.bin"
    net = tiny_net([4], seed=6, dtype=np.float32)
    _pdm1(path, "depths=4\ninput_size=20\nconv1_stride=two\n", net.parameters())
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: meta:3: conv1_stride: "), err.value


def test_load_meta_non_finite_constant_names_path_and_key(tmp_path):
    good = tmp_path / "good.bin"
    net = tiny_net([4], seed=6, dtype=np.float32)
    save_model(net, good)
    raw = good.read_bytes()
    meta = raw[12:12 + struct.unpack_from("<I", raw, 8)[0]].decode()
    assert "lrn_beta" not in meta
    path = tmp_path / "bad.bin"
    _pdm1(path, meta + "lrn_beta=nan\n", net.parameters())
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: lrn_beta must be finite, got nan"


def _text_offsets(raw):
    """The file offsets of the meta text's bytes and of the tensor names'
    bytes in a PDM1 file."""
    meta_len = struct.unpack_from("<I", raw, 8)[0]
    names = []
    at = 12 + meta_len
    for _ in range(struct.unpack_from("<I", raw, at)[0]):
        size = struct.unpack_from("<I", raw, at + 4)[0]
        names.extend(range(at + 8, at + 8 + size))
        at += 4 + size
    return list(range(12, 12 + meta_len)), names


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_load_meta_and_index_fuzz_loads_or_names_path(tmp_path_factory, data):
    # bytes inside the meta text or the tensor-name index replaced, the
    # length fields kept: the file loads, or a ValueError names the file
    good = tmp_path_factory.mktemp("pdm1") / "good.bin"
    save_model(tiny_net([4, 3], seed=6, dtype=np.float32), good)
    raw = bytearray(good.read_bytes())
    regions = _text_offsets(raw)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.sampled_from(data.draw(st.sampled_from(regions))))
        raw[at] = data.draw(st.one_of(st.sampled_from(b"0123456789,.=-\n#e"),
                                      st.integers(0, 255)))
    path = good.with_name("fuzzed.bin")
    path.write_bytes(bytes(raw))
    try:
        load_model(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}: "), err


# a non-default config, so the meta text carries ArchConfig fields too
PINNED = ArchConfig(conv1_stride=2, conv1_padding=1, pool_window=2,
                    pool_stride=2, lrn_alpha=2e-4, filter_scale=0.04,
                    init_sigma=0.5)
# SHA-256 of save_model output for the net below; files written by earlier
# versions must keep loading, so the writer's bytes may not drift
PINNED_SHA256 = {
    "float32": "6e4882482e25983121ec0aee8f2cb8653fd738dfa990f01e0ddc5494d1b50296",
    "float64": "e66a0a50fa7f4bd6afac1f38b1f383084c7908bc6078390507ed7929161a85ec",
}


@pytest.mark.parametrize("dtype", sorted(PINNED_SHA256))
def test_model_file_bytes_pinned(tmp_path, dtype):
    spec = build_pdcnn([4, 3], input_shape=(3, 20, 20), config=PINNED)
    net = PdcnnNet(spec, T.Rng(0), dtype=dtype)
    # an arange pattern, not Rng draws, so the digest is independent of numpy
    net.set_parameters([(name, np.arange(w.size).reshape(w.shape) / 7.0 - i)
                        for i, (name, w) in enumerate(net.parameters())])
    path = tmp_path / "model.bin"
    save_model(net, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[dtype]
    back = load_model(path)
    assert back.dtype == net.dtype
    assert back.spec == spec
    for (na, wa), (nb, wb) in zip(net.parameters(), back.parameters()):
        assert na == nb
        npt.assert_array_equal(wa.astype(np.float32), wb)


def test_full_scale_forward_smoke():
    # default geometry end to end: one 3x224x224 sample through every branch
    spec = build_pdcnn([4, 3], input_shape=(3, 224, 224))
    net = PdcnnNet(spec, T.Rng(7), dtype=np.float32)
    x = np.random.default_rng(0).random((3, 224, 224), dtype=np.float32)
    logits = net.forward(x[None])
    assert logits.shape == (1, 2)
    assert np.all(np.isfinite(logits))
