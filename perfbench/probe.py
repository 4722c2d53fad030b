"""Hooks that time the pdcnn calls one benchmark run makes.

A Probe replaces public functions of pdcnn.optim, pdcnn.data, pdcnn.tensor
and pdcnn.network, and the forward/backward methods of every layer object of
each network it is shown, with wrappers that call the original. It always
keeps a step clock: a train step ends when optim.sgd_step returns, an eval
step when the network's forward returns inside optim.evaluate, and each step
starts where the previous one ended (the first at the enclosing call's
entry), so batch assembly counts in its step. With tracing on it also records
one span per call (name, start, end, parent span, step id, phase) in memory;
dump() writes them out. Nothing in pdcnn itself is edited.

An untraced run also times a fixed reference kernel, independent of pdcnn,
every REF_INTERVAL_S of measured work (checked at each hooked call, layers
included). Its time is left out of the step and call it ran in, and its
duration gives the shared host's speed at that moment, which bench.py uses
to scale the measured times to a fixed nominal speed (see Reference).
"""

import bisect
import json
import math
import statistics
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from pdcnn import data as D
from pdcnn import network as N
from pdcnn import optim as O
from pdcnn import tensor as T
from pdcnn.layers import Conv2d, conv_extent

MB = float(2 ** 20)

# Measured work between two reference samples, and the nominal time of one
# reference kernel: about its mean on a 2-vCPU Intel Xeon (Sapphire Rapids)
# KVM guest with numpy 2.4 and OpenBLAS on one thread. A time scaled by
# REF_NOMINAL_S / (reference time measured beside it) reads as on a machine
# that runs the reference kernel in exactly REF_NOMINAL_S.
REF_INTERVAL_S = 0.1
REF_NOMINAL_S = 0.0033


class Reference:
    """A fixed mix of the kinds of work a pdcnn step does, in plain numpy:
    single-thread SGEMMs, an elementwise pass over a 4 MiB array (past the
    per-core cache) and an interpreter loop. It does the same work on every
    call, on arrays read into the cache just before it starts (so what pdcnn
    did to the cache since the last call does not change its time), and its
    duration measures how fast the shared host runs the process right now:
    a neighbour on the same core slows all three parts together, and pdcnn
    with them. A change to pdcnn cannot move it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((256, 512), dtype=np.float32)
        self.b = rng.random((512, 128), dtype=np.float32)
        self.big = rng.random(1 << 20, dtype=np.float32)
        self.starts, self.seconds = [], []  # per sample, in time order
        self._kernel()  # first-touch and first-call costs, not sampled

    def run(self):
        """Sample the kernel once; returns the whole time taken, cache
        warming included."""
        begin = time.perf_counter()
        self.a.sum(), self.b.sum(), self.big.sum()  # into the cache
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.seconds.append(end - start)
        return end - begin

    def mean_between(self, begin, end):
        """Mean kernel time of the samples started within [begin, end], or
        of the one started nearest to that interval if none was."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_right(self.starts, end)
        if hi > lo:
            return sum(self.seconds[lo:hi]) / (hi - lo)
        near = [i for i in (lo - 1, lo) if 0 <= i < len(self.starts)]
        return self.seconds[min(near, key=lambda i: min(
            abs(self.starts[i] - begin), abs(self.starts[i] - end)))]

    def scale(self, begin, end):
        """Factor that turns a time measured over [begin, end] into the time
        at the nominal machine speed."""
        return REF_NOMINAL_S / self.mean_between(begin, end)

    def _kernel(self):
        for _ in range(3):
            (self.a @ self.b).sum()
        np.maximum(self.big * 0.5, 0.25, out=self.big)
        s = 0
        for i in range(15000):
            s += i


class StopRun(Exception):
    """Raised by the loss hook to end a reference run after a set number of
    steps."""


@dataclass
class Step:
    id: int
    kind: str        # "train" or "eval"
    phase: str
    start: float
    end: float
    size: int        # images in the batch
    ok: bool         # finite loss, gradients and logits
    paused: float = 0.0  # time the reference runs inside the step took

    @property
    def seconds(self):
        """Time in pdcnn, without the reference runs."""
        return self.end - self.start - self.paused


def _conv_work(layer, shape, itemsize):
    """Computed (GFLOP, im2col bytes) of one Conv2d forward on input `shape`."""
    n, _, h, w = shape
    co, ci, kh, kw = layer.weights.shape
    oh = conv_extent(h, kh, layer.stride, layer.padding)
    ow = conv_extent(w, kw, layer.stride, layer.padding)
    rows, cols = n * oh * ow, ci * kh * kw
    return 2.0 * rows * cols * co / 1e9, rows * cols * itemsize


class Probe:
    def __init__(self, trace=False, fault_step=None, reference=False):
        self.trace = trace
        # Samples the reference kernel during the measure phase.
        self.reference = Reference() if reference else None
        self._next_ref = 0.0
        self._paused = 0.0  # reference runs in the open step
        self.paused_total = 0.0
        self.recording = trace   # spans are taken only while this is set
        self.phase = "setup"
        self.fault_step = fault_step  # measured train step whose loss becomes NaN
        self.stop_after = None        # raise StopRun after this many losses
        self.spans = []    # [name, start, end, parent, step, phase, info]
        self.events = []   # (name, step, phase) for counted, untimed calls
        self.steps = []
        self.calls = []    # (phase, kind, start, end, images, time of the
                           #  reference runs inside) per train_epoch/evaluate
        self.losses = {}   # phase -> mean batch loss per train step
        self.logits = []   # (phase, logits) per eval step
        self.image_cache_peak = 0
        self._image_live = 0
        self._images = {}
        self._stack = []
        self._open = False
        self._kind = None
        self._batch = 0
        self._step_ok = True
        self._step_start = 0.0
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        self._patch(O, "train_epoch", self._train_epoch(O.train_epoch))
        self._patch(O, "evaluate", self._evaluate(O.evaluate))
        self._patch(O, "sgd_step", self._sgd_step(O.sgd_step))
        self._patch(O, "softmax_xent_batch", self._softmax(O.softmax_xent_batch))
        if self.trace:
            for owner, name, span in ((O, "sample_patch", "data.sample_patch"),
                                      (T, "read_pdt", "tensor.read_pdt"),
                                      (N, "load_model", "network.load_model"),
                                      (N, "save_model", "network.save_model")):
                self._patch(owner, name, self._timed(span, getattr(owner, name)))
            self._patch(D.Dataset, "image", self._image(D.Dataset.image))
            self._patch(T.Rng, "__init__", self._rng_init(T.Rng.__init__))
        return self

    def close(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name, wrapper):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def watch(self, net):
        """Hook a network's forward/backward and, when tracing, its layers."""
        if getattr(net, "_perfbench_probe", None) is self:
            return net
        net._perfbench_probe = self
        # The wrappers reach the object through a weak reference, so hooking
        # it adds no reference cycle and it is freed exactly when pdcnn
        # drops it, as without the probe.
        ref, cls = weakref.ref(net), type(net)

        def net_forward(x):
            self._batch = x.shape[0]
            with self._span("network.forward"):
                out = cls.forward(ref(), x)
            if self._open and self._kind == "eval":
                end = time.perf_counter()
                self.logits.append((self.phase, out))
                self._end_step("eval", end, bool(np.isfinite(out).all()))
            return out

        def net_backward(dlogits):
            with self._span("network.backward"):
                return cls.backward(ref(), dlogits)

        net.forward, net.backward = net_forward, net_backward
        if self.trace or self.reference:
            for layers, names in zip(net.branches, net.branch_layer_names):
                for layer, name in zip(layers, names):
                    self._watch_layer(layer, name if isinstance(layer, Conv2d)
                                      else type(layer).__name__)
            self._watch_layer(net.head, type(net.head).__name__)
        return net

    def _watch_layer(self, layer, label):
        ref, cls = weakref.ref(layer), type(layer)
        conv = isinstance(layer, Conv2d)
        fname, bname = f"layers.{label}.forward", f"layers.{label}.backward"

        def layer_forward(x):
            info = (_conv_work(ref(), x.shape, x.dtype.itemsize)
                    if conv and self.recording else None)
            with self._span(fname, info):
                return cls.forward(ref(), x)

        def layer_backward(dout):
            info = None
            if conv and self.recording:
                n, _, oh, ow = dout.shape
                _, ci, kh, kw = ref().weights.shape
                info = (0.0, n * oh * ow * ci * kh * kw * dout.dtype.itemsize)
            with self._span(bname, info):
                return cls.backward(ref(), dout)

        layer.forward, layer.backward = layer_forward, layer_backward

    # -- spans and steps ----------------------------------------------------

    def _step_id(self):
        return len(self.steps) if self._open else None

    def _tick(self):
        """Run the reference kernel if REF_INTERVAL_S of work has passed."""
        if self.reference is None or self.phase != "measure":
            return
        if time.perf_counter() >= self._next_ref:
            taken = self.reference.run()
            self._paused += taken
            self.paused_total += taken
            self._next_ref = time.perf_counter() + REF_INTERVAL_S

    @contextmanager
    def _span(self, name, info=None):
        self._tick()
        if not self.recording:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self._step_id(),
               self.phase, info]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _end_step(self, kind, end, ok):
        self.steps.append(Step(len(self.steps), kind, self.phase,
                               self._step_start, end, self._batch,
                               ok and self._step_ok, self._paused))
        self._step_ok = True
        self._paused = 0.0
        self._step_start = time.perf_counter()

    @contextmanager
    def _container(self, name, kind, images):
        with self._span(name):
            start, paused_before = time.perf_counter(), self.paused_total
            self._open, self._kind, self._step_ok = True, kind, True
            self._step_start = start
            self._paused = 0.0
            try:
                yield
            finally:
                self._open = False
                self.calls.append((self.phase, kind, start, time.perf_counter(),
                                   images, self.paused_total - paused_before))

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _train_epoch(self, fn):
        def train_epoch(net, state, train_set, cfg):
            self.watch(net)
            with self._container("optim.train_epoch", "train", len(train_set)):
                return fn(net, state, train_set, cfg)
        return train_epoch

    def _evaluate(self, fn):
        def evaluate(net, test_set, batch_size=64):
            self.watch(net)
            with self._container("optim.evaluate", "eval", len(test_set)):
                return fn(net, test_set, batch_size)
        return evaluate

    def _sgd_step(self, fn):
        def sgd_step(state, grads, cfg):
            with self._span("optim.sgd_step"):
                out = fn(state, grads, cfg)
            end = time.perf_counter()
            ok = all(np.isfinite(g).all() for _, g in grads)
            self._end_step("train", end, ok)
            return out
        return sgd_step

    def _softmax(self, fn):
        def softmax_xent_batch(logits, labels):
            with self._span("layers.softmax_xent_batch"):
                losses, grads = fn(logits, labels)
            seen = self.losses.setdefault(self.phase, [])
            if self.phase == "measure" and len(seen) == self.fault_step:
                losses = losses.copy()
                losses[0] = np.nan
            mean = float(losses.sum()) / len(losses)
            seen.append(mean)
            if not math.isfinite(mean):
                self._step_ok = False
            if self.stop_after is not None and len(seen) >= self.stop_after:
                raise StopRun()
            return losses, grads
        return softmax_xent_batch

    def _image(self, fn):
        def image(dataset, i):
            with self._span("data.image"):
                img = fn(dataset, i)
            if self.recording:
                self._note_image(img)
            return img
        return image

    def _note_image(self, img):
        """Track live bytes of the distinct arrays Dataset.image returned."""
        key = id(img)
        ref = self._images.get(key)
        if ref is not None and ref() is img:
            return
        nbytes = img.nbytes

        def gone(_, key=key, nbytes=nbytes):
            self._image_live -= nbytes
            if key in self._images and self._images[key]() is None:
                del self._images[key]

        self._images[key] = weakref.ref(img, gone)
        self._image_live += nbytes
        self.image_cache_peak = max(self.image_cache_peak, self._image_live)

    def _rng_init(self, fn):
        def rng_init(rng, seed):
            if self.recording:
                self.events.append(("tensor.Rng", self._step_id(), self.phase))
            fn(rng, seed)
        return rng_init

    # -- results ------------------------------------------------------------

    def measured_steps(self, kind, phase="measure"):
        return [s for s in self.steps if s.kind == kind and s.phase == phase]

    def dump(self, path):
        """Write every span, step and counted call as one JSON document."""
        doc = {
            "fields": ["name", "start", "end", "parent", "step", "phase", "info"],
            "spans": self.spans,
            "events": self.events,
            "steps": [[s.id, s.kind, s.phase, s.start, s.end, s.size, s.ok]
                      for s in self.steps],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def self_times(spans):
    """Per span index: its duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def tail_p90(samples):
    """90th percentile, or None when fewer than 10 samples lie beyond it."""
    if len(samples) < 10:
        return None
    p90 = statistics.quantiles(samples, n=10)[-1]
    return p90 if sum(1 for s in samples if s > p90) >= 10 else None
