"""Executable parallel network: parameters, forward/backward over batches,
the plans that put its branches on threads (inference chunks, training
slices, or whole branches, one cut in two at a layer), and what a PDM1 model
file holds (`pdcnn.tensor` frames it). The README's `pdcnn.network` and
`pdcnn.layers` entries describe the design."""

import math
import os
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import nullcontext

import numpy as np

from . import tensor as T
from .arch import (ARCH_KEYS, NUM_CLASSES, PdcnnSpec, arch_dict_from_spec,
                   param_count, shape_check, spec_from_arch_dict)
from .layers import (CHUNK_COL_BYTES, Conv2d, FullyConnected, Lrn, MaxPool,
                     Relu, ShapeError, Split, batch_part, release_workspace)

# Image files carry values in [0, 1]; the network sees them centered and in
# raw-pixel scale, the convention the Gaussian(0, 0.01) initialization and
# the LRN constants of this architecture family assume.
INPUT_OFFSET = 0.5
INPUT_SCALE = 255.0


def model_dtype(name: str) -> np.dtype:
    """The precisions a network runs in: float32 or float64."""
    if name not in ("float32", "float64"):
        raise ValueError(f"dtype must be float32 or float64, got {name!r}")
    return np.dtype(name)


# PDM1 meta text: an architecture description plus the network's dtype
_META_KEYS = {**ARCH_KEYS, "dtype": model_dtype}


def usable_cores() -> int:
    """The CPU cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this OS
        return os.cpu_count() or 1


# Runs every branch run but the first; its threads start on first use, not at
# import.
_POOL = ThreadPoolExecutor(max(1, usable_cores() - 1),
                           thread_name_prefix="pdcnn-branch")


def _in_order(fn, items):
    try:
        return [fn(*item) for item in items]
    finally:  # a run's inference convs leave no workspace on its thread
        release_workspace()


def _contiguous(items, k):
    """items cut into k contiguous runs, the shorter ones first."""
    return [items[len(items) * i // k:len(items) * (i + 1) // k]
            for i in range(k)]


def _on_threads(fn, runs):
    """[fn(*item) for run in runs for item in run], the calling thread
    running the first run and the pool the others. Every run finishes before
    an exception is raised: the first failing item's, in run order."""
    futures = [_POOL.submit(_in_order, fn, run) for run in runs[1:] if run]
    try:
        out = _in_order(fn, runs[0])
    finally:
        wait(futures)
    for future in futures:
        out += future.result()
    return out


def _branch_forward(layers, h):
    for layer in layers:
        h = layer.forward(h)
    return h


def _branch_backward(layers, d):
    for layer in reversed(layers):
        d = layer.backward(d)
    return d


def _hand_over(cut, fn, layers, h):
    """fn(layers, h) as the Future cut's result, or exception; None."""
    try:
        cut.set_result(fn(layers, h))
    except BaseException as err:
        cut.set_exception(err)
        raise


def _on_part(part, fn, *args):
    """fn(*args), within part (a layers.Part) when given: a training run."""
    with part or nullcontext():
        return fn(*args)


def _build_layer(ls, config, in_channels, rng, dtype, first):
    if ls.kind == "conv":
        w = rng.normal((ls.filters, in_channels, ls.kernel, ls.kernel),
                       config.init_sigma, dtype=dtype)
        b = np.zeros(ls.filters, dtype=dtype)
        return Conv2d(w, b, stride=ls.stride, padding=ls.padding,
                      input_grad=not first)
    if ls.kind == "pool":
        return MaxPool(config.pool_window, config.pool_stride)
    if ls.kind == "lrn":
        return Lrn(config.lrn_radius, config.lrn_k, config.lrn_alpha,
                   config.lrn_beta)
    if ls.kind == "relu":
        return Relu()
    raise ValueError(f"unexpected layer kind {ls.kind!r}")


class PdcnnNet:
    """Runtime network for one PdcnnSpec, in a single uniform precision:
    forward casts its input batch and backward its logit gradients to it. A
    training forward first builds the conv1 stems its branches share."""

    def __init__(self, spec: PdcnnSpec, rng: T.Rng, dtype=np.float64):
        rows = shape_check(spec)  # fail early, naming the offending layer
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.branches = []
        self.branch_layer_names = []
        self._feat_shapes = []  # each branch's (C,H,W) output
        cols = []  # each conv's per-sample im2col columns, C*k*k*oh*ow
        groups = {}  # [conv1] by stride, padding and output extent
        branch_rows = iter(rows)  # the rows of every branch layer, in order
        for b, arch in enumerate(spec.branches):
            layers = []
            shape = spec.input_shape  # the next layer's input
            # layers first: zip stops without taking the next branch's row
            for ls, row in zip(arch.layers, branch_rows):
                layers.append(_build_layer(ls, spec.config, shape[0], rng,
                                           self.dtype, not layers))
                if ls.kind == "conv":
                    _, oh, ow = row.shape
                    cols.append(shape[0] * ls.kernel ** 2 * oh * ow)
                    if len(layers) == 1:
                        groups.setdefault((ls.stride, ls.padding, oh, ow),
                                          []).append(layers[0])
                shape = row.shape
            self.branches.append(layers)
            self.branch_layer_names.append([ls.name for ls in arch.layers])
            self._feat_shapes.append(shape)
        # float32 samples per inference chunk and fewest per training slice
        # (_schedule); float64 never splits a batch (layers.py)
        self._chunk = -(-CHUNK_COL_BYTES // (4 * min(cols)))
        self._stems = [(oh * ow, convs) for (_, _, oh, ow), convs
                       in groups.items() if len(convs) > 1]
        hw = rng.normal((NUM_CLASSES, rows[-2].shape[0]),
                        spec.config.init_sigma, dtype=self.dtype)
        hb = np.zeros(NUM_CLASSES, dtype=self.dtype)
        self.head = FullyConnected(hw, hb)
        # forward-only mode: no backward caches or stems, blocked convolutions,
        # and a float32 forward runs the branches over sample chunks (_schedule)
        self.inference = False
        # forward's training items and the head's part, for backward
        self._plan = None

    def _walk(self, attr_prefix):
        """(name, layer.<attr_prefix>weights / bias) for every parameterized
        layer: each branch's convs in order, then the head."""
        owners = [(f"branch{i + 1}/{name}", layer)
                  for i, (layers, names) in enumerate(
                      zip(self.branches, self.branch_layer_names))
                  for layer, name in zip(layers, names)
                  if isinstance(layer, Conv2d)]
        owners.append(("head/fc2", self.head))
        return [(f"{owner}/{kind}", getattr(layer, attr_prefix + kind))
                for owner, layer in owners for kind in ("weights", "bias")]

    def parameters(self):
        """Ordered (name, array) pairs; declaration order is the file order."""
        return self._walk("")

    def gradients(self):
        """Gradient arrays matching parameters(), valid after backward()."""
        return self._walk("grad_")

    def set_parameters(self, named_arrays):
        """Copy in every parameter, each named exactly once; nothing is
        copied unless all names and shapes match."""
        named = list(named_arrays)
        current = dict(self.parameters())
        for name, value in named:
            if name not in current:
                raise ValueError(f"model/arch mismatch: unknown tensor {name!r}")
            if current[name].shape != value.shape:
                raise ValueError(
                    f"model/arch mismatch: {name} has shape {value.shape}, "
                    f"expected {current[name].shape}")
        given = Counter(name for name, _ in named)
        for name in current:
            if given[name] != 1:
                raise ValueError(f"model/arch mismatch: tensor {name!r} given "
                                 f"{given[name]} times, expected once")
        for name, value in named:
            current[name][...] = np.asarray(value, dtype=self.dtype)

    def _schedule(self, n):
        """Each thread's items, (branch index, layers.Part of one Split),
        the calling thread's first. Inference runs k = n // chunk float32
        chunks (see __init__) per branch, branch-major in contiguous runs over
        the cores if k > 1, else one. A training step slices every branch, one
        part per thread, if the net is float32 with fewer branches than cores
        and the batch gives two slices of at least a chunk; else whole
        branches share one part in contiguous runs, and if the last run holds
        more than the first, its last branch is cut in two (_on_plan), its
        item first in the last run and last in the first."""
        branches, cores = len(self.branches), usable_cores()
        k = n // self._chunk if self.dtype == np.float32 else 1
        if self.inference:
            # inference layers keep no state, so two threads may run one branch
            items = [(b, p) for b in range(branches)
                     for p in Split(n).parts(max(1, k))]
            return _contiguous(items, min(cores, len(items)) if k > 1 else 1)
        k = min(cores, k)
        if branches < cores and k > 1:
            return [[(b, p) for b in range(branches)]
                    for p in Split(n).parts(k)]
        part = batch_part(n)
        runs = _contiguous([(b, part) for b in range(branches)],
                           min(cores, branches))
        if len(runs[-1]) > len(runs[0]):
            runs[-1].insert(0, runs[-1].pop())
            runs[0].append(runs[-1][0])
        return runs

    def _on_plan(self, fn, plan, inputs, backward=False):
        """_on_threads of fn (_branch_forward or _branch_backward) over each
        (b, part) of the plan: branch b from inputs[b][n0:n1], within part
        unless in inference. An item in the first run and another is a branch
        cut before its conv2: the pool runs its first stage (backward: the
        rest), handing the array at the cut to the caller through a Future;
        only the caller waits."""
        cut = {i: Future() for i in set(plan[0]) & set(sum(plan[1:], []))}

        def item(t, b, part):
            layers, h = self.branches[b], inputs[b][part.n0:part.n1]
            if (b, part) not in cut:
                return None if self.inference else part, fn, layers, h
            c = [isinstance(layer, Conv2d) for layer in layers].index(True, 1)
            piece = layers[:c] if (t > 0) != backward else layers[c:]
            return ((part, _hand_over, cut[b, part], fn, piece, h) if t
                    else (part, lambda: fn(piece, cut[b, part].result())))

        return _on_threads(_on_part, [[item(t, b, part) for b, part in run]
                                      for t, run in enumerate(plan)])

    def _share_stems(self, x, plan):
        """Build each group of conv1s (__init__) its stem, the batch's columns
        at the group's widest kernel, a sample range on each thread of the
        plan, and hand it, read-only, to the step's Split."""
        split = plan[0][0][1].split
        n, t = len(x), min(len(plan), len(x))
        for m, convs in self._stems:
            widest = max(convs, key=lambda conv: conv.weights.shape[2])
            stem = np.empty((widest.weights[0].size, n * m), self.dtype)
            _on_threads(lambda a, e: widest.im2col(x[a:e], stem[:, a * m:e * m]),
                        [[(n * i // t, n * (i + 1) // t)] for i in range(t)])
            stem.flags.writeable = False
            for conv in convs:
                split.share(conv, stem, widest.weights.shape[2])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(N,K) logits for an (N,C,H,W) batch of [0, 1] images whose
        (C,H,W) is spec.input_shape, N >= 1."""
        want = self.spec.input_shape
        if x.shape[1:] != want or len(x) < 1:
            raise ShapeError(f"network expects (N, {', '.join(map(str, want))})"
                             f" input batches, got shape {x.shape}")
        # a new array, so the in-place scale leaves the caller's batch alone
        x = np.subtract(x, INPUT_OFFSET, dtype=self.dtype)
        x *= INPUT_SCALE
        self._plan = None
        plan = self._schedule(len(x))
        if not self.inference:
            self._share_stems(x, plan)
        out = self._on_plan(_branch_forward, plan, [x] * len(self.branches))
        feats = [[] for _ in self.branches]  # each branch's, in sample order
        for (b, _), h in zip(sum(plan, []), out):
            if h is not None:  # None: a cut branch's first stage
                feats[b].append(h.reshape(len(h), -1))
        head = None if self.inference else batch_part(len(x))
        logits = _on_part(head, self.head.forward, np.concatenate(
            [np.concatenate(hs) for hs in feats], axis=1))
        if head is not None:
            self._plan = plan, head
        return logits

    def backward(self, dlogits: np.ndarray) -> None:
        """Backpropagate (N,K) logit gradients, cast to the network's dtype;
        fills every grad_* attribute. Consumes the latest training forward's
        caches, each layer's freed as its backward finishes with it; sample
        slices then compute their weight gradients from the whole batch,
        shared out over the same threads."""
        dlogits = np.asarray(dlogits, dtype=self.dtype)
        plan, head = self._plan or ([], None)
        self._plan = None
        # raises, outside any part, if there is no training forward to undo
        dfused = _on_part(head, self.head.backward, dlogits)
        edges = np.cumsum([math.prod(s) for s in self._feat_shapes])[:-1]
        ds = [d.reshape(len(d), *shape) for d, shape in
              zip(np.split(dfused, edges, axis=1), self._feat_shapes)]
        self._on_plan(_branch_backward, plan, ds, backward=True)
        part = plan[0][0][1]
        if not part.sole:
            _on_threads(part.split.weight_grads,
                        [[(t, len(plan))] for t in range(len(plan))])
            part.split.convs.clear()


def save_model(net: PdcnnNet, path) -> None:
    """Write a PDM1 model file. Parameter payloads are PDT1 (32-bit floats);
    double-precision models round to single in the file."""
    meta = T.format_kv_lines({**arch_dict_from_spec(net.spec),
                              "dtype": net.dtype.name}).encode("utf-8")
    T.write_pdm(path, meta, [(name.encode("utf-8"), array)
                             for name, array in net.parameters()])


def load_model(path) -> PdcnnNet:
    """Rebuild a network from a PDM1 file (architecture plus parameters).

    The meta text must parse as an architecture description plus a float32
    or float64 dtype, the index must name every parameter exactly once, and
    every tensor must be finite; a ValueError starting with the path reports
    any other file."""
    meta, names, arrays = T.read_pdm(path)
    try:
        d = T.parse_kv_lines(meta.decode("utf-8").splitlines(), "meta",
                             _META_KEYS)
        dtype = d.pop("dtype", np.dtype(np.float64))
        spec = spec_from_arch_dict(d)
        # checked before the network is built, so a corrupt meta text cannot
        # make it allocate more parameters than the file holds
        described, stored = param_count(spec), sum(a.size for a in arrays)
        if described != stored:
            raise ValueError(f"model/arch mismatch: the meta describes "
                             f"{described} parameters, the file holds {stored}")
        named = [(n.decode("utf-8"), a) for n, a in zip(names, arrays)]
        for name, a in named:
            T.check_finite(a, f"tensor {name}")
        net = PdcnnNet(spec, rng=T.Rng(0), dtype=dtype)
        net.set_parameters(named)
    except ValueError as err:  # ShapeError and UnicodeDecodeError included
        raise ValueError(f"{path}: {err}") from None
    return net
