"""Mini-batch SGD with momentum and weight decay, the epoch loop, evaluation,
and training-curve recording.

Update rule, per parameter w with velocity v and mean batch gradient g:

    v <- momentum * v - learning_rate * (g + weight_decay * w)
    w <- w + v

Bias parameters are exempt from weight decay. Defaults follow the training
recipe: batch size 32, momentum 0.9, weight decay 0.0005. Runs are fully
deterministic for a given (spec, data, config, seed): sample order, patch
choices, and initialization all derive from the seed, and gradients are
accumulated batch-vectorized in a fixed order.
"""

import itertools
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .data import Dataset, sample_patch
from .layers import softmax_xent_batch
from .network import PdcnnNet

STREAM_INIT = 1
STREAM_SHUFFLE = 2
STREAM_PATCH = 3

# each SgdConfig field's range: (test, how the error states it)
_SGD_RANGE = {
    "learning_rate": (lambda v: v >= 0, ">= 0"),
    "momentum": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "weight_decay": (lambda v: v >= 0, ">= 0"),
    "batch_size": (lambda v: v >= 1, ">= 1"),
    "max_epochs": (lambda v: v >= 0, ">= 0"),
    "lr_drop": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "lr_patience": (lambda v: v >= 1, ">= 1"),
}


@dataclass
class SgdConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 32
    max_epochs: int = 30
    lr_drop: float = 0.1      # multiply learning rate by this on plateau
    lr_patience: int = 20     # epochs without test-error improvement

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            in_range, text = _SGD_RANGE[f.name]
            if not in_range(value):
                raise ValueError(f"{f.name} must be {text}, got {value}")


@dataclass
class TrainState:
    parameters: list          # ordered (name, array); arrays update in place
    velocities: list          # same names and shapes, zero-initialized
    epoch: int                # completed epochs
    seed: int                 # root seed; per-epoch streams derive from it
    learning_rate: float


@dataclass(frozen=True)
class EpochRecord:
    epoch: int                # 1-based
    train_loss: float
    train_error: float
    test_error: float
    seconds: float


CURVE_HEADER = ["epoch", "train_loss", "train_error", "test_error", "seconds"]


def write_curve_csv(curve, path, timing: bool = True) -> None:
    """One row per EpochRecord of curve; pass timing=False to zero the
    seconds column so the file is byte-reproducible across runs."""
    T.write_table(path, CURVE_HEADER,
                  ([r.epoch, f"{r.train_loss:.6f}", f"{r.train_error:.6f}",
                    f"{r.test_error:.6f}",
                    f"{r.seconds if timing else 0.0:.3f}"] for r in curve))


def read_curve_csv(path) -> list:
    """EpochRecords from a curve CSV whose epochs run 1, 2, 3, ... and whose
    error rates lie in [0, 1]; train_loss and seconds may be any float."""
    epochs = itertools.count(1)

    def epoch(text):
        want = next(epochs)
        if int(text) != want:
            raise ValueError(f"expected epoch {want}, got {text!r}")
        return want

    rows = T.read_table(path, CURVE_HEADER,
                        (epoch, float, T.parse_rate, T.parse_rate, float))
    return [EpochRecord(*row) for row in rows]


def init_state(net: PdcnnNet, seed: int, cfg: SgdConfig) -> TrainState:
    params = net.parameters()
    velocities = [(name, np.zeros_like(w)) for name, w in params]
    return TrainState(parameters=params, velocities=velocities, epoch=0,
                      seed=seed, learning_rate=cfg.learning_rate)


def sgd_step(state: TrainState, grads, cfg: SgdConfig) -> TrainState:
    """One momentum update over every parameter; biases skip weight decay."""
    lr = state.learning_rate
    mu = cfg.momentum
    for (name, w), (_, v), (gname, g) in zip(state.parameters,
                                             state.velocities, grads):
        if g is None or g.shape != w.shape:
            raise ValueError(f"gradient for {name} has shape "
                             f"{None if g is None else g.shape}, expected {w.shape}")
        decay = 0.0 if name.endswith("/bias") else cfg.weight_decay
        update = g + decay * w if decay else g
        np.multiply(v, mu, out=v)
        v -= lr * update
        w += v
    return state


def train_epoch(net: PdcnnNet, state: TrainState, train_set: Dataset,
                cfg: SgdConfig):
    """One pass over train_set: shuffle, batch (final partial batch kept),
    augment online, one sgd_step per batch. Returns (mean loss, train error)."""
    n = len(train_set)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    epoch = state.epoch + 1
    seed = state.seed
    order = T.Rng(T.mix_seed(seed, STREAM_SHUFFLE, epoch)).permutation(n)
    labels = train_set.labels
    crop = train_set.crop_size
    loss_sum = 0.0
    wrong = 0
    for start in range(0, n, cfg.batch_size):
        chunk = order[start:start + cfg.batch_size]
        xb = np.stack([
            sample_patch(train_set.image(int(i)), crop,
                         T.Rng(T.mix_seed(seed, STREAM_PATCH, epoch, int(i))),
                         "train")
            for i in chunk])
        yb = labels[chunk]
        logits = net.forward(xb)
        losses, dlogits = softmax_xent_batch(logits, yb)
        loss_sum += float(losses.sum())
        wrong += int((np.argmax(logits, axis=1) != yb).sum())
        net.backward(dlogits / len(chunk))
        sgd_step(state, net.gradients(), cfg)
    state.epoch = epoch
    return loss_sum / n, wrong / n


def evaluate(net: PdcnnNet, test_set: Dataset, batch_size: int = 64) -> float:
    """Error rate (misclassified / total) on deterministic center crops.

    The network runs in inference mode for the duration of the call, so no
    layer keeps a backward cache and a float32 forward runs in sample
    chunks; training mode is back on return, also when forward raises."""
    n = len(test_set)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    labels = test_set.labels
    crop = test_set.crop_size
    wrong = 0
    net.inference = True
    try:
        for start in range(0, n, batch_size):
            idx = range(start, min(start + batch_size, n))
            xb = np.stack([sample_patch(test_set.image(i), crop, None, "test")
                           for i in idx])
            pred = np.argmax(net.forward(xb), axis=1)
            wrong += int((pred != labels[start:start + batch_size]).sum())
    finally:
        net.inference = False
    return wrong / n


def train(spec, train_set: Dataset, test_set: Dataset, cfg: SgdConfig,
          seed: int, dtype=np.float64, stop_when=None):
    """Full training run: init, epoch loop, curve recording, plateau learning
    rate drops, best-test-error checkpointing.

    Returns (net, curve), curve the list of EpochRecord, with the parameters
    of the best epoch restored. stop_when, if given, is called with each
    EpochRecord and may end the run early (used for budgeted desk-scale runs).
    """
    net = PdcnnNet(spec, rng=T.Rng(T.mix_seed(seed, STREAM_INIT)), dtype=dtype)
    state = init_state(net, seed, cfg)
    curve = []
    best_error = float("inf")
    best_params = None
    since_improve = 0
    for _ in range(cfg.max_epochs):
        started = time.perf_counter()
        mean_loss, train_error = train_epoch(net, state, train_set, cfg)
        test_error = evaluate(net, test_set)
        record = EpochRecord(state.epoch, mean_loss, train_error, test_error,
                             time.perf_counter() - started)
        curve.append(record)
        if test_error < best_error:
            best_error = test_error
            best_params = [(name, w.copy()) for name, w in state.parameters]
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= cfg.lr_patience:
                state.learning_rate *= cfg.lr_drop
                since_improve = 0
        if stop_when is not None and stop_when(record):
            break
    if best_params is not None:
        net.set_parameters(best_params)
    return net, curve
