"""Finite-difference gradient checking harness shared by the layer tests and
the acceptance suite.

Every check wraps an op as a scalar loss L = sum(out * R) for a fixed random
upstream R, runs central differences (step 1e-3) in double precision over
every input and parameter coordinate, and reports the max relative error.
Inputs near kinks (ReLU zero, pooling ties) are kept separated by more than
the step so the difference quotient stays valid.
"""

import numpy as np

from pdcnn.layers import (Conv2d, FullyConnected, Lrn, MaxPool, Relu,
                          batch_part, conv_extent)
from oracles import fd_grad, max_rel_err, softmax_xent

TOLERANCE = 1e-4
STEP = 1e-3


def _upstream_loss(layer, x, rng):
    """A random upstream gradient for layer at x, and the loss
    sum(layer(x) * upstream), whose inference forwards keep no cache."""
    out = layer.forward(x)
    upstream = rng.normal(0, 1, out.shape)
    return upstream, (lambda: float(np.sum(layer.forward(x) * upstream)))


def _train_step(layer, x, upstream):
    """The input gradient of a training forward and backward at x, the
    whole batch one part, as the network runs a whole branch."""
    with batch_part(len(x)):
        layer.forward(x)
        return layer.backward(upstream)


def check_conv(rng):
    ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, 2))
    h = int(rng.integers(k, 7))
    w = int(rng.integers(k, 7))
    if conv_extent(h, k, stride, pad) < 1:
        h = k
    if conv_extent(w, k, stride, pad) < 1:
        w = k
    x = rng.normal(0, 1, (ci, h, w))[None]
    layer = Conv2d(rng.normal(0, 1, (co, ci, k, k)), rng.normal(0, 1, co),
                   stride=stride, padding=pad)
    upstream, loss = _upstream_loss(layer, x, rng)
    dx = _train_step(layer, x, upstream)
    return max(max_rel_err(dx, fd_grad(loss, x, STEP)),
               max_rel_err(layer.grad_weights, fd_grad(loss, layer.weights, STEP)),
               max_rel_err(layer.grad_bias, fd_grad(loss, layer.bias, STEP)))


def check_pool(rng):
    c = int(rng.integers(1, 4))
    h = int(rng.integers(2, 7))
    w = int(rng.integers(2, 7))
    window = int(rng.integers(1, min(h, w) + 1))
    stride = int(rng.integers(1, 3))
    # distinct values with gaps far above the FD step keep argmax stable
    x = (rng.permutation(c * h * w).astype(np.float64) * 0.37).reshape(c, h, w)[None]
    x -= x.mean()
    layer = MaxPool(window, stride)
    upstream, loss = _upstream_loss(layer, x, rng)
    dx = _train_step(layer, x, upstream)
    return max_rel_err(dx, fd_grad(loss, x, STEP))


def check_lrn(rng):
    c = int(rng.integers(1, 4))
    h = int(rng.integers(1, 7))
    w = int(rng.integers(1, 7))
    layer = Lrn(radius=int(rng.integers(0, 3)),
                k=float(rng.uniform(0.5, 2.5)),
                alpha=float(rng.uniform(0.05, 1.0)),
                beta=float(rng.uniform(0.4, 1.5)))
    x = rng.normal(0, 1, (c, h, w))[None]
    upstream, loss = _upstream_loss(layer, x, rng)
    dx = _train_step(layer, x, upstream)
    return max_rel_err(dx, fd_grad(loss, x, STEP))


def check_relu(rng):
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 7)),
             int(rng.integers(1, 7)))
    x = rng.normal(0, 1, shape)
    x += np.where(x >= 0, 0.05, -0.05)  # keep clear of the kink at 0
    layer = Relu()
    upstream, loss = _upstream_loss(layer, x, rng)
    dx = _train_step(layer, x, upstream)
    return max_rel_err(dx, fd_grad(loss, x, STEP))


def check_fc(rng):
    d = int(rng.integers(1, 13))
    k = int(rng.integers(2, 4))
    x = rng.normal(0, 1, d)[None]
    layer = FullyConnected(rng.normal(0, 1, (k, d)), rng.normal(0, 1, k))
    upstream, loss = _upstream_loss(layer, x, rng)
    dx = _train_step(layer, x, upstream)
    return max(max_rel_err(dx, fd_grad(loss, x, STEP)),
               max_rel_err(layer.grad_weights, fd_grad(loss, layer.weights, STEP)),
               max_rel_err(layer.grad_bias, fd_grad(loss, layer.bias, STEP)))


def check_xent(rng):
    k = int(rng.integers(2, 4))
    logits = rng.normal(0, 2, k)
    label = int(rng.integers(0, k))
    _, grad = softmax_xent(logits, label)
    fd = fd_grad(lambda: softmax_xent(logits, label)[0], logits, STEP)
    return max_rel_err(grad, fd)


CHECKS = {
    "conv2d": check_conv,
    "maxpool": check_pool,
    "lrn": check_lrn,
    "relu": check_relu,
    "fully_connected": check_fc,
    "softmax_xent": check_xent,
}


def run_gradient_checks(configs_per_op: int = 10, seed: int = 1234):
    """Returns {op name: worst relative error over configs_per_op configs}."""
    worst = {}
    for name, check in CHECKS.items():
        rng = np.random.default_rng(seed)
        worst[name] = max(check(rng) for _ in range(configs_per_op))
    return worst
