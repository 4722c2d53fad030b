import numpy as np
import numpy.testing as npt
import pytest

from pdcnn import tensor as T
from pdcnn.arch import ArchConfig, build_pdcnn
from pdcnn.data import Dataset, ManifestRecord, gen_synthetic, split_batches
from pdcnn.network import PdcnnNet
from pdcnn.optim import (EpochRecord, SgdConfig, TrainState,
                         evaluate, init_state, read_curve_csv, sgd_step,
                         train, train_epoch, write_curve_csv)

TINY = ArchConfig(conv1_stride=2, pool_window=2, pool_stride=2,
                  filter_scale=0.05, init_sigma=0.3)


def _state(named, lr=0.1):
    params = [(name, np.array(w, dtype=np.float64)) for name, w in named]
    vel = [(name, np.zeros_like(w)) for name, w in params]
    return TrainState(parameters=params, velocities=vel, epoch=0,
                      seed=0, learning_rate=lr)


def test_sgd_zero_grad_is_fixed_point():
    state = _state([("w/weights", [1.0, -2.0])])
    cfg = SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    sgd_step(state, [("w/weights", np.zeros(2))], cfg)
    npt.assert_array_equal(state.parameters[0][1], np.array([1.0, -2.0]))


def test_sgd_two_step_hand_trajectory():
    state = _state([("w/weights", [1.0])])
    cfg = SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    g = [("w/weights", np.array([1.0]))]
    sgd_step(state, g, cfg)
    assert state.velocities[0][1][0] == -0.1
    assert state.parameters[0][1][0] == 0.9
    sgd_step(state, g, cfg)
    assert state.velocities[0][1][0] == pytest.approx(-0.19, abs=0)
    assert state.parameters[0][1][0] == pytest.approx(0.71, abs=0)


def test_sgd_plain_gd_bit_exact():
    rng = np.random.default_rng(0)
    w0 = rng.normal(0, 1, 17)
    g = rng.normal(0, 1, 17)
    lr = 0.037
    state = _state([("w/weights", w0.copy())], lr=lr)
    cfg = SgdConfig(learning_rate=lr, momentum=0.0, weight_decay=0.0)
    sgd_step(state, [("w/weights", g)], cfg)
    assert state.parameters[0][1].tobytes() == (w0 - lr * g).tobytes()


def test_sgd_weight_decay_shrinks_parameters():
    state = _state([("w/weights", [2.0])], lr=0.1)
    cfg = SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.5)
    prev = 2.0
    for _ in range(5):
        sgd_step(state, [("w/weights", np.zeros(1))], cfg)
        cur = abs(state.parameters[0][1][0])
        assert cur < prev
        prev = cur


def test_sgd_bias_exempt_from_decay():
    state = _state([("w/bias", [2.0])], lr=0.1)
    cfg = SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.5)
    sgd_step(state, [("w/bias", np.zeros(1))], cfg)
    assert state.parameters[0][1][0] == 2.0


def test_sgd_shape_mismatch():
    state = _state([("w/weights", [1.0, 2.0])])
    with pytest.raises(ValueError):
        sgd_step(state, [("w/weights", np.zeros(3))], SgdConfig())


def test_quadratic_loss_converges():
    # L(w) = w^2, gradient 2w: |w| < 1e-3 within 200 steps at lr 0.1, mu 0.9
    state = _state([("w/weights", [1.0])], lr=0.1)
    cfg = SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    for _ in range(200):
        w = state.parameters[0][1]
        sgd_step(state, [("w/weights", 2.0 * w)], cfg)
    assert abs(state.parameters[0][1][0]) < 1e-3


def test_train_epoch_steps_once_per_batch(tmp_path, monkeypatch):
    # 100 samples at batch size 32: exactly 4 optimizer steps (32+32+32+4)
    ds = gen_synthetic(50, 20, 0.5, seed=8, out_dir=tmp_path)
    ds.crop_size = 20
    spec = build_pdcnn([3], input_shape=(3, 20, 20), config=TINY)
    net = PdcnnNet(spec, T.Rng(1), dtype=np.float32)
    cfg = SgdConfig(batch_size=32)
    state = init_state(net, 7, cfg)
    calls = []
    import pdcnn.optim as optim_module
    orig = optim_module.sgd_step
    monkeypatch.setattr(optim_module, "sgd_step",
                        lambda s, g, c: calls.append(1) or orig(s, g, c))
    train_epoch(net, state, ds, cfg)
    assert len(calls) == 4


class _StubNet:
    """Duck-typed stand-in for evaluate(): fixed logits per sample index."""

    def __init__(self, logits):
        self._logits = np.asarray(logits, dtype=np.float64)
        self._served = 0

    def forward(self, x):
        n = x.shape[0]
        out = self._logits[self._served:self._served + n]
        self._served += n
        if self._served >= len(self._logits):
            self._served = 0
        return out


def _memory_dataset(tmp_path, labels, size=8):
    from pdcnn import tensor as TT
    records = []
    rng = np.random.default_rng(0)
    for i, label in enumerate(labels):
        path = tmp_path / f"im{i}.pdt"
        TT.write_pdt(path, rng.random((3, size, size), dtype=np.float32))
        records.append(ManifestRecord(path=str(path), label=int(label),
                                      category="t"))
    return Dataset(records, crop_size=size)


def test_evaluate_perfect_and_constant(tmp_path):
    ds = _memory_dataset(tmp_path, [0, 1, 0, 1])
    perfect = _StubNet([[1, 0], [0, 1], [1, 0], [0, 1]])
    assert evaluate(perfect, ds) == 0.0
    constant = _StubNet([[1, 0]] * 4)
    assert evaluate(constant, ds) == 0.5


def test_evaluate_three_wrong_of_ten(tmp_path):
    labels = [0] * 10
    ds = _memory_dataset(tmp_path, labels)
    logits = [[1, 0]] * 7 + [[0, 1]] * 3
    assert evaluate(_StubNet(logits), ds) == pytest.approx(0.3)


def test_evaluate_empty_errors(tmp_path):
    with pytest.raises(ValueError):
        evaluate(_StubNet([[1, 0]]), Dataset([], crop_size=8))


@pytest.mark.parametrize("batch_size", [0, -5])
def test_evaluate_rejects_batch_size_below_one(tmp_path, batch_size):
    # a negative batch size would run no image and read an error rate of
    # 0.0, and 0 would end in range()'s own error
    ds = _memory_dataset(tmp_path, [0, 1, 0, 1])
    with pytest.raises(ValueError) as got:
        evaluate(_StubNet([[1, 0]] * 4), ds, batch_size)
    assert str(got.value) == f"batch_size must be >= 1, got {batch_size}"


def _tiny_sets(tmp_path, n_per_class=8, size=20):
    ds = gen_synthetic(n_per_class, size, 0.0, seed=5, out_dir=tmp_path)
    ds.crop_size = size
    return split_batches(ds, T.Rng(2))


def test_train_epoch_counts_and_determinism(tmp_path):
    train_set, _ = _tiny_sets(tmp_path)
    spec = build_pdcnn([3], input_shape=(3, 20, 20), config=TINY)

    def run():
        net = PdcnnNet(spec, T.Rng(1), dtype=np.float64)
        state = init_state(net, 7, SgdConfig(batch_size=4))
        loss, err = train_epoch(net, state, train_set, SgdConfig(batch_size=4))
        return loss, err, [w.tobytes() for _, w in net.parameters()]

    loss1, err1, params1 = run()
    loss2, err2, params2 = run()
    assert loss1 == loss2
    assert err1 == err2
    assert params1 == params2
    assert 0.0 <= err1 <= 1.0 and np.isfinite(loss1)


def test_evaluate_keeps_no_cache_and_leaves_training_unchanged(tmp_path):
    train_set, test_set = _tiny_sets(tmp_path)
    spec = build_pdcnn([3, 3], input_shape=(3, 20, 20), config=TINY)
    cfg = SgdConfig(batch_size=4)

    def run(evaluate_between):
        net = PdcnnNet(spec, T.Rng(1), dtype=np.float64)
        state = init_state(net, 7, cfg)
        train_epoch(net, state, train_set, cfg)
        if evaluate_between:
            evaluate(net, test_set)
            assert net._plan is None
            with pytest.raises(ValueError, match="needs a new forward"):
                net.backward(np.zeros((1, 2)))
        train_epoch(net, state, train_set, cfg)
        return [w.tobytes() for _, w in net.parameters()]

    assert run(True) == run(False)


def test_train_epoch_lr_zero_freezes(tmp_path):
    train_set, _ = _tiny_sets(tmp_path)
    spec = build_pdcnn([3], input_shape=(3, 20, 20), config=TINY)
    net = PdcnnNet(spec, T.Rng(1), dtype=np.float64)
    before = [w.copy() for _, w in net.parameters()]
    cfg = SgdConfig(learning_rate=0.0, batch_size=4)
    state = init_state(net, 7, cfg)
    loss, _ = train_epoch(net, state, train_set, cfg)
    assert np.isfinite(loss) and loss > 0
    for (_, w), b in zip(net.parameters(), before):
        npt.assert_array_equal(w, b)


def test_train_epoch_empty_errors():
    spec = build_pdcnn([3], input_shape=(3, 20, 20), config=TINY)
    net = PdcnnNet(spec, T.Rng(1))
    state = init_state(net, 7, SgdConfig())
    with pytest.raises(ValueError):
        train_epoch(net, state, Dataset([], crop_size=20), SgdConfig())


@pytest.mark.parametrize("field,value,message", [
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ("batch_size", -1, "batch_size must be >= 1, got -1"),
    ("max_epochs", -1, "max_epochs must be >= 0, got -1"),
    ("learning_rate", float("nan"), "learning_rate must be finite, got nan"),
    ("momentum", float("inf"), "momentum must be finite, got inf"),
    ("weight_decay", float("-inf"), "weight_decay must be finite, got -inf"),
    ("lr_drop", float("nan"), "lr_drop must be finite, got nan"),
])
def test_sgd_config_rejects_bad_values(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SgdConfig(**{field: value})


def test_sgd_config_allows_zero_learning_rate_and_epochs():
    cfg = SgdConfig(learning_rate=0.0, max_epochs=0, batch_size=1)
    assert (cfg.learning_rate, cfg.max_epochs, cfg.batch_size) == (0.0, 0, 1)


def test_train_zero_epochs(tmp_path):
    train_set, test_set = _tiny_sets(tmp_path)
    spec = build_pdcnn([3], input_shape=(3, 20, 20), config=TINY)
    net, curve = train(spec, train_set, test_set,
                       SgdConfig(max_epochs=0), seed=1)
    assert len(curve) == 0
    ref = PdcnnNet(spec, T.Rng(T.mix_seed(1, 1)), dtype=np.float64)
    for (_, w), (_, r) in zip(net.parameters(), ref.parameters()):
        npt.assert_array_equal(w, r)


def test_train_curve_length_and_determinism(tmp_path):
    train_set, test_set = _tiny_sets(tmp_path)
    spec = build_pdcnn([3], input_shape=(3, 20, 20), config=TINY)
    cfg = SgdConfig(max_epochs=3, batch_size=4)
    net1, curve1 = train(spec, train_set, test_set, cfg, seed=4)
    net2, curve2 = train(spec, train_set, test_set, cfg, seed=4)
    assert len(curve1) == 3
    assert [r.epoch for r in curve1] == [1, 2, 3]
    for r1, r2 in zip(curve1, curve2):
        assert (r1.train_loss, r1.train_error, r1.test_error) == \
               (r2.train_loss, r2.train_error, r2.test_error)
    for (_, w1), (_, w2) in zip(net1.parameters(), net2.parameters()):
        assert w1.tobytes() == w2.tobytes()


def test_train_restores_best_epoch(tmp_path):
    train_set, test_set = _tiny_sets(tmp_path)
    spec = build_pdcnn([3], input_shape=(3, 20, 20), config=TINY)
    net, curve = train(spec, train_set, test_set,
                       SgdConfig(max_epochs=4, batch_size=4), seed=4)
    best = min(curve, key=lambda r: r.test_error)
    assert evaluate(net, test_set) == pytest.approx(best.test_error)


def test_train_lr_schedule_drops_on_plateau(tmp_path, monkeypatch):
    train_set, test_set = _tiny_sets(tmp_path)
    spec = build_pdcnn([3], input_shape=(3, 20, 20), config=TINY)
    # a vanishing rate freezes the model, so test error plateaus from epoch 1
    # and the schedule must halve the rate after epochs 3 and 5
    cfg = SgdConfig(learning_rate=1e-12, max_epochs=5, batch_size=4,
                    lr_drop=0.5, lr_patience=2)
    captured = []
    import pdcnn.optim as optim_module
    orig_step = optim_module.sgd_step

    def spy(state, grads, c):
        captured.append(state.learning_rate)
        return orig_step(state, grads, c)

    monkeypatch.setattr(optim_module, "sgd_step", spy)
    train(spec, train_set, test_set, cfg, seed=4)
    batches_per_epoch = len(captured) // 5
    per_epoch = captured[::batches_per_epoch]
    assert per_epoch[:4] == [1e-12, 1e-12, 1e-12, 0.5e-12]
    assert per_epoch[4] == 0.5e-12


def test_stop_when_ends_early(tmp_path):
    train_set, test_set = _tiny_sets(tmp_path)
    spec = build_pdcnn([3], input_shape=(3, 20, 20), config=TINY)
    net, curve = train(spec, train_set, test_set,
                       SgdConfig(max_epochs=10, batch_size=4), seed=4,
                       stop_when=lambda r: r.epoch >= 2)
    assert len(curve) == 2


def test_curve_csv_round_trip(tmp_path):
    curve = [EpochRecord(1, 0.693147, 0.5, 0.5, 1.25),
             EpochRecord(2, 0.401, 0.25, 0.3, 1.5)]
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "epoch,train_loss,train_error,test_error,seconds"
    assert "\r" not in text
    back = read_curve_csv(path)
    assert len(back) == 2
    assert back[0].train_loss == pytest.approx(0.693147)
    assert back[1].seconds == pytest.approx(1.5)


def test_curve_csv_timing_zeroed(tmp_path):
    curve = [EpochRecord(1, 0.7, 0.5, 0.5, 123.456)]
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path, timing=False)
    assert path.read_text(encoding="utf-8").splitlines()[1].endswith(",0.000")
