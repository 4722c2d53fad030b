"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The desk-scale learning criterion trains real networks and dominates the
runtime (a few minutes on one CPU core).
"""

import time
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt
import pytest

from pdcnn import tensor as T
from pdcnn.arch import ArchConfig, build_pdcnn, param_count, shape_check
from pdcnn.cli import main
from pdcnn.data import (apply_choice, gen_synthetic, rotate_augment,
                        split_batches, write_manifest)
from pdcnn.diag import convergence_time, filter_variance
from pdcnn.network import PdcnnNet, save_model
from pdcnn.optim import SgdConfig, TrainState, evaluate, sgd_step, train
from pdcnn.search import greedy_pdcnn_search, replay_oracle
from gradcheck import run_gradient_checks
from oracles import all_choices, softmax_xent

DESK_SEED = 20240
DESK_CONFIG = ArchConfig(conv1_stride=2, filter_scale=0.25, init_sigma=0.06)

REPLAY_ERRORS = {
    (3,): 0.09916, (4,): 0.08571, (5,): 0.09832,
    (4, 3): 0.082353, (4, 4): 0.088235, (4, 5): 0.107653,
    (4, 3, 3): 0.081513, (4, 3, 4): 0.079832, (4, 3, 5): 0.089916,
    (4, 3, 4, 3): 0.094118, (4, 3, 4, 4): 0.083193, (4, 3, 4, 5): 0.089916,
}


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {num} PASS: {description}")


@pytest.fixture(scope="session")
def desk_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk") / "data"
    ds = gen_synthetic(1000, 64, 0.3, seed=DESK_SEED, out_dir=out)
    ds.crop_size = 56
    return ds


def test_01_gradient_correctness():
    with criterion(1, "analytic gradients match finite differences "
                      "(rel err < 1e-4, >= 10 configs per op, < 30 s)"):
        started = time.perf_counter()
        worst = run_gradient_checks(configs_per_op=10, seed=424242)
        elapsed = time.perf_counter() - started
        assert set(worst) == {"conv2d", "maxpool", "lrn", "relu",
                              "fully_connected", "softmax_xent"}
        for op, err in worst.items():
            assert err < 1e-4, f"{op}: worst rel err {err:.3g}"
        assert elapsed < 30.0, f"gradient checks took {elapsed:.1f} s"


def test_02_search_fixture_replay():
    with criterion(2, "greedy search replays the recorded error rates: "
                      "4 -> 4,3 -> 4,3,4, stop at round 4"):
        started = time.perf_counter()
        trace = greedy_pdcnn_search(
            (3, 4, 5), replay_oracle(REPLAY_ERRORS), max_branches=4)
        elapsed = time.perf_counter() - started
        assert trace.rounds[0].chosen == (4,)
        round_errors = {r.number: {c.depths: c.error for c in r.candidates}
                        for r in trace.rounds}
        assert round_errors[1][(4,)] == 0.08571
        assert trace.rounds[1].chosen == (4, 3)
        assert round_errors[2][(4, 3)] == 0.082353
        assert trace.rounds[2].chosen == (4, 3, 4)
        assert round_errors[3][(4, 3, 4)] == 0.079832
        assert trace.rounds[3].chosen is None
        assert len(trace.rounds) == 4
        assert all(err >= 0.079832 for err in round_errors[4].values())
        assert trace.winner == (4, 3, 4)
        assert trace.winner_error == 0.079832
        assert elapsed < 1.0


def test_03_convergence_time_rows():
    with criterion(3, "T = t*n*e reproduces all three recorded rows within "
                      "1 second"):
        assert abs(convergence_time(8.32633, 3, 967) - 24155) <= 1
        assert abs(convergence_time(10.78233, 3, 988) - 31959) <= 1
        assert abs(convergence_time(6.26900, 3, 923) - 17359) <= 1


def test_04_augmentation_counts(tmp_path):
    with criterion(4, "256->224 crop/flip enumeration yields exactly 2048 "
                      "distinct patches; rotation exactly quadruples"):
        choices = all_choices(256, 224)
        assert len(choices) == 2048
        assert len(set(choices)) == 2048
        image = np.arange(256 * 256, dtype=np.float64).reshape(1, 256, 256)
        seen = set()
        for choice in choices:
            seen.add(hash(apply_choice(image, choice, 224).tobytes()))
        assert len(seen) == 2048

        small = gen_synthetic(3, 16, 0.5, seed=5, out_dir=tmp_path)
        rotated = rotate_augment(small)
        assert len(rotated) == 4 * len(small)
        assert sum(r.label for r in rotated.records) == \
            4 * sum(r.label for r in small.records)


def test_05_desk_scale_learning(desk_dataset, tmp_path, capsys):
    with criterion(5, "scaled 4-layer branch reaches <= 5% train error "
                      "within 30 epochs; 3-branch net matches its test error "
                      "+ 0.02; runtime <= 15 min"):
        started = time.perf_counter()
        train_set, test_set = split_batches(
            desk_dataset, T.Rng(T.mix_seed(DESK_SEED, 5)))
        sgd = SgdConfig(learning_rate=0.005, max_epochs=30)

        spec_single = build_pdcnn([4], input_shape=(3, 56, 56),
                                  config=DESK_CONFIG)
        net_single, curve_single = train(
            spec_single, train_set, test_set, sgd, seed=99, dtype=np.float32,
            stop_when=lambda r: r.train_error <= 0.02)
        best_train = min(r.train_error for r in curve_single)
        assert len(curve_single) <= 30
        assert best_train <= 0.05, f"train error {best_train:.4f}"
        single_error = evaluate(net_single, test_set)

        target = single_error + 0.02
        spec_multi = build_pdcnn([4, 3, 4], input_shape=(3, 56, 56),
                                 config=DESK_CONFIG)
        net_multi, _ = train(
            spec_multi, train_set, test_set, sgd, seed=99, dtype=np.float32,
            stop_when=lambda r: r.test_error <= target)
        multi_error = evaluate(net_multi, test_set)
        assert multi_error <= target, \
            f"3-branch {multi_error:.4f} vs single {single_error:.4f} + 0.02"

        # evaluating the saved model on its own train split through the CLI
        # stays within the train-error bound
        save_model(net_single, tmp_path / "model.bin")
        write_manifest(tmp_path / "train.csv", train_set.records)
        assert main(["eval", "--model", str(tmp_path / "model.bin"),
                     "--manifest", str(tmp_path / "train.csv")]) == 0
        printed = capsys.readouterr().out
        cli_error = float(printed.strip().rsplit("=", 1)[1])
        assert cli_error <= 0.05, f"cmd_eval on train split: {cli_error:.4f}"

        elapsed = time.perf_counter() - started
        assert elapsed <= 900.0, f"desk run took {elapsed:.0f} s"


def test_06_loss_arithmetic():
    with criterion(6, "uniform 2-class loss is ln 2 within 1e-9; gradient "
                      "components sum to 0 within 1e-12"):
        loss, grad = softmax_xent(np.zeros(2), 0)
        assert abs(loss - np.log(2.0)) < 1e-9
        assert abs(float(grad.sum())) < 1e-12
        rng = np.random.default_rng(31)
        for _ in range(50):
            _, grad = softmax_xent(rng.normal(0, 4, 2), int(rng.integers(0, 2)))
            assert abs(float(grad.sum())) < 1e-12


def test_07_optimizer_oracle():
    with criterion(7, "two-step momentum trajectory 1 -> 0.9 -> 0.71 exact; "
                      "momentum-0 step equals w - lr*g bit-for-bit"):
        params = [("w/weights", np.array([1.0]))]
        state = TrainState(parameters=params,
                           velocities=[("w/weights", np.zeros(1))],
                           epoch=0, seed=0, learning_rate=0.1)
        cfg = SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        grads = [("w/weights", np.array([1.0]))]
        sgd_step(state, grads, cfg)
        assert state.parameters[0][1][0] == 0.9
        sgd_step(state, grads, cfg)
        assert state.parameters[0][1][0] == 0.71

        rng = np.random.default_rng(12)
        w0 = rng.normal(0, 1, 64)
        g = rng.normal(0, 1, 64)
        state = TrainState(parameters=[("w/weights", w0.copy())],
                           velocities=[("w/weights", np.zeros(64))],
                           epoch=0, seed=0, learning_rate=0.07)
        cfg = SgdConfig(learning_rate=0.07, momentum=0.0, weight_decay=0.0)
        sgd_step(state, [("w/weights", g)], cfg)
        assert state.parameters[0][1].tobytes() == (w0 - 0.07 * g).tobytes()


def test_08_shape_and_parameter_arithmetic():
    with criterion(8, "full-scale shapes stay positive at 3x224x224; conv1 "
                      "has 9472 parameters; branch counts are additive"):
        spec = build_pdcnn([4], input_shape=(3, 224, 224))
        rows = shape_check(spec)
        assert all(all(v >= 1 for v in r.shape) for r in rows)
        table = {(r.branch, r.layer): r.shape for r in rows}
        assert table[("branch1", "conv1")] == (64, 56, 56)

        assert (rows[0].layer, rows[0].params) == ("conv1", 9472)

        def conv_params(depths):  # every row's parameters but the head's
            return sum(r.params for r in shape_check(build_pdcnn(depths))[:-1])

        pair = build_pdcnn([4, 3])
        fused = shape_check(pair)[-2].shape[0]
        assert param_count(pair) == (conv_params([4]) + conv_params([3])
                                     + 2 * fused + 2)


def test_09_cmd_train_determinism(tmp_path):
    with criterion(9, "repeated cmd_train runs produce byte-identical "
                      "curve.csv and model.bin in double precision"):
        data = tmp_path / "data"
        assert main(["gendata", "--out", str(data), "--n-per-class", "8",
                     "--size", "20", "--difficulty", "0", "--seed", "7"]) == 0
        arch = tmp_path / "arch.txt"
        arch.write_text("conv1_stride=2\npool_window=2\npool_stride=2\n"
                        "filter_scale=0.05\ninit_sigma=0.3\ninput_size=20\n",
                        encoding="utf-8")
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--manifest", str(data / "manifest.csv"),
                         "--depths", "3", "--arch", str(arch),
                         "--epochs", "3", "--seed", "11", "--out", str(out),
                         "--batch-size", "4", "--dtype", "float64"]) == 0
            outputs.append(out)
        r1, r2 = outputs
        assert (r1 / "curve.csv").read_bytes() == (r2 / "curve.csv").read_bytes()
        assert (r1 / "model.bin").read_bytes() == (r2 / "model.bin").read_bytes()


def test_10_variance_diagnostic():
    with criterion(10, "filter variance: 0 for constant weights, 1.25 for "
                       "{1,2,3,4}, about 1e-4 for sigma-0.01 initialization"):
        tiny = ArchConfig(conv1_stride=2, pool_window=2, pool_stride=2,
                          filter_scale=0.05)
        net = PdcnnNet(build_pdcnn([4], input_shape=(3, 20, 20), config=tiny),
                       T.Rng(3))
        net.branches[0][0].weights[...] = 0.125
        rows, mean = filter_variance(net)
        assert rows == [("branch1", "conv1", 0.0)]
        assert mean == 0.0

        net.branches[0][0].weights = \
            np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        rows, _ = filter_variance(net)
        assert rows == [("branch1", "conv1", 1.25)]

        full = PdcnnNet(build_pdcnn([4], input_shape=(3, 224, 224)), T.Rng(21))
        conv1 = full.branches[0][0]
        assert conv1.weights.size >= 4096
        (_, _, variance), = filter_variance(full)[0]
        assert 0.5e-4 <= variance <= 1.5e-4
