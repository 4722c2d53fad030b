import math

import numpy as np
import pytest

from pdcnn import tensor as T
from pdcnn.arch import ArchConfig, build_pdcnn
from pdcnn.diag import (convergence_time, detect_convergence,
                        filter_variance, write_convergence_csv,
                        write_variance_csv)
from pdcnn.network import PdcnnNet
from pdcnn.optim import EpochRecord
from pdcnn.search import (CandidateEval, SearchRound, SearchTrace,
                          write_trace_csv)
from oracles import variance_loop

TINY = ArchConfig(conv1_stride=2, pool_window=2, pool_stride=2,
                  filter_scale=0.05)


def _net(depths, seed=1):
    spec = build_pdcnn(depths, input_shape=(3, 20, 20), config=TINY)
    return PdcnnNet(spec, T.Rng(seed))


# --- filter variance ---

def test_filter_variance_constant_weights_zero():
    net = _net([4])
    for layers in net.branches:
        layers[0].weights[...] = 0.25
    rows, mean = filter_variance(net)
    assert [variance for _, _, variance in rows] == [0.0]
    assert mean == 0.0


@pytest.mark.parametrize("values,want", [([1.0, 2.0, 3.0, 4.0], 1.25),
                                         ([-1.0, 1.0], 1.0)])
def test_filter_variance_toy_values(values, want):
    net = _net([4])
    conv1 = net.branches[0][0]
    conv1.weights = np.array(values).reshape(1, 1, 1, -1)
    (_, _, variance), = filter_variance(net)[0]
    assert variance == pytest.approx(want, abs=0)
    assert variance == pytest.approx(variance_loop(values), abs=0)


def test_filter_variance_three_branches():
    rows, mean = filter_variance(_net([4, 3, 4]))
    assert len(rows) == 3
    assert [branch for branch, _, _ in rows] == ["branch1", "branch2",
                                                 "branch3"]
    assert all(layer == "conv1" for _, layer, _ in rows)
    expected_mean = sum(variance for _, _, variance in rows) / 3
    assert mean == pytest.approx(expected_mean, abs=0)


def test_filter_variance_translation_invariant():
    net = _net([4, 3])
    before = filter_variance(net)[0]
    net.branches[0][0].weights += 3.7
    after = filter_variance(net)[0]
    assert abs(after[0][2] - before[0][2]) < 1e-12


def test_filter_variance_init_scale():
    # sigma 0.01 conv1 with >= 4096 weights: variance close to 1e-4
    spec = build_pdcnn([4], input_shape=(3, 224, 224))
    net = PdcnnNet(spec, T.Rng(8))
    assert net.branches[0][0].weights.size >= 4096
    (_, _, variance), = filter_variance(net)[0]
    assert 0.5e-4 <= variance <= 1.5e-4


def test_filter_variance_excludes_bias():
    net = _net([4])
    net.branches[0][0].bias[...] = 100.0
    with_bias = filter_variance(net)
    net.branches[0][0].bias[...] = 0.0
    without = filter_variance(net)
    assert with_bias == without


# --- convergence time ---

def test_convergence_time_recorded_rows():
    assert convergence_time(8.32633, 3, 967) == 24155
    assert convergence_time(10.78233, 3, 988) == 31959
    assert convergence_time(6.26900, 3, 923) == 17359


def test_convergence_time_zero():
    assert convergence_time(0.0, 5, 100) == 0
    assert convergence_time(3.5, 0, 100) == 0


def test_convergence_time_multiplicative_and_monotone():
    base = 8.32633 * 3 * 967
    assert abs(2 * base - 8.32633 * 3 * (2 * 967)) < 1e-6
    assert convergence_time(8.32633, 3, 2 * 967) in (2 * 24155, 2 * 24155 - 1)
    assert convergence_time(9.0, 3, 967) >= convergence_time(8.32633, 3, 967)
    assert convergence_time(8.32633, 4, 967) >= convergence_time(8.32633, 3, 967)


def test_convergence_time_rejects_negative():
    with pytest.raises(ValueError):
        convergence_time(-1.0, 3, 967)


@pytest.mark.parametrize("t,n,e", [(math.inf, 3, 967), (math.nan, 3, 967),
                                   (math.inf, 3, 0), (1e300, 100000, 100000),
                                   pytest.param(1.0, 2, 10**400,
                                                id="1.0-2-10**400")])
def test_convergence_time_rejects_non_finite(t, n, e):
    with pytest.raises(ValueError, match="finite product"):
        convergence_time(t, n, e)


# --- convergence detection ---

def _curve(errors):
    return [EpochRecord(i + 1, 0.5, 0.5, e, 0.0) for i, e in enumerate(errors)]


def test_detect_constant_curve():
    assert detect_convergence(_curve([0.3] * 6), window=3, tol=0.01) == 1


def test_detect_strictly_decreasing_never():
    curve = _curve([0.5, 0.4, 0.3, 0.2, 0.1])
    assert detect_convergence(curve, window=2, tol=0.0) is None


def test_detect_example_curve():
    curve = _curve([0.5, 0.3, 0.2, 0.2, 0.2])
    assert detect_convergence(curve, window=3, tol=0.01) == 3


def test_detect_window_longer_than_curve():
    assert detect_convergence(_curve([0.5, 0.4]), window=3, tol=0.1) is None


def test_detect_suffix_constant_bound():
    rng = np.random.default_rng(2)
    for _ in range(10):
        head = list(rng.uniform(0.2, 0.9, size=rng.integers(1, 8)))
        suffix_start = len(head) + 1  # 1-based epoch where the plateau begins
        curve = _curve(head + [0.1] * 12)
        window = int(rng.integers(1, 5))
        got = detect_convergence(curve, window=window, tol=0.005)
        assert got is not None
        assert got <= suffix_start + window


def test_detect_rejects_bad_window():
    with pytest.raises(ValueError):
        detect_convergence(_curve([0.1]), window=0)


# --- report emission ---

def test_emit_empty_variance_header_only(tmp_path):
    path = tmp_path / "v.csv"
    write_variance_csv([], None, path)
    assert path.read_text(encoding="utf-8") == "branch,layer,variance\n"


def test_emit_variance_with_mean_row(tmp_path):
    rows = [("branch1", "conv1", 0.007642), ("branch2", "conv1", 0.013350)]
    path = tmp_path / "v.csv"
    write_variance_csv(rows, (0.007642 + 0.01335) / 2, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "branch,layer,variance"
    assert lines[1] == "branch1,conv1,0.007642"
    assert lines[2] == "branch2,conv1,0.01335"
    assert lines[3] == f"mean,,{(0.007642 + 0.01335) / 2:.6g}"


def test_emit_convergence_report(tmp_path):
    path = tmp_path / "c.csv"
    write_convergence_csv(8.32633, 3, 967, 24155, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["t,n,e,T", "8.32633,3,967,24155"]


def test_emit_search_trace(tmp_path):
    trace = SearchTrace(
        rounds=[SearchRound(1, (CandidateEval((3,), 0.09916),
                                CandidateEval((4,), 0.08571)), (4,)),
                SearchRound(2, (CandidateEval((4, 3), 0.082353),), None)],
        winner=(4,), winner_error=0.08571)
    path = tmp_path / "s.csv"
    write_trace_csv(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "round,candidate_depths,error,chosen"
    assert lines[1] == "1,3,0.09916,4"
    assert lines[2] == "1,4,0.08571,4"
    assert lines[3] == '2,"4,3",0.082353,stop'
    assert lines[4] == "winner,4,0.08571,"


def test_emit_byte_deterministic(tmp_path):
    rows = [("branch1", "conv1", 1 / 3)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_variance_csv(rows, 1 / 3, p1)
    write_variance_csv(rows, 1 / 3, p2)
    assert p1.read_bytes() == p2.read_bytes()
