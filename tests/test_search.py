import numpy as np
import pytest

from pdcnn import optim as O
from pdcnn import search as S
from pdcnn import tensor as T
from pdcnn.arch import ArchConfig
from pdcnn.data import gen_synthetic, split_batches
from pdcnn.optim import SgdConfig, evaluate
from pdcnn.search import (OracleError, greedy_pdcnn_search, replay_oracle,
                          train_eval_oracle)

# recorded error rates for every single branch and every greedy extension,
# used as the replay fixture throughout
SINGLE = {(3,): 0.09916, (4,): 0.08571, (5,): 0.09832}
PAIRS = {(4, 3): 0.082353, (4, 4): 0.088235, (4, 5): 0.107653}
TRIPLES = {(4, 3, 3): 0.081513, (4, 3, 4): 0.079832, (4, 3, 5): 0.089916}
QUADS = {(4, 3, 4, 3): 0.094118, (4, 3, 4, 4): 0.083193, (4, 3, 4, 5): 0.089916}
FULL_FIXTURE = {**SINGLE, **PAIRS, **TRIPLES, **QUADS}


def test_replay_oracle_lookup():
    oracle = replay_oracle({(4,): 0.1})
    assert oracle((4,)) == 0.1
    assert oracle([4]) == 0.1


def test_replay_oracle_miss_names_depths():
    oracle = replay_oracle({(4,): 0.1})
    with pytest.raises(OracleError, match=r"\[3\]"):
        oracle((3,))


def test_replay_oracle_empty_fixture():
    with pytest.raises(ValueError):
        replay_oracle({})


def test_greedy_full_replay():
    trace = greedy_pdcnn_search((3, 4, 5), replay_oracle(FULL_FIXTURE),
                                max_branches=4)
    assert trace.winner == (4, 3, 4)
    assert trace.winner_error == pytest.approx(0.079832, abs=0)
    assert trace.failure == ""
    assert len(trace.rounds) == 4

    r1, r2, r3, r4 = trace.rounds
    assert r1.chosen == (4,)
    assert {c.depths: c.error for c in r1.candidates} == SINGLE
    assert r2.chosen == (4, 3)
    assert {c.depths: c.error for c in r2.candidates} == PAIRS
    assert r3.chosen == (4, 3, 4)
    assert {c.depths: c.error for c in r3.candidates} == TRIPLES
    assert r4.chosen is None  # stop: every 4-branch extension is worse
    assert {c.depths: c.error for c in r4.candidates} == QUADS
    assert all(c.error >= trace.winner_error for c in r4.candidates)


def test_greedy_incumbent_error_non_increasing():
    trace = greedy_pdcnn_search((3, 4, 5), replay_oracle(FULL_FIXTURE),
                                max_branches=4)
    errors = []
    for rnd in trace.rounds:
        if rnd.chosen is not None:
            errors.append(next(c.error for c in rnd.candidates
                           if c.depths == rnd.chosen))
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_greedy_trace_complete():
    trace = greedy_pdcnn_search((3, 4, 5), replay_oracle(FULL_FIXTURE),
                                max_branches=4)
    for rnd in trace.rounds:
        assert [c.depths[-1] for c in rnd.candidates] == [3, 4, 5]


def test_greedy_max_branches_one_is_argmin():
    trace = greedy_pdcnn_search((3, 4, 5), replay_oracle(SINGLE),
                                max_branches=1)
    assert trace.winner == (4,)
    assert len(trace.rounds) == 1
    assert len(trace.winner) == 1


def test_greedy_branch_limit_ends_without_stop_round():
    fixture = {(3,): 0.5, (3, 3): 0.4}
    trace = greedy_pdcnn_search((3,), replay_oracle(fixture), max_branches=2)
    assert trace.winner == (3, 3)
    assert len(trace.rounds) == 2
    assert trace.rounds[-1].chosen == (3, 3)


def test_greedy_tie_breaks_to_smaller_depth():
    fixture = {(3,): 0.2, (4,): 0.2, (5,): 0.3,
               (3, 3): 0.5, (3, 4): 0.5, (3, 5): 0.5}
    trace = greedy_pdcnn_search((5, 4, 3), replay_oracle(fixture),
                                max_branches=2)
    assert trace.rounds[0].chosen == (3,)
    assert trace.winner == (3,)


def test_greedy_requires_strict_improvement():
    fixture = {(3,): 0.2, (3, 3): 0.2}
    trace = greedy_pdcnn_search((3,), replay_oracle(fixture), max_branches=3)
    assert trace.winner == (3,)
    assert trace.rounds[-1].chosen is None


def test_greedy_oracle_failure_carries_partial_trace():
    trace = greedy_pdcnn_search((3, 4, 5), replay_oracle(SINGLE),
                                max_branches=3)
    assert trace.failure == "no recorded error for depth list [4, 3]"
    assert len(trace.rounds) == 2
    assert trace.rounds[0].chosen == (4,)
    assert trace.rounds[1].chosen is None
    assert trace.rounds[1].candidates == ()  # (4, 3) failed first
    assert trace.winner == (4,)


def test_greedy_validates_arguments():
    with pytest.raises(ValueError):
        greedy_pdcnn_search((), replay_oracle(SINGLE), max_branches=1)
    with pytest.raises(ValueError):
        greedy_pdcnn_search((3,), replay_oracle(SINGLE), max_branches=0)


def test_greedy_rejects_max_branches_above_limit_before_any_round():
    # every round improves, so a limit of 5 would reach a 5-branch candidate
    fixture = {(3,) * k: 0.5 - 0.1 * k for k in range(1, 6)}
    replay = replay_oracle(fixture)
    asked = []

    def oracle(depths):
        asked.append(depths)
        return replay(depths)

    with pytest.raises(ValueError, match=r"max_branches must be in \[1, 4\], got 5"):
        greedy_pdcnn_search((3,), oracle, max_branches=5)
    assert asked == []
    trace = greedy_pdcnn_search((3,), oracle, max_branches=4)
    assert trace.winner == (3, 3, 3, 3)


def test_train_eval_oracle_deterministic(tmp_path):
    ds = gen_synthetic(6, 20, 0.0, seed=1, out_dir=tmp_path)
    ds.crop_size = 20
    train_set, test_set = split_batches(ds, T.Rng(3))
    config = ArchConfig(conv1_stride=2, pool_window=2, pool_stride=2,
                        filter_scale=0.05, init_sigma=0.3)
    oracle = train_eval_oracle(train_set, test_set,
                               SgdConfig(max_epochs=1, batch_size=4),
                               seed=5, input_shape=(3, 20, 20), config=config,
                               dtype=np.float64)
    e1 = oracle((3,))
    e2 = oracle((3,))
    assert e1 == e2
    assert 0.0 <= e1 <= 1.0


@pytest.mark.parametrize("epochs", [3, 0])
def test_train_eval_oracle_scores_the_restored_epoch(tmp_path, monkeypatch,
                                                     epochs):
    # one evaluation per epoch, none after training; only a zero-epoch run is
    # evaluated by the oracle itself. The score is the restored net's error,
    # here lower than the last epoch's.
    ds = gen_synthetic(10, 20, 0.0, seed=1, out_dir=tmp_path)
    ds.crop_size = 20
    train_set, test_set = split_batches(ds, T.Rng(3))
    calls = []
    runs = []

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    def kept(*args, **kwargs):
        runs.append(O.train(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(O, "evaluate", counted)
    monkeypatch.setattr(S, "evaluate", counted)
    monkeypatch.setattr(S, "train", kept)
    config = ArchConfig(conv1_stride=2, pool_window=2, pool_stride=2,
                        filter_scale=0.05, init_sigma=0.3)
    oracle = train_eval_oracle(train_set, test_set,
                               SgdConfig(max_epochs=epochs, batch_size=4,
                                         learning_rate=0.2),
                               seed=5, input_shape=(3, 20, 20), config=config)
    error = oracle((3,))
    assert len(calls) == max(epochs, 1)
    (net, curve), = runs
    assert error == evaluate(net, test_set)
    if epochs:
        assert error < curve[-1].test_error


def test_train_eval_oracle_wraps_failures(tmp_path):
    ds = gen_synthetic(4, 20, 0.0, seed=1, out_dir=tmp_path)
    ds.crop_size = 20
    train_set, test_set = split_batches(ds, T.Rng(3))
    # default full-scale strides collapse on 20-pixel inputs, so every
    # candidate must fail as an oracle error carrying its depth list
    oracle = train_eval_oracle(train_set, test_set, SgdConfig(max_epochs=1),
                               seed=5, input_shape=(3, 20, 20),
                               config=ArchConfig())
    with pytest.raises(OracleError, match=r"\[3\]"):
        oracle((3,))
    trace = greedy_pdcnn_search((3,), oracle, max_branches=1)
    assert trace.failure.startswith("candidate [3] failed: ")
    assert trace.rounds[0].candidates == ()
    assert trace.winner == ()
