"""Greedy branch-selection search and the per-category model combiner.

The search fixes the incumbent branch list and tries appending each candidate
depth: round 1 evaluates the single depths, round k+1 evaluates every
one-branch extension of the incumbent, and the search stops when no extension
strictly improves the incumbent's error (or the branch limit is reached).
Evaluation is abstract: an oracle maps a depth list to an error rate, realized
either by a full train-and-evaluate run or by a recorded replay table.
"""

from dataclasses import dataclass, field

from . import tensor as T
from .arch import MAX_BRANCHES, build_pdcnn
from .optim import evaluate, train

STREAM_SEARCH = 11


class OracleError(RuntimeError):
    """The evaluation oracle could not score a depth list."""


class SearchError(RuntimeError):
    """Search aborted; carries the trace of every evaluation completed."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class CandidateEval:
    depths: tuple
    error: float


@dataclass(frozen=True)
class SearchRound:
    number: int
    candidates: tuple
    chosen: tuple = None  # winning depth list, or None for a stop round


@dataclass
class SearchTrace:
    rounds: list = field(default_factory=list)
    winner: tuple = ()
    winner_error: float = float("nan")


def replay_oracle(fixture: dict):
    """Oracle backed by a {depth list: error rate} table; unknown lists fail."""
    table = {tuple(int(d) for d in k): float(v) for k, v in fixture.items()}
    if not table:
        raise ValueError("replay fixture is empty")

    def oracle(depths):
        key = tuple(int(d) for d in depths)
        if key not in table:
            raise OracleError(f"no recorded error for depth list {list(key)}")
        return table[key]

    return oracle


def train_eval_oracle(train_set, test_set, cfg, seed, input_shape, config,
                      dtype="float64"):
    """Oracle that trains each candidate from scratch, re-seeded
    deterministically from (seed, round, candidate depth list), and scores it
    by its best epoch's test error: the epoch whose parameters train
    restores. Only a run of zero epochs is evaluated afresh. Any build or
    training failure surfaces as an OracleError so the search can stop with
    its partial trace intact."""

    def oracle(depths):
        try:
            run_seed = T.mix_seed(seed, STREAM_SEARCH, len(depths), *depths)
            spec = build_pdcnn(depths, input_shape=input_shape, config=config)
            net, curve = train(spec, train_set, test_set, cfg, run_seed,
                               dtype=dtype)
            if curve:
                return min(r.test_error for r in curve)
            return evaluate(net, test_set)
        except (ValueError, OSError) as err:
            raise OracleError(f"candidate {list(depths)} failed: {err}") from err

    return oracle


def greedy_pdcnn_search(candidates, oracle, max_branches: int):
    """Run the greedy fix-and-extend search.

    Ties break toward the smaller depth, then the earlier candidate position.
    Returns the SearchTrace, whose winner is the chosen depth list; an
    oracle failure raises SearchError carrying the partial trace.
    """
    candidates = list(dict.fromkeys(int(d) for d in candidates))
    if not candidates:
        raise ValueError("candidate depth set is empty")
    if not 1 <= max_branches <= MAX_BRANCHES:
        raise ValueError(f"max_branches must be in [1, {MAX_BRANCHES}], "
                         f"got {max_branches}")

    trace = SearchTrace()
    incumbent = ()
    incumbent_error = float("inf")
    round_no = 0
    while len(incumbent) < max_branches:
        round_no += 1
        evals = []
        try:
            for depth in candidates:
                depths = incumbent + (depth,)
                evals.append(CandidateEval(depths, float(oracle(depths))))
        except OracleError as err:
            trace.rounds.append(SearchRound(round_no, tuple(evals), None))
            trace.winner = incumbent
            trace.winner_error = incumbent_error
            raise SearchError(str(err), trace) from err
        best_i = min(range(len(evals)),
                     key=lambda i: (evals[i].error, evals[i].depths[-1], i))
        best = evals[best_i]
        if best.error < incumbent_error:
            incumbent = best.depths
            incumbent_error = best.error
            trace.rounds.append(SearchRound(round_no, tuple(evals), incumbent))
        else:
            trace.rounds.append(SearchRound(round_no, tuple(evals), None))
            break
    trace.winner = incumbent
    trace.winner_error = incumbent_error
    return trace


def per_category_combine(table: dict, models) -> dict:
    """Pick the best model per category by accuracy; ties go to the model
    listed first (by convention the fewer-branch one)."""
    models = list(models)
    chosen = {}
    for category, accuracies in table.items():
        best_model = None
        best_acc = -1.0
        for model in models:
            if model not in accuracies:
                raise ValueError(f"missing accuracy for category={category!r}, "
                                 f"model={model!r}")
            acc = float(accuracies[model])
            if not 0.0 <= acc <= 1.0:
                raise ValueError(f"accuracy out of range for "
                                 f"category={category!r}, model={model!r}: {acc}")
            if acc > best_acc:
                best_model = model
                best_acc = acc
        chosen[category] = best_model
    return chosen
