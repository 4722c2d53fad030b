"""Greedy branch-selection search and its search.csv trace writer.

The search fixes the incumbent branch list and tries appending each candidate
depth: round 1 evaluates the single depths, round k+1 evaluates every
one-branch extension of the incumbent, and the search stops when no extension
strictly improves the incumbent's error (or the branch limit is reached).
Evaluation is abstract: an oracle maps a depth list to an error rate, realized
either by a full train-and-evaluate run or by a recorded replay table.
"""

from dataclasses import dataclass, field

from . import tensor as T
from .arch import branch_count, build_pdcnn
from .optim import evaluate, train

STREAM_SEARCH = 11


class OracleError(RuntimeError):
    """The evaluation oracle could not score a depth list."""


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
    failure: str = ""  # the oracle's message when it ended the search


def replay_oracle(table: dict):
    """Oracle over a {depth tuple: error rate} table; unknown lists fail."""
    if not table:
        raise ValueError("replay fixture is empty")

    def oracle(depths):
        key = tuple(depths)
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
    Returns the SearchTrace, whose winner is the chosen depth list. An oracle
    failure ends the search: the trace then holds the partial round, the
    incumbent as winner and the oracle's message as failure.
    """
    candidates = list(dict.fromkeys(int(d) for d in candidates))
    if not candidates:
        raise ValueError("candidate depth set is empty")
    branch_count(max_branches, "max_branches")

    trace = SearchTrace()
    incumbent, incumbent_error = (), float("inf")
    while len(incumbent) < max_branches:
        round_no = len(trace.rounds) + 1
        evals = []
        try:
            for depth in candidates:
                depths = incumbent + (depth,)
                evals.append(CandidateEval(depths, float(oracle(depths))))
        except OracleError as err:
            trace.failure = str(err)
        best = min(evals, key=lambda c: (c.error, c.depths[-1]), default=None)
        if trace.failure or not best.error < incumbent_error:
            trace.rounds.append(SearchRound(round_no, tuple(evals), None))
            break
        incumbent, incumbent_error = best.depths, best.error
        trace.rounds.append(SearchRound(round_no, tuple(evals), incumbent))
    trace.winner, trace.winner_error = incumbent, incumbent_error
    return trace


def write_trace_csv(trace, path) -> None:
    """search.csv: one row per candidate evaluation (round, depth list,
    error, the round's chosen list or "stop"), then the winner row; errors
    to 6 significant digits, LF endings."""
    rows = [[rnd.number, T.format_int_list(cand.depths), f"{cand.error:.6g}",
             T.format_int_list(rnd.chosen) if rnd.chosen else "stop"]
            for rnd in trace.rounds for cand in rnd.candidates]
    rows.append(["winner", T.format_int_list(trace.winner),
                 f"{trace.winner_error:.6g}", ""])
    T.write_table(path, ["round", "candidate_depths", "error", "chosen"], rows)
