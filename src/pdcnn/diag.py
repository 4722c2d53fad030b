"""Analysis instruments: first-layer filter variance, convergence detection,
the T = t * n * e convergence-time model, and CSV report emission.

Filter variance is the population variance of a branch's first convolutional
layer weights (bias excluded); higher variance indicates better-learnt
filters, and the mean over branches compares architectures.
"""

import math
from dataclasses import dataclass

from .arch import format_int_list, write_table
from .search import SearchTrace
from .tensor import tensor_variance


@dataclass(frozen=True)
class FilterVarianceEntry:
    branch: str
    layer: str
    variance: float


@dataclass(frozen=True)
class FilterVarianceReport:
    entries: tuple

    @property
    def mean_variance(self):
        """Mean of the entries' variances; None when there are no entries."""
        if not self.entries:
            return None
        return sum(e.variance for e in self.entries) / len(self.entries)


@dataclass(frozen=True)
class ConvergenceReport:
    t: float      # mean per-batch training time, seconds
    n: int        # number of training batches
    e: int        # convergence epochs
    total: int    # T = round(t * n * e), whole seconds


def filter_variance(net) -> FilterVarianceReport:
    """One entry per branch: variance of its first conv layer's weights."""
    entries = {}
    for name, array in net.parameters():
        branch, layer, kind = name.split("/")
        if branch != "head" and kind == "weights" and branch not in entries:
            entries[branch] = FilterVarianceEntry(branch, layer,
                                                  tensor_variance(array))
    return FilterVarianceReport(tuple(entries.values()))


def convergence_time(t: float, n: float, e: float) -> int:
    """Total convergence time T = t * n * e, rounded to the nearest second."""
    total = t * n * e
    if not (t >= 0 and n >= 0 and e >= 0 and math.isfinite(total)):
        raise ValueError(f"convergence_time inputs must be >= 0 with a finite "
                         f"product, got ({t}, {n}, {e})")
    return int(math.floor(total + 0.5))


def detect_convergence(curve, window: int = 10, tol: float = 0.005):
    """First epoch from which every length-`window` test-error range of the
    EpochRecord list curve stays strictly below tol; None if the curve never
    stabilizes (or is shorter than the window)."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    errors = [r.test_error for r in curve]
    last_start = len(errors) - window  # 0-based index of the final window
    if last_start < 0:
        return None
    first = None
    for start in range(last_start, -1, -1):
        chunk = errors[start:start + window]
        if max(chunk) - min(chunk) < tol:
            first = start + 1  # epochs are 1-based
        else:
            break
    return first


def emit_report(report, path) -> None:
    """Serialize a report as CSV (LF endings, 6 significant digits);
    byte-deterministic for equal inputs."""
    if isinstance(report, FilterVarianceReport):
        header = ["branch", "layer", "variance"]
        rows = [[e.branch, e.layer, f"{e.variance:.6g}"]
                for e in report.entries]
        if report.entries:
            rows.append(["mean", "", f"{report.mean_variance:.6g}"])
    elif isinstance(report, ConvergenceReport):
        header = ["t", "n", "e", "T"]
        rows = [[f"{report.t:.6g}", report.n, report.e, report.total]]
    elif isinstance(report, SearchTrace):
        header = ["round", "candidate_depths", "error", "chosen"]
        rows = [[rnd.number, format_int_list(cand.depths), f"{cand.error:.6g}",
                 format_int_list(rnd.chosen) if rnd.chosen else "stop"]
                for rnd in report.rounds for cand in rnd.candidates]
        rows.append(["winner", format_int_list(report.winner),
                     f"{report.winner_error:.6g}", ""])
    else:
        raise TypeError(f"cannot emit report of type {type(report).__name__}")
    write_table(path, header, rows)
