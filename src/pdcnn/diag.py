"""Analysis instruments: first-layer filter variance, convergence detection,
the T = t * n * e convergence-time model, and the writers of variance.csv
and convergence.csv.

Filter variance is the population variance of a branch's first convolutional
layer weights (bias excluded); higher variance indicates better-learnt
filters, and the mean over branches compares architectures.
"""

import math

import numpy as np

from .tensor import write_table


def filter_variance(net):
    """(rows, mean): one (branch, layer, variance) row per branch, the
    population variance of its first conv layer's weights, and the rows'
    mean variance (None when there are no rows)."""
    rows = [(f"branch{i + 1}", names[0], float(np.var(layers[0].weights)))
            for i, (layers, names) in enumerate(zip(net.branches,
                                                    net.branch_layer_names))]
    mean = sum(row[2] for row in rows) / len(rows) if rows else None
    return rows, mean


def write_variance_csv(rows, mean, path) -> None:
    """variance.csv: filter_variance's rows, then a mean row when there are
    rows; 6 significant digits, LF endings."""
    table = [[branch, layer, f"{variance:.6g}"]
             for branch, layer, variance in rows]
    if rows:
        table.append(["mean", "", f"{mean:.6g}"])
    write_table(path, ["branch", "layer", "variance"], table)


def convergence_time(t: float, n: float, e: float) -> int:
    """Total convergence time T = t * n * e, rounded to the nearest second."""
    try:
        total = t * n * e
    except OverflowError:  # an int too large for a float
        total = math.inf
    if not (t >= 0 and n >= 0 and e >= 0 and math.isfinite(total)):
        raise ValueError(f"convergence_time inputs must be >= 0 with a finite "
                         f"product, got ({t}, {n}, {e})")
    return int(math.floor(total + 0.5))


def write_convergence_csv(t, n, e, total, path) -> None:
    """convergence.csv: t (6 significant digits), n, e and T = total."""
    write_table(path, ["t", "n", "e", "T"], [[f"{t:.6g}", n, e, total]])


# detect_convergence's defaults, which report.txt and `diag --curve` share
CONVERGENCE_WINDOW = 10
CONVERGENCE_TOL = 0.005


def detect_convergence(curve, window: int = CONVERGENCE_WINDOW,
                       tol: float = CONVERGENCE_TOL):
    """First epoch from which every length-`window` test-error range of the
    EpochRecord list curve stays strictly below tol; None if the curve never
    stabilizes (or is shorter than the window)."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    errors = [r.test_error for r in curve]
    first = None
    for start in range(len(errors) - window, -1, -1):  # last window first
        chunk = errors[start:start + window]
        if not max(chunk) - min(chunk) < tol:
            break
        first = start + 1  # epochs are 1-based
    return first
