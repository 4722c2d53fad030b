"""Spread across seeds of the training workloads' horizon loss.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/tolerance.py [seeds]

For each training workload and each seed 1..seeds (default 8), sets up the
workload's data and network and prints the float32 mean batch loss at the
step bench.py compares against float64. LOSS_TOL in bench.py is one tenth of
the standard deviation printed here.
"""

import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench import ROOT, SIZES, WORKLOAD_TYPES
from probe import Probe


def horizon_loss(name, seed, scratch):
    probe = Probe().install()
    try:
        wl = WORKLOAD_TYPES[name](SIZES[(name, "full")], seed, probe)
        wl.setup(scratch / f"{name}-{seed}")
        return wl.horizon_losses(np.float32)[-1]
    finally:
        probe.close()


def main():
    seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        for name in ("desk_train", "full_train"):
            losses = [horizon_loss(name, s, Path(scratch)) for s in range(1, seeds + 1)]
            sd = statistics.stdev(losses)
            print(f"{name}: step {SIZES[(name, 'full')].horizon} loss over "
                  f"seeds 1..{seeds}: " + " ".join(f"{x:.6f}" for x in losses))
            print(f"{name}: stdev {sd:.3e}, tolerance stdev/10 = {sd / 10:.1e}")


if __name__ == "__main__":
    main()
