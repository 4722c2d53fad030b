"""Training engine for paralleled deep convolutional networks.

Branches of different convolutional depths run on one input, their final
feature maps fuse by concatenation under a shared 2-way classifier, and a
greedy fix-and-extend search picks the branch composition. Everything from
the layer gradients to the optimizer is implemented here on plain numpy
arrays, verifiable at desk scale via finite-difference checks, search-fixture
replay, and synthetic-data training.
"""

import os

# One BLAS thread for every engine GEMM: the engine runs its own threads over
# branches and sample slices, and a GEMM keeps the bits of a sequential run
# only on one BLAS thread (see layers.py). OpenBLAS reads these when numpy
# first loads it, so they hold for the `pdcnn` command and for programs that
# import pdcnn before numpy; a value already set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
