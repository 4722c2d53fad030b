"""Loaded by pytest before any test module, so pdcnn is imported before
numpy: its one-BLAS-thread pin (pdcnn/__init__.py) then holds for the whole
test process, as it does for the `pdcnn` command."""

import pdcnn  # noqa: F401
