"""Layered benchmark for marketclear; run it with ``python3 perfbench/run.py``."""

WORKLOADS = ("tu_sweep", "bisect", "dalm", "cli_batch")
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

# Thread-count variables pinned to 1 before numpy loads.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
