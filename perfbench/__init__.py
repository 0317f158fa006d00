"""Benchmark of the eitdisk CLI pipeline; run it with ``python3 perfbench/run.py``."""

# pinned to one thread by run.py before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
