"""Thread counts and row blocks for the dense steps of the package.

The scan filters its points in column slices on one thread per usable CPU
(:func:`worker_count`).  The completion splits its dense products and its
transposed solve into contiguous row blocks by the same rule
(:func:`by_rows`), each block the same BLAS or LAPACK call on its own rows,
so every entry keeps its bits on any number of CPUs.  Blocks write into rows
of a buffer the calling thread allocated: every thread that calls BLAS keeps
a buffer of its own, and every thread's malloc arena keeps its peak, so the
workers allocate nothing of matrix size.  Steps of fewer than twice
``_MIN_ROWS`` rows start no thread, so the README-size solves (32 to 64
nodes, at most 128 rows) stay on the calling thread.

Two independent jobs run side by side by the same rule (:func:`alongside`):
the impedance stage simulates its Cauchy pairs on one worker thread while
the calling thread assembles the completion, when the completion has at
least twice ``_MIN_ROWS`` nodes and the process may use two or more CPUs.
Otherwise, as at the README's 64 nodes, both run on the calling thread, one
after the other, and no thread starts.  The completion splits its own
dense steps by rows as it would alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# fewest rows in a block of :func:`by_rows`
_MIN_ROWS = 128


def worker_count(items, min_slice):
    """Threads for ``items`` independent items: the CPUs this process may
    use, capped so that every thread gets at least ``min_slice`` items."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, items // min_slice))


def by_rows(step, rows, *owned):
    """Run ``step(block, *copies)`` over ``rows`` rows, in contiguous blocks.

    ``block`` is a ``slice`` of the rows, and the blocks cover them in order.
    ``step`` must compute the rows of its block from those rows alone and
    write them into its destination in place.  Each block gets its own copy
    of every array in ``owned``, made on the calling thread before the block
    is handed over: ``scipy.linalg.lu_solve`` shifts its pivot array in place
    while it runs, so threads that solve against one factor need one pivot
    array each.  An error in any block is raised once every block is done.
    """
    edges = np.linspace(0, rows, worker_count(rows, _MIN_ROWS) + 1).astype(int)
    blocks = [(slice(a, z), *(x.copy() for x in owned))
              for a, z in zip(edges[:-1], edges[1:])]
    if len(blocks) == 1:
        step(*blocks[0])
        return
    with ThreadPoolExecutor(len(blocks) - 1) as pool:
        futures = [pool.submit(step, *args) for args in blocks[1:]]
        step(*blocks[0])
        for future in futures:
            future.result()


def matmul_by_rows(a, b, out):
    """``a @ b`` written into ``out``, a C-contiguous array of its shape, by
    :func:`by_rows`; returns ``out``."""
    by_rows(lambda block: np.matmul(a[block], b, out=out[block]), len(a))
    return out


def alongside(main, side, rows):
    """``(main(), side())``, with ``side`` on a worker thread while ``main``
    runs on the calling thread.

    ``rows`` is the size of ``main``: below twice ``_MIN_ROWS`` rows, or on
    one usable CPU, both run on the calling thread in that order.  When
    ``main`` fails its error is raised, and ``side``'s only when ``main``
    succeeded; the worker is always joined before this returns or raises.
    """
    if worker_count(rows, _MIN_ROWS) < 2:
        return main(), side()
    with ThreadPoolExecutor(1) as pool:
        later = pool.submit(side)
        return main(), later.result()
