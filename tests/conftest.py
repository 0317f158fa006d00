import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as la

from eitdisk import parallel


@pytest.fixture
def lu_factor_calls(monkeypatch):
    """Shapes of the matrices passed to ``scipy.linalg.lu_factor`` during the
    test; any call of ``np.linalg.cond`` fails the test."""
    calls = []
    real = la.lu_factor

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.cond was called")

    monkeypatch.setattr(la, "lu_factor", counting)
    monkeypatch.setattr(np.linalg, "cond", forbidden)
    return calls


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.fixture
def row_blocks(monkeypatch):
    """Two usable CPUs and a row floor of 8: every dense step that
    :func:`eitdisk.parallel.by_rows` splits runs as two blocks from 16 rows
    up, and :func:`eitdisk.parallel.alongside` starts its worker from 16.
    Returns the worker count of every pool either starts, in order."""
    pools = []

    def recording_pool(workers):
        pools.append(workers)
        return ThreadPoolExecutor(workers)

    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(parallel, "_MIN_ROWS", 8)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", recording_pool)
    return pools


@pytest.fixture
def no_row_threads(monkeypatch):
    """Eight usable CPUs, the row floor as it is, and any pool that
    :func:`eitdisk.parallel.by_rows` or :func:`eitdisk.parallel.alongside`
    starts fails the test."""
    def forbidden(workers):
        raise AssertionError(f"a split step started {workers} worker thread(s)")

    _use_cpus(monkeypatch, 8)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", forbidden)
