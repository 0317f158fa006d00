import numpy as np
import pytest
import scipy.linalg as la


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
