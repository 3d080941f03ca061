from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from nhlab.model import ChainBands


def assert_multiset_close(a, b, tol):
    """Match two eigenvalue collections as multisets, order-free.

    Complex spectra have no canonical sort, so pairing is done by
    minimum-cost assignment and the worst matched distance is checked.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    assert a.size == b.size, "multisets differ in size: %d vs %d" % (a.size, b.size)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    assert worst <= tol, "worst matched distance %.3e > %.3e" % (worst, tol)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count the LAPACK routines fetched through scipy.linalg.get_lapack_funcs
    (by name, without the type prefix), the np.linalg.solve calls and the
    D x D matrices built from bands."""
    counts = Counter()
    fetch = scipy.linalg.get_lapack_funcs

    def counted_fetch(names, arrays=(), **kwargs):
        funcs = fetch(names, arrays, **kwargs)
        if isinstance(names, str):
            return funcs

        def counted(name, fn):
            def call(*args, **kw):
                counts[name] += 1
                return fn(*args, **kw)
            return call
        return tuple(counted(n, f) for n, f in zip(names, funcs))

    solve, dense = np.linalg.solve, ChainBands.dense

    def counted_solve(*args, **kwargs):
        counts["np.linalg.solve"] += 1
        return solve(*args, **kwargs)

    def counted_dense(self):
        counts["dense"] += 1
        return dense(self)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counted_fetch)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(ChainBands, "dense", counted_dense)
    return counts
