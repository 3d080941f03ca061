import sys
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from nhlab import model
from nhlab.model import ChainBands, ModelParams


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
    (by name, without the type prefix), the np.linalg.solve and
    np.linalg.eigh calls, the D x D matrices built from bands, the band
    sets built from couplings (bond_bands, which chain_bands calls), the
    chain_bands and build_current_operator calls, and the ModelParams
    updates (with_updates)."""
    counts = Counter()

    def counting(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    fetch = scipy.linalg.get_lapack_funcs

    def counted_fetch(names, arrays=(), **kwargs):
        funcs = fetch(names, arrays, **kwargs)
        if isinstance(names, str):
            return funcs
        return tuple(counting(n, f) for n, f in zip(names, funcs))

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counted_fetch)
    for name in ("solve", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(
            "np.linalg." + name, getattr(np.linalg, name)))
    monkeypatch.setattr(ChainBands, "dense", counting("dense", ChainBands.dense))
    monkeypatch.setattr(ModelParams, "with_updates",
                        counting("with_updates", ModelParams.with_updates))
    # the functions in every package module that binds them
    for name in ("bond_bands", "chain_bands", "build_current_operator"):
        fn = getattr(model, name)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("nhlab")
                    and getattr(module, name, None) is fn):
                monkeypatch.setattr(module, name, counting(name, fn))
    return counts
