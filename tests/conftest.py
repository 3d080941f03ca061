import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

import nhlab
from nhlab import metrology, model
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


@pytest.fixture(autouse=True)
def empty_steady_slot():
    """Every test starts with no steady solve kept (metrology._steady_solve),
    so its solve counts do not depend on the tests run before it."""
    metrology._last_steady = None


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count the LAPACK routines fetched through scipy.linalg.get_lapack_funcs
    (by name, without the type prefix), the np.linalg.solve and
    np.linalg.eigh calls, the D x D matrices built from bands, the band
    sets built from couplings (bond_bands, which chain_bands calls), the
    chain_bands and build_current_operator calls, and the ModelParams
    updates (with_updates).  "eig order" is the largest order of a matrix
    handed to scipy.linalg.eig/eigvals or np.linalg.eig/eigvals (the
    last axis of a stack)."""
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

    def ordered(fn):
        def call(a, *args, **kwargs):
            counts["eig order"] = max(counts["eig order"], np.shape(a)[-1])
            return fn(a, *args, **kwargs)
        return call

    for module in (scipy.linalg, np.linalg):
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(module, name, ordered(getattr(module, name)))
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


def track_bands_loop(evs):
    """A sample-by-sample band tracking, the reference topology._track_bands
    is held to wherever it returns: one linear_sum_assignment per sample
    against each band's linear extrapolation, and the tie rule on every row
    whose two cheapest candidates lie within 1e-10."""
    from nhlab.errors import NumericalError
    from nhlab.topology import DEFAULT_TOL_GAP
    first = evs[0]
    order = np.lexsort((first.imag, first.real))
    bands = [first[order]]
    prev2 = bands[0]
    for ev in evs[1:]:
        prev = bands[-1]
        pred = 2.0 * prev - prev2
        cost = np.abs(pred[:, None] - ev[None, :])
        rows, cols = linear_sum_assignment(cost)
        if len(ev) > 1:
            srt = np.sort(cost, axis=1)
            for i in np.where((srt[:, 1] - srt[:, 0]) < 1e-10)[0]:
                close = np.where(cost[i] <= srt[i, 0] + 1e-10)[0]
                if np.max(np.abs(ev[close] - ev[close[0]])) <= DEFAULT_TOL_GAP:
                    continue
                if np.sum(np.abs(prev - prev[i]) <= DEFAULT_TOL_GAP) >= 2:
                    continue
                raise NumericalError("ambiguous band continuation")
        prev2 = prev
        bands.append(ev[cols[np.argsort(rows)]])
    return np.array(bands).T


def recurrence_root(H, lam, digits=50):
    """The eigenvalue of the real zero-diagonal tridiagonal H next to lam,
    to digits digits: Newton's method on det(H - E), from the three-term
    recurrence f_{k+1} = -E f_k - upper[k-1] lower[k-1] f_{k-1}."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        prods = [mpmath.mpf(float(u)) * mpmath.mpf(float(w))
                 for u, w in zip(H.upper, H.lower)]
        E = mpmath.mpf(float(lam.real))
        for _ in range(60):
            f0, f1, g0, g1 = mpmath.mpf(1), -E, mpmath.mpf(0), mpmath.mpf(-1)
            for c in prods:
                f0, f1, g0, g1 = f1, -E * f1 - c * f0, g1, -f1 - E * g1 - c * g0
            step = f1 / g1
            E -= step
            if abs(step) <= abs(E) * mpmath.mpf(10) ** (5 - digits):
                return E
    raise AssertionError("Newton did not converge")


def run_python(args, cwd):
    """Run sys.executable with args in a fresh process that imports the
    same nhlab as the tests; returns the CompletedProcess, text mode."""
    source = str(Path(nhlab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=source + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable] + list(args), cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
