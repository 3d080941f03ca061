"""Eigensolver contract, steady state, localization profile."""

import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from conftest import assert_multiset_close
from nhlab import (DEFAULT_STEP, NON_MODULAR, OBC, PBC, PRESET_NAMES,
                   RECIPROCAL_MODULAR, SHIFTED, ConvergenceError,
                   CouplingPreset, ParamSpec, ValidationError,
                   build_hamiltonian, cumulative_population, edge_states,
                   full_spectrum, gbz_radius, make_params, model_spectrum,
                   obc_central_gap, obc_side_gap, participation_ratio, preset,
                   state_derivatives, steady_state)
from nhlab import metrology, spectral
from nhlab.metrology import model_eigenvalues
from nhlab.model import ChainBands, chain_bands
from nhlab.spectral import (DEFAULT_TOL_EIG, _band_product, _hop, _opened,
                            _order, bordered_solve, certify, eigenpair)


def test_diagonal_matrix():
    dec = full_spectrum(np.diag([1.0, 2.0j]).astype(complex))
    # ordering: imaginary part descending, then real part descending
    assert np.allclose(dec.values, [2.0j, 1.0])
    assert abs(abs(dec.right_vectors[1, 0]) - 1.0) < 1e-12
    assert abs(abs(dec.right_vectors[0, 1]) - 1.0) < 1e-12


def test_sort_order_with_imaginary_tie():
    dec = full_spectrum(np.diag([0.5, 1 + 1j, -1 + 1j]).astype(complex))
    assert np.allclose(dec.values, [1 + 1j, -1 + 1j, 0.5])


def test_uniform_ring_matches_circulant_formula():
    # one-band ring: eigenvalues JL e^{ik} + JR e^{-ik} on the k grid
    p = make_params(1, 3, 8, JL=1.0, JR=2.0,
                    preset=CouplingPreset(NON_MODULAR, 0.0), boundary=PBC)
    N = p.D
    ks = 2.0 * np.pi * np.arange(N) / N
    oracle = 1.0 * np.exp(1j * ks) + 2.0 * np.exp(-1j * ks)
    dec = full_spectrum(build_hamiltonian(p))
    assert_multiset_close(dec.values, oracle, 1e-8)


def test_norms_and_residuals(monkeypatch):
    rng = np.random.default_rng(3)
    H = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    dec = full_spectrum(H)
    norms = np.linalg.norm(dec.right_vectors, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert np.max(dec.residuals) <= 1e-9 * np.linalg.norm(H)
    # a gate below rounding level fails every solve
    monkeypatch.setattr(spectral, "DEFAULT_TOL_EIG", 1e-18)
    with pytest.raises(ConvergenceError):
        full_spectrum(H)


def test_transpose_has_same_spectrum():
    p = make_params(1, 3, 12, JL=1, JR=-2.5,
                    preset=CouplingPreset(RECIPROCAL_MODULAR, 2.0))
    H = build_hamiltonian(p)
    assert_multiset_close(np.linalg.eigvals(H), np.linalg.eigvals(H.T), 1e-9)


def test_obc_spectrum_invariant_under_bond_rebalancing():
    # scaling JR by s and JL by 1/s (with the inter-module pair
    # compensating by s^(r-1)) keeps every bond product, hence the OBC
    # spectrum, unchanged
    s = 1.7
    p = make_params(1, 3, 10, JL=1.0, JR=-0.8, Jm=0.5, JmP=1.1)
    q = make_params(1, 3, 10, JL=1.0 / s, JR=-0.8 * s,
                    Jm=0.5 * s ** 2, JmP=1.1 / s ** 2)
    a = np.linalg.eigvals(build_hamiltonian(p))
    b = np.linalg.eigvals(build_hamiltonian(q))
    assert_multiset_close(a, b, 1e-8)


def test_steady_state_stable_under_redecomposition():
    p = make_params(1, 3, 15, JL=1, JR=-2.5,
                    preset=CouplingPreset(RECIPROCAL_MODULAR, 2.0))
    H = build_hamiltonian(p)
    v1 = steady_state(full_spectrum(H))
    v2 = steady_state(full_spectrum(H.copy()))
    assert abs(abs(np.vdot(v1, v2)) - 1.0) < 1e-12


def test_steady_state_phase_convention():
    dec = full_spectrum(np.diag([1 + 2j, 0.5]).astype(complex))
    v = steady_state(dec)
    k = int(np.argmax(np.abs(v)))
    assert v[k].imag == pytest.approx(0.0, abs=1e-15)
    assert v[k].real > 0


def test_cumulative_population_total():
    p = make_params(2, 2, 12, J0=1.25, JL=1, JR=0.4,
                    preset=CouplingPreset(SHIFTED, 2.0))
    dec = full_spectrum(build_hamiltonian(p))
    prof = cumulative_population(dec, p)
    assert len(prof.P) == p.r * p.L           # per site, sublevels summed
    assert np.all(np.asarray(prof.P) >= 0)
    assert abs(np.sum(prof.P) - p.D) < 1e-9   # unit-norm states


def test_hermitian_chain_is_flat():
    p = make_params(1, 3, 30, JL=0.9, JR=0.9, Jm=0.4, JmP=0.4)
    dec = full_spectrum(build_hamiltonian(p))
    prof = cumulative_population(dec, p)
    assert abs(prof.slope_per_module) < 1e-9
    # the bulk spreads by rounding alone (2.9e-14), which is no fit
    assert prof.fit_r2 == 1.0
    assert np.max(np.abs(dec.values.imag)) < 1e-9


def test_ring_profile_is_flat():
    # every plane wave spreads evenly over the ring, so the bulk's
    # log-populations differ by a few eps at most and fit exactly
    p = preset("FIG5_BOTTOM").resized(35).with_updates(boundary=PBC)
    prof = cumulative_population(model_spectrum(p), p)
    assert np.ptp(np.log(prof.module_population)) <= 8 * p.D * np.finfo(float).eps
    assert abs(prof.slope_per_module) < 1e-12
    assert prof.fit_r2 == 1.0


def test_skin_slope_tracks_gbz_radius():
    p = make_params(1, 3, 50, JL=1, JR=-2.5,
                    preset=CouplingPreset(RECIPROCAL_MODULAR, 2.0))
    prof = cumulative_population(full_spectrum(build_hamiltonian(p)), p)
    want = 2.0 * np.log(gbz_radius(p))
    assert abs(prof.slope_per_module - want) < 0.05 * abs(want)
    assert prof.fit_r2 > 0.99


def test_participation_ratio():
    v = np.ones(16, dtype=complex) / 4.0
    assert abs(participation_ratio(v) - 16.0) < 1e-12
    e = np.zeros(16, dtype=complex)
    e[3] = 1.0
    assert abs(participation_ratio(e) - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        participation_ratio(2.0 * v)


@pytest.mark.parametrize("name, L", [("FIG2_HN", 100), ("FIG3", 100),
                                     ("FIG4_HN", 34), ("FIG5_TOP", 34)])
def test_values_only_solve_matches_the_full_solve(name, L):
    H, values = model_eigenvalues(preset(name).resized(L))
    full = full_spectrum(H).values
    # same order, same values
    assert np.max(np.abs(values - full)) <= 1e-12 * np.max(np.abs(full))


def test_eigenpair_vectors_pass_the_residual_gate():
    bands, values = model_eigenvalues(preset("FIG4_HN").resized(34))
    H = bands.dense()
    bound = 1e-9 * np.linalg.norm(H)
    for lam in values[:3]:
        r, l = eigenpair(bands, lam, left=True)
        assert abs(np.linalg.norm(r) - 1.0) < 1e-12
        assert abs(np.linalg.norm(l) - 1.0) < 1e-12
        assert np.linalg.norm(H @ r - lam * r) <= bound
        assert np.linalg.norm(l.conj() @ H - lam * l.conj()) <= bound
    # an exact eigenvalue gives an exactly singular pivot: decoupled
    # dimers [[0, 1], [1, 0]] and [[0, 2], [2, 0]], eigenvalue 1
    dimers = ChainBands(np.array([1.0, 0.0, 2.0]), np.array([1.0, 0.0, 2.0]),
                        np.zeros(2))
    r = eigenpair(dimers, 1.0)
    assert np.max(np.abs(r[2:])) < 1e-12


def test_eigenpair_gate_rejects_a_non_eigenvalue():
    H, values = model_eigenvalues(preset("FIG4_HN").resized(34))
    lam = values[0] + 0.1j  # values[0] has the largest imaginary part
    assert np.min(np.abs(values - lam)) >= 0.1 - 1e-9
    with pytest.raises(ConvergenceError):
        eigenpair(H, lam)


def test_eigenpair_raises_where_the_inverse_iteration_overflows():
    # bonds of 1e-300 leave H - 0 with D tiny, nonzero pivots: 0 is a
    # D-fold eigenvalue and the first solve overflows
    tiny = np.full(5, 1e-300)
    with pytest.raises(ConvergenceError, match="degenerate or defective"):
        eigenpair(ChainBands(tiny, tiny, np.zeros(2)), 0.0)


def test_eigenpair_accepts_a_defective_eigenvalue_at_its_first_step():
    # with one-way bonds inside each module (JL = 0) the steady eigenvalue
    # is defective: the first inverse-iteration step reaches a residual
    # near eps, every later one about 1e-6, above the gate
    p = make_params(1, 2, 4, J0=0.0, JL=0.0, JR=1.0, Jm=1.0 + 0.3j,
                    JmP=-0.8 + 0.3j)
    H, values = model_eigenvalues(p)
    r, l = eigenpair(H, values[0], left=True)
    assert (np.linalg.norm(H @ r - values[0] * r)
            <= 1e-14 * np.linalg.norm(H.dense()))
    assert abs(np.vdot(l, r)) < 1e-6  # nearly parallel: a defective pair


def _record_solver_dtypes(monkeypatch):
    """Dtype of every matrix full_spectrum hands to scipy's eigensolvers."""
    seen = []
    for name in ("eigvals", "eig"):
        def recorded(a, *args, _solve=getattr(scipy.linalg, name), **kw):
            seen.append(a.dtype)
            return _solve(a, *args, **kw)
        monkeypatch.setattr(scipy.linalg, name, recorded)
    return seen


# every preset has a real Hamiltonian but FIG5_TOP, whose JR is complex
LAPACK_DTYPE_CASES = (
    [(n, preset(n).resized(34), n == "FIG5_TOP") for n in PRESET_NAMES]
    + [(n, preset(n).resized(200), False) for n in ("FIG2_HN", "FIG3")]
    + [("complex_JR", make_params(1, 3, 34, JL=1.0, JR=-0.5 + 0.2j,
                                  preset=CouplingPreset(RECIPROCAL_MODULAR, 2.0)),
        True)])


@pytest.mark.parametrize("p, is_complex", [c[1:] for c in LAPACK_DTYPE_CASES],
                         ids=["%s_L%d" % (c[0], c[1].L) for c in LAPACK_DTYPE_CASES])
def test_real_matrices_take_real_lapack(monkeypatch, p, is_complex):
    H, _ = model_eigenvalues(p)
    ref = scipy.linalg.eigvals(H.dense())
    ref = ref[_order(ref)]
    seen = _record_solver_dtypes(monkeypatch)
    solved = [full_spectrum(H, vectors=False)]
    if p.L == 34:
        solved.append(full_spectrum(H).values)
    assert seen == [np.complex128 if is_complex else np.float64] * len(solved)
    scale = max(float(np.max(np.abs(ref))), 1.0)
    for values in solved:
        assert values.dtype == np.complex128
        # same values in the same order
        assert np.max(np.abs(values - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("p", [preset("FIG2_SSH").resized(34),
                               preset("FIG3").resized(34).with_updates(JR=0.3)],
                         ids=["FIG2_SSH", "FIG3_JR0.3"])
def test_all_real_spectrum_gives_complex_vectors(p):
    # dgeev returns real vectors when every eigenvalue is real; the
    # logarithmic back-mapping of model_spectrum needs them complex
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = full_spectrum(build_hamiltonian(p))
        assert np.all(dec.values.imag == 0)
        assert dec.right_vectors.dtype == np.complex128
        balanced = model_spectrum(p)
        assert np.all(np.isfinite(balanced.right_vectors))
        assert np.all(np.isfinite(balanced.residuals))
        edges = edge_states(p, 100.0)
    assert all(np.isfinite(e) and np.isfinite(w) for e, w in edges)


def _record_eigvals(monkeypatch, name="eigvals"):
    """(shape, dtype) of every matrix handed to scipy.linalg.<name>."""
    seen = []
    solve = getattr(scipy.linalg, name)

    def recorded(a, *args, **kwargs):
        seen.append((a.shape, a.dtype))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, name, recorded)
    return seen


SUBLATTICE_CASES = (
    [(n, preset(n).resized(34)) for n in PRESET_NAMES]
    + [("FIG4_HN_odd_D", preset("FIG4_HN").resized(35))])


def _dense_eigvals(H):
    """The dense ?geev's eigenvalues of H (bands or dense), sorted as
    full_spectrum sorts."""
    ref = scipy.linalg.eigvals(H.dense() if isinstance(H, ChainBands) else H)
    return ref[_order(ref)]


@pytest.mark.parametrize("p", [c[1] for c in SUBLATTICE_CASES],
                         ids=[c[0] for c in SUBLATTICE_CASES])
def test_values_only_solve_matches_the_dense_eigvals(monkeypatch, p):
    H, _ = model_eigenvalues(p)
    ref = _dense_eigvals(H)
    dtype = np.complex128 if np.any(H.dense().imag) else np.float64
    seen = _record_eigvals(monkeypatch)
    values = full_spectrum(H, vectors=False)
    half = p.D // 2
    assert seen == [((half, half), dtype)]
    # same values in the same order; an odd D adds one exact zero
    assert np.all(np.abs(values - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))
    assert np.sum(values == 0) == p.D % 2
    # the spectrum is exactly symmetric under E -> -E
    assert np.array_equal(np.sort_complex(values), np.sort_complex(-values))


def test_values_only_solve_falls_back_off_bipartite_matrices(monkeypatch):
    odd_ring = build_hamiltonian(
        preset("FIG4_HN").resized(35).with_updates(boundary=PBC))
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((6, 6))
    for H in (odd_ring, dense):
        ref = _dense_eigvals(H)
        seen = _record_eigvals(monkeypatch)
        values = full_spectrum(H, vectors=False)
        assert [shape for shape, _ in seen] == [H.shape]
        assert np.all(np.abs(values - ref)
                      <= 1e-12 * np.maximum(np.abs(ref), 1.0))


def _dimers(upper, lower, extra_site=False):
    """Decoupled dimers [[0, u], [w, 0]] (eigenvalues +-sqrt(u w)) as an
    open chain, with one more, isolated site if extra_site."""
    gaps = np.arange(1, len(upper))
    upper, lower = np.insert(upper, gaps, 0.0), np.insert(lower, gaps, 0.0)
    if extra_site:
        upper, lower = np.append(upper, 0.0), np.append(lower, 0.0)
    return ChainBands(upper, lower, np.zeros(2, dtype=complex))


def test_values_only_solve_refines_near_zero(monkeypatch, lapack_calls):
    # four decoupled dimers, eigenvalues +-3e-6i, +-1i, +-2i, +-3i: the
    # largest-Im eigenvalue is 1e-6 ||H||, which the squared solve would
    # miss by about eps ||H||^2 / |lambda|; the bidiagonal factors give it
    # to rounding, with no dense solve
    dimers = np.array([3e-6, 1.0, 2.0, 3.0])
    H = _dimers(dimers, dimers * [-1, 1, 1, 1])
    norm = np.linalg.norm(H.dense(), 2)
    assert abs(norm - 3.0) < 1e-12
    ref = _dense_eigvals(H)
    lapack_calls.clear()
    seen = _record_eigvals(monkeypatch)
    values = full_spectrum(H, vectors=False)
    assert [shape for shape, _ in seen] == [(4, 4)]
    assert lapack_calls["dense"] == 0 and lapack_calls["tbtrs"] >= 2
    assert np.all(np.abs(values - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))
    assert abs(values[0] - 3e-6j) <= 1e-15 * 3e-6


def test_dense_fall_backs_are_counted(monkeypatch):
    # what the bidiagonal factors cannot refine takes the dense solve,
    # counted by cause
    monkeypatch.setattr(spectral, "FALL_BACKS", Counter())
    # an odd chain has no square factors
    dimers = np.array([3e-6, 1.0, 2.0, 3.0])
    H = _dimers(dimers, dimers * [-1, 1, 1, 1], extra_site=True)
    values = full_spectrum(H, vectors=False)
    assert abs(values[0] - 3e-6j) <= 1e-3 * 3e-6
    full_spectrum(H)
    assert spectral.FALL_BACKS == {"odd dimension": 1, "odd vectors": 1}
    # an exactly zero bond in a factor: H_oe is singular
    spectral.FALL_BACKS.clear()
    H = _dimers([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 3.0])
    assert np.allclose(np.sort(np.abs(full_spectrum(H, vectors=False))),
                       [0, 0, 1, 1, 2, 2, 3, 3], rtol=0, atol=1e-15)
    assert spectral.FALL_BACKS == {"singular factor": 1}
    # the gate's threshold is eps ||M||_1 / 1e-12 = 2.0e-3 here: the
    # failing lambda = 1.9e-3 has a passing neighbour at 2.1e-3, which
    # inverse iteration cannot separate from it in REFINE_STEPS steps
    spectral.FALL_BACKS.clear()
    dimers = np.array([1.9e-3, 2.1e-3, 2.0, 3.0])
    H = _dimers(dimers, dimers)
    values = np.sort(np.abs(full_spectrum(H, vectors=False)))
    assert np.max(np.abs(values - np.repeat(np.sort(dimers), 2))) <= 1e-15
    assert spectral.FALL_BACKS == {"unconverged": 1}


def test_even_ring_pair_is_exact_in_its_bloch_sector(lapack_calls):
    # a non-Hermitian dimerized ring, H[2k+1, 2k] = H[2k, 2k+1] = 1,
    # H[2k+1, 2k+2] = b, H[2k+2, 2k+1] = d, closed by the wrap bond: its
    # Bloch block at k has lambda^2 = (1 + b e^{ik})(1 + d e^{-ik}), and at
    # k = pi the pair +-sqrt((1 - b)(1 - d)) = +-1.4e-5 i lies far below
    # ||H||.  The sector's 2 x 2 solve keeps it to the last digit, where
    # a squared solve on the ring would lose it
    b, d, n = 1.0 + 1e-5, 1.0 - 2e-5, 8
    p = make_params(1, 2, n, JL=1, JR=1, Jm=b, JmP=d, boundary=PBC)
    q = 2.0 * np.pi * np.arange(n) / n
    mu = (1.0 + b * np.exp(1j * q)) * (1.0 + d * np.exp(-1j * q))
    mu[n // 2] = (1.0 - b) * (1.0 - d)  # exactly, without the rounding of e^{i pi}
    want = np.sqrt(mu.astype(complex))
    lapack_calls.clear()
    dec = model_spectrum(p)
    values = metrology._ring_values(p)[0]
    assert lapack_calls["dense"] == 0 and lapack_calls["eig order"] == 2
    for got in (dec.values, values):
        assert_multiset_close(got, np.concatenate([want, -want]), 1e-14)
        small = got[np.argsort(np.abs(got))[:2]]
        assert np.all(np.abs(np.abs(small) - abs(want[n // 2]))
                      <= 1e-14 * abs(want[n // 2]))
    bound = DEFAULT_TOL_EIG * np.linalg.norm(chain_bands(p).entries)
    assert np.all(dec.residuals <= bound)


def _recurrence_root(H, lam, digits=50):
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


EDGE_PAIR_POINTS = [(100, -1.0), (200, -1.0), (100, 0.45), (300, -1.0)]


@pytest.mark.parametrize("L, JR", EDGE_PAIR_POINTS,
                         ids=["L%d_JR%g" % c for c in EDGE_PAIR_POINTS])
def test_edge_pairs_match_a_50_digit_reference(lapack_calls, L, JR):
    # FIG3's edge pair sits at |lambda| = 1.9e-4, 6.3e-9, 4.1e-8 and 2.1e-13
    # here; the squared solve loses it (relative error up to 4.6) and the
    # old dense fall-back reached 1e-11 at best.  The refinement on the
    # bidiagonal factors matches the reference to 1e-12 relative, the edge
    # vectors pass the residual gate, and no D x D matrix is built
    p = preset("FIG3").params.with_updates(L=L, JR=JR)
    lapack_calls.clear()
    dec = model_spectrum(p)
    H, values = model_eigenvalues(p)
    spectral.residuals(H, dec.right_vectors[:, :2], dec.values[:2])
    assert lapack_calls["dense"] == 0
    assert np.all(H.upper.imag == 0) and np.all(H.lower.imag == 0)
    for got in (dec.values, values):
        pair = got[np.argsort(np.abs(got))[:2]]
        ref = _recurrence_root(H.__class__(*(np.real(b) for b in H)), pair[0])
        assert abs(pair[0] + pair[1]) == 0
        err = abs(abs(pair[0].real) - abs(float(ref))) / abs(float(ref))
        assert err <= 1e-12 and pair.imag.tolist() == [0, 0]
    assert np.all(dec.residuals <= DEFAULT_TOL_EIG * np.linalg.norm(H.entries))


def test_values_only_solve_allocates_only_the_product():
    # the product M is the one (D/2)-square array a values-only solve
    # makes; LAPACK's copy of it and its workspace come on top
    p = preset("FIG4_HN").params.with_updates(L=400)
    H, _ = model_eigenvalues(p)
    n = p.D // 2
    tracemalloc.start()
    try:
        full_spectrum(H, vectors=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * np.dtype(float).itemsize


def test_fisher_point_solves_one_sublattice(monkeypatch):
    # the steady solve and the OBC gaps both take full_spectrum without
    # vectors, which hands LAPACK a floor(D/2)-square matrix, real or
    # complex as the Hamiltonian is
    for name, L, dtype in (("FIG4_HN", 34, np.float64),
                           ("FIG5_BOTTOM", 70, np.float64),
                           ("FIG5_TOP", 34, np.complex128)):
        b = preset(name)
        ps = ParamSpec(b.param_labels, b.critical,
                       (DEFAULT_STEP,) * len(b.critical))
        seen = _record_eigvals(monkeypatch)
        state_derivatives(b.resized(L), ps)
        half = 3 * L // 2
        assert seen == [((half, half), dtype)], name
    p = preset("FIG4_HN").resized(34)
    seen = _record_eigvals(monkeypatch)
    obc_central_gap(p)
    assert seen == [((p.D // 2, p.D // 2), np.float64)]


HALF_PATH_CASES = [("%s_L%d" % (n, L), preset(n).resized(L))
                   for L in (34, 50) for n in PRESET_NAMES]


@pytest.mark.parametrize("p", [c[1] for c in HALF_PATH_CASES],
                         ids=[c[0] for c in HALF_PATH_CASES])
def test_full_spectrum_solves_one_sublattice(monkeypatch, p):
    # the matrix every model spectrum solves: the skin-balanced chain
    H, _ = model_eigenvalues(p)
    seen = _record_eigvals(monkeypatch, "eig")
    dec = full_spectrum(H)
    assert [shape for shape, _ in seen] == [(p.D // 2, p.D // 2)]
    monkeypatch.undo()
    H = H.dense()
    ref = scipy.linalg.eigvals(H)
    ref = ref[_order(ref)]
    # same values in the same order as the dense solve
    assert np.all(np.abs(dec.values - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))
    V = dec.right_vectors
    assert np.allclose(np.linalg.norm(V, axis=0), 1.0, rtol=0, atol=1e-13)
    # every pair passes the unchanged gate, against H as a whole
    res = np.linalg.norm(H @ V - V * dec.values, axis=0)
    assert np.all(res <= DEFAULT_TOL_EIG * np.linalg.norm(H))
    assert np.allclose(dec.residuals, res, rtol=0, atol=1e-13)
    # the vectors of +-lambda are images under S = diag((-1)^i) up to phase
    S = (-1.0) ** np.arange(p.D)
    for j, lam in enumerate(dec.values):
        partners = np.flatnonzero(dec.values == -lam)
        overlaps = np.abs(V[:, partners].conj().T @ (S * V[:, j]))
        assert np.max(overlaps) >= 1.0 - 1e-12, j


def test_full_spectrum_keeps_odd_chains_on_the_dense_solve(monkeypatch):
    # an odd chain has no half-size eigenvector for its zero mode
    p = preset("FIG4_HN").resized(35)
    H, _ = model_eigenvalues(p)
    seen = _record_eigvals(monkeypatch, "eig")
    dec = full_spectrum(H)
    assert [shape for shape, _ in seen] == [(p.D, p.D)]
    assert np.max(np.abs(full_spectrum(H, vectors=False) - dec.values)) <= 1e-12


def test_edge_pair_is_refined_on_the_bidiagonal_factors(monkeypatch):
    # FIG3 at L=100, JR=-1: the edge pair at +-1.87e-4 is too close to zero
    # for the squared solve (eps ||M|| / |lambda| > 1e-12), so it is
    # refined on the bidiagonal factors and edge_states and obc_side_gap
    # read the half-size solve alone
    p = preset("FIG3").params.with_updates(L=100, JR=-1.0)
    seen = _record_eigvals(monkeypatch, "eig")
    pair = edge_states(p, 0.1)
    assert [shape for shape, _ in seen] == [(p.D // 2, p.D // 2)]
    # the values the dense solve gave before the half-size route, to that
    # solve's own accuracy on the pair (1.1e-11 relative)
    want = [(0.0001874849683893995, 0.9985311157496537),
            (-0.00018748496839376104, 0.9985311157496537)]
    assert len(pair) == 2
    for (E, weight), (E0, weight0) in zip(pair, want):
        assert E.imag == 0 and abs(E.real - E0) <= 1e-10 * abs(E0)
        assert abs(weight - weight0) <= 1e-10
    assert abs(obc_side_gap(p) - 1.5369828156494503) <= 1e-12
    # the values-only solve refines the same pair to the same values
    _, values = model_eigenvalues(p)
    assert sorted(v.real for v in values if abs(v) < 0.1) == sorted(
        E.real for E, _ in pair)


BAND_IDENTITY_CASES = [(n, L) for n in PRESET_NAMES for L in (34, 35)]


@pytest.mark.parametrize("name, L", BAND_IDENTITY_CASES,
                         ids=["%s-%d" % c for c in BAND_IDENTITY_CASES])
def test_bands_solve_bit_for_bit_as_their_dense_matrix(name, L):
    # where the bands take ?geev too (the vectors of an odd chain) the
    # pairs are bit for bit those of the dense matrix; where they take the
    # half-size solve, the same values in the same order at rounding
    # level.  Either way every pair passes the gate against the dense
    # matrix
    p = preset(name).resized(L)
    # the balanced chain every model spectrum solves and the raw one
    for bands in (model_eigenvalues(p)[0], chain_bands(p)):
        H = bands.dense()
        got, want = full_spectrum(bands), full_spectrum(H)
        if p.D % 2:
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.right_vectors, want.right_vectors)
        scale = np.maximum(np.abs(want.values), 1.0)
        assert np.all(np.abs(got.values - want.values) <= 1e-12 * scale)
        V = got.right_vectors
        res = np.linalg.norm(H @ V - V * got.values, axis=0)
        assert np.all(res <= DEFAULT_TOL_EIG * np.linalg.norm(H))
        assert np.allclose(got.residuals, res, rtol=0, atol=1e-13)
        values = full_spectrum(bands, vectors=False)
        assert np.all(np.abs(values - want.values) <= 1e-12 * scale)


BAND_PRODUCT_CASES = [(n, L, boundary) for n in PRESET_NAMES
                      for L in (4, 34, 35) for boundary in (OBC, PBC)
                      if not (L % 2 and boundary == PBC)]


def _bipartite_chains(name, L, boundary):
    """The raw and the skin-balanced bands of an open chain; for PBC the
    open chains the ring leaves when bordered_solve deletes its first or
    its middle site (the one way a ring's bands reach band code), checked
    against the ring's dense minor."""
    p = preset(name).resized(L).with_updates(boundary=boundary)
    if boundary == OBC:
        return chain_bands(p), model_eigenvalues(p)[0]
    ring = chain_bands(p)
    chains = []
    for k in (0, p.D // 2):
        chain, order = _opened(ring, k)
        assert np.array_equal(chain.dense(), ring.dense()[np.ix_(order, order)])
        chains.append(chain)
    return chains


@pytest.mark.parametrize("name, L, boundary", BAND_PRODUCT_CASES,
                         ids=["%s-%d-%s" % c for c in BAND_PRODUCT_CASES])
def test_band_product_matches_the_dense_blocks(name, L, boundary):
    for bands in _bipartite_chains(name, L, boundary):
        H = bands.dense()
        want = H[1::2, 0::2] @ H[0::2, 1::2]
        got = _band_product(bands)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("name, L, boundary", BAND_PRODUCT_CASES,
                         ids=["%s-%d-%s" % c for c in BAND_PRODUCT_CASES])
def test_hops_match_the_dense_blocks(name, L, boundary):
    rng = np.random.default_rng(11)
    for bands in _bipartite_chains(name, L, boundary):
        H = bands.dense()
        for rows in (0, 1):
            block = H[rows::2, 1 - rows::2]
            x = (rng.standard_normal((block.shape[1], 5))
                 + 1j * rng.standard_normal((block.shape[1], 5)))
            want = block @ x
            got = _hop(bands, x, rows)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_ring_eigenpairs_pass_at_rounding_level(name):
    # a ring's spectrum is the union of its Bloch sectors': the values
    # match the dense ?geev of the ring as multisets, and every plane-wave
    # vector passes the gate against the dense ring, with the residual
    # its Bloch block gave
    for L in (34, 35) + ((100, 101) if name == "FIG4_HN" else ()):
        p = preset(name).resized(L).with_updates(boundary=PBC)
        dec = model_spectrum(p)
        H = build_hamiltonian(p)
        want = scipy.linalg.eig(H, right=False)
        scale = max(float(np.max(np.abs(want))), 1.0)
        assert_multiset_close(dec.values, want, 1e-12 * scale)
        # the values-only solve gives the same values in the same order
        values = metrology._ring_values(p)[0]
        assert np.max(np.abs(dec.values - values)) <= 1e-14 * scale
        V = dec.right_vectors
        assert np.allclose(np.linalg.norm(V, axis=0), 1.0, rtol=0, atol=1e-13)
        res = np.linalg.norm(H @ V - V * dec.values, axis=0)
        assert np.all(res <= DEFAULT_TOL_EIG * max(np.linalg.norm(H), 1.0))
        assert np.allclose(dec.residuals, res, rtol=0, atol=1e-13)


RING_REFUSALS = {
    "full_spectrum": lambda H: full_spectrum(H),
    "residuals": lambda H: spectral.residuals(H, np.eye(len(H.upper) + 1),
                                              np.zeros(len(H.upper) + 1)),
    "eigenpair": lambda H: eigenpair(H, 0.5),
    "certify": lambda H: certify(H, [0.5]),
}


@pytest.mark.parametrize("name", sorted(RING_REFUSALS))
def test_band_layer_refuses_a_ring(name):
    # a ring's bands would lose their corners in the chain solvers, so
    # they are refused and the message names the ring's two routes
    p = preset("FIG4_HN").resized(34).with_updates(boundary=PBC)
    ring = chain_bands(p)
    with pytest.raises(ValidationError,
                       match="model_spectrum.*build_hamiltonian"):
        RING_REFUSALS[name](ring)
    # ChainBands.dense and @, and the bordered solve, take it
    rng = np.random.default_rng(5)
    x = rng.standard_normal((p.D, 2)) + 0j
    H = ring.dense()
    assert np.allclose(ring @ x[:, 0], H @ x[:, 0], rtol=0, atol=1e-14)
    w, vl, vr = scipy.linalg.eig(H, left=True)
    i = int(np.argmax(w.imag))
    lam, r, l = w[i], vr[:, i], vl[:, i]
    x -= np.outer(r, l.conj() @ x) / np.vdot(l, r)  # l^+ b = 0
    y = bordered_solve(ring, lam, r, l, x)
    A = H - lam * np.eye(p.D)
    assert (np.linalg.norm(A @ y - x)
            <= 1e-12 * np.linalg.norm(A) * np.linalg.norm(y))


def short_chain(L):
    return make_params(1, 3, L, JL=1.0, JR=-0.5, Jm=1.0, JmP=0.5)


SPECTRAL_INPUT_CHECKS = {
    "square": (lambda: full_spectrum(np.ones((2, 3))), "matrix must be square"),
    "finite matrix": (lambda: full_spectrum(np.array([[0.0, np.nan], [1.0, 0.0]])),
                      "matrix entries must be finite"),
    "finite bands": (lambda: full_spectrum(ChainBands(
                         np.array([1.0, np.nan]), np.ones(2), np.zeros(2))),
                     "matrix entries must be finite"),
    "empty": (lambda: steady_state(spectral.SpectralDecomposition(
                  np.zeros(0), np.zeros((0, 0)), np.zeros(0))),
              "empty decomposition"),
    "dimension": (lambda: cumulative_population(model_spectrum(short_chain(4)),
                                                short_chain(5)),
                  "decomposition dimension 12 does not match D=15"),
    "short chain": (lambda: cumulative_population(model_spectrum(short_chain(3)),
                                                  short_chain(3)),
                    "chain too short for a bulk slope fit"),
}


@pytest.mark.parametrize("case", list(SPECTRAL_INPUT_CHECKS))
def test_spectral_input_checks(case):
    call, message = SPECTRAL_INPUT_CHECKS[case]
    with pytest.raises(ValidationError) as exc:
        call()
    assert message in str(exc.value)
