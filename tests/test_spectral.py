"""Eigensolver contract, steady state, localization profile."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import assert_multiset_close
from nhlab import (DEFAULT_STEP, NON_MODULAR, PBC, PRESET_NAMES,
                   RECIPROCAL_MODULAR, SHIFTED, ConvergenceError,
                   CouplingPreset, ParamSpec, ValidationError,
                   build_hamiltonian, cumulative_population, edge_states,
                   full_spectrum, gbz_radius, make_params, model_spectrum,
                   obc_central_gap, participation_ratio, preset,
                   state_derivatives, steady_state)
from nhlab.metrology import model_eigenvalues
from nhlab.spectral import (DEFAULT_TOL_EIG, _order, eigenpair,
                            sublattice_eigenvalues)


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


def test_norms_and_residuals():
    rng = np.random.default_rng(3)
    H = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    dec = full_spectrum(H)
    norms = np.linalg.norm(dec.right_vectors, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert np.max(dec.residuals) <= 1e-9 * np.linalg.norm(H)
    with pytest.raises(ConvergenceError):
        full_spectrum(H, tol_eig=1e-18)


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
    assert np.max(np.abs(dec.values.imag)) < 1e-9


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
    H, values = model_eigenvalues(preset("FIG4_HN").resized(34))
    bound = 1e-9 * np.linalg.norm(H)
    for lam in values[:3]:
        r, l = eigenpair(H, lam, left=True)
        assert abs(np.linalg.norm(r) - 1.0) < 1e-12
        assert abs(np.linalg.norm(l) - 1.0) < 1e-12
        assert np.linalg.norm(H @ r - lam * r) <= bound
        assert np.linalg.norm(l.conj() @ H - lam * l.conj()) <= bound
    # an exact eigenvalue gives an exactly singular pivot
    r = eigenpair(np.diag([1.0, 2.0]).astype(complex), 1.0)
    assert abs(r[1]) < 1e-12


def test_eigenpair_gate_rejects_a_non_eigenvalue():
    H, values = model_eigenvalues(preset("FIG4_HN").resized(34))
    lam = values[0] + 0.1j  # values[0] has the largest imaginary part
    assert np.min(np.abs(values - lam)) >= 0.1 - 1e-9
    with pytest.raises(ConvergenceError):
        eigenpair(H, lam)


def test_eigenpair_accepts_a_defective_eigenvalue_at_its_first_step():
    # with one-way bonds inside each module (JL = 0) the steady eigenvalue
    # is defective: the first inverse-iteration step reaches a residual
    # near eps, every later one about 1e-6, above the gate
    p = make_params(1, 2, 4, J0=0.0, JL=0.0, JR=1.0, Jm=1.0 + 0.3j,
                    JmP=-0.8 + 0.3j)
    H, values = model_eigenvalues(p)
    r, l = eigenpair(H, values[0], left=True)
    assert np.linalg.norm(H @ r - values[0] * r) <= 1e-14 * np.linalg.norm(H)
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
    ref = scipy.linalg.eigvals(H.astype(complex))
    ref = ref[_order(ref, DEFAULT_TOL_EIG)]
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


def _record_eigvals(monkeypatch):
    """(shape, dtype) of every matrix handed to scipy.linalg.eigvals."""
    seen = []
    solve = scipy.linalg.eigvals

    def recorded(a, *args, **kwargs):
        seen.append((a.shape, a.dtype))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvals", recorded)
    return seen


SUBLATTICE_CASES = (
    [(n, preset(n).resized(34)) for n in PRESET_NAMES]
    + [("FIG4_HN_odd_D", preset("FIG4_HN").resized(35)),
       ("FIG4_HN_PBC", preset("FIG4_HN").resized(34).with_updates(boundary=PBC))])


@pytest.mark.parametrize("p", [c[1] for c in SUBLATTICE_CASES],
                         ids=[c[0] for c in SUBLATTICE_CASES])
def test_sublattice_eigenvalues_match_the_full_solve(monkeypatch, p):
    H, full = model_eigenvalues(p)
    seen = _record_eigvals(monkeypatch)
    values = sublattice_eigenvalues(H)
    half = p.D // 2
    assert seen == [((half, half), np.complex128 if np.any(H.imag)
                     else np.float64)]
    # same values in the same order; an odd D adds one exact zero
    assert np.all(np.abs(values - full) <= 1e-12 * np.maximum(np.abs(full), 1.0))
    assert np.sum(values == 0) == p.D % 2
    # the spectrum is exactly symmetric under E -> -E
    assert np.array_equal(np.sort_complex(values), np.sort_complex(-values))


def test_sublattice_eigenvalues_fall_back_off_bipartite_matrices(monkeypatch):
    odd_ring = build_hamiltonian(
        preset("FIG4_HN").resized(35).with_updates(boundary=PBC))
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((6, 6))
    for H in (odd_ring, dense):
        seen = _record_eigvals(monkeypatch)
        values = sublattice_eigenvalues(H)
        assert [shape for shape, _ in seen] == [H.shape]
        assert np.array_equal(values, full_spectrum(H, vectors=False))


def test_sublattice_eigenvalues_fall_back_near_zero(monkeypatch):
    # a bipartite matrix whose largest-Im eigenvalue is 1e-6 ||H||: the
    # squared solve would miss it by about eps ||H||^2 / |lambda|
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    H = np.zeros((8, 8))
    H[0::2, 1::2] = Q.T
    H[1::2, 0::2] = Q * np.array([-3e-6 ** 2, 1.0, 2.0, 3.0])
    norm = np.linalg.norm(H, 2)
    assert abs(norm - 3.0) < 1e-12
    seen = _record_eigvals(monkeypatch)
    values = sublattice_eigenvalues(H)
    assert [shape for shape, _ in seen] == [(4, 4), (8, 8)]
    assert np.array_equal(values, full_spectrum(H, vectors=False))
    assert abs(values[0] - 1e-6j * norm) <= 1e-3 * 1e-6 * norm


def test_fisher_point_solves_one_sublattice(monkeypatch):
    # the steady solve hands LAPACK a floor(D/2)-square matrix, real or
    # complex as the Hamiltonian is; the OBC gaps keep the D x D solve
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
    assert seen == [((p.D, p.D), np.float64)]
