"""Eigensolver contract, steady state, localization profile."""

import numpy as np
import pytest

from conftest import assert_multiset_close
from nhlab import (NON_MODULAR, PBC, RECIPROCAL_MODULAR, SHIFTED,
                   ConvergenceError, CouplingPreset, ValidationError,
                   build_hamiltonian, cumulative_population, full_spectrum,
                   gbz_radius, make_params, participation_ratio, preset,
                   steady_state)
from nhlab.metrology import model_eigenvalues
from nhlab.spectral import eigenpair


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
