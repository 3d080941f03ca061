"""Builder tests: explicit small matrices, structural properties, config."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_multiset_close
from nhlab import (NON_MODULAR, OBC, PBC, RECIPROCAL_MODULAR, SHIFTED,
                   CouplingPreset, DimensionCapError, ValidationError,
                   build_bloch, build_current_operator, build_generalized_bloch,
                   build_hamiltonian, make_params, params_from_config,
                   params_to_config)


def reference_hamiltonian(d, r, L, J0, JL, JR, Jm, JmP, pbc=False):
    # independent naive transcription of the coupling map, used as oracle
    D = d * r * L

    def idx(n, mu, nu):
        return ((n - 1) * r + (mu - 1)) * d + (nu - 1)

    H = np.zeros((D, D), dtype=complex)
    for n in range(1, L + 1):
        for mu in range(1, r + 1):
            for nu in range(1, d):
                i, j = idx(n, mu, nu), idx(n, mu, nu + 1)
                H[i, j] += J0
                H[j, i] += J0
            if mu < r:
                H[idx(n, mu, d), idx(n, mu + 1, 1)] += JL
                H[idx(n, mu + 1, 1), idx(n, mu, d)] += JR
        if n < L:
            H[idx(n, r, d), idx(n + 1, 1, 1)] += Jm
            H[idx(n + 1, 1, 1), idx(n, r, d)] += JmP
        elif pbc:
            H[idx(n, r, d), idx(1, 1, 1)] += Jm
            H[idx(1, 1, 1), idx(n, r, d)] += JmP
    return H


def test_two_module_two_site_chain():
    p = make_params(1, 2, 2, JL=1, JR=2, Jm=3, JmP=4)
    H = build_hamiltonian(p)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 1], want[1, 0] = 1, 2
    want[1, 2], want[2, 1] = 3, 4
    want[2, 3], want[3, 2] = 1, 2
    assert np.array_equal(H, want)


def test_hermitian_limit_is_conjugate_transpose():
    p = make_params(2, 3, 4, J0=1.3, JL=0.7 + 0.4j, JR=0.7 - 0.4j,
                    Jm=0.2 - 0.9j, JmP=0.2 + 0.9j, boundary=PBC)
    H = build_hamiltonian(p)
    assert np.array_equal(H, H.conj().T)


def test_non_modular_is_uniform_chain():
    p = make_params(1, 3, 4, JL=1.0, JR=-0.7,
                    preset=CouplingPreset(NON_MODULAR, 0.0))
    H = build_hamiltonian(p)
    D = 12
    want = np.zeros((D, D), dtype=complex)
    for j in range(D - 1):
        want[j, j + 1] = 1.0
        want[j + 1, j] = -0.7
    assert np.allclose(H, want, atol=0)


def test_pbc_minus_obc_is_two_corner_entries():
    p = make_params(2, 2, 5, J0=1.1, JL=0.4j, JR=2.0, Jm=0.3, JmP=-1.2)
    diff = (build_hamiltonian(make_params(2, 2, 5, J0=1.1, JL=0.4j, JR=2.0,
                                          Jm=0.3, JmP=-1.2, boundary=PBC))
            - build_hamiltonian(p))
    D = p.D
    nz = np.argwhere(diff != 0)
    assert sorted(map(tuple, nz)) == [(0, D - 1), (D - 1, 0)]
    assert diff[D - 1, 0] == 0.3       # wrap-around forward bond
    assert diff[0, D - 1] == -1.2


def test_non_modular_pbc_translation_invariance():
    p = make_params(2, 3, 5, J0=0.8, JL=1.1, JR=-0.5,
                    preset=CouplingPreset(NON_MODULAR, 0.0), boundary=PBC)
    H = build_hamiltonian(p)
    D = p.D
    S = np.zeros((D, D))
    for i in range(D):
        S[(i + p.d) % D, i] = 1.0   # shift by one site = d levels
    assert np.linalg.norm(S @ H - H @ S) < 1e-12


def test_bloch_matches_pbc_spectrum():
    p = make_params(2, 2, 9, J0=1.25, JL=1, JR=0.3,
                    preset=CouplingPreset(SHIFTED, 2.0), boundary=PBC)
    direct = np.linalg.eigvals(build_hamiltonian(p))
    sampled = []
    for j in range(p.L):
        k = 2.0 * np.pi * j / p.L
        sampled.extend(np.linalg.eigvals(build_bloch(p, k)))
    assert_multiset_close(direct, sampled, 1e-8)


def test_generalized_bloch_beta_swap_keeps_determinant():
    # the two beta roots at fixed E swap under beta -> (c/a)/beta
    p = make_params(2, 2, 4, J0=1.25, JL=1, JR=0.4,
                    preset=CouplingPreset(SHIFTED, 2.0))
    ratio = (p.JR ** (p.r - 1) * p.JmP) / (p.JL ** (p.r - 1) * p.Jm)
    rng = np.random.default_rng(7)
    eye = np.eye(p.r * p.d)
    for _ in range(10):
        E = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        if abs(beta) < 0.1:
            continue
        d1 = np.linalg.det(build_generalized_bloch(p, beta) - E * eye)
        d2 = np.linalg.det(build_generalized_bloch(p, ratio / beta) - E * eye)
        assert abs(d1 - d2) < 1e-9 * max(abs(d1), 1.0)


def test_generalized_bloch_on_unit_circle_is_bloch():
    p = make_params(2, 3, 4, J0=0.9, JL=0.6, JR=1.4, Jm=0.5, JmP=0.8)
    for k in (0.0, 0.73, np.pi, 5.1):
        a = build_generalized_bloch(p, np.exp(1j * k))
        b = build_bloch(p, k)
        assert np.allclose(a, b, atol=1e-14)


@pytest.mark.parametrize("kwargs", [
    dict(d=0, r=2, L=3),
    dict(d=1, r=0, L=3),
    dict(d=1, r=2, L=1),                 # at least two modules
    dict(d=1, r=1, L=3),                 # r*d >= 2
    dict(d=2, r=2, L=3, J0=0.0),         # sublevel hopping must be nonzero
    dict(d=1, r=2, L=3, J0=1 + 1j),      # J0 restricted to real values
])
def test_rejected_parameter_sets(kwargs):
    with pytest.raises(ValidationError):
        make_params(**{**dict(JL=1.0, JR=0.5, Jm=0.3, JmP=0.7), **kwargs})


def test_single_site_module_with_sublevels_is_allowed():
    p = make_params(3, 1, 4, J0=1.0, Jm=0.4, JmP=0.9)
    assert build_hamiltonian(p).shape == (12, 12)


def test_reciprocal_preset_needs_nonzero_j():
    with pytest.raises(ValidationError):
        make_params(1, 3, 4, JL=1, JR=0.5,
                    preset=CouplingPreset(RECIPROCAL_MODULAR, 0.0))


def test_dimension_cap():
    big = make_params(1, 3, 7000, JL=1, JR=0.5, Jm=0.3, JmP=0.7)
    with pytest.raises(DimensionCapError):
        build_hamiltonian(big)
    small = make_params(1, 3, 50, JL=1, JR=0.5, Jm=0.3, JmP=0.7)
    with pytest.raises(DimensionCapError):
        build_hamiltonian(small, dim_cap=100)
    assert build_hamiltonian(small).shape == (150, 150)


def test_config_round_trip():
    p = make_params(2, 2, 6, J0=1.25, JL=1, JR=-0.4 + 0.2j,
                    preset=CouplingPreset(SHIFTED, 2.0), boundary=PBC)
    q = params_from_config(params_to_config(p))
    assert q == p


def test_config_rejects_unknown_keys_and_inconsistent_preset():
    cfg = params_to_config(make_params(1, 3, 4, JL=1, JR=0.5,
                                       preset=CouplingPreset(RECIPROCAL_MODULAR, 2.0)))
    with pytest.raises(ValidationError):
        params_from_config({**cfg, "JX_re": 1.0})
    with pytest.raises(ValidationError):
        params_from_config({**cfg, "Jm_re": 5.0})   # preset derives Jm = 2
    with pytest.raises(ValidationError):
        params_from_config({k: v for k, v in cfg.items() if k != "L"})


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    d=st.integers(1, 3), r=st.integers(1, 3), L=st.integers(2, 5),
    pbc=st.booleans(),
    re=st.lists(st.floats(-2, 2, allow_nan=False), min_size=5, max_size=5),
    im=st.lists(st.floats(-2, 2, allow_nan=False), min_size=5, max_size=5),
)
def test_builder_matches_reference(d, r, L, pbc, re, im):
    if r * d < 2:
        return
    J0 = abs(re[0]) + 0.5 if d >= 2 else 0.0
    JL, JR = complex(re[1], im[1]), complex(re[2], im[2])
    Jm, JmP = complex(re[3], im[3]), complex(re[4], im[4])
    p = make_params(d, r, L, J0=J0, JL=JL, JR=JR, Jm=Jm, JmP=JmP,
                    boundary=PBC if pbc else OBC)
    H = build_hamiltonian(p)
    want = reference_hamiltonian(d, r, L, J0, JL, JR, Jm, JmP, pbc)
    assert np.array_equal(H, want)
    # current operator: unit amplitude on every rightward hop
    T = np.eye(p.D, k=1, dtype=complex)
    if pbc:
        T[-1, 0] += 1.0
    assert np.array_equal(build_current_operator(p), 1j * (T - T.conj().T))
    # stacked Bloch builders: each slice is the scalar call, bit for bit,
    # and matches the single-module block with the beta corners
    m = r * d
    block = reference_hamiltonian(d, r, 1, J0, JL, JR, 0, 0)
    ks = np.linspace(0.0, 2.0 * np.pi, 7)
    betas = np.array([0.6, 1.7]) * np.exp(1j * ks[:, None])
    for build, args, factors in ((build_bloch, ks, np.exp(1j * ks)),
                                 (build_generalized_bloch, betas, betas)):
        stack = build(p, args)
        assert stack.shape == args.shape + (m, m)
        for a, beta, M in zip(args.ravel(), factors.ravel(),
                              stack.reshape(-1, m, m)):
            assert M.tobytes() == build(p, a).tobytes()
            want = block.copy()
            want[0, m - 1] += JmP / complex(beta)
            want[m - 1, 0] += Jm * complex(beta)
            assert np.max(np.abs(M - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))
