"""Non-Bloch factor: radius formula, beta roots, contour, gauge frame."""

import numpy as np
import pytest

from conftest import assert_multiset_close
from nhlab import (PBC, RECIPROCAL_MODULAR, SHIFTED, CouplingPreset,
                   SingularModelError, build_bloch, build_hamiltonian,
                   beta_roots, gbz_contour, gbz_radius, make_params,
                   point_gap_residual, skin_frame)
from nhlab.gbz import beta_quadratic_coeffs, bulk_determinant


def hn(jr, J=2.0, L=12):
    return make_params(1, 3, L, JL=1, JR=jr,
                       preset=CouplingPreset(RECIPROCAL_MODULAR, J))


def test_radius_closed_form():
    # rho^2 = |JR|^(r-1) |JmP| / (|JL|^(r-1) |Jm|)
    assert gbz_radius(hn(-2.5)) == pytest.approx(1.25, abs=1e-14)
    p = make_params(2, 2, 10, J0=2.0, JL=1, JR=1.2,
                    preset=CouplingPreset(SHIFTED, 0.5))
    assert gbz_radius(p) == pytest.approx(np.sqrt(1.2 * 1.7 / 1.5), abs=1e-12)


def test_residual_root_is_exact():
    assert point_gap_residual(hn(-2.0)) == 0.0
    assert point_gap_residual(hn(2.0)) == 0.0
    assert point_gap_residual(hn(-1.9)) > 0.09


def test_radius_squared_equals_beta_root_modulus_product():
    # the roots move with E but their modulus product does not
    rng = np.random.default_rng(11)
    cases = [hn(-2.5), hn(0.7),
             make_params(2, 2, 6, J0=1.25, JL=1, JR=0.4,
                         preset=CouplingPreset(SHIFTED, 2.0)),
             make_params(1, 3, 6, JL=0.6, JR=-1.1, Jm=0.3, JmP=0.9)]
    for p in cases:
        for _ in range(5):
            E = complex(rng.normal(), rng.normal())
            roots = beta_roots(p, E)
            prod = np.prod(np.abs(roots))
            assert abs(gbz_radius(p) ** 2 - prod) < 1e-8


def test_residual_sees_only_moduli():
    # JR -> JR e^{i chi} with JmP -> JmP e^{-i(r-1) chi} leaves it fixed
    base = make_params(1, 3, 6, JL=0.8, JR=-1.3, Jm=0.4, JmP=0.7)
    want = point_gap_residual(base)
    for chi in (0.3, 1.1, 2.9):
        rot = make_params(1, 3, 6, JL=0.8, JR=-1.3 * np.exp(1j * chi),
                          Jm=0.4, JmP=0.7 * np.exp(-2j * chi))
        assert point_gap_residual(rot) == pytest.approx(want, abs=1e-12)


def test_bulk_determinant_on_unit_circle_is_bloch_determinant():
    p = make_params(2, 2, 6, J0=1.25, JL=1, JR=0.4,
                    preset=CouplingPreset(SHIFTED, 2.0))
    rng = np.random.default_rng(5)
    eye = np.eye(p.r * p.d)
    for _ in range(6):
        E = complex(rng.normal(), rng.normal())
        k = float(rng.uniform(0, 2 * np.pi))
        lhs = bulk_determinant(p, E, np.exp(1j * k))
        rhs = np.linalg.det(build_bloch(p, k) - E * eye)
        assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)


def test_quadratic_coefficients_formula():
    # a = J0^(r(d-1)) JL^(r-1) Jm, c = J0^(r(d-1)) JR^(r-1) JmP
    p = make_params(2, 2, 6, J0=1.25, JL=1.0, JR=0.4,
                    preset=CouplingPreset(SHIFTED, 2.0))
    a, c = beta_quadratic_coeffs(p)
    assert a == pytest.approx(1.25 ** 2 * 1.0 * 3.0, abs=1e-12)
    assert c == pytest.approx(1.25 ** 2 * 0.4 * 2.4, abs=1e-12)
    q = hn(-2.5)
    a, c = beta_quadratic_coeffs(q)
    assert a == pytest.approx(1.0 ** 2 * 2.0, abs=1e-12)
    assert c == pytest.approx((-2.5) ** 2 * 0.5, abs=1e-12)


def test_contour_geometry():
    p = hn(-2.5)
    cont = gbz_contour(p)
    pts = np.asarray(cont.points)
    assert len(pts) >= 64
    assert np.max(np.abs(np.abs(pts) - cont.radius)) < 1e-12
    phases = np.angle(pts * np.exp(-1j * np.angle(pts[0])))
    assert np.all(np.diff(np.unwrap(phases)) > 0)


def test_reciprocal_couplings_sit_on_unit_circle():
    p = make_params(1, 3, 8, JL=0.9, JR=0.9, Jm=0.4, JmP=0.4)
    assert gbz_radius(p) == 1.0
    assert point_gap_residual(p) == 0.0


def test_vanishing_inter_module_coupling_is_singular():
    p = make_params(1, 3, 8, JL=1.0, JR=0.5, Jm=0.0, JmP=0.3)
    with pytest.raises(SingularModelError):
        gbz_radius(p)


def test_skin_frame_balances_without_moving_eigenvalues():
    p = hn(-2.5, L=8)
    s = np.exp(skin_frame(p))
    assert s is not None and len(s) == p.D
    H = build_hamiltonian(p)
    Hb = H * (s[None, :] / s[:, None])      # diag(s)^-1 H diag(s)
    assert_multiset_close(np.linalg.eigvals(H), np.linalg.eigvals(Hb), 1e-9)


def test_skin_frame_improves_eigenvector_conditioning():
    p = hn(-2.5, L=20)
    s = np.exp(skin_frame(p))
    H = build_hamiltonian(p)
    Hb = H * (s[None, :] / s[:, None])
    cond_raw = np.linalg.cond(np.linalg.eig(H)[1])
    cond_bal = np.linalg.cond(np.linalg.eig(Hb)[1])
    assert cond_bal < cond_raw / 10.0


def test_skin_frame_absent_when_not_applicable():
    assert skin_frame(hn(-2.0)) is None            # critical, radius 1
    pbc = make_params(1, 3, 8, JL=1, JR=-2.5, boundary=PBC,
                      preset=CouplingPreset(RECIPROCAL_MODULAR, 2.0))
    assert skin_frame(pbc) is None
