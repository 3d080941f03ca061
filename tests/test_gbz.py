"""Non-Bloch factor: radius formula, beta roots, contour, gauge frame,
closed-form contour spectra."""

import itertools

import mpmath
import numpy as np
import pytest

from conftest import assert_multiset_close
from nhlab import (PBC, PRESET_NAMES, RECIPROCAL_MODULAR, SHIFTED,
                   CouplingPreset, SingularModelError, ValidationError,
                   beta_polynomial, beta_roots, build_bloch,
                   build_generalized_bloch, build_hamiltonian, gbz_contour,
                   gbz_radius, make_params, point_gap_residual, preset,
                   skin_frame)
from nhlab import gbz
from nhlab.gbz import (beta_quadratic_coeffs, bulk_determinant,
                       contour_eigenvalues)
from nhlab.model import _bond_table
from nhlab.spectral import FALL_BACKS
from nhlab.topology import _contour_betas


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


def interpolated_beta_polynomial(p, E):
    # beta * det(H_beta - E) is a quadratic in beta: its coefficients by
    # exact interpolation through three samples of the determinant
    xs = np.array([1.0, -1.0, 2.0], dtype=complex)
    return np.linalg.solve(np.vander(xs, 3), xs * bulk_determinant(p, E, xs))


def test_beta_polynomial_is_the_interpolated_determinant():
    rng = np.random.default_rng(17)
    for name in PRESET_NAMES:
        p = preset(name).params
        for _ in range(5):
            E = complex(*rng.normal(size=2) * 3.0)
            got = np.array(beta_polynomial(p, E))
            want = interpolated_beta_polynomial(p, E)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def test_bulk_polynomial_is_the_generalized_bloch_determinant():
    # det(E - h_beta) = Delta(E) - a beta - c / beta on modules of m = 2 ... 7
    # sites, with every coupling complex
    rng = np.random.default_rng(23)
    for d, r in [(1, 2), (2, 1), (1, 3), (1, 4), (2, 2), (1, 5), (2, 3), (1, 7)]:
        couplings = rng.normal(size=(4, 2)) @ np.array([1.0, 1j])
        p = make_params(d, r, 4, J0=float(rng.normal()) if d > 1 else 0.0,
                        JL=couplings[0], JR=couplings[1], Jm=couplings[2],
                        JmP=couplings[3])
        delta = gbz.bulk_polynomial(p)
        a, c = beta_quadratic_coeffs(p)
        assert len(delta) == d * r + 1 and delta[0] == 1
        for _ in range(4):
            E, beta = rng.normal(size=(2, 2)) @ np.array([1.0, 1j])
            want = (-1) ** (d * r) * bulk_determinant(p, E, beta)
            got = np.polyval(delta, E) - a * beta - c / beta
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0), (d, r)


M2 = make_params(1, 2, 10, JL=1.0, JR=-2.5,
                 preset=CouplingPreset(RECIPROCAL_MODULAR, 2.0))
M6 = make_params(2, 3, 10, J0=1.25, JL=1.0, JR=0.5,
                 preset=CouplingPreset(SHIFTED, 2.0))
CONTOUR_MODELS = [(name, preset(name).params) for name in PRESET_NAMES] + [
    ("m2", M2), ("m6", M6)]


def bottleneck(a, b):
    """Per sample, the multiset distance of a[j] and b[j]: the smallest
    largest distance over the pairings of their values."""
    best = np.full(a.shape[:-1], np.inf)
    for perm in itertools.permutations(range(a.shape[-1])):
        best = np.minimum(best, np.abs(a - b[..., list(perm)]).max(axis=-1))
    return best


def reference_roots(p, beta):
    """Roots of det(E - H_beta) at 50 digits: the continuants of the bond
    table and the two ring products, in mpmath from the same doubles."""
    upper, lower, Jm, JmP = _bond_table(p, p.J0, p.JL, p.JR, p.Jm, p.JmP)

    def continuant(bonds):
        prev, cur = [mpmath.mpc(1)], [mpmath.mpc(1), mpmath.mpc(0)]
        for b in bonds:
            prev, cur = cur, [x - b * y for x, y in zip(cur + [0], [0, 0] + prev)]
        return cur

    with mpmath.workdps(50):
        bonds = [mpmath.mpc(u) * mpmath.mpc(l) for u, l in zip(upper, lower)]
        inner = continuant(bonds[1:-1]) if len(bonds) > 1 else [mpmath.mpc(1)]
        JJ = mpmath.mpc(Jm) * mpmath.mpc(JmP)
        poly = [x - JJ * y for x, y in zip(continuant(bonds), [0, 0] + inner)]
        a, c = mpmath.mpc(Jm), mpmath.mpc(JmP)
        for u, l in zip(upper, lower):
            a, c = a * mpmath.mpc(u), c * mpmath.mpc(l)
        b = mpmath.mpc(complex(beta))
        poly[-1] -= a * b + c / b
        roots = mpmath.polyroots(poly, maxsteps=400, extraprec=400)
        return np.array([complex(r) for r in roots])


@pytest.mark.parametrize("p", [c[1] for c in CONTOUR_MODELS],
                         ids=[c[0] for c in CONTOUR_MODELS])
def test_contour_eigenvalues_match_lapack(p):
    # both contours at 2048 points over 21 JR in [-3, 1]: each sample the
    # same multiset as LAPACK's within 1e-12 ||h_beta||_1, or, where the two
    # part (at an exceptional point), no farther than LAPACK from the
    # 50-digit roots
    before = FALL_BACKS["contour"]
    for jr in np.linspace(-3.0, 1.0, 21):
        q = p.with_updates(JR=jr)
        for use_gbz in (False, True):
            betas = _contour_betas(q, use_gbz, 2048)
            H = build_generalized_bloch(q, betas)
            want, got = np.linalg.eigvals(H), contour_eigenvalues(q, betas)
            assert got.shape == want.shape
            if p.r * p.d > 4:  # the stack itself
                assert np.array_equal(got, want)
                continue
            dist = bottleneck(got, want)
            for j in np.flatnonzero(dist > 1e-12 * np.abs(H).sum(axis=-2).max(axis=-1)):
                ref = reference_roots(q, betas[j])[None]
                assert bottleneck(got[j][None], ref) <= bottleneck(want[j][None], ref)
    assert FALL_BACKS["contour"] == before


def test_contour_eigenvalues_at_a_double_root():
    # FIG4_HN at JR = 1 meets beta = -2.5 half way round its GBZ circle,
    # where Delta(E) - w = (E - 1)^2 (E + 2): the roots sit on the 50-digit
    # ones, and det(E - h_beta) vanishes at each
    p = preset("FIG4_HN").params.with_updates(JR=1.0)
    beta = _contour_betas(p, True, 2048)[1024]
    got = contour_eigenvalues(p, beta)
    ref = reference_roots(p, beta)
    lapack = np.linalg.eigvals(build_generalized_bloch(p, beta))
    assert bottleneck(got[None], ref[None]) <= bottleneck(lapack[None], ref[None])
    assert bottleneck(got[None], np.array([[1.0, 1.0, -2.0]])) <= 1e-12
    h = build_generalized_bloch(p, beta)
    dets = [abs(np.linalg.det(E * np.eye(3) - h)) for E in got]
    assert max(dets) <= 1e-14


def test_contour_samples_failing_the_gate_take_the_stack(monkeypatch):
    # a gate nothing passes sends every sample to np.linalg.eigvals of its
    # own matrix, and counts each
    monkeypatch.setattr(gbz, "CONTOUR_GATE", -1.0)
    for name in ("FIG2_HN", "FIG3"):
        p = preset(name).params
        betas = _contour_betas(p, True, 512).reshape(2, 256)
        before = FALL_BACKS["contour"]
        got = contour_eigenvalues(p, betas)
        assert FALL_BACKS["contour"] - before == 512
        assert np.array_equal(got, np.linalg.eigvals(build_generalized_bloch(p, betas)))


def test_contour_eigenvalues_refuse_a_zero_beta():
    for p in (preset("FIG3").params, M6):
        with pytest.raises(ValidationError, match="nonzero"):
            contour_eigenvalues(p, np.array([1.0, 0.0]))


GBZ_INPUT_CHECKS = {
    "radius": (lambda: gbz.GbzContour(0.0), ValidationError,
               "contour radius must be positive"),
    "points": (lambda: gbz.GbzContour(1.0, n_points=32), ValidationError,
               "contour needs at least 64 points"),
    # JL = 0 with r > 1 zeroes a = J0^(r(d-1)) JL^(r-1) Jm
    "leading coefficient": (lambda: beta_roots(
                                make_params(1, 3, 4, JL=0, JR=1, Jm=1, JmP=1), 0.5),
                            SingularModelError,
                            "beta-quadratic leading coefficient vanishes"),
}


@pytest.mark.parametrize("case", list(GBZ_INPUT_CHECKS))
def test_gbz_input_checks(case):
    call, error, message = GBZ_INPUT_CHECKS[case]
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)
