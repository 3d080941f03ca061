"""Fisher information: analytic pins, exact chain oracle, dominance."""

from functools import partial

import numpy as np
import pytest

from nhlab import (DEFAULT_STEP, NON_MODULAR, RECIPROCAL_MODULAR,
                   BoundUndefinedError, ConvergenceError, CouplingPreset,
                   DerivativeIllDefinedError, FisherMatrix, NumericalError,
                   ParamSpec, SweepSpec, ValidationError, apply_params,
                   build_hamiltonian, cfi, cfim, current_basis,
                   family_state_derivative, find_peak, harness, make_params,
                   metrology, position_basis, preset,
                   probe_state, qfi, qfim, run_sweep, skin_frame,
                   state_derivative, state_derivatives, total_variance_bound)
from nhlab.spectral import participation_ratio
from nhlab.metrology import QUANTUM


def uniform_chain(jr, L):
    # uniform nonreciprocal chain: every bond (1 forward, jr backward)
    return make_params(1, 3, L, JL=1.0, JR=jr,
                       preset=CouplingPreset(NON_MODULAR, 0.0))


def chain_qfi_oracle(jr, D):
    # steady state of the uniform chain in closed form: the gauge
    # transform g^j (g = sqrt|JR|) maps it onto a symmetric chain whose
    # modes are sin(pi m j/(D+1)); only the amplitude profile depends on
    # JR, so the QFI reduces to the variance of the site index
    j = np.arange(1, D + 1, dtype=float)
    w = np.abs(jr) ** j * np.sin(np.pi * j / (D + 1)) ** 2
    w = w / w.sum()
    mean = float((w * j).sum())
    var = float((w * (j - mean) ** 2).sum())
    return var / jr ** 2


def test_two_level_qfi_and_cfi_pin():
    th = 0.37
    psi = np.array([np.cos(th), np.sin(th)], dtype=complex)
    dpsi = np.array([-np.sin(th), np.cos(th)], dtype=complex)
    assert qfi(psi, dpsi) == pytest.approx(4.0, abs=1e-12)
    assert cfi(psi, dpsi, position_basis(2)) == pytest.approx(4.0, abs=1e-12)


def test_two_level_phase_parameter_is_invisible_to_populations():
    th, ph = 0.61, 0.83
    psi = np.array([np.cos(th), np.exp(1j * ph) * np.sin(th)], dtype=complex)
    dpsi = np.array([0.0, 1j * np.exp(1j * ph) * np.sin(th)], dtype=complex)
    assert qfi(psi, dpsi) == pytest.approx(np.sin(2 * th) ** 2, abs=1e-12)
    assert cfi(psi, dpsi, position_basis(2)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("L", [10, 50])
def test_uniform_chain_state_and_qfi_match_closed_form(L):
    jr = -0.6
    p = uniform_chain(jr, L)
    D = p.D
    ps = ParamSpec(("JR",), (jr,), (1e-5,))
    psi = probe_state(p, ps)
    j = np.arange(1, D + 1, dtype=float)
    env = np.sqrt(np.abs(jr)) ** j * np.sin(np.pi * j / (D + 1))
    env = env / np.linalg.norm(env)
    assert np.max(np.abs(np.abs(psi) - env)) < 1e-8
    dpsi = state_derivative(p, ps, 0)
    got = qfi(psi, dpsi)
    assert got == pytest.approx(chain_qfi_oracle(jr, D), rel=1e-6)


def test_qfi_gauge_and_basis_invariance():
    p = uniform_chain(-0.6, 10)
    ps = ParamSpec(("JR",), (-0.6,), (1e-5,))
    psi = probe_state(p, ps)
    dpsi = state_derivative(p, ps, 0)
    base = qfi(psi, dpsi)
    for c in (0.3, -1.7, 4.0):
        # derivative gauge freedom: adding i c psi is unobservable
        assert qfi(psi, dpsi + 1j * c * psi) == pytest.approx(base, rel=1e-8)
    rng = np.random.default_rng(2)
    M = rng.normal(size=(p.D, p.D)) + 1j * rng.normal(size=(p.D, p.D))
    U = np.linalg.qr(M)[0]
    assert qfi(U @ psi, U @ dpsi) == pytest.approx(base, rel=1e-9)


def test_oracle_is_step_stable_away_from_criticality():
    p = make_params(1, 3, 16, JL=1, JR=-2.5,
                    preset=CouplingPreset(RECIPROCAL_MODULAR, 2.0))
    ps = ParamSpec(("JR",), (-2.5,), (1e-5,))
    psi = probe_state(p, ps)
    a = qfi(psi, family_state_derivative(p, ps, 0, 1e-5))
    b = qfi(psi, family_state_derivative(p, ps, 0, 5e-6))
    assert abs(a - b) <= 5e-3 * abs(a)


def test_degenerate_steady_state_is_reported():
    # two eigenvalues share the largest imaginary part on this family
    p = make_params(1, 3, 50, JL=1, JR=-0.22,
                    preset=CouplingPreset(RECIPROCAL_MODULAR, 0.4))
    ps = ParamSpec(("JR",), (-0.22,), (1e-5,))
    with pytest.raises(NumericalError):
        state_derivative(p, ps, 0)
    with pytest.raises(DerivativeIllDefinedError):
        state_derivatives(p, ps)


def all_derivatives(p, ps, i):
    return state_derivatives(p, ps)[1][i]


def random_complex_models():
    """Small chains with random complex couplings, estimating JR_re, JR_im."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(1, 3))
        r = int(rng.integers(1, 4))
        if r * d < 2:
            continue
        L = int(rng.integers(4, 9))
        p = make_params(d, r, L, J0=1.0 + rng.uniform() if d > 1 else 0.0,
                        JL=complex(rng.normal(), 0.3 * rng.normal()),
                        JR=complex(rng.normal(), 0.3 * rng.normal()),
                        Jm=complex(rng.normal(), 0.3 * rng.normal()),
                        JmP=complex(rng.normal(), 0.3 * rng.normal()))
        yield p, ParamSpec(("JR_re", "JR_im"), (p.JR.real, p.JR.imag),
                           (1e-5, 1e-5))


@pytest.mark.parametrize("jr_im", [1e-8, 1e-6])
def test_non_isolated_steady_state_is_reported(jr_im):
    # every imaginary part of this spectrum scales with JR_im, and at 0 the
    # steady eigenvalue jumps from Re 0.88 to -0.88; this close to it the
    # runner-up trails by less than the spectral motion over the step
    p = make_params(1, 3, 2, JL=1.0, JR=0.5, Jm=1.0, JmP=0.5)
    ps = ParamSpec(("JR_im",), (jr_im,), (1e-5,))
    for derivative in (state_derivative, all_derivatives,
                       partial(family_state_derivative, step=1e-5)):
        with pytest.raises(DerivativeIllDefinedError):
            derivative(p, ps, 0)


def test_oracle_error_names_its_step():
    # the isolation check fails at the requested step, and the oracle
    # reports that step
    p = make_params(1, 3, 2, JL=1.0, JR=0.5, Jm=1.0, JmP=0.5)
    ps = ParamSpec(("JR_im",), (1e-6,), (1e-5,))
    with pytest.raises(DerivativeIllDefinedError, match="step 1e-05"):
        family_state_derivative(p, ps, 0, 1e-5)


@pytest.mark.parametrize("d, r, L, J0, JR, Jm, JmP", [
    (1, 2, 4, 0.0, 1.0, 1.0 + 0.3j, -0.8 + 0.3j),
    (2, 2, 5, 1.0, 1.0 + 0.1j, 1.3 + 0.2j, -0.5 - 0.3j),
], ids=["d1r2", "d2r2"])
def test_unresolved_steady_state_is_reported(d, r, L, J0, JR, Jm, JmP):
    # with one-way bonds inside each module (JL = 0) the steady eigenvalue
    # is defective, and rounding splits it into a cluster about 1e-4 wide;
    # a central difference has no limit there
    p = make_params(d, r, L, J0=J0, JL=0.0, JR=JR, Jm=Jm, JmP=JmP)
    ps = ParamSpec(("JR_re",), (complex(JR).real,), (1e-5,))
    for derivative in (state_derivative, all_derivatives,
                       partial(family_state_derivative, step=1e-5)):
        with pytest.raises(DerivativeIllDefinedError):
            derivative(p, ps, 0)


def test_classical_never_beats_quantum():
    done = 0
    for p, ps in random_complex_models():
        try:
            psi = probe_state(p, ps)
            dlist = [state_derivative(p, ps, i) for i in range(2)]
        except NumericalError:
            continue
        Q = qfim(psi, dlist, ps)
        C = cfim(psi, dlist, position_basis(p.D), ps)
        gap = np.linalg.eigvalsh(Q.entries - C.entries)
        assert gap.min() >= -1e-6 * np.linalg.norm(Q.entries)
        done += 1
    assert done >= 8


def test_fisher_matrix_contract():
    F = FisherMatrix(entries=np.diag([4.0, 1.0]), kind=QUANTUM)
    assert total_variance_bound(F) == pytest.approx(1.25, abs=1e-12)
    with pytest.raises(BoundUndefinedError):
        total_variance_bound(FisherMatrix(entries=np.diag([1.0, 0.0]),
                                          kind=QUANTUM))
    with pytest.raises(NumericalError):
        FisherMatrix(entries=np.array([[1.0, 2.0], [-2.0, 1.0]]),
                     kind=QUANTUM)


def test_param_spec_validation():
    with pytest.raises(ValidationError):
        ParamSpec(("JR", "JR"), (0.1, 0.2), (1e-5, 1e-5))
    with pytest.raises(ValidationError):
        ParamSpec(("JR", "JR_re"), (0.1, 0.2), (1e-5, 1e-5))
    with pytest.raises(ValidationError):
        ParamSpec(("JR",), (0.1,), (0.0,))
    with pytest.raises(ValidationError):
        ParamSpec(("bogus",), (0.1,), (1e-5,))
    with pytest.raises(ValidationError):
        ParamSpec(("JR", "Jm", "JmP", "J"), (0.1,) * 4, (1e-5,) * 4)


def test_apply_params_label_semantics():
    p = make_params(1, 3, 6, JL=1, JR=-2.5,
                    preset=CouplingPreset(RECIPROCAL_MODULAR, 2.0))
    q = apply_params(p, ParamSpec(("J",), (2.0,), (1e-5,)), (0.5,))
    assert q.preset.J == 2.5
    assert q.Jm == 2.5 and q.JmP == pytest.approx(0.4)
    q = apply_params(p, ParamSpec(("JR_re", "JR_im"), (-2.5, 0.0),
                                  (1e-5, 1e-5)), (0.1, -0.2))
    assert q.JR == pytest.approx(-2.4 - 0.2j)
    assert q.JL == p.JL


def test_measurement_bases_are_valid_povms():
    p = uniform_chain(-0.6, 6)
    pos = position_basis(p.D)
    cur = current_basis(p)
    for povm in (pos, cur):
        U = povm.projectors
        assert np.max(np.abs(U.conj().T @ U - np.eye(p.D))) < 1e-10
    assert pos.label != cur.label


def preset_point(name, L):
    b = preset(name)
    ps = ParamSpec(b.param_labels, b.critical,
                   (DEFAULT_STEP,) * len(b.param_labels))
    return b.resized(L), ps


def analytic_and_oracle_qfim(p, ps):
    psi = probe_state(p, ps)
    analytic = [state_derivative(p, ps, i) for i in range(ps.l)]
    oracle = [family_state_derivative(p, ps, i, 1e-5) for i in range(ps.l)]
    return qfim(psi, analytic).entries, qfim(psi, oracle).entries


@pytest.fixture
def count_solves(monkeypatch):
    """Count the eigensolves behind every model spectrum and steady state."""
    counter = {"solves": 0}
    for name in ("full_spectrum", "sublattice_eigenvalues"):
        def counted(*args, _solve=getattr(metrology, name), **kwargs):
            counter["solves"] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(metrology, name, counted)
    return counter


def test_qfi_work_counts(count_solves):
    # a QFI+CFI sweep point takes its state and derivative from one solve
    spec = preset("FIG4_HN").sweep(("QFI", "CFI_POSITION", "CFI_CURRENT"),
                                   grid=(-0.41, -0.4))
    table = run_sweep(spec, workers=1)
    assert count_solves["solves"] == 2
    # Brent refines this peak in 8 evaluations of one solve each
    count_solves["solves"] = 0
    spec = preset("FIG4_HN").sweep(("QFI",), grid=(-0.41, -0.4, -0.39))
    table = run_sweep(spec, workers=1)
    count_solves["solves"] = 0
    find_peak(table, "QFI")
    assert count_solves["solves"] == 8
    # a QFIM point is 1 + l solves through the per-parameter calls and
    # one solve through state_derivatives
    for name, l in (("FIG5_TOP", 2), ("FIG5_BOTTOM", 3)):
        p, ps = preset_point(name, 34)
        count_solves["solves"] = 0
        psi = probe_state(p, ps)
        qfim(psi, [state_derivative(p, ps, i) for i in range(ps.l)], ps)
        assert count_solves["solves"] == 1 + l, name
        count_solves["solves"] = 0
        qfim(*state_derivatives(p, ps), ps)
        assert count_solves["solves"] == 1, name
    # the finite-difference oracle is the base solve plus a two-point stencil
    p, ps = preset_point("FIG4_HN", 34)
    count_solves["solves"] = 0
    family_state_derivative(p, ps, 0, 1e-5)
    assert count_solves["solves"] == 3
    # PR beside a Fisher column reads the state of the same steady solve
    spec = preset("FIG4_HN").sweep(("QFI", "PR"), grid=(-0.4,))
    count_solves["solves"] = 0
    table = run_sweep(spec, workers=1)
    assert count_solves["solves"] == 1
    ps = ParamSpec((spec.axis,), (-0.4,), (DEFAULT_STEP,))
    assert table.column("PR")[0] == participation_ratio(probe_state(spec.base, ps))
    # where the derivative is ill-defined, the failed probe is not repeated
    # for each Fisher column: one failed steady solve, then PR's own
    base = make_params(1, 3, 50, JL=1, JR=-0.22,
                       preset=CouplingPreset(RECIPROCAL_MODULAR, 0.4))
    fisher = ("QFI", "CFI_POSITION", "CFI_CURRENT")
    spec = SweepSpec(base=base, axis="JR", grid=(-0.22,),
                     observables=frozenset(fisher + ("PR",)))
    count_solves["solves"] = 0
    values, error = harness._point_values(spec, -0.22, spec.observables)
    assert count_solves["solves"] == 2
    ps = ParamSpec(("JR",), (-0.22,), (DEFAULT_STEP,))
    assert values["PR"] == participation_ratio(probe_state(base, ps))
    assert values["PR"] == pytest.approx(1.6221193654003574, rel=1e-12)
    assert error == "; ".join("%s: steady-state eigenvalue is degenerate" % name
                              for name in fisher)


def test_steady_solve_certifies_the_eigenvalues_the_guards_read(monkeypatch):
    # a runner-up eigenvalue off by 1e-3 fails its certificate
    solve = metrology.sublattice_eigenvalues

    def off(*args, **kwargs):
        values = solve(*args, **kwargs).copy()
        values[1] += 1e-3
        return values

    monkeypatch.setattr(metrology, "sublattice_eigenvalues", off)
    p, ps = preset_point("FIG4_HN", 34)
    with pytest.raises(ConvergenceError):
        probe_state(p, ps)


ORACLE_CASES = [
    preset_point("FIG4_HN", 34),
    preset_point("FIG4_HN", 100),
    preset_point("FIG5_TOP", 34),
    preset_point("FIG5_BOTTOM", 34),
    # J is the one label H is not linear in (JmP = 1/J)
    (preset("FIG4_HN").resized(34), ParamSpec(("J",), (0.4,), (DEFAULT_STEP,))),
]


@pytest.mark.parametrize("p, ps", ORACLE_CASES,
                         ids=["FIG4_HN-34", "FIG4_HN-100", "FIG5_TOP-34",
                              "FIG5_BOTTOM-34", "FIG4_HN-J"])
def test_analytic_derivative_matches_the_oracle(p, ps):
    A, F = analytic_and_oracle_qfim(p, ps)
    assert np.max(np.abs(A - F)) <= 1e-4 * np.max(np.abs(F))


def test_analytic_derivative_matches_the_oracle_on_random_models():
    done = 0
    for p, ps in random_complex_models():
        try:
            A, F = analytic_and_oracle_qfim(p, ps)
        except NumericalError:
            continue
        # r = 1 chains have no JR bond, so both informations vanish
        assert np.max(np.abs(A - F)) <= 1e-4 * np.max(np.abs(F))
        done += 1
    assert done >= 8


def test_analytic_derivative_maps_back_from_the_skin_frame():
    p = preset("FIG2_HN").resized(100)
    ps = ParamSpec(("JR",), (-3.0,), (DEFAULT_STEP,))
    # the frame spans more than e^30: a raw solve loses this chain's spectrum
    assert np.ptp(skin_frame(apply_params(p, ps))) > 30.0
    A, F = analytic_and_oracle_qfim(p, ps)
    assert abs(A[0, 0] - F[0, 0]) <= 1e-4 * F[0, 0]
    psi, (dpsi,) = state_derivatives(p, ps)
    assert np.array_equal(psi, probe_state(p, ps))
    assert abs(np.vdot(psi, dpsi)) <= 1e-12 * np.linalg.norm(dpsi)


@pytest.mark.parametrize("name", ["FIG2_HN", "FIG2_SSH"])
def test_rebalanced_model_is_the_skin_frame_similarity(name):
    # the model with module bonds (Jm rho, JmP / rho) is S^-1 H S for
    # S = diag(exp(skin_frame)), entry for entry and bond for bond
    p = preset(name).resized(34)
    H = build_hamiltonian(p)
    s = np.exp(skin_frame(p))
    want = H * (s[None, :] / s[:, None])
    Hb, rho, frame = metrology._skin_balanced(p)
    assert rho != 1.0 and np.array_equal(frame, skin_frame(p))
    assert np.array_equal(Hb != 0, H != 0)
    assert np.all(np.abs(Hb - want) <= 1e-14 * np.abs(want))


def test_unbalanced_model_is_built_raw():
    pbc = preset("FIG2_HN").params.with_updates(boundary="PBC")
    for p in (preset("FIG4_HN").params, pbc):
        assert skin_frame(p) is None
        Hb, rho, frame = metrology._skin_balanced(p)
        assert rho == 1.0 and frame is None
        assert np.array_equal(Hb, build_hamiltonian(p))


@pytest.mark.parametrize("name", ["FIG4_HN", "FIG5_TOP", "FIG5_BOTTOM"])
def test_state_derivatives_match_the_per_parameter_calls(name):
    p, ps = preset_point(name, 34)
    psi, dpsis = state_derivatives(p, ps)
    assert np.array_equal(psi, probe_state(p, ps))
    assert len(dpsis) == ps.l
    for i, dpsi in enumerate(dpsis):
        single = state_derivative(p, ps, i)
        assert np.linalg.norm(dpsi - single) <= 1e-12 * np.linalg.norm(single)
