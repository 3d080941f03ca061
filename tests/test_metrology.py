"""Fisher information: analytic pins, exact chain oracle, dominance."""

import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from nhlab import (DEFAULT_STEP, NON_MODULAR, PRESET_NAMES, RECIPROCAL_MODULAR,
                   BoundUndefinedError, ConvergenceError, CouplingPreset,
                   DerivativeIllDefinedError, FisherMatrix, NumericalError,
                   ParamSpec, Povm, SHIFTED, SweepSpec, ValidationError,
                   apply_params, build_current_operator, build_hamiltonian,
                   cfi, cfim, current_basis,
                   family_state_derivative, find_peak, harness, make_params,
                   metrology, params_to_config, position_basis, preset,
                   probe_state, qfi, qfim, run_sweep, skin_frame,
                   state_derivative, state_derivatives, total_variance_bound)
from nhlab.cli import main
from nhlab.model import OBC, PBC, ChainBands, chain_bands
from nhlab.spectral import (bordered_solve, eigenpair, full_spectrum,
                            participation_ratio, phase_fixed,
                            steady_neighbours)
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


def test_degenerate_steady_state_is_reported(count_solves):
    # two eigenvalues share the largest imaginary part on this family
    p = make_params(1, 3, 50, JL=1, JR=-0.22,
                    preset=CouplingPreset(RECIPROCAL_MODULAR, 0.4))
    ps = ParamSpec(("JR",), (-0.22,), (1e-5,))
    with pytest.raises(NumericalError):
        state_derivative(p, ps, 0)
    with pytest.raises(DerivativeIllDefinedError):
        state_derivatives(p, ps)
    # a failed solve is not kept: each call solves again and raises again
    assert count_solves["solves"] == 2
    assert metrology._last_steady is None


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


def basis_matrix(basis, D):
    """The basis columns U of a measurement, read off its amplitude map:
    the amplitudes of the unit vectors are the columns of U^+."""
    return np.array([basis.amplitudes(e) for e in np.eye(D)]).conj()


def test_measurement_bases_are_valid_povms():
    p = uniform_chain(-0.6, 6)
    pos = position_basis(p.D)
    for cur in (current_basis(p), current_basis(p.with_updates(boundary=PBC))):
        for povm in (pos, cur):
            U = basis_matrix(povm, p.D)
            assert np.max(np.abs(U.conj().T @ U - np.eye(p.D))) < 1e-10
            assert np.max(np.abs(U @ U.conj().T - np.eye(p.D))) < 1e-10
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

    def counted(*args, _solve=metrology.full_spectrum, **kwargs):
        counter["solves"] += 1
        return _solve(*args, **kwargs)

    monkeypatch.setattr(metrology, "full_spectrum", counted)
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
    # a QFIM point is one solve through the per-parameter calls, which
    # share the kept steady solve, and one through state_derivatives
    for name in ("FIG5_TOP", "FIG5_BOTTOM"):
        p, ps = preset_point(name, 34)
        count_solves["solves"] = 0
        psi = probe_state(p, ps)
        qfim(psi, [state_derivative(p, ps, i) for i in range(ps.l)], ps)
        assert count_solves["solves"] == 1, name
        metrology._last_steady = None
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
    # for each Fisher column; at a degenerate steady eigenvalue there is no
    # state either, so PR fails with the Fisher columns after that one solve
    base = make_params(1, 3, 50, JL=1, JR=-0.22,
                       preset=CouplingPreset(RECIPROCAL_MODULAR, 0.4))
    fisher = ("QFI", "CFI_POSITION", "CFI_CURRENT")
    spec = SweepSpec(base=base, axis="JR", grid=(-0.22,),
                     observables=frozenset(fisher + ("PR",)))
    count_solves["solves"] = 0
    row = harness._sweep_row(spec, -0.22)
    assert count_solves["solves"] == 1
    assert np.isnan(row["PR"])
    assert row["error"] == "; ".join(
        "%s: steady-state eigenvalue is degenerate" % name
        for name in fisher + ("PR",))


def test_kept_solve_serves_only_its_own_point(count_solves):
    # the same point again makes no solve; a 1-ulp move of JR makes one
    p, ps = preset_point("FIG4_HN", 34)
    probe_state(p, ps)
    count_solves["solves"] = 0
    state_derivative(p, ps, 0)
    assert count_solves["solves"] == 0
    moved = ParamSpec(ps.labels, (np.nextafter(ps.values[0], 0.0),), ps.steps)
    probe_state(p, moved)
    assert count_solves["solves"] == 1
    # the kept arrays are read-only
    values, r, l = metrology._last_steady[1]
    assert not (values.flags.writeable or r.flags.writeable
                or l.flags.writeable)


@pytest.mark.parametrize("name", ["FIG4_HN", "FIG5_BOTTOM"])
def test_kept_solve_gives_the_bits_of_a_fresh_one(name):
    # the calls after the first at a point read the kept solve, even after
    # a caller writes into what it was given, and each result has the bits
    # of the same call at an empty slot
    p, ps = preset_point(name, 34)

    def fresh(call, *args):
        metrology._last_steady = None
        return call(p, ps, *args)

    got = [probe_state(p, ps)]
    got += [state_derivative(p, ps, i) for i in range(ps.l)]
    kept = [a.tobytes() for a in got]
    for a in got:
        a[:] = 0.0
    psi, dpsis = state_derivatives(p, ps)
    again = probe_state(p, ps)
    want = [fresh(probe_state)]
    want += [fresh(state_derivative, i) for i in range(ps.l)]
    assert kept == [a.tobytes() for a in want]
    want_psi, want_dpsis = fresh(state_derivatives)
    assert psi.tobytes() == again.tobytes() == want_psi.tobytes()
    assert [d.tobytes() for d in dpsis] == [d.tobytes() for d in want_dpsis]


def test_chain_and_ring_do_not_share_a_kept_solve(monkeypatch, count_solves):
    # an open chain and the ring with the same couplings are two points
    rings = []
    ring_values = metrology._ring_values

    def counted(q):
        rings.append(q)
        return ring_values(q)

    monkeypatch.setattr(metrology, "_ring_values", counted)
    p, ps = preset_point("FIG4_HN", 34)
    ring = p.with_updates(boundary=PBC)
    chain_state = probe_state(p, ps)
    ring_state = probe_state(ring, ps)
    assert count_solves["solves"] == 1 and len(rings) == 1
    assert probe_state(p, ps).tobytes() == chain_state.tobytes()
    assert count_solves["solves"] == 2 and len(rings) == 1
    metrology._last_steady = None
    assert probe_state(ring, ps).tobytes() == ring_state.tobytes()
    assert len(rings) == 2
    assert chain_state.tobytes() != ring_state.tobytes()


def test_steady_solve_certifies_the_eigenvalues_the_guards_read(monkeypatch):
    # a runner-up eigenvalue off by 1e-3 fails its certificate
    solve = metrology.full_spectrum

    def off(*args, **kwargs):
        values = solve(*args, **kwargs).copy()
        values[1] += 1e-3
        return values

    monkeypatch.setattr(metrology, "full_spectrum", off)
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
    Hb = Hb.dense()
    assert rho != 1.0 and np.array_equal(frame, skin_frame(p))
    assert np.array_equal(Hb != 0, H != 0)
    assert np.all(np.abs(Hb - want) <= 1e-14 * np.abs(want))


def test_unbalanced_model_is_built_raw():
    pbc = preset("FIG2_HN").params.with_updates(boundary="PBC")
    for p in (preset("FIG4_HN").params, pbc):
        assert skin_frame(p) is None
        Hb, rho, frame = metrology._skin_balanced(p)
        assert rho == 1.0 and frame is None
        assert np.array_equal(Hb.dense(), build_hamiltonian(p))


@pytest.mark.parametrize("name", ["FIG4_HN", "FIG5_TOP", "FIG5_BOTTOM"])
def test_state_derivatives_match_the_per_parameter_calls(name):
    p, ps = preset_point(name, 34)
    psi, dpsis = state_derivatives(p, ps)
    assert np.array_equal(psi, probe_state(p, ps))
    assert len(dpsis) == ps.l
    for i, dpsi in enumerate(dpsis):
        single = state_derivative(p, ps, i)
        assert np.linalg.norm(dpsi - single) <= 1e-12 * np.linalg.norm(single)


def test_vanishing_bond_reports_a_degenerate_steady_state(tmp_path):
    # FIG2_SSH at JR=-0.5 has JmP = JR + 0.5 = 0: the modules decouple and
    # the steady eigenvalue is L-fold degenerate, so inverse iteration
    # would overflow; the failure is typed, not "residual nan", and the
    # state alone fails as its derivatives do
    b = preset("FIG2_SSH")
    p = b.resized(34).with_updates(JR=-0.5)
    assert p.JmP == 0
    ps = ParamSpec(("JR",), (-0.5,), (DEFAULT_STEP,))
    for derivative in (lambda: state_derivatives(p, ps),
                       lambda: state_derivative(p, ps, 0),
                       lambda: probe_state(p, ps)):
        with pytest.raises(DerivativeIllDefinedError, match="degenerate"):
            derivative()
    ini = tmp_path / "ssh.ini"
    ini.write_text("[model]\n%s\n[metrology]\nlabels = JR\nvalues = -0.5\n"
                   % "\n".join("%s = %s" % kv
                               for kv in params_to_config(p).items()))
    assert main(["qfi", "--config", str(ini)]) == 3


def rebalanced(q, rho):
    """Model q with its module bonds in a skin frame of radius rho."""
    return q.with_updates(Jm=q.Jm * rho, JmP=q.JmP / rho)


def dense_state_derivatives(p, ps):
    """state_derivatives on dense matrices: the reference for the banded
    point.  Inverse iteration from one dense LU of H - lambda gives r and
    l, H' is the central difference of the dense stencil Hamiltonians in
    the base point's skin frame (exact for the presets' labels), and the
    (D+1)-square bordered system [[H - lambda, r], [l^+, 0]] goes to
    np.linalg.solve."""
    q = apply_params(p, ps)
    bands, rho, frame = metrology._skin_balanced(q)
    H = bands.dense()
    lam = full_spectrum(H, vectors=False)[0]
    D = len(H)
    lu = scipy.linalg.lu_factor(H - lam * np.eye(D))
    start = np.random.default_rng(0).standard_normal(D) + 0j
    vecs = []
    for trans in (0, 2):
        x = start
        for _ in range(2):
            x = scipy.linalg.lu_solve(lu, x, trans=trans)
            x /= np.linalg.norm(x)
        vecs.append(x)
    r, l = vecs
    border = np.zeros((D + 1, D + 1), dtype=complex)
    border[:D, :D] = H - lam * np.eye(D)
    border[:D, D] = r
    border[D, :D] = l.conj()
    dr = []
    for i in range(ps.l):
        h = ps.steps[i]
        plus, minus = (build_hamiltonian(rebalanced(metrology._shifted(
            p, ps, i, s), rho)) for s in (h, -h))
        dHr = (plus - minus) @ r / (2.0 * h)
        dlam = np.vdot(l, dHr) / np.vdot(l, r)
        dr.append(np.linalg.solve(border, np.append(dlam * r - dHr, 0.0))[:D])
    psi, *dpsis = phase_fixed(*metrology._unbalance(frame, r, *dr))
    return psi, dpsis


def fisher_entries(p, ps, psi, dpsis):
    return np.concatenate([qfim(psi, dpsis).entries.ravel(),
                           cfim(psi, dpsis, position_basis(p.D)).entries.ravel()])


BANDED_CASES = ([(name, L, OBC) for name in PRESET_NAMES for L in (34, 100, 200)]
                + [(name, L, PBC) for name in PRESET_NAMES for L in (34, 35)])
# on these rings the steady eigenvalue is a degenerate pair
DEGENERATE_RINGS = {("FIG2_SSH", 35, PBC), ("FIG4_SSH", 35, PBC)}


@pytest.mark.parametrize("name, L, boundary", BANDED_CASES,
                         ids=["%s-%d" % c[:2] + ("-ring" if c[2] == PBC else "")
                              for c in BANDED_CASES])
def test_banded_point_matches_the_dense_bordered_solve(name, L, boundary):
    b = preset(name)
    labels = b.param_labels
    # FIG3 lists its four gap closings along one label; take the first
    ps = ParamSpec(labels, b.critical[:len(labels)],
                   (DEFAULT_STEP,) * len(labels))
    p = b.resized(L).with_updates(boundary=boundary)
    if (name, L, boundary) in DEGENERATE_RINGS:
        with pytest.raises(DerivativeIllDefinedError, match="degenerate"):
            state_derivatives(p, ps)
        return
    got = fisher_entries(p, ps, *state_derivatives(p, ps))
    want = fisher_entries(p, ps, *dense_state_derivatives(p, ps))
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def certified_count(p, ps):
    """How many eigenvalues besides the steady one a point certifies."""
    bands = metrology._skin_balanced(apply_params(p, ps))[0]
    return len(steady_neighbours(full_spectrum(bands, vectors=False)))


@pytest.mark.parametrize("name", ["FIG4_HN", "FIG5_TOP", "FIG5_BOTTOM",
                                  "FIG2_HN"])
def test_open_chain_point_runs_on_the_bands(lapack_calls, name):
    p, ps = preset_point(name, 70)
    certified = certified_count(p, ps)
    lapack_calls.clear()
    state_derivatives(p, ps)
    # one factorization for r and l, one per certified eigenvalue, one for
    # the bordered solve; no dense LU, no dense solve, no D x D matrix
    assert lapack_calls["gttrf"] == 1 + certified + 1
    assert lapack_calls["getrf"] == 0
    assert lapack_calls["np.linalg.solve"] == 0
    assert lapack_calls["dense"] == 0
    # right after, the state at the same point reads the kept solve
    lapack_calls.clear()
    probe_state(p, ps)
    assert lapack_calls["gttrf"] == 0
    metrology._last_steady = None
    lapack_calls.clear()
    probe_state(p, ps)
    assert lapack_calls["gttrf"] == 1 + certified
    assert lapack_calls["dense"] == 0


def test_edge_pair_point_refines_on_the_bidiagonal_factors(monkeypatch,
                                                           lapack_calls):
    # FIG3 at L=100, JR=-1: the edge pair at +-1.87e-4 fails the squaring
    # gate, so the Fisher point's values-only solve refines it on the
    # bidiagonal factors, as the OBC gaps do, with no dense solve
    p = preset("FIG3").resized(100)
    ps = ParamSpec(("JR",), (-1.0,), (DEFAULT_STEP,))
    seen = []

    def recorded(a, *args, _solve=scipy.linalg.eigvals, **kwargs):
        seen.append(a.shape)
        return _solve(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvals", recorded)
    lapack_calls.clear()
    psi, (dpsi,) = state_derivatives(p, ps)
    half = p.D // 2
    assert seen == [(half, half)] and lapack_calls["eig order"] == half
    assert lapack_calls["tbtrs"] >= 2
    assert lapack_calls["dense"] == 0
    psi0, (dpsi0,) = dense_state_derivatives(p, ps)
    want = qfi(psi0, dpsi0)
    assert abs(qfi(psi, dpsi) - want) <= 1e-9 * want


def test_ring_point_runs_on_the_bands(lapack_calls):
    # an even and an odd ring: the eigenvalues and r and l come from the
    # (r d)-square Bloch blocks, and the one ?gttrf is the bordered
    # solve's, whose site deletion opens the ring
    ps = ParamSpec(("JR",), (-0.4,), (DEFAULT_STEP,))
    for L in (34, 35):
        p = preset("FIG4_HN").resized(L).with_updates(boundary=PBC)
        lapack_calls.clear()
        got = state_derivatives(p, ps)
        assert lapack_calls["dense"] == 0
        assert lapack_calls["eig order"] == p.r * p.d
        assert lapack_calls["gttrf"] == 1
        assert lapack_calls["getrf"] == 0
        assert lapack_calls["np.linalg.solve"] == 0
        want = fisher_entries(p, ps, *dense_state_derivatives(p, ps))
        got = fisher_entries(p, ps, *got)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), L


def one_way_blocks():
    """An open chain whose eigenvalue 1 has r largest where l vanishes.

    Two blocks [[0, 1], [1, 0]] and [[0, t], [t, 0]], with a one-way bond
    c from the first into the second (H[2, 1]): l lives on the first
    block only, while r leaks into the second, amplified by 1 / (1 - t^2).
    Without row and column 2, where |r| peaks, the first block of H - 1
    is [[-1, 1], [1, -1]], exactly singular.
    """
    t, c = 0.9, 10.0
    return ChainBands(upper=np.array([1.0, 0.0, t]),
                      lower=np.array([1.0, c, t]), corners=np.zeros(2))


def test_bordered_deletion_index_maximizes_r_times_l():
    H = one_way_blocks()
    r, l = eigenpair(H, 1.0, left=True)
    assert int(np.argmax(np.abs(r))) == 2
    assert int(np.argmax(np.abs(r * l))) != 2
    rng = np.random.default_rng(4)
    b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    b -= np.outer(r, l.conj() @ b) / np.vdot(l, r)  # l^+ b = 0
    x = bordered_solve(H, 1.0, r, l, b)
    A = H.dense() - np.eye(4)
    # backward errors at rounding level
    assert np.linalg.norm(A @ x - b) <= 1e-14 * np.linalg.norm(A) * np.linalg.norm(x)
    assert np.linalg.norm(l.conj() @ x) <= 1e-14 * np.linalg.norm(x)
    # the deletion the solve makes is the one the bordered system implies
    border = np.zeros((5, 5), dtype=complex)
    border[:4, :4] = A
    border[:4, 4] = r
    border[4, :4] = l.conj()
    ref = np.linalg.solve(border, np.vstack([b, np.zeros((1, 2))]))[:4]
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_zero_pivot_in_the_reduced_system_is_typed(monkeypatch):
    # a left vector on index 2 alone makes the solve delete row and column
    # 2, which leaves an exactly singular block
    H = one_way_blocks()
    r = eigenpair(H, 1.0)
    with pytest.raises(np.linalg.LinAlgError, match="zero pivot"):
        bordered_solve(H, 1.0, r, np.eye(4)[2], np.zeros((4, 1)))
    # and the Fisher point reports it as an ill-defined derivative
    def singular(*args):
        raise np.linalg.LinAlgError("exactly zero pivot 1 in the reduced system")

    monkeypatch.setattr(metrology, "bordered_solve", singular)
    p, ps = preset_point("FIG4_HN", 34)
    with pytest.raises(DerivativeIllDefinedError,
                       match="bordered system is singular"):
        state_derivatives(p, ps)


@pytest.mark.parametrize("name", ["FIG2_SSH", "FIG4_SSH"])
def test_degenerate_ring_pair_has_no_probe_state(name):
    # on these rings the steady eigenvalue is a degenerate pair, so any
    # vector of its plane is a steady state; the state alone, its
    # derivatives and the sweep's PR column all report it
    b = preset(name)
    p = b.resized(35).with_updates(boundary=PBC)
    ps = ParamSpec(("JR",), (-1.5,), (DEFAULT_STEP,))
    for call in (probe_state, state_derivatives):
        with pytest.raises(DerivativeIllDefinedError,
                           match="steady-state eigenvalue is degenerate"):
            call(p, ps)
    spec = SweepSpec(base=p, axis="JR", grid=(-1.5,),
                     observables=frozenset(("QFI", "PR")))
    row = harness._sweep_row(spec, -1.5)
    assert np.isnan(row["QFI"]) and np.isnan(row["PR"])
    assert row["error"] == ("QFI: steady-state eigenvalue is degenerate; "
                     "PR: steady-state eigenvalue is degenerate")


def tangent_cases():
    """Every label on a d=2, r=2 chain under each preset kind (and none),
    with and without an explicit module-bond label, open and closed."""
    for kind in (RECIPROCAL_MODULAR, SHIFTED, NON_MODULAR, None):
        p = make_params(2, 2, 4, J0=1.3, JL=0.7 + 0.2j, JR=-0.4 + 0.3j,
                        **({"Jm": 0.9 - 0.1j, "JmP": 0.6 + 0.4j} if kind is None
                           else {"preset": CouplingPreset(kind, 0.8)}))
        value = {"JR_re": p.JR.real, "JR_im": p.JR.imag, "JR": p.JR.real,
                 "Jm": p.Jm.real, "JmP": p.JmP.real, "J": 0.8}
        for lab in metrology.PARAM_LABELS:
            if lab == "J" and kind is None:
                continue  # J moves a preset
            for explicit in ((), ("JmP",) if lab == "Jm" else ("Jm",)):
                labels = (lab,) + explicit
                ps = ParamSpec(labels, [value[x] for x in labels],
                               (DEFAULT_STEP,) * len(labels))
                for boundary in (OBC, PBC):
                    yield p.with_updates(boundary=boundary), ps


TANGENT_CASES = list(tangent_cases())


@pytest.mark.parametrize("p, ps", TANGENT_CASES, ids=[
    "%s-%s-%s" % (p.preset.kind if p.preset else "NONE", "+".join(ps.labels),
                  p.boundary) for p, ps in TANGENT_CASES])
def test_tangent_matches_the_central_difference(p, ps):
    # dH/dtheta from the bond table against the central difference of the
    # stencil models' bands: equal to rounding for the linear labels and to
    # O(h^2) for J; with rho the module bonds move into a skin frame
    q = apply_params(p, ps)
    h = 1e-5
    for rho in (1.0, 1.7):
        plus, minus = (chain_bands(rebalanced(metrology._shifted(
            p, ps, 0, s), rho)).entries for s in (h, -h))
        want = (plus - minus) / (2.0 * h)
        got = metrology._tangent(q, ps, 0, rho).entries
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_J_derivative_is_exact():
    # JmP = 1/J is the one bond not linear in its label; the analytic
    # derivative is its exact tangent, so it matches the plain oracle to
    # the oracle's O(h^2) (the central-difference H' read 2.7e-8) and a
    # Richardson-extrapolated oracle to 1e-11 (3.2e-10 before)
    p = preset("FIG4_HN").resized(34)
    ps = ParamSpec(("J",), (0.4,), (DEFAULT_STEP,))
    A, F = analytic_and_oracle_qfim(p, ps)
    assert np.max(np.abs(A - F)) <= 3.1e-8 * np.max(np.abs(F))
    dpsi = state_derivative(p, ps, 0)
    f1, f2 = (family_state_derivative(p, ps, 0, h) for h in (1e-4, 5e-5))
    extrapolated = (4.0 * f2 - f1) / 3.0
    assert (np.linalg.norm(dpsi - extrapolated)
            <= 1e-11 * np.linalg.norm(extrapolated))


@pytest.mark.parametrize("L, boundary", [(2, OBC), (34, OBC), (100, OBC),
                                         (2, PBC), (34, PBC), (100, PBC),
                                         (35, PBC), (99, PBC)])
def test_current_maps_are_eigenbases_of_the_current_operator(L, boundary):
    # D = 6 to 300: open chains, even rings and odd rings
    p = uniform_chain(-0.6, L).with_updates(boundary=boundary)
    J = build_current_operator(p)
    U = basis_matrix(current_basis(p), p.D)
    assert np.max(np.abs(U.conj().T @ U - np.eye(p.D))) <= 1e-12
    w = np.real(np.einsum("jk,jl,lk->k", U.conj(), J, U))
    assert np.max(np.abs(J @ U - U * w)) <= 1e-12


@pytest.mark.parametrize("name", ["FIG4_HN", "FIG2_SSH", "FIG5_BOTTOM"])
def test_open_chain_current_cfi_matches_the_eigh_basis(name):
    # an open chain's current eigenvalues are simple, so its eigenbasis is
    # unique up to phases, which no probability reads
    p, ps = preset_point(name, 34)
    psi, dpsis = state_derivatives(p, ps)
    eigh_basis = Povm(np.linalg.eigh(build_current_operator(p))[1])
    want = cfim(psi, dpsis, eigh_basis).entries
    got = cfim(psi, dpsis, current_basis(p)).entries
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["FIG4_HN", "FIG5_TOP", "FIG5_BOTTOM"])
def test_position_map_is_the_identity_povm_bit_for_bit(name):
    p, ps = preset_point(name, 34)
    psi, dpsis = state_derivatives(p, ps)
    eye = Povm(np.eye(p.D), label="position")
    assert cfi(psi, dpsis[0], position_basis(p.D)) == cfi(psi, dpsis[0], eye)
    assert np.array_equal(cfim(psi, dpsis, position_basis(p.D)).entries,
                          cfim(psi, dpsis, eye).entries)


def test_fisher_sweep_point_builds_no_stencil_and_no_dense_basis(lapack_calls):
    # a QFI + CFI_POSITION + CFI_CURRENT point builds one band set from the
    # model's couplings (the base point's) and one exact tangent for its
    # parameter: no stencil model, no eigh, no current operator, no D x D
    # matrix; the one model update is the steady solve's apply_params call
    spec = preset("FIG4_HN").sweep(("QFI", "CFI_POSITION", "CFI_CURRENT"),
                                   grid=(-0.4,))
    lapack_calls.clear()
    assert run_sweep(spec, workers=1).column("error") == [""]
    assert lapack_calls["bond_bands"] == 2
    assert lapack_calls["chain_bands"] == 0
    assert lapack_calls["with_updates"] == 1
    for name in ("np.linalg.eigh", "build_current_operator", "dense"):
        assert lapack_calls[name] == 0, name
    # a skin-framed point builds each tangent twice, raw for the isolation
    # guard and in the frame for H' r
    p, ps = preset_point("FIG5_TOP", 34)
    assert skin_frame(apply_params(p, ps)) is not None
    lapack_calls.clear()
    state_derivatives(p, ps)
    assert lapack_calls["bond_bands"] == 1 + 2 * ps.l
    assert lapack_calls["with_updates"] == 1


def test_built_in_bases_allocate_no_square_array():
    # traced allocations while building a basis and measuring in it stay
    # far below one D x D array of bytes; a matrix basis shows the contrast
    p, ps = preset_point("FIG4_HN", 200)
    psi, dpsis = state_derivatives(p, ps)
    D = p.D

    def peak(make_basis):
        tracemalloc.start()
        try:
            basis = make_basis()
            cfi(psi, dpsis[0], basis)
            cfim(psi, dpsis, basis)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for boundary in (OBC, PBC):
        q = p.with_updates(boundary=boundary)
        assert peak(lambda: current_basis(q)) < D * D
    assert peak(lambda: position_basis(D)) < D * D
    assert peak(lambda: Povm(np.eye(D))) > 16 * D * D


def unresolved_basis():
    """A 16-state basis whose Gram matrix is I + eps*ones (within 1e-10 of
    the identity), rotated so that U U^+ = I + 16 eps e1 e1^T (not within
    1e-9): U = W P with P = sqrt(I + eps*ones) and W the reflection taking
    the all-ones direction onto the first axis."""
    n, eps = 16, 0.9e-10
    P = np.eye(n) + (np.sqrt(1.0 + eps * n) - 1.0) / n * np.ones((n, n))
    u = np.ones(n) / np.sqrt(n) - np.eye(n)[0]
    return (np.eye(n) - 2.0 * np.outer(u, u) / (u @ u)) @ P


METROLOGY_INPUT_CHECKS = {
    "spec lengths": (lambda: ParamSpec(("JR",), (1.0, 2.0), (1e-4,)),
                     "labels, values and steps must have equal length"),
    "spec values": (lambda: ParamSpec(("JR",), (np.inf,), (1e-4,)),
                    "values must be finite"),
    "fisher kind": (lambda: FisherMatrix(entries=[[1.0]], kind="BOTH"),
                    "kind must be QUANTUM or CLASSICAL"),
    "fisher square": (lambda: FisherMatrix(entries=[1.0, 2.0], kind=QUANTUM),
                      "entries must be a square matrix"),
    "povm square": (lambda: Povm(np.ones(3)),
                    "projectors must form a square basis matrix"),
    "povm orthonormal": (lambda: Povm(np.ones((2, 2))),
                         "basis vectors are not orthonormal"),
    "povm identity": (lambda: Povm(unresolved_basis()),
                      "basis does not resolve the identity"),
    "basis shape": (lambda: position_basis(4).amplitudes(np.ones(3)),
                    "a 4-state basis cannot measure a vector of shape (3,)"),
    "empty basis": (lambda: position_basis(0), "a basis needs at least one state"),
    "shift length": (lambda: apply_params(*preset_point("FIG4_HN", 10),
                                          shift=[0.0, 0.0]),
                     "shift must have one entry per parameter"),
    "stencil index": (lambda: family_state_derivative(
                          *preset_point("FIG4_HN", 10), 1, 1e-5),
                      "parameter index out of range"),
    "derivative index": (lambda: state_derivative(*preset_point("FIG4_HN", 10), 1),
                         "parameter index out of range"),
    "unit state": (lambda: qfi(np.ones(4), np.zeros(4)),
                   "state must be normalized"),
}


@pytest.mark.parametrize("case", list(METROLOGY_INPUT_CHECKS))
def test_metrology_input_checks(case):
    call, message = METROLOGY_INPUT_CHECKS[case]
    with pytest.raises(ValidationError) as exc:
        call()
    assert message in str(exc.value)
