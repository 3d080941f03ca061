"""End-to-end acceptance gate: eleven numbered checks, one line each.

Every check prints a [PASS]/[FAIL] scoreboard line with its measured
numbers before asserting, so a full run always shows all eleven verdicts.
Criteria 5 and 10 test scaling laws; when they fail, their messages carry
the measured tables (open-chain gaps and fitted exponents per chain
length, Fisher-matrix eigenvalues per size) so the failing trend can be
read off directly.
"""

import numpy as np
import pytest
import scipy.linalg

from conftest import assert_multiset_close
from nhlab import (CouplingPreset, NumericalError, ParamSpec, PBC,
                   RECIPROCAL_MODULAR, SHIFTED, ValidationError, apply_params,
                   band_winding, beta_roots, build_bloch, build_hamiltonian,
                   cfi, cfim, count_spectral_loops, coupling_scaling,
                   cumulative_population, direct_band_minimum, edge_states,
                   exponent_vs_delta, find_peak, fit_power_law, full_spectrum,
                   gbz_radius, gbz_zero_gap_solutions,
                   make_params, matrix_size_scaling, obc_central_gap,
                   pbc_zero_gap_solutions, point_gap_residual, position_basis,
                   preset, probe_state, qfi, qfim, run_sweep, size_scaling,
                   state_derivative)


def hn(jr, L=50, boundary="OBC", J=2.0):
    return make_params(d=1, r=3, L=L, JL=1.0, JR=jr, boundary=boundary,
                       preset=CouplingPreset(RECIPROCAL_MODULAR, J))


def fig3(jr, L=50):
    return make_params(d=2, r=2, L=L, J0=1.25, JL=1.0, JR=jr,
                       preset=CouplingPreset(SHIFTED, 2.0))


def ssh(jr, L=50, boundary="OBC"):
    return make_params(d=2, r=2, L=L, J0=2.0, JL=1.0, JR=jr, boundary=boundary,
                       preset=CouplingPreset(SHIFTED, 0.5))


def slope_of(p):
    dec = full_spectrum(build_hamiltonian(p))
    return cumulative_population(dec, p).slope_per_module


def nearest(roots, target):
    roots = np.asarray(roots, dtype=float)
    return float(roots[np.argmin(np.abs(roots - target))])


@pytest.fixture
def report(capsys):
    def emit(n, ok, detail):
        with capsys.disabled():
            print("\n[%s] criterion %d: %s"
                  % ("PASS" if ok else "FAIL", n, detail))
    return emit


def _finish(report, n, checks):
    ok = all(c for c, _ in checks)
    detail = "; ".join(("" if c else "FAILED ") + t for c, t in checks)
    report(n, ok, detail)
    return ok, detail


def test_criterion_01_point_gap_root_and_loop_collapse(report):
    res = {jr: point_gap_residual(hn(jr)) for jr in (-2.0, 2.0, -2.1, -1.9)}
    n_open = count_spectral_loops(hn(-2.5, boundary=PBC))
    n_crit = count_spectral_loops(hn(-2.0, boundary=PBC))
    checks = [
        (res[-2.0] == 0.0 and res[2.0] == 0.0,
         "residual root exactly at |JR|=2 (%g, %g)" % (res[-2.0], res[2.0])),
        (res[-2.1] > 0 and res[-1.9] > 0,
         "residual positive off the root (%.4f, %.4f)" % (res[-2.1], res[-1.9])),
        (n_open == 3, "3 spectral loops at JR=-2.5 (got %d)" % n_open),
        (n_crit == 0, "loops collapse to arcs at JR=-2 (got %d)" % n_crit),
    ]
    ok, detail = _finish(report, 1, checks)
    assert ok, detail


def test_criterion_02_skin_slope_matches_gbz_radius(report):
    p = hn(-2.5)
    s = slope_of(p)
    target = 2.0 * np.log(gbz_radius(p))
    rel = abs(s / target - 1.0)
    flat = abs(slope_of(hn(-2.0)))
    checks = [
        (rel < 0.05, "slope %.5f vs 2*ln(rho) %.5f (rel %.4f)" % (s, target, rel)),
        (flat < 0.05, "|slope| %.2e at the critical coupling" % flat),
    ]
    ok, detail = _finish(report, 2, checks)
    assert ok, detail


def test_criterion_03_two_sublevel_criticality(report):
    r0 = point_gap_residual(ssh(-1.5))
    p = ssh(1.2)
    s = slope_of(p)
    target = 2.0 * np.log(gbz_radius(p))
    rel = abs(s / target - 1.0)
    flat = abs(slope_of(ssh(-1.5)))
    checks = [
        (r0 == 0.0, "residual root exactly at JR=-(JL+J)=-1.5 (%g)" % r0),
        (rel < 0.05, "slope %.5f vs 2*ln(rho) %.5f (rel %.4f)" % (s, target, rel)),
        (flat < 0.05, "|slope| %.2e at the critical coupling" % flat),
    ]
    ok, detail = _finish(report, 3, checks)
    assert ok, detail


def test_criterion_04_bloch_gap_closings(report):
    roots = pbc_zero_gap_solutions(fig3(0.0))
    checks = []
    for target in (0.6008, -2.6008, -1.3822):
        r = nearest(roots, target)
        err = abs(r - target)
        m = direct_band_minimum(fig3(r))
        checks.append((err < 5e-4 and m < 1e-3,
                       "closing %.6f (err %.1e, band minimum %.1e)"
                       % (r, err, m)))
    ok, detail = _finish(report, 4, checks)
    assert ok, detail


def test_criterion_05_gbz_gap_closings(report):
    roots = gbz_zero_gap_solutions(fig3(0.0))
    targets = (0.3468, -0.5685, -1.4315, -2.3468)
    checks, matched = [], []
    for target in targets:
        r = nearest(roots, target)
        err = abs(r - target)
        m = direct_band_minimum(fig3(r), use_gbz=True)
        matched.append(r)
        checks.append((err < 5e-4 and m < 1e-3,
                       "closing %.6f (err %.1e, gbz minimum %.1e)"
                       % (r, err, m)))
    side = nearest(roots, -1.75)
    checks.append((abs(side + 1.75) < 5e-4, "side closing %.6f" % side))

    # finite-size clause, through the shipped obc_central_gap: the open
    # chain closes its central gap at the GBZ closings, as a power of L,
    # and keeps it open at the Bloch-only closings of criterion 4, which
    # is the breakdown of conventional bulk-boundary correspondence
    Ls = (25, 50, 100, 200)
    table = []
    for r in matched:
        gaps = [obc_central_gap(fig3(r, L)) for L in Ls]
        fit = fit_power_law(Ls, gaps)
        falls = all(b < a for a, b in zip(gaps, gaps[1:]))
        # minimality is one-sided: on the winding-1 side the gap is the
        # splitting of a not yet localized edge pair, below the bulk gap
        step = next(s for s in (-0.01, 0.01)
                    if band_winding(fig3(r + s)).value == 0)
        beside = [(g, obc_central_gap(fig3(r + step, L)))
                  for L, g in zip(Ls, gaps) if L in (50, 200)]
        local = all(gs > g for g, gs in beside)
        table.append("GBZ JR=%.4f gaps %s fit L^%.3f; at JR%+.2f %s"
                     % (r, "/".join("%.5f" % g for g in gaps), fit.exponent,
                        step, "/".join("%.5f" % gs for _, gs in beside)))
        checks.append((falls and fit.exponent <= -0.3 and local,
                       "OBC gap at GBZ closing %.4f falls as L^%.3f and is "
                       "smaller than at JR%+.2f" % (r, fit.exponent, step)))
    bloch = pbc_zero_gap_solutions(fig3(0.0))
    # -1.3822 is left out: it lies in a winding-1 phase, where the edge
    # pair sets the value
    for target in (0.6008, -2.6008):
        r = nearest(bloch, target)
        gaps = [obc_central_gap(fig3(r, L)) for L in Ls]
        fit = fit_power_law(Ls, gaps)
        table.append("Bloch-only JR=%.4f gaps %s fit L^%.3f"
                     % (r, "/".join("%.5f" % g for g in gaps), fit.exponent))
        checks.append((fit.exponent >= -0.15 and gaps[-1] > 0.3,
                       "OBC gap at Bloch-only closing %.4f stays open "
                       "(L^%.3f, %.4f at L=200)" % (r, fit.exponent, gaps[-1])))

    ok, detail = _finish(report, 5, checks)
    if not ok:
        pytest.fail(
            "OBC central gap 2*min|E| at L=%s: %s.  Wanted: at every GBZ "
            "closing a gap falling strictly with L as L^(<= -0.3) and "
            "larger 0.01 into the winding-0 side at L=50 and L=200; at the "
            "Bloch-only closings a gap above 0.3 at L=200 fitting "
            "L^(>= -0.15).  %s"
            % ("/".join(str(L) for L in Ls), " | ".join(table), detail))
    assert ok, detail


def test_criterion_06_winding_alternation(report):
    mids = (-3.0, -2.0, -1.0, 0.0, 0.7)
    want = (1, 0, 1, 0, 1)
    checks, got = [], []
    for x, w in zip(mids, want):
        p = fig3(x)
        res = band_winding(p)
        quantized = abs(abs(res.raw_phase) - res.value) < 0.05
        edges = len(edge_states(p, 0.2))
        got.append(int(res.value))
        checks.append((int(res.value) == w and quantized and edges == 2 * w,
                       "JR=%.1f: w=%d edges=%d" % (x, int(res.value), edges)))
    # the five sample points straddle the four closings one at a time,
    # so alternation here means the invariant flips at exactly those points
    checks.append((all(a != b for a, b in zip(got, got[1:])),
                   "w flips across each closing"))
    ok, detail = _finish(report, 6, checks)
    assert ok, detail


def test_criterion_07_qfi_peak_at_criticality(report):
    b = preset("FIG4_HN")
    pk = find_peak(run_sweep(b.sweep(("QFI",))), "QFI")
    ps = ParamSpec(("JR",), (pk.location,), (1e-5,))
    psi = probe_state(b.params, ps)
    dpsi = state_derivative(b.params, ps, 0)
    ratio = cfi(psi, dpsi, position_basis(b.params.D)) / qfi(psi, dpsi)
    contrast = find_peak(run_sweep(b.contrast_sweep(("QFI",))), "QFI")
    checks = [
        (abs(pk.location + 0.4) <= 0.01,
         "peak at JR=%.5f (value %.1f)" % (pk.location, pk.value)),
        (abs(ratio - 1.0) < 0.01, "position CFI/QFI = %.6f at the peak" % ratio),
        (pk.value > contrast.value,
         "modular peak %.1f > uniform-chain peak %.1f"
         % (pk.value, contrast.value)),
    ]
    ok, detail = _finish(report, 7, checks)
    assert ok, detail


def test_criterion_08_scaling_exponents(report):
    rows = size_scaling("FIG4_HN")
    fit = fit_power_law([r["N"] for r in rows], [r["value"] for r in rows])
    drows = exponent_vs_delta("FIG4_HN", (0.5, 0.75))
    degraded = ", ".join("%.3f" % r["exponent"] for r in drows)
    jrows, slope, r2 = coupling_scaling((0.3, 0.4, 0.55, 0.75, 1.0), L=50)
    checks = [
        (abs(fit.exponent - 2.0) <= 0.1,
         "peak value fits N^%.4f (r2=%.5f) up to N=300" % (fit.exponent, fit.r2)),
        (all(r["exponent"] < 1.2 for r in drows),
         "exponent degrades to %s at delta 0.5, 0.75" % degraded),
        (abs(slope + 2.0) <= 0.2,
         "peak value vs coupling fits J^%.4f (r2=%.5f) on J in [0.3, 1]; "
         "below J=0.3 the steady state of this family is degenerate and "
         "the peak value is undefined" % (slope, r2)),
    ]
    ok, detail = _finish(report, 8, checks)
    assert ok, detail


def test_criterion_09_two_parameter_matrix(report):
    b = preset("FIG5_TOP")
    res = point_gap_residual(b.params)
    rows = matrix_size_scaling(b)
    last = rows[-1]
    xx, yy = last["F_JR_re"], last["F_JR_im"]
    sym = abs(xx - yy) / abs(xx)
    N = [r["N"] for r in rows]
    fx = fit_power_law(N, [r["F_JR_re"] for r in rows])
    ft = fit_power_law(N, [r["inv_trace_bound"] for r in rows])
    checks = [
        (res <= 1e-10, "residual %.1e at the critical couplings" % res),
        (sym <= 0.01, "F_xx = F_yy to %.1e at L=100" % sym),
        (abs(fx.exponent - 2.0) <= 0.15, "F_xx fits N^%.4f" % fx.exponent),
        (abs(ft.exponent - 2.0) <= 0.15,
         "1/Tr(F^-1) fits N^%.4f" % ft.exponent),
    ]
    ok, detail = _finish(report, 9, checks)
    assert ok, detail


def left_right_qfim(p, ps):
    """QFIM from the left and right eigenvectors of H, no finite differences.

    For H linear in every parameter, dH is the unit-offset difference;
    d lambda = l^+ dH r / l^+ r, and the bordered system
    [[H - lambda, r], [l^+, 0]] gives the state derivative in the
    complement of r.  Only its component orthogonal to r enters the QFIM.
    """
    H = build_hamiltonian(apply_params(p, ps))
    w, vl, vr = scipy.linalg.eig(H, left=True, right=True)
    k = int(np.argmax(w.imag))
    lam, l, r = w[k], vl[:, k], vr[:, k] / np.linalg.norm(vr[:, k])
    D = len(w)
    border = np.zeros((D + 1, D + 1), dtype=complex)
    border[:D, :D] = H - lam * np.eye(D)
    border[:D, D] = r
    border[D, :D] = l.conj()
    xs = []
    for i in range(ps.l):
        unit = np.eye(ps.l)[i]
        dH = build_hamiltonian(apply_params(p, ps, unit)) - H
        back = H - build_hamiltonian(apply_params(p, ps, -unit))
        assert np.max(np.abs(dH - back)) <= 1e-12 * np.max(np.abs(H))
        dlam = np.vdot(l, dH @ r) / np.vdot(l, r)
        x = np.linalg.solve(border, np.append(dlam * r - dH @ r, 0.0))[:D]
        xs.append(x - r * np.vdot(r, x))
    X = np.array(xs)
    return 4.0 * np.real(X.conj() @ X.T)


def test_criterion_10_three_parameter_matrix(report):
    b = preset("FIG5_BOTTOM")
    res = point_gap_residual(b.params)
    rows = matrix_size_scaling(b)
    N = [r["N"] for r in rows]
    diag = {lab: fit_power_law(N, [r["F_" + lab] for r in rows]).exponent
            for lab in b.param_labels}
    eig_fits = [fit_power_law(N, [r["F_eigenvalues"][k] for r in rows]).exponent
                for k in range(3)]
    tr_fit = fit_power_law(N, [r["inv_trace_bound"] for r in rows])
    ps = ParamSpec(b.param_labels, b.critical, (1e-5,) * 3)
    psi = probe_state(b.params, ps)
    dpsis = [state_derivative(b.params, ps, i) for i in range(3)]
    Q = qfim(psi, dpsis, ps).entries
    C = cfim(psi, dpsis, position_basis(b.params.D), ps).entries
    rel = float(np.max(np.abs(Q - C) / np.abs(Q)))
    # the finite-difference QFIM at L=34 against the eigenvector formula
    # shows that the small eigenvalues behind 1/Tr(F^-1) are resolved,
    # not finite-difference noise
    row34 = next(r for r in rows if r["L"] == 34)
    ref34 = np.linalg.eigvalsh(left_right_qfim(b.resized(34), ps))
    eig_rel = float(np.max(np.abs(np.array(row34["F_eigenvalues"]) / ref34 - 1.0)))
    diag_txt = ", ".join("%s: N^%.4f" % (k, v) for k, v in diag.items())
    checks = [
        (res <= 1e-12, "residual %.1e at the critical couplings" % res),
        (all(abs(v - 2.0) <= 0.15 for v in diag.values()),
         "diagonal entries fit " + diag_txt),
        (rel <= 0.01, "position CFIM matches QFIM to %.1e entrywise" % rel),
        (abs(eig_fits[-1] - 2.0) <= 0.15,
         "largest QFIM eigenvalue fits N^%.4f" % eig_fits[-1]),
        (tr_fit.exponent <= 0.0,
         "1/Tr(F^-1) fits N^%.4f, no growth" % tr_fit.exponent),
        (eig_rel <= 1e-3,
         "QFIM eigenvalues match the left/right-eigenvector QFIM to %.1e "
         "at L=34" % eig_rel),
    ]
    ok, detail = _finish(report, 10, checks)
    if not ok:
        table = " | ".join(
            "N=%d: %s, 1/Tr(F^-1)=%.4g"
            % (r["N"], "/".join("%.4g" % w for w in r["F_eigenvalues"]),
               r["inv_trace_bound"]) for r in rows)
        pytest.fail(
            "QFIM eigenvalues per size: %s; fitted exponents %s.  Only the "
            "largest eigenvalue, along the one critical combination of "
            "couplings (the GBZ radius), is required to grow as N^2.  "
            "Since 1/Tr(F^-1) <= lambda_min(F), the total-variance bound "
            "grows no faster than the smallest eigenvalue.  %s"
            % (table, "/".join("%.3f" % e for e in eig_fits), detail))
    assert ok, detail


def test_criterion_11_property_suites(report):
    rng = np.random.default_rng(7)

    # measurement never beats the quantum bound
    done = tried = 0
    while done < 50 and tried < 400:
        tried += 1
        d = int(rng.integers(1, 3))
        r = int(rng.integers(1, 4))
        if d * r < 2:
            continue
        L = int(rng.integers(3, 7))

        def cpl():
            return complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.4, 0.4))

        try:
            p = make_params(d=d, r=r, L=L,
                            J0=(float(rng.uniform(0.5, 1.5)) if d > 1 else 0.0),
                            JL=cpl(), JR=cpl(), Jm=cpl(), JmP=cpl())
            ps = ParamSpec(("JR_re",), (p.JR.real,), (1e-5,))
            psi = probe_state(p, ps)
            dpsi = state_derivative(p, ps, 0)
            q = qfi(psi, dpsi)
            c = cfi(psi, dpsi, position_basis(p.D))
        except (NumericalError, ValidationError):
            continue
        assert c <= q + 1e-6 * max(q, 1.0), (p, q, c)
        done += 1
    assert done == 50, "only %d of 50 random configurations sampled" % done

    # the characteristic-polynomial roots multiply to the squared radius
    fams = (hn(-2.5), ssh(1.2), fig3(0.3), hn(-0.4, J=0.4))
    for i in range(20):
        p = fams[i % len(fams)]
        E = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        prod = abs(np.prod(beta_roots(p, E)))
        rho2 = gbz_radius(p) ** 2
        assert abs(prod - rho2) <= 1e-8 * max(rho2, 1.0)

    # QFI ignores the derivative's gauge component
    p = hn(-2.5, L=10)
    ps = ParamSpec(("JR",), (-2.5,), (1e-5,))
    psi = probe_state(p, ps)
    dpsi = state_derivative(p, ps, 0)
    q0 = qfi(psi, dpsi)
    for _ in range(5):
        q1 = qfi(psi, dpsi + 1j * float(rng.uniform(-5, 5)) * psi)
        assert abs(q1 - q0) <= 1e-8 * max(abs(q0), 1.0)

    # momentum sampling reproduces the ring spectrum
    for p in (hn(-2.5, L=9, boundary=PBC), ssh(1.2, L=7, boundary=PBC)):
        direct = np.linalg.eigvals(build_hamiltonian(p))
        ks = 2.0 * np.pi * np.arange(p.L) / p.L
        sampled = np.concatenate([np.linalg.eigvals(build_bloch(p, k))
                                  for k in ks])
        assert_multiset_close(direct, sampled, 1e-8)

    # reciprocal limit: flat profile, unit radius, real spectrum
    herms = (make_params(d=1, r=3, L=30, JL=1.3, JR=1.3, Jm=0.6, JmP=0.6),
             make_params(d=2, r=2, L=20, J0=1.1, JL=0.8 + 0.3j, JR=0.8 - 0.3j,
                         Jm=1.4 - 0.2j, JmP=1.4 + 0.2j))
    for p in herms:
        dec = full_spectrum(build_hamiltonian(p))
        assert abs(cumulative_population(dec, p).slope_per_module) < 0.05
        assert abs(gbz_radius(p) - 1.0) <= 1e-12
        assert float(np.max(np.abs(dec.values.imag))) < 1e-9

    report(11, True,
           "quantum bound dominates on 50 random models; root products "
           "match the squared radius on 20 draws; QFI is gauge invariant; "
           "momentum sampling matches the ring spectrum; reciprocal limits "
           "are flat, unit-radius, and real")
