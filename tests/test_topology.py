"""Winding numbers, gap-closing solvers, edge counting, loop detection."""

import itertools
import time

import numpy as np
import pytest
import scipy.linalg

from nhlab import (PBC, RECIPROCAL_MODULAR, SHIFTED, ConvergenceError,
                   CouplingPreset, NumericalError, UnsupportedStructureError,
                   ValidationError, band_winding, build_bloch, build_hamiltonian,
                   count_spectral_loops, direct_band_minimum, edge_states,
                   gbz_contour, gbz_radius, gbz_zero_gap_solutions,
                   line_gap_minima, make_params, metrology, obc_central_gap,
                   obc_side_gap, pbc_zero_gap_solutions, point_gap_residual,
                   preset, spectral_winding)
from nhlab.topology import (IllConditionedContourError, _contour_blochs,
                            _gap_reports, _track_bands)


def shifted(jr, L=50, J=2.0, J0=1.25):
    return make_params(2, 2, L, J0=J0, JL=1, JR=jr,
                       preset=CouplingPreset(SHIFTED, J))


def hn(jr, L=20, boundary="OBC"):
    return make_params(1, 3, L, JL=1, JR=jr, boundary=boundary,
                       preset=CouplingPreset(RECIPROCAL_MODULAR, 2.0))


def nearest(values, target):
    values = list(values)
    return values[int(np.argmin([abs(v - target) for v in values]))]


def test_pbc_closing_solver_contains_known_roots():
    roots = pbc_zero_gap_solutions(shifted(0.5))
    for want in (0.6008, -2.6008, -1.3822):
        assert abs(nearest(roots, want) - want) < 5e-4
    # every returned root is an actual band touching of the Bloch family
    for v in roots:
        assert direct_band_minimum(shifted(v), grid_size=4096) < 1e-3


def test_gbz_closing_solver_contains_known_roots():
    roots = gbz_zero_gap_solutions(shifted(0.5))
    for want in (0.3468, -0.5685, -1.4315, -2.3468, -1.75):
        assert abs(nearest(roots, want) - want) < 5e-4
    for v in roots:
        q = shifted(v)
        assert direct_band_minimum(q, use_gbz=True, grid_size=4096) < 1e-3


def test_solvers_require_the_two_band_structure():
    with pytest.raises(ValidationError):
        pbc_zero_gap_solutions(hn(-2.5))
    with pytest.raises(ValidationError):
        gbz_zero_gap_solutions(hn(-2.5))


def test_band_winding_alternates_and_matches_edge_counts():
    # winding 1 regions carry a mid-gap edge pair, winding 0 regions none
    expected = {-3.0: 1, -2.0: 0, -1.0: 1, 0.0: 0, 0.7: 1}
    for jr, w in expected.items():
        p = shifted(jr)
        res = band_winding(p, gbz_contour(p))
        assert res.value == w, "winding at JR=%g" % jr
        assert abs(res.raw_phase - round(res.raw_phase)) < 0.05
        assert len(edge_states(p, 0.2)) == 2 * w


def test_band_winding_stable_under_contour_refinement():
    p = shifted(-1.0)
    coarse = band_winding(p, gbz_contour(p, n_points=512))
    fine = band_winding(p, gbz_contour(p, n_points=1024))
    assert coarse.value == fine.value == 1


def test_band_winding_flip_marker():
    # closings happen where |beta0| = JR JmP / J0^2 crosses the circle
    p = shifted(0.5)
    roots = sorted(gbz_zero_gap_solutions(p))
    central = [v for v in roots if abs(v) < 3.0 and abs(v + 1.75) > 1e-6]
    assert len(central) == 4
    for v in central:
        def excess(jr):
            q = shifted(jr)
            beta0 = abs(jr * (jr + 2.0)) / 1.25 ** 2
            return beta0 - gbz_radius(q)
        assert excess(v - 1e-3) * excess(v + 1e-3) < 0


def tridiagonal_chain(p):
    """Diagonal and bond products dl_i du_i of the exactly tridiagonal OBC chain."""
    H = build_hamiltonian(p)
    dl, d, du = np.diag(H, -1), np.diag(H), np.diag(H, 1)
    assert np.array_equal(H, np.diag(dl, -1) + np.diag(d) + np.diag(du, 1))
    return d, dl * du


def symmetrized_chain_eigvals(p):
    # the similarity s_{i+1}/s_i = sqrt|dl_i/du_i| leaves a complex
    # symmetric chain with off-diagonal sqrt(dl_i du_i): a reference free
    # of skin amplification, solved here by a general eigensolve
    d, prod = tridiagonal_chain(p)
    e = np.sqrt(prod)
    return scipy.linalg.eigvals(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


def test_obc_central_gap_resolves_long_skin_amplified_chains():
    roots = gbz_zero_gap_solutions(shifted(0.5))
    # at the 0.3468 closing every bond product of the OBC tridiagonal is
    # real and positive, so the diagonal similarity s_{i+1}/s_i =
    # sqrt|dl_i/du_i| makes it real symmetric with off-diagonal
    # sqrt(dl_i du_i): an exact reference free of skin amplification
    p = shifted(nearest(roots, 0.3468), L=200)
    d, prod = tridiagonal_chain(p)
    assert np.all(prod.imag == 0) and np.all(prod.real > 0)
    assert np.all(d.imag == 0)
    ref = scipy.linalg.eigvalsh_tridiagonal(d.real, np.sqrt(prod.real))
    assert abs(obc_central_gap(p) - 2.0 * np.min(np.abs(ref))) <= 1e-8
    # where bond products change sign the same similarity leaves a
    # complex-symmetric chain; its eigensolve gives 0.21121 here
    q = shifted(nearest(roots, -0.5685), L=200)
    assert abs(obc_central_gap(q) - 0.2112) <= 1e-4


def test_obc_central_gap_does_not_overflow_on_extreme_amplification():
    # FIG2_HN at JR=-1e4: rho = 5000, so rho^n overflows a double long
    # before L=200; the frame is carried as ln s and nothing may overflow
    p = hn(-1e4, L=200)
    ref = 2.0 * np.min(np.abs(symmetrized_chain_eigvals(p)))
    with np.errstate(all="raise"):
        assert abs(obc_central_gap(p) - ref) <= 1e-8


def side_gap_of(E):
    # obc_side_gap's cluster split, applied to reference eigenvalues
    mags = np.sort(np.abs(E))
    nlo = len(mags) // 4
    cut = nlo + int(np.argmax(mags[nlo + 1:] / mags[nlo:-1]))
    thresh = 0.5 * (mags[cut] + mags[cut + 1])
    central, side = E[np.abs(E) <= thresh], E[np.abs(E) > thresh]
    return float(np.min(np.abs(central[:, None] - side[None, :])))


def test_obc_side_gap_and_edge_pair_on_long_skin_amplified_chains():
    # the raw dense solve gave a side gap of 1.53046 and an edge pair
    # +6.3120e-9 / -6.2756e-9 here, and its residual gate passed
    p = shifted(-1.0, L=200)
    assert abs(obc_side_gap(p) - side_gap_of(symmetrized_chain_eigvals(p))) <= 1e-9
    pair = [E for E, _ in edge_states(p, 0.2)]
    assert len(pair) == 2
    assert abs(pair[0] + pair[1]) <= 1e-12


def test_obc_gaps_solve_eigenvalues_only(monkeypatch):
    # each gap is one eigenvalue solve, and no eigenvector solve
    counts = {"eig": 0, "eigvals": 0}
    for name in counts:
        solve = getattr(scipy.linalg, name)

        def counted(*args, _name=name, _solve=solve, **kwargs):
            counts[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, counted)
    p = shifted(-1.0, L=100)
    obc_central_gap(p)
    obc_side_gap(p)
    assert counts == {"eig": 0, "eigvals": 2}


def test_obc_gaps_certify_the_eigenvalues_they_read(monkeypatch):
    # an eigenvalue off by 1e-3 fails its inverse-iteration certificate
    solve = metrology.full_spectrum

    def off(*args, **kwargs):
        return solve(*args, **kwargs) + 1e-3

    monkeypatch.setattr(metrology, "full_spectrum", off)
    p = shifted(-1.0, L=50)
    for gap in (obc_central_gap, obc_side_gap):
        with pytest.raises(ConvergenceError):
            gap(p)


def test_obc_central_gap_keeps_the_fig3_closing_values():
    # the L=200 gaps at the four GBZ closings, as the full decomposition
    # in the skin-balancing frame gave them
    roots = gbz_zero_gap_solutions(shifted(0.5))
    want = {0.3468: 0.007576403576102371, -0.5685: 0.21121306188683375,
            -1.4315: 0.3935199791368669, -2.3468: 0.04884480930063236}
    for target, gap in want.items():
        got = obc_central_gap(shifted(nearest(roots, target), L=200))
        assert abs(got - gap) <= 1e-10, target


def test_band_winding_needs_bipartite_structure():
    p = hn(-2.5)
    with pytest.raises(UnsupportedStructureError):
        band_winding(p, gbz_contour(p))


def test_spectral_winding_signed_loops():
    p = hn(-2.5, boundary=PBC)
    w0 = spectral_winding(p, 0j)
    assert abs(w0.value) == 1
    assert abs(w0.raw_phase - w0.value) < 0.05
    # far outside every loop nothing is enclosed
    assert spectral_winding(p, 50.0 + 0j).value == 0


def test_spectral_winding_rejects_reference_on_spectrum():
    p = hn(-2.5, boundary=PBC)
    E = np.linalg.eigvals(build_hamiltonian(p))[0]
    with pytest.raises(IllConditionedContourError):
        spectral_winding(p, complex(E))


def test_spectral_winding_fails_fast_between_grid_points():
    # FIG5_TOP's PBC spectrum passes through 0 at k = pi/6 and -5pi/6,
    # which no doubling of the k-grid samples to within DEFAULT_TOL_GAP
    p = preset("FIG5_TOP").params
    t0 = time.perf_counter()
    with pytest.raises(IllConditionedContourError):
        spectral_winding(p, 0j)
    assert time.perf_counter() - t0 < 0.1
    # a reference on the Bloch spectrum at an irrational fraction of 2 pi
    q = hn(-2.5, boundary=PBC)
    E = np.linalg.eigvals(build_bloch(q, 2.0 * np.pi / np.sqrt(7.0)))[0]
    with pytest.raises(IllConditionedContourError):
        spectral_winding(q, E)


def test_no_spectral_flow_without_nonreciprocity():
    p = hn(-2.0, boundary=PBC)
    assert point_gap_residual(p) == 0.0
    for eref in (1.5 + 0.5j, -1.5 - 0.8j, 0.3 + 1j):
        assert spectral_winding(p, eref).value == 0


def test_line_gap_reports():
    p = shifted(-1.0)
    reports = line_gap_minima(p)
    kinds = {rep.kind for rep in reports}
    assert "LINE_GAP_CENTRAL" in kinds
    for rep in reports:
        assert rep.min_gap >= 0
        assert rep.closed == (rep.min_gap < 1e-6)


@pytest.mark.parametrize("jr", [-2.8, -2.3, -1.5])
@pytest.mark.parametrize("use_gbz", [False, True])
def test_line_gap_pairs_do_not_depend_on_band_order(jr, use_gbz):
    # all three FIG2_HN bands have mean real part 0 up to rounding; which
    # bands count as adjacent must not follow the stack order or a
    # rounding-level shift of the bands
    p = hn(jr)
    bands = _track_bands(np.linalg.eigvals(_contour_blochs(p, use_gbz, 512)))
    want = [rep.min_gap for rep in line_gap_minima(p, use_gbz=use_gbz)]
    # the imaginary-axis mirror pair keeps the two side gaps equal
    assert want[0] == pytest.approx(want[1], rel=1e-9)
    for perm in itertools.permutations(range(3)):
        for nudge in ((0.0, 1e-15, 2e-15), (2e-15, 1e-15, 0.0)):
            stack = bands[list(perm)] + np.array(nudge)[:, None]
            got = [rep.min_gap for rep in _gap_reports(p, stack)]
            assert got == pytest.approx(want, abs=1e-12)


def test_track_bands_tolerates_only_degenerate_ties():
    # each stack has two samples; band 0 (at 0) sits exactly halfway
    # between its two candidates at the second one
    def track(*samples):
        return _track_bands(np.array(samples, dtype=complex))

    # the tied candidates coincide: either choice gives the same bands
    assert track([0, 1], [0.5, 0.5]).tolist() == [[0, 0.5], [1, 0.5]]
    # the tied bands coincide at the previous sample: a swap relabels
    # identical histories
    assert sorted(track([0, 0], [-1, 1])[:, 1].real) == [-1, 1]
    # anything else is ambiguous
    with pytest.raises(NumericalError, match="ambiguous band continuation"):
        track([0, 3], [-1, 1])


def test_loop_count_collapses_at_criticality():
    assert count_spectral_loops(hn(-2.5, L=50, boundary=PBC)) == 3
    assert count_spectral_loops(hn(-2.0, L=50, boundary=PBC)) == 0
