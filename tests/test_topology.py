"""Winding numbers, gap-closing solvers, edge counting, loop detection."""

import itertools
import time
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest
import scipy.linalg

from nhlab import (NON_MODULAR, PBC, RECIPROCAL_MODULAR, SHIFTED,
                   AtTransitionError, ConvergenceError, CouplingPreset,
                   NumericalError, UnsupportedStructureError, ValidationError,
                   band_winding, build_bloch, build_generalized_bloch,
                   build_hamiltonian, chiral_blocks,
                   count_spectral_loops, direct_band_minimum, edge_states,
                   gbz_contour, gbz_radius, gbz_zero_gap_solutions,
                   line_gap_minima, make_params, metrology, obc_central_gap,
                   obc_side_gap, pbc_zero_gap_solutions, point_gap_residual,
                   PRESET_NAMES, preset, spectral_winding)
from conftest import track_bands_loop
from nhlab import topology
from nhlab.cli import main
from nhlab.gbz import contour_eigenvalues
from nhlab.metrology import model_eigenvalues
from nhlab.spectral import FALL_BACKS
from nhlab.topology import (LOOP_K_POINTS, IllConditionedContourError,
                            _contour_betas, _gap_reports, _match,
                            _min_distance, _track_bands)


def lapack_contour_eigenvalues(p, beta):
    """LAPACK's eigenvalues of the generalized-Bloch matrices at beta: the
    reference the closed-form contour spectra are held to."""
    return np.linalg.eigvals(build_generalized_bloch(p, beta))


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
        assert direct_band_minimum(shifted(v)) < 1e-3


def test_gbz_closing_solver_contains_known_roots():
    roots = gbz_zero_gap_solutions(shifted(0.5))
    for want in (0.3468, -0.5685, -1.4315, -2.3468, -1.75):
        assert abs(nearest(roots, want) - want) < 5e-4
    for v in roots:
        q = shifted(v)
        assert direct_band_minimum(q, use_gbz=True) < 1e-3


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
        res = band_winding(p)
        assert res.value == w, "winding at JR=%g" % jr
        assert abs(res.raw_phase - round(res.raw_phase)) < 0.05
        assert len(edge_states(p, 0.2)) == 2 * w


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


@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="certify's inverse iteration overflows on the "
                          "33-fold eigenvalue of a decoupled chain")
def test_obc_central_gap_of_fig3_stored_point_matches_its_closed_form():
    # FIG3's stored JR = 0 cuts the L = 34 chain into two 2-site end blocks
    # (|E| = 1.25) and 33 4-site blocks with bond products (1.5625, 6,
    # 1.5625), whose E^2 solve E^4 - 9.125 E^2 + 1.5625^2 = 0, so the gap
    # is sqrt(18.25 - 2 sqrt(73.5)); ?gttrf meets no exactly zero pivot,
    # but 33 pivots of ~3e-16 at the 33-fold eigenvalue overflow the first
    # inverse-iteration solve
    p = preset("FIG3").resized(34)
    exact = np.sqrt(18.25 - 2.0 * np.sqrt(73.5))
    dense = 2.0 * np.min(np.abs(scipy.linalg.eigvals(build_hamiltonian(p))))
    assert abs(dense - exact) <= 1e-14 * exact
    assert abs(obc_central_gap(p) - exact) <= 1e-12 * exact


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
    # each gap is eigenvalue solves only, no eigenvector solve: the
    # half-size solve, whose edge pair near 1.9e-4, too close to zero for
    # the squared solve's accuracy, is refined on the bidiagonal factors
    seen = []
    for name in ("eig", "eigvals"):
        solve = getattr(scipy.linalg, name)

        def recorded(a, *args, _name=name, _solve=solve, **kwargs):
            seen.append((_name, a.shape))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, recorded)
    p = shifted(-1.0, L=100)
    obc_central_gap(p)
    obc_side_gap(p)
    assert seen == [("eigvals", (p.D // 2, p.D // 2))] * 2


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


@pytest.mark.parametrize("obc_only", [obc_central_gap, obc_side_gap,
                                      lambda p: edge_states(p, 0.2),
                                      model_eigenvalues],
                         ids=["obc_central_gap", "obc_side_gap", "edge_states",
                              "model_eigenvalues"])
def test_obc_results_refuse_a_ring(obc_only):
    # a ring's spectrum is not the open chain's, so no OBC result is
    # measured on it; the open chain itself is accepted
    p = shifted(-1.0, L=20)
    obc_only(p)
    with pytest.raises(ValidationError, match="requires OBC"):
        obc_only(p.with_updates(boundary=PBC))


def test_obc_gaps_build_no_dense_matrix(lapack_calls):
    # near FIG3's -0.5685 closing every |E| passes the squaring gate: the
    # product comes from the bands and the three certificates factor them
    fig3 = preset("FIG3").params
    closing = nearest(gbz_zero_gap_solutions(fig3), -0.5685)
    lapack_calls.clear()
    obc_central_gap(fig3.with_updates(L=200, JR=closing))
    assert lapack_calls["dense"] == 0 and lapack_calls["tbtrs"] == 0
    assert lapack_calls["gttrf"] == 3 and lapack_calls["getrf"] == 0
    # at JR=-1 the edge pair is refined on the bidiagonal factors, two
    # ?tbtrs substitutions per inverse-iteration step, and no H is built
    for gap in (obc_central_gap, obc_side_gap):
        lapack_calls.clear()
        gap(fig3.with_updates(L=100, JR=-1.0))
        assert lapack_calls["dense"] == 0
        assert lapack_calls["tbtrs"] in (2, 4, 6)


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
        band_winding(p)


def test_band_winding_at_a_structural_transition_is_typed():
    # h+ = JL + JR/beta vanishes at |beta| = |JR/JL|, which is the GBZ
    # radius of every non-modular two-site chain
    p = make_params(1, 2, 20, JL=1.0, JR=1.5 - 0.5j,
                    preset=CouplingPreset(NON_MODULAR))
    with pytest.raises(AtTransitionError):
        band_winding(p)


def phase_turns(dets):
    """Phase of a closed loop of samples, unwrapped, in turns."""
    return np.sum(np.diff(np.unwrap(np.angle(np.append(dets, dets[0]))))) / (2 * np.pi)


def test_windings_match_a_sampled_phase_integral():
    # reference: the phase of det unwrapped over 8192 points, trusted
    # only where it lands within 0.05 of an integer
    phi = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    rng = np.random.default_rng(3)
    shapes = [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 2)]
    kinds = [RECIPROCAL_MODULAR, SHIFTED, NON_MODULAR]
    compared = {"spectral": 0, "band": 0}
    for i in range(42):
        d, r = shapes[i % len(shapes)]
        jr = 1.5 * rng.normal() + (1j * rng.normal() if rng.random() < 0.3 else 0.0)
        p = make_params(d, r, 10, J0=abs(rng.normal()) + 0.2 if d > 1 else 0.0,
                        JL=rng.normal(), JR=jr,
                        preset=CouplingPreset(kinds[i % 3], rng.normal() + 0.1))
        eye = np.eye(r * d)
        for eref in (0j, complex(rng.normal(), rng.normal()), 50.0 + 0j):
            ref = phase_turns(np.linalg.det(build_bloch(p, phi) - eref * eye))
            try:
                res = spectral_winding(p, eref)
            except IllConditionedContourError:
                continue
            assert res.raw_phase == res.value
            if abs(ref - round(ref)) < 0.05:
                assert res.value == round(ref)
                compared["spectral"] += 1
        if r * d % 2:
            continue
        cont = gbz_contour(p)
        ref = phase_turns(np.linalg.det(
            chiral_blocks(p, cont.radius * np.exp(1j * phi))[0]))
        try:
            res = band_winding(p)
        except AtTransitionError:
            continue
        assert res.value == abs(res.raw_phase) and res.raw_phase == round(res.raw_phase)
        if abs(ref - round(ref)) < 0.05:
            assert res.raw_phase == round(ref)
            compared["band"] += 1
    assert compared["spectral"] >= 100 and compared["band"] >= 15, compared


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
    # JL = JR = 0 isolates each module's middle site: a flat band at 0,
    # where det vanishes for every beta and has no roots to look at
    flat = make_params(1, 3, 8, JL=0, JR=0, Jm=1.0, JmP=0.5, boundary=PBC)
    with pytest.raises(IllConditionedContourError):
        spectral_winding(flat, 0j)


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
    bands, _ = _track_bands(p, _contour_betas(p, use_gbz, 512))
    want = [rep.min_gap for rep in line_gap_minima(p, use_gbz=use_gbz)]
    # the imaginary-axis mirror pair keeps the two side gaps equal
    assert want[0] == pytest.approx(want[1], rel=1e-9)
    for perm in itertools.permutations(range(3)):
        for nudge in ((0.0, 1e-15, 2e-15), (2e-15, 1e-15, 0.0)):
            stack = bands[list(perm)] + np.array(nudge)[:, None]
            got = [rep.min_gap for rep in _gap_reports(p, stack)]
            assert got == pytest.approx(want, abs=1e-12)


def test_track_bands_tolerates_only_degenerate_ties():
    # each case is one step between two samples of two roots; root 0 (at
    # 0) sits exactly halfway between its two candidates at the second one
    def match(a, b):
        sigma, settled = _match(np.array([a], dtype=complex),
                                np.array([b], dtype=complex))
        return sigma[0].tolist(), bool(settled[0])

    # the tied candidates coincide: either choice gives the same bands
    assert match([0, 1], [0.5, 0.5]) == ([0, 1], True)
    # the tied roots coincide at the previous sample: a swap exchanges
    # roots that coincide
    sigma, settled = match([0, 0], [-1, 1])
    assert settled and sorted(sigma) == [0, 1]
    # anything else is left to a finer sample
    assert not match([0, 3], [-1, 1])[1]
    # a nearest candidate within half the runner-up's distance holds, and
    # one short of that does not
    assert match([0, 3], [0.99, 2]) == ([0, 1], True)
    assert not match([0, 3], [1.01, 2])[1]
    # two roots with one nearest candidate are no matching
    assert not match([0, 0.2], [0.1, 5])[1]


def test_refinement_stops_at_its_depth_cap(monkeypatch):
    # FIG3's GBZ at JR = -2.5 holds an exceptional point on the contour,
    # which the tracker resolves by sampling finer around it
    p = preset("FIG3").params.with_updates(JR=-2.5)
    assert len(line_gap_minima(p, use_gbz=True)) == 3
    monkeypatch.setattr(topology, "MAX_REFINE_DEPTH", 5)
    with pytest.raises(NumericalError, match="ambiguous band continuation"):
        line_gap_minima(p, use_gbz=True)


def test_refinement_stops_where_the_arc_cannot_be_split():
    # on FIG4_HN's GBZ at JR = -0.5 three roots meet within one ulp of
    # beta = iR, a sample, where they are known only to about 4e-6: no
    # finer phase separates them, and the greedy matching stands
    p = preset("FIG4_HN").params.with_updates(JR=-0.5)
    assert [rep.kind for rep in line_gap_minima(p, use_gbz=True)] == [
        "LINE_GAP_SIDE", "LINE_GAP_SIDE"]


def test_loop_count_collapses_at_criticality():
    assert count_spectral_loops(hn(-2.5, L=50, boundary=PBC)) == 3
    assert count_spectral_loops(hn(-2.0, L=50, boundary=PBC)) == 0


def _contours(p):
    """The contours band tracking reads at p: the line gaps' 512 samples
    of the k-grid and of the GBZ circle, and the loop count's grid of
    LOOP_K_POINTS samples closed by its first one, on both circles."""
    for use_gbz in (False, True):
        yield _contour_betas(p, use_gbz, 512)
    for use_gbz in (False, True):
        betas = _contour_betas(p, use_gbz, LOOP_K_POINTS)
        yield np.append(betas, betas[:1])


def _bloch_topology_points(seed):
    """The FIG3 and FIG2_HN points the benchmark's bloch_topology study
    draws for a seed: stratified JR in [-2.25, 1] and [-3, -1]."""
    rng = np.random.default_rng(seed)
    points = []
    for name, (lo, hi), strata in (("FIG3", (-2.25, 1.0), 4),
                                   ("FIG2_HN", (-3.0, -1.0), 3)):
        width = (hi - lo) / strata
        points += [preset(name).params.with_updates(
            JR=lo + (i + rng.uniform()) * width) for i in range(strata)]
    return points


TRACKING_POINTS = (
    [(name, preset(name).params) for name in PRESET_NAMES]
    + [("FIG3_JR%g" % jr, preset("FIG3").params.with_updates(JR=jr))
       for jr in (-2.3, -2.35, -2.5, -2.8, -2.975)]
    + [("seed%d_%d" % (seed, i), p) for seed in range(1, 11)
       for i, p in enumerate(_bloch_topology_points(seed))])


# the points where the sample-by-sample loop meets an exceptional point on
# the GBZ circle (and, at FIG4_HN's own JR, where rho = 1, on both circles)
LOOP_FAILS = {"FIG4_HN", "FIG3_JR-2.35", "FIG3_JR-2.5", "FIG3_JR-2.8",
              "FIG3_JR-2.975"}


@pytest.mark.parametrize("name, p", TRACKING_POINTS,
                         ids=[c[0] for c in TRACKING_POINTS])
def test_track_bands_is_the_sample_by_sample_loop(name, p):
    # bit for bit the same bands wherever the loop returns; where it
    # raises, the refined steps carry every band through the exceptional
    # point, each sample's roots once
    raised = False
    for betas in _contours(p):
        evs = contour_eigenvalues(p, betas)
        got, _ = _track_bands(p, betas)
        try:
            want = track_bands_loop(evs)
        except NumericalError as exc:
            assert str(exc) == "ambiguous band continuation"
            assert np.array_equal(np.sort(got.T, axis=1), np.sort(evs, axis=1))
            raised = True
            continue
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert raised == (name in LOOP_FAILS)


def test_contour_is_solved_once_away_from_exceptional_points(monkeypatch):
    # a deterministic work counter: at the benchmark's seeded points and at
    # FIG3's and FIG4_SSH's own, every step settles without a finer sample,
    # so each result solves its contour once
    counts = []

    def counted(p, beta):
        counts.append(len(beta))
        return contour_eigenvalues(p, beta)
    monkeypatch.setattr(topology, "contour_eigenvalues", counted)
    points = [p for seed in range(1, 11) for p in _bloch_topology_points(seed)]
    points += [preset("FIG3").params, preset("FIG4_SSH").params]
    for p in points:
        for call in (lambda: line_gap_minima(p), lambda: count_spectral_loops(p),
                     lambda: line_gap_minima(p, use_gbz=True)):
            counts.clear()
            call()
            assert len(counts) == 1
    # an exceptional point on FIG3's GBZ at JR = -2.5 is sampled finer
    counts.clear()
    line_gap_minima(preset("FIG3").params.with_updates(JR=-2.5), use_gbz=True)
    assert counts[0] == 512 and len(counts) > 1


def test_min_distance_is_the_brute_force_minimum():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n, m = rng.integers(1, 60, size=2)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        if trial % 4 == 1:  # a duplicated point: minimum 0
            b[rng.integers(m)] = a[rng.integers(n)]
        if trial % 4 == 2:  # exact ties: a lattice, every gap 0.25 or more
            a = (rng.integers(-4, 4, n) + 1j * rng.integers(-4, 4, n)) * 0.5
            b = a[rng.integers(n, size=m)] + 0.25
        if trial % 4 == 3:  # tiny and huge scales
            a, b = a * 1e-150, b * 1e-150
        want = float(np.abs(a[:, None] - b[None, :]).min())
        assert _min_distance(a, b) == want
        assert _min_distance(b, a) == want


def test_loop_count_at_fig3():
    # three loops enclose area at JR = -1.2, none within LOOP_RESOLUTION of
    # another: the bounded tree queries keep the count the unbounded ones
    # gave
    assert count_spectral_loops(preset("FIG3").params.with_updates(JR=-1.2)) == 3


M6 = make_params(2, 3, 10, J0=1.25, JL=1.0, JR=0.5,
                 preset=CouplingPreset(SHIFTED, 2.0))


def contour_results(p):
    """Every result read from contour spectra at p: both line-gap modes,
    the direct band minimum and the loop count, each a value or its
    error's text, and the winding at 0 or its error's type (its text
    gives the distance to the spectrum)."""
    results = []
    for call, keep in ((lambda: line_gap_minima(p), str),
                       (lambda: line_gap_minima(p, use_gbz=True), str),
                       (lambda: direct_band_minimum(p), str),
                       (lambda: direct_band_minimum(p, use_gbz=True), str),
                       (lambda: count_spectral_loops(p), str),
                       (lambda: spectral_winding(p, 0j), type)):
        try:
            results.append(call())
        except NumericalError as exc:
            results.append(keep(exc))
    return results


@pytest.mark.parametrize("name", PRESET_NAMES + ("m6",))
def test_contour_results_solve_no_bloch_matrix(name, lapack_calls, tmp_path):
    # m = r*d <= 4 solves every contour sample in closed form, no eigvals
    # call at all, and so does `nhlab preset`; m = 6 hands its stacks to
    # LAPACK
    p = M6 if name == "m6" else preset(name).params
    lapack_calls.clear()
    contour_results(p)
    assert lapack_calls["eig order"] == (0 if name != "m6" else 6)
    if name != "m6":
        lapack_calls.clear()
        with redirect_stdout(StringIO()):
            main(["preset", name, "--out", str(tmp_path / "bands.csv")])
        assert lapack_calls["eig order"] == 0


@pytest.mark.parametrize("p", [c[1] for c in TRACKING_POINTS],
                         ids=[c[0] for c in TRACKING_POINTS])
def test_closed_form_contours_give_the_lapack_results(p, monkeypatch):
    # the same errors, loop counts, windings and closed flags as the LAPACK
    # stacks give, and the same gaps to 1e-10; no sample falls back
    before = FALL_BACKS["contour"]
    got = contour_results(p)
    assert FALL_BACKS["contour"] == before
    monkeypatch.setattr(topology, "contour_eigenvalues", lapack_contour_eigenvalues)
    want = contour_results(p)
    for g, w in zip(got, want):
        if isinstance(w, (str, int)):
            assert g == w
        elif isinstance(w, float):
            assert abs(g - w) <= 1e-10
        elif isinstance(w, list):
            assert [r.closed for r in g] == [r.closed for r in w]
            assert [r.kind for r in g] == [r.kind for r in w]
            assert np.allclose([r.min_gap for r in g], [r.min_gap for r in w],
                               rtol=0.0, atol=1e-10)
        else:
            assert g == w


def two_sublevel(J0, kind, J):
    return make_params(2, 2, 4, J0=J0, JL=1.0, JR=0.5,
                       preset=CouplingPreset(kind, J))


TOPOLOGY_INPUT_CHECKS = {
    "preset kind": (lambda: pbc_zero_gap_solutions(
                        two_sublevel(1.3, RECIPROCAL_MODULAR, 2.0)),
                    UnsupportedStructureError,
                    "closed-form solvers require the SHIFTED preset"),
    "real couplings": (lambda: pbc_zero_gap_solutions(
                           two_sublevel(1.3, SHIFTED, 0.5j)),
                       UnsupportedStructureError,
                       "closed-form solvers require real couplings"),
    # J0^2 = JL * (JL + J) for every JR: the closing is not a point
    "identical closing": (lambda: pbc_zero_gap_solutions(
                              two_sublevel(1.0, SHIFTED, 0.0)),
                          AtTransitionError,
                          "J0^2 = +1 JL*Jm holds identically"),
}


@pytest.mark.parametrize("case", list(TOPOLOGY_INPUT_CHECKS))
def test_topology_input_checks(case):
    call, error, message = TOPOLOGY_INPUT_CHECKS[case]
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)
