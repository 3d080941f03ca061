"""Winding numbers, gap detection, gap-closing solvers, edge states.

Spectral (point-gap) topology is probed by the winding of
det(H_k - Eref) around the Brillouin zone; band (line-gap) topology by
the winding of det(h_beta^+) around the GBZ.  Closed-form gap-closing
solvers are provided for the two-band-per-site, two-site-per-module
family with shifted modular couplings, where the characteristic
polynomial factorizes through eta_1 = 2 J0^2 + Jm JmP + JL JR and
eta_2 = (J0^2 - JL Jm z)(J0^2 - JmP JR / z) with z the (generalized)
Bloch factor.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from .errors import (AtTransitionError, NumericalError, UnsupportedStructureError,
                     ValidationError)
from .gbz import gbz_contour
from .metrology import model_eigenvalues, model_spectrum
from .model import SHIFTED, build_bloch, build_generalized_bloch, chiral_blocks
from .spectral import DEFAULT_TOL_EIG, certify

POINT_GAP = "POINT_GAP"
LINE_GAP_CENTRAL = "LINE_GAP_CENTRAL"
LINE_GAP_SIDE = "LINE_GAP_SIDE"

DEFAULT_TOL_GAP = 1e-6
TRANSITION_SOLVER_TOL = 5e-4
WINDING_INTEGER_TOL = 0.05
WINDING_K_POINTS = 1024
LINE_GAP_K_POINTS = 512
LOOP_K_POINTS = 2048
LOOP_RESOLUTION = 1e-2
ROOT_DEDUPE_TOL = 1e-9  # gap-closing roots closer than this are one root


class IllConditionedContourError(NumericalError):
    """Reference energy too close to the spectrum for a winding integral."""


@dataclass(frozen=True)
class WindingResult:
    """Integer winding value plus the raw accumulated phase / 2 pi.

    Spectral windings are signed; band windings report the magnitude of
    the rounded phase (raw_phase always keeps the sign).  The contour
    field records what the integral ran over.
    """

    value: int
    raw_phase: float
    contour: object


@dataclass(frozen=True)
class GapReport:
    kind: str
    parameter_value: complex
    min_gap: float
    closed: bool


def _loop_phase(samples):
    """Total phase accumulated by a closed discrete loop, in turns.

    Returns (turns, max_step).  Each successive phase difference is
    wrapped to (-pi, pi]; the loop closes from the last sample back to
    the first.
    """
    ang = np.angle(samples)
    diffs = np.diff(np.concatenate([ang, ang[:1]]))
    diffs = (diffs + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.sum(diffs) / (2.0 * np.pi)), float(np.max(np.abs(diffs)))


def _check_crossings(p, Eref):
    """Raise IllConditionedContourError where the Bloch spectrum passes
    within DEFAULT_TOL_GAP of Eref, wherever the k-grid falls.

    The corner bonds JmP/beta and Jm beta make beta det(H_beta - Eref) a
    quadratic in beta; its coefficients are the discrete Fourier
    transform of three samples on the unit circle.  The spectrum reaches
    Eref only at the k of a root on |beta| = 1, so the Bloch spectrum is
    checked at each root's k.
    """
    eye = np.eye(p.r * p.d)
    beta = np.exp(2j * np.pi * np.arange(3) / 3.0)
    dets = beta * np.linalg.det(build_generalized_bloch(p, beta) - Eref * eye)
    coeffs = np.fft.fft(dets) / 3.0  # coefficients of beta^0, beta^1, beta^2
    roots = np.roots(coeffs[::-1])
    if len(roots) == 0:
        return
    evs = np.linalg.eigvals(build_bloch(p, np.angle(roots)))
    dist = float(np.min(np.abs(evs - Eref)))
    if dist <= DEFAULT_TOL_GAP:
        raise IllConditionedContourError(
            "Eref within %.2e of the PBC spectrum" % dist)


def spectral_winding(p, Eref):
    """Winding of det(H_k - Eref) as k sweeps the Brillouin zone.

    Eref must stay farther than DEFAULT_TOL_GAP from the PBC spectrum;
    that is checked where the spectrum crosses Eref (_check_crossings)
    before any sampling, and on every k-grid.  The k-grid starts at
    WINDING_K_POINTS samples and doubles, up to seven times, until the
    phase steps are small.  Returns a WindingResult with a signed
    integer value.
    """
    Eref = complex(Eref)
    eye = np.eye(p.r * p.d)
    _check_crossings(p, Eref)
    n = WINDING_K_POINTS
    for _ in range(8):
        Hk = _contour_blochs(p, False, n)
        dets = np.linalg.det(Hk - Eref * eye)
        dist = np.min(np.abs(np.linalg.eigvals(Hk) - Eref))
        if dist <= DEFAULT_TOL_GAP:
            raise IllConditionedContourError(
                "Eref within %.2e of the PBC spectrum" % dist)
        turns, max_step = _loop_phase(dets)
        if max_step <= 0.5 * np.pi and abs(turns - round(turns)) < WINDING_INTEGER_TOL:
            return WindingResult(value=int(round(turns)), raw_phase=turns,
                                 contour={"kind": "k-grid", "n": n})
        n *= 2
    raise NumericalError("spectral winding did not stabilize after refinement")


def band_winding(p, contour):
    """Winding of det(h_beta^+) along the GBZ contour, counter-clockwise.

    The corner 1/beta term makes det(h_beta^+) meromorphic with a pole
    at the origin, so the accumulated phase counts zeros inside the
    contour minus the pole order; the magnitude of that count is the
    reported value (1 in the edge-state phase, 0 in the trivial phase,
    consistent with the mid-gap edge-state count), and the signed
    accumulated phase is kept in raw_phase.

    Raises
    ------
    AtTransitionError
        If det(h_beta^+) vanishes on the contour (winding undefined).
    """
    cont = contour
    for _ in range(6):
        dets = np.linalg.det(chiral_blocks(p, cont.points)[0])
        mags = np.abs(dets)
        if np.min(mags) <= 1e-12 * max(np.max(mags), 1e-300):
            raise AtTransitionError(
                "det(h+) vanishes on the contour; at a band transition")
        turns, max_step = _loop_phase(dets)
        if max_step <= 0.5 * np.pi and abs(turns - round(turns)) < WINDING_INTEGER_TOL:
            return WindingResult(value=abs(int(round(turns))), raw_phase=turns,
                                 contour=cont)
        cont = cont.refined()
    raise NumericalError("band winding did not stabilize after contour refinement")


# -- closed-form gap-closing solvers (d=2, r=2, SHIFTED family) -------------


def _require_shifted_d2r2(p):
    if p.d != 2 or p.r != 2:
        raise UnsupportedStructureError("closed-form solvers require d=2, r=2")
    if p.preset is None or p.preset.kind != SHIFTED:
        raise UnsupportedStructureError("closed-form solvers require the SHIFTED preset")
    for v in (p.preset.J, p.JL):
        if abs(complex(v).imag) > 0:
            raise UnsupportedStructureError("closed-form solvers require real couplings")


def _quad_roots_of(f):
    """Real roots of a quadratic known only through point evaluations.

    f is sampled at three nodes; the Vandermonde solve recovers the exact
    coefficients, so no symbolic expansion is transcribed.  The explicit
    quadratic formula with a clamped discriminant keeps exact double
    roots real (companion-matrix eigensolvers split them into a tiny
    conjugate pair).
    """
    xs = np.array([0.0, 1.0, -1.0])
    ys = np.array([f(x) for x in xs], dtype=float)
    a, b, c = np.linalg.solve(np.vander(xs, 3), ys)
    scale = max(abs(a), abs(b), abs(c), 1e-300)
    if abs(a) < 1e-12 * scale:
        if abs(b) < 1e-12 * scale:
            return []
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < -1e-9 * (b * b + abs(4.0 * a * c)):
        return []
    disc = max(disc, 0.0)
    # evaluate the large-magnitude root first to avoid cancellation
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b if b != 0 else 1.0))
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    elif disc > 0.0:
        roots.append(-roots[0])
    return roots


def _eta_coeffs(p, JR):
    """(eta1, Jm, JmP) of the shifted family at a trial real JR."""
    J = p.preset.J.real
    JL = p.JL.real
    Jm = JL + J
    JmP = JR + J
    eta1 = 2.0 * p.J0 ** 2 + Jm * JmP + JL * JR
    return eta1, Jm, JmP


def pbc_zero_gap_solutions(p):
    """Real JR values where the Bloch bands of the shifted family touch.

    Central closings solve J0^2 = +-JR*JmP (the JL Jm branch carries no
    JR dependence and is checked for accidental degeneracy); side
    closings solve eta1^2 = 4 eta2 at k in {0, pi}.  All real roots are
    returned, sorted; the list can contain closings beyond those between
    the two central bands.
    """
    _require_shifted_d2r2(p)
    J = p.preset.J.real
    JL = p.JL.real
    Jm = JL + J
    roots = []
    for s in (1.0, -1.0):
        if abs(p.J0 ** 2 - s * JL * Jm) < 1e-12:
            raise AtTransitionError(
                "J0^2 = %+g JL*Jm holds identically; gap closed for every JR" % s)
        roots.extend(_quad_roots_of(lambda JR, s=s: p.J0 ** 2 - s * JR * (JR + J)))
    for s in (1.0, -1.0):
        def side(JR, s=s):
            eta1, Jm_, JmP = _eta_coeffs(p, JR)
            eta2 = (p.J0 ** 2 - JL * Jm_ * s) * (p.J0 ** 2 - JmP * JR * s)
            return eta1 ** 2 - 4.0 * eta2
        roots.extend(_quad_roots_of(side))
    return _dedupe_sorted(roots)


def gbz_zero_gap_solutions(p):
    """Real JR values where the generalized-Bloch bands of the shifted
    family touch on the GBZ circle.

    Central closings: either zero of eta2 lands on the circle exactly
    when J0^4 = |JL Jm JR JmP|, split into the two sign branches of the
    real product.  Side closings: on the phase-quadrature point of the
    circle (beta real negative for negative root products, imaginary
    otherwise) eta2 reduces to the polynomial J0^4 + JL Jm JR JmP, and
    the touching condition eta1^2 = 4 eta2 is again a quadratic.
    """
    _require_shifted_d2r2(p)
    J = p.preset.J.real
    JL = p.JL.real
    Jm = JL + J

    def product(JR):
        return JL * Jm * JR * (JR + J)

    roots = []
    for s in (1.0, -1.0):
        roots.extend(_quad_roots_of(lambda JR, s=s: product(JR) - s * p.J0 ** 4))

    def side(JR):
        eta1, _, _ = _eta_coeffs(p, JR)
        return eta1 ** 2 - 4.0 * (p.J0 ** 4 + product(JR))
    roots.extend(_quad_roots_of(side))
    return _dedupe_sorted(roots)


def _dedupe_sorted(values):
    out = []
    for v in sorted(values):
        if not out or abs(v - out[-1]) > ROOT_DEDUPE_TOL:
            out.append(float(v))
    return out


# -- band tracking and line gaps --------------------------------------------


def _contour_blochs(p, use_gbz, n):
    """Stack of n Bloch matrices over the k-grid, or of generalized-Bloch
    matrices over the GBZ circle (use_gbz True)."""
    if use_gbz:
        return build_generalized_bloch(p, gbz_contour(p, n_points=n).points)
    return build_bloch(p, np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))


def _track_bands(evs):
    """Follow eigenvalue bands along an ordered matrix family.

    evs[j] holds the eigenvalues of the family's j-th matrix.  Bands
    start in (Re, Im)-sorted order at the first sample and are continued
    by optimal assignment against a linear extrapolation of each band
    (velocity continuation carries bands through transversal crossings).
    A tie between two distinct candidates is harmless when the competing
    bands are themselves degenerate at the previous sample, since
    swapping them relabels identical histories; any other tie raises.
    """
    first = evs[0]
    order = np.lexsort((first.imag, first.real))
    bands = [first[order]]
    prev2 = bands[0]
    for ev in evs[1:]:
        prev = bands[-1]
        pred = 2.0 * prev - prev2
        cost = np.abs(pred[:, None] - ev[None, :])
        rows, cols = linear_sum_assignment(cost)
        if len(ev) > 1:
            # a swap between candidates (or histories) closer than the gap
            # tolerance moves any reported distance by less than that
            # tolerance, so such ties are harmless
            srt = np.sort(cost, axis=1)
            for i in np.where((srt[:, 1] - srt[:, 0]) < 1e-10)[0]:
                close = np.where(cost[i] <= srt[i, 0] + 1e-10)[0]
                if np.max(np.abs(ev[close] - ev[close[0]])) <= DEFAULT_TOL_GAP:
                    continue
                if np.sum(np.abs(prev - prev[i]) <= DEFAULT_TOL_GAP) >= 2:
                    continue
                raise NumericalError("ambiguous band continuation")
        prev2 = prev
        bands.append(ev[cols[np.argsort(rows)]])
    return np.array(bands).T  # (n_bands, n_samples)


def line_gap_minima(p, use_gbz=False):
    """Minimum complex distance between adjacent tracked bands.

    Bands are followed over LINE_GAP_K_POINTS samples of the Bloch k-grid
    (use_gbz False) or of the GBZ circle (use_gbz True) and ordered by
    mean real part (ties, at the eigenvalue sort's resolution, by mean
    imaginary part); the minimum distance between the point sets of each
    adjacent pair is reported, closed below DEFAULT_TOL_GAP.  The pair
    between the two middle bands (r*d even) is labelled central.

    Ambiguous tracking raises NumericalError; a finer grid does not
    resolve it on any preset.
    """
    bands = _track_bands(np.linalg.eigvals(
        _contour_blochs(p, use_gbz, LINE_GAP_K_POINTS)))
    return _gap_reports(p, bands)


def direct_band_minimum(p, use_gbz=False, grid_size=512):
    """Smallest distance between distinct eigenvalues over the contour.

    Label-free touching detector: a band closing means two eigenvalues of
    the same Bloch (or generalized-Bloch) matrix coincide, so no band
    bookkeeping is needed.  Complements line_gap_minima, whose per-pair
    reports depend on how bands are ordered.
    """
    if grid_size < 128:
        raise ValidationError("grid_size must be >= 128")
    ev = np.linalg.eigvals(_contour_blochs(p, use_gbz, int(grid_size)))
    d = np.abs(ev[:, :, None] - ev[:, None, :])
    i = np.arange(ev.shape[1])
    d[:, i, i] = np.inf
    return float(d.min())


def _gap_reports(p, bands):
    # bands are ordered by mean real part at the resolution full_spectrum
    # sorts imaginary parts with, then by mean imaginary part: bands whose
    # mean real parts differ only by rounding (all three of FIG2_HN's sit
    # at 0) would otherwise be paired by that rounding
    mean = bands.mean(axis=1)
    res = DEFAULT_TOL_EIG * max(float(np.max(np.abs(bands), initial=0.0)), 1.0)
    bands = bands[np.lexsort((mean.imag, np.round(mean.real / res)))]
    m = bands.shape[0]
    reports = []
    for i in range(m - 1):
        a, b = bands[i], bands[i + 1]
        diff = np.abs(a[:, None] - b[None, :])
        min_gap = float(diff.min())
        central = (m % 2 == 0) and (i == m // 2 - 1)
        kind = LINE_GAP_CENTRAL if central else LINE_GAP_SIDE
        reports.append(GapReport(kind=kind, parameter_value=p.JR,
                                 min_gap=min_gap, closed=min_gap < DEFAULT_TOL_GAP))
    return reports


# -- OBC diagnostics ---------------------------------------------------------

EDGE_REGION_FRACTION = 0.05  # per side; outer 10 percent of modules total


def _edge_weights(p, vectors):
    """Fraction of each eigenstate's weight in the outer modules."""
    n_edge = max(1, int(np.ceil(EDGE_REGION_FRACTION * p.L)))
    w = np.abs(vectors) ** 2
    per_module = w.reshape(p.L, p.r * p.d, -1).sum(axis=1)
    edge = per_module[:n_edge].sum(axis=0) + per_module[-n_edge:].sum(axis=0)
    return edge


def edge_states(p, energy_window):
    """OBC eigenpairs inside the energy window that live on the edges.

    A state qualifies when |E| < energy_window and at least 90 percent of
    its weight sits in the outer 10 percent of modules.  Returns a list
    of (eigenvalue, edge_weight) pairs.
    """
    if p.boundary != "OBC":
        raise ValidationError("edge_states requires OBC")
    dec = model_spectrum(p)
    inside = np.abs(dec.values) < energy_window
    if not np.any(inside):
        return []
    edge = _edge_weights(p, dec.right_vectors[:, inside])
    out = []
    for val, wgt in zip(dec.values[inside], edge):
        if wgt >= 0.9:
            out.append((complex(val), float(wgt)))
    return out


def obc_central_gap(p):
    """Width of the central line gap of the OBC spectrum, 2*min|E|.

    The eigenvalues are solved in the skin-balancing frame, without
    vectors (model_eigenvalues); the three smallest |E| the result reads
    are certified by inverse iteration.  On a skin-amplified chain the
    raw matrix gives eigenvalue errors larger than the gap itself, which
    the residual gate does not catch: FIG3 at L=200 reads two to three
    times the true 0.00758 at the 0.3468 closing.

    A pair of mid-gap edge modes sits exponentially close to E = 0 deep
    in the topological phase and would fake a closure; when the two
    smallest |E| are separated from the third by a factor of 20 the pair
    is excluded before taking the minimum.  Close to a closing on its
    winding-1 side the pair has not yet localized, the factor 20 is not
    reached, and the value returned is the edge pair's splitting, which
    lies below the bulk gap.
    """
    H, E = model_eigenvalues(p)
    smallest = E[np.argsort(np.abs(E), kind="stable")[:3]]
    certify(H, smallest)
    mags = np.abs(smallest)
    if len(mags) > 2 and mags[2] > 20.0 * max(mags[1], 1e-300):
        return float(2.0 * mags[2])
    return float(2.0 * mags[0])


def obc_side_gap(p):
    """Minimum distance between the central and side OBC band clusters.

    States are split by |E| at the largest relative jump in the sorted
    magnitudes (excluding the lowest quarter, so mid-gap modes and the
    central closing itself do not capture the split).  The eigenvalues
    are solved without vectors (model_eigenvalues); the closest
    central/side pair, which gives the result, is certified by inverse
    iteration.
    """
    H, E = model_eigenvalues(p)
    mags = np.sort(np.abs(E))
    nlo = len(mags) // 4
    ratios = mags[nlo + 1:] / np.maximum(mags[nlo:-1], 1e-300)
    cut = nlo + int(np.argmax(ratios))
    thresh = 0.5 * (mags[cut] + mags[cut + 1])
    central = E[np.abs(E) <= thresh]
    side = E[np.abs(E) > thresh]
    if len(central) == 0 or len(side) == 0:
        return 0.0
    dist = np.abs(central[:, None] - side[None, :])
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    certify(H, (central[i], side[j]))
    return float(dist[i, j])


# -- spectral loop counting --------------------------------------------------


def count_spectral_loops(p):
    """Number of area-enclosing loops traced by the PBC spectrum.

    Bands are tracked over a k-grid of LOOP_K_POINTS samples; after one
    Brillouin-zone traversal the bands may permute, so the closed curves
    are the cycles of that permutation.  A cycle counts as a loop when its
    shoelace area exceeds LOOP_RESOLUTION; loops closer than
    LOOP_RESOLUTION merge into one component.
    """
    ev = np.linalg.eigvals(_contour_blochs(p, False, LOOP_K_POINTS))
    bands = _track_bands(np.concatenate([ev, ev[:1]]))
    start = bands[:, 0]
    end = bands[:, -1]
    # permutation: band i continues as band perm[i] after the traversal
    cost = np.abs(end[:, None] - start[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm = cols[np.argsort(rows)]
    closed = bands[:, :-1]

    seen = set()
    curves = []
    for i in range(len(perm)):
        if i in seen:
            continue
        cyc = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        curves.append(np.concatenate([closed[c] for c in cyc]))

    loops = []
    for curve in curves:
        x, y = curve.real, curve.imag
        area = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        if area > LOOP_RESOLUTION:
            loops.append(curve)
    if not loops:
        return 0
    # merge loops that touch within the resolution; csgraph is imported
    # here because loading it adds about 1 MB to every process's memory
    from scipy.sparse.csgraph import connected_components
    n = len(loops)
    adj = np.zeros((n, n), dtype=bool)
    trees = [cKDTree(np.column_stack([c.real, c.imag])) for c in loops]
    for i in range(n):
        for j in range(i + 1, n):
            d = trees[i].query(np.column_stack([loops[j].real, loops[j].imag]),
                               k=1)[0].min()
            adj[i, j] = d < LOOP_RESOLUTION
    return int(connected_components(adj, directed=False)[0])
