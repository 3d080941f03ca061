"""Winding numbers, gap detection, gap-closing solvers, edge states.

Spectral (point-gap) topology is probed by the winding of
det(H_k - Eref) around the Brillouin zone; band (line-gap) topology by
the winding of det(h_beta^+) around the GBZ.  Both determinants are
Laurent polynomials in beta whose only pole is a simple one at the
origin, so each winding is an exact root count (argument principle):
zeros inside the contour minus one.  Closed-form gap-closing
solvers are provided for the two-band-per-site, two-site-per-module
family with shifted modular couplings, where the characteristic
polynomial factorizes through eta_1 = 2 J0^2 + Jm JmP + JL JR and
eta_2 = (J0^2 - JL Jm z)(J0^2 - JmP JR / z) with z the (generalized)
Bloch factor.  Line gaps and loop counts follow the contour spectra's
bands by nearest-root matching between samples: the roots are analytic
in beta away from exceptional points, so a step whose nearest root is
not certified is sampled more finely.
"""

from dataclasses import dataclass

import numpy as np
# scipy.spatial and scipy.sparse are imported inside the functions that
# use them: loading them at import would cost every nhlab process time and
# memory

from .errors import (AtTransitionError, NumericalError, UnsupportedStructureError,
                     ValidationError)
from .gbz import beta_polynomial, contour_eigenvalues, contour_radius, gbz_contour
from .metrology import model_eigenvalues, model_spectrum
from .model import OBC, SHIFTED, chiral_blocks
from .spectral import certify, sort_resolution

LINE_GAP_CENTRAL = "LINE_GAP_CENTRAL"
LINE_GAP_SIDE = "LINE_GAP_SIDE"

DEFAULT_TOL_GAP = 1e-6
LINE_GAP_K_POINTS = 512
BAND_MINIMUM_K_POINTS = 4096
LOOP_K_POINTS = 2048
LOOP_RESOLUTION = 1e-2
ROOT_DEDUPE_TOL = 1e-9  # gap-closing roots closer than this are one root


class IllConditionedContourError(NumericalError):
    """Reference energy too close to the spectrum for a winding."""


@dataclass(frozen=True)
class WindingResult:
    """Integer winding value plus the signed count it came from.

    Both windings are exact root counts: zeros inside the contour minus
    the pole at the origin.  Spectral windings are signed; band windings
    report the count's magnitude.  raw_phase is the signed count, a float.
    """

    value: int
    raw_phase: float


@dataclass(frozen=True)
class GapReport:
    kind: str
    parameter_value: complex
    min_gap: float
    closed: bool


def spectral_winding(p, Eref):
    """Winding of det(H_k - Eref) as k sweeps the Brillouin zone.

    det(H_beta - Eref) has one pole, at beta = 0, and the zeros of the
    quadratic beta_polynomial, so the winding is the number of those roots
    inside the unit circle minus one.  Raises IllConditionedContourError
    when the Bloch spectrum at a root's k (or at k = 0, which catches a det
    that vanishes for every beta) lies within DEFAULT_TOL_GAP of Eref.
    """
    Eref = complex(Eref)
    roots = np.roots(beta_polynomial(p, Eref))
    evs = contour_eigenvalues(p, np.exp(1j * np.append(np.angle(roots), 0.0)))
    dist = float(np.min(np.abs(evs - Eref)))
    if dist <= DEFAULT_TOL_GAP:
        raise IllConditionedContourError(
            "Eref within %.2e of the PBC spectrum" % dist)
    count = int(np.sum(np.abs(roots) < 1.0)) - 1
    return WindingResult(value=count, raw_phase=float(count))


def band_winding(p):
    """Winding of det(h_beta^+) along the GBZ circle, counter-clockwise.

    Only the corner bond JmP/beta enters h_beta^+, so det(h_beta^+) =
    A + B/beta, read off at beta = +-R with R = gbz.contour_radius(p), the
    radius of gbz_contour(p).  Its zero -B/A and its pole at 0 give the
    signed winding [|B/A| < R] - 1, kept in raw_phase; value is its
    magnitude (1 in the edge-state phase, 0 in the trivial one, matching
    the mid-gap edge-state count).

    Raises
    ------
    AtTransitionError
        If det(h_beta^+) vanishes on the contour: its minimum modulus
        there, ||A| - |B|/R|, is below 1e-12 of its maximum, |A| + |B|/R.
    """
    R = contour_radius(p)
    plus, minus = np.linalg.det(chiral_blocks(p, np.array([R, -R]))[0])
    A, B = 0.5 * (plus + minus), 0.5 * R * (plus - minus)
    if abs(abs(A) - abs(B) / R) <= 1e-12 * (abs(A) + abs(B) / R):
        raise AtTransitionError(
            "det(h+) vanishes on the contour; at a band transition")
    count = int(abs(B) < R * abs(A)) - 1
    return WindingResult(value=abs(count), raw_phase=float(count))


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


def _contour_betas(p, use_gbz, n):
    """n Bloch factors exp(ik) over the k-grid, or n points of the GBZ
    circle (use_gbz True); their spectra come from contour_eigenvalues."""
    if use_gbz:
        return gbz_contour(p, n_points=n).points
    return np.exp(1j * np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))


NEAREST_RATIO = 0.5  # a nearest root this close, relative to the runner-up, continues
SUBDIVISIONS = 3  # interior samples solved on the arc of an unsettled step
MAX_REFINE_DEPTH = 30  # subdivision levels before a step is ambiguous
DETOUR = 1e-8  # refined arcs run this fraction outside the contour


def _track_bands(p, betas):
    """Follow the bands of contour_eigenvalues(p, betas) along betas,
    samples of a circle about the origin in order of phase.

    Bands start in (Re, Im)-sorted order at the first sample.  The roots
    are analytic in beta away from exceptional points, so every step
    between consecutive samples takes the nearest-root matching that
    _match certifies, all steps in one array pass; _continue samples the
    others more finely.  The band labels follow by composing the
    matchings (_compose).

    Returns (bands, labels): bands[i, j] is band i at sample j, and
    labels[j, i] its index in contour_eigenvalues(p, betas)[j].
    """
    evs = contour_eigenvalues(p, betas)
    phi = np.unwrap(np.angle(betas))
    labels = np.empty(evs.shape, dtype=np.intp)
    labels[0] = np.lexsort((evs[0].imag, evs[0].real))
    arcs = np.column_stack([phi[:-1], phi[1:]])
    labels[1:] = _continue(p, abs(betas[0]), arcs, evs[:-1], evs[1:], 0)
    _compose(labels)
    return np.take_along_axis(evs, labels, axis=1).T, labels


def _continue(p, radius, phi, a, b, depth):
    """sigma[s, i]: the index in b[s] of the root that continues a[s, i]
    from phase phi[s, 0] of the circle of that radius, where the roots are
    a[s], to phi[s, 1], where they are b[s].

    A step _match leaves unsettled is split at SUBDIVISIONS interior
    phases, solved for every such step of a level in one
    contour_eigenvalues call, and takes the composition of its parts'
    matchings.  The interior points lie at |beta| = (1 + DETOUR) * radius,
    so an exceptional point (EP) on the contour, where the continuation is
    undefined, is passed on its outer side whatever the rounding.  A step
    still unsettled at level MAX_REFINE_DEPTH raises NumericalError; an arc
    too short to split in floating point keeps _match's greedy matching,
    since its two ends differ by rounding alone.
    """
    sigma, settled = _match(a, b)
    bad = np.flatnonzero(~settled)
    t = np.linspace(0.0, 1.0, SUBDIVISIONS + 2)
    sub = phi[bad, :1] + t * (phi[bad, 1:] - phi[bad, :1])
    split = (np.diff(sub, axis=1) != 0).all(axis=1)
    bad, sub = bad[split], sub[split]
    if len(bad):
        if depth == MAX_REFINE_DEPTH:
            raise NumericalError("ambiguous band continuation")
        m = a.shape[1]
        outer = radius * (1.0 + DETOUR)
        inner = contour_eigenvalues(p, outer * np.exp(1j * sub[:, 1:-1]))
        ev = np.concatenate([a[bad, None], inner, b[bad, None]], axis=1)
        arcs = np.stack([sub[:, :-1], sub[:, 1:]], axis=-1).reshape(-1, 2)
        parts = _continue(p, radius, arcs, ev[:, :-1].reshape(-1, m),
                          ev[:, 1:].reshape(-1, m), depth + 1)
        parts = parts.reshape(len(bad), -1, m).swapaxes(0, 1).copy()
        _compose(parts)
        sigma[bad] = parts[-1]
    return sigma


def _match(a, b):
    """Nearest-root matchings between paired samples a[s] and b[s], rows of
    the same m roots: (sigma, settled), sigma[s, i] the index in b[s]
    continuing a[s, i] and settled[s] whether step s holds as it is.

    A step holds as it stands when each root's nearest candidate lies
    within NEAREST_RATIO of the distance to its runner-up and these
    candidates form a permutation.  In any other step the roots, in order
    of their nearest distance, each take the nearest candidate left.  The
    step then holds when each root is degenerate, within DEFAULT_TOL_GAP
    of another root of a[s] (a swap exchanges roots that coincide), or
    every candidate its pick does not beat by NEAREST_RATIO lies within
    DEFAULT_TOL_GAP of the pick (any of them moves a reported distance by
    less than that tolerance).
    """
    m = a.shape[1]
    dist = np.abs(a[:, :, None] - b[:, None, :])
    sigma = dist.argmin(axis=2)
    srt = np.sort(dist, axis=2)
    settled = ((srt[:, :, 0] <= NEAREST_RATIO * srt[:, :, 1]).all(axis=1)
               & (np.sort(sigma, axis=1) == np.arange(m)).all(axis=1))
    for s in np.flatnonzero(~settled):
        d, left = dist[s], np.ones(m, dtype=bool)
        for i in np.argsort(srt[s, :, 0], kind="stable"):
            sigma[s, i] = np.flatnonzero(left)[d[i, left].argmin()]
            left[sigma[s, i]] = False
        pick = b[s, sigma[s]]
        rivals = d[np.arange(m), sigma[s]][:, None] > NEAREST_RATIO * d
        harmless = np.abs(b[s][None, :] - pick[:, None]) <= DEFAULT_TOL_GAP
        twins = np.abs(a[s][:, None] - a[s][None, :]) <= DEFAULT_TOL_GAP
        degenerate = twins.sum(axis=1) >= 2
        settled[s] = np.all(degenerate | (harmless | ~rivals).all(axis=1))
    return sigma, settled


def _compose(maps):
    """In place, maps[j] <- maps[j][maps[j-1]] ... [maps[0]] for every j,
    along the last axis (a Hillis-Steele scan, log2(len(maps)) array
    steps)."""
    d = 1
    while d < len(maps):
        maps[d:] = np.take_along_axis(maps[d:], maps[:-d], axis=-1)
        d *= 2


def line_gap_minima(p, use_gbz=False):
    """Minimum complex distance between adjacent tracked bands.

    Bands are followed over LINE_GAP_K_POINTS samples of the Bloch k-grid
    (use_gbz False) or of the GBZ circle (use_gbz True) and ordered by
    mean real part (ties, at the eigenvalue sort's resolution, by mean
    imaginary part); the minimum distance between the point sets of each
    adjacent pair is reported, closed below DEFAULT_TOL_GAP.  The pair
    between the two middle bands (r*d even) is labelled central.

    A step whose nearest-root matching is not certified is sampled more
    finely (_track_bands); one still ambiguous at the finest level raises
    NumericalError.
    """
    bands, _ = _track_bands(p, _contour_betas(p, use_gbz, LINE_GAP_K_POINTS))
    return _gap_reports(p, bands)


def direct_band_minimum(p, use_gbz=False):
    """Smallest distance between distinct eigenvalues over the contour.

    Label-free touching detector: a band closing means two eigenvalues of
    the same Bloch (or generalized-Bloch) matrix coincide, so no band
    bookkeeping is needed.  Complements line_gap_minima, whose per-pair
    reports depend on how bands are ordered.  The contour is sampled at
    BAND_MINIMUM_K_POINTS points.
    """
    ev = contour_eigenvalues(p, _contour_betas(p, use_gbz, BAND_MINIMUM_K_POINTS))
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
    bands = bands[np.lexsort((mean.imag,
                              np.round(mean.real / sort_resolution(bands))))]
    m = bands.shape[0]
    reports = []
    for i in range(m - 1):
        min_gap = _min_distance(bands[i], bands[i + 1])
        central = (m % 2 == 0) and (i == m // 2 - 1)
        kind = LINE_GAP_CENTRAL if central else LINE_GAP_SIDE
        reports.append(GapReport(kind=kind, parameter_value=p.JR,
                                 min_gap=min_gap, closed=min_gap < DEFAULT_TOL_GAP))
    return reports


def _min_distance(a, b):
    """min |a_i - b_j| over two point sets, bit for bit as np.abs of every
    difference gives it, without the len(a) x len(b) array.

    A cKDTree on b gives each point of a its nearest distance; the tree's
    sum of squares can differ from np.abs (hypot) in the last bits, so
    np.abs is taken on every row of a whose tree distance lies within a
    relative 1e-9 (plus sqrt(tiny), below which the squares lose
    precision) of the tree's minimum.
    """
    from scipy.spatial import cKDTree
    d = cKDTree(np.column_stack([b.real, b.imag])).query(
        np.column_stack([a.real, a.imag]), k=1)[0]
    near = a[d <= d.min() * (1.0 + 1e-9) + np.sqrt(np.finfo(float).tiny)]
    return float(np.abs(near[:, None] - b[None, :]).min())


# -- OBC diagnostics ---------------------------------------------------------

EDGE_REGION_FRACTION = 0.05  # per side; outer 10 percent of modules total


def _edge_weights(p, vectors):
    """Fraction of each eigenstate's weight in the outer modules."""
    n_edge = max(1, int(np.ceil(EDGE_REGION_FRACTION * p.L)))
    w = np.abs(vectors) ** 2
    per_module = w.reshape(p.L, p.r * p.d, -1).sum(axis=1)
    edge = per_module[:n_edge].sum(axis=0) + per_module[-n_edge:].sum(axis=0)
    return edge


def _require_obc(p, name):
    if p.boundary != OBC:
        raise ValidationError("%s requires OBC" % name)


def edge_states(p, energy_window):
    """OBC eigenpairs inside the energy window that live on the edges.

    A state qualifies when |E| < energy_window and at least 90 percent of
    its weight sits in the outer 10 percent of modules.  Returns a list
    of (eigenvalue, edge_weight) pairs.  The pairs come from model_spectrum
    on one sublattice: an edge pair too close to zero for the squared
    solve is refined on the chain's bidiagonal factors, and its vectors'
    even parts are built as lambda H_oe^-1 x, without dividing by lambda.
    """
    _require_obc(p, "edge_states")
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
    vectors (model_eigenvalues), on one sublattice; an |E| too close to
    zero for the squared solve, as for an edge pair near zero, is refined
    on the chain's bidiagonal factors.  The three
    smallest |E| the result reads are certified by inverse iteration.  On
    a skin-amplified chain the
    raw matrix gives eigenvalue errors larger than the gap itself, which
    the residual gate does not catch: FIG3 at L=200 reads two to three
    times the true 0.00758 at the 0.3468 closing.

    A pair of mid-gap edge modes sits exponentially close to E = 0 deep
    in the topological phase and would fake a closure; when the two
    smallest |E| are separated from the third by a factor of 20 the pair
    is excluded before taking the minimum.  Close to a closing on its
    winding-1 side the pair has not yet localized, the factor 20 is not
    reached, and the value returned is the edge pair's splitting, which
    lies below the bulk gap.  A PBC model raises ValidationError.
    """
    _require_obc(p, "obc_central_gap")
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
    are solved without vectors (model_eigenvalues, on one sublattice,
    a value too close to zero for the squared solve refined on the
    bidiagonal factors); the closest central/side pair, which gives the
    result, is certified by inverse iteration.  A PBC model raises
    ValidationError.
    """
    _require_obc(p, "obc_side_gap")
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

    Bands are tracked (_track_bands) over a k-grid of LOOP_K_POINTS
    samples and back to k = 0; after one Brillouin-zone traversal the
    bands may permute, so the closed curves are the cycles of that
    permutation, read from the band labels.  A cycle counts as a loop when
    its shoelace area exceeds LOOP_RESOLUTION; loops closer than
    LOOP_RESOLUTION merge into one component.
    """
    from scipy.spatial import cKDTree
    betas = _contour_betas(p, False, LOOP_K_POINTS)
    bands, labels = _track_bands(p, np.append(betas, betas[:1]))
    # the last sample repeats the first root for root, so band i continues
    # as the band perm[i] that starts where band i ends
    perm = np.argsort(labels[0])[labels[-1]]
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
    # merge loops that touch within the resolution
    from scipy.sparse.csgraph import connected_components
    n = len(loops)
    adj = np.zeros((n, n), dtype=bool)
    trees = [cKDTree(np.column_stack([c.real, c.imag])) for c in loops]
    for i in range(n):
        for j in range(i + 1, n):
            d = trees[i].query(np.column_stack([loops[j].real, loops[j].imag]),
                               k=1, distance_upper_bound=LOOP_RESOLUTION)[0].min()
            adj[i, j] = d < LOOP_RESOLUTION
    return int(connected_components(adj, directed=False)[0])
