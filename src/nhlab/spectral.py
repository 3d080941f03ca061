"""Non-normal eigenproblems on dense matrices and open chains, and
skin-effect diagnostics.

full_spectrum solves for every eigenvalue, with the right eigenvectors
unless only the values are asked for; eigenpair computes one right
eigenvector (and the left one on request) by inverse iteration from a
computed eigenvalue.  Both hold a vector to the same residual gate.
A result that reads a few eigenpairs pays for one eigenvalue solve and
one factorization of H - lambda per pair: the steady state and its
derivative (metrology._steady_derivatives) read the steady eigenvalue's
right and left vectors, the OBC side gap (topology) only eigenvalues;
certify holds every other eigenvalue a result reads to the gate with one
inverse-iteration vector each, and bordered_solve gives the steady
vector's derivatives.  A result that reads only the values nearest zero
(the OBC central gap, edge states) takes bottom_spectrum, O(D) work in
all, below.  Model spectra are solved in the skin-balancing
frame (metrology.model_spectrum over full_spectrum); a raw solve of a
skin-amplified chain loses eigenvalues to pseudospectral error that the
residual gate does not see.

An open chain comes as model.ChainBands, and eigenpair and certify take
nothing else: it is exactly tridiagonal, so H - lambda is factored by
LAPACK ?gttrf and solved by ?gttrs in O(D) work, in one place (_lu)
for eigenpair, certify and bordered_solve.  full_spectrum and
residuals read an open chain's bands directly and also accept a dense
matrix, which always takes the dense solve.  A PBC ring is
block-circulant and is solved by its Bloch sectors
(metrology.model_spectrum), so these four functions refuse a ring's
bands; bordered_solve still takes them, since deleting one site of a
ring leaves an open chain.  A D x D matrix is built only for what has no
half-size path: the vectors of an odd D and the few near-zero values the
refinement below cannot take, each only when it runs (FALL_BACKS counts
them by cause).

full_spectrum works on one sublattice where it can: every open chain
couples even to odd positions only, so the eigenvalues are +-sqrt of
those of the (D/2)-square product M = H_oe H_eo of the two off-diagonal
blocks, about 1/8 of the flops (_half_solve).  M is written from the
bands in O(D) work (_band_product), and the eigenvectors follow from
M's through band products (_hop), which also give the residuals.  Every
consumer of a whole spectrum shares that solve: model spectra and skin
profiles with vectors, the OBC side gap and the steady solve without.
Squaring loses
absolute accuracy near zero (eps ||H||^2 / |lambda| instead of
eps ||H||), so every value is held to the squaring gate.  A value that
fails, such as an edge pair near zero deep in a topological phase, is
refined by inverse iteration on M^-1 through the two bidiagonal factors
of M (_refine), which keeps the relative accuracy that squaring throws
away; only odd dimension, a singular factor, a refinement that does not
converge and a pair that fails the residual gate run the dense LAPACK
?geev.

bottom_spectrum reads the bottom of the spectrum alone: the same
subspace inverse iteration on BOTTOM_BLOCK columns gives the
smallest-|mu| Ritz pairs of M, and a count of M's eigenvalues inside a
circle |mu| = R certifies that none is missing (count_inside: the
argument principle, the trapezoid rule of M's log-derivative on the
circle, each sample in O(D) work from M's three-term recurrence).  Where
the pairs or the count fall short it returns None, counted in
FALL_BACKS, and its caller takes the half-size solve.

A matrix whose imaginary part is all zero is solved in real arithmetic
(LAPACK dgeev instead of zgeev, about twice as fast); every preset but
FIG5_TOP has a real Hamiltonian.  Values and vectors are returned
complex either way, and the residual gate is the same.
"""

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, ValidationError
from .model import ChainBands

DEFAULT_TOL_EIG = 1e-9
# inverse iteration stops at the first iterate that passes the gate, after
# at most this many solves, as LAPACK's ?laein does
MAX_INVERSE_STEPS = 3
# a sublattice eigenvalue is kept when its squaring error eps ||M|| / |lambda|
# is at most this fraction of max(|lambda|, 1)
SQUARING_GATE = 1e-12
# subspace inverse iteration on the bidiagonal factors stops after at most
# this many steps (_refine)
REFINE_STEPS = 6
# bottom_spectrum iterates on this many columns for at most this many
# steps, and keeps every Ritz modulus at least this factor from its circle
BOTTOM_BLOCK = 8
BOTTOM_STEPS = 40
BOTTOM_SEPARATION = 1.1
# count_inside: the trapezoid rule starts at 2 * COUNT_SAMPLES samples,
# doubles up to COUNT_MAX_SAMPLES, and accepts two successive estimates
# within COUNT_TOL of one integer
COUNT_SAMPLES = 128
COUNT_MAX_SAMPLES = 2048
COUNT_TOL = 1e-6
# dense solves of a chain's bands, by cause: "odd vectors", "odd
# dimension", "singular factor", "unconverged", "residual" (a pair failed
# the residual gate) and "lapack"; "contour", the Bloch and GBZ samples
# whose closed-form roots fail gbz.CONTOUR_GATE; and "bottom " plus a
# cause, the bottom_spectrum calls that leave their caller to the
# half-size solve
FALL_BACKS = Counter()


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues and unit-norm eigenvectors of a complex matrix.

    Attributes
    ----------
    values : ndarray, complex
        Sorted by (Im desc, Re desc).
    right_vectors : ndarray (D, D), complex
        Column j is the unit-2-norm right eigenvector of values[j].
    residuals : ndarray, real
        Per-pair ||H v - lambda v||_2.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    residuals: np.ndarray

    @property
    def dim(self):
        return len(self.values)


def _checked(H):
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValidationError("matrix must be square")
    if not np.all(np.isfinite(H)):
        raise ValidationError("matrix entries must be finite")
    return H


def _real_if_possible(H):
    """H, or its real part when its imaginary part is all zero."""
    return H if np.any(H.imag) else H.real


def _open_chain(H):
    """The bands H, unless they close a ring."""
    if H.corners.any():
        raise ValidationError(
            "a PBC ring's bands are not solved as a chain: take "
            "model_spectrum of its model (the ring's Bloch sectors) or the "
            "dense matrix of build_hamiltonian")
    return H


def _split(H):
    """H for the eigensolvers: checked and in real arithmetic when it is
    real; an open chain's ChainBands stay bands."""
    if isinstance(H, ChainBands):
        entries = _real_if_possible(_finite(_open_chain(H).entries))
        n = len(H.upper)
        return ChainBands(entries[:n], entries[n:2 * n], entries[2 * n:])
    return _real_if_possible(_checked(H))


def _dense(H):
    """A dense H as it is, or the D x D matrix of bands from _split."""
    return _real_if_possible(H.dense()) if isinstance(H, ChainBands) else H


def sort_resolution(values):
    """The sort's resolution, DEFAULT_TOL_EIG * max(max |values|, 1):
    parts of eigenvalues that round to the same multiple of it are ties."""
    return DEFAULT_TOL_EIG * float(np.max(np.abs(values), initial=1.0))


def _order(values):
    """Sort permutation: Im descending at sort_resolution(values), ties by
    Re descending."""
    im_key = np.round(values.imag / sort_resolution(values))
    return np.lexsort((-values.real, -im_key))


def full_spectrum(H, vectors=True):
    """Diagonalize an open chain (model.ChainBands) or a dense matrix with
    a residual guarantee.

    An open chain's bands are solved on one sublattice (_half_solve):
    every value is held to the squaring gate, those too close to zero for
    the squared solve after their refinement on the bidiagonal factors
    (_refine), and the vectors are kept only if every pair then passes
    the residual gate below.  Anything else (a dense matrix, odd
    dimension with vectors, a value the refinement cannot take, a failed
    residual gate, a LAPACK failure of the half solve) takes the dense
    solve, LAPACK ?geev of H, made dense from the bands only then and
    counted in FALL_BACKS for a chain's bands.  A matrix with an all-zero
    imaginary part goes to LAPACK as real (dgeev, not zgeev).  Values and
    vectors come back complex either way, and the residuals are taken
    against the matrix as given: through the bands' two halves (_hop)
    for a chain, as one dense product otherwise.  A ring's bands raise
    ValidationError (metrology.model_spectrum solves a ring).

    Eigenpairs are sorted by decreasing imaginary part, ties broken by
    decreasing real part, so the ordering (and therefore steady-state
    selection) is deterministic for identical input.  Imaginary parts are
    compared at sort_resolution, DEFAULT_TOL_EIG * max(|lambda|, 1): a
    real spectrum carries O(1e-16) imaginary noise that would otherwise
    scramble the primary key and make the tie-break unreachable.

    vectors=False returns only the sorted eigenvalues (an ndarray): the
    solve skips the eigenvectors and so has no residual to check; a
    caller certifies the eigenvalues it reads with certify.

    Raises
    ------
    ConvergenceError
        If the dense solve fails in LAPACK or leaves a residual above
        DEFAULT_TOL_EIG * max(||H||_F, 1), the residual gate.
    """
    H = _split(H)
    half = _half_solve(H, vectors)
    if not vectors:
        if half is not None:
            return half
        return _dense_solve(_dense(H), vectors=False)
    bound = DEFAULT_TOL_EIG * max(_frobenius(H), 1.0)
    if half is not None:
        values, vecs = half
        residuals = _residuals(H, vecs, values)
        if np.all(residuals <= bound):
            return SpectralDecomposition(values=values, right_vectors=vecs,
                                         residuals=residuals)
        FALL_BACKS["residual"] += 1
    half = vecs = None  # frees the rejected vectors before the dense solve
    values, vecs = _dense_solve(_dense(H), vectors=True)
    residuals = _residuals(H, vecs, values)
    if np.any(residuals > bound):
        raise ConvergenceError(
            "eigensolver residual %.3e exceeds %.3e (dim %d)"
            % (residuals.max(), bound, len(values)))
    return SpectralDecomposition(values=values, right_vectors=vecs,
                                 residuals=residuals)


def _dense_solve(A, vectors):
    """Sorted eigenvalues of A and, with vectors=True, its unit right
    eigenvectors as (values, vecs): LAPACK ?geev, no residual check."""
    try:
        if not vectors:
            values = scipy.linalg.eigvals(A)
            return values[_order(values)]
        values, vecs = scipy.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError("eigensolver failed: %s" % exc)
    order = _order(values)
    # dgeev returns real vectors when every eigenvalue is real
    vecs = vecs[:, order].astype(complex, copy=False)
    vecs /= np.linalg.norm(vecs, axis=0)
    return values[order], vecs


def _product_entries(H):
    """(a, b, c, d) of the open chain H (bands): a_k = H[2k+1, 2k],
    b_k = H[2k+1, 2k+2], c_k = H[2k, 2k+1] and d_k = H[2k+2, 2k+1], b
    and d zero past the chain's end, so that M = H_oe H_eo is
    tridiagonal with M[k, k] = a_k c_k + b_k d_k, M[k, k+1] = b_k c_{k+1}
    and M[k+1, k] = a_{k+1} d_k."""
    upper, lower, _ = H
    n = (len(upper) + 1) // 2
    a, c = lower[0::2], upper[0::2]
    b = np.append(upper[1::2], 0.0)[:n]
    d = np.append(lower[1::2], 0.0)[:n]
    return a, b, c, d


def _band_product(H):
    """M = H_oe H_eo of the open chain H (bands) in O(D) work, written
    into the one floor(D/2)-square array LAPACK needs, from the entries
    of _product_entries."""
    a, b, c, d = _product_entries(H)
    n = len(a)
    M = np.zeros((n, n), dtype=np.result_type(a, b, c, d))
    k = np.arange(n)
    M[k, k] = a * c + b * d
    M[k[:-1], k[1:]] = b[:-1] * c[1:]
    M[k[1:], k[:-1]] = a[1:] * d[:-1]
    return M


def _hop(H, x, rows):
    """Rows rows, rows + 2, ... of H v from the block x = v[1-rows::2] of
    columns (H_eo x for rows=0, H_oe x for rows=1), H an open chain's
    bands, in O(D) work per column."""
    upper, lower, _ = H
    up, down = upper[rows::2], lower[1 - rows::2]
    y = np.zeros(((len(upper) + 2 - rows) // 2,) + x.shape[1:],
                 dtype=np.result_type(upper, x))
    np.multiply(up[:, None], x[rows:rows + len(up)], out=y[:len(up)])
    y[1 - rows:1 - rows + len(down)] += down[:, None] * x[:len(down)]
    return y


def _half_solve(H, vectors):
    """Sublattice solve of an open chain H from its bands (_split).

    The eigenvalues are +-sqrt(mu), mu running over the eigenvalues of
    the floor(D/2)-square product M = H_oe H_eo (_band_product, the only
    array of that size a values-only solve makes besides LAPACK's own),
    plus an exact 0 when D is odd; they are exactly symmetric under
    E -> -E and sorted as full_spectrum sorts.  Every value is held to
    the squaring gate: its squaring error eps ||M||_1 / |lambda| must be
    within SQUARING_GATE * max(|lambda|, 1), and the mu of every value
    that fails it are refined on the bidiagonal factors (_refine), whose
    own gate is the same.  Returns the values, or (values, vecs) with
    vectors=True: the unit right eigenvectors, whose odd part is x, M's
    eigenvector of mu = lambda^2, and whose even part is H_eo x / lambda
    (_hop), or lambda H_oe^-1 x for a refined value, so that no step
    divides by a tiny lambda; the vectors of +-lambda are images of each
    other under S = diag((-1)^i) up to a sign.  Returns None wherever the
    dense ?geev must run: a dense matrix, vectors=True at odd D (an even
    number of bonds), a LAPACK failure and a refinement that cannot run
    (each of the last three counted in FALL_BACKS).
    """
    if not isinstance(H, ChainBands):
        return None
    if vectors and len(H.upper) % 2 == 0:
        FALL_BACKS["odd vectors"] += 1
        return None
    D = len(H.upper) + 1
    M = _band_product(H)
    try:
        if vectors:
            mu, X = scipy.linalg.eig(M)
        else:
            mu = scipy.linalg.eigvals(M)
    except np.linalg.LinAlgError:  # pragma: no cover - LAPACK failure
        FALL_BACKS["lapack"] += 1
        return None
    norm1 = float(np.max(np.sum(np.abs(M), axis=0)))
    del M
    root = np.sqrt(mu)
    with np.errstate(divide="ignore"):
        fail = np.flatnonzero(np.finfo(float).eps * norm1 / np.abs(root)
                              > SQUARING_GATE * np.maximum(np.abs(root), 1.0))
    even = None
    if len(fail):
        refined = _refine(H, len(fail))
        if refined is None:
            return None
        mu_fail, x, even = refined
        root[fail] = np.sqrt(mu_fail.astype(complex))
        if vectors:
            X = X.astype(np.result_type(X, x), copy=False)
            X[:, fail] = x
    values = np.concatenate([root, -root, np.zeros(D % 2)])
    order = _order(values)
    values = values[order]
    if not vectors:
        return values
    k = order % len(root)
    vecs = np.empty((D, D), dtype=complex)
    vecs[1::2] = X[:, k]
    np.divide(_hop(H, X, 0)[:, k], values, out=vecs[0::2])
    if even is not None:
        # a refined value's even part, lambda H_oe^-1 x
        cols = np.flatnonzero(np.isin(k, fail))
        slot = np.searchsorted(fail, k[cols])
        vecs[0::2, cols] = even[:, slot] * values[cols]
    vecs /= _column_norms(vecs)
    return values, vecs


def _refine(H, m):
    """The m smallest-magnitude eigenvalues of M = H_oe H_eo, refined on
    its bidiagonal factors (Demmel & Kahan: a bidiagonal determines its
    small singular values to high relative accuracy, which squaring M
    throws away).

    Subspace inverse iteration (_inverse_subspace) runs for at most
    REFINE_STEPS steps and stops once every Ritz pair passes the squaring
    gate.  Returns (mu, x, h) with mu = 1/nu, x the unit Ritz vectors (M's
    eigenvectors) and h = H_oe^-1 x (lambda h is the even part of
    lambda's vector), or None when H has odd dimension (no square
    factors), a factor is singular (an exactly zero diagonal entry) or the
    refinement does not converge; each of those is counted in FALL_BACKS.
    """
    factors = _bidiagonal_factors(H)
    if isinstance(factors, str):
        FALL_BACKS[factors] += 1
        return None
    steps = _inverse_subspace(H, factors, m)
    for mu, x, h, passed in itertools.islice(steps, REFINE_STEPS):
        if passed.all():
            return mu, x, h
    FALL_BACKS["unconverged"] += 1
    return None


def _bidiagonal_factors(H):
    """(oe, eo): the factors H_oe = H[1::2, 0::2] (upper bidiagonal,
    diagonal a_k = H[2k+1, 2k]) and H_eo = H[0::2, 1::2] (lower
    bidiagonal, diagonal c_k = H[2k, 2k+1]) of the open chain H in LAPACK
    band storage, or the cause they cannot serve: "odd dimension" (no
    square factors) or "singular factor" (an exactly zero diagonal
    entry)."""
    if len(H.upper) % 2 == 0:
        return "odd dimension"
    upper, lower, _ = H
    n = (len(upper) + 1) // 2
    oe, eo = np.zeros((2, 2, n), dtype=np.result_type(upper, lower))
    oe[1], oe[0, 1:] = lower[0::2], upper[1::2]
    eo[0], eo[1, :-1] = upper[0::2], lower[1::2]
    if not (oe[1].all() and eo[0].all()):
        return "singular factor"
    return oe, eo


def _inverse_subspace(H, factors, m):
    """Subspace inverse iteration on M^-1 = H_eo^-1 H_oe^-1 from an
    m-column fixed start, factors = (oe, eo) from _bidiagonal_factors:
    two LAPACK ?tbtrs substitutions per column and step, in O(D) work.
    Each step yields (mu, x, h, passed) from the Ritz pairs (nu, w) of
    M^-1 on the current orthonormal basis Q (the eigenpairs of
    Q^H M^-1 Q): mu = 1/nu, the unit Ritz vectors x = Q w, h = H_oe^-1 x,
    and whether each pair's relative residual ||M^-1 x - nu x|| / |nu|
    gives an error |lambda| * residual within the squaring gate."""
    oe, eo = factors
    n = oe.shape[1]
    (tbtrs,) = scipy.linalg.get_lapack_funcs(("tbtrs",), (oe,))
    rng = np.random.default_rng(0)
    Q = rng.standard_normal((n, m))
    if np.iscomplexobj(H.entries):
        Q = Q + 1j * rng.standard_normal((n, m))
    Q = np.linalg.qr(Q)[0]
    while True:
        h = tbtrs(oe, Q, uplo="U")[0]
        Y = tbtrs(eo, h, uplo="L")[0]
        nu, W = np.linalg.eig(Q.conj().T @ Y)
        W /= np.linalg.norm(W, axis=0)
        x = Q @ W
        with np.errstate(all="ignore"):
            mu = 1.0 / nu
            size = np.sqrt(np.abs(mu))
            residual = np.linalg.norm(Y @ W - x * nu, axis=0) / np.abs(nu)
        yield (mu, x, h @ W,
               size * residual <= SQUARING_GATE * np.maximum(size, 1.0))
        Q = np.linalg.qr(Y)[0]


def bottom_spectrum(H, radius=None, vectors=False):
    """The eigenvalues of the open chain H (model.ChainBands, even D)
    nearest zero, certified by a count, in O(D) work per iteration step
    and per count sample; None where they cannot be certified.

    They are +-sqrt(mu) for the smallest-|mu| eigenvalues of
    M = H_oe H_eo, which subspace inverse iteration on the bidiagonal
    factors gives (_inverse_subspace, as _refine runs it, on
    BOTTOM_BLOCK columns for at most BOTTOM_STEPS steps), each Ritz pair
    held to the squaring gate.  A circle |mu| = R bounds them: with
    radius=None, R is the geometric mean of the first two consecutive
    Ritz moduli, from the second on, that differ by a factor of
    BOTTOM_SEPARATION^2 or more; otherwise R = radius.  Every Ritz pair inside
    R must pass the gate, every Ritz modulus must lie at least a factor
    BOTTOM_SEPARATION from R, and the count of M's eigenvalues inside R
    (count_inside) must equal the number of Ritz values inside it.  So
    the result holds every eigenvalue of H with |lambda|^2 < R: at least
    four values with radius=None, and those with |lambda| < sqrt(radius)
    otherwise.

    Returns the values, sorted as full_spectrum sorts them, or with
    vectors=True a SpectralDecomposition of their pairs: the vector of
    lambda has odd part x, M's Ritz vector, and even part lambda H_oe^-1 x,
    as a refined value's in full_spectrum, and every pair must pass
    full_spectrum's residual gate.  Returns None where any of this fails,
    counted in FALL_BACKS as "bottom " plus the cause: "odd dimension",
    "singular factor", "unconverged" (the pairs inside R do not all pass
    the squaring gate within BOTTOM_STEPS steps), "near circle" (a
    converged Ritz value within BOTTOM_SEPARATION of R), "count" (the
    count does not certify or differs) and "residual"; the caller then
    takes the half-size solve.
    """
    if not isinstance(H, ChainBands):
        raise ValidationError("bottom_spectrum takes an open chain's bands")
    H = _split(H)
    pairs = _bottom_pairs(H, radius)
    if isinstance(pairs, str):
        FALL_BACKS["bottom " + pairs] += 1
        return None
    mu, x, h = pairs
    root = np.sqrt(mu.astype(complex))
    values = np.concatenate([root, -root])
    order = _order(values)
    values = values[order]
    if not vectors:
        return values
    k = order % len(root)
    vecs = np.empty((len(H.upper) + 1, len(values)), dtype=complex)
    vecs[1::2] = x[:, k]
    vecs[0::2] = h[:, k] * values
    vecs /= _column_norms(vecs)
    residuals = _residuals(H, vecs, values)
    if np.any(residuals > DEFAULT_TOL_EIG * max(_frobenius(H), 1.0)):
        FALL_BACKS["bottom residual"] += 1
        return None
    return SpectralDecomposition(values=values, right_vectors=vecs,
                                 residuals=residuals)


def _bottom_pairs(H, radius):
    """(mu, x, h) of bottom_spectrum, sorted by |mu|, or the cause it
    falls back."""
    factors = _bidiagonal_factors(H)
    if isinstance(factors, str):
        return factors
    steps = _inverse_subspace(H, factors, BOTTOM_BLOCK)
    for mu, x, h, passed in itertools.islice(steps, BOTTOM_STEPS):
        order = np.argsort(np.abs(mu), kind="stable")
        mags, passed = np.abs(mu)[order], passed[order]
        R = radius
        if R is None:
            # the first wide gap from the second modulus on
            i = np.flatnonzero(mags[2:] >= BOTTOM_SEPARATION ** 2 * mags[1:-1])
            R = np.sqrt(mags[i[0] + 1] * mags[i[0] + 2]) if len(i) else 0.0
        near = mags < R * BOTTOM_SEPARATION
        if R > 0 and not near.all() and passed[near].all():
            break
        if passed.all():
            return "unconverged"
    else:
        return "unconverged"
    inside = int(np.sum(mags < R))
    if np.any(mags[near] > R / BOTTOM_SEPARATION):
        return "near circle"
    if _count(_product_recurrence(H), R) != inside:
        return "count"
    keep = order[:inside]
    return mu[keep], x[:, keep], h[:, keep]


def _product_recurrence(H):
    """(alpha, e): the diagonal of M = H_oe H_eo and the products
    M[k, k+1] M[k+1, k] of its off-diagonal pairs, which fix
    det(M - mu) and are the same in every diagonal similarity frame."""
    a, b, c, d = _product_entries(H)
    return a * c + b * d, (b[:-1] * c[1:]) * (a[1:] * d[:-1])


def _log_derivative(recurrence, mu):
    """f'(mu) / f(mu) for f = det(M - mu) at each sample mu, in O(D)
    work per sample, vectorised over the samples: the three-term
    recurrence (recurrence = (alpha, e) from _product_recurrence) of M's
    leading minors f_k, carried as the ratios r_k = f_k / f_(k-1), so
    nothing overflows, with r_k' / r_k summed."""
    alpha, e = recurrence
    with np.errstate(all="ignore"):
        r = alpha[0] - mu
        w = -1.0 / r
        total = w.copy()
        t = np.empty_like(r)
        for a, c in zip(alpha[1:].tolist(), e.tolist()):
            np.divide(c, r, out=t)
            np.subtract(a, mu, out=r)
            r -= t
            w *= t
            w -= 1.0
            w /= r
            total += w
    return total


def _count(recurrence, radius):
    """count_inside from M's (alpha, e) (_product_recurrence)."""
    n = COUNT_SAMPLES
    angles = np.pi / (3 * n) + 2.0 * np.pi * np.arange(2 * n) / (2 * n)
    samples = radius * np.exp(1j * angles)
    g = samples * _log_derivative(recurrence, samples)
    coarse = g[0::2].mean()
    while True:
        fine = g.mean()
        if not np.isfinite(fine):
            return None
        k = round(fine.real)
        if abs(coarse - k) <= COUNT_TOL and abs(fine - k) <= COUNT_TOL:
            return k
        if len(g) >= COUNT_MAX_SAMPLES:
            return None
        # the midpoints of the current samples, so that the grids nest
        mid = samples * np.exp(1j * np.pi / len(samples))
        g = np.concatenate([g, mid * _log_derivative(recurrence, mid)])
        samples = np.concatenate([samples, mid])
        coarse = fine


def count_inside(H, radius):
    """The number of eigenvalues mu of M = H_oe H_eo with |mu| < radius,
    the half of the open chain H's (model.ChainBands) eigenvalues
    lambda = +-sqrt(mu) with |lambda| < sqrt(radius), or None where it
    cannot be certified.

    The count is the argument principle (Delves & Lyness, Math. Comp. 21,
    543, 1967): the mean of mu f'(mu) / f(mu), f = det(M - mu), over
    equispaced samples of the circle |mu| = radius (the trapezoid rule),
    each in O(D) work from M's continuant (_log_derivative).  The
    trapezoid rule converges geometrically at the rate set by the
    eigenvalue moduli nearest the radius, so the samples double from
    2 COUNT_SAMPLES up to COUNT_MAX_SAMPLES until two successive
    estimates (every other sample, then all) lie within COUNT_TOL of the
    same integer.  The sample grid is turned by pi / (3 COUNT_SAMPLES) off
    the real axis: an eigenvalue on the circle then adds 1/2 to the real
    part of every estimate, and a conjugate pair on it an imaginary part
    of at least 0.43, so neither passes for an integer.
    """
    if not isinstance(H, ChainBands):
        raise ValidationError("count_inside takes an open chain's bands")
    if not (np.isfinite(radius) and radius > 0):
        raise ValidationError("count radius must be positive and finite")
    return _count(_product_recurrence(_split(H)), float(radius))


def _column_norms(V):
    """2-norm of each column of a complex V with contiguous rows, summed
    on its real view, so no V-sized temporary is made."""
    F = V.view(float)
    return np.sqrt(np.einsum("ij,ij->j", F, F).reshape(-1, 2).sum(axis=1))


def _frobenius(H):
    """||H||_F of a dense H or of bands."""
    return float(np.linalg.norm(H.entries if isinstance(H, ChainBands) else H))


def _residuals(H, vecs, values):
    """||H v - lambda v||_2 for each column v of vecs, H from _split: an
    open chain's two halves (_hop) replace the D x D product, which is
    taken only for a dense matrix."""
    if isinstance(H, ChainBands):
        parts = ((0, vecs[1::2], vecs[0::2]), (1, vecs[0::2], vecs[1::2]))
    else:
        H, parts = _dense(H), ((None, vecs, vecs),)
    squares = np.zeros(len(values))
    for rows, x, y in parts:
        r = H @ x if rows is None else _hop(H, x, rows)
        r -= y * values
        squares += _column_norms(r) ** 2
        del r  # one half's residual block at a time
    return np.sqrt(squares)


def residuals(H, vecs, values):
    """Per-pair ||H v - lambda v||_2 of the columns of vecs, as
    full_spectrum takes them: H is an open chain's bands, applied in O(D)
    work per vector, or a dense matrix."""
    return _residuals(_split(H), vecs, values)


def steady_neighbours(values):
    """Indices of the eigenvalues a steady solve reads besides values[0]
    (sorted, as full_spectrum sorts): the runner-up values[1] and
    values[0]'s nearest neighbour."""
    nearest = 1 + int(np.argmin(np.abs(values[1:] - values[0])))
    return sorted({1, nearest})


def _finite(band):
    if not np.all(np.isfinite(band)):
        raise ValidationError("matrix entries must be finite")
    return band


def _inverse_iterate(H, lam, lu, trans, bound, start):
    """Unit vector x with ||A x|| <= bound, by inverse iteration on
    A = H - lam (trans 'N') or its conjugate transpose (trans 'C'), H an
    open chain's complex bands and lu = (gttrs, factors) from _lu(H, lam).

    The first iterate that passes the gate is kept, because on a
    defective eigenvalue later steps drift off the kernel.
    """
    gttrs, factors = lu
    if trans == "C":
        H = ChainBands(H.lower.conj(), H.upper.conj(), H.corners)
        lam = np.conj(lam)
    x = start
    res = np.inf
    for _ in range(MAX_INVERSE_STEPS):
        with np.errstate(all="ignore"):
            y = gttrs(*factors, x, trans=trans)[0]
            size = np.linalg.norm(y)
            x = y / size
            res = float(np.linalg.norm(H @ x - lam * x))
        if not np.isfinite(size):
            # the solve overflowed: H - lambda has more than one
            # (near-)zero pivot, so lambda is degenerate or defective
            raise ConvergenceError(
                "inverse iteration diverged: eigenvalue is degenerate or "
                "defective (dim %d)" % len(x))
        if res <= bound:
            return x
    raise ConvergenceError(
        "inverse iteration residual %.3e exceeds %.3e (dim %d)"
        % (res, bound, len(x)))


def _complex_bands(H):
    """A chain's bands as complex arrays, checked finite."""
    return ChainBands(*(np.asarray(_finite(b), dtype=complex) for b in H))


def _lu(H, lam):
    """(gttrs, factors, info): LAPACK ?gttrf's LU of H - lam, H an open
    chain's complex bands, with the ?gttrs that solves on it.  factors
    are (dl, d, du, du2, ipiv) as ?gttrs takes them; info > 0 names an
    exactly zero pivot of d, past which ?gttrf completes the
    factorization.  Every chain solve factors here, in O(D) work."""
    diag = np.zeros(len(H.upper) + 1, dtype=complex) - lam
    gttrf, gttrs = scipy.linalg.get_lapack_funcs(("gttrf", "gttrs"), (diag,))
    *factors, info = gttrf(H.lower, diag, H.upper)
    return gttrs, factors, info


def eigenpair(H, lam, left=False):
    """Unit eigenvector(s) of the chain H for a computed eigenvalue lam.

    One factorization of H - lam I drives inverse iteration for the right
    vector r (H r = lam r) and, with left=True, the left vector l
    (l^H H = lam l^H), returned as (r, l).  H is an open chain's
    model.ChainBands with D >= 3 (scipy's ?gttrf wrapper needs three
    rows; every model chain has four or more); a ring's bands raise
    ValidationError.  H - lam is factored by LAPACK ?gttrf and solved by
    ?gttrs, trans 'N' for r and 'C' for l, in O(D) work (_lu), with
    residuals from the bands.  Each vector is
    kept only if its residual is at most DEFAULT_TOL_EIG *
    max(||H||_F, 1), full_spectrum's default gate, so a value lam that is
    not an eigenvalue of H to that accuracy raises ConvergenceError, as
    does a degenerate or defective lam whose solve overflows.  An exactly
    zero pivot (lam an exact eigenvalue) is replaced by
    eps * max(||H||_F, 1).  The start vector is fixed, so the result is
    deterministic.
    """
    return _eigenpair(_complex_bands(_open_chain(H)), lam, left)


def _eigenpair(H, lam, left):
    scale = max(_frobenius(H), 1.0)
    gttrs, factors, _ = _lu(H, lam)
    d = factors[1]
    d[d == 0] = np.finfo(float).eps * scale
    rng = np.random.default_rng(0)
    D = len(H.upper) + 1
    start = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    start /= np.linalg.norm(start)
    bound = DEFAULT_TOL_EIG * scale
    lu = (gttrs, factors)
    r = _inverse_iterate(H, lam, lu, "N", bound, start)
    if not left:
        return r
    return r, _inverse_iterate(H, lam, lu, "C", bound, start)


def certify(H, values):
    """Raise ConvergenceError unless each value is an eigenvalue of the
    open chain H to full_spectrum's residual gate: one inverse-iteration
    vector each, from one factorization of H - lambda each, as in
    eigenpair."""
    H = _complex_bands(_open_chain(H))
    for lam in values:
        _eigenpair(H, lam, left=False)


def _opened(H, k):
    """(chain, order): the open chain H leaves without site k, its sites
    taken in the order k+1, ..., D-1, 0, ..., k-1 (order), so that its
    bond from position D-1 to 0 is a ring's wrap bond (H[D-1, 0] above
    the diagonal, H[0, D-1] below), zero on an open chain."""
    D = len(H.upper) + 1
    order = (k + 1 + np.arange(D - 1)) % D
    # bond i couples i and i+1 mod D, so the opened chain's bonds are
    # those starting at order[:-1]
    upper, lower = (np.append(band, corner)[order[:-1]] for band, corner
                    in zip(H[:2], H.corners))
    return ChainBands(upper, lower, np.zeros(2, dtype=upper.dtype)), order


def bordered_solve(H, lam, r, l, rhs):
    """Columns x of (H - lam) x = b, l^H x = 0 for the columns b of rhs.

    lam is a simple eigenvalue of the chain H (model.ChainBands, open or
    ring) with right and left vectors r and l, and each b satisfies
    l^H b = 0: the bordered system [[H - lam, r], [l^H, 0]] of Nelson's
    method, solved by Nelson's deletion in O(D) work.  The (k, k)
    cofactor of H - lam is proportional to r_k l_k^*, so for
    k = argmax |r_k l_k| the matrix without row and column k has the
    largest determinant of any such deletion, and it is an open chain
    (_opened), a ring's included.  One ?gttrf factorization solves it for
    every b with x_k = 0 (row k of the full system is a combination of
    the others, with weights from l), and the r component is projected
    out so that l^H x = 0.  The reduced chain needs three sites for
    ?gttrf, so D >= 4, as on every model chain.  A singular reduced
    system raises numpy.linalg.LinAlgError.
    """
    chain, order = _opened(_complex_bands(H), int(np.argmax(np.abs(r * l))))
    gttrs, factors, info = _lu(chain, lam)
    if info > 0:
        raise np.linalg.LinAlgError(
            "exactly zero pivot %d in the reduced system" % info)
    x = np.zeros((len(r), rhs.shape[1]), dtype=complex)
    x[order] = gttrs(*factors, rhs[order])[0]
    return x - np.outer(r, l.conj() @ x) / np.vdot(l, r)


def phase_fixed(r, *drs):
    """Steady state from its right vector r, in the steady-state gauge.

    The state is r normalized, with its component of largest magnitude
    real and positive.  Given derivatives of r, also returns each state
    derivative (1 - psi psi^+) dr / ||r|| in the same gauge; the
    component along psi it drops is normalization and phase, invisible to
    every Fisher information.
    """
    k = int(np.argmax(np.abs(r)))
    c = r[k] / abs(r[k]) * np.linalg.norm(r)
    psi = r / c
    psi /= np.linalg.norm(psi)
    if not drs:
        return psi
    ds = [dr / c for dr in drs]
    return (psi,) + tuple(d - psi * np.vdot(psi, d) for d in ds)


def steady_state(dec):
    """Right eigenvector of the eigenvalue with the largest imaginary part,
    gauged by phase_fixed.

    Ties on Im break by largest Re, then lowest index (the sort order of
    the decomposition).
    """
    if dec.dim == 0:
        raise ValidationError("empty decomposition")
    return phase_fixed(dec.right_vectors[:, 0])


@dataclass(frozen=True)
class LocalizationProfile:
    """Cumulative population per site and its per-module log slope.

    P[j] sums |c|^2 over all eigenstates and over the d sublevels of site
    j, so sum(P) equals the number of eigenstates.  slope_per_module is
    the least-squares slope of ln(per-module population) against the
    module index over the bulk (edge modules excluded), and fit_r2 its
    coefficient of determination, 1 on a flat bulk.
    """

    P: np.ndarray
    slope_per_module: float
    fit_r2: float
    module_population: np.ndarray = field(repr=False, default=None)


EDGE_EXCLUSION_FRACTION = 0.1  # per side, for the slope fit


def cumulative_population(dec, p):
    """Site-resolved population accumulated over all OBC eigenstates."""
    if dec.dim != p.D:
        raise ValidationError("decomposition dimension %d does not match D=%d"
                              % (dec.dim, p.D))
    w = np.sum(np.abs(dec.right_vectors) ** 2, axis=1)
    per_site = w.reshape(p.L * p.r, p.d).sum(axis=1)
    per_module = per_site.reshape(p.L, p.r).sum(axis=1)
    n_edge = max(1, int(round(EDGE_EXCLUSION_FRACTION * p.L)))
    bulk = np.arange(n_edge, p.L - n_edge)
    # on a strongly amplified chain the far end holds less than the
    # smallest normal double of the peak; only modules above it are fitted
    bulk = bulk[per_module[bulk] >= np.finfo(float).tiny]
    if len(bulk) < 2:
        raise ValidationError("chain too short for a bulk slope fit")
    x = bulk.astype(float)
    y = np.log(per_module[bulk])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # a population sums D unit-norm states, so it carries about D eps
    # relative rounding: a bulk whose spread is within 8 D eps is flat
    flat = np.ptp(y) <= 8 * p.D * np.finfo(float).eps
    r2 = 1.0 if flat else 1.0 - ss_res / ss_tot
    return LocalizationProfile(P=per_site, slope_per_module=float(slope),
                               fit_r2=r2, module_population=per_module)


def participation_ratio(v):
    """Delocalization scalar 1 / sum |v_j|^4 for a unit-norm vector.

    Equals 1 for a basis state and the dimension for a uniform state.
    """
    v = np.asarray(v)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise ValidationError("participation_ratio expects a unit vector")
    return float(1.0 / np.sum(np.abs(v) ** 4))
