"""Dense non-normal eigenproblems and skin-effect diagnostics.

full_spectrum solves for every eigenvalue, with the right eigenvectors
unless only the values are asked for; eigenpair computes one right
eigenvector (and the left one on request) by inverse iteration from a
computed eigenvalue.  Both hold a vector to the same residual gate.
A result that reads a few eigenpairs pays for one eigenvalue solve and
one LU factorization per pair: the steady state and its derivative
(metrology._steady_derivatives) read the steady eigenvalue's right and
left vectors, the OBC gaps (topology) only eigenvalues; certify holds
every other eigenvalue a result reads to the gate with one
inverse-iteration vector each.  Model spectra are solved in the
skin-balancing frame (metrology.model_spectrum over full_spectrum); a raw
solve of a skin-amplified chain loses eigenvalues to pseudospectral
error that the residual gate does not see.

full_spectrum solves a matrix whose imaginary part is all zero in real
arithmetic (LAPACK dgeev instead of zgeev, about twice as fast); every
preset but FIG5_TOP has a real Hamiltonian.  Values and vectors are
returned complex either way, and the residual gate is the same.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, ValidationError

DEFAULT_TOL_EIG = 1e-9
# inverse iteration stops at the first iterate that passes the gate, after
# at most this many solves, as LAPACK's ?laein does
MAX_INVERSE_STEPS = 3


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


def _order(values, tol_eig):
    """Sort permutation: Im descending at resolution tol_eig*max(|lambda|, 1),
    ties by Re descending."""
    im_res = tol_eig * max(float(np.max(np.abs(values), initial=0.0)), 1.0)
    im_key = np.round(values.imag / im_res)
    return np.lexsort((-values.real, -im_key))


def full_spectrum(H, tol_eig=DEFAULT_TOL_EIG, vectors=True):
    """Diagonalize a dense matrix with a residual guarantee.

    A matrix with an all-zero imaginary part is passed to LAPACK as real
    (dgeev, not zgeev).  Values and vectors come back complex either
    way, and the residuals are taken against the matrix as given.

    Eigenpairs are sorted by decreasing imaginary part, ties broken by
    decreasing real part, so the ordering (and therefore steady-state
    selection) is deterministic for identical input.  Imaginary parts are
    compared at resolution tol_eig * max(|lambda|, 1): a real spectrum
    carries O(1e-16) imaginary noise that would otherwise scramble the
    primary key and make the tie-break unreachable.

    vectors=False returns only the sorted eigenvalues (an ndarray): the
    solve skips the eigenvectors and so has no residual to check; a
    caller certifies the eigenvalues it reads with eigenpair.

    Raises
    ------
    ConvergenceError
        If LAPACK fails or any residual exceeds tol_eig * max(||H||_F, 1).
    """
    H = _checked(H)
    A = H if np.any(H.imag) else H.real
    try:
        if not vectors:
            values = scipy.linalg.eigvals(A)
            return values[_order(values, tol_eig)]
        values, vecs = scipy.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError("eigensolver failed: %s" % exc)
    order = _order(values, tol_eig)
    values = values[order]
    # dgeev returns real vectors when every eigenvalue is real
    vecs = vecs[:, order].astype(complex, copy=False)
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    residuals = np.linalg.norm(H @ vecs - vecs * values[None, :], axis=0)
    bound = tol_eig * max(float(np.linalg.norm(H, "fro")), 1.0)
    if np.any(residuals > bound):
        raise ConvergenceError(
            "eigensolver residual %.3e exceeds %.3e (dim %d)"
            % (residuals.max(), bound, H.shape[0]))
    return SpectralDecomposition(values=values, right_vectors=vecs,
                                 residuals=residuals)


def _inverse_iterate(solve, residual, bound, start):
    """Unit vector x with residual(x) <= bound, by inverse iteration.

    solve applies the inverse of the shifted matrix; the first iterate
    that passes the gate is kept, because on a defective eigenvalue later
    steps drift off the kernel.
    """
    x = start
    res = np.inf
    for _ in range(MAX_INVERSE_STEPS):
        with np.errstate(all="ignore"):
            y = solve(x)
            x = y / np.linalg.norm(y)
            res = float(np.linalg.norm(residual(x)))
        if res <= bound:
            return x
    raise ConvergenceError(
        "inverse iteration residual %.3e exceeds %.3e (dim %d)"
        % (res, bound, len(x)))


def eigenpair(H, lam, left=False):
    """Unit eigenvector(s) of H for a computed eigenvalue lam.

    One LU factorization of H - lam I drives inverse iteration for the
    right vector r (H r = lam r) and, with left=True, the left vector l
    (l^H H = lam l^H), returned as (r, l).  Each vector is kept only if
    its residual is at most DEFAULT_TOL_EIG * max(||H||_F, 1),
    full_spectrum's default gate, so a value lam that is not an
    eigenvalue of H to that accuracy raises ConvergenceError.  An exactly
    zero pivot (lam an exact eigenvalue) is replaced by
    eps * max(||H||_F, 1).  The start vector is fixed, so the result is
    deterministic.
    """
    H = _checked(H)
    D = H.shape[0]
    scale = max(float(np.linalg.norm(H, "fro")), 1.0)
    diag = np.arange(D)
    A = H.copy()
    A[diag, diag] -= lam
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (A,))
    # getrf reports an exactly zero pivot through info > 0 (lu_factor
    # turns that into a warning) and still completes the factorization
    lu, piv, _ = getrf(A, overwrite_a=True)
    zero = diag[lu[diag, diag] == 0]
    lu[zero, zero] = np.finfo(float).eps * scale
    rng = np.random.default_rng(0)
    start = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    start /= np.linalg.norm(start)
    bound = DEFAULT_TOL_EIG * scale

    def solver(trans):
        return lambda b: getrs(lu, piv, b, trans=trans)[0]

    r = _inverse_iterate(solver(0), lambda x: H @ x - lam * x, bound, start)
    if not left:
        return r
    l = _inverse_iterate(solver(2),
                         lambda x: x.conj() @ H - lam * x.conj(), bound, start)
    return r, l


def certify(H, values):
    """Raise ConvergenceError unless each value is an eigenvalue of H to
    full_spectrum's residual gate (one inverse-iteration vector each)."""
    for lam in values:
        eigenpair(H, lam)


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
    module index over the bulk (edge modules excluded).
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
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
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
