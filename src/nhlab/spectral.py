"""Dense non-normal eigenproblems and skin-effect diagnostics.

Decompositions carry right eigenvectors only; every formula implemented
downstream (steady-state selection, populations, Fisher information) is
expressed in terms of right eigenpairs of the dense matrix.  Model
spectra are solved in the skin-balancing frame (metrology.model_spectrum
over full_spectrum); a raw solve of a skin-amplified chain loses
eigenvalues to pseudospectral error that the residual gate does not see.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, ValidationError

DEFAULT_TOL_EIG = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues and unit-norm right eigenvectors of a complex matrix.

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


def full_spectrum(H, tol_eig=DEFAULT_TOL_EIG):
    """Diagonalize a dense complex matrix with a residual guarantee.

    Eigenpairs are sorted by decreasing imaginary part, ties broken by
    decreasing real part, so the ordering (and therefore steady-state
    selection) is deterministic for identical input.  Imaginary parts are
    compared at resolution tol_eig * max(|lambda|, 1): a real spectrum
    carries O(1e-16) imaginary noise that would otherwise scramble the
    primary key and make the tie-break unreachable.

    Raises
    ------
    ConvergenceError
        If LAPACK fails or any residual exceeds tol_eig * ||H||_F.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValidationError("matrix must be square")
    if not np.all(np.isfinite(H)):
        raise ValidationError("matrix entries must be finite")
    try:
        values, vectors = scipy.linalg.eig(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError("eigensolver failed: %s" % exc)
    im_res = tol_eig * max(float(np.max(np.abs(values), initial=0.0)), 1.0)
    im_key = np.round(values.imag / im_res)
    order = np.lexsort((-values.real, -im_key))
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    residuals = np.linalg.norm(H @ vectors - vectors * values[None, :], axis=0)
    scale = np.linalg.norm(H, "fro")
    bound = tol_eig * max(scale, 1.0)
    if np.any(residuals > bound):
        raise ConvergenceError(
            "eigensolver residual %.3e exceeds %.3e (dim %d)"
            % (residuals.max(), bound, H.shape[0]))
    return SpectralDecomposition(values=values, right_vectors=vectors,
                                 residuals=residuals)


def steady_state(dec):
    """Right eigenvector of the eigenvalue with the largest imaginary part.

    Ties on Im break by largest Re, then lowest index (the sort order of
    the decomposition).  The global phase is fixed so the component of
    largest magnitude is real and positive.
    """
    if dec.dim == 0:
        raise ValidationError("empty decomposition")
    v = dec.right_vectors[:, 0].copy()
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    v = v / phase
    # roundoff can leave a tiny imaginary remnant on the pivot
    return v / np.linalg.norm(v)


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
