"""Generalized-Brillouin-zone quantities.

For nearest-module coupling the bulk characteristic polynomial of the
m-site module (m = r*d) is det(E - H_beta) = Delta(E) - a*beta - c/beta,
with a = J0^{r(d-1)} JL^{r-1} Jm and c = J0^{r(d-1)} JR^{r-1} JmP the
products of the bonds around the ring one way and the other, and Delta
a monic polynomial of degree m in E alone (bulk_polynomial).  At fixed E
it is a quadratic in beta whose two roots share the product c/a, so the
GBZ is the circle of radius sqrt(|c/a|); the point gap closes when that
radius is one.  At fixed beta it is a polynomial in E, so a contour's
spectra are the roots of Delta(E) = a*beta + c/beta, solved in closed
form for m <= 4 (contour_eigenvalues).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularModelError, ValidationError
from .model import OBC, _bond_table, build_generalized_bloch
from .spectral import FALL_BACKS

DEFAULT_CONTOUR_POINTS = 2048
MIN_CONTOUR_RADIUS = 1e-8
# a contour sample's closed-form roots are kept when the monic polynomial
# rebuilt from them matches Delta(E) - w coefficientwise within this
# fraction of the sum of its coefficients' moduli
CONTOUR_GATE = 1e-12


@dataclass(frozen=True)
class GbzContour:
    """Discretized circle of generalized Bloch factors.

    points[j] = radius * exp(i phi_j) with phi_j uniform on [0, 2 pi),
    ordered by increasing phi.
    """

    radius: float
    n_points: int = DEFAULT_CONTOUR_POINTS
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.radius > 0:
            raise ValidationError("contour radius must be positive")
        if self.n_points < 64:
            raise ValidationError("contour needs at least 64 points")
        phi = np.linspace(0.0, 2.0 * np.pi, self.n_points, endpoint=False)
        object.__setattr__(self, "points", self.radius * np.exp(1j * phi))


def beta_quadratic_coeffs(p):
    """Leading and constant coefficients (a, c) of the bulk beta-quadratic.

    a = J0^{r(d-1)} * JL^{r-1} * Jm and c = J0^{r(d-1)} * JR^{r-1} * JmP.
    Only the ratio c/a enters downstream quantities; it equals the product
    of the two beta roots at every energy.
    """
    j0pow = complex(p.J0) ** (p.r * (p.d - 1))
    a = j0pow * p.JL ** (p.r - 1) * p.Jm
    c = j0pow * p.JR ** (p.r - 1) * p.JmP
    return a, c


def bulk_determinant(p, E, beta):
    """det(H_beta - E * Id) at a scalar or an array of beta, evaluated
    numerically: an oracle for beta_polynomial and bulk_polynomial."""
    H = build_generalized_bloch(p, beta)
    return np.linalg.det(H - complex(E) * np.eye(H.shape[-1]))


def _continuant(bonds):
    """det(E - T), highest power first, for the zero-diagonal chain T of
    len(bonds) + 1 sites whose i-th bond has upper*lower product bonds[i]."""
    prev, cur = np.ones(1, dtype=complex), np.array([1, 0], dtype=complex)
    for b in bonds:
        prev, cur = cur, np.append(cur, 0) - b * np.concatenate([[0, 0], prev])
    return cur


def bulk_polynomial(p):
    """Coefficients of Delta(E), highest power first (m + 1 of them, the
    first 1): det(E - H_beta) = Delta(E) - a*beta - c/beta for every beta,
    with (a, c) = beta_quadratic_coeffs(p).

    Delta is the continuant of the open module (model._bond_table) minus
    Jm*JmP times that of its interior sites 1 ... m-2.  Every bond links
    neighbouring sites, so only powers E^(m-2j) appear.
    """
    upper, lower, Jm, JmP = _bond_table(p, p.J0, p.JL, p.JR, p.Jm, p.JmP)
    bonds = upper * lower
    inner = _continuant(bonds[1:-1]) if len(bonds) > 1 else np.ones(1)
    return _continuant(bonds) - Jm * JmP * np.append([0, 0], inner)


def beta_polynomial(p, E):
    """Coefficients (c2, c1, c0) of beta * det(H_beta - E) as a quadratic:
    (-1)^m (-a, Delta(E), -c), from bulk_polynomial and
    beta_quadratic_coeffs."""
    delta = bulk_polynomial(p)
    a, c = beta_quadratic_coeffs(p)
    sign = -1.0 if len(delta) % 2 == 0 else 1.0  # (-1)^m, m = len(delta) - 1
    return (-sign * a, sign * np.polyval(delta, complex(E)), -sign * c)


def _over(num, den):
    """num / den elementwise, and 0 where den is 0."""
    return np.where(den == 0, 0.0, num / np.where(den == 0, 1.0, den))


def _stable_quadratic(b, c):
    """Both roots of x^2 + b x + c, the larger one without cancellation
    and the other as c over it."""
    sq = np.sqrt(b * b - 4.0 * c)
    big = np.where(np.abs(b + sq) >= np.abs(b - sq), -0.5 * (b + sq), -0.5 * (b - sq))
    return big, _over(c, big)


def _depressed_cubic(p, q):
    """The three roots of x^3 + p x + q (arrays of equal shape).

    Cardano's formula gives the root t of largest modulus, which is simple
    unless all three vanish (the roots sum to zero); two Newton steps
    polish it, each kept only where it lowers |t^3 + p t + q|, and the
    other two are the stable roots of the deflated x^2 + t x - q/t.
    """
    half = 0.5 * q
    s = np.sqrt(half * half + (p / 3.0) ** 3)
    u3 = np.where(np.abs(-half + s) >= np.abs(-half - s), -half + s, -half - s)
    u = np.power(u3, 1.0 / 3.0)[..., None] * np.exp(2j * np.pi / 3.0) ** np.arange(3)
    cands = u - _over(p[..., None], 3.0 * u)
    t = np.take_along_axis(cands, np.abs(cands).argmax(axis=-1)[..., None],
                           axis=-1)[..., 0]
    for _ in range(2):
        f = t ** 3 + p * t + q
        step = t - _over(f, 3.0 * t * t + p)
        t = np.where(np.abs(step ** 3 + p * step + q) < np.abs(f), step, t)
    x1, x2 = _stable_quadratic(t, _over(-q, t))
    return np.stack([t, x1, x2], axis=-1)


def _closed_form_roots(target):
    """Roots of each row of target, monic polynomials of degree m in (2,
    3, 4) with only the powers of Delta: +-sqrt for m = 2,
    _depressed_cubic for m = 3, and for m = 4 (even) the stable quadratic
    in E^2, then +-sqrt."""
    m = target.shape[1] - 1
    if m == 2:
        e = np.sqrt(-target[:, 2])
        return np.stack([e, -e], axis=-1)
    if m == 3:
        return _depressed_cubic(target[:, 2], target[:, 3])
    e1, e2 = np.sqrt(_stable_quadratic(target[:, 2], target[:, 4]))
    return np.stack([e1, -e1, e2, -e2], axis=-1)


def contour_eigenvalues(p, beta):
    """Eigenvalues of build_generalized_bloch(p, beta), values only, without
    building the matrices for m = r*d <= 4.

    Each beta's eigenvalues are the m roots of Delta(E) - w with w = a*beta
    + c/beta (bulk_polynomial, beta_quadratic_coeffs), solved in closed
    form.  At m = 2 each entry of h_beta adds a corner to a bond, and the
    constant Delta(0) - w = det(h_beta) is taken as minus the product of
    the two entries, which keeps a small E accurate where the four terms of
    the sum cancel.  A sample is kept when the monic polynomial rebuilt from its
    roots matches Delta(E) - w coefficientwise within CONTOUR_GATE times
    the sum of that polynomial's coefficient moduli; a sample that fails is
    solved by np.linalg.eigvals of its matrix and counted in
    FALL_BACKS["contour"].  m >= 5 takes np.linalg.eigvals of the whole
    stack.  The order within a sample is not LAPACK's.

    Returns
    -------
    ndarray of shape beta.shape + (m,), complex
    """
    beta = np.asarray(beta, dtype=complex)
    if np.any(beta == 0):
        raise ValidationError("beta must be nonzero")
    delta = bulk_polynomial(p)
    m = len(delta) - 1
    if m > 4:
        return np.linalg.eigvals(build_generalized_bloch(p, beta))
    b = beta.ravel()
    target = np.tile(delta, (len(b), 1))
    if m == 2:
        upper, lower, Jm, JmP = _bond_table(p, p.J0, p.JL, p.JR, p.Jm, p.JmP)
        target[:, 2] = -(upper[0] + JmP / b) * (lower[0] + Jm * b)
    else:
        a, c = beta_quadratic_coeffs(p)
        target[:, -1] -= a * b + c / b
    roots = _closed_form_roots(target)
    rebuilt = np.ones((len(b), 1), dtype=complex)
    zero = np.zeros((len(b), 1))
    for k in range(m):
        rebuilt = (np.append(rebuilt, zero, axis=1)
                   - roots[:, k:k + 1] * np.append(zero, rebuilt, axis=1))
    err = np.abs(rebuilt - target).max(axis=1)
    failed = ~(err <= CONTOUR_GATE * np.abs(target).sum(axis=1))
    if failed.any():
        FALL_BACKS["contour"] += int(failed.sum())
        roots[failed] = np.linalg.eigvals(build_generalized_bloch(p, b[failed]))
    return roots.reshape(beta.shape + (m,))


def beta_roots(p, E):
    """The two roots of the bulk beta-quadratic at energy E.

    Ordered by |beta1| <= |beta2|; their product equals c/a.

    Raises
    ------
    SingularModelError
        If the leading coefficient (proportional to a) vanishes.
    """
    c2, c1, c0 = beta_polynomial(p, E)
    scale = max(abs(c2), abs(c1), abs(c0), 1e-300)
    if abs(c2) <= 1e-12 * scale:
        raise SingularModelError("beta-quadratic leading coefficient vanishes")
    roots = np.roots([c2, c1, c0])
    roots = sorted(roots, key=abs)
    return complex(roots[0]), complex(roots[1])


def gbz_radius(p):
    """Common modulus of the beta roots: sqrt(|JR^{r-1} JmP / (JL^{r-1} Jm)|).

    Raises
    ------
    SingularModelError
        If JL (for r >= 2) or Jm vanishes.
    """
    if p.Jm == 0 or (p.r > 1 and p.JL == 0):
        raise SingularModelError("gbz radius undefined: JL^{r-1} Jm = 0")
    num = abs(p.JR) ** (p.r - 1) * abs(p.JmP)
    den = abs(p.JL) ** (p.r - 1) * abs(p.Jm)
    return float(np.sqrt(num / den))


def point_gap_residual(p):
    """| |JR^{r-1} JmP / (JL^{r-1} Jm)| - 1 |; zero exactly at closure."""
    rho = gbz_radius(p)
    return abs(rho * rho - 1.0)


def contour_radius(p):
    """GBZ radius clamped away from zero: max(gbz_radius, MIN_CONTOUR_RADIUS).

    Degenerate couplings (JR = 0 or JmP = 0) collapse the analytic radius
    to zero; the clamp keeps the circle usable for windings, where any
    positive radius encircles the origin the same way.
    """
    return max(gbz_radius(p), MIN_CONTOUR_RADIUS)


def gbz_contour(p, n_points=DEFAULT_CONTOUR_POINTS):
    """GBZ circle for the model, of radius contour_radius(p)."""
    return GbzContour(radius=contour_radius(p), n_points=n_points)


def balancing_radius(p):
    """The rho of p's skin-balancing frame (skin_frame), in O(1) work:
    the GBZ radius, or 1.0 where no balancing is needed or possible (PBC
    rings, whose periodicity the gauge would break, and couplings without
    a finite positive radius)."""
    if p.boundary != OBC:
        return 1.0
    try:
        rho = gbz_radius(p)
    except (SingularModelError, ValidationError):
        return 1.0
    return rho if np.isfinite(rho) and rho > 0 else 1.0


def skin_frame(p):
    """Logarithm of the per-component gauge that balances the skin
    accumulation, or None.

    Conjugating the OBC Hamiltonian by diag(rho^n), with n the module
    index and rho = balancing_radius(p), rescales every inter-module bond
    so the left/right hopping product becomes unimodular.  The similarity
    is exact, so eigenvalues and (back-transformed) eigenvectors are
    unchanged; what changes is conditioning, which stops growing
    exponentially with L.  The frame is returned as ln s = n ln(rho),
    since rho^n itself overflows on long or strongly nonreciprocal
    chains.  Returns None where rho is 1.
    """
    rho = balancing_radius(p)
    if rho == 1.0:
        return None
    n = np.repeat(np.arange(p.L, dtype=float) - 0.5 * (p.L - 1), p.r * p.d)
    return n * np.log(rho)
