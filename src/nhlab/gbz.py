"""Generalized-Brillouin-zone quantities.

For nearest-module coupling the bulk characteristic equation
det(H_beta - E) = 0 multiplied by beta is a quadratic a*beta^2 + b*beta + c
with a = J0^{r(d-1)} JL^{r-1} Jm and c = J0^{r(d-1)} JR^{r-1} JmP.  The two
roots at any energy share the product c/a, so the GBZ is the circle of
radius sqrt(|c/a|); the point gap closes when that radius is one.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularModelError, ValidationError
from .model import OBC, build_generalized_bloch

DEFAULT_CONTOUR_POINTS = 2048
MIN_CONTOUR_RADIUS = 1e-8


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
    """det(H_beta - E * Id) at a scalar or an array of beta, evaluated numerically."""
    H = build_generalized_bloch(p, beta)
    return np.linalg.det(H - complex(E) * np.eye(H.shape[-1]))


_INTERP_BETAS = (1.0 + 0j, -1.0 + 0j, 2.0 + 0j)


def beta_polynomial(p, E):
    """Coefficients (c2, c1, c0) of beta * det(H_beta - E) as a quadratic.

    Recovered by exact interpolation through three sample beta values,
    avoiding any symbolic expansion of the bulk determinant.
    """
    xs = np.array(_INTERP_BETAS)
    ys = xs * bulk_determinant(p, E, xs)
    # Vandermonde solve is exact for a degree-2 polynomial
    V = np.vander(xs, 3)
    return tuple(np.linalg.solve(V, ys))


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
