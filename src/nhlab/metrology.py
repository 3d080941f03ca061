"""Fisher-information machinery for steady-state parameter estimation.

The probe is the steady state of the lattice Hamiltonian (right
eigenvector with the largest imaginary eigenvalue).  Each point costs
one eigenvalue solve in the skin-balancing frame, which is the model
itself with module bonds (Jm rho, JmP / rho), on one sublattice
(spectral.full_spectrum without vectors, a (D/2)-square solve, as for
the OBC gaps), plus inverse iteration for the steady eigenvalue's right
and left vectors
(spectral.eigenpair; spectral.certify holds the eigenvalues the guards
read to the same gate).  Parameter derivatives are analytic: H' = dH/dtheta
is the exact derivative of the chain's bonds (_tangent), the steady
eigenvalue moves by l^+ H' r / l^+ r, and a bordered linear system gives
the right vector's derivative (Nelson's method, spectral.bordered_solve),
one right-hand side per parameter, so state_derivatives gives the state
and every derivative of a point from one solve.  The last steady solve
is kept in one slot keyed by the point, so probe_state and the
per-parameter state_derivative calls at one point share it as well.

The point runs on the chain's bands (model.bond_bands): H, H' and their
norms are bands, and every factorization is a tridiagonal ?gttrf, so a
point costs one (D/2)-square ?geev plus O(D) work and builds no D x D
matrix.  A PBC ring is block-circulant: its eigenpairs are its Bloch
blocks' at k = 2 pi j / L (model.build_bloch) as plane waves, so
model_spectrum and the Fisher point solve it by those (r d)-square
sectors.  The built-in measurement bases
(position_basis, current_basis) are amplitude maps, the identity or one
fast transform, so a classical Fisher information builds none either.

family_state_derivative, one gauge-aligned central difference of the
steady state at a fixed step, is kept as an independent oracle.  Quantum
and classical Fisher informations (scalar and matrix) follow from the
derivatives.  All bounds are per measurement shot.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (BoundUndefinedError, ConvergenceError,
                     DegenerateSteadyStateError, DerivativeIllDefinedError,
                     NumericalError, ValidationError)
from .gbz import balancing_radius, skin_frame
from .model import (NON_MODULAR, PBC, RECIPROCAL_MODULAR, SHIFTED, bond_bands,
                    build_bloch, chain_bands)
from .spectral import (DEFAULT_TOL_EIG, SpectralDecomposition, _order,
                       bordered_solve, certify, eigenpair, full_spectrum,
                       phase_fixed, residuals, sort_resolution,
                       steady_neighbours, steady_state)

QUANTUM = "QUANTUM"
CLASSICAL = "CLASSICAL"

PARAM_LABELS = ("JR_re", "JR_im", "JR", "Jm", "JmP", "J")

DEFAULT_STEP = 1e-5
PROB_FLOOR = 1e-14
# the analytic derivative is the step -> 0 limit, so its steady eigenvalue
# must stay isolated over the spectral motion across this fraction of the
# parameter's step, not only across the step itself
ISOLATION_SCALE = 0.5 ** 11
# a steady eigenvalue whose rounding uncertainty eps ||H|| / |l^+ r| reaches
# this fraction of its distance to the nearest other eigenvalue is not
# resolved; rounding-split defective eigenvalues sit at 0.1 to 1e17, the
# presets' steady eigenvalues below 1e-9
UNRESOLVED_FRACTION = 1e-6


@dataclass(frozen=True)
class ParamSpec:
    """Ordered set of estimated parameters with base values and steps.

    labels come from PARAM_LABELS; values give the base point theta.
    dH/dtheta is exact (_tangent), so steps sets only the scale of the
    isolation guard (ISOLATION_SCALE times the step); the
    finite-difference oracle, family_state_derivative, takes its own step.
    """

    labels: tuple
    values: tuple
    steps: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        values = tuple(float(v) for v in self.values)
        steps = tuple(float(s) for s in self.steps)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "steps", steps)
        if not 1 <= len(labels) <= 3:
            raise ValidationError("between 1 and 3 parameters are supported")
        if len(set(labels)) != len(labels):
            raise ValidationError("parameter labels must be distinct")
        for lab in labels:
            if lab not in PARAM_LABELS:
                raise ValidationError("unknown parameter label %r" % (lab,))
        if "JR" in labels and ("JR_re" in labels or "JR_im" in labels):
            raise ValidationError("JR cannot be combined with JR_re/JR_im")
        if len(values) != len(labels) or len(steps) != len(labels):
            raise ValidationError("labels, values and steps must have equal length")
        if any(s <= 0 or not np.isfinite(s) for s in steps):
            raise ValidationError("steps must be positive and finite")
        if any(not np.isfinite(v) for v in values):
            raise ValidationError("values must be finite")

    @property
    def l(self):
        return len(self.labels)


@dataclass(frozen=True)
class FisherMatrix:
    entries: np.ndarray
    kind: str
    basis_label: str = ""
    param_spec: ParamSpec = None

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        if self.kind not in (QUANTUM, CLASSICAL):
            raise ValidationError("kind must be QUANTUM or CLASSICAL")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("entries must be a square matrix")
        scale = max(float(np.max(np.abs(m))), 1.0)
        if np.max(np.abs(m - m.T)) > 1e-9 * scale:
            raise NumericalError("Fisher matrix is not symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (m + m.T))) < -1e-9 * scale:
            raise NumericalError("Fisher matrix is not positive semidefinite")


@dataclass(frozen=True)
class Povm:
    """Orthonormal projective measurement, stored as basis columns: the
    form for a basis a caller supplies (the built-in ones are BasisMaps)."""

    projectors: np.ndarray
    label: str = ""

    def __post_init__(self):
        U = np.asarray(self.projectors, dtype=complex)
        object.__setattr__(self, "projectors", U)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValidationError("projectors must form a square basis matrix")
        G = U.conj().T @ U
        eye = np.eye(U.shape[0])
        if np.max(np.abs(G - eye)) > 1e-10:
            raise ValidationError("basis vectors are not orthonormal")
        if np.max(np.abs(U @ U.conj().T - eye)) > 1e-9:
            raise ValidationError("basis does not resolve the identity")

    def amplitudes(self, v):
        """U^+ v: the amplitudes of v on the basis vectors."""
        return self.projectors.conj().T @ np.asarray(v, dtype=complex)


@dataclass(frozen=True)
class BasisMap:
    """Orthonormal projective measurement given by its amplitude map
    v -> U^+ v (U the basis columns) instead of U.

    The built-in bases are the identity or one fast transform, so a
    measurement costs O(D log D) at most and builds no D x D array.
    """

    dim: int
    transform: Callable
    label: str = ""

    def amplitudes(self, v):
        """U^+ v: the amplitudes of v on the basis vectors."""
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.dim,):
            raise ValidationError("a %d-state basis cannot measure a vector "
                                  "of shape %s" % (self.dim, v.shape))
        return self.transform(v)


def apply_params(p, ps, shift=None):
    """Model parameters at the point ps.values + shift.

    JR_re/JR_im move one part of a complex JR while keeping the other;
    JR, Jm, JmP set the coupling directly; J moves the preset shift.
    Preset-derived couplings are re-materialized by the update.
    """
    if shift is None:
        shift = np.zeros(ps.l)
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (ps.l,):
        raise ValidationError("shift must have one entry per parameter")
    theta = np.asarray(ps.values) + shift
    updates = {}
    jr_re = jr_im = None
    for lab, val in zip(ps.labels, theta):
        if lab == "JR_re":
            jr_re = val
        elif lab == "JR_im":
            jr_im = val
        else:
            updates[lab] = val
    if jr_re is not None or jr_im is not None:
        base = complex(p.JR)
        updates["JR"] = complex(jr_re if jr_re is not None else base.real,
                                jr_im if jr_im is not None else base.imag)
    return p.with_updates(**updates)


def _skin_balanced(q):
    """Hamiltonian of model q in its skin-balancing frame, as its bands
    (model.bond_bands): (H, rho, frame).

    Conjugating the chain by S = diag(rho^n), n the module index and rho
    the GBZ radius, leaves every bond inside a module alone and rescales
    the module bonds (Jm, JmP) to (Jm rho, JmP / rho), so S^-1 H S is the
    chain with those couplings.  frame is skin_frame's ln s; on PBC rings
    and unbalanced chains it is None, rho is 1 and H is the raw
    Hamiltonian, bit for bit.  The bands come before the frame, so the
    dimension cap (model.bond_bands) fires before any D-sized array.
    """
    rho = balancing_radius(q)
    H = bond_bands(q, q.J0, q.JL, q.JR, q.Jm * rho, q.JmP / rho)
    return H, rho, skin_frame(q)


def _sectors(p, j):
    """The Bloch blocks of p's ring in its sectors j, at k = 2 pi j / L
    (model.build_bloch)."""
    return build_bloch(p, 2.0 * np.pi * np.asarray(j) / p.L)


def _plane_waves(p, j):
    """exp(i k n) / sqrt(L) over the module index n for the ring sectors
    j, one column each, with exact phases."""
    n = np.arange(p.L)
    return np.exp(2j * np.pi * (np.outer(n, j) % p.L) / p.L) / np.sqrt(p.L)


def _ring_values(p):
    """(values, sector): the sorted eigenvalues of p's PBC ring, its L
    Bloch blocks' from one batched ?geev, and the sector j of each."""
    values = np.linalg.eigvals(_sectors(p, np.arange(p.L))).ravel()
    order = _order(values)
    return values[order], order // (p.r * p.d)


def _ring_spectrum(p):
    """model_spectrum of a PBC ring from its L Bloch sectors: the pair
    (lambda, u) of the block at k gives (lambda, exp(i k n) u / sqrt(L)),
    whose residual is the block's ||H_k u - lambda u||, held to
    full_spectrum's gate with ||H||_F of the ring's bands (built first,
    so the dimension cap fires before any sector is solved)."""
    norm = float(np.linalg.norm(chain_bands(p).entries))
    bound = DEFAULT_TOL_EIG * max(norm, 1.0)
    blocks = _sectors(p, np.arange(p.L))
    w, U = np.linalg.eig(blocks)
    res = np.linalg.norm(blocks @ U - U * w[:, None, :], axis=1).ravel()
    if np.any(res > bound):
        raise ConvergenceError("eigensolver residual %.3e exceeds %.3e (dim %d)"
                               % (res.max(), bound, p.D))
    order = _order(w.ravel())
    j, b = np.divmod(order, p.r * p.d)
    vecs = (_plane_waves(p, j)[:, None] * U[j, :, b].T).reshape(p.D, p.D)
    return SpectralDecomposition(values=w.ravel()[order], right_vectors=vecs,
                                 residuals=res[order])


def model_spectrum(p):
    """Spectrum of the model's Hamiltonian, solved in its skin-balancing
    frame (the one spectral path every consumer of a model shares).

    The frame is ln s for a positive vector s; the solver sees S^-1 H S
    (S = diag(s), see _skin_balanced), which tames the exponential
    ill-conditioning skin modes inflict on the raw matrix; full_spectrum
    solves it on one sublattice, refining an eigenvalue that lies too
    near zero for the squared solve on the bidiagonal factors.
    The right vectors are mapped back through their logarithm, in place,
    shifted so each column peaks at 1, so no component overflows however
    large s grows.  The mapping is an exact similarity, so this changes
    rounding behavior only; the residuals are taken against the raw
    Hamiltonian's bands (spectral.residuals).  A PBC ring is solved by
    its Bloch sectors (_ring_spectrum).
    """
    if p.boundary == PBC:
        return _ring_spectrum(p)
    Hb, _, ln_s = _skin_balanced(p)
    dec = full_spectrum(Hb)
    if ln_s is None:
        return dec
    values, vecs = dec.values, dec.right_vectors
    del dec
    # ln v = ln|v| + i arg v, mapped back in place; components far below
    # their column's peak underflow to zero, as they must
    with np.errstate(divide="ignore", under="ignore"):
        np.log(vecs, out=vecs)
        vecs += ln_s[:, None]
        vecs -= vecs.real.max(axis=0)
        np.exp(vecs, out=vecs)
        vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)
        res = residuals(chain_bands(p), vecs, values)
    return SpectralDecomposition(values=values, right_vectors=vecs,
                                 residuals=res)


def model_eigenvalues(p):
    """Eigenvalues of an open chain in its skin-balancing frame, no
    vectors.

    Returns (H, values): the balanced Hamiltonian's bands and its
    eigenvalues, sorted at DEFAULT_TOL_EIG's resolution, from
    full_spectrum's values-only solve (on one sublattice, a value too
    close to zero for the squared solve refined on the bidiagonal
    factors).  Nothing here checks a residual; certify each eigenvalue a
    result reads with spectral.certify(H, values).  A PBC model raises
    ValidationError: a ring's spectrum is its Bloch sectors'
    (model_spectrum).
    """
    if p.boundary == PBC:
        raise ValidationError("model_eigenvalues requires OBC; a ring is "
                              "solved by model_spectrum")
    H = _skin_balanced(p)[0]
    return H, full_spectrum(H, vectors=False)


def _unbalance(frame, r, *more):
    """Balanced-frame vectors mapped back through S.

    Every vector gets the scale that brings r's largest component to
    modulus 1, as in model_spectrum; the mapping runs through the
    logarithm, so no component overflows however large s grows.
    """
    vecs = (r,) + more
    if frame is None:
        return vecs
    with np.errstate(divide="ignore", under="ignore"):
        logs = [np.log(v) + frame for v in vecs]
        shift = logs[0].real.max()
        return tuple(np.exp(lv - shift) for lv in logs)


def _shifted(p, ps, i, delta):
    """Model parameters at ps's point with parameter i moved by delta."""
    if not 0 <= i < ps.l:
        raise ValidationError("parameter index out of range")
    shift = np.zeros(ps.l)
    shift[i] = delta
    return apply_params(p, ps, shift)


def _check_nondegenerate(lam):
    scale = max(float(np.max(np.abs(lam))), 1.0)
    if abs(lam[0] - lam[1]) <= 1e-12 * scale:
        raise DegenerateSteadyStateError("steady-state eigenvalue is degenerate")


def _check_isolated(lam, motion, step):
    """Raise unless the steady eigenvalue lam[0] outruns a spectral motion.

    The max-Im selection cannot flip within a parameter offset of step
    if the next eigenvalue trails by more than the motion of the
    spectrum over it.  Two imaginary parts in the same bucket of the
    sort's resolution (mirror pairs of real Hamiltonians sit there) are
    a tie that the real part resolves, exactly as the steady-state
    ordering does; in neighbouring buckets rounding picks the state.
    """
    im_gap = lam[0].imag - lam[1].imag
    if im_gap > motion:
        return
    im_res = sort_resolution(lam)
    tie = np.round(lam[0].imag / im_res) == np.round(lam[1].imag / im_res)
    if tie and abs(lam[0] - lam[1]) > motion:
        return
    raise DerivativeIllDefinedError(
        "steady eigenvalue not isolated at step %.3e" % step)


def _check_resolved(norm, lam, r, l):
    """Raise unless the steady eigenvalue lam[0] of a matrix of Frobenius
    norm norm is resolved by the solve (r and l its right and left
    vectors).

    A defective eigenvalue comes out of the solver as a cluster split by
    rounding, with nearly parallel left and right vectors; its state has
    no derivative, yet the bordered solve would return one.
    """
    dist = float(np.min(np.abs(lam[1:] - lam[0])))
    uncertainty = np.finfo(float).eps * norm
    overlap = abs(np.vdot(l, r))
    if not uncertainty < UNRESOLVED_FRACTION * dist * overlap:
        raise DerivativeIllDefinedError(
            "steady eigenvalue not resolved: |l^+ r| = %.3e, distance %.3e "
            "to the nearest eigenvalue" % (overlap, dist))


def family_state_derivative(p, ps, i, step):
    """Central difference of the probe state along parameter i at step.

    The oracle for state_derivative.  Each stencil point is solved on its
    own (model_spectrum, then steady_state), independently of the
    analytic path's inverse iteration, and phase-aligned to the base
    state, so the eigensolver's arbitrary phase and the gauge cancel.  A
    degenerate steady eigenvalue raises DegenerateSteadyStateError; one
    not isolated against the spectral motion over step and a change of
    the steady-state branch inside the stencil (a small overlap with the
    base state) raise DerivativeIllDefinedError, with the step named.
    """
    dec0 = model_spectrum(_shifted(p, ps, i, 0.0))
    psi0 = steady_state(dec0)
    _check_nondegenerate(dec0.values)
    plus, minus = _shifted(p, ps, i, step), _shifted(p, ps, i, -step)
    motion = 10.0 * float(np.linalg.norm(
        chain_bands(plus).entries - chain_bands(minus).entries)) / 2.0
    aligned = []
    try:
        _check_isolated(dec0.values, motion, step)
        for q in (plus, minus):
            psi = steady_state(model_spectrum(q))
            ov = np.vdot(psi0, psi)
            if abs(ov) < 0.5:
                raise DerivativeIllDefinedError(
                    "steady-state branch changed within the stencil "
                    "(overlap %.3f)" % abs(ov))
            aligned.append(psi * (np.conj(ov) / abs(ov)))
    except DerivativeIllDefinedError as err:
        raise DerivativeIllDefinedError(
            "no central difference at the fixed step %g: %s"
            % (step, err)) from err
    return (aligned[0] - aligned[1]) / (2.0 * step)


def _tangent(q, ps, i, rho=1.0):
    """dH/dtheta_i at q = apply_params(p, ps) as ChainBands, exact: the
    derivative of the chain's bonds, with its module bonds scaled to
    (dJm rho, dJmP / rho) as _skin_balanced scales H's.

    With apply_params' semantics JR and JR_re move JR by 1, JR_im by i,
    and Jm and JmP move their own bond.  Unless a Jm or JmP label sets the
    module bonds explicitly, q's preset re-derives them: JmP follows JR
    under SHIFTED (JR + J) and NON_MODULAR (JR), and J moves (Jm, JmP) by
    (1, -1/J^2) under RECIPROCAL_MODULAR (J, 1/J) and by (1, 1) under
    SHIFTED (JL + J, JR + J).
    """
    lab = ps.labels[i]
    dJR = {"JR": 1.0, "JR_re": 1.0, "JR_im": 1j}.get(lab, 0.0)
    dJm = float(lab == "Jm")
    dJmP = float(lab == "JmP")
    if q.preset is not None and not {"Jm", "JmP"} & set(ps.labels):
        kind, J = q.preset.kind, q.preset.J
        if lab == "J":
            dJm, dJmP = {RECIPROCAL_MODULAR: (1.0, -1.0 / J ** 2),
                         SHIFTED: (1.0, 1.0)}.get(kind, (0.0, 0.0))
        elif kind in (SHIFTED, NON_MODULAR):
            dJmP = dJR
    return bond_bands(q, 0.0, 0.0, dJR, dJm * rho, dJmP / rho)


# the last successful steady solve, (key, (values, r, l)), rebound as one
# tuple; see _steady_solve
_last_steady = None


def _steady_solve(q, H):
    """(values, r, l): the sorted eigenvalues of the point q, whose
    skin-balanced bands are H, and the steady eigenvalue's right and left
    vectors, read-only.

    An open chain takes one eigenvalue solve on one sublattice
    (full_spectrum without vectors, every value held to its squaring
    gate) plus inverse iteration for r and l (eigenpair); the eigenvalues
    the guards read (values[1] and the one nearest the steady eigenvalue,
    spectral.steady_neighbours) are certified as well.  A PBC ring takes
    its eigenvalues from its Bloch sectors (_ring_values) and r and l as
    the plane waves of the steady sector's right and left Bloch vectors.
    A degenerate steady eigenvalue raises DegenerateSteadyStateError
    (checked before the inverse iteration, which diverges on it).

    The last successful solve is kept in one slot, keyed by q and the
    bytes of H's entries (the ring branch reads q, the chain branch H),
    so the per-parameter calls at one point (probe_state, then
    state_derivative for each parameter) share one solve.  The key is
    exact to the bit; a failed solve is never kept, so it raises on every
    call.
    """
    global _last_steady
    key = (q, H.entries.tobytes())
    if _last_steady is not None and _last_steady[0] == key:
        return _last_steady[1]
    if q.boundary == PBC:
        values, sector = _ring_values(q)
        _check_nondegenerate(values)
        w, left, right = scipy.linalg.eig(_sectors(q, sector[0]), left=True)
        b = int(np.argmin(np.abs(w - values[0])))
        wave = _plane_waves(q, sector[:1])[:, 0]
        r, l = (np.kron(wave, v[:, b]) for v in (right, left))
    else:
        values = full_spectrum(H, vectors=False)
        _check_nondegenerate(values)
        r, l = eigenpair(H, values[0], left=True)
        certify(H, values[steady_neighbours(values)])
    for a in (values, r, l):
        a.flags.writeable = False
    _last_steady = (key, (values, r, l))
    return values, r, l


def _steady_derivatives(p, ps, indices):
    """Probe state at ps's point and its derivatives along the parameters
    in indices: one steady solve (_steady_solve, shared with the calls
    before at the same point), the guards per parameter, one bordered
    solve.

    A degenerate steady eigenvalue has no steady state, so every call,
    the state alone included, raises DegenerateSteadyStateError there.
    For each parameter, H' is the exact derivative of the chain's bonds
    (_tangent) and the steady eigenvalue moves by l^+ H' r / l^+ r.  A
    steady eigenvalue not isolated against the spectral motion of the raw
    H' over ISOLATION_SCALE times the parameter's step, or one the solve
    does not resolve (see _check_resolved), where a central difference
    has no limit, raises DerivativeIllDefinedError, as the oracle
    family_state_derivative does.  The bordered system
    [[H - lambda, r], [l^+, 0]] gives r's derivatives, one right-hand side
    per parameter, with H' taken in the frame of the base point
    (spectral.bordered_solve).  All vectors are mapped back with one
    scale, and each state derivative is (1 - psi psi^+) dr / ||r||.

    The chain runs on its bands (model.bond_bands) and no D x D matrix
    is built or factored: the half-size product is written from the
    bands, eigenpair, certify and the bordered solve (Nelson's deletion,
    which opens a ring) factor tridiagonals with ?gttrf, and H, H' and
    their norms are bands, so a point costs one (D/2)-square ?geev plus
    O(D) work.  Only the dense fall-back of full_spectrum builds H, where
    the bidiagonal refinement cannot run.
    """
    if any(not 0 <= i < ps.l for i in indices):
        raise ValidationError("parameter index out of range")
    q = apply_params(p, ps)
    H, rho, frame = _skin_balanced(q)
    values, r, l = _steady_solve(q, H)
    lam = values[0]
    norm = float(np.linalg.norm(H.entries))
    rhs = []
    for i in indices:
        dH = _tangent(q, ps, i)
        if dH.entries.any():  # a parameter H does not depend on has derivative 0
            _check_resolved(norm, values, r, l)
        smallest = ps.steps[i] * ISOLATION_SCALE
        _check_isolated(values,
                        10.0 * smallest * float(np.linalg.norm(dH.entries)),
                        smallest)
        if rho != 1.0:
            dH = _tangent(q, ps, i, rho)
        dHr = dH @ r
        dlam = np.vdot(l, dHr) / np.vdot(l, r)
        rhs.append(dlam * r - dHr)
    if not rhs:
        return phase_fixed(*_unbalance(frame, r)), ()
    try:
        dr = bordered_solve(H, lam, r, l, np.array(rhs).T)
    except np.linalg.LinAlgError as exc:
        raise DerivativeIllDefinedError("bordered system is singular: %s" % exc)
    psi, *dpsis = phase_fixed(*_unbalance(frame, r,
                                          *np.ascontiguousarray(dr.T)))
    return psi, tuple(dpsis)


def probe_state(p, ps):
    """Steady state of the Hamiltonian at ps's point.

    It comes from the same steady solve as state_derivatives, so the two
    agree bit for bit on the state, and raise the same
    DegenerateSteadyStateError where the steady eigenvalue is degenerate.
    The solve is kept for the next call at the same point (_steady_solve),
    so probe_state and one state_derivative per parameter make one solve.
    """
    return _steady_derivatives(p, ps, ())[0]


def state_derivative(p, ps, i):
    """Derivative of the probe state along parameter i (one steady solve,
    or none after another call at the same point; see _steady_derivatives
    for the method and the errors it raises)."""
    return _steady_derivatives(p, ps, (i,))[1][0]


def state_derivatives(p, ps):
    """(psi, (dpsi_0, ...)): the probe state and its derivative along
    every parameter of ps, from one steady solve and one bordered solve."""
    return _steady_derivatives(p, ps, range(ps.l))


def _check_unit(psi):
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValidationError("state must be normalized")
    return psi


def qfi(psi, dpsi):
    """Quantum Fisher information 4(<dpsi|dpsi> - |<dpsi|psi>|^2)."""
    psi = _check_unit(psi)
    dpsi = np.asarray(dpsi, dtype=complex)
    val = 4.0 * (float(np.real(np.vdot(dpsi, dpsi))) - abs(np.vdot(dpsi, psi)) ** 2)
    if val < -1e-9 * max(1.0, float(np.real(np.vdot(dpsi, dpsi)))):
        raise NumericalError("QFI came out negative: %.3e" % val)
    return max(val, 0.0)


def qfim(psi, dpsi_list, param_spec=None):
    """Quantum Fisher information matrix of a pure state."""
    psi = _check_unit(psi)
    ds = [np.asarray(d, dtype=complex) for d in dpsi_list]
    l = len(ds)
    m = np.empty((l, l))
    ov = [np.vdot(d, psi) for d in ds]  # <d_i psi | psi>
    for i in range(l):
        for j in range(i, l):
            val = 4.0 * np.real(np.vdot(ds[i], ds[j]) - ov[i] * np.conj(ov[j]))
            m[i, j] = m[j, i] = val
    return FisherMatrix(entries=m, kind=QUANTUM, param_spec=param_spec)


def _outcome_rows(psi, dpsi_list, basis):
    amps = basis.amplitudes(psi)
    probs = np.abs(amps) ** 2
    keep = probs >= PROB_FLOOR
    rows = []
    for d in dpsi_list:
        damp = basis.amplitudes(d)
        rows.append(2.0 * np.real(np.conj(amps[keep]) * damp[keep]))
    return np.array(rows), probs[keep]


def cfi(psi, dpsi, basis):
    """Classical Fisher information in a projective basis (a Povm or a
    BasisMap)."""
    psi = _check_unit(psi)
    rows, probs = _outcome_rows(psi, [dpsi], basis)
    return float(np.sum(rows[0] ** 2 / probs))


def cfim(psi, dpsi_list, basis, param_spec=None):
    """Classical Fisher information matrix in a projective basis."""
    psi = _check_unit(psi)
    rows, probs = _outcome_rows(psi, dpsi_list, basis)
    m = (rows / probs) @ rows.T
    m = 0.5 * (m + m.T)
    return FisherMatrix(entries=m, kind=CLASSICAL, basis_label=basis.label,
                        param_spec=param_spec)


def _identity(v):
    return v


# (-i)^j by j mod 4, exactly
_QUARTER_TURNS = np.array([1.0, -1j, -1.0, 1j])


def _sine_amplitudes(v):
    """Amplitudes on the open chain's current eigenbasis, the sine modes
    i^j sqrt(2/(D+1)) sin(pi (j+1) k / (D+1)) (k = 1..D): one DST-I of
    (-i)^j v."""
    import scipy.fft
    twisted = _QUARTER_TURNS[np.arange(len(v)) % 4] * v
    return scipy.fft.dst(twisted, type=1, norm="ortho")


def _plane_wave_amplitudes(v):
    """Amplitudes on the ring's plane waves exp(2 pi i k j / D) / sqrt(D)."""
    return np.fft.fft(v, norm="ortho")


def position_basis(D):
    """Projective measurement onto the lattice site-level basis."""
    if int(D) < 1:
        raise ValidationError("a basis needs at least one state")
    return BasisMap(dim=int(D), transform=_identity, label="position")


def current_basis(p):
    """Projective measurement onto total-current-operator eigenstates.

    The current operator i(T - T^+) (model.build_current_operator) hops
    every bond rightward with unit amplitude, so it depends only on D and
    the boundary, and it is diagonal in a sine basis on an open chain
    (eigenvalues 2 cos(pi k / (D+1)), all simple) and in plane waves on a
    ring (eigenvalues -2 sin q, q = 2 pi k / D).  On an even ring q and
    pi - q carry the same current, so each such pair spans a degenerate
    plane; the plane waves are the canonical basis inside it.
    """
    if p.boundary == PBC:
        return BasisMap(dim=p.D, transform=_plane_wave_amplitudes,
                        label="current")
    return BasisMap(dim=p.D, transform=_sine_amplitudes, label="current")


def total_variance_bound(F):
    """Trace of the inverse Fisher matrix: the total-variance bound."""
    m = F.entries
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        raise BoundUndefinedError(
            "Fisher matrix is numerically singular (condition %.3e)"
            % (w[-1] / max(w[0], 1e-300)))
    return float(np.trace(np.linalg.inv(m)))
