"""Fisher-information machinery for steady-state parameter estimation.

The probe is the steady state of the lattice Hamiltonian (right
eigenvector with the largest imaginary eigenvalue).  Each point costs
one eigenvalue solve in the skin-balancing frame, which is the model
itself with module bonds (Jm rho, JmP / rho), on one sublattice
(spectral.sublattice_eigenvalues, a (D/2)-square solve), plus inverse
iteration for the steady eigenvalue's right and left vectors
(spectral.eigenpair; spectral.certify holds the eigenvalues the guards
read to the same gate).  Parameter derivatives are analytic: the steady
eigenvalue moves by l^+ H' r / l^+ r, and a bordered linear system gives
the right vector's derivative (Nelson's method), one right-hand side per
parameter, so state_derivatives gives the state and every derivative of
a point from one solve.  family_state_derivative, one gauge-aligned
central difference of the steady state at a fixed step, is kept as an
independent oracle.  Quantum and classical Fisher informations (scalar
and matrix) follow from the derivatives.  All bounds are per
measurement shot.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (BoundUndefinedError, DerivativeIllDefinedError,
                     NumericalError, ValidationError)
from .gbz import gbz_radius, skin_frame
from .model import build_current_operator, build_hamiltonian
from .spectral import (DEFAULT_TOL_EIG, SpectralDecomposition, certify,
                       eigenpair, full_spectrum, phase_fixed, steady_neighbours,
                       steady_state, sublattice_eigenvalues)

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

    labels come from PARAM_LABELS; values give the base point theta and
    steps the step per parameter of the central difference that gives
    dH/dtheta.
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
    """Orthonormal projective measurement, stored as basis columns."""

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
    """Hamiltonian of model q in its skin-balancing frame: (H, rho, frame).

    Conjugating the chain by S = diag(rho^n), n the module index and rho
    the GBZ radius, leaves every bond inside a module alone and rescales
    the module bonds (Jm, JmP) to (Jm rho, JmP / rho), so S^-1 H S is the
    same model with those couplings (_rebalanced).  frame is skin_frame's
    ln s; on PBC rings and unbalanced chains it is None, rho is 1 and H
    is the raw Hamiltonian.
    """
    frame = skin_frame(q)
    rho = 1.0 if frame is None else gbz_radius(q)
    return build_hamiltonian(_rebalanced(q, rho)), rho, frame


def _rebalanced(q, rho):
    """Model q with its module bonds scaled to (Jm rho, JmP / rho)."""
    if rho == 1.0:
        return q
    return q.with_updates(Jm=q.Jm * rho, JmP=q.JmP / rho)


def model_spectrum(p, tol_eig=DEFAULT_TOL_EIG):
    """Spectrum of the model's Hamiltonian, solved in its skin-balancing
    frame (the one spectral path every consumer of a model shares).

    The frame is ln s for a positive vector s; the solver sees S^-1 H S
    (S = diag(s), see _skin_balanced), which tames the exponential
    ill-conditioning skin modes inflict on the raw matrix.  The right
    vectors are mapped back through their logarithm, shifted so each
    column peaks at 1, so no component overflows however large s grows.
    The mapping is an exact similarity, so this changes rounding behavior
    only; the residuals are taken against the raw Hamiltonian.
    """
    Hb, _, ln_s = _skin_balanced(p)
    dec = full_spectrum(Hb, tol_eig)
    if ln_s is None:
        return dec
    del Hb  # keeps the back-mapping below the solve's own peak memory
    values = dec.values
    # ln v = ln|v| + i arg v, mapped back in place; components far below
    # their column's peak underflow to zero, as they must
    with np.errstate(divide="ignore", under="ignore"):
        vecs = np.log(dec.right_vectors)
        del dec
        vecs += ln_s[:, None]
        vecs -= vecs.real.max(axis=0)
        np.exp(vecs, out=vecs)
        vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)
        H = build_hamiltonian(p)
        res = np.linalg.norm(H @ vecs - vecs * values[None, :], axis=0)
    return SpectralDecomposition(values=values, right_vectors=vecs,
                                 residuals=res)


def model_eigenvalues(p):
    """Eigenvalues of the model in its skin-balancing frame, no vectors.

    Returns (H, values): the balanced Hamiltonian and its eigenvalues,
    sorted at DEFAULT_TOL_EIG's resolution.  Nothing here checks a
    residual; certify each eigenvalue a result reads with
    spectral.certify(H, values).
    """
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
    if len(lam) > 1 and abs(lam[0] - lam[1]) <= 1e-12 * scale:
        raise DerivativeIllDefinedError("steady-state eigenvalue is degenerate")


def _check_isolated(lam, motion, step):
    """Raise unless the steady eigenvalue lam[0] outruns a spectral motion.

    The max-Im selection cannot flip within a parameter offset of step
    if the next eigenvalue trails by more than the motion of the
    spectrum over it.  Two imaginary parts in the same bucket of the
    sort's resolution (mirror pairs of real Hamiltonians sit there) are
    a tie that the real part resolves, exactly as the steady-state
    ordering does; in neighbouring buckets rounding picks the state.
    """
    if len(lam) == 1:
        return
    im_gap = lam[0].imag - lam[1].imag
    if im_gap > motion:
        return
    im_res = DEFAULT_TOL_EIG * max(float(np.max(np.abs(lam))), 1.0)
    tie = np.round(lam[0].imag / im_res) == np.round(lam[1].imag / im_res)
    if tie and abs(lam[0] - lam[1]) > motion:
        return
    raise DerivativeIllDefinedError(
        "steady eigenvalue not isolated at step %.3e" % step)


def _check_resolved(H, lam, r, l):
    """Raise unless the steady eigenvalue lam[0] of H is resolved by the
    solve (r and l its right and left vectors).

    A defective eigenvalue comes out of the solver as a cluster split by
    rounding, with nearly parallel left and right vectors; its state has
    no derivative, yet the bordered solve would return one.
    """
    if len(lam) == 1:
        return
    dist = float(np.min(np.abs(lam[1:] - lam[0])))
    uncertainty = np.finfo(float).eps * float(np.linalg.norm(H))
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
    degenerate steady eigenvalue raises DerivativeIllDefinedError; so do
    one not isolated against the spectral motion over step and a change
    of the steady-state branch inside the stencil (a small overlap with
    the base state), with the step named.
    """
    dec0 = model_spectrum(_shifted(p, ps, i, 0.0))
    psi0 = steady_state(dec0)
    _check_nondegenerate(dec0.values)
    plus, minus = _shifted(p, ps, i, step), _shifted(p, ps, i, -step)
    motion = 10.0 * float(np.linalg.norm(
        build_hamiltonian(plus) - build_hamiltonian(minus))) / 2.0
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


def _central_difference(p, ps, i, rho=1.0):
    """dH/dtheta_i: the central difference of the Hamiltonian at parameter
    i's step, with every stencil model's module bonds scaled by rho."""
    h = ps.steps[i]
    plus, minus = (_rebalanced(_shifted(p, ps, i, s), rho) for s in (h, -h))
    return (build_hamiltonian(plus) - build_hamiltonian(minus)) / (2.0 * h)


def _steady_derivatives(p, ps, indices):
    """Probe state at ps's point and its derivatives along the parameters
    in indices: one steady solve, the guards per parameter, one bordered
    solve.

    The steady solve is one eigenvalue solve in the skin-balancing frame
    on one sublattice (sublattice_eigenvalues) plus inverse iteration for
    the steady eigenvalue's right and left vectors; the eigenvalues the
    guards read (values[1] and the one nearest the steady eigenvalue,
    spectral.steady_neighbours) are certified as well.  For each
    parameter, H' is the central difference of the Hamiltonian at its
    step (exact for the labels H is linear in, O(step^2) for J, whose JmP
    is 1/J) and the steady eigenvalue moves by l^+ H' r / l^+ r.  A
    degenerate steady eigenvalue, one not isolated against the spectral
    motion of the raw H' over ISOLATION_SCALE times the step, or one the
    solve does not resolve (see _check_resolved), where a central
    difference has no limit, raises DerivativeIllDefinedError, as the
    oracle family_state_derivative does.  The bordered system
    [[H - lambda, r], [l^+, 0]] gives r's derivatives, one right-hand side
    per parameter, with H' built in the frame of the base point.  All
    vectors are mapped back with one scale, and each state derivative is
    (1 - psi psi^+) dr / ||r||.
    """
    if any(not 0 <= i < ps.l for i in indices):
        raise ValidationError("parameter index out of range")
    H, rho, frame = _skin_balanced(apply_params(p, ps))
    values = sublattice_eigenvalues(H)
    lam = values[0]
    r, l = eigenpair(H, lam, left=True)
    certify(H, values[steady_neighbours(values)])
    rhs = []
    for i in indices:
        dH = _central_difference(p, ps, i)
        _check_nondegenerate(values)
        if dH.any():  # a parameter H does not depend on has derivative 0
            _check_resolved(H, values, r, l)
        smallest = ps.steps[i] * ISOLATION_SCALE
        _check_isolated(values, 10.0 * smallest * float(np.linalg.norm(dH)),
                        smallest)
        if rho != 1.0:
            dH = _central_difference(p, ps, i, rho)
        dHr = dH @ r
        dlam = np.vdot(l, dHr) / np.vdot(l, r)
        rhs.append(np.append(dlam * r - dHr, 0.0))
    if not rhs:
        return phase_fixed(*_unbalance(frame, r)), ()
    D = len(r)
    border = np.zeros((D + 1, D + 1), dtype=complex)
    border[:D, :D] = H
    border[np.arange(D), np.arange(D)] -= lam
    border[:D, D] = r
    border[D, :D] = l.conj()
    try:
        dr = np.linalg.solve(border, np.array(rhs).T)[:D]
    except np.linalg.LinAlgError as exc:
        raise DerivativeIllDefinedError("bordered system is singular: %s" % exc)
    psi, *dpsis = phase_fixed(*_unbalance(frame, r,
                                          *np.ascontiguousarray(dr.T)))
    return psi, tuple(dpsis)


def probe_state(p, ps):
    """Steady state of the Hamiltonian at ps's point.

    It comes from the same steady solve as state_derivatives, so the two
    agree bit for bit on the state.
    """
    return _steady_derivatives(p, ps, ())[0]


def state_derivative(p, ps, i):
    """Derivative of the probe state along parameter i (one steady solve;
    see _steady_derivatives for the method and the errors it raises)."""
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
    amps = basis.projectors.conj().T @ psi
    probs = np.abs(amps) ** 2
    keep = probs >= PROB_FLOOR
    rows = []
    for d in dpsi_list:
        damp = basis.projectors.conj().T @ np.asarray(d, dtype=complex)
        rows.append(2.0 * np.real(np.conj(amps[keep]) * damp[keep]))
    return np.array(rows), probs[keep]


def cfi(psi, dpsi, basis):
    """Classical Fisher information in a projective basis."""
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


def position_basis(D):
    """Projective measurement onto the lattice site-level basis."""
    return Povm(projectors=np.eye(int(D), dtype=complex), label="position")


def current_basis(p):
    """Projective measurement onto total-current-operator eigenstates."""
    J = build_current_operator(p)
    if np.max(np.abs(J - J.conj().T)) > 1e-12 * max(np.max(np.abs(J)), 1.0):
        raise NumericalError("current operator is not Hermitian")
    _, vecs = np.linalg.eigh(J)
    return Povm(projectors=vecs, label="current")


def total_variance_bound(F):
    """Trace of the inverse Fisher matrix: the total-variance bound."""
    m = F.entries
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        raise BoundUndefinedError(
            "Fisher matrix is numerically singular (condition %.3e)"
            % (w[-1] / max(w[0], 1e-300)))
    return float(np.trace(np.linalg.inv(m)))
