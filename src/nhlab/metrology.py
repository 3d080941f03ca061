"""Fisher-information machinery for steady-state parameter estimation.

The probe is the steady state of the lattice Hamiltonian (right
eigenvector with the largest imaginary eigenvalue).  Its parameter
derivatives are formed by gauge-aligned central differences, from which
quantum and classical Fisher informations (scalar and matrix) follow.
All bounds are per measurement shot.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (BoundUndefinedError, DerivativeIllDefinedError,
                     NumericalError, ValidationError)
from .gbz import skin_frame
from .model import build_current_operator, build_hamiltonian
from .spectral import (DEFAULT_TOL_EIG, SpectralDecomposition, full_spectrum,
                       steady_state)

QUANTUM = "QUANTUM"
CLASSICAL = "CLASSICAL"

PARAM_LABELS = ("JR_re", "JR_im", "JR", "Jm", "JmP", "J")

DEFAULT_STEP = 1e-5
PROB_FLOOR = 1e-14


@dataclass(frozen=True)
class ParamSpec:
    """Ordered set of estimated parameters with base values and steps.

    labels come from PARAM_LABELS; values give the base point theta and
    steps the finite-difference step per parameter.
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


def _balanced_spectrum(H, frame, tol_eig=DEFAULT_TOL_EIG):
    """Eigendecomposition of H computed in a diagonal similarity frame.

    frame is ln s for a positive vector s; the solver sees S^-1 H S
    (S = diag(s)), which tames the exponential ill-conditioning skin
    modes inflict on the raw matrix.  The right vectors are mapped back
    through their logarithm, shifted so each column peaks at 1, so no
    component overflows however large s grows.  The mapping is
    an exact similarity, so this changes rounding behavior only.
    """
    if frame is None:
        return full_spectrum(H, tol_eig)
    ln_s = np.asarray(frame, dtype=float)
    # only realized bonds are scaled; skipping the zeros keeps the frame
    # from costing a dense D x D exponent table
    rows, cols = np.nonzero(H)
    Hb = np.zeros_like(H)
    Hb[rows, cols] = H[rows, cols] * np.exp(ln_s[cols] - ln_s[rows])
    dec = full_spectrum(Hb, tol_eig)
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
        res = np.linalg.norm(H @ vecs - vecs * values[None, :], axis=0)
    return SpectralDecomposition(values=values, right_vectors=vecs,
                                 residuals=res)


def model_spectrum(p, tol_eig=DEFAULT_TOL_EIG):
    """Spectrum of the model's Hamiltonian, solved in its skin-balancing
    frame (the one spectral path every consumer of a model shares)."""
    return _balanced_spectrum(build_hamiltonian(p), skin_frame(p), tol_eig)


def probe_state(p, ps, shift=None):
    """Steady state of the Hamiltonian at the shifted parameter point."""
    return steady_state(model_spectrum(apply_params(p, ps, shift)))


def _aligned_probe(build, psi0, delta, frame=None):
    """Steady state at offset delta, phase-aligned to the base state.

    The eigensolver's arbitrary phase and the steady-state gauge both
    cancel here, leaving <psi0|psi(delta)> real positive.  A small
    overlap means the largest-imaginary-part branch changed inside the
    stencil, which makes the difference quotient meaningless.
    """
    psi = steady_state(_balanced_spectrum(build(delta), frame))
    ov = np.vdot(psi0, psi)
    if abs(ov) < 0.5:
        raise DerivativeIllDefinedError(
            "steady-state branch changed within the stencil (overlap %.3f)"
            % abs(ov))
    return psi * (np.conj(ov) / abs(ov))


def family_state_derivative(build, h, richardson=False, rel_tol=2e-3,
                            max_halvings=12, fixed_step=False, frame=None):
    """Derivative of the steady state of a one-parameter matrix family.

    build(delta) must return the Hamiltonian at parameter offset delta.
    Central differences at steps h and h/2 are compared; h is halved
    until they agree to rel_tol (or fixed_step skips that loop), which
    also walks the step below the isolation scale near criticality.
    Richardson extrapolation combines the two stencils when requested.
    frame, when given, is the logarithm of a diagonal similarity (see
    _balanced_spectrum) held fixed across the whole family.

    Returns (derivative vector, step actually used).
    """
    dec0 = _balanced_spectrum(build(0.0), frame)
    psi0 = steady_state(dec0)
    lam = dec0.values
    scale = max(float(np.max(np.abs(lam))), 1.0)
    if len(lam) > 1 and abs(lam[0] - lam[1]) <= 1e-12 * scale:
        raise DerivativeIllDefinedError("steady-state eigenvalue is degenerate")

    def im_isolated(step):
        # the max-Im selection cannot flip inside the stencil if the
        # next eigenvalue trails by more than the spectral motion; an
        # imaginary tie below the sort's own bucket resolution (mirror
        # pairs of real Hamiltonians sit there) is resolved by the real
        # part instead, exactly as the steady-state ordering does
        Hp, Hm = build(step), build(-step)
        motion = 10.0 * float(np.linalg.norm(Hp - Hm)) / 2.0
        if len(lam) == 1:
            return True
        im_gap = lam[0].imag - lam[1].imag
        if im_gap > motion:
            return True
        if im_gap <= DEFAULT_TOL_EIG * scale and abs(lam[0] - lam[1]) > motion:
            return True
        return False

    def central(step):
        plus = _aligned_probe(build, psi0, step, frame)
        minus = _aligned_probe(build, psi0, -step, frame)
        return (plus - minus) / (2.0 * step)

    step = float(h)
    last_err = None
    for _ in range(max_halvings):
        try:
            if not im_isolated(step):
                raise DerivativeIllDefinedError(
                    "steady eigenvalue not isolated at step %.3e" % step)
            D1 = central(step)
            if fixed_step:
                return D1, step
            D2 = central(0.5 * step)
        except DerivativeIllDefinedError as err:
            last_err = err
            step *= 0.5
            continue
        diff = float(np.linalg.norm(D1 - D2))
        # eigensolver noise on the stencil states enters as O(eps)/step,
        # so the acceptance floor must grow as the step shrinks
        floor = 1e-12 / step
        if diff <= rel_tol * float(np.linalg.norm(D2)) + floor:
            if richardson:
                return (4.0 * D2 - D1) / 3.0, step
            return D2, step
        step *= 0.5
    raise DerivativeIllDefinedError(
        "no converged central difference down to step %.3e%s"
        % (step, ": %s" % last_err if last_err else ""))


def state_derivative(p, ps, i, richardson=False, fixed_step=None):
    """Gauge-aligned derivative of the probe state along parameter i.

    The whole stencil is diagonalized in the skin-balancing frame of
    the base point; the frame is a similarity, so it is allowed to lag
    the parameter by the (tiny) stencil offsets.
    """
    if not 0 <= i < ps.l:
        raise ValidationError("parameter index out of range")

    frame = skin_frame(apply_params(p, ps))

    def build(delta):
        shift = np.zeros(ps.l)
        shift[i] = delta
        return build_hamiltonian(apply_params(p, ps, shift))

    if fixed_step is not None:
        d, _ = family_state_derivative(build, fixed_step, fixed_step=True,
                                       frame=frame)
        return d
    d, _ = family_state_derivative(build, ps.steps[i], richardson=richardson,
                                   frame=frame)
    return d


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
