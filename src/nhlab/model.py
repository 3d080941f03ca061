"""Builders for modular non-Hermitian 1D tight-binding lattices.

A lattice consists of ``L`` modules, each holding ``r`` sites of ``d``
sublevels, so the Hilbert-space dimension is ``D = d*r*L`` and the site
count is ``N = r*L``.  Couplings: a real Hermitian sublevel hopping
``J0``, non-reciprocal intra-module hoppings ``JL`` (leftward) / ``JR``
(rightward), and non-reciprocal inter-module hoppings ``Jm`` (leftward) /
``JmP`` (rightward).

Basis ordering is lexicographic in (module n, site mu, sublevel nu); the
flat index of ``(n, mu, nu)`` with 1-based labels is
``((n-1)*r + (mu-1))*d + (nu-1)``.  Matrices follow the convention
``H[a, b] = <a|H|b>``.  All builders are pure functions.  A PBC ring is
block-circulant in the modules, so its eigenpairs are the Bloch blocks'
(build_bloch) at k = 2*pi*j/L as plane waves, and it is solved by those
sectors; its ChainBands close the chain with two corners.
"""

from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DimensionCapError, UnsupportedStructureError, ValidationError

OBC = "OBC"
PBC = "PBC"

RECIPROCAL_MODULAR = "RECIPROCAL_MODULAR"
SHIFTED = "SHIFTED"
NON_MODULAR = "NON_MODULAR"

PRESET_KINDS = (RECIPROCAL_MODULAR, SHIFTED, NON_MODULAR)

DEFAULT_DIM_CAP = 20000


@dataclass(frozen=True)
class CouplingPreset:
    """Rule tying the inter-module couplings to a single parameter J.

    RECIPROCAL_MODULAR: Jm = J, JmP = 1/J (requires J != 0).
    SHIFTED:            Jm = JL + J, JmP = JR + J.
    NON_MODULAR:        Jm = JL, JmP = JR (J unused).
    """

    kind: str
    J: complex = 0j

    def __post_init__(self):
        if self.kind not in PRESET_KINDS:
            raise ValidationError("unknown preset kind: %r" % (self.kind,))
        if self.kind == RECIPROCAL_MODULAR and self.J == 0:
            raise ValidationError("RECIPROCAL_MODULAR preset requires J != 0")

    def modular_couplings(self, JL, JR):
        """Return (Jm, JmP) materialized from the intra-module couplings."""
        if self.kind == RECIPROCAL_MODULAR:
            return complex(self.J), 1.0 / complex(self.J)
        if self.kind == SHIFTED:
            return complex(JL) + complex(self.J), complex(JR) + complex(self.J)
        return complex(JL), complex(JR)


@dataclass(frozen=True)
class ModelParams:
    """Full specification of the modular lattice.

    Attributes
    ----------
    d, r, L : int
        Sublevels per site, sites per module, number of modules.
    J0 : float
        Hermitian hopping between adjacent sublevels (real by contract).
    JL, JR : complex
        Intra-module left / right hopping.
    Jm, JmP : complex
        Inter-module left / right hopping.
    boundary : str
        "OBC" or "PBC".
    preset : CouplingPreset or None
        When set, records the rule (Jm, JmP) were derived from; parameter
        updates through ``with_updates`` re-apply it.
    """

    d: int
    r: int
    L: int
    J0: float = 0.0
    JL: complex = 0j
    JR: complex = 0j
    Jm: complex = 0j
    JmP: complex = 0j
    boundary: str = OBC
    preset: CouplingPreset | None = None

    def __post_init__(self):
        for name in ("d", "r", "L"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValidationError("%s must be an integer, got %r" % (name, v))
        if self.d < 1 or self.r < 1:
            raise ValidationError("d and r must be >= 1")
        if self.L < 2:
            raise ValidationError("L must be >= 2")
        if self.r * self.d < 2:
            raise ValidationError("need r*d >= 2 internal states per module")
        if isinstance(self.J0, complex) or np.iscomplexobj(self.J0):
            raise ValidationError("J0 must be real")
        if self.d >= 2 and self.J0 == 0:
            raise ValidationError("J0 must be nonzero for d >= 2")
        if self.boundary not in (OBC, PBC):
            raise ValidationError("boundary must be OBC or PBC")
        for name in ("J0", "JL", "JR", "Jm", "JmP"):
            if not np.all(np.isfinite([complex(getattr(self, name))])):
                raise ValidationError("%s must be finite" % name)

    @property
    def D(self):
        """Hilbert-space dimension d*r*L."""
        return self.d * self.r * self.L

    @property
    def N(self):
        """Site count r*L."""
        return self.r * self.L

    def index(self, n, mu, nu):
        """Flat basis index of |n, mu, nu> (1-based labels)."""
        return ((n - 1) * self.r + (mu - 1)) * self.d + (nu - 1)

    def with_updates(self, **changes):
        """Return a copy with changed fields, re-applying the preset.

        When a preset is attached and neither Jm nor JmP is given
        explicitly, the modular couplings are re-derived from the updated
        (JL, JR, J).  Passing ``J=...`` updates the preset parameter.
        """
        preset = changes.pop("preset", self.preset)
        if "J" in changes:
            if preset is None:
                raise ValidationError("J update requires a coupling preset")
            preset = replace(preset, J=complex(changes.pop("J")))
        for key in ("JL", "JR", "Jm", "JmP"):
            if key in changes:
                changes[key] = complex(changes[key])
        if "J0" in changes:
            changes["J0"] = float(changes["J0"])
        explicit_mod = "Jm" in changes or "JmP" in changes
        p = replace(self, preset=preset, **changes)
        if preset is not None and not explicit_mod:
            Jm, JmP = preset.modular_couplings(p.JL, p.JR)
            p = replace(p, Jm=Jm, JmP=JmP)
        return p


def make_params(d, r, L, J0=0.0, JL=0j, JR=0j, Jm=None, JmP=None,
                boundary=OBC, preset=None):
    """Construct ModelParams, deriving (Jm, JmP) from ``preset`` if given."""
    if preset is not None:
        if Jm is not None or JmP is not None:
            raise ValidationError("give either a preset or explicit Jm/JmP, not both")
        Jm, JmP = preset.modular_couplings(JL, JR)
    if isinstance(J0, complex):
        raise ValidationError("J0 must be real")
    return ModelParams(d=d, r=r, L=L, J0=float(J0), JL=complex(JL),
                       JR=complex(JR), Jm=complex(Jm if Jm is not None else 0),
                       JmP=complex(JmP if JmP is not None else 0),
                       boundary=boundary, preset=preset)


def _bond_table(p, J0, JL, JR, Jm, JmP):
    """A module's bonds on p's layout, carrying the given couplings:
    (upper, lower, Jm, JmP).

    Every lattice here is a nearest-neighbour chain in the flat basis, and
    d and r fix its layout.  upper[j] = H[i, i+1] and lower[j] = H[i+1, i]
    for the m-1 bonds inside a module (i = module offset + j, m = r*d): J0
    both ways between the sublevels of a site, JL / JR between adjacent
    sites.  The bond from the last state of a module to the first of the
    next carries Jm (upper) and JmP (lower).  The couplings are arguments,
    so the same layout carries the model's own (chain_bands) and any other
    set, such as the derivative of the bonds (bond_bands).
    """
    intra_site = np.arange(1, p.r * p.d) % p.d != 0
    upper = np.where(intra_site, complex(J0), complex(JL))
    lower = np.where(intra_site, complex(J0), complex(JR))
    return upper, lower, complex(Jm), complex(JmP)


class ChainBands(NamedTuple):
    """A nearest-neighbour chain by its bands; the main diagonal is zero.

    upper[i] = H[i, i+1] and lower[i] = H[i+1, i] (D-1 entries each);
    corners = (H[D-1, 0], H[0, D-1]), (Jm, JmP) on a PBC ring and zero on
    an open chain, whose matrix is then exactly tridiagonal.
    """

    upper: np.ndarray
    lower: np.ndarray
    corners: np.ndarray

    @property
    def entries(self):
        """Every entry the bands can hold, as one flat array."""
        return np.concatenate(self)

    def dense(self):
        """The D x D matrix."""
        D = len(self.upper) + 1
        i = np.arange(D - 1)
        H = np.zeros((D, D), dtype=complex)
        H[i, i + 1] += self.upper
        H[i + 1, i] += self.lower
        H[-1, 0] += self.corners[0]
        H[0, -1] += self.corners[1]
        return H

    def __matmul__(self, x):
        """H x for a vector x."""
        y = np.zeros(len(x), dtype=complex)
        y[:-1] += self.upper * x[1:]
        y[1:] += self.lower * x[:-1]
        y[-1] += self.corners[0] * x[0]
        y[0] += self.corners[1] * x[-1]
        return y


def _bands(p, upper, lower, Jm, JmP):
    """ChainBands repeating a module bond table; PBC adds the two corners."""
    corners = [Jm, JmP] if p.boundary == PBC else [0.0, 0.0]
    return ChainBands(np.tile(np.append(upper, Jm), p.L)[:-1],
                      np.tile(np.append(lower, JmP), p.L)[:-1],
                      np.array(corners, dtype=complex))


def _check_dim(p):
    """The one check of the dimension cap, DEFAULT_DIM_CAP, made before
    anything D-sized is built."""
    if p.D > DEFAULT_DIM_CAP:
        raise DimensionCapError(
            "dimension D=%d exceeds cap %d" % (p.D, DEFAULT_DIM_CAP))


def bond_bands(p, J0, JL, JR, Jm, JmP):
    """ChainBands of p's chain (d, r, L and boundary) with the given
    couplings in place of p's (_bond_table), after the cap check
    (_check_dim)."""
    _check_dim(p)
    return _bands(p, *_bond_table(p, J0, JL, JR, Jm, JmP))


def chain_bands(p):
    """The chain's Hamiltonian as ChainBands, the one source of
    build_hamiltonian's dense matrix."""
    return bond_bands(p, p.J0, p.JL, p.JR, p.Jm, p.JmP)


def build_hamiltonian(p):
    """Real-space Hamiltonian of the full chain, a dense (D, D) complex
    ndarray made from its bands (chain_bands): a D above DEFAULT_DIM_CAP
    raises DimensionCapError before anything is built."""
    return chain_bands(p).dense()


def build_bloch(p, k):
    """Bloch Hamiltonian: the single-module block with corner entries
    JmP*exp(-ik) (top-right) and Jm*exp(+ik) (bottom-left).

    Parameters
    ----------
    p : ModelParams
    k : float or array of float
        Bloch phase in [0, 2*pi).

    Returns
    -------
    ndarray of shape k.shape + (r*d, r*d), complex
    """
    return build_generalized_bloch(p, np.exp(1j * np.asarray(k, dtype=float)))


def build_generalized_bloch(p, beta):
    """Generalized Bloch Hamiltonian: build_bloch with exp(ik) -> beta.

    Parameters
    ----------
    p : ModelParams
    beta : complex or array of complex
        Non-Bloch factor; must be nonzero.

    Returns
    -------
    ndarray of shape beta.shape + (r*d, r*d), complex
    """
    beta = np.asarray(beta, dtype=complex)
    if np.any(beta == 0):
        raise ValidationError("beta must be nonzero")
    upper, lower, Jm, JmP = _bond_table(p, p.J0, p.JL, p.JR, p.Jm, p.JmP)
    m = len(upper) + 1
    j = np.arange(m - 1)
    H = np.zeros(beta.shape + (m, m), dtype=complex)
    H[..., j, j + 1] += upper
    H[..., j + 1, j] += lower
    H[..., 0, m - 1] += JmP / beta
    H[..., m - 1, 0] += Jm * beta
    return H


def chiral_blocks(p, beta):
    """Off-diagonal blocks of the sublattice-sorted generalized Bloch matrix.

    Every bond links an even to an odd chain position when r*d is even, so
    sorting even positions before odd ones brings H_beta to
    [[0, hPlus], [hMinus, 0]]; the permuted matrix anticommutes with
    S = diag(+1,...,+1,-1,...,-1).

    Returns
    -------
    (hPlus, hMinus) : pair of ndarrays, each beta.shape + (r*d/2, r*d/2)

    Raises
    ------
    UnsupportedStructureError
        If r*d is odd (no alternating sublattice labeling exists).
    """
    if p.r * p.d % 2:
        raise UnsupportedStructureError(
            "model with r*d = %d is not bipartite; winding undefined" % (p.r * p.d))
    H = build_generalized_bloch(p, beta)
    return H[..., 0::2, 1::2], H[..., 1::2, 0::2]


def build_current_operator(p):
    """Total particle current operator i*(T - T^dagger).

    T is the sum of every rightward hop with unit amplitude (sublevel,
    intra-module, and inter-module bonds alike), so the operator is
    Hermitian and shares the hop support of the Hamiltonian.  A D above
    DEFAULT_DIM_CAP raises DimensionCapError before anything is built.

    Returns
    -------
    ndarray of shape (D, D), complex Hermitian
    """
    _check_dim(p)
    m = p.r * p.d
    T = _bands(p, np.ones(m - 1), np.zeros(m - 1), 1.0, 0.0).dense()
    return 1j * (T - T.conj().T)


# -- serialization ----------------------------------------------------------

CONFIG_KEYS = ("d", "r", "L", "J0", "JL_re", "JL_im", "JR_re", "JR_im",
               "Jm_re", "Jm_im", "JmP_re", "JmP_im", "boundary", "preset",
               "J_re", "J_im")


def params_to_config(p):
    """Serialize ModelParams to a flat dict of primitive values."""
    cfg = {
        "d": p.d, "r": p.r, "L": p.L, "J0": p.J0,
        "JL_re": p.JL.real, "JL_im": p.JL.imag,
        "JR_re": p.JR.real, "JR_im": p.JR.imag,
        "Jm_re": p.Jm.real, "Jm_im": p.Jm.imag,
        "JmP_re": p.JmP.real, "JmP_im": p.JmP.imag,
        "boundary": p.boundary,
        "preset": p.preset.kind if p.preset else "NONE",
        "J_re": p.preset.J.real if p.preset else 0.0,
        "J_im": p.preset.J.imag if p.preset else 0.0,
    }
    return cfg


def config_float(section, cfg, key, default=None):
    """cfg[key] as a finite float, or default where key is absent; a key
    that is missing without a default, or is not a finite number, raises
    ValidationError naming [section] and key."""
    if key not in cfg:
        if default is None:
            raise ValidationError("missing key %s in [%s]" % (key, section))
        return default
    try:
        v = float(cfg[key])
    except (TypeError, ValueError):
        raise ValidationError("[%s] %s is not a number: %r"
                              % (section, key, cfg[key]))
    if not np.isfinite(v):
        raise ValidationError("[%s] %s must be finite" % (section, key))
    return v


def params_from_config(cfg):
    """Parse ModelParams from a flat mapping (inverse of params_to_config).

    Unknown keys are rejected.  If a preset is named, (Jm, JmP) are derived
    from it; each coupling given explicitly (a Jm_* or JmP_* key) must then
    agree with its own derived value.
    """
    unknown = set(cfg) - set(CONFIG_KEYS)
    if unknown:
        raise ValidationError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    for key in ("d", "r", "L"):
        if key not in cfg:
            raise ValidationError("missing config key: %s" % key)

    def _int(key):
        try:
            v = float(cfg[key])
        except (TypeError, ValueError):
            raise ValidationError("config key %s is not a number: %r" % (key, cfg[key]))
        if not (np.isfinite(v) and v == int(v)):
            raise ValidationError("config key %s must be an integer" % key)
        return int(v)

    _float = partial(config_float, "model", cfg, default=0.0)

    preset_name = str(cfg.get("preset", "NONE")).strip()
    preset = None
    if preset_name not in ("NONE", ""):
        preset = CouplingPreset(kind=preset_name,
                                J=complex(_float("J_re"), _float("J_im")))
    JL = complex(_float("JL_re"), _float("JL_im"))
    JR = complex(_float("JR_re"), _float("JR_im"))
    Jm = complex(_float("Jm_re"), _float("Jm_im"))
    JmP = complex(_float("JmP_re"), _float("JmP_im"))
    boundary = str(cfg.get("boundary", OBC)).strip()
    if preset is not None:
        dJm, dJmP = preset.modular_couplings(JL, JR)
        for name, given, derived in (("Jm", Jm, dJm), ("JmP", JmP, dJmP)):
            if ((name + "_re" in cfg or name + "_im" in cfg)
                    and abs(given - derived) > 1e-12):
                raise ValidationError("explicit Jm/JmP inconsistent with preset %s"
                                      % preset.kind)
        Jm, JmP = dJm, dJmP
    return ModelParams(d=_int("d"), r=_int("r"), L=_int("L"), J0=_float("J0"),
                       JL=JL, JR=JR, Jm=Jm, JmP=JmP, boundary=boundary,
                       preset=preset)
