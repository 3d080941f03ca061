"""Non-Hermitian lattice toolkit.

Modular tight-binding chains with asymmetric couplings: real-space and
Bloch constructors, generalized-Brillouin-zone spectra, point/line gap
diagnostics with winding numbers, and Fisher-information machinery for
criticality-enhanced parameter estimation.
"""

from .errors import (AtTransitionError, BoundUndefinedError, ConvergenceError,
                     DerivativeIllDefinedError, DimensionCapError,
                     NumericalError, SingularModelError,
                     UnsupportedStructureError, ValidationError)
from .gbz import (GbzContour, beta_polynomial, beta_roots, gbz_contour,
                  gbz_radius, point_gap_residual, skin_frame)
from .harness import (DEFAULT_L_GRID, OBSERVABLES, PRESET_NAMES, PeakResult,
                      ScalingFit, SweepSpec, SweepTable, coupling_scaling,
                      exponent_vs_delta, find_peak, fit_power_law,
                      matrix_size_scaling, preset, preset_manifest, run_sweep,
                      size_scaling)
from .metrology import (DEFAULT_STEP, PARAM_LABELS, FisherMatrix, ParamSpec,
                        Povm, apply_params, cfi, cfim, current_basis,
                        family_state_derivative, model_spectrum,
                        position_basis, probe_state, qfi, qfim,
                        state_derivative, total_variance_bound)
from .model import (CONFIG_KEYS, NON_MODULAR, OBC, PBC, RECIPROCAL_MODULAR,
                    SHIFTED, CouplingPreset, ModelParams, build_bloch,
                    build_current_operator, build_generalized_bloch,
                    build_hamiltonian, chiral_blocks, make_params,
                    params_from_config, params_to_config)
from .spectral import (DEFAULT_TOL_EIG, LocalizationProfile,
                       SpectralDecomposition, cumulative_population,
                       full_spectrum, participation_ratio, steady_state)
from .topology import (GapReport, WindingResult, band_winding,
                       count_spectral_loops, direct_band_minimum, edge_states,
                       gbz_zero_gap_solutions, line_gap_minima,
                       obc_central_gap, obc_side_gap, pbc_zero_gap_solutions,
                       spectral_winding)

__version__ = "0.1.0"
