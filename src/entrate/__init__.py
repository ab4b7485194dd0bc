"""Entanglement rates and spectral densities of entanglement for stationary
Gaussian continuous-variable beams emitted by linear bosonic networks."""

__version__ = "0.1.0"

from .closedforms import (ComparisonResult, EnhancementFactors, compare_schemes,
                          enhancement_factors, eta_minus_resonant,
                          full_model_correlators_resonant, pair_rate_closed,
                          two_mode_scheme_correlators)
from .errors import (EntrateError, QuadratureError, UnphysicalStateError,
                     UnstableSystemError)
from .gaussian import (CorrelatorTriple, CovarianceMatrix, covariance_from_correlators,
                       log_negativity_general, log_negativity_two_mode,
                       symplectic_form, symplectic_spectrum)
from .models import (CellMapping, CellParams, DriftMatrix, EffectiveModelParams,
                     FullModelParams, StabilityReport, drift_effective, drift_full,
                     map_cell_params, stability, stability_batch,
                     stability_boundary_effective)
from .rates import (EntanglementSpectrum, RateResult, entanglement_rate,
                    entanglement_rates, fwhm, sample_spectrum, spectral_density,
                    symmetrized_density, to_nats_per_second)
from .scattering import (ScatteringMatrix, SpectrumPoint, output_correlators,
                         output_spectrum, pair_rate_numeric, scattering_matrix)
from .sweep import SweepAxis, SweepConfig, SweepResult, run_sweep
from .wannier import (FilterSpec, WannierGrid, coarse_grained_correlator,
                      filtered_entanglement, kernel_normalization, wannier_kernel)

__all__ = [name for name in dir() if not name.startswith("_")]
