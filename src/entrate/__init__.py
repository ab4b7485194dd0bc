"""Entanglement rates and spectral densities of entanglement for stationary
Gaussian continuous-variable beams emitted by linear bosonic networks."""

__version__ = "0.1.0"

from .closedforms import (eta_minus_resonant, full_model_correlators_resonant,
                          pair_rate_closed)
from .errors import (EntrateError, QuadratureError, UnphysicalStateError,
                     UnstableSystemError)
from .gaussian import (CorrelatorTriple, CovarianceMatrix, covariance_from_correlators,
                       log_negativity_general, symplectic_form, symplectic_spectrum)
from .models import (DriftMatrix, EffectiveModelParams, FullModelParams, StabilityReport,
                     drift_effective, drift_full, stability, stability_boundary_effective)
from .rates import RateResult, entanglement_rate, log_negativity, spectral_density
from .scattering import output_correlators, pair_rate_numeric
from .sweep import SweepAxis, SweepConfig, SweepResult, run_sweep
from .wannier import FilterSpec, filtered_entanglement, kernel_normalization, wannier_kernel

__all__ = [name for name in dir() if not name.startswith("_")]
