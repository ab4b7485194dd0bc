"""Exception types shared across the package."""

from __future__ import annotations

import math


class EntrateError(Exception):
    """Base class for all package-specific errors."""


class UnphysicalStateError(EntrateError, ValueError):
    """A covariance matrix or correlator set violates the uncertainty bound."""


class UnstableSystemError(EntrateError, RuntimeError):
    """The beam block of the drift, and so the drift, has an eigenvalue
    whose real part is positive or within STABILITY_TOL of zero (marginal)."""

    def __init__(self, max_real_part: float, message: str | None = None):
        self.max_real_part = float(max_real_part)
        if message is None:
            message = (
                "system is unstable: max eigenvalue real part "
                f"{self.max_real_part:+.6g} (units of kappa)"
            )
        super().__init__(message)


class QuadratureError(EntrateError, RuntimeError):
    """An adaptive integration did not converge to the requested tolerance,
    or a root search found no root where one must lie."""

    def __init__(self, message: str, value: float = math.nan,
                 error_estimate: float = math.nan):
        self.reason, self.value, self.error_estimate = message, value, error_estimate
        # a root search that fails has no value to report
        if not (math.isnan(value) and math.isnan(error_estimate)):
            message = f"{message} (value~{value:.6g}, error~{error_estimate:.3g})"
        super().__init__(message)
