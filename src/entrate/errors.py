"""Exception types shared across the package."""

from __future__ import annotations


class EntrateError(Exception):
    """Base class for all package-specific errors."""


class UnphysicalStateError(EntrateError, ValueError):
    """A covariance matrix or correlator set violates the uncertainty bound."""


class UnstableSystemError(EntrateError, RuntimeError):
    """The drift matrix has an eigenvalue with a real part that is positive
    or within STABILITY_TOL of zero (a marginal point)."""

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

    def __init__(self, message: str, value: float = float("nan"),
                 error_estimate: float = float("nan")):
        self.value = value
        self.error_estimate = error_estimate
        super().__init__(f"{message} (value~{value:.6g}, error~{error_estimate:.3g})")
