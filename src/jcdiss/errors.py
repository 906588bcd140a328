"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, physics guards
(TruncationError, BohrFrequencyError, DriftError and friends) -> 3,
oracle mismatches -> 4.
"""


class JcdissError(Exception):
    """Base class for all package errors."""


class ConfigError(JcdissError):
    """Invalid scenario configuration. Carries the offending field path."""

    def __init__(self, message, field=None):
        self.field = field
        if field:
            message = f"{message} (field: {field})"
        super().__init__(message)


class DomainError(JcdissError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DimensionError(JcdissError, ValueError):
    """Operator or state shape inconsistent with the declared space."""


class ParameterError(JcdissError, ValueError):
    """Physical parameters outside the validity regime (hard error)."""


class PhysicsGuardError(JcdissError):
    """Base for runtime physics guards (exit code 3)."""


class TruncationError(PhysicsGuardError):
    """Fock-space truncation inadequate for the requested state or run."""


class BohrFrequencyError(PhysicsGuardError):
    """A rate-table Bohr frequency argument is not positive."""


class DriftError(PhysicsGuardError):
    """Trace or Hermiticity drift beyond tolerance, or a non-finite state."""


class DefectiveLiouvillianError(PhysicsGuardError):
    """The stationary state found leaves a residual ||L[rho]||_F beyond
    tolerance."""


class DegenerateKernelError(PhysicsGuardError):
    """Liouvillian kernel is not one-dimensional; no unique steady state."""


class SubspaceLeakError(PhysicsGuardError):
    """State has leaked out of the subspace an observable is defined on."""


class OracleMismatchError(JcdissError):
    """Numerical evolution disagrees with the analytic oracle (exit code 4)."""
