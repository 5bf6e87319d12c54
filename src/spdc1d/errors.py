"""Exception types shared across the package."""


class SpdcError(Exception):
    """Base class for all package errors."""


class OutOfWindow(SpdcError):
    """Frequency lies outside a material's declared validity window."""


class SingularMatrix(SpdcError):
    """A matrix that must be invertible is numerically singular."""


class GridTooCoarse(SpdcError):
    """Time grid violates the Nyquist criterion for the spectral window."""


class NumericalBreakdown(SpdcError):
    """A computed map is not finite: the numerics broke down."""


class NoPeak(SpdcError):
    """A curve has no usable peak (flat or all below floor)."""


class StepTooCoarse(SpdcError):
    """z-integration step too large relative to the thinnest layer."""


class ConfigError(SpdcError):
    """Invalid or inconsistent run configuration."""
