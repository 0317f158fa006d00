"""Exception types shared across the package."""


class EitDiskError(Exception):
    """Base class for all package-specific errors."""


class DegenerateTangent(EitDiskError):
    """Curve tangent vanished at an evaluation point."""


class InsufficientSamples(EitDiskError):
    """Too few samples to resolve the requested Fourier order."""


class CoincidentPoints(EitDiskError):
    """Kernel evaluation requested at coincident source and target."""


class SingularSystem(EitDiskError):
    """A dense solve hit a numerically singular matrix."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class NoiseDominates(EitDiskError):
    """Discrepancy target exceeds the data norm; nothing to fit.

    ``columns`` of the ``total`` right-hand sides solved together failed.
    """

    def __init__(self, columns, total):
        super().__init__(f"discrepancy target reaches |b| in {columns} of {total} column(s)")
        self.columns = columns
        self.total = total


class TooCloseToBoundary(EitDiskError):
    """Sampling point too close to the measurement circle."""


class NoContour(EitDiskError):
    """Requested level set is empty or not closed inside the mask."""


class DegenerateFit(EitDiskError):
    """Fitted curve has a vanishing or negative Jacobian."""


class ResidualTooLarge(EitDiskError):
    """Data-completion residual is inconsistent with the noise level."""


class AllMasked(EitDiskError):
    """Every node was excluded by the smallness mask."""


class RankDeficientWarning(UserWarning):
    """Least-squares system had effective rank below the basis size."""


class AllModesCutWarning(UserWarning):
    """Spectral cutoff removed every mode; solution is identically zero."""
