"""Exception types shared across the package."""


class ReconstabError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(ReconstabError):
    """Shapes are inconsistent, e.g. a query batch against the fitted rows."""


class SingularKernel(ReconstabError):
    """Training kernel is not positive definite, or its smallest eigenvalue is
    below the rank tolerance; the model cannot fit the labels."""


class DegenerateDenominator(ReconstabError):
    """Alignment denominator fell below the relative guard threshold."""


class DegenerateSpectrum(ReconstabError):
    """Hermite spectrum lacks the coefficients the operation requires."""


class QuadratureNonconvergent(ReconstabError):
    """Coefficient estimates kept moving after the node-count cap."""


class ConfigError(ReconstabError):
    """Experiment configuration is invalid."""
