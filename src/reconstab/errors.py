"""Exception types shared across the package."""


class ReconstabError(Exception):
    """Base class for all package errors."""


class SingularGram(ReconstabError):
    """Gram matrix is singular below the rank tolerance."""


class DimensionMismatch(ReconstabError):
    """Vector/matrix shapes are inconsistent."""


class SingularKernel(ReconstabError):
    """Training kernel cannot be inverted; the model cannot fit the labels."""


class MapMismatch(ReconstabError):
    """A query batch or label vector does not match the fitted model's rows."""


class DegenerateDenominator(ReconstabError):
    """Alignment denominator fell below the relative guard threshold."""


class DegenerateSpectrum(ReconstabError):
    """Hermite spectrum lacks the coefficients the operation requires."""


class QuadratureNonconvergent(ReconstabError):
    """Coefficient estimates kept moving after the node-count cap."""


class ConfigError(ReconstabError):
    """Experiment configuration is invalid."""
