"""Exception hierarchy shared across the package, and the type tests that
config validation raises it on."""
import math
import numbers


def is_count(value) -> bool:
    """An integer that is not a bool, as every count in a config must be."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite real number that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


class WavefeatError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(WavefeatError, ValueError):
    """Raised when operation inputs violate a documented precondition."""


class SplitError(InvalidInputError):
    """Raised when a fold of a k-fold split leaves rows that no model can
    fit on: fewer than 2, or for classification rows of fewer than 2
    classes."""


class UnsupportedWaveletError(InvalidInputError):
    """Raised when a (family, order) pair is not in the filter registry."""


class InvalidConfigError(WavefeatError, ValueError):
    """Raised for inconsistent pipeline / grid configurations."""


class DataFormatError(WavefeatError, ValueError):
    """Base class for dataset ingestion problems."""


class ParseError(DataFormatError):
    """Dataset file could not be parsed."""


class GridMismatchError(DataFormatError):
    """Samples in a dataset do not share one wavenumber grid."""


class MissingLabelError(DataFormatError):
    """Dataset rows lack class labels."""


class InvalidDatasetError(DataFormatError):
    """Dataset values break the schema: a non-finite wavenumber or intensity,
    a wavenumber grid that is empty or not strictly monotone, fewer than 2
    samples, or, for classification and clustering, fewer than 2 classes."""


class NumericalError(WavefeatError, ArithmeticError):
    """Raised when a computation meets values it cannot work with, such as
    a distance matrix with non-finite entries."""
