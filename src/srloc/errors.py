"""Exception and warning types shared across the package."""


class SrlocError(Exception):
    """Base class for all srloc errors."""


class InvalidParameterError(SrlocError, ValueError):
    """An input violates its documented domain (e.g. non-positive wavenumber)."""


class NonFiniteSampleError(SrlocError, ArithmeticError):
    """An overlap function returned a non-finite value at a stencil point."""


class DegenerateBasisError(SrlocError):
    """The six-vector expansion basis is numerically linearly dependent."""


class DegenerateOverlapError(SrlocError):
    """|gamma| is too close to 1 for the closed-form expressions.

    Use the coincident-source limit instead.
    """


class SmallSeparationError(SrlocError):
    """Separations below the safe evaluation threshold of the requested route."""


class SingularMatrixError(SrlocError):
    """A matrix that must be inverted is numerically singular."""


class ModelValidityWarning(UserWarning):
    """Inputs lie outside the regime where the physical model is trustworthy."""
