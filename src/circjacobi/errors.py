"""Exception types shared across the package."""


class CircJacobiError(Exception):
    """Base class for all package errors."""


class ParameterError(CircJacobiError, ValueError):
    """An argument is outside the admissible domain of an operation."""


class InvariantError(CircJacobiError, ValueError):
    """A structural invariant failed at construction time."""


class DegenerateCoefficientError(CircJacobiError, ValueError):
    """A deformed coefficient equals 1, so its phase factor is undefined.

    This has probability zero under every sampling law handled here; hitting
    it on real data signals an upstream bug, so it is never silently repaired.
    """


class PoleError(CircJacobiError, ArithmeticError):
    """Evaluation requested at (or numerically on top of) a pole."""


class NumericDegeneracyError(CircJacobiError, RuntimeError):
    """Inverse spectral map lost to rounding: an interior coefficient reached the circle."""


class NonCyclicVectorError(CircJacobiError, RuntimeError):
    """A weight of `spectral_measure`, whose matrix may come from outside, fell below the floor."""


class ConvergenceError(CircJacobiError, RuntimeError):
    """An iterative eigensolver exceeded its budget."""


class TruncationWarning(UserWarning):
    """A truncated series carries a tail estimate above the reporting bound."""
