"""Exception types shared across the library."""


class BarnesZetaError(Exception):
    """Base class for all library errors."""


class DomainError(BarnesZetaError, ValueError):
    """Argument outside the region where the operation is defined."""


class PoleError(BarnesZetaError, ZeroDivisionError):
    """Evaluation requested exactly at a pole."""

    def __init__(self, pole, message=None):
        self.pole = pole
        super().__init__(message or f"evaluation at the pole s = {pole}")


class AccuracyError(BarnesZetaError, ArithmeticError):
    """Requested accuracy could not be reached within the fixed truncation.

    Carries the best value obtained so far in ``value`` and the achieved
    error bound in ``achieved``.
    """

    def __init__(self, message, value=None, achieved=None):
        self.value = value
        self.achieved = achieved
        super().__init__(message)
