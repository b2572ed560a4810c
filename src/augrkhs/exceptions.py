"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when supplied data violates a documented precondition."""


class BudgetExceededError(ValidationError):
    """Raised when an enumeration or a dense array would exceed the entry budget."""


class RankDeficiencyError(ValidationError):
    """Raised when an encoder or Gram matrix is numerically rank-deficient."""


class DivergenceError(RuntimeError):
    """Raised when an optimizer produces a non-finite loss value."""


class InfeasibleTargetError(ValidationError):
    """Raised when no target function with the requested properties exists."""
