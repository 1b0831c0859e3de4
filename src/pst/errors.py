"""Errors shared across modules."""


class PstError(Exception):
    """Base class for all library errors."""


class CapExceeded(PstError):
    """A combinatorial budget was exceeded; the caller must shrink the
    request or switch to an explicit sampling policy.

    ``cap`` names the budget, ``limit`` is its value and ``predicted`` the
    size the request reached or would need (a lower bound when the check
    stops early), or None when no size is known."""

    def __init__(self, message: str, cap: str, limit: int, predicted: int | None = None):
        super().__init__(message)
        self.cap = cap
        self.limit = limit
        self.predicted = predicted
