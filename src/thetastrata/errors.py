"""Shared exception types."""


class CapExceededError(RuntimeError):
    """A hard numeric or combinatorial cap was hit (truncation radius,
    orbit genus or orbit memory).  Distinct from a domain error: the
    question was well-posed but too expensive to answer within the
    configured limits."""
