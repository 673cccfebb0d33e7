"""Shared exception types."""


class ParseError(ValueError):
    """Raised for malformed QDIMACS or decision-list documents."""


class LimitError(RuntimeError):
    """Raised when an enumeration limit is exceeded."""
