"""Base exception hierarchy for the whole library.

Every subsystem derives its own exceptions from :class:`ReproError` so a
caller can catch library failures without catching unrelated bugs.
"""


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


class ConfigurationError(ReproError):
    """A component/system was configured with inconsistent parameters."""


class ValidationError(ReproError):
    """A descriptor, package, or document failed validation."""
