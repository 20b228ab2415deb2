"""Shared utilities: identifiers, errors, and small helpers.

Nothing in this package depends on any other ``repro`` subpackage; it is
the bottom of the dependency graph.
"""

from repro.util.errors import (
    ReproError,
    ConfigurationError,
    ValidationError,
)
from repro.util.ids import IdGenerator

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ValidationError",
    "IdGenerator",
]
