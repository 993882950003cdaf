"""Exception types shared across the package.

The CLI maps these onto process exit codes: config problems -> 1,
capacity/numeric problems -> 2.  Exit code 3, a failed validate check,
comes from the validate report's ``all_passed`` verdict, not from an
exception.
"""

from __future__ import annotations

import math
from dataclasses import fields


class CqdephError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(CqdephError, ValueError):
    """An argument violates a documented precondition."""


class CapacityError(CqdephError):
    """A requested object exceeds the supported problem size."""


class IntegrabilityError(InvalidArgumentError):
    """A spectral density fails its integrability requirements."""


class NumericsError(CqdephError):
    """A numeric guard tripped (truncation risk, non-convergence)."""


class ConfigError(CqdephError):
    """A run configuration file is malformed or incomplete."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _require_finite(record) -> None:
    """Raise InvalidArgumentError naming the first field of the dataclass
    ``record`` that is not a finite number."""
    for field in fields(record):
        value = getattr(record, field.name)
        if not math.isfinite(value):
            raise InvalidArgumentError(
                f"{type(record).__name__}.{field.name} must be finite, "
                f"got {value}")
