"""Exception types shared across the package.

Every failure surfaced to callers derives from OpsError so CLI and tests can
map failures to exit codes without matching on message text.
"""

from __future__ import annotations

from dataclasses import dataclass


class OpsError(Exception):
    """Base class for all errors raised by this package."""


class TypeSyntaxError(OpsError):
    """Malformed type string. Carries the character offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class SchemaError(OpsError):
    """Descriptor document violates the YAML schema."""


class RegistrationError(OpsError):
    """Invalid registration: bad op metadata, cyclic hierarchy, duplicates."""


@dataclass(frozen=True)
class NearMiss:
    """A candidate that was considered and skipped during matching."""

    source: str
    reason: str
    param: str

    def render(self) -> str:
        return f"{self.source} :: {self.reason} @ param {self.param}"


class NoMatchError(OpsError):
    """No op satisfied the request. Holds the near-miss log for diagnosis."""

    def __init__(self, message: str, near_misses: tuple[NearMiss, ...] = ()):
        lines = [message]
        lines.extend(m.render() for m in near_misses)
        super().__init__("\n".join(lines))
        self.near_misses = near_misses


class DependencyCycleError(OpsError):
    """Dependency resolution exceeded the depth cap. Names the request path."""

    def __init__(self, path: tuple[str, ...], depth: int):
        super().__init__(
            f"dependency resolution exceeded depth {depth}, cycle path: "
            + " -> ".join(path)
        )
        self.path = path


class ExecutionError(OpsError):
    """An op body failed while executing. Carries the tree signature."""

    def __init__(self, message: str, signature: str | None = None):
        super().__init__(message)
        self.signature = signature


class DimensionMismatchError(ExecutionError):
    """Computed content does not fit the supplied container."""


class PreconditionError(ExecutionError):
    """An op body rejected its arguments before doing any work."""
