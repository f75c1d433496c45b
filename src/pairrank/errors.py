"""Exception taxonomy shared across the package.

Everything raised on purpose derives from RankingError so callers can catch
one type. Input-shape and domain problems are ValueErrors as well, so code
written against plain numpy conventions keeps working.
"""

from __future__ import annotations


class RankingError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RankingError, ValueError):
    """Array dimensions do not match the operation's contract."""


class DomainError(RankingError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ParseError(RankingError, ValueError):
    """An input file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DanglingNodeError(DomainError):
    """A column sums to zero where a positive column sum is required."""

    def __init__(self, labels):
        self.labels = tuple(labels)
        names = ", ".join(self.labels)
        super().__init__(f"zero column sum (no recorded losses) for: {names}")


class ReducibilityError(DomainError):
    """The directed comparison graph is not strongly connected."""


class ConnectivityError(DomainError):
    """The undirected comparison graph is disconnected."""

    def __init__(self, components):
        self.components = tuple(tuple(c) for c in components)
        parts = "; ".join("{" + ", ".join(c) + "}" for c in self.components)
        super().__init__(f"comparison graph is disconnected: {parts}")


class SeparationError(DomainError):
    """A player won or lost every game, so the likelihood has no maximum."""

    def __init__(self, label: str, kind: str):
        self.label = label
        super().__init__(
            f"player {label!r} has {kind}; the maximum likelihood estimate "
            "does not exist (abilities diverge)"
        )


class NotQuasiSymmetricError(RankingError):
    """The matrix does not factor as diagonal times symmetric."""

    def __init__(self, residual: float, entry: tuple[int, int]):
        self.residual = residual
        self.entry = entry
        super().__init__(
            f"matrix is not quasi-symmetric: worst asymmetry {residual:.6g} "
            f"at entry {entry}"
        )


class ConsistencyError(RankingError):
    """Inputs that must agree with each other do not."""


class ConvergenceError(RankingError):
    """A solver's result missed its residual bound, its step budget ran
    out, or a Newton step found no ascent or a singular system."""

    def __init__(self, message: str, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DecompositionError(RankingError):
    """A numerical matrix decomposition failed to compute."""


class DegenerateSampleError(DomainError):
    """Too many simulated tournaments were degenerate to continue."""
