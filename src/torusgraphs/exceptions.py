"""Exception hierarchy.

Domain errors (bad inputs, violated preconditions) and numerical errors
(singular systems, failed iterations) are kept distinct so the CLI can map
them to different exit codes. The checks of sampler counts and seeds, which
every command that draws shares, live here too.
"""

import numbers


class TorusGraphError(Exception):
    """Base class for all package errors."""


class DomainError(TorusGraphError, ValueError):
    """Invalid input: violated precondition, bad shape, out-of-range value."""


class DegenerateDataError(DomainError):
    """Data admits no answer (e.g. zero denominator in a correlation)."""


class UnidentifiedMeanError(DomainError):
    """Mean direction requested for a node with zero concentration."""


class FamilyScopeError(DomainError):
    """Operation called outside the model family it is derived for."""


class ParseError(DomainError):
    """Malformed input file; carries row/column location when known."""

    def __init__(self, message, row=None, column=None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.row = row
        self.column = column


class SchemaError(TorusGraphError, ValueError):
    """JSON document does not match its declared schema (a usage error)."""


class NumericalError(TorusGraphError, ArithmeticError):
    """Numerical failure: ill-conditioning, non-convergence, degenerate test."""


class SingularMomentsError(NumericalError):
    """Empirical moment matrix is singular or too ill-conditioned to solve."""


class DegenerateTestError(NumericalError):
    """Test covariance block is singular."""


class ConvergenceError(NumericalError):
    """Iterative solver failed to converge within its iteration budget."""


def add_context(exc, context):
    """Prefix ``context`` to an exception's message in place and return it.

    The exception keeps its type and attributes (``ParseError.row`` and the
    like), so a caller can re-raise it with a bare ``raise`` and its handlers
    and exit codes still match. The message is the first argument when that
    is a string; otherwise the context is attached as a note where Python
    supports notes (3.11+).
    """
    if exc.args and isinstance(exc.args[0], str):
        exc.args = (f"{context}: {exc.args[0]}",) + exc.args[1:]
    elif hasattr(exc, "add_note"):
        exc.add_note(context)
    return exc


def is_integer(value):
    """An integer that is not a boolean (JSON true/false parse as bool)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name, value, minimum):
    """The one check of a sampler's count: DomainError unless ``value`` is an
    integer and at least ``minimum``."""
    if not is_integer(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}")


def check_seed(seed):
    """The one check of a seed: DomainError unless it is an integer >= 0."""
    if not is_integer(seed):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
