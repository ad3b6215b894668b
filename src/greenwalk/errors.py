"""Exception types shared across the toolkit, the one predicate that decides a residual check, and its ledger."""

from __future__ import annotations

import contextlib
from contextvars import ContextVar

Check = tuple[str, float, float]  # (name, residual, limit)


def failed(check: Check) -> bool:
    """Whether a check fails: its residual is not at most its limit, so a NaN residual fails."""
    _, residual, limit = check
    return not residual <= limit


def describe(check: Check) -> str:
    """A failed check as ``name: residual R exceeds L``, the text after ``FAIL`` on stderr."""
    name, residual, limit = check
    return f"{name}: residual {residual:.6e} exceeds {limit:.6e}"


class GreenWalkError(Exception):
    """Base class for all toolkit errors; ``check`` is the residual check that failed, if one did."""

    def __init__(self, message: str, check: Check | None = None):
        super().__init__(message)
        self.check = check


class ParseError(GreenWalkError):
    """Malformed graph or matrix input."""


class ValidationError(GreenWalkError):
    """A structural precondition was violated."""


class IntegrityError(GreenWalkError):
    """A computed object failed one of its defining residual checks."""


class NumericalError(GreenWalkError):
    """Linear algebra did not reach the required accuracy."""


class RunawayError(GreenWalkError):
    """A simulated walk exceeded its step cap."""


_ledger: ContextVar[list[Check] | None] = ContextVar("ledger", default=None)


@contextlib.contextmanager
def recorded():
    """Every check ``require`` makes in this context, in call order, raising none; an inner context keeps its own."""
    token = _ledger.set([])
    try:
        yield _ledger.get()
    finally:
        _ledger.reset(token)


def require(name: str, residual, limit, error: type[GreenWalkError] = IntegrityError) -> None:
    """Raise ``error`` carrying the check (name, residual, limit) when it fails; inside ``recorded()``, record it."""
    check = (name, float(residual), float(limit))
    ledger = _ledger.get()
    if ledger is not None:
        ledger.append(check)
    elif failed(check):
        raise error(describe(check), check)
