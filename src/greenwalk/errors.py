"""Exception types shared across the toolkit, the one path every residual check takes, and its ledger."""

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


def require(name: str, residual, limit, error: type[GreenWalkError] = IntegrityError) -> float:
    """Check that residual is at most limit, and return the residual as a float.

    Outside ``recorded()`` a failed check raises ``error`` carrying (name,
    residual, limit); inside, every check is recorded and none raises.
    """
    check = (name, float(residual), float(limit))
    ledger = _ledger.get()
    if ledger is not None:
        ledger.append(check)
    elif failed(check):
        raise error(describe(check), check)
    return check[1]


def worst(ledger: list[Check]) -> list[Check]:
    """One check per name, in first-recorded order: a failed one if any, else the one of largest residual/limit."""
    kept: dict[str, Check] = {}
    for check in ledger:
        if check[0] not in kept or _rank(check) > _rank(kept[check[0]]):
            kept[check[0]] = check
    return list(kept.values())


def _rank(check: Check) -> tuple[bool, float]:
    _, residual, limit = check
    return failed(check), residual / limit if limit > 0 else float("inf")
