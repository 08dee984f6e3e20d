"""Shared exception types, the global arrow-search budget and the reader
of nonnegative integers from input."""

from __future__ import annotations

DEFAULT_BUDGET = 10**6


def resolve_budget(budget: int | None = None) -> int:
    """Effective hom-search cap: the explicit argument, else DEFAULT_BUDGET."""
    return DEFAULT_BUDGET if budget is None else int(budget)


def natural(value, what="value") -> int:
    """An integer from user input: a cardinality, a budget, a table entry or
    a predicate element, which must be a nonnegative integer.  Digit strings
    are parsed; floats and booleans are refused, not truncated.

    Also the argparse `type` of such options, where a ValueError becomes a
    usage error (exit code 3).
    """
    n = value
    if isinstance(value, str):
        try:
            n = int(value)
        except ValueError:
            n = None
    if type(n) is not int or n < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {value!r}")
    return n


class DoctrineError(Exception):
    """Base class for all library errors."""


class SearchBudgetExceeded(DoctrineError):
    """A scan or a materialization would exceed its budget.

    Raised instead of returning a negative answer, so order decisions are
    never unsound: a witness found within budget is still reported, but
    "no witness" is only ever the result of a complete scan.  `unit` says
    what `needed` and `budget` count: the candidate arrows of a hom-set
    scan unless the caller names another unit (order-matrix entries, fiber
    elements, ...).
    """

    def __init__(self, needed: int, budget: int, context: str = "", unit: str = "candidate arrows"):
        self.needed = needed
        self.budget = budget
        msg = f"search space of {needed} {unit} exceeds budget {budget}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class CapabilityError(DoctrineError):
    """An operation needs a structure or adjoint capability the object lacks."""


class WitnessValidationError(DoctrineError):
    """A found witness failed re-certification against the defining
    inequality.  Signals an inconsistent doctrine (for instance a reindex
    that disagrees with the order-decision hooks), never a negative answer.
    """


class LoadError(DoctrineError):
    """An input file failed validation; `law` names the violated invariant."""

    def __init__(self, message: str, law: str = "format"):
        self.law = law
        super().__init__(f"[{law}] {message}")
