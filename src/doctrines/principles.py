"""Choice principles carried by the quantifier completions.

A provable existential yields a term-level witness (rule of choice), a
refuted universal yields a term-level counterexample, and over a
universal base with exponentials the two quantifier prefixes of a
predicate commute through the function space (Skolemization).  Terms are
arrows of the base category, recovered from canonical order witnesses
through the unit isomorphism A x 1 ~ A.
"""

from __future__ import annotations

from typing import NamedTuple

from .completion import EX, UN, Completion, QuantElem
from .dialectica import eval_expand_arrow
from .doctrine import op_doctrine
from .errors import CapabilityError, WitnessValidationError
from .fincat import Arrow, compose


def _via_unit(cat, w: Arrow, a) -> Arrow:
    """Precompose an A x 1 arrow with the unit isomorphism A -> A x 1."""
    unit_inv = cat.pair(cat.identity(a), cat.bang(a))
    return compose(w, unit_inv)


def extract_choice(comp: Completion, x: QuantElem) -> Arrow | None:
    """Rule of choice: from top <= (exists b. alpha) recover f with
    top <= alpha(a, f(a)), validated before it is returned; None exactly
    when the existential is not provable."""
    return _extract(comp, x, EX)


def extract_counterexample(comp: Completion, x: QuantElem) -> Arrow | None:
    """Counterexample property: from (forall b. alpha) <= bottom recover g
    with alpha(a, g(a)) <= bottom, validated before it is returned; None
    exactly when the universal is not refutable."""
    return _extract(comp, x, UN)


# polarity -> (wrong-completion message, certificate name)
_PRINCIPLES = {
    EX: ("choice extraction works in the existential completion", "choice witness"),
    UN: ("counterexample extraction works in the universal completion", "counterexample"),
}


def _extract(comp: Completion, x: QuantElem, polarity: str) -> Arrow | None:
    """The arrow behind top <= x (EX) or x <= bottom (UN).  The UN
    certificate is checked as its mirror: the EX condition over the
    order-reversed base, whose top is the base's bottom."""
    wrong_completion, certificate = _PRINCIPLES[polarity]
    if comp.polarity != polarity:
        raise CapabilityError(wrong_completion)
    a = x.base
    if polarity == EX:
        w, doc = comp.leq(comp.top(a), x), comp.base
    else:
        w, doc = comp.leq(x, comp.bottom(a)), op_doctrine(comp.base)
    if w is None:
        return None
    cat = comp.cat
    f = _via_unit(cat, w.arrow, a)
    graph = cat.pair(cat.identity(a), f)
    if not doc.fiber_leq(a, doc.top(a), doc.reindex(graph, x.pred)):
        raise WitnessValidationError(f"{certificate} {f!r} failed semantic validation")
    return f


class SkolemReport(NamedTuple):
    """Both quantifier prefixes of one predicate, with the mutual-order
    decision and its certificates."""

    lhs: QuantElem
    rhs: QuantElem
    lhs_le_rhs: object
    rhs_le_lhs: object

    @property
    def equal(self) -> bool:
        return self.lhs_le_rhs is not None and self.rhs_le_lhs is not None


def skolem_check(comp: Completion, a1, a2, b, alpha) -> SkolemReport:
    """Compare `forall_pr . exists` against `exists . forall_pr` of one
    predicate alpha over A1 x A2 x B, through the function space B^A2.

    Always reports equal for a correct implementation, which makes the
    operation a regression harness for the completion layer.
    """
    if comp.polarity != EX:
        raise CapabilityError("skolem check works in the existential completion")
    cat = comp.cat
    ab = cat.product(a1, a2)
    lhs = comp.forall_pr((a1, a2), comp.exists_pr((ab, b), comp.unit(cat.product(ab, b), alpha)))

    e = cat.exponential(b, a2)
    expand = eval_expand_arrow(cat, a1, a2, b)
    y0 = comp.unit(expand.dom, comp.base.reindex(expand, alpha))
    rhs = comp.exists_pr((a1, e), comp.forall_pr((cat.product(a1, e), a2), y0))

    return SkolemReport(lhs, rhs, comp.leq(lhs, rhs), comp.leq(rhs, lhs))
