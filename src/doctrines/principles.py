"""Choice principles carried by the quantifier completions.

A provable existential yields a term-level witness (rule of choice), a
refuted universal yields a term-level counterexample, and over a
universal base with exponentials the two quantifier prefixes of a
predicate commute through the function space (Skolemization).  Terms are
arrows of the base category, recovered from canonical order witnesses
through the unit isomorphism A x 1 ~ A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .completion import EX, UN, Completion, QuantElem
from .dialectica import eval_expand_arrow
from .doctrine import CAP_LAT
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
    if comp.polarity != EX:
        raise CapabilityError("choice extraction works in the existential completion")
    if CAP_LAT not in comp.base.caps:
        raise CapabilityError("rule of choice assumes base fibers with finite meets")
    w = comp.leq(comp.top(x.base), x)
    if w is None:
        return None
    f = _via_unit(comp.cat, w.arrow, x.base)
    if not _choice_valid(comp, x, f):
        raise WitnessValidationError(f"choice witness {f!r} failed semantic validation")
    return f


def _choice_valid(comp: Completion, x: QuantElem, f: Arrow) -> bool:
    cat = comp.cat
    graph = cat.pair(cat.identity(x.base), f)
    return comp.base.fiber_leq(x.base, comp.base.top(x.base), comp.base.reindex(graph, x.pred))


def extract_counterexample(comp: Completion, x: QuantElem) -> Arrow | None:
    """Counterexample property: from (forall b. alpha) <= bottom recover g
    with alpha(a, g(a)) <= bottom, validated before it is returned; None
    exactly when the universal is not refutable."""
    if comp.polarity != UN:
        raise CapabilityError("counterexample extraction works in the universal completion")
    if CAP_LAT not in comp.base.caps:
        raise CapabilityError("counterexample property assumes base fibers with finite joins")
    w = comp.leq(x, comp.bottom(x.base))
    if w is None:
        return None
    g = _via_unit(comp.cat, w.arrow, x.base)
    if not _counterexample_valid(comp, x, g):
        raise WitnessValidationError(f"counterexample {g!r} failed semantic validation")
    return g


def _counterexample_valid(comp: Completion, x: QuantElem, g: Arrow) -> bool:
    cat = comp.cat
    graph = cat.pair(cat.identity(x.base), g)
    return comp.base.fiber_leq(
        x.base, comp.base.reindex(graph, x.pred), comp.base.bottom(x.base)
    )


@dataclass
class SkolemReport:
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
