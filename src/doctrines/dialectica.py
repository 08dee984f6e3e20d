"""The composite completion and the dialectica order.

Stacking the universal completion and then the existential one yields a
doctrine whose fiber over the terminal object carries the dialectica
order: objects are predicates alpha over B x C, and (B, C, alpha) is
below (B', C', beta) when a forward map f: B -> B' and a backward map
F: B x C' -> C satisfy

    (b, F(b, c')) in alpha   implies   (f(b), c') in beta.

`dial_leq` decides that condition directly; `dial_from_nested` and
`dial_to_nested` translate against the nested two-completion elements, so
the two decision procedures can be compared as independent oracles.

This module also houses the universal structure of an existential
completion over a base with exponentials: the right adjoint to
reindexing along a projection trades the quantified object B for the
exponential B^A2, reading `exists b. alpha(a1, a2, b)` as
`exists g: B^A2. forall a2. alpha(a1, a2, g(a2))`.  It is one reindex
along the evaluation expansion (A1 x B^A2) x A2 -> (A1 x A2) x B followed
by the base's forall along the binary projection onto A1 x B^A2.
"""

from __future__ import annotations

from typing import NamedTuple

from .completion import EX, UN, Completion, QuantElem, decide
from .doctrine import Doctrine
from .errors import CapabilityError, SearchBudgetExceeded, resolve_budget
from .fincat import Arrow, _canonical, graph_pr1, times_identity
from .poset import Preorder


@_canonical
def eval_expand_arrow(cat, a1, a2, b) -> Arrow:
    """(A1 x B^A2) x A2 -> (A1 x A2) x B, taking (a1, g, a2) to
    (a1, a2, g(a2)); built once per category."""
    e = cat.exponential(b, a2)
    ae = cat.product(a1, e)
    p_ae = cat.proj1(ae, a2)
    p_a2 = cat.proj2(ae, a2)
    p_g = cat.compose(cat.proj2(a1, e), p_ae)
    applied = cat.compose(cat.ev(b, a2), cat.pair(p_a2, p_g))
    return cat.pair(cat.pair(cat.compose(cat.proj1(a1, e), p_ae), p_a2), applied)


def forall_pr_exp(comp: Completion, split, x: QuantElem) -> QuantElem:
    """Right adjoint to reindexing along proj1(split) in an existential
    completion whose base is universal and whose category has exponents:
    one reindex along :func:`eval_expand_arrow`, then the base's forall
    along the projection (A1 x B^A2) x A2 -> A1 x B^A2.  A missing
    exponential or base forall raises its CapabilityError."""
    if comp.polarity != EX:
        raise CapabilityError("exponential forall lives in the existential completion")
    a1, a2 = split
    comp._check_elem(x)
    cat = comp.cat
    if x.base != cat.product(a1, a2):
        raise ValueError("element does not live over the stated product")
    e = cat.exponential(x.qobj, a2)
    delta = comp.base.reindex(eval_expand_arrow(cat, a1, a2, x.qobj), x.pred)
    return comp.elem(a1, e, comp.base.forall_pr((cat.product(a1, e), a2), delta))


# ---------------------------------------------------------------------------
# the dialectica order
# ---------------------------------------------------------------------------


class DialObj(NamedTuple):
    """A dialectica object: forward carrier, backward carrier, and a
    predicate over their product.  Immutable; compared and hashed as its
    field tuple."""

    src: object
    tgt: object
    pred: object


def dial_leq(doc: Doctrine, u: DialObj, v: DialObj, budget: int | None = None):
    """Decide u <= v under :func:`~doctrines.completion.decide`; return the
    least witnessing pair (f, F), certified once, or None.

    The doctrine's `dial_witness` kernel answers when it has one.  Otherwise
    pairs are scanned lexicographically with f major, and the scan raises
    SearchBudgetExceeded before it starts when the pair space (every f
    against every F) exceeds the budget.
    """
    cat = doc.cat
    answer = doc.dial_witness(u.src, u.tgt, v.src, v.tgt, u.pred, v.pred)
    if answer is not None and answer is not NotImplemented:
        f_table, big_f_table = answer
        f = Arrow(u.src, v.src, tuple(f_table))
        answer = f, Arrow(cat.product(u.src, v.tgt), u.tgt, tuple(big_f_table))

    def certify(u, v, pair):
        return dial_certifies(doc, u, v, *pair)

    return decide(answer, certify, u, v, _dial_pairs, cat, u, v, budget)


def _dial_pairs(cat, u: DialObj, v: DialObj, budget):
    """Every (f: B -> B', F: B x C' -> C), f major, after the budget check."""
    cap = resolve_budget(budget)
    n_f = cat.hom_size(u.src, v.src)
    n_big = cat.hom_size(cat.product(u.src, v.tgt), u.tgt)
    if n_f > cap or (n_f > 0 and n_big > 0 and n_f * n_big > cap):
        raise SearchBudgetExceeded(n_f * max(n_big, 1), cap, "dialectica pair search")
    for f in cat.iter_hom(u.src, v.src, cap):
        for big_f in cat.iter_hom(cat.product(u.src, v.tgt), u.tgt, cap):
            yield f, big_f


def dial_certifies(doc: Doctrine, u: DialObj, v: DialObj, f: Arrow, big_f: Arrow) -> bool:
    """P_<pr, F>(u.pred) <= P_(f x 1)(v.pred) in the fiber over src x tgt'."""
    graph = graph_pr1(doc.cat, u.src, v.tgt, big_f)
    lhs = doc.reindex(graph, u.pred)
    rhs = doc.reindex(times_identity(doc.cat, f, v.tgt), v.pred)
    return doc.fiber_leq(graph.dom, lhs, rhs)


# ---------------------------------------------------------------------------
# translation against the nested completions
# ---------------------------------------------------------------------------


def nested_completion(doc: Doctrine, budget: int | None = None) -> Completion:
    """The existential completion of the universal completion of `doc`."""
    return Completion(Completion(doc, UN, budget), EX, budget)


def dial_to_nested(nested: Completion, u: DialObj) -> QuantElem:
    """(B, C, alpha) as an element of the composite fiber over 1."""
    cat = nested.cat
    inner: Completion = nested.base
    one = cat.terminal
    ob = cat.product(one, u.src)
    # predicate over (1 x B) x C from one over B x C
    transport = times_identity(cat, cat.proj2(one, u.src), u.tgt)
    inner_elem = inner.elem(ob, u.tgt, inner.base.reindex(transport, u.pred))
    return nested.elem(one, u.src, inner_elem)


def dial_from_nested(nested: Completion, z: QuantElem) -> DialObj:
    """Inverse of :func:`dial_to_nested`, defined over the terminal object."""
    cat = nested.cat
    inner: Completion = nested.base
    one = cat.terminal
    if z.base != one:
        raise ValueError("nested element does not live over the terminal object")
    w = z.pred
    if not isinstance(w, QuantElem) or w.polarity != UN:
        raise ValueError("outer predicate is not a universal-completion element")
    if w.base != cat.product(one, z.qobj):
        raise ValueError("inner element does not live over 1 x B")
    unit_inv = cat.pair(cat.bang(z.qobj), cat.identity(z.qobj))  # B -> 1 x B
    transport = times_identity(cat, unit_inv, w.qobj)
    return DialObj(z.qobj, w.qobj, inner.base.reindex(transport, w.pred))


def dial_order_agrees(doc: Doctrine, u: DialObj, v: DialObj) -> bool:
    """Run both decision procedures on one pair and compare.

    The direct (f, F) search and the nested-completion order are
    independent implementations of the same relation; disagreement means
    a bug, and the law suite sweeps this over whole bounded fibers.
    """
    nested = nested_completion(doc)
    direct = dial_leq(doc, u, v) is not None
    via = nested.leq(dial_to_nested(nested, u), dial_to_nested(nested, v)) is not None
    return direct == via


def bounded_dialobjs(doc: Doctrine, max_card: int) -> list:
    """Every DialObj with carriers at most max_card, in deterministic order."""
    out = []
    for b in range(max_card + 1):
        for c in range(max_card + 1):
            for pred in doc.fiber_elements(doc.cat.product(b, c)):
                out.append(DialObj(b, c, pred))
    return out


def dial_preorder(doc: Doctrine, objs, budget=None):
    """The dialectica order on the given objects as an explicit Preorder,
    built from its classes by ``Preorder.from_le`` (at most 2·n·k decisions)."""
    return Preorder.from_le(list(objs), lambda u, v: dial_leq(doc, u, v, budget) is not None)
