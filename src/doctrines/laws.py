"""Law verification: every law of a doctrine and its completions, checked
under one outcome policy.

Each law exhaustively checks one theorem on bounded data: the base-doctrine
laws (functoriality, monotonicity, declared adjunctions, Beck-Chevalley
squares, fiber lattices), the completion preorder, the projection/injection
adjunctions, strict Beck-Chevalley equalities, fiberwise lattice
structure, the order duality between the two completions, the monad
identities, Skolemization together with the choice principles, and the
dialectica oracle equivalence.  `_LAWS` names each law's body; a suite is
a tuple of law names; :func:`run_laws` is the one place that turns a
body's outcome into a :class:`LawResult`.  :func:`verify_doctrine` runs
the base-doctrine laws a doctrine's capabilities select, :func:`run_suite`
runs a suite.

All laws iterate in deterministic ascending order, so a FAIL always
carries the smallest counterexample found first; anything cut short by a
search budget or a missing capability is reported SKIPPED, never PASS.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial

from .completion import EX, UN, Completion, QuantElem, dual_completion, duality_transport
from .dialectica import (
    DialObj,
    bounded_dialobjs,
    dial_from_nested,
    dial_leq,
    dial_preorder,
    dial_to_nested,
    forall_pr_exp,
    nested_completion,
)
from .doctrine import (
    CAP_ALONG_ALL,
    CAP_EX_PR,
    CAP_INJ_LEFT,
    CAP_INJ_RIGHT,
    CAP_LAT,
    CAP_UN_PR,
    Doctrine,
    powerset_doctrine,
)
from .errors import CapabilityError, SearchBudgetExceeded, WitnessValidationError
from .fincat import SkelFinSet, product_map
from .poset import Poset, lattice_check, poset_reflect
from .principles import extract_choice, extract_counterexample, skolem_check
from .report import FAIL, PASS, SKIPPED, LawReport, LawResult


@dataclass
class LawContext:
    """Everything a law needs; completions can be swapped for sabotaged
    variants when exercising the negative controls."""

    doctrine: Doctrine = field(default_factory=powerset_doctrine)
    max_card: int = 2
    qmax: int = 2
    seed: int = 2024
    budget: int | None = None
    comp_ex: Completion | None = None
    comp_un: Completion | None = None

    def __post_init__(self):
        if self.comp_ex is None:
            self.comp_ex = Completion(self.doctrine, EX, self.budget)
        if self.comp_un is None:
            self.comp_un = Completion(self.doctrine, UN, self.budget)

    @property
    def objects(self):
        """Cardinalities up to max_card over finite sets, else every declared object."""
        if isinstance(self.doctrine.cat, SkelFinSet):
            return list(range(self.max_card + 1))
        return sorted(self.doctrine.cat.objects(), key=repr)

    def arrows(self):
        objs = self.objects
        for a in objs:
            for b in objs:
                yield from self.doctrine.cat.iter_hom(a, b, self.budget)

    def completion(self, polarity) -> Completion:
        return self.comp_ex if polarity == EX else self.comp_un

    def elem_json(self, x: QuantElem):
        return self.completion(x.polarity).pred_to_json(x.base, x)


# ---------------------------------------------------------------------------
# base-doctrine laws
# ---------------------------------------------------------------------------


def _law_reindex_identity(ctx):
    doc = ctx.doctrine
    checked = 0
    for a in ctx.objects:
        ident = doc.cat.identity(a)
        for p in doc.fiber_elements(a):
            checked += 1
            if not doc.fiber_eq(a, doc.reindex(ident, p), p):
                return checked, {"object": a, "pred": p}
    return checked, None


def _law_reindex_composition(ctx):
    doc = ctx.doctrine
    checked = 0
    arrows = list(ctx.arrows())
    for f in arrows:
        for g in arrows:
            if g.dom != f.cod:
                continue
            gf = doc.cat.compose(g, f)
            for p in doc.fiber_elements(g.cod):
                checked += 1
                two_step = doc.reindex(f, doc.reindex(g, p))
                one_step = doc.reindex(gf, p)
                if not doc.fiber_eq(f.dom, two_step, one_step):
                    return checked, {"f": list(f.table), "g": list(g.table),
                                     "dom": f.dom, "mid": f.cod, "cod": g.cod, "pred": p}
    return checked, None


def _law_reindex_monotone(ctx):
    doc = ctx.doctrine
    checked = 0
    for f in ctx.arrows():
        for p in doc.fiber_elements(f.cod):
            for q in doc.fiber_elements(f.cod):
                if not doc.fiber_leq(f.cod, p, q):
                    continue
                checked += 1
                if not doc.fiber_leq(f.dom, doc.reindex(f, p), doc.reindex(f, q)):
                    return checked, {"f": list(f.table), "dom": f.dom, "cod": f.cod, "p": p, "q": q}
    return checked, None


def _check_adjunction_arrow(doc, f, side):
    count = 0
    for u in doc.fiber_elements(f.dom):
        for v in doc.fiber_elements(f.cod):
            count += 1
            if side == "exists":
                lhs = doc.fiber_leq(f.cod, doc.exists_along(f, u), v)
                rhs = doc.fiber_leq(f.dom, u, doc.reindex(f, v))
            else:
                lhs = doc.fiber_leq(f.dom, doc.reindex(f, v), u)
                rhs = doc.fiber_leq(f.cod, v, doc.forall_along(f, u))
            if lhs != rhs:
                cex = {
                    "f": list(f.table), "dom": f.dom, "cod": f.cod,
                    "u": u, "v": v, "lhs": lhs, "rhs": rhs,
                }
                return count, cex
    return count, None


def _law_adjunction_along(ctx, side):
    """exists_along(f) -| reindex(f), or reindex(f) -| forall_along(f), on
    every arrow the doctrine has an adjoint for; arrows without one are
    skipped (a doctrine only claims the adjoints it declares)."""
    checked = 0
    for f in ctx.arrows():
        try:
            count, cex = _check_adjunction_arrow(ctx.doctrine, f, side)
        except CapabilityError:
            continue
        checked += count
        if cex is not None:
            return checked, cex
    return checked, None


def _law_bc_projections(ctx):
    """For f: D -> A and any C, quantifying along pr then substituting f
    equals substituting fx1 then quantifying along pr'."""
    doc = ctx.doctrine
    objs = ctx.objects
    checked = 0
    for f in ctx.arrows():
        d, a = f.dom, f.cod
        for c in objs:
            ac = doc.cat.product(a, c)
            fx1 = product_map(doc.cat, f, doc.cat.identity(c))
            for beta in doc.fiber_elements(ac):
                checked += 1
                if CAP_EX_PR in doc.caps:
                    left = doc.reindex(f, doc.exists_pr((a, c), beta))
                    right = doc.exists_pr((d, c), doc.reindex(fx1, beta))
                    if not doc.fiber_eq(d, left, right):
                        return checked, {"side": "exists", "f": list(f.table), "dom": d,
                                         "cod": a, "c": c, "beta": beta}
                if CAP_UN_PR in doc.caps:
                    left = doc.reindex(f, doc.forall_pr((a, c), beta))
                    right = doc.forall_pr((d, c), doc.reindex(fx1, beta))
                    if not doc.fiber_eq(d, left, right):
                        return checked, {"side": "forall", "f": list(f.table), "dom": d,
                                         "cod": a, "c": c, "beta": beta}
    return checked, None


def _law_bc_injections(ctx):
    """Pullback squares of coproduct injections: the square with g = f+h
    over j_C, j_A commutes with the injection adjoints."""
    doc = ctx.doctrine
    cat = doc.cat
    objs = ctx.objects
    checked = 0
    for a in objs:
        for b in objs:
            for c in objs:
                for d in objs:
                    for f in cat.iter_hom(c, a, ctx.budget):
                        for h in cat.iter_hom(d, b, ctx.budget):
                            g = cat.copair(
                                cat.compose(cat.inj1(a, b), f),
                                cat.compose(cat.inj2(a, b), h),
                            )
                            for eps in doc.fiber_elements(a):
                                checked += 1
                                if CAP_INJ_LEFT in doc.caps:
                                    left = doc.exists_inj((c, d), doc.reindex(f, eps))
                                    right = doc.reindex(g, doc.exists_inj((a, b), eps))
                                    if not doc.fiber_eq(cat.coproduct(c, d), left, right):
                                        return checked, {"side": "exists", "f": list(f.table),
                                                         "h": list(h.table), "a": a, "b": b,
                                                         "c": c, "d": d, "pred": eps}
                                if CAP_INJ_RIGHT in doc.caps:
                                    left = doc.forall_inj((c, d), doc.reindex(f, eps))
                                    right = doc.reindex(g, doc.forall_inj((a, b), eps))
                                    if not doc.fiber_eq(cat.coproduct(c, d), left, right):
                                        return checked, {"side": "forall", "f": list(f.table),
                                                         "h": list(h.table), "a": a, "b": b,
                                                         "c": c, "d": d, "pred": eps}
    return checked, None


def _law_lat_fibers(ctx):
    doc = ctx.doctrine
    checked = 0
    for a in ctx.objects:
        elems = list(doc.fiber_elements(a))
        pos = Poset.from_le(elems, lambda p, q, a=a: doc.fiber_leq(a, p, q))
        rep = lattice_check(pos)
        checked += pos.n * pos.n
        if not rep.ok:
            return checked, {"object": a, "failures": rep.failures[:3]}
        # pos.labels is elems, so an element's label index is its position
        for i, p in enumerate(elems):
            for j, q in enumerate(elems):
                checked += 1
                key = (i, j) if i <= j else (j, i)
                if not doc.fiber_eq(a, doc.meet(a, p, q), elems[rep.meet[key]]):
                    return checked, {"object": a, "p": p, "q": q, "op": "meet"}
                if not doc.fiber_eq(a, doc.join(a, p, q), elems[rep.join[key]]):
                    return checked, {"object": a, "p": p, "q": q, "op": "join"}
        if not doc.fiber_eq(a, doc.top(a), elems[rep.top]):
            return checked, {"object": a, "op": "top"}
        if not doc.fiber_eq(a, doc.bottom(a), elems[rep.bottom]):
            return checked, {"object": a, "op": "bottom"}
    return checked, None


def _law_reindex_preserves_lattice(ctx):
    doc = ctx.doctrine
    checked = 0
    for f in ctx.arrows():
        for p in doc.fiber_elements(f.cod):
            for q in doc.fiber_elements(f.cod):
                checked += 1
                if not doc.fiber_eq(
                    f.dom,
                    doc.reindex(f, doc.meet(f.cod, p, q)),
                    doc.meet(f.dom, doc.reindex(f, p), doc.reindex(f, q)),
                ):
                    return checked, {"f": list(f.table), "op": "meet", "p": p, "q": q}
                if not doc.fiber_eq(
                    f.dom,
                    doc.reindex(f, doc.join(f.cod, p, q)),
                    doc.join(f.dom, doc.reindex(f, p), doc.reindex(f, q)),
                ):
                    return checked, {"f": list(f.table), "op": "join", "p": p, "q": q}
        checked += 1
        if not doc.fiber_eq(f.dom, doc.reindex(f, doc.top(f.cod)), doc.top(f.dom)):
            return checked, {"f": list(f.table), "op": "top"}
        if not doc.fiber_eq(f.dom, doc.reindex(f, doc.bottom(f.cod)), doc.bottom(f.dom)):
            return checked, {"f": list(f.table), "op": "bottom"}
    return checked, None


# ---------------------------------------------------------------------------
# the completion preorder
# ---------------------------------------------------------------------------


def _law_leq_reflexive(ctx, polarity):
    comp = ctx.completion(polarity)
    checked = 0
    for a in ctx.objects:
        for x in comp.bounded_fiber(a, ctx.qmax):
            checked += 1
            if comp.leq(x, x, ctx.budget) is None:
                return checked, ctx.elem_json(x)
    return checked, None


def _law_leq_transitive(ctx, polarity):
    comp = ctx.completion(polarity)
    checked = 0
    for a in ctx.objects:
        elems = comp.bounded_fiber(a, ctx.qmax)
        n = len(elems)
        mat = [[comp.leq(x, y, ctx.budget) is not None for y in elems] for x in elems]
        for i in range(n):
            for j in range(n):
                if not mat[i][j]:
                    continue
                for k in range(n):
                    checked += 1
                    if mat[j][k] and not mat[i][k]:
                        return checked, {"x": ctx.elem_json(elems[i]), "y": ctx.elem_json(elems[j]),
                                         "z": ctx.elem_json(elems[k])}
    return checked, None


def _law_reindex_q_functorial(ctx, polarity):
    comp = ctx.completion(polarity)
    checked = 0
    arrows = list(ctx.arrows())
    for g in arrows:
        for x in comp.bounded_fiber(g.cod, min(ctx.qmax, 1)):
            checked += 1
            if comp.reindex(comp.cat.identity(g.cod), x) != x:
                return checked, {"law": "identity", "x": ctx.elem_json(x)}
            gx = comp.reindex(g, x)
            for f in arrows:
                if f.cod != g.dom:
                    continue
                checked += 1
                if comp.reindex(f, gx) != comp.reindex(comp.cat.compose(g, f), x):
                    return checked, {"f": list(f.table), "g": list(g.table), "x": ctx.elem_json(x)}
    return checked, None


# ---------------------------------------------------------------------------
# adjunctions
# ---------------------------------------------------------------------------


def _splittings(ctx):
    for a1 in ctx.objects:
        for a2 in ctx.objects:
            yield a1, a2


def _law_pr_adjunction(ctx, polarity):
    """exists_pr -| reindex(pr1) on EX fibers, reindex(pr1) -| forall_pr on UN."""
    comp = ctx.completion(polarity)
    checked = 0
    for a1, a2 in _splittings(ctx):
        prod = comp.cat.product(a1, a2)
        pr1 = comp.cat.proj1(a1, a2)
        for x in comp.bounded_fiber(prod, ctx.qmax):
            for y in comp.bounded_fiber(a1, ctx.qmax):
                checked += 1
                if polarity == EX:
                    lhs = comp.leq(comp.exists_pr((a1, a2), x), y, ctx.budget) is not None
                    rhs = comp.leq(x, comp.reindex(pr1, y), ctx.budget) is not None
                else:
                    lhs = comp.leq(comp.reindex(pr1, y), x, ctx.budget) is not None
                    rhs = comp.leq(y, comp.forall_pr((a1, a2), x), ctx.budget) is not None
                if lhs != rhs:
                    return checked, {"a1": a1, "a2": a2, "x": ctx.elem_json(x), "y": ctx.elem_json(y),
                                     "lhs": lhs, "rhs": rhs}
    return checked, None


def _law_pr_exp_adjunction(ctx):
    """reindex(pr1) -| forall_pr_exp on the existential completion."""
    comp = ctx.comp_ex
    checked = 0
    for a1, a2 in _splittings(ctx):
        prod = comp.cat.product(a1, a2)
        pr1 = comp.cat.proj1(a1, a2)
        for x in comp.bounded_fiber(prod, ctx.qmax):
            fx = forall_pr_exp(comp, (a1, a2), x)
            for y in comp.bounded_fiber(a1, ctx.qmax):
                checked += 1
                lhs = comp.leq(comp.reindex(pr1, y), x, ctx.budget) is not None
                rhs = comp.leq(y, fx, ctx.budget) is not None
                if lhs != rhs:
                    return checked, {"a1": a1, "a2": a2, "x": ctx.elem_json(x), "y": ctx.elem_json(y),
                                     "lhs": lhs, "rhs": rhs}
    return checked, None


def _law_inj_adjunction(ctx, polarity):
    """exists_inj -| reindex(j1) -| forall_inj on bounded fibers.

    Splits with an initial left summand are excluded: the fiber over the
    initial object is a single class, so the adjoints of reindexing along
    the absurd injection are the constant bottom/top classes, which the
    transported formulas cannot produce (their witness construction needs
    a constant of the quantified object).  tests/test_completion.py pins
    that corner explicitly.
    """
    comp = ctx.completion(polarity)
    checked = 0
    initial = getattr(comp.cat, "initial", None)
    for a, b in _splittings(ctx):
        if a == initial:
            continue
        j1 = comp.cat.inj1(a, b)
        cop = comp.cat.coproduct(a, b)
        for x in comp.bounded_fiber(a, ctx.qmax):
            ex_x = comp.exists_inj((a, b), x)
            fa_x = comp.forall_inj((a, b), x)
            for y in comp.bounded_fiber(cop, ctx.qmax):
                ry = comp.reindex(j1, y)
                checked += 1
                lhs = comp.leq(ex_x, y, ctx.budget) is not None
                rhs = comp.leq(x, ry, ctx.budget) is not None
                if lhs != rhs:
                    return checked, {"side": "exists", "a": a, "b": b,
                                     "x": ctx.elem_json(x), "y": ctx.elem_json(y), "lhs": lhs, "rhs": rhs}
                lhs = comp.leq(ry, x, ctx.budget) is not None
                rhs = comp.leq(y, fa_x, ctx.budget) is not None
                if lhs != rhs:
                    return checked, {"side": "forall", "a": a, "b": b,
                                     "x": ctx.elem_json(x), "y": ctx.elem_json(y), "lhs": lhs, "rhs": rhs}
    return checked, None


# ---------------------------------------------------------------------------
# Beck-Chevalley
# ---------------------------------------------------------------------------


def _law_bc_pr_strict(ctx, polarity):
    """Substitution commutes with the freely added quantifier as literal
    triples, not just up to mutual order."""
    comp = ctx.completion(polarity)
    checked = 0
    cat = comp.cat
    for f in ctx.arrows():
        d, a = f.dom, f.cod
        for c in ctx.objects:
            fx1 = product_map(cat, f, cat.identity(c))
            for x in comp.bounded_fiber(cat.product(a, c), ctx.qmax):
                checked += 1
                if polarity == EX:
                    left = comp.reindex(f, comp.exists_pr((a, c), x))
                    right = comp.exists_pr((d, c), comp.reindex(fx1, x))
                else:
                    left = comp.reindex(f, comp.forall_pr((a, c), x))
                    right = comp.forall_pr((d, c), comp.reindex(fx1, x))
                if left != right:
                    return checked, {"f": list(f.table), "dom": d, "cod": a, "c": c, "x": ctx.elem_json(x)}
    return checked, None


def _law_bc_pr_exp_strict(ctx):
    comp = ctx.comp_ex
    cat = comp.cat
    checked = 0
    for f in ctx.arrows():
        d, a = f.dom, f.cod
        for c in ctx.objects:
            fx1 = product_map(cat, f, cat.identity(c))
            for x in comp.bounded_fiber(cat.product(a, c), ctx.qmax):
                checked += 1
                left = comp.reindex(f, forall_pr_exp(comp, (a, c), x))
                right = forall_pr_exp(comp, (d, c), comp.reindex(fx1, x))
                if left != right:
                    return checked, {"f": list(f.table), "dom": d, "cod": a, "c": c, "x": ctx.elem_json(x)}
    return checked, None


def _law_bc_inj_strict(ctx, polarity):
    """Injection squares g = f+h commute with the injection adjoints as
    literal triples."""
    comp = ctx.completion(polarity)
    cat = comp.cat
    checked = 0
    for a in ctx.objects:
        for b in ctx.objects:
            for c in ctx.objects:
                for d in ctx.objects:
                    for f in cat.iter_hom(c, a, ctx.budget):
                        for h in cat.iter_hom(d, b, ctx.budget):
                            g = cat.copair(
                                cat.compose(cat.inj1(a, b), f),
                                cat.compose(cat.inj2(a, b), h),
                            )
                            for x in comp.bounded_fiber(a, min(ctx.qmax, 1)):
                                checked += 1
                                left = comp.exists_inj((c, d), comp.reindex(f, x))
                                right = comp.reindex(g, comp.exists_inj((a, b), x))
                                if left != right:
                                    return checked, {"side": "exists", "f": list(f.table), "h": list(h.table),
                                                     "a": a, "b": b, "c": c, "d": d, "x": ctx.elem_json(x)}
                                left = comp.forall_inj((c, d), comp.reindex(f, x))
                                right = comp.reindex(g, comp.forall_inj((a, b), x))
                                if left != right:
                                    return checked, {"side": "forall", "f": list(f.table), "h": list(h.table),
                                                     "a": a, "b": b, "c": c, "d": d, "x": ctx.elem_json(x)}
    return checked, None


# ---------------------------------------------------------------------------
# lattice structure
# ---------------------------------------------------------------------------


def _law_bounds(ctx, polarity):
    comp = ctx.completion(polarity)
    checked = 0
    for a in ctx.objects:
        top = comp.top(a)
        bottom = comp.bottom(a)
        for x in comp.bounded_fiber(a, ctx.qmax):
            checked += 2
            if comp.leq(x, top, ctx.budget) is None:
                return checked, {"kind": "top", "x": ctx.elem_json(x)}
            if comp.leq(bottom, x, ctx.budget) is None:
                return checked, {"kind": "bottom", "x": ctx.elem_json(x)}
    return checked, None


def _law_meet_join(ctx, polarity, op):
    comp = ctx.completion(polarity)
    checked = 0
    for a in ctx.objects:
        elems = comp.bounded_fiber(a, ctx.qmax)
        for x in elems:
            for y in elems:
                m = comp.meet(a, x, y) if op == "meet" else comp.join(a, x, y)
                if op == "meet":
                    ok = comp.leq(m, x, ctx.budget) is not None and comp.leq(m, y, ctx.budget) is not None
                else:
                    ok = comp.leq(x, m, ctx.budget) is not None and comp.leq(y, m, ctx.budget) is not None
                checked += 2
                if not ok:
                    return checked, {"kind": "bound", "x": ctx.elem_json(x), "y": ctx.elem_json(y)}
                for z in elems:
                    checked += 1
                    if op == "meet":
                        lhs = comp.leq(z, m, ctx.budget) is not None
                        rhs = (comp.leq(z, x, ctx.budget) is not None) and (comp.leq(z, y, ctx.budget) is not None)
                    else:
                        lhs = comp.leq(m, z, ctx.budget) is not None
                        rhs = (comp.leq(x, z, ctx.budget) is not None) and (comp.leq(y, z, ctx.budget) is not None)
                    if lhs != rhs:
                        return checked, {"kind": "universal", "x": ctx.elem_json(x), "y": ctx.elem_json(y),
                                         "z": ctx.elem_json(z), "lhs": lhs, "rhs": rhs}
    return checked, None


def _law_reindex_lattice(ctx, polarity):
    """Reindexing preserves meets, joins, top and bottom up to mutual order."""
    comp = ctx.completion(polarity)
    checked = 0

    def same(u, v):
        return comp.leq(u, v, ctx.budget) is not None and comp.leq(v, u, ctx.budget) is not None

    for f in ctx.arrows():
        d, a = f.dom, f.cod
        elems = comp.bounded_fiber(a, min(ctx.qmax, 1))
        checked += 2
        if not same(comp.reindex(f, comp.top(a)), comp.top(d)):
            return checked, {"f": list(f.table), "op": "top"}
        if not same(comp.reindex(f, comp.bottom(a)), comp.bottom(d)):
            return checked, {"f": list(f.table), "op": "bottom"}
        for x in elems:
            for y in elems:
                checked += 2
                if not same(
                    comp.reindex(f, comp.meet(a, x, y)),
                    comp.meet(d, comp.reindex(f, x), comp.reindex(f, y)),
                ):
                    return checked, {"f": list(f.table), "op": "meet", "x": ctx.elem_json(x), "y": ctx.elem_json(y)}
                if not same(
                    comp.reindex(f, comp.join(a, x, y)),
                    comp.join(d, comp.reindex(f, x), comp.reindex(f, y)),
                ):
                    return checked, {"f": list(f.table), "op": "join", "x": ctx.elem_json(x), "y": ctx.elem_json(y)}
    return checked, None


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def _law_duality_involution(ctx):
    checked = 0
    for a in ctx.objects:
        for x in ctx.comp_un.bounded_fiber(a, ctx.qmax):
            checked += 1
            if duality_transport(duality_transport(x)) != x:
                return checked, ctx.elem_json(x)
    return checked, None


def _law_duality_matrix(ctx):
    """The UN order matrix is the transpose of the EX matrix over the
    order-reversed base."""
    comp_un = ctx.comp_un
    comp_dual = dual_completion(comp_un)
    checked = 0
    for a in ctx.objects:
        elems = comp_un.bounded_fiber(a, ctx.qmax)
        duals = [duality_transport(x) for x in elems]
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                checked += 1
                un = comp_un.leq(x, y, ctx.budget) is not None
                exop = comp_dual.leq(duals[j], duals[i], ctx.budget) is not None
                if un != exop:
                    return checked, {"x": ctx.elem_json(x), "y": ctx.elem_json(y), "un": un, "ex-op": exop}
    return checked, None


def _law_duality_witnesses(ctx):
    """A positive UN decision and its mirrored EX decision certify each
    other with the same arrow."""
    comp_un = ctx.comp_un
    comp_dual = dual_completion(comp_un)
    checked = 0
    for a in ctx.objects:
        elems = comp_un.bounded_fiber(a, ctx.qmax)
        for x in elems:
            for y in elems:
                w = comp_un.leq(x, y, ctx.budget)
                if w is None:
                    continue
                checked += 1
                w2 = comp_dual.leq(duality_transport(y), duality_transport(x), ctx.budget)
                if w2 is None or w2.arrow != w.arrow:
                    return checked, {"x": ctx.elem_json(x), "y": ctx.elem_json(y)}
    return checked, None


# ---------------------------------------------------------------------------
# monad identities
# ---------------------------------------------------------------------------


def _law_monad_units(ctx, polarity):
    """Both unit laws of the completion monad, up to mutual order."""
    comp = ctx.completion(polarity)
    doubled = Completion(comp, comp.polarity, ctx.budget)
    checked = 0

    def same(u, v):
        return comp.leq(u, v, ctx.budget) is not None and comp.leq(v, u, ctx.budget) is not None

    for a in ctx.objects:
        for x in comp.bounded_fiber(a, ctx.qmax):
            checked += 2
            outer = comp.mult(doubled.unit(a, x))
            if not same(outer, x):
                return checked, {"kind": "outer-unit", "x": ctx.elem_json(x)}
            ab = comp.cat.product(a, x.qobj)
            inner = comp.mult(doubled.elem(a, x.qobj, comp.unit(ab, x.pred)))
            if not same(inner, x):
                return checked, {"kind": "inner-unit", "x": ctx.elem_json(x)}
    return checked, None


def _law_prenex(ctx):
    """Every element is the image of its own predicate under unit-then-exists."""
    comp = ctx.comp_ex
    checked = 0
    for a in ctx.objects:
        for x in comp.bounded_fiber(a, ctx.qmax):
            checked += 1
            ab = comp.cat.product(a, x.qobj)
            prenexed = comp.exists_pr((a, x.qobj), comp.unit(ab, x.pred))
            if not (
                comp.leq(prenexed, x, ctx.budget) is not None
                and comp.leq(x, prenexed, ctx.budget) is not None
            ):
                return checked, ctx.elem_json(x)
    return checked, None


def _law_unit_forall(ctx):
    """Unit commutes with the universal quantifier: embedding after forall
    agrees with the exponential forall of the embedding."""
    comp = ctx.comp_ex
    doc = ctx.doctrine
    checked = 0
    for a1 in ctx.objects:
        for a2 in ctx.objects:
            prod = comp.cat.product(a1, a2)
            for alpha in doc.fiber_elements(prod):
                checked += 1
                left = comp.unit(a1, doc.forall_pr((a1, a2), alpha))
                right = forall_pr_exp(comp, (a1, a2), comp.unit(prod, alpha))
                if not (
                    comp.leq(left, right, ctx.budget) is not None
                    and comp.leq(right, left, ctx.budget) is not None
                ):
                    return checked, {"a1": a1, "a2": a2, "alpha": alpha}
    return checked, None


# ---------------------------------------------------------------------------
# skolemization and choice
# ---------------------------------------------------------------------------


def _law_skolem_sweep(ctx):
    """Every predicate over the smallest nondegenerate shape."""
    comp = ctx.comp_ex
    doc = ctx.doctrine
    checked = 0
    for a1, a2, b in ((1, 2, 2), (2, 2, 2)):
        carrier = a1 * a2 * b
        for alpha in doc.fiber_elements(carrier):
            checked += 1
            rep = skolem_check(comp, a1, a2, b, alpha, ctx.budget)
            if not rep.equal:
                return checked, {"a1": a1, "a2": a2, "b": b, "alpha": alpha}
    return checked, None


def _law_skolem_sampled(ctx):
    """Seeded sample of 40 predicates over a larger shape."""
    comp = ctx.comp_ex
    rng = random.Random(ctx.seed)
    a1, a2, b = 2, 2, 3
    carrier = a1 * a2 * b
    checked = 0
    for _ in range(40):
        alpha = rng.randrange(1 << carrier)
        checked += 1
        rep = skolem_check(comp, a1, a2, b, alpha, ctx.budget)
        if not rep.equal:
            return checked, {"a1": a1, "a2": a2, "b": b, "alpha": alpha}
    return checked, None


def _law_choice(ctx):
    """Certificates exist exactly for total predicates and always validate."""
    comp = ctx.comp_ex
    doc = ctx.doctrine
    checked = 0
    for a in ctx.objects:
        for b in ctx.objects:
            carrier = a * b
            for alpha in doc.fiber_elements(carrier):
                checked += 1
                x = comp.elem(a, b, alpha)
                cert = extract_choice(comp, x, ctx.budget)
                total = all(any((alpha >> (aa * b + bb)) & 1 for bb in range(b)) for aa in range(a))
                if (cert is not None) != total:
                    return checked, {"a": a, "b": b, "alpha": alpha, "got": cert is not None, "want": total}
                if cert is not None and not all(
                    (alpha >> (aa * b + cert.witness.table[aa])) & 1 for aa in range(a)
                ):
                    return checked, {"a": a, "b": b, "alpha": alpha, "kind": "unsound"}
    return checked, None


def _law_counterexample(ctx):
    comp = ctx.comp_un
    doc = ctx.doctrine
    checked = 0
    for a in ctx.objects:
        for b in ctx.objects:
            carrier = a * b
            for alpha in doc.fiber_elements(carrier):
                checked += 1
                x = comp.elem(a, b, alpha)
                cert = extract_counterexample(comp, x, ctx.budget)
                refutable = all(any(not ((alpha >> (aa * b + bb)) & 1) for bb in range(b)) for aa in range(a))
                if (cert is not None) != refutable:
                    return checked, {"a": a, "b": b, "alpha": alpha, "got": cert is not None, "want": refutable}
                if cert is not None and any(
                    (alpha >> (aa * b + cert.counterexample.table[aa])) & 1 for aa in range(a)
                ):
                    return checked, {"a": a, "b": b, "alpha": alpha, "kind": "unsound"}
    return checked, None


# ---------------------------------------------------------------------------
# dialectica
# ---------------------------------------------------------------------------


def _law_dial_equivalence(ctx):
    """The nested-completion order and the direct (f, F) condition agree on
    every bounded pair, with translating witnesses."""
    doc = ctx.doctrine
    nested = nested_completion(doc, ctx.budget)
    objs = bounded_dialobjs(doc, ctx.max_card)
    checked = 0
    for u in objs:
        zu = dial_to_nested(nested, u)
        for v in objs:
            zv = dial_to_nested(nested, v)
            checked += 1
            direct = dial_leq(doc, u, v, ctx.budget)
            via_nested = nested.leq(zu, zv, ctx.budget)
            if (direct is None) != (via_nested is None):
                return checked, {"u": _dial_json(doc, u), "v": _dial_json(doc, v),
                                 "direct": direct is not None, "nested": via_nested is not None}
    return checked, None


def _law_dial_roundtrip(ctx):
    doc = ctx.doctrine
    nested = nested_completion(doc, ctx.budget)
    checked = 0
    for u in bounded_dialobjs(doc, ctx.max_card):
        checked += 1
        if dial_from_nested(nested, dial_to_nested(nested, u)) != u:
            return checked, _dial_json(doc, u)
    return checked, None


def _law_dial_lattice(ctx):
    """The reflected bounded dialectica preorder is a lattice, and the
    composite meet/join land on the reflected meet/join classes.

    Composite joins are compared only for pairs with nonempty forward
    carriers: a join transports the universal completion's injection
    adjoint, which degenerates on the empty summand (the same corner the
    injection-adjunction law excludes).  The lattice_check itself runs on
    the full bounded poset.
    """
    doc = ctx.doctrine
    nested = nested_completion(doc, ctx.budget)
    objs = bounded_dialobjs(doc, ctx.max_card)
    pre = dial_preorder(doc, objs, ctx.budget)
    poset, proj = poset_reflect(pre)
    rep = lattice_check(poset)
    checked = pre.n * pre.n
    if not rep.ok:
        return checked, {"failures": rep.failures[:3]}
    one = doc.cat.terminal
    initial = doc.cat.initial
    for i, u in enumerate(objs):
        zu = dial_to_nested(nested, u)
        for j, v in enumerate(objs):
            zv = dial_to_nested(nested, v)
            ci, cj = proj.table[i], proj.table[j]
            key = (ci, cj) if ci <= cj else (cj, ci)
            m_class = objs[[k for k in range(pre.n) if proj.table[k] == rep.meet[key]][0]]
            j_class = objs[[k for k in range(pre.n) if proj.table[k] == rep.join[key]][0]]
            checked += 1
            m = nested.meet(one, zu, zv)
            if not _dial_same(nested, m, dial_to_nested(nested, m_class), ctx.budget):
                return checked, {"op": "meet", "u": _dial_json(doc, u), "v": _dial_json(doc, v)}
            if u.src == initial or v.src == initial:
                continue
            checked += 1
            jn = nested.join(one, zu, zv)
            if not _dial_same(nested, jn, dial_to_nested(nested, j_class), ctx.budget):
                return checked, {"op": "join", "u": _dial_json(doc, u), "v": _dial_json(doc, v)}
    return checked, None


def _dial_same(nested, x, y, budget):
    return nested.leq(x, y, budget) is not None and nested.leq(y, x, budget) is not None


def _law_composite_structure(ctx):
    """The composite completion supports both quantifiers, both injection
    adjoints and the lattice operations at once; spot-check each against
    its universal property on a small bounded fiber."""
    doc = ctx.doctrine
    nested = nested_completion(doc, ctx.budget)
    inner: Completion = nested.base
    checked = 0

    def bounded(a, qmax=1):
        return nested.bounded_fiber(
            a, qmax, preds=lambda ob: inner.bounded_fiber(ob, 1)
        )

    for a1, a2 in ((1, 2), (2, 1)):
        prod = nested.cat.product(a1, a2)
        pr1 = nested.cat.proj1(a1, a2)
        for x in bounded(prod):
            ex_x = nested.exists_pr((a1, a2), x)
            fa_x = nested.forall_pr((a1, a2), x)
            for y in bounded(a1):
                checked += 2
                if (nested.leq(ex_x, y, ctx.budget) is not None) != (
                    nested.leq(x, nested.reindex(pr1, y), ctx.budget) is not None
                ):
                    return checked, {"op": "exists_pr", "a1": a1, "a2": a2}
                if (nested.leq(nested.reindex(pr1, y), x, ctx.budget) is not None) != (
                    nested.leq(y, fa_x, ctx.budget) is not None
                ):
                    return checked, {"op": "forall_pr", "a1": a1, "a2": a2}
    for a, b in ((1, 1), (2, 1)):
        j1 = nested.cat.inj1(a, b)
        cop = nested.cat.coproduct(a, b)
        for x in bounded(a):
            ex_x = nested.exists_inj((a, b), x)
            fa_x = nested.forall_inj((a, b), x)
            for y in bounded(cop):
                ry = nested.reindex(j1, y)
                checked += 2
                if (nested.leq(ex_x, y, ctx.budget) is not None) != (
                    nested.leq(x, ry, ctx.budget) is not None
                ):
                    return checked, {"op": "exists_inj", "a": a, "b": b}
                if (nested.leq(ry, x, ctx.budget) is not None) != (
                    nested.leq(y, fa_x, ctx.budget) is not None
                ):
                    return checked, {"op": "forall_inj", "a": a, "b": b}
    initial = nested.cat.initial
    for a in (1, 2):
        elems = bounded(a)
        for x in elems:
            for y in elems:
                m = nested.meet(a, x, y)
                for z in elems:
                    checked += 1
                    if (nested.leq(z, m, ctx.budget) is not None) != (
                        nested.leq(z, x, ctx.budget) is not None
                        and nested.leq(z, y, ctx.budget) is not None
                    ):
                        return checked, {"op": "meet", "a": a}
                if x.qobj == initial or y.qobj == initial:
                    # joins transport the inner injection adjoint, which is
                    # not adjoint on the empty summand
                    continue
                jn = nested.join(a, x, y)
                for z in elems:
                    checked += 1
                    if (nested.leq(jn, z, ctx.budget) is not None) != (
                        nested.leq(x, z, ctx.budget) is not None
                        and nested.leq(y, z, ctx.budget) is not None
                    ):
                        return checked, {"op": "join", "a": a}
    return checked, None


def _dial_json(doc, u: DialObj):
    return {"src": u.src, "tgt": u.tgt, "pred": doc.pred_to_json(doc.cat.product(u.src, u.tgt), u.pred)}


# ---------------------------------------------------------------------------
# the law table, the outcome policy and the entry points
# ---------------------------------------------------------------------------


# law name -> (body, the arguments it takes after the context)
_LAWS = {
    "reindex-identity": (_law_reindex_identity,),
    "reindex-composition": (_law_reindex_composition,),
    "reindex-monotone": (_law_reindex_monotone,),
    "adjunction-exists-along": (_law_adjunction_along, "exists"),
    "adjunction-forall-along": (_law_adjunction_along, "forall"),
    "beck-chevalley-projections": (_law_bc_projections,),
    "beck-chevalley-injections": (_law_bc_injections,),
    "lat-fibers": (_law_lat_fibers,),
    "reindex-preserves-lattice": (_law_reindex_preserves_lattice,),
    "completion-leq-reflexive-ex": (_law_leq_reflexive, EX),
    "completion-leq-reflexive-un": (_law_leq_reflexive, UN),
    "completion-leq-transitive-ex": (_law_leq_transitive, EX),
    "completion-leq-transitive-un": (_law_leq_transitive, UN),
    "completion-reindex-functorial-ex": (_law_reindex_q_functorial, EX),
    "completion-reindex-functorial-un": (_law_reindex_q_functorial, UN),
    "completion-exists-pr-adjunction": (_law_pr_adjunction, EX),
    "completion-forall-pr-adjunction": (_law_pr_adjunction, UN),
    "completion-forall-pr-exp-adjunction": (_law_pr_exp_adjunction,),
    "completion-inj-adjunction-ex": (_law_inj_adjunction, EX),
    "completion-inj-adjunction-un": (_law_inj_adjunction, UN),
    "completion-bc-exists-pr-strict": (_law_bc_pr_strict, EX),
    "completion-bc-forall-pr-strict": (_law_bc_pr_strict, UN),
    "completion-bc-forall-pr-exp-strict": (_law_bc_pr_exp_strict,),
    "completion-bc-inj-strict-ex": (_law_bc_inj_strict, EX),
    "completion-bc-inj-strict-un": (_law_bc_inj_strict, UN),
    "completion-bounds-ex": (_law_bounds, EX),
    "completion-bounds-un": (_law_bounds, UN),
    "completion-meet-universal-ex": (_law_meet_join, EX, "meet"),
    "completion-meet-universal-un": (_law_meet_join, UN, "meet"),
    "completion-join-universal-ex": (_law_meet_join, EX, "join"),
    "completion-join-universal-un": (_law_meet_join, UN, "join"),
    "completion-reindex-lattice-ex": (_law_reindex_lattice, EX),
    "completion-reindex-lattice-un": (_law_reindex_lattice, UN),
    "duality-involution": (_law_duality_involution,),
    "duality-order-matrix": (_law_duality_matrix,),
    "duality-witnesses": (_law_duality_witnesses,),
    "monad-unit-laws-ex": (_law_monad_units, EX),
    "monad-unit-laws-un": (_law_monad_units, UN),
    "monad-prenex": (_law_prenex,),
    "monad-unit-forall-commute": (_law_unit_forall,),
    "skolem-full-sweep": (_law_skolem_sweep,),
    "skolem-sampled": (_law_skolem_sampled,),
    "rule-of-choice": (_law_choice,),
    "counterexample-property": (_law_counterexample,),
    "dialectica-order-equivalence": (_law_dial_equivalence,),
    "dialectica-roundtrip": (_law_dial_roundtrip,),
    "dialectica-lattice": (_law_dial_lattice,),
    "composite-structure": (_law_composite_structure,),
}

_SUITE_LAWS = {
    "functoriality": (
        "reindex-identity", "reindex-composition", "reindex-monotone",
        "completion-leq-reflexive-ex", "completion-leq-transitive-ex", "completion-reindex-functorial-ex",
        "completion-leq-reflexive-un", "completion-leq-transitive-un", "completion-reindex-functorial-un",
    ),
    "adjunctions": (
        "adjunction-exists-along", "adjunction-forall-along",
        "completion-exists-pr-adjunction", "completion-forall-pr-adjunction",
        "completion-forall-pr-exp-adjunction",
        "completion-inj-adjunction-ex", "completion-inj-adjunction-un",
    ),
    "beck-chevalley": (
        "beck-chevalley-projections", "beck-chevalley-injections",
        "completion-bc-exists-pr-strict", "completion-bc-forall-pr-strict",
        "completion-bc-forall-pr-exp-strict",
        "completion-bc-inj-strict-ex", "completion-bc-inj-strict-un",
    ),
    "lattice": (
        "lat-fibers", "reindex-preserves-lattice",
        "completion-bounds-ex", "completion-meet-universal-ex",
        "completion-join-universal-ex", "completion-reindex-lattice-ex",
        "completion-bounds-un", "completion-meet-universal-un",
        "completion-join-universal-un", "completion-reindex-lattice-un",
    ),
    "duality": ("duality-involution", "duality-order-matrix", "duality-witnesses"),
    "monad": ("monad-unit-laws-ex", "monad-unit-laws-un", "monad-prenex", "monad-unit-forall-commute"),
    "skolem": ("skolem-full-sweep", "skolem-sampled", "rule-of-choice", "counterexample-property"),
    "dialectica-oracle": (
        "dialectica-order-equivalence", "dialectica-roundtrip", "dialectica-lattice", "composite-structure",
    ),
}

SUITES = tuple(_SUITE_LAWS)


def run_laws(ctx: LawContext, laws) -> list:
    """Check the named laws, in order, under the one outcome policy.

    A law body returns (checked, first counterexample or None): PASS
    without a counterexample, FAIL with one.  A law cut short by the search
    budget or by a missing capability is SKIPPED with the reason, never
    PASS.  A witness that fails re-certification is a FAIL: the decision
    procedure caught the doctrine contradicting itself.
    """
    results = []
    for law in laws:
        body, *args = _LAWS[law]
        status, checked, cex, detail = PASS, 0, None, ""
        try:
            checked, cex = body(ctx, *args)
        except (SearchBudgetExceeded, CapabilityError) as exc:
            status, detail = SKIPPED, str(exc)
        except WitnessValidationError as exc:
            cex = {"witness-validation": str(exc)}
        if cex is not None:
            status = FAIL
        results.append(LawResult(law, status, checked, cex, detail))
    return results


# suite name -> callable(ctx) returning the suite's results; one callable
# per suite, so that perfbench/spans.py can wrap each suite in a span
_SUITE_FNS = {name: partial(run_laws, laws=laws) for name, laws in _SUITE_LAWS.items()}


def verify_doctrine(doc: Doctrine, max_card: int = 2, budget: int | None = None) -> LawReport:
    """Check functoriality, monotonicity, declared adjunctions and the
    Beck-Chevalley squares of projections and injections, plus lattice
    structure when the doctrine claims it.  Never passes silently: anything
    cut short by a budget or a missing capability is reported SKIPPED with
    the reason.
    """
    laws = ["reindex-identity", "reindex-composition", "reindex-monotone"]
    if CAP_ALONG_ALL in doc.caps or doc._has_any_adjoint_tables():
        laws += ["adjunction-exists-along", "adjunction-forall-along"]
    if CAP_EX_PR in doc.caps or CAP_UN_PR in doc.caps:
        laws.append("beck-chevalley-projections")
    if CAP_INJ_LEFT in doc.caps or CAP_INJ_RIGHT in doc.caps:
        laws.append("beck-chevalley-injections")
    if CAP_LAT in doc.caps:
        laws += ["lat-fibers", "reindex-preserves-lattice"]
    report = LawReport(suite="doctrine", bounds={"max_card": max_card})
    report.extend(run_laws(LawContext(doc, max_card, budget=budget), laws))
    report.sort()
    return report


def run_suite(name: str, ctx: LawContext | None = None, **kwargs) -> LawReport:
    """Run one suite (or "all") and return its report."""
    if ctx is None:
        ctx = LawContext(**kwargs)
    names = list(_SUITE_FNS) if name == "all" else [name]
    unknown = [n for n in names if n not in _SUITE_FNS]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; choose from {', '.join(SUITES)} or all")
    report = LawReport(
        suite=name,
        bounds={"max_card": ctx.max_card, "qmax": ctx.qmax},
        seed=ctx.seed,
    )
    start = time.perf_counter()
    for n in names:
        report.extend(_SUITE_FNS[n](ctx))
    report.elapsed = time.perf_counter() - start
    report.sort()
    return report
