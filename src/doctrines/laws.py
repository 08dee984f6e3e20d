"""Law verification: every law of a doctrine and its completions, checked
under one outcome policy.

Each law exhaustively checks one theorem on bounded data: the base-doctrine
laws (functoriality, monotonicity, declared adjunctions, Beck-Chevalley
squares, fiber lattices), the completion preorder, the projection/injection
adjunctions, strict Beck-Chevalley equalities, fiberwise lattice
structure, the order duality between the two completions, the monad
identities, Skolemization together with the choice principles, and the
dialectica oracle equivalence.  One table lists every law once, by suite,
as its name, its body and the body's arguments; the law index and the
suite names are read off it.  :func:`run_laws` is the one place that turns
a body's outcome into a :class:`LawResult`.  :func:`verify_doctrine` runs
the base-doctrine laws, :func:`run_suite` runs a suite.

Each law decides for itself whether it applies: the provider of a
structure the doctrine lacks raises CapabilityError (no adjoint along any
arrow, a missing quantifier of a Beck-Chevalley square, no top provider
of a fiber), and the law is SKIPPED with that reason.  A Beck-Chevalley
law leaves out each square whose chosen product or coproduct the
category lacks, and is SKIPPED only when no square is left.  All laws iterate
in deterministic ascending order, so a FAIL always carries the smallest
counterexample found first; anything cut short by a search budget or a
missing capability is reported SKIPPED, never PASS.

A :class:`LawContext` owns every completion its laws decide in: the two
completions of its doctrine, the dual of the universal one and the nested
(dialectica) composite, each built once.  It keeps one order memo per
completion and base object for as long as it lives, shared by all the
laws and suites run on it.  A memo interns every element any law asks
about over its base (the bounded fiber ``bounded_fiber(a, qmax)``, whose
slots it lists once a law asks for it, then meets, joins, quantifier
images and reindexed elements, whatever their quantified object) and
decides each ordered pair with ``Completion.leq`` the first time it is
asked, keeping the answer in two bits of one byte row per element
(undecided, no or yes), read back with one index, one shift and one
mask.  Before a memo lists a bounded fiber it counts the fiber's elements
from the base's fiber counts, and a fiber whose pairs number more than
the order-matrix cap is refused with SearchBudgetExceeded, so the law is
SKIPPED instead of running out of memory.  Every boolean order question
of a law goes through it: ``ctx.le``/``ctx.eq`` for single pairs, and slot
indices of ``ctx.order`` in the hot loops.  Only the laws that need the
witness arrow itself (duality witnesses, Skolemization and choice) call
``leq`` directly.  A completion answers a pair the same way every time,
and a decision that raises records nothing, so every outcome,
counterexample and check count is what deciding afresh would give.  The
footprint is two bits per ordered pair of each memo's interned elements
plus one index entry per element, and a second run of the same laws adds
neither memos nor elements.

Within one law body each construction it repeats (reindexing, quantifier
images, meets and joins, bounded fibers, composites, dialectica
translations) is built once per argument tuple, through :func:`_once`.
Its table lives only as long as the body: a context-wide table would keep
every construction of a run alive and raise peak memory for little gain.
The constructions are pure and a build that raises keeps no entry, so
outcomes and check counts are what building afresh would give.

Each universal property is checked in one place: :func:`_adjunction` for
every quantifier adjunction, :func:`_universal` for every meet and join,
and the paired exists/forall, meet/join and top/bottom sides of a law are
one loop over its operations.
"""

from __future__ import annotations

import itertools
import random
import time
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
from .doctrine import Doctrine, powerset_doctrine
from .errors import CapabilityError, SearchBudgetExceeded, WitnessValidationError
from .fincat import Arrow, SkelFinSet, times_identity
from .poset import ORDER_MATRIX_CAP, Poset, lattice_check, poset_reflect
from .principles import extract_choice, extract_counterexample, skolem_check
from .report import FAIL, PASS, SKIPPED, LawReport, LawResult


class _Order:
    """The order of one completion over one base object, decided lazily and
    asked by slot.

    ``items[i]`` is the element in slot i and ``index`` maps it back.
    ``rows[i]`` holds row i of the order two bits per pair, as a
    little-endian bit string: bits 2j and 2j+1 are the state of
    items[i] <= items[j], 0 undecided, 1 no, 3 yes.  A row is a bytearray
    reaching at most 64 pairs past the last pair it has decided, so a
    lookup is one index, one shift and one mask whatever the row's width;
    shifting a whole integer row would cost as much as the row is wide,
    thousands of bits at ``qmax=3``.  ``fiber`` is the bounded fiber and
    ``slots`` the slot of each of its elements, both None until
    :meth:`LawContext.order` fills them; elements asked about earlier keep
    their slots and answers.
    """

    __slots__ = ("comp", "fiber", "slots", "items", "index", "rows")

    def __init__(self, comp):
        self.comp = comp
        self.fiber = None
        self.slots = None
        self.items = []
        self.index = {}
        self.rows = []

    def slot(self, x) -> int:
        """The slot of element x, interned on first sight."""
        i = self.index.get(x)
        if i is None:
            i = self.index[x] = len(self.items)
            self.items.append(x)
            self.rows.append(bytearray())
        return i

    def le(self, i: int, j: int) -> bool:
        """items[i] <= items[j], decided by ``comp.leq`` the first time it is
        asked and read from the row after that."""
        row = self.rows[i]
        k = j >> 2
        if k < len(row):
            state = row[k] >> 2 * (j & 3) & 3
            if state:
                return state == 3
        else:
            # at least 64 pairs at a time: a row filled in slot order grows
            # once per 64 pairs, not once per 4
            row.extend(bytes(k + 16 - len(row)))
        answer = self.comp.leq(self.items[i], self.items[j]) is not None
        row[k] |= (3 if answer else 1) << 2 * (j & 3)
        return answer


class LawContext:
    """Everything a law needs; completions can be swapped for sabotaged
    variants when exercising the negative controls.  Without a doctrine
    each context builds a powerset doctrine of its own.

    Beside ``comp_ex`` and ``comp_un`` it builds, once, ``dual`` (mirroring
    ``comp_un`` over the order-reversed doctrine) and ``nested`` (the
    dialectica composite, existential over universal).

    The context keeps one order memo (:class:`_Order`) per completion and
    base object, shared by every law and suite run on it.  A memo holds
    every element a law has asked about over that base: the bounded fiber
    :meth:`fiber` materializes, and the meets, joins, quantifier images and
    reindexed elements the laws compare with it, in any of the context's
    completions.  Each ordered pair reaches ``Completion.leq`` at most once
    per context; a decision that raises records nothing, so asked again it
    raises again.  The footprint is two bits per ordered pair of the
    interned elements of one memo, in one byte row per element, plus one
    index entry per element, for as long as the context lives; running the
    same laws again adds nothing.  :meth:`order` refuses a bounded fiber
    too large for that footprint before building it.
    """

    def __init__(self, doctrine: Doctrine | None = None, max_card: int = 2, qmax: int = 2,
                 seed: int = 2024, budget: int | None = None,
                 comp_ex: Completion | None = None, comp_un: Completion | None = None):
        self.doctrine = powerset_doctrine() if doctrine is None else doctrine
        self.max_card, self.qmax, self.seed, self.budget = max_card, qmax, seed, budget
        self.comp_ex = Completion(self.doctrine, EX, budget) if comp_ex is None else comp_ex
        self.comp_un = Completion(self.doctrine, UN, budget) if comp_un is None else comp_un
        self.dual = dual_completion(self.comp_un)
        self.nested = nested_completion(self.doctrine, budget)
        # (completion, base object) -> _Order
        self._orders = {}

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

    def _memo(self, comp: Completion, a) -> _Order:
        """The order memo of `comp` over `a`, made on first use."""
        order = self._orders.get((comp, a))
        if order is None:
            order = self._orders[comp, a] = _Order(comp)
        return order

    def order(self, polarity, a) -> _Order:
        """The order memo over `a` in the polarity's completion, its
        ``fiber`` and ``slots`` filled with ``bounded_fiber(a, qmax)`` the
        first time it is asked for.

        The fiber's size is counted first, from the base's fiber counts: a
        fiber whose pairs number more than ORDER_MATRIX_CAP raises
        SearchBudgetExceeded before anything is built or decided, as an
        order matrix that large would."""
        order = self._memo(self.completion(polarity), a)
        if order.fiber is None:
            n = order.comp.bounded_size(a, self.qmax)
            if n * n > ORDER_MATRIX_CAP:
                raise SearchBudgetExceeded(n * n, ORDER_MATRIX_CAP, f"order memo of the fiber over {a!r}, "
                                           f"{n} elements", "order-memo entries")
            fiber = order.comp.bounded_fiber(a, self.qmax)
            order.slots = [order.slot(x) for x in fiber]
            order.fiber = fiber
        return order

    def fiber(self, polarity, a) -> list:
        """``bounded_fiber(a, qmax)`` of the polarity's completion, built once
        per context; the same list on every call, not to be mutated."""
        return self.order(polarity, a).fiber

    def le(self, x: QuantElem, y: QuantElem, comp: Completion | None = None) -> bool:
        """x <= y in `comp`, by default the context's completion of x's
        polarity, decided by ``comp.leq`` only the first time it is asked."""
        if comp is None:
            comp = self.completion(x.polarity)
        order = self._memo(comp, x.base)
        return order.le(order.slot(x), order.slot(y))

    def eq(self, x: QuantElem, y: QuantElem, comp: Completion | None = None) -> bool:
        """x and y below each other in `comp`, as :meth:`le` decides it."""
        return self.le(x, y, comp) and self.le(y, x, comp)

    def elem_json(self, x: QuantElem):
        return self.completion(x.polarity).pred_to_json(x.base, x)


def _once(build):
    """The pure construction `build`, built once per argument tuple for as
    long as the returned function lives, which is one law body.  A build
    that raises leaves no entry, so asked again it raises again."""
    built = {}

    def once(*args):
        value = built.get(args)
        if value is None:
            value = built[args] = build(*args)
        return value

    return once


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


def _adjunction(le_dom, le_cod, xs, ys, pulled, images):
    """Check the quantifiers of `images` against reindexing along an arrow
    p, for every x of `xs` (over p's domain) and y of `ys` (over its
    codomain), with ``pulled[j]`` = p*(ys[j]).

    `images` maps a side to its quantifier Q, taking x to its image over
    the codomain: side "exists" checks Q(x) <= y iff x <= p*(y), side
    "forall" checks p*(y) <= x iff y <= Q(x), each pair in that order;
    `le_dom` and `le_cod` decide the two fibers.  Returns the number of
    (x, y) pairs checked and the first failure as (side, x, y, lhs, rhs),
    or None.
    """
    exists, forall = images.get("exists"), images.get("forall")
    count = 0
    for x in xs:
        ex_x = exists and exists(x)
        fa_x = forall and forall(x)
        for y, py in zip(ys, pulled):
            count += 1
            if exists:
                lhs, rhs = le_cod(ex_x, y), le_dom(x, py)
                if lhs != rhs:
                    return count, ("exists", x, y, lhs, rhs)
            if forall:
                lhs, rhs = le_dom(py, x), le_cod(y, fa_x)
                if lhs != rhs:
                    return count, ("forall", x, y, lhs, rhs)
    return count, None


def _law_adjunction_along(ctx, side):
    """exists_along(f) -| reindex(f), or reindex(f) -| forall_along(f), on
    every arrow the doctrine has an adjoint for; arrows without one are
    skipped (a doctrine only claims the adjoints it declares), and a
    doctrine with none along any arrow does not have the law."""
    doc = ctx.doctrine
    quantify = doc.exists_along if side == "exists" else doc.forall_along
    checked, adjoints = 0, 0
    for f in ctx.arrows():
        try:
            xs, ys = doc.fiber_elements(f.dom), doc.fiber_elements(f.cod)
            count, bad = _adjunction(partial(doc.fiber_leq, f.dom), partial(doc.fiber_leq, f.cod), xs, ys,
                                     [doc.reindex(f, y) for y in ys], {side: partial(quantify, f)})
        except CapabilityError:
            continue
        checked += count
        adjoints += 1
        if bad is not None:
            _, u, v, lhs, rhs = bad
            return checked, {"f": list(f.table), "dom": f.dom, "cod": f.cod, "u": u, "v": v, "lhs": lhs, "rhs": rhs}
    if not adjoints:
        raise CapabilityError(f"no {'left' if side == 'exists' else 'right'} adjoint to reindexing along any arrow")
    return checked, None


def _pr_squares(ctx, cat):
    """Each projection square of a Beck-Chevalley law, in law order: every
    arrow f: D -> A with every object C, as (f, C, A x C, f x 1_C).  A
    square whose chosen products the category lacks is left out; with none
    left, the first one missing raises, so the law is SKIPPED."""
    missing, found = None, False
    for f in ctx.arrows():
        for c in ctx.objects:
            try:
                ac, fx1 = cat.product(f.cod, c), times_identity(cat, f, c)
            except CapabilityError as exc:
                missing = missing or exc
                continue
            found = True
            yield f, c, ac, fx1
    if missing and not found:
        raise missing


def _inj_squares(ctx, cat):
    """Each injection square of a Beck-Chevalley law, in law order: objects
    A, B, C, D with f: C -> A and h: D -> B, as (A, B, C, D, f, h, f + h).
    A square whose chosen coproducts A + B or C + D the category lacks is
    left out; with none left, the first one missing raises, so the law is
    SKIPPED."""
    missing, found = None, False
    for a, b, c, d in itertools.product(ctx.objects, repeat=4):
        try:
            j1, j2 = cat.inj1(a, b), cat.inj2(a, b)
            cat.coproduct(c, d)
        except CapabilityError as exc:
            missing = missing or exc
            continue
        found = True
        for f in cat.iter_hom(c, a, ctx.budget):
            for h in cat.iter_hom(d, b, ctx.budget):
                yield a, b, c, d, f, h, cat.copair(cat.compose(j1, f), cat.compose(j2, h))
    if missing and not found:
        raise missing


def _law_bc_projections(ctx):
    """For f: D -> A and any C, quantifying along pr then substituting f
    equals substituting fx1 then quantifying along pr', for both
    quantifiers."""
    doc = ctx.doctrine
    sides = ("exists", doc.exists_pr), ("forall", doc.forall_pr)
    checked = 0
    for f, c, ac, fx1 in _pr_squares(ctx, doc.cat):
        d, a = f.dom, f.cod
        for beta in doc.fiber_elements(ac):
            checked += 1
            for side, quantify in sides:
                left = doc.reindex(f, quantify((a, c), beta))
                right = quantify((d, c), doc.reindex(fx1, beta))
                if not doc.fiber_eq(d, left, right):
                    return checked, {"side": side, "f": list(f.table), "dom": d, "cod": a, "c": c, "beta": beta}
    return checked, None


def _law_bc_injections(ctx):
    """Pullback squares of coproduct injections: the square with g = f+h
    over j_C, j_A commutes with both injection adjoints."""
    doc = ctx.doctrine
    cat = doc.cat
    sides = ("exists", doc.exists_inj), ("forall", doc.forall_inj)
    checked = 0
    for a, b, c, d, f, h, g in _inj_squares(ctx, cat):
        for eps in doc.fiber_elements(a):
            checked += 1
            for side, quantify in sides:
                left = quantify((c, d), doc.reindex(f, eps))
                right = doc.reindex(g, quantify((a, b), eps))
                if not doc.fiber_eq(cat.coproduct(c, d), left, right):
                    return checked, {"side": side, "f": list(f.table), "h": list(h.table),
                                     "a": a, "b": b, "c": c, "d": d, "pred": eps}
    return checked, None


def _law_lat_fibers(ctx):
    """Each fiber is a lattice under the doctrine's own lattice operations,
    asked first: a fiber without them is SKIPPED, never FAILed."""
    doc = ctx.doctrine
    checked = 0
    for a in ctx.objects:
        top, bottom = doc.top(a), doc.bottom(a)
        doc.meet(a, top, bottom), doc.join(a, top, bottom)  # asked only whether they answer
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
                for op, combine, classes in (("meet", doc.meet, rep.meet), ("join", doc.join, rep.join)):
                    if not doc.fiber_eq(a, combine(a, p, q), elems[classes[key]]):
                        return checked, {"object": a, "p": p, "q": q, "op": op}
        for op, bound, k in (("top", top, rep.top), ("bottom", bottom, rep.bottom)):
            if not doc.fiber_eq(a, bound, elems[k]):
                return checked, {"object": a, "op": op}
    return checked, None


def _law_reindex_preserves_lattice(ctx):
    doc = ctx.doctrine
    checked = 0
    for f in ctx.arrows():
        for p in doc.fiber_elements(f.cod):
            for q in doc.fiber_elements(f.cod):
                checked += 1
                for op, combine in (("meet", doc.meet), ("join", doc.join)):
                    left = doc.reindex(f, combine(f.cod, p, q))
                    if not doc.fiber_eq(f.dom, left, combine(f.dom, doc.reindex(f, p), doc.reindex(f, q))):
                        return checked, {"f": list(f.table), "op": op, "p": p, "q": q}
        checked += 1
        for op, bound in (("top", doc.top), ("bottom", doc.bottom)):
            if not doc.fiber_eq(f.dom, doc.reindex(f, bound(f.cod)), bound(f.dom)):
                return checked, {"f": list(f.table), "op": op}
    return checked, None


# ---------------------------------------------------------------------------
# the completion preorder
# ---------------------------------------------------------------------------


def _law_leq_reflexive(ctx, polarity):
    checked = 0
    for a in ctx.objects:
        order = ctx.order(polarity, a)
        for k, x in zip(order.slots, order.fiber):
            checked += 1
            if not order.le(k, k):
                return checked, ctx.elem_json(x)
    return checked, None


def _law_leq_transitive(ctx, polarity):
    checked = 0
    for a in ctx.objects:
        order = ctx.order(polarity, a)
        elems = order.fiber
        n = len(elems)
        mat = [[order.le(i, j) for j in order.slots] for i in order.slots]
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
    compose, reindex, bounded = _once(comp.cat.compose), _once(comp.reindex), _once(comp.bounded_fiber)
    checked = 0
    arrows = list(ctx.arrows())
    for g in arrows:
        for x in bounded(g.cod, min(ctx.qmax, 1)):
            checked += 1
            if reindex(comp.cat.identity(g.cod), x) != x:
                return checked, {"law": "identity", "x": ctx.elem_json(x)}
            gx = reindex(g, x)
            for f in arrows:
                if f.cod != g.dom:
                    continue
                checked += 1
                if reindex(f, gx) != reindex(compose(g, f), x):
                    return checked, {"f": list(f.table), "g": list(g.table), "x": ctx.elem_json(x)}
    return checked, None


# ---------------------------------------------------------------------------
# adjunctions
# ---------------------------------------------------------------------------


def _slot_adjunction(ctx, over_x, over_y, p, images):
    """:func:`_adjunction` on two bounded fibers of the context, asked by
    slot: x over the memo `over_x`, y over `over_y`, and p the arrow whose
    reindexing takes the fiber of `over_y` to that of `over_x`.  The
    failure carries the elements as JSON."""
    items = over_x.items
    pulled = [over_x.slot(over_x.comp.reindex(p, y)) for y in over_y.fiber]
    images = {side: lambda i, q=quantify: over_y.slot(q(items[i])) for side, quantify in images.items()}
    count, bad = _adjunction(over_x.le, over_y.le, over_x.slots, over_y.slots, pulled, images)
    if bad is not None:
        side, i, j, lhs, rhs = bad
        bad = side, ctx.elem_json(items[i]), ctx.elem_json(over_y.items[j]), lhs, rhs
    return count, bad


def _law_pr_adjunction(ctx, polarity, side):
    """exists_pr -| reindex(pr1) (side "exists") or reindex(pr1) -| forall_pr
    (side "forall") on bounded fibers.  On the existential completion the
    forall side is the exponential forall_pr_exp."""
    comp = ctx.completion(polarity)
    quantify = comp.exists_pr if side == "exists" else comp.forall_pr
    checked = 0
    for a1, a2 in itertools.product(ctx.objects, repeat=2):
        pr1 = comp.cat.proj1(a1, a2)
        over_x = ctx.order(polarity, comp.cat.product(a1, a2))
        count, bad = _slot_adjunction(ctx, over_x, ctx.order(polarity, a1), pr1, {side: partial(quantify, (a1, a2))})
        checked += count
        if bad is not None:
            _, x, y, lhs, rhs = bad
            return checked, {"a1": a1, "a2": a2, "x": x, "y": y, "lhs": lhs, "rhs": rhs}
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
    for a, b in itertools.product(ctx.objects, repeat=2):
        if a == comp.cat.initial:
            continue
        j1 = comp.cat.inj1(a, b)
        over_x = ctx.order(polarity, a)
        over_y = ctx.order(polarity, comp.cat.coproduct(a, b))
        images = {"exists": partial(comp.exists_inj, (a, b)), "forall": partial(comp.forall_inj, (a, b))}
        count, bad = _slot_adjunction(ctx, over_x, over_y, j1, images)
        checked += count
        if bad is not None:
            side, x, y, lhs, rhs = bad
            return checked, {"side": side, "a": a, "b": b, "x": x, "y": y, "lhs": lhs, "rhs": rhs}
    return checked, None


# ---------------------------------------------------------------------------
# Beck-Chevalley
# ---------------------------------------------------------------------------


def _law_bc_pr_strict(ctx, polarity, side):
    """Substitution commutes with the freely added quantifier as literal
    triples, not just up to mutual order.  On the existential completion
    the forall side is the exponential forall_pr_exp."""
    comp = ctx.completion(polarity)
    # reindexing is left unshared: few of its pairs repeat, and at qmax=3
    # its table would raise the peak memory of the whole run by about 15%
    quantify = _once(comp.exists_pr if side == "exists" else comp.forall_pr)
    bounded = _once(comp.bounded_fiber)
    checked = 0
    for f, c, ac, fx1 in _pr_squares(ctx, comp.cat):
        d, a = f.dom, f.cod
        for x in bounded(ac, ctx.qmax):
            checked += 1
            left = comp.reindex(f, quantify((a, c), x))
            right = quantify((d, c), comp.reindex(fx1, x))
            if left != right:
                return checked, {"f": list(f.table), "dom": d, "cod": a, "c": c, "x": ctx.elem_json(x)}
    return checked, None


def _law_bc_inj_strict(ctx, polarity):
    """Injection squares g = f+h commute with the injection adjoints as
    literal triples."""
    comp = ctx.completion(polarity)
    sides = ("exists", _once(comp.exists_inj)), ("forall", _once(comp.forall_inj))
    reindex, bounded = _once(comp.reindex), _once(comp.bounded_fiber)
    checked = 0
    for a, b, c, d, f, h, g in _inj_squares(ctx, comp.cat):
        for x in bounded(a, min(ctx.qmax, 1)):
            checked += 1
            for side, quantify in sides:
                left = quantify((c, d), reindex(f, x))
                right = reindex(g, quantify((a, b), x))
                if left != right:
                    return checked, {"side": side, "f": list(f.table), "h": list(h.table),
                                     "a": a, "b": b, "c": c, "d": d, "x": ctx.elem_json(x)}
    return checked, None


# ---------------------------------------------------------------------------
# lattice structure
# ---------------------------------------------------------------------------


def _law_bounds(ctx, polarity):
    comp = ctx.completion(polarity)
    checked = 0
    for a in ctx.objects:
        order = ctx.order(polarity, a)
        top = order.slot(comp.top(a))
        bottom = order.slot(comp.bottom(a))
        for k, x in zip(order.slots, order.fiber):
            checked += 2
            if not order.le(k, top):
                return checked, {"kind": "top", "x": ctx.elem_json(x)}
            if not order.le(bottom, k):
                return checked, {"kind": "bottom", "x": ctx.elem_json(x)}
    return checked, None


def _universal(le, m, i, j, ks, op):
    """Check that m is the meet (op "meet") or the join of i and j against
    every k of `ks`: k <= m iff k <= i and k <= j, or m <= k iff i <= k and
    j <= k.  Returns the number of k checked and the first failure as
    (k, lhs, rhs), or None."""
    meet = op == "meet"
    for count, k in enumerate(ks, 1):
        if meet:
            lhs, rhs = le(k, m), le(k, i) and le(k, j)
        else:
            lhs, rhs = le(m, k), le(i, k) and le(j, k)
        if lhs != rhs:
            return count, (k, lhs, rhs)
    return len(ks), None


def _law_meet_join(ctx, polarity, op):
    comp = ctx.completion(polarity)
    combine = comp.meet if op == "meet" else comp.join
    checked = 0
    for a in ctx.objects:
        order = ctx.order(polarity, a)
        le, items, slots = order.le, order.items, order.slots
        for i, x in zip(slots, order.fiber):
            for j, y in zip(slots, order.fiber):
                m = order.slot(combine(a, x, y))
                checked += 2
                if not (le(m, i) and le(m, j) if op == "meet" else le(i, m) and le(j, m)):
                    return checked, {"kind": "bound", "x": ctx.elem_json(x), "y": ctx.elem_json(y)}
                count, bad = _universal(le, m, i, j, slots, op)
                checked += count
                if bad is not None:
                    k, lhs, rhs = bad
                    return checked, {"kind": "universal", "x": ctx.elem_json(x), "y": ctx.elem_json(y),
                                     "z": ctx.elem_json(items[k]), "lhs": lhs, "rhs": rhs}
    return checked, None


def _law_reindex_lattice(ctx, polarity):
    """Reindexing preserves meets, joins, top and bottom up to mutual order."""
    comp = ctx.completion(polarity)
    ops = ("meet", _once(comp.meet)), ("join", _once(comp.join))
    reindex, bounded = _once(comp.reindex), _once(comp.bounded_fiber)
    checked = 0
    for f in ctx.arrows():
        d, a = f.dom, f.cod
        elems = bounded(a, min(ctx.qmax, 1))
        checked += 2
        for op, bound in (("top", comp.top), ("bottom", comp.bottom)):
            if not ctx.eq(reindex(f, bound(a)), bound(d)):
                return checked, {"f": list(f.table), "op": op}
        for x in elems:
            for y in elems:
                checked += 2
                for op, combine in ops:
                    if not ctx.eq(reindex(f, combine(a, x, y)), combine(d, reindex(f, x), reindex(f, y))):
                        return checked, {"f": list(f.table), "op": op, "x": ctx.elem_json(x),
                                         "y": ctx.elem_json(y)}
    return checked, None


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def _law_duality_involution(ctx):
    checked = 0
    for a in ctx.objects:
        for x in ctx.fiber(UN, a):
            checked += 1
            if duality_transport(duality_transport(x)) != x:
                return checked, ctx.elem_json(x)
    return checked, None


def _law_duality_matrix(ctx):
    """The UN order matrix is the EX matrix over the order-reversed base
    with rows and columns exchanged."""
    checked = 0
    for a in ctx.objects:
        order = ctx.order(UN, a)
        elems, slots = order.fiber, order.slots
        duals = [duality_transport(x) for x in elems]
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                checked += 1
                un = order.le(slots[i], slots[j])
                exop = ctx.le(duals[j], duals[i], ctx.dual)
                if un != exop:
                    return checked, {"x": ctx.elem_json(x), "y": ctx.elem_json(y), "un": un, "ex-op": exop}
    return checked, None


def _law_duality_witnesses(ctx):
    """A positive UN decision and its mirrored EX decision certify each
    other with the same arrow."""
    comp_un = ctx.comp_un
    checked = 0
    for a in ctx.objects:
        elems = ctx.fiber(UN, a)
        for x in elems:
            for y in elems:
                w = comp_un.leq(x, y)
                if w is None:
                    continue
                checked += 1
                w2 = ctx.dual.leq(duality_transport(y), duality_transport(x))
                if w2 is None or w2.arrow != w.arrow:
                    return checked, {"x": ctx.elem_json(x), "y": ctx.elem_json(y)}
    return checked, None


# ---------------------------------------------------------------------------
# monad identities
# ---------------------------------------------------------------------------


def _law_monad_units(ctx, polarity):
    """Both unit laws of the completion monad, up to mutual order."""
    comp = ctx.completion(polarity)
    doubled = Completion(comp, comp.polarity, comp.budget)
    checked = 0
    for a in ctx.objects:
        for x in comp.bounded_fiber(a, ctx.qmax):
            checked += 2
            outer = comp.mult(doubled.unit(a, x))
            if not ctx.eq(outer, x):
                return checked, {"kind": "outer-unit", "x": ctx.elem_json(x)}
            ab = comp.cat.product(a, x.qobj)
            inner = comp.mult(doubled.elem(a, x.qobj, comp.unit(ab, x.pred)))
            if not ctx.eq(inner, x):
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
            if not ctx.eq(prenexed, x):
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
                if not ctx.eq(left, right):
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
            rep = skolem_check(comp, a1, a2, b, alpha)
            if not rep.equal:
                return checked, {"a1": a1, "a2": a2, "b": b, "alpha": alpha}
    return checked, None


def _law_skolem_sampled(ctx):
    """Seeded sample of 40 predicates over a larger shape."""
    comp = ctx.comp_ex
    rng = random.Random(ctx.seed)
    a1, a2, b = 2, 2, 3
    preds = ctx.doctrine.fiber_elements(a1 * a2 * b)
    checked = 0
    for _ in range(40):
        alpha = preds[rng.randrange(len(preds))]
        checked += 1
        rep = skolem_check(comp, a1, a2, b, alpha)
        if not rep.equal:
            return checked, {"a1": a1, "a2": a2, "b": b, "alpha": alpha}
    return checked, None


def _law_choice(ctx, polarity):
    """The rule of choice (EX) or the counterexample property (UN): an
    arrow is extracted exactly when every a has some b with alpha(a, b)
    provable (EX) or refutable (UN) in the base fiber over 1, and it picks
    such a b."""
    comp = ctx.completion(polarity)
    if not isinstance(comp.cat, SkelFinSet):
        raise CapabilityError("choice principles need the finite-sets base, whose objects are cardinalities")
    doc = ctx.doctrine
    extract = extract_choice if polarity == EX else extract_counterexample

    def holds(a, b, alpha, aa, bb):
        p = doc.reindex(Arrow(1, a * b, (aa * b + bb,)), alpha)
        return doc.fiber_leq(1, doc.top(1), p) if polarity == EX else doc.fiber_leq(1, p, doc.bottom(1))

    checked = 0
    for a in ctx.objects:
        for b in ctx.objects:
            for alpha in doc.fiber_elements(a * b):
                checked += 1
                arrow = extract(comp, comp.elem(a, b, alpha))
                want = all(any(holds(a, b, alpha, aa, bb) for bb in range(b)) for aa in range(a))
                if (arrow is not None) != want:
                    return checked, {"a": a, "b": b, "alpha": alpha, "got": arrow is not None, "want": want}
                if arrow is None:
                    continue
                if not all(holds(a, b, alpha, aa, arrow.table[aa]) for aa in range(a)):
                    return checked, {"a": a, "b": b, "alpha": alpha, "kind": "unsound"}
    return checked, None


# ---------------------------------------------------------------------------
# dialectica
# ---------------------------------------------------------------------------


def _law_dial_equivalence(ctx):
    """The nested-completion order and the direct (f, F) condition agree on
    every bounded pair, with translating witnesses."""
    doc = ctx.doctrine
    nested = ctx.nested
    to_nested = _once(partial(dial_to_nested, nested))
    objs = bounded_dialobjs(doc, ctx.max_card)
    checked = 0
    for u in objs:
        zu = to_nested(u)
        for v in objs:
            zv = to_nested(v)
            checked += 1
            direct = dial_leq(doc, u, v, ctx.budget) is not None
            via_nested = ctx.le(zu, zv, nested)
            if direct != via_nested:
                return checked, {"u": _dial_json(doc, u), "v": _dial_json(doc, v),
                                 "direct": direct, "nested": via_nested}
    return checked, None


def _law_dial_roundtrip(ctx):
    doc = ctx.doctrine
    nested = ctx.nested
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
    nested = ctx.nested
    objs = bounded_dialobjs(doc, ctx.max_card)
    pre = dial_preorder(doc, objs, ctx.budget)
    poset, cls = poset_reflect(pre)
    rep = lattice_check(poset)
    checked = pre.n * pre.n
    if not rep.ok:
        return checked, {"failures": rep.failures[:3]}
    one = doc.cat.terminal
    initial = doc.cat.initial
    zs = [dial_to_nested(nested, u) for u in objs]
    first = {}  # class -> its first object's index
    for k, c in enumerate(cls):
        first.setdefault(c, k)
    ops = ("meet", nested.meet, rep.meet), ("join", nested.join, rep.join)
    for i, u in enumerate(objs):
        for j, v in enumerate(objs):
            ci, cj = cls[i], cls[j]
            key = (ci, cj) if ci <= cj else (cj, ci)
            for op, combine, classes in ops[:1 if u.src == initial or v.src == initial else 2]:
                checked += 1
                if not ctx.eq(combine(one, zs[i], zs[j]), zs[first[classes[key]]], nested):
                    return checked, {"op": op, "u": _dial_json(doc, u), "v": _dial_json(doc, v)}
    return checked, None


def _law_composite_structure(ctx):
    """The composite completion supports both quantifiers, both injection
    adjoints and the lattice operations at once; spot-check each against
    its universal property on a small bounded fiber."""
    nested = ctx.nested
    cat = nested.cat
    le = partial(ctx.le, comp=nested)
    checked = 0

    def bounded(a):
        return nested.bounded_fiber(a, 1, preds=lambda ob: nested.base.bounded_fiber(ob, 1))

    def adjunction(p, xs, ys, images):
        count, bad = _adjunction(le, le, xs, ys, [nested.reindex(p, y) for y in ys], images)
        return 2 * count, None if bad is None else bad[0]

    for a1, a2 in ((1, 2), (2, 1)):
        prod = cat.product(a1, a2)
        count, side = adjunction(cat.proj1(a1, a2), bounded(prod), bounded(a1), {
            "exists": partial(nested.exists_pr, (a1, a2)), "forall": partial(nested.forall_pr, (a1, a2))})
        checked += count
        if side:
            return checked, {"op": side + "_pr", "a1": a1, "a2": a2}
    for a, b in ((1, 1), (2, 1)):
        j1 = cat.inj1(a, b)
        count, side = adjunction(j1, bounded(a), bounded(cat.coproduct(a, b)), {
            "exists": partial(nested.exists_inj, (a, b)), "forall": partial(nested.forall_inj, (a, b))})
        checked += count
        if side:
            return checked, {"op": side + "_inj", "a": a, "b": b}
    initial = cat.initial
    for a in (1, 2):
        elems = bounded(a)
        for x in elems:
            for y in elems:
                # joins transport the inner injection adjoint, which is not
                # adjoint on the empty summand
                empty = x.qobj == initial or y.qobj == initial
                for op, combine in (("meet", nested.meet), ("join", nested.join))[:1 if empty else 2]:
                    count, bad = _universal(le, combine(a, x, y), x, y, elems, op)
                    checked += count
                    if bad is not None:
                        return checked, {"op": op, "a": a}
    return checked, None


def _dial_json(doc, u: DialObj):
    return {"src": u.src, "tgt": u.tgt, "pred": doc.pred_to_json(doc.cat.product(u.src, u.tgt), u.pred)}


# ---------------------------------------------------------------------------
# the law table, the outcome policy and the entry points
# ---------------------------------------------------------------------------


# suite -> (its base-doctrine laws, its completion laws), in run order; each
# law is listed once, as (name, body, the arguments the body takes after the
# context)
_SUITE_TABLE = {
    "functoriality": ((
        ("reindex-identity", _law_reindex_identity),
        ("reindex-composition", _law_reindex_composition),
        ("reindex-monotone", _law_reindex_monotone),
    ), (
        ("completion-leq-reflexive-ex", _law_leq_reflexive, EX),
        ("completion-leq-transitive-ex", _law_leq_transitive, EX),
        ("completion-reindex-functorial-ex", _law_reindex_q_functorial, EX),
        ("completion-leq-reflexive-un", _law_leq_reflexive, UN),
        ("completion-leq-transitive-un", _law_leq_transitive, UN),
        ("completion-reindex-functorial-un", _law_reindex_q_functorial, UN),
    )),
    "adjunctions": ((
        ("adjunction-exists-along", _law_adjunction_along, "exists"),
        ("adjunction-forall-along", _law_adjunction_along, "forall"),
    ), (
        ("completion-exists-pr-adjunction", _law_pr_adjunction, EX, "exists"),
        ("completion-forall-pr-adjunction", _law_pr_adjunction, UN, "forall"),
        ("completion-forall-pr-exp-adjunction", _law_pr_adjunction, EX, "forall"),
        ("completion-inj-adjunction-ex", _law_inj_adjunction, EX),
        ("completion-inj-adjunction-un", _law_inj_adjunction, UN),
    )),
    "beck-chevalley": ((
        ("beck-chevalley-projections", _law_bc_projections),
        ("beck-chevalley-injections", _law_bc_injections),
    ), (
        ("completion-bc-exists-pr-strict", _law_bc_pr_strict, EX, "exists"),
        ("completion-bc-forall-pr-strict", _law_bc_pr_strict, UN, "forall"),
        ("completion-bc-forall-pr-exp-strict", _law_bc_pr_strict, EX, "forall"),
        ("completion-bc-inj-strict-ex", _law_bc_inj_strict, EX),
        ("completion-bc-inj-strict-un", _law_bc_inj_strict, UN),
    )),
    "lattice": ((
        ("lat-fibers", _law_lat_fibers),
        ("reindex-preserves-lattice", _law_reindex_preserves_lattice),
    ), (
        ("completion-bounds-ex", _law_bounds, EX),
        ("completion-meet-universal-ex", _law_meet_join, EX, "meet"),
        ("completion-join-universal-ex", _law_meet_join, EX, "join"),
        ("completion-reindex-lattice-ex", _law_reindex_lattice, EX),
        ("completion-bounds-un", _law_bounds, UN),
        ("completion-meet-universal-un", _law_meet_join, UN, "meet"),
        ("completion-join-universal-un", _law_meet_join, UN, "join"),
        ("completion-reindex-lattice-un", _law_reindex_lattice, UN),
    )),
    "duality": ((), (
        ("duality-involution", _law_duality_involution),
        ("duality-order-matrix", _law_duality_matrix),
        ("duality-witnesses", _law_duality_witnesses),
    )),
    "monad": ((), (
        ("monad-unit-laws-ex", _law_monad_units, EX),
        ("monad-unit-laws-un", _law_monad_units, UN),
        ("monad-prenex", _law_prenex),
        ("monad-unit-forall-commute", _law_unit_forall),
    )),
    "skolem": ((), (
        ("skolem-full-sweep", _law_skolem_sweep),
        ("skolem-sampled", _law_skolem_sampled),
        ("rule-of-choice", _law_choice, EX),
        ("counterexample-property", _law_choice, UN),
    )),
    "dialectica-oracle": ((), (
        ("dialectica-order-equivalence", _law_dial_equivalence),
        ("dialectica-roundtrip", _law_dial_roundtrip),
        ("dialectica-lattice", _law_dial_lattice),
        ("composite-structure", _law_composite_structure),
    )),
}

SUITES = tuple(_SUITE_TABLE)
# law name -> (body, the arguments it takes after the context)
_LAWS = {name: tuple(law) for base, rest in _SUITE_TABLE.values() for name, *law in base + rest}
# the base-doctrine laws, which verify_doctrine runs
_DOCTRINE_LAWS = tuple(name for base, _ in _SUITE_TABLE.values() for name, *_ in base)


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
_SUITE_FNS = {suite: partial(run_laws, laws=tuple(name for name, *_ in base + rest))
              for suite, (base, rest) in _SUITE_TABLE.items()}


def verify_doctrine(doc: Doctrine, max_card: int = 2, budget: int | None = None) -> LawReport:
    """Check the base-doctrine laws: functoriality, monotonicity, the
    adjunctions along arrows, the Beck-Chevalley squares of projections and
    injections, and lattice fibers.  Never passes silently: a law whose
    structure's provider does not answer, or one cut short by a budget,
    is reported SKIPPED with the reason.  `max_card` bounds the objects
    over finite sets only, so only there is it a bound of the report; a
    declared category is checked on every object.
    """
    bounds = {"max_card": max_card} if isinstance(doc.cat, SkelFinSet) else {}
    report = LawReport(suite="doctrine", bounds=bounds)
    report.extend(run_laws(LawContext(doc, max_card, budget=budget), _DOCTRINE_LAWS))
    report.sort()
    return report


def run_suite(name: str, ctx: LawContext | None = None, **kwargs) -> LawReport:
    """Run one suite (or "all") and return its report.  Keyword arguments
    build the context; they cannot be given together with one."""
    if ctx is None:
        ctx = LawContext(**kwargs)
    elif kwargs:
        raise TypeError(f"run_suite got both a context and {', '.join(sorted(kwargs))}")
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
