"""Free quantifier completions of a doctrine.

An element of the completion fiber over A packages a quantified object B
and a base predicate over A x B, read as `exists b. alpha(a, b)` in the
existential completion (polarity EX) or `forall b. alpha(a, b)` in the
universal one (polarity UN).  The fiber order is decided by searching for
a witnessing arrow:

  EX:  (B, alpha) <= (C, beta)  iff  some f: A x B -> C has
         alpha <= P_<pr, f>(beta)    in the base fiber over A x B;
  UN:  (B, alpha) <= (C, beta)  iff  some g: A x C -> B has
         P_<pr, g>(alpha) <= beta    in the base fiber over A x C.

P^un is the existential completion of op(P) read backwards: the UN line
is the EX line over op(P) for (y, x), and the UN top, bottom, meet and
join are the EX bottom, top, join and meet over op(P), so each has one
body, written for EX.

Every order decision, here and in the dialectica order, follows one
policy, :func:`decide`.  The base doctrine's kernel hook
(`ex_witness`/`un_witness`/`dial_witness`) answers first: "no" is final,
and a certificate is re-checked against the defining inequality, so the
kernel cannot disagree with the generic definition unnoticed.  A hook
that returns NotImplemented hands the question to the enumerative scan,
which tests candidates in lexicographic table order and returns the
first that certifies, so certificates are canonical either way.  A
negative answer from the scan is only ever the result of a complete
scan: a scan that would run past the completion's budget raises
SearchBudgetExceeded instead.  Kernels spend no budget.
:meth:`Completion.leq`, the hot path of every law run, applies the kernel
half of that policy inline; scans start only in `decide`.  Hooks and
`certifies` are looked up on every call, never bound ahead, so a method
replaced on its class later (a tracer, a test) sees every decision.

Completion fibers over a nontrivial base are infinite.  `bounded_fiber`
materializes the sub-preorder of elements whose quantified object has
cardinality at most k, which is what every exhaustive law check runs on.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .doctrine import Doctrine, op_doctrine
from .errors import CapabilityError, WitnessValidationError
from .fincat import Arrow, SkelFinSet, _canonical, graph_pr1, make_arrow, reassoc_left, times_identity
from .poset import Preorder

EX = "EX"
UN = "UN"
_DIRECTION = {EX: "f: AxB -> C", UN: "g: AxC -> B"}


class QuantElem(NamedTuple):
    """A completion element: quantified object `qobj` and a base predicate
    over base x qobj.  Immutable; compared and hashed as its field tuple."""

    polarity: str
    base: object
    qobj: object
    pred: object

    def __repr__(self):
        return f"QuantElem({self.polarity}, base={self.base!r}, qobj={self.qobj!r}, pred={self.pred!r})"


# QuantElem from one (polarity, base, qobj, pred) tuple, without a Python-level frame
make_elem = partial(tuple.__new__, QuantElem)


class WitnessArrow(NamedTuple):
    """A certificate for a positive order decision.

    EX direction reads `f: A x B -> C`, UN direction `g: A x C -> B`;
    validity against the defining inequality is checked when the witness
    is produced.
    """

    arrow: Arrow
    direction: str


# WitnessArrow from one (arrow, direction) tuple, without a Python-level frame
make_witness = partial(tuple.__new__, WitnessArrow)


def decide(answer, certify, x, y, scan, *scan_args):
    """The order-decision policy shared by every witness search (the
    kernel route of :meth:`Completion.leq` applies its kernel half inline).

    `answer` is the kernel hook's reply for x <= y: None (a definite
    "no"), a certificate, or NotImplemented (no kernel for this doctrine).
    A kernel certificate must pass `certify(x, y, certificate)`, else
    WitnessValidationError.  Without a kernel the first candidate of
    `scan(*scan_args)` that passes `certify` is the answer, and None means
    the scan ran to completion; a scan over budget raises
    SearchBudgetExceeded from inside `scan`.  The scan is started only
    here, so a kernel answer builds no generator.
    """
    if answer is NotImplemented:
        for cand in scan(*scan_args):
            if certify(x, y, cand):
                return cand
        return None
    if answer is not None and not certify(x, y, answer):
        raise _uncertified(answer, x, y)
    return answer


def _uncertified(answer, x, y) -> WitnessValidationError:
    return WitnessValidationError(f"kernel returned {answer!r} for {x!r} <= {y!r}, but it does not certify")


class Completion(Doctrine):
    """The doctrine P^ex (polarity EX) or P^un (polarity UN) over `base`.

    Both are the existential completion of `_ex_base` (`base` for EX,
    op(base) for UN), UN read backwards.  A provider raises the base's
    CapabilityError for what the base lacks: the free quantifier is always
    present; injection adjoints and lattice structure need the base's, with
    constants of the base category backing the adjunction arguments; the
    opposite quantifier along projections (EX only) needs the base's forall
    along projections and exponentials.

    `budget` caps every enumerative scan of this completion's order
    decisions (None: DEFAULT_BUDGET); kernel answers spend none of it.
    """

    def __init__(self, base: Doctrine, polarity: str, budget: int | None = None):
        if polarity not in (EX, UN):
            raise ValueError(f"polarity must be EX or UN, got {polarity!r}")
        super().__init__(base.cat)
        self.base = base
        self.polarity = polarity
        self.budget = budget
        self._ex_base = base if polarity == EX else op_doctrine(base)

    # -- element plumbing ----------------------------------------------

    def elem(self, base_obj, qobj, pred) -> QuantElem:
        return make_elem((self.polarity, base_obj, qobj, pred))

    def _check_elem(self, x: QuantElem):
        if x.polarity != self.polarity:
            raise ValueError(f"element polarity {x.polarity} does not match completion {self.polarity}")

    def _check_pair(self, x: QuantElem, y: QuantElem):
        self._check_elem(x)
        self._check_elem(y)
        if x.base != y.base:
            raise ValueError(f"elements live over different objects: {x.base!r} vs {y.base!r}")

    # -- the order ------------------------------------------------------

    def leq(self, x: QuantElem, y: QuantElem) -> WitnessArrow | None:
        """Decide x <= y under :func:`decide`: the lexicographically first
        witnessing arrow, certified once, or None (the kernel's "no", or a
        complete scan without a hit).

        The kernel route is one hook call, one :meth:`certifies` call and
        one WitnessArrow around an Arrow of the hook's own tuple; a "no"
        returns before anything is built.  Both records are built by
        :data:`make_arrow` and :data:`make_witness`, one C call each, not
        by their Python-level constructors.  Only a hook that returns
        NotImplemented goes through :func:`decide`, which runs the scan.
        """
        polarity = self.polarity
        if x.polarity != polarity or y.polarity != polarity or x.base != y.base:
            self._check_pair(x, y)
        # x <= y as a pair of the existential completion of `_ex_base`
        lo, hi = (x, y) if polarity == EX else (y, x)
        a = x.base
        answer = self._ex_base.ex_witness(a, lo.qobj, hi.qobj, lo.pred, hi.pred)
        if answer is None:
            return None
        src = self.cat.product(a, lo.qobj)
        if answer is NotImplemented:
            arrow = decide(answer, self.certifies, x, y, self.cat.iter_hom, src, hi.qobj, self.budget)
            if arrow is None:
                return None
        else:
            arrow = make_arrow((src, hi.qobj, answer))
            if not self.certifies(x, y, arrow):
                raise _uncertified(arrow, x, y)
        return make_witness((arrow, _DIRECTION[polarity]))

    def fiber_leq(self, a, x, y) -> bool:
        return self.leq(x, y) is not None

    def certifies(self, x: QuantElem, y: QuantElem, arrow: Arrow) -> bool:
        """Does `arrow` witness x <= y?  Checked via the defining base
        inequality, not via the search that produced it."""
        lo, hi = (x, y) if self.polarity == EX else (y, x)
        ex_base = self._ex_base
        graph = graph_pr1(self.cat, lo.base, lo.qobj, arrow)
        return ex_base.fiber_leq(graph.dom, lo.pred, ex_base.reindex(graph, hi.pred))

    # -- reindexing ------------------------------------------------------

    def reindex(self, f: Arrow, y: QuantElem) -> QuantElem:
        """Substitution along f: D -> A, keeping the quantified object."""
        if y.polarity != self.polarity or y.base != f.cod:
            self._check_elem(y)
            raise ValueError(f"element over {y.base!r} cannot be reindexed along arrow into {f.cod!r}")
        return self.elem(f.dom, y.qobj, self.base.reindex(times_identity(self.cat, f, y.qobj), y.pred))

    # -- quantifiers along projections ------------------------------------

    def _shuffle_pr(self, split, x: QuantElem) -> QuantElem:
        """(A1 x A2, B, pred) -> (A1, A2 x B, pred), moving the discarded
        factor into the quantified object."""
        a1, a2 = split
        self._check_elem(x)
        if x.base != self.cat.product(a1, a2):
            raise ValueError("element does not live over the stated product")
        q = self.cat.product(a2, x.qobj)
        s = reassoc_left(self.cat, a1, a2, x.qobj)
        return self.elem(a1, q, self.base.reindex(s, x.pred))

    def exists_pr(self, split, x: QuantElem) -> QuantElem:
        if self.polarity != EX:
            raise CapabilityError("the universal completion adds no left adjoints along projections")
        return self._shuffle_pr(split, x)

    def forall_pr(self, split, x: QuantElem) -> QuantElem:
        if self.polarity == UN:
            return self._shuffle_pr(split, x)
        from .dialectica import forall_pr_exp

        return forall_pr_exp(self, split, x)

    # -- quantifiers along injections -------------------------------------

    def _inj_transport(self, split, x: QuantElem, quantify) -> QuantElem:
        """x along A -> A + B, by the base's `quantify` along A x D -> A x D + B x D."""
        a, b = split
        self._check_elem(x)
        if x.base != a:
            raise ValueError("element does not live over the first summand")
        cat = self.cat
        d = x.qobj
        inner = quantify((cat.product(a, d), cat.product(b, d)), x.pred)
        # transport (AxD)+(BxD) -> (A+B)xD along the inverse distributivity iso
        tl_inv = cat.theta_left_inv(a, b, d)
        return self.elem(cat.coproduct(a, b), d, self.base.reindex(tl_inv, inner))

    def exists_inj(self, split, x: QuantElem) -> QuantElem:
        return self._inj_transport(split, x, self.base.exists_inj)

    def forall_inj(self, split, x: QuantElem) -> QuantElem:
        return self._inj_transport(split, x, self.base.forall_inj)

    # -- lattice structure -------------------------------------------------

    def top(self, a) -> QuantElem:
        return self._free_top(a) if self.polarity == EX else self._free_bottom(a)

    def bottom(self, a) -> QuantElem:
        return self._free_bottom(a) if self.polarity == EX else self._free_top(a)

    def meet(self, a, x: QuantElem, y: QuantElem) -> QuantElem:
        polarity = self.polarity
        if x.polarity != polarity or y.polarity != polarity or x.base != y.base:
            self._check_pair(x, y)
        return self._pointwise(a, x, y) if polarity == EX else self._summed(a, x, y)

    def join(self, a, x: QuantElem, y: QuantElem) -> QuantElem:
        polarity = self.polarity
        if x.polarity != polarity or y.polarity != polarity or x.base != y.base:
            self._check_pair(x, y)
        return self._summed(a, x, y) if polarity == EX else self._pointwise(a, x, y)

    def _free_top(self, a) -> QuantElem:
        t = self.cat.terminal
        return self.elem(a, t, self._ex_base.top(self.cat.product(a, t)))

    def _free_bottom(self, a) -> QuantElem:
        """(A, 0, bottom).  The predicate is `base.bottom` on both
        polarities: over op(base) it would be another triple of the same
        one-class fiber over A x 0."""
        z = self.cat.initial
        return self.elem(a, z, self.base.bottom(self.cat.product(a, z)))

    def _pointwise(self, a, x: QuantElem, y: QuantElem) -> QuantElem:
        """(A, B x C, meet of both predicates moved over A x (B x C))."""
        cat, ex_base = self.cat, self._ex_base
        bc = cat.product(x.qobj, y.qobj)
        to_b, to_c = _pointwise_transports(cat, a, x.qobj, y.qobj)
        return self.elem(a, bc, ex_base.meet(cat.product(a, bc), ex_base.reindex(to_b, x.pred),
                                             ex_base.reindex(to_c, y.pred)))

    def _summed(self, a, x: QuantElem, y: QuantElem) -> QuantElem:
        """(A, B + C, theta-transport of exists_j(x) joined with exists_j(y))."""
        cat, ex_base = self.cat, self._ex_base
        b, c = x.qobj, y.qobj
        ab, ac = cat.product(a, b), cat.product(a, c)
        left = ex_base.exists_inj((ab, ac), x.pred)
        right = ex_base.reindex(_swap_coproduct(cat, ab, ac), ex_base.exists_inj((ac, ab), y.pred))
        joined = ex_base.join(cat.coproduct(ab, ac), left, right)
        return self.elem(a, cat.coproduct(b, c), ex_base.reindex(cat.theta_inv(a, b, c), joined))

    # -- monad structure -----------------------------------------------------

    def unit(self, a, alpha) -> QuantElem:
        """A base predicate as a completion element quantifying over 1."""
        t = self.cat.terminal
        iso = self.cat.proj1(a, t)
        return self.elem(a, t, self.base.reindex(iso, alpha))

    def mult(self, z: QuantElem) -> QuantElem:
        """Collapse one level of a doubled completion:
        (A, B, (AxB, C, alpha)) becomes (A, BxC, alpha), the free
        quantifier of the inner element along the projection A x B -> A."""
        if not isinstance(z.pred, QuantElem) or z.pred.polarity != self.polarity:
            raise ValueError("mult expects an element whose predicate is an inner completion element")
        return self._shuffle_pr((z.base, z.qobj), z.pred)

    # -- bounded materialization ----------------------------------------------

    def _bounded_preds(self, a, qmax: int, preds=None) -> list:
        """(q, the predicates over A x q) for each q <= qmax."""
        if not isinstance(self.cat, SkelFinSet):
            raise CapabilityError("bounded fibers need the finite-sets base, whose objects are cardinalities")
        if preds is None:
            preds = self.base.fiber_elements
        return [(q, preds(self.cat.product(a, q))) for q in range(qmax + 1)]

    def bounded_fiber(self, a, qmax: int, preds=None) -> list:
        """Every element over `a` with quantified-object cardinality at most
        qmax, in deterministic (qobj, predicate) order."""
        return [self.elem(a, q, p) for q, ps in self._bounded_preds(a, qmax, preds) for p in ps]

    def bounded_size(self, a, qmax: int) -> int:
        """The length of ``bounded_fiber(a, qmax)``, from the base's fiber
        counts, building no element."""
        return sum(len(ps) for _, ps in self._bounded_preds(a, qmax))

    def bounded_preorder(self, a, qmax: int):
        """The bounded fiber as an explicit Preorder (labels are elements),
        built from its classes by ``Preorder.from_le`` (at most 2·n·k decisions)."""
        elems = self.bounded_fiber(a, qmax)
        return Preorder.from_le(elems, lambda x, y: self.leq(x, y) is not None)

    def fiber_elements(self, a):
        raise CapabilityError("completion fibers are infinite; use bounded_fiber")

    # -- serialization -----------------------------------------------------------

    def pred_to_json(self, a, x: QuantElem):
        """The element as {"polarity", "base", "qobj", "pred"}, its predicate
        serialized by the base doctrine."""
        return {
            "polarity": x.polarity,
            "base": x.base,
            "qobj": x.qobj,
            "pred": self.base.pred_to_json(self.cat.product(x.base, x.qobj), x.pred),
        }

    def pred_from_json(self, a, data):
        """Inverse of :meth:`pred_to_json` for an element over `a`."""
        if data["base"] != a:
            raise ValueError("element is over the wrong object")
        qobj = data["qobj"]
        x = QuantElem(data["polarity"], a, qobj, self.base.pred_from_json(self.cat.product(a, qobj), data["pred"]))
        self._check_elem(x)
        return x


@_canonical
def _pointwise_transports(cat, a, b, c) -> tuple:
    """The pair of maps A x (B x C) -> A x B and A x (B x C) -> A x C."""
    bc = cat.product(b, c)
    pr_a = cat.proj1(a, bc)
    pr_bc = cat.proj2(a, bc)
    return (cat.pair(pr_a, cat.compose(cat.proj1(b, c), pr_bc)),
            cat.pair(pr_a, cat.compose(cat.proj2(b, c), pr_bc)))


@_canonical
def _swap_coproduct(cat, a, b) -> Arrow:
    """A + B -> B + A."""
    return cat.copair(cat.inj2(b, a), cat.inj1(b, a))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def duality_transport(x: QuantElem) -> QuantElem:
    """The same triple viewed in the opposite completion; its own inverse.

    An UN element of P corresponds to an EX element of op(P), and the
    order reverses: x <= y in P^un iff y' <= x' in (op P)^ex, with equal
    witnesses.
    """
    return QuantElem(EX if x.polarity == UN else UN, x.base, x.qobj, x.pred)


def dual_completion(comp: Completion) -> Completion:
    """The partner completion over the order-reversed base."""
    return Completion(op_doctrine(comp.base), EX if comp.polarity == UN else UN, comp.budget)

