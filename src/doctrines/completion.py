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

The search scans the hom-set in lexicographic table order, so returned
certificates are canonical; a negative answer is only ever the result of
a complete scan (running over budget raises instead).  Base doctrines
with pointwise fiber orders can short-circuit the scan through their
`ex_witness`/`un_witness` hooks; the hook result is re-certified against
the generic inequality, keeping the two routes honest about agreeing.

Completion fibers over a nontrivial base are infinite.  `bounded_fiber`
materializes the sub-preorder of elements whose quantified object has
cardinality at most k, which is what every exhaustive law check runs on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .doctrine import (
    CAP_EX_PR,
    CAP_INJ_LEFT,
    CAP_INJ_RIGHT,
    CAP_LAT,
    CAP_UN_PR,
    Doctrine,
)
from .errors import CapabilityError, WitnessValidationError
from .fincat import Arrow, SkelFinSet, product_map, prod_obj, nth_proj, reassoc_left, tuple_arrow
from .poset import Preorder

EX = "EX"
UN = "UN"


@dataclass(frozen=True)
class QuantElem:
    """A completion element: quantified object `qobj` and a base predicate
    over base x qobj."""

    polarity: str
    base: object
    qobj: object
    pred: object

    def __repr__(self):
        return f"QuantElem({self.polarity}, base={self.base!r}, qobj={self.qobj!r}, pred={self.pred!r})"


@dataclass(frozen=True)
class WitnessArrow:
    """A certificate for a positive order decision.

    EX direction reads `f: A x B -> C`, UN direction `g: A x C -> B`;
    validity against the defining inequality is checked when the witness
    is produced.
    """

    arrow: Arrow
    direction: str


class Completion(Doctrine):
    """The doctrine P^ex (polarity EX) or P^un (polarity UN) over `base`.

    Capabilities are derived from the base doctrine: the freely added
    quantifier is always present; the opposite quantifier along
    projections needs a universal base and exponentials (EX side only);
    injection adjoints and lattice structure need the corresponding base
    adjoints, with constants of the base category backing the adjunction
    arguments.
    """

    def __init__(self, base: Doctrine, polarity: str, budget: int | None = None):
        if polarity not in (EX, UN):
            raise ValueError(f"polarity must be EX or UN, got {polarity!r}")
        caps = set()
        caps.add(CAP_EX_PR if polarity == EX else CAP_UN_PR)
        if polarity == EX and CAP_UN_PR in base.caps and getattr(base.cat, "has_exponentials", False):
            caps.add(CAP_UN_PR)
        if CAP_INJ_LEFT in base.caps:
            caps.add(CAP_INJ_LEFT)
        if CAP_INJ_RIGHT in base.caps:
            caps.add(CAP_INJ_RIGHT)
        needed_inj = CAP_INJ_LEFT if polarity == EX else CAP_INJ_RIGHT
        if CAP_LAT in base.caps and needed_inj in base.caps:
            caps.add(CAP_LAT)
        super().__init__(base.cat, caps)
        self.base = base
        self.polarity = polarity
        self.budget = budget

    # -- element plumbing ----------------------------------------------

    def elem(self, base_obj, qobj, pred) -> QuantElem:
        return QuantElem(self.polarity, base_obj, qobj, pred)

    def _check_elem(self, x: QuantElem):
        if x.polarity != self.polarity:
            raise ValueError(f"element polarity {x.polarity} does not match completion {self.polarity}")

    def _check_pair(self, x: QuantElem, y: QuantElem):
        self._check_elem(x)
        self._check_elem(y)
        if x.base != y.base:
            raise ValueError(f"elements live over different objects: {x.base!r} vs {y.base!r}")

    # -- the order ------------------------------------------------------

    def leq(self, x: QuantElem, y: QuantElem, budget: int | None = None) -> WitnessArrow | None:
        """Decide x <= y; on success return the lexicographically first
        witnessing arrow, independently re-certified."""
        self._check_pair(x, y)
        cat = self.cat
        a = x.base
        if self.polarity == EX:
            table = self._search_ex(x, y, budget)
            if table is None:
                return None
            arrow = Arrow(cat.product(a, x.qobj), y.qobj, tuple(table))
            direction = "f: AxB -> C"
        else:
            table = self._search_un(x, y, budget)
            if table is None:
                return None
            arrow = Arrow(cat.product(a, y.qobj), x.qobj, tuple(table))
            direction = "g: AxC -> B"
        if not self.certifies(x, y, arrow):
            raise WitnessValidationError(
                f"search returned {arrow!r} for {x!r} <= {y!r}, but it does not certify"
            )
        return WitnessArrow(arrow, direction)

    def fiber_leq(self, a, x, y) -> bool:
        return self.leq(x, y) is not None

    def certifies(self, x: QuantElem, y: QuantElem, arrow: Arrow) -> bool:
        """Does `arrow` witness x <= y?  Checked via the defining base
        inequality, not via the search that produced it."""
        cat = self.cat
        a = x.base
        if self.polarity == EX:
            src = cat.product(a, x.qobj)
            graph = cat.pair(cat.proj1(a, x.qobj), arrow)
            return self.base.fiber_leq(src, x.pred, self.base.reindex(graph, y.pred))
        src = cat.product(a, y.qobj)
        graph = cat.pair(cat.proj1(a, y.qobj), arrow)
        return self.base.fiber_leq(src, self.base.reindex(graph, x.pred), y.pred)

    def _search_ex(self, x, y, budget):
        a, b, c = x.base, x.qobj, y.qobj
        fast = self.base.ex_witness(a, b, c, x.pred, y.pred)
        if fast is not NotImplemented:
            return fast
        cat = self.cat
        ab = cat.product(a, b)
        pr = cat.proj1(a, b)
        for f in cat.iter_hom(ab, c, budget if budget is not None else self.budget):
            if self.base.fiber_leq(ab, x.pred, self.base.reindex(cat.pair(pr, f), y.pred)):
                return f.table
        return None

    def _search_un(self, x, y, budget):
        a, b, c = x.base, x.qobj, y.qobj
        fast = self.base.un_witness(a, b, c, x.pred, y.pred)
        if fast is not NotImplemented:
            return fast
        cat = self.cat
        ac = cat.product(a, c)
        pr = cat.proj1(a, c)
        for g in cat.iter_hom(ac, b, budget if budget is not None else self.budget):
            if self.base.fiber_leq(ac, self.base.reindex(cat.pair(pr, g), x.pred), y.pred):
                return g.table
        return None

    # -- reindexing ------------------------------------------------------

    def reindex(self, f: Arrow, y: QuantElem) -> QuantElem:
        """Substitution along f: D -> A, keeping the quantified object."""
        self._check_elem(y)
        if y.base != f.cod:
            raise ValueError(f"element over {y.base!r} cannot be reindexed along arrow into {f.cod!r}")
        fx1 = product_map(self.cat, f, self.cat.identity(y.qobj))
        return self.elem(f.dom, y.qobj, self.base.reindex(fx1, y.pred))

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

    def _inj_transport(self, split, x: QuantElem, side: str) -> QuantElem:
        a, b = split
        self._check_elem(x)
        if x.base != a:
            raise ValueError("element does not live over the first summand")
        cat = self.cat
        d = x.qobj
        ad, bd = cat.product(a, d), cat.product(b, d)
        if side == "exists":
            inner = self.base.exists_inj((ad, bd), x.pred)
        else:
            inner = self.base.forall_inj((ad, bd), x.pred)
        # transport (AxD)+(BxD) -> (A+B)xD along the inverse distributivity iso
        tl_inv = cat.theta_left_inv(a, b, d)
        return self.elem(cat.coproduct(a, b), d, self.base.reindex(tl_inv, inner))

    def exists_inj(self, split, x: QuantElem) -> QuantElem:
        if CAP_INJ_LEFT not in self.caps:
            raise CapabilityError(f"missing capability {CAP_INJ_LEFT}")
        return self._inj_transport(split, x, "exists")

    def forall_inj(self, split, x: QuantElem) -> QuantElem:
        if CAP_INJ_RIGHT not in self.caps:
            raise CapabilityError(f"missing capability {CAP_INJ_RIGHT}")
        return self._inj_transport(split, x, "forall")

    # -- lattice structure -------------------------------------------------

    def top(self, a) -> QuantElem:
        cat = self.cat
        if self.polarity == EX:
            t = cat.terminal
            return self.elem(a, t, self.base.top(cat.product(a, t)))
        z = cat.initial
        return self.elem(a, z, self.base.bottom(cat.product(a, z)))

    def bottom(self, a) -> QuantElem:
        cat = self.cat
        if self.polarity == EX:
            z = cat.initial
            return self.elem(a, z, self.base.bottom(cat.product(a, z)))
        t = cat.terminal
        return self.elem(a, t, self.base.bottom(cat.product(a, t)))

    def _pointwise_pair(self, a, x: QuantElem, y: QuantElem):
        """Both predicates transported into the fiber over A x (B x C)."""
        cat = self.cat
        b, c = x.qobj, y.qobj
        bc = cat.product(b, c)
        pr_a = cat.proj1(a, bc)
        pr_bc = cat.proj2(a, bc)
        to_b = cat.pair(pr_a, cat.compose(cat.proj1(b, c), pr_bc))
        to_c = cat.pair(pr_a, cat.compose(cat.proj2(b, c), pr_bc))
        return bc, self.base.reindex(to_b, x.pred), self.base.reindex(to_c, y.pred)

    def meet(self, a, x: QuantElem, y: QuantElem) -> QuantElem:
        self._check_pair(x, y)
        cat = self.cat
        if self.polarity == EX:
            bc, px, py = self._pointwise_pair(a, x, y)
            return self.elem(a, bc, self.base.meet(cat.product(a, bc), px, py))
        return self._sum_combine(a, x, y, quant="forall", combine="meet")

    def join(self, a, x: QuantElem, y: QuantElem) -> QuantElem:
        self._check_pair(x, y)
        cat = self.cat
        if self.polarity == UN:
            bc, px, py = self._pointwise_pair(a, x, y)
            return self.elem(a, bc, self.base.join(cat.product(a, bc), px, py))
        return self._sum_combine(a, x, y, quant="exists", combine="join")

    def _sum_combine(self, a, x: QuantElem, y: QuantElem, quant: str, combine: str) -> QuantElem:
        """(A, B+C, theta-transport of Q_j(x) combined with Q_j(y))."""
        cat = self.cat
        b, c = x.qobj, y.qobj
        ab, ac = cat.product(a, b), cat.product(a, c)
        if quant == "exists":
            left = self.base.exists_inj((ab, ac), x.pred)
            right = self.base.reindex(
                _swap_coproduct(cat, ab, ac), self.base.exists_inj((ac, ab), y.pred)
            )
        else:
            left = self.base.forall_inj((ab, ac), x.pred)
            right = self.base.reindex(
                _swap_coproduct(cat, ab, ac), self.base.forall_inj((ac, ab), y.pred)
            )
        s = cat.coproduct(ab, ac)
        combined = self.base.meet(s, left, right) if combine == "meet" else self.base.join(s, left, right)
        theta_inv = cat.theta_inv(a, b, c)
        return self.elem(a, cat.coproduct(b, c), self.base.reindex(theta_inv, combined))

    # -- monad structure -----------------------------------------------------

    def unit(self, a, alpha) -> QuantElem:
        """A base predicate as a completion element quantifying over 1."""
        t = self.cat.terminal
        iso = self.cat.proj1(a, t)
        return self.elem(a, t, self.base.reindex(iso, alpha))

    def mult(self, z: QuantElem) -> QuantElem:
        """Collapse one level of a doubled completion:
        (A, B, (AxB, C, alpha)) becomes (A, BxC, alpha)."""
        inner = z.pred
        if not isinstance(inner, QuantElem) or inner.polarity != self.polarity:
            raise ValueError("mult expects an element whose predicate is an inner completion element")
        if inner.base != self.cat.product(z.base, z.qobj):
            raise ValueError("inner element does not live over the outer product")
        s = reassoc_left(self.cat, z.base, z.qobj, inner.qobj)
        q = self.cat.product(z.qobj, inner.qobj)
        return self.elem(z.base, q, self.base.reindex(s, inner.pred))

    # -- bounded materialization ----------------------------------------------

    def bounded_fiber(self, a, qmax: int, preds=None, qobjs=None) -> list:
        """Every element over `a` with quantified-object cardinality at most
        qmax, in deterministic (qobj, predicate) order."""
        if qobjs is None:
            if not isinstance(self.cat, SkelFinSet):
                raise CapabilityError("bounded fibers need explicit qobjs outside the finite-sets base")
            qobjs = range(qmax + 1)
        if preds is None:
            preds = self.base.fiber_elements
        out = []
        for q in qobjs:
            for p in preds(self.cat.product(a, q)):
                out.append(self.elem(a, q, p))
        return out

    def bounded_preorder(self, a, qmax: int, preds=None, budget=None):
        """The bounded fiber as an explicit Preorder (labels are elements)."""
        elems = self.bounded_fiber(a, qmax, preds)
        return Preorder.from_le(elems, lambda x, y: self.leq(x, y, budget) is not None)

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
    from .doctrine import op_doctrine

    return Completion(op_doctrine(comp.base), EX if comp.polarity == UN else UN, comp.budget)


# ---------------------------------------------------------------------------
# quantifiers along general coordinate projections
# ---------------------------------------------------------------------------


def _proj_reduction(cat, factors, keep):
    """Permutation arrow (prod kept) x (prod dropped) -> prod(factors)
    together with the kept/dropped factor lists."""
    factors = list(factors)
    keep = list(keep)
    dropped = [i for i in range(len(factors)) if i not in keep]
    kept_factors = [factors[i] for i in keep]
    dropped_factors = [factors[i] for i in dropped]
    k_obj = prod_obj(cat, kept_factors)
    d_obj = prod_obj(cat, dropped_factors)
    src = cat.product(k_obj, d_obj)
    pr_k = cat.proj1(k_obj, d_obj)
    pr_d = cat.proj2(k_obj, d_obj)
    comps = []
    for i in range(len(factors)):
        if i in keep:
            leg = nth_proj(cat, kept_factors, keep.index(i))
            comps.append(cat.compose(leg, pr_k))
        else:
            leg = nth_proj(cat, dropped_factors, dropped.index(i))
            comps.append(cat.compose(leg, pr_d))
    tau = tuple_arrow(cat, comps)
    if tau.dom != src:
        raise AssertionError("projection reduction built a mismatched arrow")
    return tau, k_obj, d_obj


def exists_proj(doc: Doctrine, factors, keep, pred):
    """Left adjoint to reindexing along the coordinate projection
    prod(factors) -> prod(factors[i] for i in keep), reduced to the binary
    first-projection adjoint through a permutation isomorphism."""
    if list(keep) == list(range(len(factors))):
        return pred
    tau, k_obj, d_obj = _proj_reduction(doc.cat, factors, keep)
    return doc.exists_pr((k_obj, d_obj), doc.reindex(tau, pred))


def forall_proj(doc: Doctrine, factors, keep, pred):
    """Right adjoint analogue of :func:`exists_proj`."""
    if list(keep) == list(range(len(factors))):
        return pred
    tau, k_obj, d_obj = _proj_reduction(doc.cat, factors, keep)
    return doc.forall_pr((k_obj, d_obj), doc.reindex(tau, pred))
