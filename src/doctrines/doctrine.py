"""Poset-valued doctrines: the interface, the powerset instance and order
reversal.  Tabular doctrines loaded from files live in
:mod:`doctrines.tables`.

A doctrine assigns to every object A of a finite base category a poset of
predicates and to every arrow f a monotone reindexing map P_f going the
other way.  Instances are presented intensionally, by callbacks, rather
than as materialized functor tables, because the fibers of quantifier
completions over a finite-sets base are infinite.

A doctrine has a structure exactly when the method that builds it
answers; one it lacks raises CapabilityError saying what is missing.  A
quantifier along a projection or an injection is the adjoint along that
arrow, and that is its default.

Predicate values are instance-specific: the powerset doctrine uses int
bitmasks over the carrier of A, tabular doctrines use indices into their
declared fiber posets.
"""

from __future__ import annotations

from . import core
from .errors import CapabilityError, LoadError, SearchBudgetExceeded, natural
from .fincat import Arrow, SkelFinSet


class Doctrine:
    """Base interface; concrete instances override what they support.

    Optional providers raise CapabilityError by default; the quantifiers
    along projections and injections are the adjoints along those arrows.
    The `*_witness` hooks let an instance expose a fast, bit-exact
    order-decision kernel to the completion layer; returning NotImplemented
    selects the generic enumerative search.
    """

    def __init__(self, cat):
        self.cat = cat

    # -- mandatory ----------------------------------------------------

    def fiber_leq(self, a, p, q) -> bool:
        raise NotImplementedError

    def reindex(self, f: Arrow, p):
        raise NotImplementedError

    # -- optional -----------------------------------------------------

    def fiber_eq(self, a, p, q) -> bool:
        return self.fiber_leq(a, p, q) and self.fiber_leq(a, q, p)

    def fiber_elements(self, a):
        raise CapabilityError("fiber is not enumerable")

    def top(self, a):
        raise CapabilityError("no top provider")

    def bottom(self, a):
        raise CapabilityError("no bottom provider")

    def meet(self, a, p, q):
        raise CapabilityError("no meet provider")

    def join(self, a, p, q):
        raise CapabilityError("no join provider")

    def exists_pr(self, split, p):
        """Left adjoint to reindexing along proj1(split): fiber(A1xA2) -> fiber(A1)."""
        return self.exists_along(self.cat.proj1(*split), p)

    def forall_pr(self, split, p):
        return self.forall_along(self.cat.proj1(*split), p)

    def exists_inj(self, split, p):
        """Left adjoint to reindexing along inj1(split): fiber(A) -> fiber(A+B)."""
        return self.exists_along(self.cat.inj1(*split), p)

    def forall_inj(self, split, p):
        return self.forall_along(self.cat.inj1(*split), p)

    def exists_along(self, f: Arrow, p):
        raise CapabilityError(f"no left adjoint to reindexing along {f!r}")

    def forall_along(self, f: Arrow, p):
        raise CapabilityError(f"no right adjoint to reindexing along {f!r}")

    # -- fast order-decision hooks -------------------------------------

    def ex_witness(self, a, b, c, alpha, beta):
        """Least f: AxB -> C with alpha <= P_<pr,f>(beta), as a table tuple, or None."""
        return NotImplemented

    def un_witness(self, a, b, c, alpha, beta):
        """Least g: AxC -> B with P_<pr,g>(alpha) <= beta, as a table tuple, or None."""
        return NotImplemented

    def dial_witness(self, b, c, b2, c2, alpha, beta):
        """Least (f: B -> B', F: BxC' -> C) with alpha(b, F(b,c')) implying
        beta(f(b), c'), as a pair of tables, or None."""
        return NotImplemented

    # -- serialization helpers -----------------------------------------

    def pred_to_json(self, a, p):
        raise CapabilityError("predicates of this doctrine are not serializable")

    def pred_from_json(self, a, data):
        raise CapabilityError("predicates of this doctrine are not serializable")


def mask_from_indices(indices, carrier: int) -> int:
    if not isinstance(indices, (list, tuple)):
        raise LoadError(f"a predicate is a list of element indices, got {indices!r}", law="predicate-extent")
    mask = 0
    for i in indices:
        try:
            i = natural(i, "predicate element")
        except ValueError as exc:
            raise LoadError(str(exc), law="predicate-extent") from None
        if i >= carrier:
            raise LoadError(f"predicate element {i} outside carrier of size {carrier}", law="predicate-extent")
        mask |= 1 << i
    return mask


def indices_from_mask(mask: int) -> list:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


# the largest fiber `PowersetDoctrine.fiber_elements` enumerates
FIBER_ENUM_CAP = 2**20


class PowersetDoctrine(Doctrine):
    """Subsets of finite sets, over the skeleton :class:`SkelFinSet`; a
    predicate over n is an n-bit mask and reindexing is preimage.

    An object is its cardinality, so the kernel hooks hand objects to
    :mod:`core` as carrier sizes, and the kernels' bit layout is the
    skeleton's row-major products.  Direct and universal images exist
    along every arrow, strictly more than the quantifiers along projections
    and injections that the completion layer needs.
    """

    def __init__(self):
        super().__init__(SkelFinSet())

    def fiber_leq(self, a, p, q) -> bool:
        return p & ~q == 0

    def fiber_eq(self, a, p, q) -> bool:
        return p == q

    def fiber_elements(self, a):
        if 2**a > FIBER_ENUM_CAP:
            raise SearchBudgetExceeded(2**a, FIBER_ENUM_CAP, f"fiber over {a!r}", "fiber elements")
        return range(2**a)

    def reindex(self, f: Arrow, p):
        out = 0
        bit = 1
        for v in f.table:
            if (p >> v) & 1:
                out |= bit
            bit <<= 1
        return out

    def top(self, a):
        return (1 << a) - 1

    def bottom(self, a):
        return 0

    def meet(self, a, p, q):
        return p & q

    def join(self, a, p, q):
        return p | q

    def exists_along(self, f: Arrow, p):
        out = 0
        for i, v in enumerate(f.table):
            if (p >> i) & 1:
                out |= 1 << v
        return out

    def forall_along(self, f: Arrow, p):
        out = (1 << f.cod) - 1
        for i, v in enumerate(f.table):
            if not (p >> i) & 1:
                out &= ~(1 << v)
        return out

    def ex_witness(self, a, b, c, alpha, beta):
        return core.ex_witness(a, b, c, alpha, beta)

    def un_witness(self, a, b, c, alpha, beta):
        return core.un_witness(a, b, c, alpha, beta)

    def dial_witness(self, b, c, b2, c2, alpha, beta):
        return core.dial_witness(b, c, b2, c2, alpha, beta)

    def pred_to_json(self, a, p):
        return indices_from_mask(p)

    def pred_from_json(self, a, data):
        return mask_from_indices(data, a)


def powerset_doctrine() -> PowersetDoctrine:
    return PowersetDoctrine()


class OpDoctrine(Doctrine):
    """The same carriers with every fiber order reversed.

    Reversal swaps adjoint handedness, so the quantifier providers and the
    lattice providers trade places.  The quantifiers along projections and
    injections forward to the base's own, which an instance may override.
    """

    def __init__(self, base: Doctrine):
        super().__init__(base.cat)
        self.base = base

    def fiber_leq(self, a, p, q) -> bool:
        return self.base.fiber_leq(a, q, p)

    def fiber_eq(self, a, p, q) -> bool:
        return self.base.fiber_eq(a, p, q)

    def fiber_elements(self, a):
        return self.base.fiber_elements(a)

    def reindex(self, f, p):
        return self.base.reindex(f, p)

    def top(self, a):
        return self.base.bottom(a)

    def bottom(self, a):
        return self.base.top(a)

    def meet(self, a, p, q):
        return self.base.join(a, p, q)

    def join(self, a, p, q):
        return self.base.meet(a, p, q)

    def exists_pr(self, split, p):
        return self.base.forall_pr(split, p)

    def forall_pr(self, split, p):
        return self.base.exists_pr(split, p)

    def exists_inj(self, split, p):
        return self.base.forall_inj(split, p)

    def forall_inj(self, split, p):
        return self.base.exists_inj(split, p)

    def exists_along(self, f, p):
        return self.base.forall_along(f, p)

    def forall_along(self, f, p):
        return self.base.exists_along(f, p)

    def ex_witness(self, a, b, c, alpha, beta):
        return self.base.un_witness(a, c, b, beta, alpha)

    def un_witness(self, a, b, c, alpha, beta):
        return self.base.ex_witness(a, c, b, beta, alpha)

    def pred_to_json(self, a, p):
        return self.base.pred_to_json(a, p)

    def pred_from_json(self, a, data):
        return self.base.pred_from_json(a, data)


def op_doctrine(p: Doctrine) -> Doctrine:
    """Order reversal; unwraps, so op(op(P)) is P itself."""
    if isinstance(p, OpDoctrine):
        return p.base
    return OpDoctrine(p)
