"""Poset-valued doctrines: the interface, the powerset instance, order
reversal, tabular file-loaded instances and their loader.

A doctrine assigns to every object A of a finite base category a poset of
predicates and to every arrow f a monotone reindexing map P_f going the
other way.  Instances are presented intensionally (callbacks plus
capability flags) rather than as materialized functor tables, because the
fibers of quantifier completions over a finite-sets base are infinite.

Predicate values are instance-specific: the powerset doctrine uses int
bitmasks over the carrier of A, tabular doctrines use indices into their
declared fiber posets.
"""

from __future__ import annotations

import json

from . import core
from .errors import CapabilityError, LoadError, SearchBudgetExceeded
from .fincat import Arrow, SkelFinSet, TableCat, load_category
from .poset import Preorder

CAP_EX_PR = "existential-over-projections"
CAP_UN_PR = "universal-over-projections"
CAP_INJ_LEFT = "adjoints-over-injections-left"
CAP_INJ_RIGHT = "adjoints-over-injections-right"
CAP_LAT = "lat-fibers"
CAP_ALONG_ALL = "adjoints-along-all-arrows"

ALL_CAPS = frozenset(
    {CAP_EX_PR, CAP_UN_PR, CAP_INJ_LEFT, CAP_INJ_RIGHT, CAP_LAT, CAP_ALONG_ALL}
)


class Doctrine:
    """Base interface; concrete instances override what they support.

    Optional providers raise CapabilityError by default.  The `*_witness`
    hooks let an instance expose a fast, bit-exact order-decision kernel
    to the completion layer; returning NotImplemented selects the generic
    enumerative search.
    """

    def __init__(self, cat, caps=frozenset()):
        self.cat = cat
        self.caps = frozenset(caps)

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
        raise CapabilityError(f"missing capability {CAP_EX_PR}")

    def forall_pr(self, split, p):
        raise CapabilityError(f"missing capability {CAP_UN_PR}")

    def exists_inj(self, split, p):
        """Left adjoint to reindexing along inj1(split): fiber(A) -> fiber(A+B)."""
        raise CapabilityError(f"missing capability {CAP_INJ_LEFT}")

    def forall_inj(self, split, p):
        raise CapabilityError(f"missing capability {CAP_INJ_RIGHT}")

    def exists_along(self, f: Arrow, p):
        raise CapabilityError(f"missing capability {CAP_ALONG_ALL}")

    def forall_along(self, f: Arrow, p):
        raise CapabilityError(f"missing capability {CAP_ALONG_ALL}")

    # -- fast order-decision hooks -------------------------------------

    def ex_witness(self, a, b, c, alpha, beta):
        """Least f: AxB -> C with alpha <= P_<pr,f>(beta), as a table, or None."""
        return NotImplemented

    def un_witness(self, a, b, c, alpha, beta):
        """Least g: AxC -> B with P_<pr,g>(alpha) <= beta, as a table, or None."""
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

    def _has_any_adjoint_tables(self) -> bool:
        return False


def mask_from_indices(indices, carrier: int) -> int:
    mask = 0
    for i in indices:
        i = int(i)
        if not 0 <= i < carrier:
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


class PowersetDoctrine(Doctrine):
    """Subsets of finite carriers; reindexing is preimage.

    Direct and universal images exist along every arrow, so all capability
    flags hold, strictly more than the projection/injection classes the
    completion layer needs.
    """

    def __init__(self, cat: SkelFinSet | None = None, enum_cap: int = 2**20):
        super().__init__(cat or SkelFinSet(), ALL_CAPS)
        self.enum_cap = enum_cap

    def carrier(self, a) -> int:
        return self.cat.card(a)

    def fiber_leq(self, a, p, q) -> bool:
        return p & ~q == 0

    def fiber_eq(self, a, p, q) -> bool:
        return p == q

    def fiber_elements(self, a):
        n = self.carrier(a)
        if 2**n > self.enum_cap:
            raise SearchBudgetExceeded(2**n, self.enum_cap, f"fiber over {a!r}")
        return range(2**n)

    def reindex(self, f: Arrow, p):
        out = 0
        for i, v in enumerate(f.table):
            if (p >> v) & 1:
                out |= 1 << i
        return out

    def top(self, a):
        return (1 << self.carrier(a)) - 1

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
        out = (1 << self.carrier(f.cod)) - 1
        for i, v in enumerate(f.table):
            if not (p >> i) & 1:
                out &= ~(1 << v)
        return out

    def exists_pr(self, split, p):
        return self.exists_along(self.cat.proj1(*split), p)

    def forall_pr(self, split, p):
        return self.forall_along(self.cat.proj1(*split), p)

    def exists_inj(self, split, p):
        return self.exists_along(self.cat.inj1(*split), p)

    def forall_inj(self, split, p):
        return self.forall_along(self.cat.inj1(*split), p)

    def ex_witness(self, a, b, c, alpha, beta):
        return core.ex_witness(self.carrier(a), self.carrier(b), self.carrier(c), alpha, beta)

    def un_witness(self, a, b, c, alpha, beta):
        return core.un_witness(self.carrier(a), self.carrier(b), self.carrier(c), alpha, beta)

    def dial_witness(self, b, c, b2, c2, alpha, beta):
        return core.dial_witness(
            self.carrier(b), self.carrier(c), self.carrier(b2), self.carrier(c2), alpha, beta
        )

    def pred_to_json(self, a, p):
        return indices_from_mask(p)

    def pred_from_json(self, a, data):
        return mask_from_indices(data, self.carrier(a))


def powerset_doctrine() -> PowersetDoctrine:
    return PowersetDoctrine()


_SWAPPED_CAPS = {
    CAP_EX_PR: CAP_UN_PR,
    CAP_UN_PR: CAP_EX_PR,
    CAP_INJ_LEFT: CAP_INJ_RIGHT,
    CAP_INJ_RIGHT: CAP_INJ_LEFT,
    CAP_LAT: CAP_LAT,
    CAP_ALONG_ALL: CAP_ALONG_ALL,
}


class OpDoctrine(Doctrine):
    """The same carriers with every fiber order reversed.

    Reversal swaps adjoint handedness, so the quantifier providers and the
    lattice providers trade places.
    """

    def __init__(self, base: Doctrine):
        super().__init__(base.cat, {_SWAPPED_CAPS[c] for c in base.caps})
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


class TabularDoctrine(Doctrine):
    """A doctrine with every fiber and reindex map given explicitly.

    Predicates are indices into the declared fiber posets.  Built from
    untrusted files, so :func:`load_doctrine` re-verifies the laws unless
    told not to.
    """

    def __init__(self, cat: TableCat, fibers, reindex_tables, exists_tables=None, forall_tables=None, caps=frozenset()):
        super().__init__(cat, caps)
        self.fibers = dict(fibers)  # obj -> Preorder
        self._reindex = dict(reindex_tables)  # arrow -> tuple
        self._exists = dict(exists_tables or {})
        self._forall = dict(forall_tables or {})

    def fiber_leq(self, a, p, q) -> bool:
        return self.fibers[a].le(p, q)

    def fiber_elements(self, a):
        return range(self.fibers[a].n)

    def reindex(self, f: Arrow, p):
        try:
            return self._reindex[f][p]
        except KeyError:
            raise CapabilityError(f"no reindex table for {f!r}") from None

    def exists_along(self, f: Arrow, p):
        try:
            return self._exists[f][p]
        except KeyError:
            raise CapabilityError(f"no left adjoint table for {f!r}") from None

    def forall_along(self, f: Arrow, p):
        try:
            return self._forall[f][p]
        except KeyError:
            raise CapabilityError(f"no right adjoint table for {f!r}") from None

    def pred_to_json(self, a, p):
        return self.fibers[a].labels[p]

    def pred_from_json(self, a, data):
        return self.fibers[a].labels.index(data)

    def _has_any_adjoint_tables(self) -> bool:
        return bool(self._exists) or bool(self._forall)


def load_doctrine(source, cat: TableCat | None = None, verify: bool = True) -> TabularDoctrine:
    """Load a tabular doctrine from a JSON file path, JSON text, or dict.

    With verify=True (the default for untrusted input) the doctrine laws
    are checked and the first violation raises LoadError naming the law.
    """
    data = source
    if not isinstance(source, dict):
        text = source
        if isinstance(source, str) and not source.lstrip().startswith("{"):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LoadError(f"not valid JSON: {exc}") from None

    if cat is None:
        catspec = data.get("category")
        if catspec is None:
            raise LoadError("doctrine file has no category and none was supplied")
        cat = load_category(catspec)

    fibers = {}
    for obj_id, spec in data.get("fibers", {}).items():
        if obj_id not in cat.objects():
            raise LoadError(f"fiber declared over unknown object {obj_id!r}", law="fiber-object")
        elems = list(spec["elements"])
        try:
            fibers[obj_id] = Preorder.from_pairs(elems, [tuple(p) for p in spec.get("leq", [])])
        except ValueError as exc:
            raise LoadError(f"fiber over {obj_id!r}: {exc}", law="fiber-order") from None
    missing = set(cat.objects()) - set(fibers)
    if missing:
        raise LoadError(f"objects without fibers: {sorted(map(repr, missing))}", law="fiber-object")

    def table_for(kind, name, block):
        arrow = cat.names.get(name)
        if arrow is None:
            raise LoadError(f"{kind} table for unknown arrow {name!r}", law="arrow-table")
        src = fibers[arrow.cod] if kind == "reindex" else fibers[arrow.dom]
        dst = fibers[arrow.dom] if kind == "reindex" else fibers[arrow.cod]
        table = tuple(int(v) for v in block)
        if len(table) != src.n or any(v < 0 or v >= dst.n for v in table):
            raise LoadError(f"{kind} table for {name!r} is ill-formed", law="map-table")
        return arrow, table

    reindex_tables = {}
    for name, block in data.get("reindex", {}).items():
        arrow, table = table_for("reindex", name, block)
        reindex_tables[arrow] = table
    for name, arrow in cat.names.items():
        if arrow not in reindex_tables:
            raise LoadError(f"arrow {name!r} has no reindex table", law="map-table")

    exists_tables = {}
    for name, block in data.get("exists", {}).items():
        arrow, table = table_for("exists", name, block)
        exists_tables[arrow] = table
    forall_tables = {}
    for name, block in data.get("forall", {}).items():
        arrow, table = table_for("forall", name, block)
        forall_tables[arrow] = table

    caps = frozenset(data.get("capabilities", []))
    unknown = caps - ALL_CAPS
    if unknown:
        raise LoadError(f"unknown capability flags {sorted(unknown)}", law="capabilities")

    doc = TabularDoctrine(cat, fibers, reindex_tables, exists_tables, forall_tables, caps)
    if verify:
        from .laws import verify_doctrine

        rep = verify_doctrine(doc)
        for r in rep.failed:
            raise LoadError(
                f"doctrine law violated: {json.dumps(r.counterexample, sort_keys=True, default=repr)}",
                law=r.law,
            )
    return doc

