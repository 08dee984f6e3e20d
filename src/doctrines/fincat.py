"""Finite base categories with chosen products, coproducts and exponentials.

:class:`SkelFinSet` is the skeleton of finite sets: an object is its
cardinality, an arrow is a value table, all structure is canonical.  The
helpers below are generic over any category with that interface, which
:class:`doctrines.tables.TableCat`, a category loaded from a file, shares.

Encoding conventions, which every higher layer relies on being bit-exact:

* product carrier: ``index(a, b) = a*|B| + b`` (row-major);
* coproduct carrier: left summand at offset 0, right summand at ``|A|``;
* exponential carrier: a function ``A -> B`` is ranked lexicographically
  by its value tuple, position 0 most significant.

Iterated products are left-associated.  Under row-major flattening the
reassociation ``(A x B) x C ~ A x (B x C)`` and the unit isomorphisms
``A x 1 ~ A ~ 1 x A`` all have identity tables, but helpers below still
construct them as explicit arrows so code stays correct over any base.

Products are binary: every quantifier the library adds runs along a
projection ``A x B -> A``, and the one wider product it forms, the
``(A1 x B^A2) x A2`` of Skolemization, is built from ``pair``/``proj*``.

Canonical structure maps (identities, projections, injections, ``bang``,
evaluation, the generic ``reassoc_left``, the distributivity isos of
finite sets, and, registered from their own modules, the evaluation
expansion behind ``forall_pr_exp``, the transports of a completion's
pointwise meet or join and the coproduct swap) are built once per
category instance, on first request, and then shared: every later request
for the same maps between the same objects returns the same immutable
value.  The memo lives on the category, so a fresh category starts empty.

Two maps built from an arrow are memoized the same way, keyed on the
arrow: the graph ``<pr1, f>`` of :func:`graph_pr1`, along which every
completion and dialectica certificate is re-checked, and ``f x 1_Q`` of
:func:`times_identity`, along which completion elements are reindexed
and the forward map of a dialectica certificate acts.  They cost one
entry per distinct certificate or reindexing arrow, per category, for as
long as the category lives: a whole law run at ``max_card=2, qmax=2``
leaves about 1,600 entries (300 without them), one at ``qmax=3`` about
59,000 graphs in some 25 MB, and a second run on the same category adds
none.

Every other map that depends on arrows is built on every call.  On
:class:`SkelFinSet` ``compose``, ``pair``, ``copair`` and ``product_map``
are each one pass of table arithmetic; ``f x g`` is the row-major table
``f(a)*|B'| + g(b)``.  These, and ``iter_hom``, build their arrows with
:data:`make_arrow`, one C call on a ``(dom, cod, table)`` tuple, instead
of ``Arrow(dom, cod, table)``, whose generated ``__new__`` is a Python
frame of its own; the record is the same either way.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import SearchBudgetExceeded, resolve_budget


class Arrow(NamedTuple):
    """A set map between finite carriers: ``table[x]`` is the image of x.
    Immutable; compared and hashed as the tuple ``(dom, cod, table)``."""

    dom: object
    cod: object
    table: tuple

    def __repr__(self):
        return f"Arrow({self.dom!r} -> {self.cod!r}, {list(self.table)})"


# Arrow from one (dom, cod, table) tuple, without a Python-level frame
make_arrow = functools.partial(tuple.__new__, Arrow)


def compose(g: Arrow, f: Arrow) -> Arrow:
    """g after f."""
    if f.cod != g.dom:
        raise ValueError(f"cannot compose: cod {f.cod!r} != dom {g.dom!r}")
    return make_arrow((f.dom, g.cod, tuple(g.table[v] for v in f.table)))


def identity_table(n: int) -> tuple:
    return tuple(range(n))


def _canonical(build):
    """Decorator for ``build(cat, *args)``, a method or a function taking
    the category first and then objects or arrows: the map is built once
    per category and kept in ``cat._memo`` under the build's name and the
    arguments.  A build that raises leaves no entry."""
    kind = build.__name__

    @functools.wraps(build)
    def memoized(cat, *args):
        key = (kind, *args)
        arrow = cat._memo.get(key)
        if arrow is None:
            arrow = cat._memo[key] = build(cat, *args)
        return arrow

    return memoized


class SkelFinSet:
    """Skeleton of finite sets: object n has carrier {0,..,n-1} and every
    total function between carriers is an arrow."""

    terminal = 1
    initial = 0

    def __init__(self):
        self._memo = {}  # (kind, *objects or arrows) -> Arrow, or a tuple of them

    @_canonical
    def identity(self, a) -> Arrow:
        return Arrow(a, a, identity_table(a))

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        return compose(g, f)

    # -- hom-sets ----------------------------------------------------

    def hom_size(self, a, b) -> int:
        return b**a

    def iter_hom(self, a, b, budget=None):
        """Yield Hom(a, b) in lexicographic table order.

        Raises SearchBudgetExceeded once more than `budget` arrows have
        been yielded; a caller that finds its witness earlier is unaffected.
        """
        cap = resolve_budget(budget)
        if a == 0:
            yield make_arrow((a, b, ()))
            return
        if b == 0:
            return
        count = 0
        table = [0] * a
        while True:
            if count >= cap:
                raise SearchBudgetExceeded(self.hom_size(a, b), cap, f"Hom({a},{b})")
            yield make_arrow((a, b, tuple(table)))
            count += 1
            i = a - 1
            while i >= 0:
                table[i] += 1
                if table[i] < b:
                    break
                table[i] = 0
                i -= 1
            if i < 0:
                return

    # -- products ----------------------------------------------------

    def product(self, a, b):
        return a * b

    @_canonical
    def proj1(self, a, b) -> Arrow:
        return Arrow(a * b, a, tuple(i // b for i in range(a * b)))

    @_canonical
    def proj2(self, a, b) -> Arrow:
        return Arrow(a * b, b, tuple(i % b for i in range(a * b)))

    def pair(self, f: Arrow, g: Arrow) -> Arrow:
        """<f, g>: X -> A x B for f: X -> A, g: X -> B."""
        if f.dom != g.dom:
            raise ValueError("pairing needs a common domain")
        b = g.cod
        return make_arrow((f.dom, f.cod * b, tuple(fv * b + gv for fv, gv in zip(f.table, g.table))))

    # -- coproducts --------------------------------------------------

    def coproduct(self, a, b):
        return a + b

    @_canonical
    def inj1(self, a, b) -> Arrow:
        return Arrow(a, a + b, tuple(range(a)))

    @_canonical
    def inj2(self, a, b) -> Arrow:
        return Arrow(b, a + b, tuple(a + i for i in range(b)))

    def copair(self, f: Arrow, g: Arrow) -> Arrow:
        """[f, g]: A + B -> C for f: A -> C, g: B -> C."""
        if f.cod != g.cod:
            raise ValueError("copairing needs a common codomain")
        return make_arrow((f.dom + g.dom, f.cod, f.table + g.table))

    # -- terminal ----------------------------------------------------

    @_canonical
    def bang(self, a) -> Arrow:
        return Arrow(a, 1, (0,) * a)

    # -- exponentials ------------------------------------------------

    def exponential(self, b, a):
        return b**a

    @_canonical
    def ev(self, b, a) -> Arrow:
        """Evaluation A x B^A -> B; the function argument comes second."""
        e = b**a
        table = []
        for i in range(a * e):
            v, g = divmod(i, e)
            table.append((g // b ** (a - 1 - v)) % b)
        return Arrow(a * e, b, tuple(table))

    # -- distributivity ----------------------------------------------

    @_canonical
    def theta(self, a, b, c) -> Arrow:
        """(A x B) + (A x C) -> A x (B + C), canonical distributivity iso
        [1_A x inj1, 1_A x inj2]."""
        ident = self.identity(a)
        return self.copair(product_map(self, ident, self.inj1(b, c)), product_map(self, ident, self.inj2(b, c)))

    @_canonical
    def theta_inv(self, a, b, c) -> Arrow:
        return self.invert(self.theta(a, b, c))

    @_canonical
    def theta_left(self, a, b, d) -> Arrow:
        """(A x D) + (B x D) -> (A + B) x D, the mirrored distributivity iso
        [inj1 x 1_D, inj2 x 1_D].  Identity table under the offset/row-major
        encodings."""
        ident = self.identity(d)
        return self.copair(product_map(self, self.inj1(a, b), ident), product_map(self, self.inj2(a, b), ident))

    @_canonical
    def theta_left_inv(self, a, b, d) -> Arrow:
        return self.invert(self.theta_left(a, b, d))

    def invert(self, f: Arrow) -> Arrow:
        """Inverse of a bijective table."""
        if f.dom != f.cod:
            raise ValueError("not invertible: carrier sizes differ")
        inv = [None] * len(f.table)
        for i, v in enumerate(f.table):
            if inv[v] is not None:
                raise ValueError("not invertible: table is not injective")
            inv[v] = i
        return Arrow(f.cod, f.dom, tuple(inv))


# ---------------------------------------------------------------------------
# structure helpers generic over any category with chosen products
# ---------------------------------------------------------------------------


def product_map(cat, f: Arrow, g: Arrow) -> Arrow:
    """f x g: A x B -> A' x B'; one row-major table on finite sets."""
    if isinstance(cat, SkelFinSet):
        b2 = g.cod
        table = tuple([fa * b2 + gb for fa in f.table for gb in g.table])
        return make_arrow((f.dom * g.dom, f.cod * b2, table))
    p1 = cat.proj1(f.dom, g.dom)
    p2 = cat.proj2(f.dom, g.dom)
    return cat.pair(cat.compose(f, p1), cat.compose(g, p2))


@_canonical
def graph_pr1(cat, a, b, f: Arrow) -> Arrow:
    """The graph <pr1, f>: A x B -> A x C of f: A x B -> C."""
    return cat.pair(cat.proj1(a, b), f)


@_canonical
def times_identity(cat, f: Arrow, q) -> Arrow:
    """f x 1_Q: D x Q -> A x Q for f: D -> A."""
    return product_map(cat, f, cat.identity(q))


@_canonical
def reassoc_left(cat, a, b, c) -> Arrow:
    """A x (B x C) -> (A x B) x C.  Identity table in the skeletal encoding."""
    bc = cat.product(b, c)
    p_a = cat.proj1(a, bc)
    p_bc = cat.proj2(a, bc)
    p_b = cat.compose(cat.proj1(b, c), p_bc)
    p_c = cat.compose(cat.proj2(b, c), p_bc)
    return cat.pair(cat.pair(p_a, p_b), p_c)
