"""Finite base categories with chosen products, coproducts and exponentials.

Two implementations share one interface: :class:`SkelFinSet`, the skeleton
of finite sets (an object is its cardinality, an arrow is a value table,
all structure is canonical), and :class:`TableCat`, a finite category
loaded from a file with explicitly declared hom-sets and chosen structure.

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
``f(a)*|B'| + g(b)``.
A :class:`TableCat` verifies its declared structure when it is built: a
chosen product by grouping, for each object X, the arrows X -> A x B by
the cone they mediate, which must hit every cone once; a coproduct by the
same routine on the opposite category; an exponential by currying.  It
keeps the one mediating arrow of every cone and cocone: ``pair`` and
``copair`` look that arrow up, and ``product_map`` is built from them as
``<f . pr1, g . pr2>``.  The distributivity isos exist on finite sets only;
no doctrine over a :class:`TableCat` has the injection adjoints that use
them.
"""

from __future__ import annotations

import functools
import json
from typing import NamedTuple

from .errors import CapabilityError, LoadError, SearchBudgetExceeded, natural, resolve_budget


class Arrow(NamedTuple):
    """A set map between finite carriers: ``table[x]`` is the image of x.
    Immutable; compared and hashed as the tuple ``(dom, cod, table)``."""

    dom: object
    cod: object
    table: tuple

    def __repr__(self):
        return f"Arrow({self.dom!r} -> {self.cod!r}, {list(self.table)})"


def compose(g: Arrow, f: Arrow) -> Arrow:
    """g after f."""
    if f.cod != g.dom:
        raise ValueError(f"cannot compose: cod {f.cod!r} != dom {g.dom!r}")
    return Arrow(f.dom, g.cod, tuple(g.table[v] for v in f.table))


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

    has_exponentials = True

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
            yield Arrow(a, b, ())
            return
        if b == 0:
            return
        count = 0
        table = [0] * a
        while True:
            if count >= cap:
                raise SearchBudgetExceeded(self.hom_size(a, b), cap, f"Hom({a},{b})")
            yield Arrow(a, b, tuple(table))
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
        return Arrow(f.dom, f.cod * b, tuple(fv * b + gv for fv, gv in zip(f.table, g.table)))

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
        return Arrow(f.dom + g.dom, f.cod, f.table + g.table)

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
        return Arrow(f.dom * g.dom, f.cod * b2, table)
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


# ---------------------------------------------------------------------------
# file-loaded finite categories
# ---------------------------------------------------------------------------


class TableCat:
    """A finite category given by explicit hom-sets of value tables.

    Hom-sets are arbitrary subsets of all functions between the carriers
    (closed under composition and containing identities), so declared
    limit/colimit structure is honest data.  Construction verifies it by
    mediating-arrow enumeration, a coproduct as a product of the opposite
    category, and keeps the one mediating arrow of every cone and cocone,
    which is what ``pair`` and ``copair`` return.
    """

    def __init__(self, cards, homs, names, structure=None):
        self._memo = {}  # (kind, *objects or arrows) -> Arrow, or a tuple of them
        self._cards = dict(cards)  # obj id -> card
        self._homs = {k: sorted(v, key=lambda f: f.table) for k, v in homs.items()}
        self.names = dict(names)  # arrow name -> Arrow
        self._by_value = {(f.dom, f.cod, f.table) for hs in self._homs.values() for f in hs}
        s = structure or {}
        self.terminal = s.get("terminal")
        self.initial = s.get("initial")
        self._products = s.get("products", {})  # (a,b) -> (obj, proj1, proj2)
        self._coproducts = s.get("coproducts", {})
        self._exponentials = s.get("exponentials", {})  # (b,a) -> (obj, ev)
        self._pairs = {}  # (f, g) -> <f, g>, one per cone of a chosen product
        self._copairs = {}  # (f, g) -> [f, g], one per cocone of a chosen coproduct
        _verify_structure(self)

    # -- interface ----------------------------------------------------

    @property
    def has_exponentials(self):
        return bool(self._exponentials)

    def objects(self):
        return list(self._cards)

    def _card(self, a) -> int:
        """The cardinality of a declared object."""
        try:
            return self._cards[a]
        except KeyError:
            raise CapabilityError(f"{a!r} is not a declared object") from None

    @_canonical
    def identity(self, a) -> Arrow:
        return Arrow(a, a, identity_table(self._card(a)))

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        h = compose(g, f)
        if (h.dom, h.cod, h.table) not in self._by_value:
            raise CapabilityError(f"composite of {f!r} and {g!r} is not a declared arrow")
        return h

    def hom(self, a, b) -> list:
        return list(self._homs.get((a, b), []))

    def hom_size(self, a, b) -> int:
        return len(self._homs.get((a, b), []))

    def iter_hom(self, a, b, budget=None):
        cap = resolve_budget(budget)
        hs = self._homs.get((a, b), [])

        def gen():
            for i, f in enumerate(hs):
                if i >= cap:
                    raise SearchBudgetExceeded(len(hs), cap, f"Hom({a!r},{b!r})")
                yield f

        return gen()

    def _chosen(self, table, kind, a, b):
        """The declared entry (object, structure arrows) for (a, b) in `table`."""
        try:
            return table[(a, b)]
        except KeyError:
            raise CapabilityError(f"no chosen {kind} for ({a!r},{b!r})") from None

    @staticmethod
    def _mediating(recorded, f, g):
        """The mediating arrow of the cone or cocone (f, g), recorded when
        the structure was verified."""
        try:
            return recorded[f, g]
        except KeyError:
            raise CapabilityError(f"{f!r} and {g!r} are not declared arrows") from None

    def product(self, a, b):
        return self._chosen(self._products, "product", a, b)[0]

    def proj1(self, a, b) -> Arrow:
        return self._chosen(self._products, "product", a, b)[1]

    def proj2(self, a, b) -> Arrow:
        return self._chosen(self._products, "product", a, b)[2]

    def pair(self, f: Arrow, g: Arrow) -> Arrow:
        if f.dom != g.dom:
            raise ValueError("pairing needs a common domain")
        self._chosen(self._products, "product", f.cod, g.cod)
        return self._mediating(self._pairs, f, g)

    def coproduct(self, a, b):
        return self._chosen(self._coproducts, "coproduct", a, b)[0]

    def inj1(self, a, b) -> Arrow:
        return self._chosen(self._coproducts, "coproduct", a, b)[1]

    def inj2(self, a, b) -> Arrow:
        return self._chosen(self._coproducts, "coproduct", a, b)[2]

    def copair(self, f: Arrow, g: Arrow) -> Arrow:
        if f.cod != g.cod:
            raise ValueError("copairing needs a common codomain")
        self._chosen(self._coproducts, "coproduct", f.dom, g.dom)
        return self._mediating(self._copairs, f, g)

    def bang(self, a) -> Arrow:
        if self.terminal is None:
            raise CapabilityError("no chosen terminal object")
        self._card(a)
        return self._homs[a, self.terminal][0]

    def exponential(self, b, a):
        return self._chosen(self._exponentials, "exponential", b, a)[0]

    def ev(self, b, a) -> Arrow:
        return self._chosen(self._exponentials, "exponential", b, a)[1]


# ---------------------------------------------------------------------------
# loader
# ---------------------------------------------------------------------------


def load_category(source) -> TableCat:
    """Build a TableCat from a JSON file path, JSON text, or a dict.

    Every category law and every declared piece of chosen structure is
    re-verified; violations raise LoadError naming the broken law.
    """
    data = _as_dict(source)
    _known_keys(data, ("objects", "arrows", "composition", "structure"), "a category")
    cards: dict = {}
    try:
        for o in data["objects"]:
            if o["id"] in cards:
                raise LoadError(f"duplicate object id {o['id']!r}", law="object-id")
            cards[o["id"]] = natural(o["card"], "object card")
    except ValueError as exc:
        raise LoadError(str(exc), law="object-card") from None
    except (KeyError, TypeError) as exc:
        raise LoadError(f"bad object list: {exc}") from None

    homs: dict = {}
    names: dict = {}
    for spec in _block(data, "arrows", []):
        try:
            name, dom, cod = spec.get("id"), spec.get("dom"), spec.get("cod")
            if dom not in cards or cod not in cards:
                raise LoadError(f"arrow {name!r} references unknown object", law="arrow-table")
            table = tuple(natural(v, "arrow table entry") for v in spec.get("table", []))
            duplicate = name in names
        except (AttributeError, TypeError, ValueError) as exc:
            raise LoadError(f"bad arrow entry {spec!r}: {exc}", law="arrow-table") from None
        if len(table) != cards[dom] or any(v >= cards[cod] for v in table):
            raise LoadError(f"arrow {name!r} has an ill-formed table", law="arrow-table")
        arr = Arrow(dom, cod, table)
        if duplicate:
            raise LoadError(f"duplicate arrow id {name!r}", law="arrow-table")
        names[name] = arr
        homs.setdefault((dom, cod), [])
        if arr not in homs[(dom, cod)]:
            homs[(dom, cod)].append(arr)

    by_value = {}
    for hs in homs.values():
        for f in hs:
            by_value[(f.dom, f.cod, f.table)] = f

    # identity presence and unit laws (automatic for identity tables)
    for obj, card in cards.items():
        if (obj, obj, identity_table(card)) not in by_value:
            raise LoadError(f"object {obj!r} has no identity arrow", law="identity-presence")

    # closure under composition; associativity then holds because arrows
    # compose as functions of their tables
    for (a, b), fs in homs.items():
        for (b2, c), gs in homs.items():
            if b2 != b:
                continue
            for f in fs:
                for g in gs:
                    h = compose(g, f)
                    if (a, c, h.table) not in by_value:
                        raise LoadError(
                            f"composite of {_name_of(names, f)} then {_name_of(names, g)} "
                            "is not a declared arrow",
                            law="composition-closure",
                        )

    for triple in _block(data, "composition", []):
        try:
            fst, snd, res = triple
            known = fst in names and snd in names and res in names
        except (TypeError, ValueError):
            raise LoadError("composition entries must be [f, g, result]") from None
        if not known:
            raise LoadError(f"composition entry {triple} names unknown arrows", law="composition-table")
        h = compose(names[snd], names[fst])
        if names[res] != h:
            raise LoadError(
                f"declared composite {res!r} of {fst!r};{snd!r} disagrees with table composition",
                law="composition-table",
            )

    structure = _load_structure(_block(data, "structure", {}), cards, names)
    return TableCat(cards, homs, names, structure)


def read_json(source: str):
    """Parse `source` as JSON text when it starts with ``{`` or ``[``, else
    as the contents of the file it names; LoadError if it cannot.  Text
    that names no file but is a JSON scalar (``5``, ``"a"``) is that
    value, so the caller's type check says what it expected instead of
    a missing file."""
    text = source
    if not source.lstrip().startswith(("{", "[")):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            try:
                return json.loads(source)
            except json.JSONDecodeError:
                raise LoadError(f"cannot read {source!r}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"not valid JSON: {exc}") from None


def _as_dict(source):
    data = read_json(source) if isinstance(source, str) else source
    if not isinstance(data, dict):
        raise LoadError(f"expected a JSON object, got {type(data).__name__}")
    return data


def _block(data, key, default):
    """``data[key]``, or `default` when absent; a block whose JSON type
    differs from the default's is a LoadError."""
    value = data.get(key, default)
    if not isinstance(value, type(default)):
        raise LoadError(f"{key!r} must be a JSON {'object' if isinstance(default, dict) else 'array'}")
    return value


def _known_keys(data, keys, what):
    """LoadError naming the first key of `data` outside `keys`, so that a
    misspelt block is refused instead of loading a weaker structure."""
    for key in data:
        if key not in keys:
            raise LoadError(f"unknown key {key!r} in {what}; expected one of {', '.join(keys)}")


def _name_of(names, arrow):
    for n, a in names.items():
        if a == arrow:
            return repr(n)
    return repr(arrow)


def _load_structure(block, cards, names):
    _known_keys(block, ("terminal", "initial", "products", "coproducts", "exponentials"), "the structure block")

    def obj(name, what):
        if name not in cards:
            raise LoadError(f"{what} references unknown object {name!r}", law="structure-ref")
        return name

    def arrow_ref(name, what):
        if name not in names:
            raise LoadError(f"{what} references unknown arrow {name!r}", law="structure-ref")
        return names[name]

    s: dict = {}
    try:
        for key in ("terminal", "initial"):
            if key in block:
                s[key] = obj(block[key], key)
        for kind, legs in (("products", ("proj1", "proj2")), ("coproducts", ("inj1", "inj2"))):
            what = kind[:-1]
            s[kind] = {}
            for p in block.get(kind, []):
                key = (obj(p["left"], what), obj(p["right"], what))
                s[kind][key] = (obj(p["obj"], what), *(arrow_ref(p[leg], what) for leg in legs))
        s["exponentials"] = {}
        for p in block.get("exponentials", []):
            key = (obj(p["base"], "exponential"), obj(p["exp"], "exponential"))
            s["exponentials"][key] = (obj(p["obj"], "exponential"), arrow_ref(p["ev"], "exponential"))
    except (AttributeError, KeyError, TypeError) as exc:
        raise LoadError(f"bad structure block: {exc!r}", law="structure-ref") from None
    return s


def _verify_structure(cat: TableCat):
    """Check every declared universal property by enumeration, recording
    the unique mediating arrow of each cone and cocone on `cat`."""
    objs = cat.objects()
    # an initial object is a terminal object of the opposite category
    for kind, end, flip in (("terminal", cat.terminal, False), ("initial", cat.initial, True)):
        if end is None:
            continue
        for x in objs:
            src, dst = (end, x) if flip else (x, end)
            if len(cat.hom(src, dst)) != 1:
                raise LoadError(f"Hom({src!r}, {dst!r}) is not a singleton", law=f"{kind}-universal-property")
    _record_mediators(objs, cat.hom, compose, cat._products, cat._pairs, "product", "projections", "cone from")
    # a coproduct is a product of the opposite category
    _record_mediators(objs, lambda x, y: cat.hom(y, x), lambda g, f: compose(f, g),
                      cat._coproducts, cat._copairs, "coproduct", "injections", "cocone to")
    # the currying check pairs through the chosen products, so every
    # product's mediating arrows must be recorded above before it runs
    for (b, a), (obj, evm) in cat._exponentials.items():
        if (a, obj) not in cat._products:
            raise LoadError(
                f"exponential ({b!r}^{a!r}) needs a chosen product ({a!r},{obj!r})",
                law="exponential-universal-property",
            )
        if evm.cod != b or evm.dom != cat.product(a, obj):
            raise LoadError(
                f"evaluation for {b!r}^{a!r} has wrong endpoints",
                law="exponential-universal-property",
            )
        for x in objs:
            if (a, x) not in cat._products:
                continue
            seen = {}
            for h in cat.hom(x, obj):
                composite = compose(evm, product_map(cat, cat.identity(a), h))
                seen.setdefault(composite.table, []).append(h)
            n_expected = len(cat.hom(cat.product(a, x), b))
            if len(seen) != len(cat.hom(x, obj)) or len(seen) != n_expected:
                raise LoadError(
                    f"currying into {b!r}^{a!r} is not a bijection at {x!r}",
                    law="exponential-universal-property",
                )


def _record_mediators(objs, hom, comp, chosen, recorded, kind, legs, cone):
    """Check each chosen (obj, p1, p2) of (a, b) as a product in the
    category with hom-sets `hom(x, y)` and composition `comp(g, f)`, and
    record the one mediating arrow of every cone (f, g) in `recorded`.
    `kind`, `legs` and `cone` only word the LoadError."""
    law = f"{kind}-universal-property"
    for (a, b), (obj, p1, p2) in chosen.items():
        if p1 not in hom(obj, a) or p2 not in hom(obj, b):
            raise LoadError(f"{legs} of {kind} ({a!r},{b!r}) have wrong endpoints", law=law)
        for x in objs:
            mediators = {}
            for m in hom(x, obj):
                mediators.setdefault((comp(p1, m), comp(p2, m)), []).append(m)
            for f in hom(x, a):
                for g in hom(x, b):
                    ms = mediators.get((f, g), ())
                    if len(ms) != 1:
                        raise LoadError(f"{kind} ({a!r},{b!r}): {cone} {x!r} has {len(ms)} mediating arrows", law=law)
                    recorded[f, g] = ms[0]


def skel_category_json(max_card: int) -> dict:
    """The full skeleton up to a cardinality bound, as loader input.

    Mostly useful for tests and for producing example files.
    """
    skel = SkelFinSet()
    objs = [{"id": f"n{c}", "card": c} for c in range(max_card + 1)]
    arrows = []
    for a in range(max_card + 1):
        for b in range(max_card + 1):
            for f in skel.iter_hom(a, b):
                arrows.append(
                    {
                        "id": f"a{a}_{b}_" + "_".join(map(str, f.table)),
                        "dom": f"n{a}",
                        "cod": f"n{b}",
                        "table": list(f.table),
                    }
                )
    data = {"objects": objs, "arrows": arrows, "structure": {}}
    if max_card >= 1:
        data["structure"]["terminal"] = "n1"
    data["structure"]["initial"] = "n0"
    prods = []
    for a in range(max_card + 1):
        for b in range(max_card + 1):
            if a * b <= max_card:
                p1 = skel.proj1(a, b)
                p2 = skel.proj2(a, b)
                prods.append(
                    {
                        "left": f"n{a}",
                        "right": f"n{b}",
                        "obj": f"n{a * b}",
                        "proj1": f"a{a * b}_{a}_" + "_".join(map(str, p1.table)),
                        "proj2": f"a{a * b}_{b}_" + "_".join(map(str, p2.table)),
                    }
                )
    data["structure"]["products"] = prods
    return data
