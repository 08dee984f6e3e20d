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

Canonical structure maps (identities, projections, injections, ``bang``,
evaluation, the distributivity isos and the generic ``nth_proj`` and
``reassoc_*``) are built once per category instance, on first request,
and then shared: every later request for the same maps between the same
objects returns the same immutable :class:`Arrow`.  The memo lives on the
category, so a fresh category starts empty.  Maps that depend on arrows
(``pair``, ``compose``, ``product_map``, ...) are rebuilt on every call.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .errors import (
    CapabilityError,
    LoadError,
    NoMediatingArrow,
    NonUniqueMediatingArrow,
    SearchBudgetExceeded,
    resolve_budget,
)


@dataclass(frozen=True)
class Arrow:
    """A set map between finite carriers: ``table[x]`` is the image of x."""

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
    """Decorator for ``build(cat, *objects)``, a method or a function taking
    the category first: the structure map is built once per category and
    kept in ``cat._memo`` under the build's name and the objects.
    A build that raises leaves no entry."""
    kind = build.__name__

    @functools.wraps(build)
    def memoized(cat, *objs):
        key = (kind, *objs)
        arrow = cat._memo.get(key)
        if arrow is None:
            arrow = cat._memo[key] = build(cat, *objs)
        return arrow

    return memoized


class SkelFinSet:
    """Skeleton of finite sets: object n has carrier {0,..,n-1} and every
    total function between carriers is an arrow."""

    has_products = True
    has_coproducts = True
    has_exponentials = True

    terminal = 1
    initial = 0

    def __init__(self):
        self._memo = {}  # (kind, *objects) -> Arrow

    def card(self, a) -> int:
        return int(a)

    @_canonical
    def identity(self, a) -> Arrow:
        return Arrow(a, a, identity_table(a))

    def arrow(self, dom, cod, table) -> Arrow:
        table = tuple(int(v) for v in table)
        if len(table) != dom:
            raise ValueError(f"table length {len(table)} != dom card {dom}")
        if any(v < 0 or v >= cod for v in table):
            raise ValueError(f"table value out of range for cod card {cod}")
        return Arrow(dom, cod, table)

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

    def enumerate_hom(self, a, b, budget=None) -> list:
        """Complete hom-set as a list; errors up front when over budget."""
        cap = resolve_budget(budget)
        total = self.hom_size(a, b)
        if total > cap:
            raise SearchBudgetExceeded(total, cap, f"Hom({a},{b})")
        return list(self.iter_hom(a, b, budget=cap + 1))

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

    # -- terminal / initial / points ---------------------------------

    @_canonical
    def bang(self, a) -> Arrow:
        return Arrow(a, 1, (0,) * a)

    def absurd(self, a) -> Arrow:
        return Arrow(0, a, ())

    def points(self, a) -> list:
        return [Arrow(1, a, (v,)) for v in range(a)]

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

    def transpose(self, f: Arrow, x, a) -> Arrow:
        """Currying of f: X x A -> B into X -> B^A."""
        if x * a != f.dom:
            raise ValueError("transpose: dom is not the stated product")
        b = f.cod
        table = []
        for xx in range(x):
            rank = 0
            for v in range(a):
                rank = rank * b + f.table[xx * a + v]
            table.append(rank)
        return Arrow(x, b**a, tuple(table))

    def untranspose(self, h: Arrow, a, b) -> Arrow:
        """Inverse of transpose: X -> B^A back to X x A -> B."""
        if h.cod != b**a:
            raise ValueError("untranspose: cod is not the stated exponential")
        table = []
        for xx in range(h.dom):
            g = h.table[xx]
            for v in range(a):
                table.append((g // b ** (a - 1 - v)) % b)
        return Arrow(h.dom * a, b, tuple(table))

    # -- distributivity ----------------------------------------------

    @_canonical
    def theta(self, a, b, c) -> Arrow:
        """(A x B) + (A x C) -> A x (B + C), canonical distributivity iso."""
        table = []
        for aa in range(a):
            for bb in range(b):
                table.append(aa * (b + c) + bb)
        for aa in range(a):
            for cc in range(c):
                table.append(aa * (b + c) + b + cc)
        return Arrow(a * b + a * c, a * (b + c), tuple(table))

    @_canonical
    def theta_inv(self, a, b, c) -> Arrow:
        return self.invert(self.theta(a, b, c))

    @_canonical
    def theta_left(self, a, b, d) -> Arrow:
        """(A x D) + (B x D) -> (A + B) x D, the mirrored distributivity iso.

        Identity table under the offset/row-major encodings, constructed
        explicitly all the same.
        """
        table = []
        for aa in range(a):
            for dd in range(d):
                table.append(aa * d + dd)
        for bb in range(b):
            for dd in range(d):
                table.append((a + bb) * d + dd)
        return Arrow(a * d + b * d, (a + b) * d, tuple(table))

    @_canonical
    def theta_left_inv(self, a, b, d) -> Arrow:
        return self.invert(self.theta_left(a, b, d))

    def invert(self, f: Arrow) -> Arrow:
        """Inverse of a bijective table."""
        if f.dom != f.cod and self.card(f.dom) != self.card(f.cod):
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
    """f x g: A x B -> A' x B'."""
    p1 = cat.proj1(f.dom, g.dom)
    p2 = cat.proj2(f.dom, g.dom)
    return cat.pair(cat.compose(f, p1), cat.compose(g, p2))


def prod_obj(cat, factors):
    """Left-associated product of a list of objects; empty product is 1."""
    factors = list(factors)
    if not factors:
        return cat.terminal
    obj = factors[0]
    for x in factors[1:]:
        obj = cat.product(obj, x)
    return obj


def nth_proj(cat, factors, i) -> Arrow:
    """Projection of the left-associated product onto its i-th factor."""
    return _nth_proj(cat, tuple(factors), i)


@_canonical
def _nth_proj(cat, factors: tuple, i) -> Arrow:
    n = len(factors)
    if not 0 <= i < n:
        raise IndexError(i)
    if n == 1:
        return cat.identity(factors[0])
    head = prod_obj(cat, factors[:-1])
    last = factors[-1]
    if i == n - 1:
        return cat.proj2(head, last)
    return cat.compose(_nth_proj(cat, factors[:-1], i), cat.proj1(head, last))


def tuple_arrow(cat, components) -> Arrow:
    """<c_0, .., c_{k-1}> into the left-associated product of the cods."""
    components = list(components)
    if not components:
        raise ValueError("empty tuple arrow")
    out = components[0]
    for c in components[1:]:
        out = cat.pair(out, c)
    return out


@_canonical
def reassoc_left(cat, a, b, c) -> Arrow:
    """A x (B x C) -> (A x B) x C.  Identity table in the skeletal encoding."""
    bc = cat.product(b, c)
    p_a = cat.proj1(a, bc)
    p_bc = cat.proj2(a, bc)
    p_b = cat.compose(cat.proj1(b, c), p_bc)
    p_c = cat.compose(cat.proj2(b, c), p_bc)
    return cat.pair(cat.pair(p_a, p_b), p_c)


@_canonical
def reassoc_right(cat, a, b, c) -> Arrow:
    """(A x B) x C -> A x (B x C)."""
    ab = cat.product(a, b)
    p_ab = cat.proj1(ab, c)
    p_c = cat.proj2(ab, c)
    p_a = cat.compose(cat.proj1(a, b), p_ab)
    p_b = cat.compose(cat.proj2(a, b), p_ab)
    return cat.pair(p_a, cat.pair(p_b, p_c))


# ---------------------------------------------------------------------------
# file-loaded finite categories
# ---------------------------------------------------------------------------


class TableCat:
    """A finite category given by explicit hom-sets of value tables.

    Hom-sets are arbitrary subsets of all functions between the carriers
    (closed under composition and containing identities), so declared
    limit/colimit structure is honest data that the loader verifies by
    mediating-arrow enumeration.
    """

    def __init__(self, cards, homs, names, structure=None):
        self._memo = {}  # (kind, *objects) -> Arrow
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
        self._points = s.get("points", {})

    # -- interface ----------------------------------------------------

    @property
    def has_products(self):
        return bool(self._products)

    @property
    def has_coproducts(self):
        return bool(self._coproducts)

    @property
    def has_exponentials(self):
        return bool(self._exponentials)

    def objects(self):
        return list(self._cards)

    def card(self, a) -> int:
        return self._cards[a]

    @_canonical
    def identity(self, a) -> Arrow:
        return Arrow(a, a, identity_table(self._cards[a]))

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

    def enumerate_hom(self, a, b, budget=None) -> list:
        cap = resolve_budget(budget)
        hs = self._homs.get((a, b), [])
        if len(hs) > cap:
            raise SearchBudgetExceeded(len(hs), cap, f"Hom({a!r},{b!r})")
        return list(hs)

    def _chosen(self, table, kind, a, b):
        """The declared entry (object, structure arrows) for (a, b) in `table`."""
        try:
            return table[(a, b)]
        except KeyError:
            raise CapabilityError(f"no chosen {kind} for ({a!r},{b!r})") from None

    def product(self, a, b):
        return self._chosen(self._products, "product", a, b)[0]

    def proj1(self, a, b) -> Arrow:
        return self._chosen(self._products, "product", a, b)[1]

    def proj2(self, a, b) -> Arrow:
        return self._chosen(self._products, "product", a, b)[2]

    def pair(self, f: Arrow, g: Arrow) -> Arrow:
        obj, p1, p2 = self._chosen(self._products, "product", f.cod, g.cod)
        return self._mediate(
            f.dom, obj, [(p1, f), (p2, g)], f"pairing into {obj!r}"
        )

    def coproduct(self, a, b):
        return self._chosen(self._coproducts, "coproduct", a, b)[0]

    def inj1(self, a, b) -> Arrow:
        return self._chosen(self._coproducts, "coproduct", a, b)[1]

    def inj2(self, a, b) -> Arrow:
        return self._chosen(self._coproducts, "coproduct", a, b)[2]

    def copair(self, f: Arrow, g: Arrow) -> Arrow:
        obj, j1, j2 = self._chosen(self._coproducts, "coproduct", f.dom, g.dom)
        for m in self.hom(obj, f.cod):
            if compose(m, j1) == f and compose(m, j2) == g:
                return m
        raise NoMediatingArrow(f"copairing out of {obj!r}")

    @_canonical
    def bang(self, a) -> Arrow:
        if self.terminal is None:
            raise CapabilityError("no chosen terminal object")
        hs = self.hom(a, self.terminal)
        if len(hs) != 1:
            raise NoMediatingArrow(f"Hom({a!r}, terminal) is not a singleton")
        return hs[0]

    def points(self, a) -> list:
        return list(self._points.get(a, []))

    def exponential(self, b, a):
        return self._chosen(self._exponentials, "exponential", b, a)[0]

    def ev(self, b, a) -> Arrow:
        return self._chosen(self._exponentials, "exponential", b, a)[1]

    def transpose(self, f: Arrow, x, a) -> Arrow:
        obj, evm = self._chosen(self._exponentials, "exponential", f.cod, a)
        swap = self.pair(self.proj2(a, x), self.proj1(a, x))
        target = compose(f, swap)
        found = []
        for h in self.hom(x, obj):
            cand = compose(self.ev(f.cod, a), product_map(self, self.identity(a), h))
            if cand == target:
                found.append(h)
        if not found:
            raise NoMediatingArrow(f"no transpose into {obj!r}")
        if len(found) > 1:
            raise NonUniqueMediatingArrow(f"transpose into {obj!r} is not unique")
        return found[0]

    @_canonical
    def theta(self, a, b, c) -> Arrow:
        left = self.pair(self.proj1(a, b), compose(self.inj1(b, c), self.proj2(a, b)))
        right = self.pair(self.proj1(a, c), compose(self.inj2(b, c), self.proj2(a, c)))
        return self.copair(left, right)

    @_canonical
    def theta_inv(self, a, b, c) -> Arrow:
        return self.invert(self.theta(a, b, c))

    @_canonical
    def theta_left(self, a, b, d) -> Arrow:
        left = self.pair(compose(self.inj1(a, b), self.proj1(a, d)), self.proj2(a, d))
        right = self.pair(compose(self.inj2(a, b), self.proj1(b, d)), self.proj2(b, d))
        return self.copair(left, right)

    @_canonical
    def theta_left_inv(self, a, b, d) -> Arrow:
        return self.invert(self.theta_left(a, b, d))

    def invert(self, f: Arrow) -> Arrow:
        for g in self.hom(f.cod, f.dom):
            if compose(g, f).table == identity_table(self._cards[f.dom]) and compose(
                f, g
            ).table == identity_table(self._cards[f.cod]):
                return g
        raise NoMediatingArrow(f"{f!r} has no two-sided inverse among declared arrows")

    def _mediate(self, src, obj, legs, what) -> Arrow:
        found = []
        for m in self.hom(src, obj):
            if all(compose(leg, m) == target for leg, target in legs):
                found.append(m)
        if not found:
            raise NoMediatingArrow(what)
        if len(found) > 1:
            raise NonUniqueMediatingArrow(what)
        return found[0]


# ---------------------------------------------------------------------------
# loader
# ---------------------------------------------------------------------------


def load_category(source) -> TableCat:
    """Build a TableCat from a JSON file path, JSON text, or a dict.

    Every category law and every declared piece of chosen structure is
    re-verified; violations raise LoadError naming the broken law.
    """
    data = _as_dict(source)
    try:
        cards = {o["id"]: int(o["card"]) for o in data["objects"]}
    except (KeyError, TypeError) as exc:
        raise LoadError(f"bad object list: {exc}") from None
    if any(c < 0 for c in cards.values()):
        raise LoadError("object cards must be non-negative", law="object-card")

    homs: dict = {}
    names: dict = {}
    for spec in data.get("arrows", []):
        name, dom, cod = spec.get("id"), spec.get("dom"), spec.get("cod")
        if dom not in cards or cod not in cards:
            raise LoadError(f"arrow {name!r} references unknown object", law="arrow-table")
        table = tuple(int(v) for v in spec.get("table", []))
        if len(table) != cards[dom] or any(v < 0 or v >= cards[cod] for v in table):
            raise LoadError(f"arrow {name!r} has an ill-formed table", law="arrow-table")
        arr = Arrow(dom, cod, table)
        if name in names:
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

    for triple in data.get("composition", []):
        try:
            fst, snd, res = triple
        except ValueError:
            raise LoadError("composition entries must be [f, g, result]") from None
        if fst not in names or snd not in names or res not in names:
            raise LoadError(f"composition entry {triple} names unknown arrows", law="composition-table")
        h = compose(names[snd], names[fst])
        if names[res] != h:
            raise LoadError(
                f"declared composite {res!r} of {fst!r};{snd!r} disagrees with table composition",
                law="composition-table",
            )

    structure = _load_structure(data.get("structure", {}), cards, names, homs)
    cat = TableCat(cards, homs, names, structure)
    _verify_structure(cat, cards)
    return cat


def _as_dict(source):
    if isinstance(source, dict):
        return source
    text = source
    if isinstance(source, str) and not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"not valid JSON: {exc}") from None


def _name_of(names, arrow):
    for n, a in names.items():
        if a == arrow:
            return repr(n)
    return repr(arrow)


def _load_structure(block, cards, names, homs):
    def arrow_ref(name, what):
        if name not in names:
            raise LoadError(f"{what} references unknown arrow {name!r}", law="structure-ref")
        return names[name]

    s: dict = {}
    if "terminal" in block:
        s["terminal"] = block["terminal"]
    if "initial" in block:
        s["initial"] = block["initial"]
    s["products"] = {}
    for p in block.get("products", []):
        key = (p["left"], p["right"])
        s["products"][key] = (p["obj"], arrow_ref(p["proj1"], "product"), arrow_ref(p["proj2"], "product"))
    s["coproducts"] = {}
    for p in block.get("coproducts", []):
        key = (p["left"], p["right"])
        s["coproducts"][key] = (p["obj"], arrow_ref(p["inj1"], "coproduct"), arrow_ref(p["inj2"], "coproduct"))
    s["exponentials"] = {}
    for p in block.get("exponentials", []):
        key = (p["base"], p["exp"])
        s["exponentials"][key] = (p["obj"], arrow_ref(p["ev"], "exponential"))
    s["points"] = {}
    for obj, pts in block.get("points", {}).items():
        s["points"][obj] = [arrow_ref(n, "point") for n in pts]
    _ = cards, homs
    return s


def _verify_structure(cat: TableCat, cards):
    objs = list(cards)
    if cat.terminal is not None:
        for x in objs:
            if len(cat.hom(x, cat.terminal)) != 1:
                raise LoadError(
                    f"Hom({x!r}, {cat.terminal!r}) is not a singleton",
                    law="terminal-universal-property",
                )
    if cat.initial is not None:
        for x in objs:
            if len(cat.hom(cat.initial, x)) != 1:
                raise LoadError(
                    f"Hom({cat.initial!r}, {x!r}) is not a singleton",
                    law="initial-universal-property",
                )
    for (a, b), (obj, p1, p2) in cat._products.items():
        if p1.dom != obj or p1.cod != a or p2.dom != obj or p2.cod != b:
            raise LoadError(
                f"projections of product ({a!r},{b!r}) have wrong endpoints",
                law="product-universal-property",
            )
        for x in objs:
            for f in cat.hom(x, a):
                for g in cat.hom(x, b):
                    ms = [
                        m
                        for m in cat.hom(x, obj)
                        if compose(p1, m) == f and compose(p2, m) == g
                    ]
                    if len(ms) != 1:
                        raise LoadError(
                            f"product ({a!r},{b!r}): cone from {x!r} has "
                            f"{len(ms)} mediating arrows",
                            law="product-universal-property",
                        )
    for (a, b), (obj, j1, j2) in cat._coproducts.items():
        if j1.dom != a or j1.cod != obj or j2.dom != b or j2.cod != obj:
            raise LoadError(
                f"injections of coproduct ({a!r},{b!r}) have wrong endpoints",
                law="coproduct-universal-property",
            )
        for x in objs:
            for f in cat.hom(a, x):
                for g in cat.hom(b, x):
                    ms = [
                        m
                        for m in cat.hom(obj, x)
                        if compose(m, j1) == f and compose(m, j2) == g
                    ]
                    if len(ms) != 1:
                        raise LoadError(
                            f"coproduct ({a!r},{b!r}): cocone to {x!r} has "
                            f"{len(ms)} mediating arrows",
                            law="coproduct-universal-property",
                        )
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
                    f"transpose for {b!r}^{a!r} is not a bijection at {x!r}",
                    law="exponential-universal-property",
                )
    for obj, pts in cat._points.items():
        for p in pts:
            if cat.terminal is None or p.dom != cat.terminal or p.cod != obj:
                raise LoadError(f"point for {obj!r} has wrong endpoints", law="point-validity")


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
