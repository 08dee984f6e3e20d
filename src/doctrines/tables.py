"""File input: finite categories and doctrines given as JSON tables.

A :class:`TableCat` is a finite category with explicitly declared
hom-sets of value tables and chosen structure; it answers the same
interface as :class:`~doctrines.fincat.SkelFinSet`.  It verifies its
declared structure when it is built: a chosen product by grouping, for
each object X, the arrows X -> A x B by the cone they mediate, which must
hit every cone once; a coproduct by the same routine on the opposite
category; an exponential by currying.  It keeps the one mediating arrow of
every cone and cocone: ``pair`` and ``copair`` look that arrow up, and
``product_map`` is built from them as ``<f . pr1, g . pr2>``.  The
distributivity isos exist on finite sets only: a completion over a
:class:`TableCat` raises CapabilityError for its injection quantifiers.

A :class:`TabularDoctrine` gives every fiber and reindex map explicitly;
its predicates are indices into the declared fiber posets.

:func:`load_category` and :func:`load_doctrine` read a file path, JSON
text or a dict and refuse malformed or law-breaking input with a
LoadError naming the law.  Only the command line's readers of JSON input
import this module, when they run, so neither ``import doctrines`` nor a
law run loads it or ``json``.
"""

from __future__ import annotations

import json

from .doctrine import Doctrine
from .errors import CapabilityError, LoadError, SearchBudgetExceeded, natural, resolve_budget
from .fincat import Arrow, SkelFinSet, _canonical, compose, identity_table, product_map
from .poset import Poset


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

    def theta_inv(self, *objects):
        raise CapabilityError("distributivity isos exist on finite sets only")
    theta_left_inv = theta_inv


# ---------------------------------------------------------------------------
# category loader
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


# ---------------------------------------------------------------------------
# tabular doctrines
# ---------------------------------------------------------------------------


class TabularDoctrine(Doctrine):
    """A doctrine with every fiber and reindex map given explicitly.

    Predicates are indices into the declared fiber posets.  Its structure
    is read off its tables: the adjoint tables are its quantifiers along
    every arrow, projections and injections included, and it has no
    lattice operations.  Built from untrusted files, so
    :func:`load_doctrine` re-verifies the laws unless told not to.
    """

    def __init__(self, cat: TableCat, fibers, reindex_tables, exists_tables=None, forall_tables=None):
        super().__init__(cat)
        self.fibers = dict(fibers)  # obj -> Poset
        self._reindex = dict(reindex_tables)  # arrow -> tuple
        self._exists = dict(exists_tables or {})
        self._forall = dict(forall_tables or {})

    def _fiber(self, a):
        try:
            return self.fibers[a]
        except KeyError:
            raise CapabilityError(f"{a!r} is not a declared object") from None

    def fiber_leq(self, a, p, q) -> bool:
        return self._fiber(a).le(p, q)

    def fiber_elements(self, a):
        return range(self._fiber(a).n)

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
        return self._fiber(a).labels[p]

    def pred_from_json(self, a, data):
        return self._fiber(a).labels.index(data)


def load_doctrine(source, verify: bool = True) -> TabularDoctrine:
    """Load a tabular doctrine from a JSON file path, JSON text, or dict.

    Its ``category`` is read by :func:`load_category`: inline, or a file
    path.  Each fiber is a poset.  With verify=True (the default for
    untrusted input) the doctrine laws are checked and the first violation
    raises LoadError naming the law.
    """
    data = _as_dict(source)
    _known_keys(data, ("category", "fibers", "reindex", "exists", "forall"), "a doctrine")
    if "category" not in data:
        raise LoadError("doctrine file has no category")
    cat = load_category(data["category"])

    fibers = {}
    for obj_id, spec in _block(data, "fibers", {}).items():
        if obj_id not in cat.objects():
            raise LoadError(f"fiber declared over unknown object {obj_id!r}", law="fiber-object")
        try:
            elems = list(spec["elements"])
            fibers[obj_id] = Poset.from_pairs(elems, [tuple(p) for p in spec.get("leq", [])])
        except KeyError as exc:
            raise LoadError(f"fiber over {obj_id!r} has no {exc} list", law="fiber-order") from None
        except (AttributeError, TypeError, ValueError) as exc:
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
        try:
            table = tuple(natural(v, f"{kind} table entry") for v in block)
        except (TypeError, ValueError) as exc:
            raise LoadError(f"{kind} table for {name!r}: {exc}", law="map-table") from None
        if len(table) != src.n or any(v >= dst.n for v in table):
            raise LoadError(f"{kind} table for {name!r} is ill-formed", law="map-table")
        return arrow, table

    tables = {kind: dict(table_for(kind, name, block) for name, block in _block(data, kind, {}).items())
              for kind in ("reindex", "exists", "forall")}
    for name, arrow in cat.names.items():
        if arrow not in tables["reindex"]:
            raise LoadError(f"arrow {name!r} has no reindex table", law="map-table")

    doc = TabularDoctrine(cat, fibers, tables["reindex"], tables["exists"], tables["forall"])
    if verify:
        from .laws import verify_doctrine

        rep = verify_doctrine(doc)
        for r in rep.failed:
            raise LoadError(
                f"doctrine law violated: {json.dumps(r.counterexample, sort_keys=True, default=repr)}",
                law=r.law,
            )
    return doc
