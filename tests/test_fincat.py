"""Category layer: enumeration order, chosen structure, distributivity."""

import itertools

import pytest

from doctrines.completion import _pointwise_transports, _swap_coproduct
from doctrines.dialectica import eval_expand_arrow
from doctrines.errors import CapabilityError, LoadError, SearchBudgetExceeded
from doctrines.fincat import (
    Arrow,
    SkelFinSet,
    compose,
    graph_pr1,
    product_map,
    reassoc_left,
    times_identity,
)
from doctrines.tables import load_category, skel_category_json

C = SkelFinSet()


def tables(arrows):
    return [list(f.table) for f in arrows]


class TestHom:
    def test_two_points(self):
        assert tables(C.iter_hom(1, 2)) == [[0], [1]]

    def test_terminal(self):
        assert tables(C.iter_hom(2, 1)) == [[0, 0]]

    def test_initial(self):
        assert tables(C.iter_hom(0, 3)) == [[]]

    def test_empty_target(self):
        assert tables(C.iter_hom(2, 0)) == []

    def test_count_and_order(self):
        hom = list(C.iter_hom(2, 3))
        assert len(hom) == C.hom_size(2, 3) == 9
        assert tables(hom) == sorted(tables(hom))

    def test_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            list(C.iter_hom(2, 10, budget=5))
        # a consumer that stops early within budget is fine
        it = C.iter_hom(2, 10, budget=5)
        assert next(it).table == (0, 0)


class TestProducts:
    def test_pairing_diagonal(self):
        f = C.identity(2)
        assert C.pair(f, f).table == (0, 3)

    def test_pairing_unit(self):
        f = Arrow(2, 1, (0, 0))
        assert C.pair(f, C.identity(2)).table == (0, 1)

    def test_pairing_row_major(self):
        # index(a, b) = a*|B| + b applied by hand
        f = Arrow(2, 2, (1, 0))
        g = Arrow(2, 2, (0, 0))
        expect = tuple(fv * 2 + gv for fv, gv in zip(f.table, g.table))
        assert expect == (2, 0)
        assert C.pair(f, g).table == expect

    def test_projection_laws(self):
        for a in range(3):
            for b in range(3):
                for f in C.iter_hom(2, a):
                    for g in C.iter_hom(2, b):
                        p = C.pair(f, g)
                        assert compose(C.proj1(a, b), p) == f
                        assert compose(C.proj2(a, b), p) == g

    def test_product_map_is_the_pairing_of_composites(self):
        # the one-table f x g against its generic construction
        # <f . pr1, g . pr2>, for all arrows between carriers 0..3
        arrows = [f for a in range(4) for b in range(4) for f in C.iter_hom(a, b)]
        for f in arrows:
            for g in arrows:
                generic = C.pair(compose(f, C.proj1(f.dom, g.dom)), compose(g, C.proj2(f.dom, g.dom)))
                assert product_map(C, f, g) == generic, (f, g)

    def test_product_map_on_a_table_category(self):
        # a TableCat builds f x g from its declared pairing; the tables are
        # the skeleton's wherever the products are declared (|A x B| <= 2)
        cat = load_category(skel_category_json(2))
        card = {f"n{c}": c for c in range(3)}
        for a, b, a2, b2 in itertools.product(card, repeat=4):
            if card[a] * card[b] > 2 or card[a2] * card[b2] > 2:
                continue
            for f in cat.hom(a, a2):
                for g in cat.hom(b, b2):
                    m = product_map(cat, f, g)
                    assert m in cat.hom(cat.product(a, b), cat.product(a2, b2))
                    skel = product_map(C, Arrow(card[a], card[a2], f.table), Arrow(card[b], card[b2], g.table))
                    assert m.table == skel.table

    def test_reassoc_identity_tables(self):
        # left-associated row-major flattening makes this an identity
        assert reassoc_left(C, 2, 3, 2).table == tuple(range(12))


class TestCoproducts:
    def test_offsets(self):
        assert C.inj1(2, 3).table == (0, 1)
        assert C.inj2(2, 3).table == (2, 3, 4)

    def test_copair_laws(self):
        for f in C.iter_hom(2, 2):
            for g in C.iter_hom(1, 2):
                m = C.copair(f, g)
                assert compose(m, C.inj1(2, 1)) == f
                assert compose(m, C.inj2(2, 1)) == g


class TestTheta:
    def test_trivial(self):
        assert C.theta(1, 1, 1).table == (0, 1)

    def test_roundtrip(self):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    t = C.theta(a, b, c)
                    ti = C.theta_inv(a, b, c)
                    n = a * b + a * c
                    assert compose(ti, t).table == tuple(range(n))
                    assert compose(t, ti).table == tuple(range(a * (b + c)))

    def test_empty_base(self):
        assert C.theta(0, 2, 3).table == ()

    def test_theta_left_is_identity_table(self):
        for a in range(3):
            for b in range(3):
                for d in range(3):
                    assert C.theta_left(a, b, d).table == tuple(range((a + b) * d))

    def test_naturality(self):
        # theta . ((f x 1) + (f x 1)) == (f x 1) . theta
        b, c = 2, 1
        for d in range(3):
            for a in range(3):
                for f in C.iter_hom(d, a):
                    fb = product_map(C, f, C.identity(b))
                    fc = product_map(C, f, C.identity(c))
                    both = C.copair(
                        compose(C.inj1(a * b, a * c), fb),
                        compose(C.inj2(a * b, a * c), fc),
                    )
                    fbc = product_map(C, f, C.identity(b + c))
                    assert compose(C.theta(a, b, c), both) == compose(fbc, C.theta(d, b, c))


class TestExponentials:
    def test_ev_agrees_with_transpose(self):
        # the transpose of f: X x A -> B is the point of B^A ranked by the
        # value tuple (f(x, 0), .., f(x, a-1)), position 0 most significant
        x, a, b = 2, 2, 2
        ev = C.ev(b, a)
        swap = C.pair(C.proj2(a, x), C.proj1(a, x))
        for f in C.iter_hom(x * a, b):
            h = Arrow(x, b**a, tuple(f.table[xx * a] * b + f.table[xx * a + 1] for xx in range(x)))
            lhs = compose(ev, product_map(C, C.identity(a), h))
            assert lhs == compose(f, swap)

    def test_ev_all_points(self):
        # every point of 2^2 evaluates to its own value tuple
        ev = C.ev(2, 2)
        for g in range(4):
            vals = tuple(ev.table[v * 4 + g] for v in range(2))
            assert vals == (g >> 1, g & 1)


class TestLoader:
    def test_skeleton_roundtrip(self):
        cat = load_category(skel_category_json(2))
        assert sorted(cat.objects()) == ["n0", "n1", "n2"]
        assert cat.hom_size("n2", "n2") == 4
        assert cat.terminal == "n1"
        p = cat.pair(cat.identity("n1"), cat.identity("n1"))
        assert p.cod == "n1"

    def test_missing_identity(self):
        data = {
            "objects": [{"id": "A", "card": 2}],
            "arrows": [{"id": "f", "dom": "A", "cod": "A", "table": [1, 0]}],
        }
        with pytest.raises(LoadError) as e:
            load_category(data)
        assert e.value.law == "identity-presence"

    def test_not_closed(self):
        data = {
            "objects": [{"id": "A", "card": 2}],
            "arrows": [
                {"id": "id", "dom": "A", "cod": "A", "table": [0, 1]},
                {"id": "s", "dom": "A", "cod": "A", "table": [1, 0]},
                {"id": "c", "dom": "A", "cod": "A", "table": [0, 0]},
            ],
        }
        # s.c = constant 1 is undeclared
        with pytest.raises(LoadError) as e:
            load_category(data)
        assert e.value.law == "composition-closure"

    def test_bad_composition_table(self):
        data = {
            "objects": [{"id": "A", "card": 1}],
            "arrows": [{"id": "id", "dom": "A", "cod": "A", "table": [0]}],
            "composition": [["id", "id", "nope"]],
        }
        with pytest.raises(LoadError) as e:
            load_category(data)
        assert e.value.law == "composition-table"

    def test_bad_product(self):
        # claims A x A = A with identity projections: pairing not unique
        data = {
            "objects": [{"id": "A", "card": 2}],
            "arrows": [
                {"id": "id", "dom": "A", "cod": "A", "table": [0, 1]},
                {"id": "s", "dom": "A", "cod": "A", "table": [1, 0]},
            ],
            "structure": {
                "products": [
                    {"left": "A", "right": "A", "obj": "A", "proj1": "id", "proj2": "id"}
                ]
            },
        }
        with pytest.raises(LoadError) as e:
            load_category(data)
        assert e.value.law == "product-universal-property"

    def test_bad_table(self):
        data = {
            "objects": [{"id": "A", "card": 2}],
            "arrows": [{"id": "id", "dom": "A", "cod": "A", "table": [0, 7]}],
        }
        with pytest.raises(LoadError) as e:
            load_category(data)
        assert e.value.law == "arrow-table"

    def test_not_json(self):
        with pytest.raises(LoadError):
            load_category("{not json")

    def test_malformed_entries(self):
        edits = {
            "object-card": [lambda d: d["objects"][1].update(card=1.7), lambda d: d["objects"][1].update(card=True),
                            lambda d: d["objects"][1].update(card=-1)],
            "object-id": [lambda d: d["objects"].append({"id": "n1", "card": 1}),
                          lambda d: d["objects"].append({"id": "n1", "card": 0})],
            "arrow-table": [lambda d: d["arrows"][2].update(table=[True]), lambda d: d["arrows"][2].update(table=[0.5]),
                            lambda d: d["arrows"].append(5)],
            "structure-ref": [lambda d: d["structure"]["products"][0].pop("right"),
                              lambda d: d["structure"].update(terminal=[1]),
                              lambda d: d["structure"].update(terminal="n9")],
            "format": [lambda d: d.update(arrows={}), lambda d: d.update(composition=[5]),
                       lambda d: d.update(structure=[])],
        }
        for law, cases in edits.items():
            for edit in cases:
                data = skel_category_json(1)
                edit(data)
                with pytest.raises(LoadError) as e:
                    load_category(data)
                assert e.value.law == law
                if law == "object-id":
                    assert "duplicate object id 'n1'" in str(e.value)
        for source in ("[]", "no-such-file.json", 5):
            with pytest.raises(LoadError):
                load_category(source)

    def test_unknown_keys_refused(self):
        # a misspelt block is named, not dropped: `prodcuts` would otherwise
        # load a category without products
        def typo(d):
            d["structure"]["prodcuts"] = d["structure"].pop("products")

        for edit, key in ((typo, "prodcuts"), (lambda d: d.update(arrow=[]), "arrow"),
                          (lambda d: d["structure"].update(points=[]), "points")):
            data = skel_category_json(2)
            edit(data)
            with pytest.raises(LoadError, match=f"unknown key '{key}'") as e:
                load_category(data)
            assert e.value.law == "format"

    # skel_category_json(2) declares no n2 x n2, no coproducts and no exponentials
    ID2 = Arrow("n2", "n2", (0, 1))

    UNDECLARED = [
        ("product", ("n2", "n2"), "product"),
        ("proj1", ("n2", "n2"), "product"),
        ("proj2", ("n2", "n2"), "product"),
        ("pair", (ID2, ID2), "product"),
        ("coproduct", ("n2", "n2"), "coproduct"),
        ("inj1", ("n2", "n2"), "coproduct"),
        ("inj2", ("n2", "n2"), "coproduct"),
        ("copair", (ID2, ID2), "coproduct"),
        ("exponential", ("n2", "n2"), "exponential"),
        ("ev", ("n2", "n2"), "exponential"),
    ]

    @pytest.mark.parametrize("accessor, args, kind", UNDECLARED, ids=[row[0] for row in UNDECLARED])
    def test_undeclared_structure(self, accessor, args, kind):
        cat = load_category(skel_category_json(2))
        with pytest.raises(CapabilityError, match=rf"no chosen {kind} for \('n2','n2'\)"):
            getattr(cat, accessor)(*args)

    @pytest.mark.parametrize("accessor", ["identity", "bang"])
    def test_undeclared_object(self, accessor):
        cat = load_category(skel_category_json(2))
        with pytest.raises(CapabilityError, match="'n9' is not a declared object"):
            getattr(cat, accessor)("n9")
        assert ("identity", "n9") not in cat._memo

    CARD = {f"n{c}": c for c in range(3)}

    @staticmethod
    def full_structure_json():
        """skel_category_json(2) with the skeleton's own coproducts
        (|A| + |B| <= 2) and exponentials (|A x B^A| <= 2) added."""
        def name(f):
            return f"a{f.dom}_{f.cod}_" + "_".join(map(str, f.table))

        data = skel_category_json(2)
        s = data["structure"]
        s["coproducts"] = [{"left": f"n{a}", "right": f"n{b}", "obj": f"n{a + b}",
                            "inj1": name(C.inj1(a, b)), "inj2": name(C.inj2(a, b))}
                           for a in range(3) for b in range(3) if a + b <= 2]
        s["exponentials"] = [{"base": f"n{b}", "exp": f"n{a}", "obj": f"n{b**a}", "ev": name(C.ev(b, a))}
                             for b in range(3) for a in range(3) if a * b**a <= 2]
        return data

    def test_full_structure_loads(self):
        data = self.full_structure_json()
        assert len(data["structure"]["coproducts"]) == 6
        assert len(data["structure"]["exponentials"]) == 8
        cat = load_category(data)
        for e in data["structure"]["exponentials"]:
            assert cat.exponential(e["base"], e["exp"]) == e["obj"]
            assert cat.ev(e["base"], e["exp"]) == cat.names[e["ev"]]
        ev = cat.ev("n2", "n1")
        assert cat.exponential("n2", "n1") == "n2" and ev.table == C.ev(2, 1).table

    def test_pair_and_copair_are_the_unique_mediating_arrows(self):
        # the enumeration oracle: every arrow of the hom-set that makes the
        # cone (cocone) commute; the category must answer with the only one
        cat = load_category(self.full_structure_json())
        cones = cocones = 0
        for a, b, x in itertools.product(self.CARD, repeat=3):
            if self.CARD[a] * self.CARD[b] <= 2:
                obj, p1, p2 = cat.product(a, b), cat.proj1(a, b), cat.proj2(a, b)
                for f in cat.hom(x, a):
                    for g in cat.hom(x, b):
                        found = [m for m in cat.hom(x, obj) if compose(p1, m) == f and compose(p2, m) == g]
                        assert [cat.pair(f, g)] == found, (f, g)
                        cones += 1
            if self.CARD[a] + self.CARD[b] <= 2:
                obj, j1, j2 = cat.coproduct(a, b), cat.inj1(a, b), cat.inj2(a, b)
                for f in cat.hom(a, x):
                    for g in cat.hom(b, x):
                        found = [m for m in cat.hom(obj, x) if compose(m, j1) == f and compose(m, j2) == g]
                        assert [cat.copair(f, g)] == found, (f, g)
                        cocones += 1
        assert cones > 0 and cocones > 0

    def test_pairing_outside_the_declared_cones(self):
        cat = load_category(self.full_structure_json())
        with pytest.raises(ValueError, match="common domain"):
            cat.pair(cat.identity("n1"), cat.hom("n2", "n1")[0])
        with pytest.raises(ValueError, match="common codomain"):
            cat.copair(cat.identity("n1"), cat.hom("n1", "n2")[0])
        undeclared = Arrow("n1", "n1", (7,))
        for accessor in ("pair", "copair"):
            with pytest.raises(CapabilityError, match="not declared arrows"):
                getattr(cat, accessor)(cat.identity("n1"), undeclared)

    BROKEN_STRUCTURE = [
        # n1 + n0 = n2: a cocone into n2 extends to n2 in two ways
        ("coproduct-universal-property",
         lambda s: s.update(coproducts=[{"left": "n1", "right": "n0", "obj": "n2",
                                         "inj1": "a1_2_0", "inj2": "a0_2_"}])),
        # ev of n2^n1 must run n1 x n2 -> n2, this one ends in n1
        ("exponential-universal-property",
         lambda s: s.update(exponentials=[{"base": "n2", "exp": "n1", "obj": "n2", "ev": "a2_1_0_0"}])),
    ]

    @pytest.mark.parametrize("law, edit", BROKEN_STRUCTURE, ids=[row[0] for row in BROKEN_STRUCTURE])
    def test_broken_structure(self, law, edit):
        data = skel_category_json(2)
        edit(data["structure"])
        with pytest.raises(LoadError) as e:
            load_category(data)
        assert e.value.law == law
        if law == "coproduct-universal-property":
            assert "cocone to 'n2' has 2 mediating arrows" in str(e.value)


class TestCanonicalMemo:
    # each memoized constructor with the object arguments it takes, carriers 0..4
    CARDS = range(5)
    ARITY = {
        "identity": 1, "bang": 1,
        "proj1": 2, "proj2": 2, "inj1": 2, "inj2": 2, "ev": 2,
        "theta": 3, "theta_inv": 3, "theta_left": 3, "theta_left_inv": 3,
    }

    def calls(self):
        for name, k in self.ARITY.items():
            for objs in itertools.product(self.CARDS, repeat=k):
                yield name, objs

    def test_equal_to_fresh_build_and_shared(self):
        cat = SkelFinSet()
        first = {(name, objs): getattr(cat, name)(*objs) for name, objs in self.calls()}
        for (name, objs), arrow in first.items():
            fresh = getattr(SkelFinSet, name).__wrapped__(cat, *objs)
            assert arrow == fresh, (name, objs)
            assert getattr(cat, name)(*objs) is arrow, (name, objs)

    def test_generic_helpers(self):
        cat = SkelFinSet()
        for a, b, c in itertools.product(self.CARDS, repeat=3):
            arrow = reassoc_left(cat, a, b, c)
            assert arrow == reassoc_left.__wrapped__(SkelFinSet(), a, b, c)
            assert reassoc_left(cat, a, b, c) is arrow

    def test_structure_maps_of_other_modules(self):
        # the evaluation expansion of forall_pr_exp, carriers 0..3
        cat = SkelFinSet()
        cards = range(4)
        for a1, a2, b in itertools.product(cards, repeat=3):
            arrow = eval_expand_arrow(cat, a1, a2, b)
            assert arrow == eval_expand_arrow.__wrapped__(SkelFinSet(), a1, a2, b)
            assert eval_expand_arrow(cat, a1, a2, b) is arrow
        fresh = SkelFinSet()
        assert fresh._memo == {}
        assert eval_expand_arrow(fresh, 2, 2, 2) is not eval_expand_arrow(cat, 2, 2, 2)

    def test_completion_structure_maps(self):
        # the transports of a pointwise meet or join, and the coproduct swap
        cat = SkelFinSet()
        for a, b, c in itertools.product(self.CARDS, repeat=3):
            maps = _pointwise_transports(cat, a, b, c)
            assert maps == _pointwise_transports.__wrapped__(SkelFinSet(), a, b, c)
            assert _pointwise_transports(cat, a, b, c) is maps
        for a, b in itertools.product(self.CARDS, repeat=2):
            swap = _swap_coproduct(cat, a, b)
            assert swap == _swap_coproduct.__wrapped__(SkelFinSet(), a, b)
            assert _swap_coproduct(cat, a, b) is swap

    def test_arrow_keyed_maps(self):
        # every graph <pr1, f> and every f x 1_Q with carriers 0..2, keyed
        # on the arrow's value: an equal arrow built afresh finds the entry
        cat = SkelFinSet()
        cards = range(3)
        for a, b, c in itertools.product(cards, repeat=3):
            for f in cat.iter_hom(a * b, c):
                graph = graph_pr1(cat, a, b, f)
                assert graph == graph_pr1.__wrapped__(SkelFinSet(), a, b, f)
                assert graph_pr1(cat, a, b, Arrow(f.dom, f.cod, tuple(list(f.table)))) is graph
        for d, a, q in itertools.product(cards, repeat=3):
            for f in cat.iter_hom(d, a):
                fx1 = times_identity(cat, f, q)
                assert fx1 == times_identity.__wrapped__(SkelFinSet(), f, q)
                assert times_identity(cat, Arrow(f.dom, f.cod, tuple(list(f.table))), q) is fx1

    def test_table_cat_arrow_keyed_maps(self):
        cat = load_category(skel_category_json(3))
        f = cat.names["a3_2_0_1_1"]
        graph = graph_pr1(cat, "n1", "n3", f)
        assert graph in cat.hom("n3", "n2") and graph.table == (0, 1, 1)
        assert graph_pr1(cat, "n1", "n3", f) is graph
        g = cat.names["a1_3_2"]
        fx1 = times_identity(cat, g, "n1")
        assert fx1 in cat.hom("n1", "n3") and fx1.table == (2,)
        assert times_identity(cat, g, "n1") is fx1

    def test_failed_pair_leaves_no_entry(self):
        # skel_category_json(2) declares no n2 x n2, so neither map exists
        cat = load_category(skel_category_json(2))
        f = cat.names["a2_2_1_0"]
        with pytest.raises(CapabilityError, match="no chosen product"):
            graph_pr1(cat, "n2", "n1", f)
        with pytest.raises(CapabilityError, match="no chosen product"):
            times_identity(cat, f, "n2")
        assert [key[0] for key in cat._memo] == ["identity"]

    def test_instances_do_not_share(self):
        one, two = SkelFinSet(), SkelFinSet()
        p = one.proj1(2, 3)
        assert two._memo == {}
        q = two.proj1(2, 3)
        assert q == p and q is not p
        assert one.proj1(2, 3) is p

    def test_failed_build_leaves_no_entry(self):
        # skel_category_json(2) declares no n2 x n2
        cat = load_category(skel_category_json(2))
        with pytest.raises(CapabilityError, match="no chosen product"):
            reassoc_left(cat, "n2", "n2", "n2")
        assert cat._memo == {}

    def test_table_cat_declared_arrows(self):
        cat = load_category(skel_category_json(3))
        cards = {f"n{c}": c for c in range(4)}
        for a, b, c in (["n1", "n3", "n1"], ["n3", "n1", "n1"], ["n1", "n1", "n3"]):
            left = reassoc_left(cat, a, b, c)
            assert left in cat.hom(cat.product(a, cat.product(b, c)), cat.product(cat.product(a, b), c))
            assert left.table == tuple(range(cards[left.dom]))
            assert reassoc_left(cat, a, b, c) is left
        for obj in cards:
            assert cat.identity(obj) in cat.hom(obj, obj)
            assert cat.identity(obj) is cat.identity(obj)
            assert cat.bang(obj) is cat.bang(obj)
