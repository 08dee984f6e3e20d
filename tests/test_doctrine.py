"""Doctrine layer: powerset formulas against direct set computation, order
reversal, the verifier, and tabular files."""

import pytest

from doctrines.completion import EX, UN, Completion, duality_transport
from doctrines.doctrine import (
    OpDoctrine,
    PowersetDoctrine,
    indices_from_mask,
    mask_from_indices,
    op_doctrine,
    powerset_doctrine,
)
from doctrines.errors import CapabilityError, LoadError, SearchBudgetExceeded
from doctrines.laws import LawContext, run_laws, run_suite, verify_doctrine
from doctrines.report import PASS, SKIPPED
from doctrines.tables import load_doctrine, skel_category_json

P = powerset_doctrine()
C = P.cat


def mask(pairs, width):
    """Encode a set of (a, b) pairs over a product carrier."""
    return sum(1 << (a * width + b) for a, b in pairs)


class TestPowerset:
    def test_forall_along_projection(self):
        # U = {(0,0),(0,1),(1,0)} on 2x2; {a : every fiber point is in U} = {0}
        pr = C.proj1(2, 2)
        u = mask([(0, 0), (0, 1), (1, 0)], 2)
        want = 0
        for a in range(2):
            if all((u >> (a * 2 + b)) & 1 for b in range(2)):
                want |= 1 << a
        assert want == 0b01
        assert P.forall_along(pr, u) == want

    def test_exists_along_projection(self):
        pr = C.proj1(2, 2)
        u = mask([(1, 0)], 2)
        assert P.exists_along(pr, u) == 0b10

    def test_reindex_identity(self):
        for a in range(4):
            ident = C.identity(a)
            for p in P.fiber_elements(a):
                assert P.reindex(ident, p) == p

    def test_adjoint_triple_exhaustive(self):
        # exists_along(f) -| reindex(f) -| forall_along(f) for every arrow
        for a in range(3):
            for b in range(3):
                for f in C.iter_hom(a, b):
                    for u in P.fiber_elements(a):
                        for v in P.fiber_elements(b):
                            assert (P.exists_along(f, u) & ~v == 0) == (
                                u & ~P.reindex(f, v) == 0
                            )
                            assert (P.reindex(f, v) & ~u == 0) == (
                                v & ~P.forall_along(f, u) == 0
                            )

    def test_reindex_is_boolean_hom(self):
        for f in C.iter_hom(2, 2):
            for p in P.fiber_elements(2):
                for q in P.fiber_elements(2):
                    assert P.reindex(f, p & q) == P.reindex(f, p) & P.reindex(f, q)
                    assert P.reindex(f, p | q) == P.reindex(f, p) | P.reindex(f, q)

    def test_fiber_enumeration_budget_counts_elements(self):
        with pytest.raises(SearchBudgetExceeded) as e:
            P.fiber_elements(21)
        assert str(e.value) == "search space of 2097152 fiber elements exceeds budget 1048576 (fiber over 21)"

    def test_masks_roundtrip(self):
        assert mask_from_indices([0, 3], 4) == 0b1001
        assert indices_from_mask(0b1001) == [0, 3]
        for bad in ([4], [-1], [1.7], [True], [[1]], 5):
            with pytest.raises(LoadError):
                mask_from_indices(bad, 4)


class TestOp:
    def test_involution(self):
        assert op_doctrine(op_doctrine(P)) is P

    def test_order_reversal(self):
        op = op_doctrine(P)
        assert op.fiber_leq(2, 0b11, 0b01)
        assert not op.fiber_leq(2, 0b01, 0b11)

    def test_swaps_lattice(self):
        op = op_doctrine(P)
        assert op.top(2) == 0
        assert op.bottom(2) == 0b11
        assert op.meet(2, 0b01, 0b10) == 0b11
        assert op.join(2, 0b01, 0b10) == 0

    def test_swaps_adjoints_by_galois_search(self):
        # both adjunction laws hold on op(P) by exhaustive search, and
        # under op the left adjoint of reindexing is P's right adjoint
        op = op_doctrine(P)
        results = run_laws(LawContext(doctrine=op, max_card=2), ["adjunction-exists-along", "adjunction-forall-along"])
        assert [(r.status, r.checked > 0) for r in results] == [(PASS, True), (PASS, True)]
        for a in range(3):
            for b in range(3):
                for f in C.iter_hom(a, b):
                    for u in range(1 << a):
                        assert op.exists_along(f, u) == P.forall_along(f, u)

    def test_witness_hooks_swap(self):
        op = op_doctrine(P)
        # EX over op(P) asks for P_<pr,f>(beta) <= alpha
        got = op.ex_witness(1, 1, 2, 0b1, 0b00)
        assert got == (0,)
        assert op.ex_witness(1, 1, 2, 0b0, 0b11) is None

    def test_verifier_counts_match_the_base(self):
        # every doctrine law holds on op(P), with P's check counts
        counts = {r.law: r.checked for r in verify_doctrine(P, max_card=2).results}
        rep = verify_doctrine(op_doctrine(P), max_card=2)
        assert [r.status for r in rep.results] == [PASS] * 9
        assert {r.law: r.checked for r in rep.results} == counts
        assert sorted(counts.values()) == [7, 42, 73, 99, 99, 136, 163, 171, 385]

    def test_completion_duality_and_serialization(self):
        # x <= y in P^ex iff y <= x in (op P)^un, with the same arrow
        ex, op_un = Completion(P, EX), Completion(op_doctrine(P), UN)
        pairs = 0
        for a in range(3):
            fiber = ex.bounded_fiber(a, 1)
            for x in fiber:
                for y in fiber:
                    w, v = ex.leq(x, y), op_un.leq(duality_transport(y), duality_transport(x))
                    assert (w and w.arrow) == (v and v.arrow), (x, y)
                    pairs += 1
                z = duality_transport(x)
                assert op_un.pred_from_json(a, op_un.pred_to_json(a, z)) == z
        assert pairs == 38


class TestVerifier:
    def test_powerset_passes(self):
        rep = verify_doctrine(P, max_card=2)
        assert rep.ok
        assert {r.law for r in rep.results} >= {
            "reindex-identity",
            "reindex-composition",
            "reindex-monotone",
            "adjunction-exists-along",
            "adjunction-forall-along",
            "beck-chevalley-projections",
            "beck-chevalley-injections",
            "lat-fibers",
            "reindex-preserves-lattice",
        }

    def test_swapped_adjoints_fail(self):
        class Swapped(PowersetDoctrine):
            def exists_along(self, f, p):
                return PowersetDoctrine.forall_along(self, f, p)

            def forall_along(self, f, p):
                return PowersetDoctrine.exists_along(self, f, p)

        rep = verify_doctrine(Swapped(), max_card=2)
        bad = {r.law for r in rep.failed}
        assert "adjunction-exists-along" in bad
        fail = next(r for r in rep.failed if r.law == "adjunction-exists-along")
        assert fail.counterexample is not None and "f" in fail.counterexample


def tiny_doctrine_data(break_reindex=False, adjoints=False, swap_adjoints=False):
    """Subset fibers over the skeleton up to card 1, written out in full."""
    cat_data = skel_category_json(1)
    fibers = {"n0": {"elements": ["e"], "leq": []},
              "n1": {"elements": ["bot", "top"], "leq": [["bot", "top"]]}}
    reindex = {}
    exists = {}
    forall = {}
    for arrow in cat_data["arrows"]:
        # preimage tables in the labeled encoding
        if arrow["dom"] == "n0":
            reindex[arrow["id"]] = [0] * (2 if arrow["cod"] == "n1" else 1)
            if arrow["cod"] == "n1":
                # direct image of the empty predicate is bot, universal
                # image fills the empty fibers, so top
                exists[arrow["id"]] = [0]
                forall[arrow["id"]] = [1]
        else:
            reindex[arrow["id"]] = [0, 1]
            exists[arrow["id"]] = [0, 1]
            forall[arrow["id"]] = [0, 1]
    if break_reindex:
        # identity on n1 no longer acts as the identity
        ident = next(
            a["id"] for a in cat_data["arrows"] if a["dom"] == "n1" and a["table"] == [0]
        )
        reindex[ident] = [1, 1]
    data = {"category": cat_data, "fibers": fibers, "reindex": reindex}
    if adjoints:
        if swap_adjoints:
            exists, forall = forall, exists
        data["exists"] = exists
        data["forall"] = forall
    return data


def full_adjoint_data():
    """The tiny doctrine with adjoint tables along every arrow, n0's identity
    (the projection n0 x n0 -> n0) included."""
    data = tiny_doctrine_data(adjoints=True)
    ident = next(a["id"] for a in data["category"]["arrows"] if a["dom"] == a["cod"] == "n0")
    data["exists"][ident] = data["forall"][ident] = [0]
    return data


def some_coproducts(data):
    """Declare the coproducts n0+n0, n0+n1 and n1+n0 of the skeleton up to
    card 1, and not n1+n1, which it lacks."""
    data["category"]["structure"]["coproducts"] = [
        {"left": f"n{a}", "right": f"n{b}", "obj": f"n{a + b}",
         "inj1": f"a{a}_{a + b}_" + "_".join(map(str, range(a))),
         "inj2": f"a{b}_{a + b}_" + "_".join(str(a + i) for i in range(b))}
        for a, b in ((0, 0), (0, 1), (1, 0))]
    return data


def two_point_n0(data, leq):
    """Make the fiber over n0 the two elements e, f ordered by `leq`, with
    the reindex tables of the arrows out of n0 to match."""
    data["fibers"]["n0"] = {"elements": ["e", "f"], "leq": leq}
    for arrow in data["category"]["arrows"]:
        if arrow["dom"] == "n0":
            data["reindex"][arrow["id"]] = [0, 1] if arrow["cod"] == "n0" else [0, 0]


class TestTabular:
    def test_roundtrip(self):
        doc = load_doctrine(tiny_doctrine_data())
        assert doc.fiber_leq("n1", 0, 1)
        assert not doc.fiber_leq("n1", 1, 0)
        rep = verify_doctrine(doc)
        assert rep.ok

    def test_broken_reindex_rejected_on_load(self):
        with pytest.raises(LoadError) as e:
            load_doctrine(tiny_doctrine_data(break_reindex=True))
        assert e.value.law == "reindex-identity"

    def test_broken_reindex_reported_by_verifier(self):
        doc = load_doctrine(tiny_doctrine_data(break_reindex=True), verify=False)
        rep = verify_doctrine(doc)
        assert not rep.ok
        assert rep.failed[0].law == "reindex-identity"
        assert rep.failed[0].counterexample["object"] == "n1"

    def test_declared_adjoints_verified(self):
        doc = load_doctrine(tiny_doctrine_data(adjoints=True))
        rep = verify_doctrine(doc)
        assert rep.ok
        laws = {r.law: r for r in rep.results}
        assert laws["adjunction-exists-along"].checked > 0
        assert laws["adjunction-forall-along"].checked > 0

    def test_every_law_passes_or_skips(self):
        # laws that need what a tabular doctrine lacks (fibers over
        # undeclared objects, cardinal arithmetic) skip instead of raising
        doc = load_doctrine(tiny_doctrine_data(adjoints=True))
        rep = run_suite("all", LawContext(doctrine=doc, max_card=1, qmax=1))
        assert {r.status for r in rep.results} == {PASS, SKIPPED}
        laws = {r.law: r for r in rep.results}
        assert laws["skolem-full-sweep"].detail == "4 is not a declared object"
        for law in ("rule-of-choice", "counterexample-property"):
            assert laws[law].status == SKIPPED and "finite-sets base" in laws[law].detail

    def test_laws_without_their_capability_skip(self):
        """A law the doctrine has no structure for is SKIPPED with the
        provider's reason, never PASSed on no checks."""
        doc = load_doctrine(tiny_doctrine_data())
        rep = run_suite("all", LawContext(doctrine=doc, max_card=1, qmax=1))
        laws = {r.law: r for r in rep.results}
        assert {law: (laws[law].status, laws[law].checked, laws[law].detail) for law in (
            "adjunction-exists-along", "adjunction-forall-along", "beck-chevalley-projections",
            "beck-chevalley-injections", "lat-fibers", "reindex-preserves-lattice")} == {
            "adjunction-exists-along": (SKIPPED, 0, "no left adjoint to reindexing along any arrow"),
            "adjunction-forall-along": (SKIPPED, 0, "no right adjoint to reindexing along any arrow"),
            "beck-chevalley-projections": (SKIPPED, 0, "no left adjoint table for Arrow('n0' -> 'n0', [])"),
            "beck-chevalley-injections": (SKIPPED, 0, "no chosen coproduct for ('n0','n0')"),
            "lat-fibers": (SKIPPED, 0, "no top provider"),
            "reindex-preserves-lattice": (SKIPPED, 0, "no meet provider"),
        }
        assert [r.law for r in verify_doctrine(doc).results if r.status == PASS] == [
            "reindex-composition", "reindex-identity", "reindex-monotone"]

    def test_quantifiers_along_projections_read_off_the_tables(self):
        """With adjoint tables along every arrow, the quantifiers along the
        chosen projections are those tables, and the projection
        Beck-Chevalley law runs, also under order reversal."""
        doc = load_doctrine(full_adjoint_data())
        for split in (("n0", "n0"), ("n0", "n1"), ("n1", "n0"), ("n1", "n1")):
            pr = doc.cat.proj1(*split)
            for p in doc.fiber_elements(pr.dom):
                assert doc.exists_pr(split, p) == doc.exists_along(pr, p) == doc._exists[pr][p]
                assert doc.forall_pr(split, p) == doc.forall_along(pr, p) == doc._forall[pr][p]
        for d in (doc, op_doctrine(doc)):
            laws = {r.law: (r.status, r.checked) for r in verify_doctrine(d).results}
            assert laws["beck-chevalley-projections"] == (PASS, 8)
            assert laws["beck-chevalley-injections"] == (SKIPPED, 0)

    def test_injection_squares_checked_where_the_coproducts_exist(self):
        """Beck-Chevalley squares whose chosen coproducts the category lacks
        are left out and the others checked; the law is SKIPPED only when
        no square is left."""
        doc = load_doctrine(some_coproducts(full_adjoint_data()))
        for d in (doc, op_doctrine(doc)):
            laws = {r.law: (r.status, r.checked) for r in verify_doctrine(d).results}
            assert laws["beck-chevalley-injections"] == (PASS, 7)
            assert laws["beck-chevalley-projections"] == (PASS, 8)
        # with no coproduct at all, the first one missing is the reason
        laws = {r.law: r for r in verify_doctrine(load_doctrine(full_adjoint_data())).results}
        law = laws["beck-chevalley-injections"]
        assert (law.status, law.checked, law.detail) == (SKIPPED, 0, "no chosen coproduct for ('n0','n0')")

    def test_completion_refuses_injection_quantifiers_over_a_file(self):
        # the base answers along the chosen injection from its tables, but the
        # completion's transport needs the distributivity isos of finite sets
        doc = load_doctrine(some_coproducts(full_adjoint_data()))
        assert doc.exists_inj(("n1", "n0"), 1) == 1
        comp = Completion(doc, EX)
        with pytest.raises(CapabilityError, match="distributivity isos exist on finite sets only"):
            comp.exists_inj(("n1", "n0"), comp.elem("n1", "n1", 1))

    def test_op_of_declared_adjoints_verified(self):
        # order reversal swaps the declared adjoint tables, and both laws run
        rep = verify_doctrine(op_doctrine(load_doctrine(tiny_doctrine_data(adjoints=True))))
        laws = {r.law: (r.status, r.checked) for r in rep.results}
        assert laws["adjunction-exists-along"] == laws["adjunction-forall-along"] == (PASS, 6)

    def test_fiber_without_claimed_lattice_not_failed(self):
        # two incomparable elements over n0: no top, no bottom, no lattice
        data = tiny_doctrine_data()
        two_point_n0(data, [])
        doc = load_doctrine(data)
        rep = run_suite("all", LawContext(doctrine=doc, max_card=1, qmax=1))
        assert rep.failed == [] and verify_doctrine(doc).failed == []
        assert {r.law: r.status for r in rep.results}["lat-fibers"] == SKIPPED

    def test_bounds_name_only_what_bounds_the_check(self):
        """`max_card` bounds the objects over finite sets; a declared
        category is checked on every object, so its report records no
        bound and its results do not depend on the value given."""
        doc = load_doctrine(tiny_doctrine_data(adjoints=True))
        reps = [verify_doctrine(doc, max_card=k) for k in (0, 2, 5)]
        assert [rep.bounds for rep in reps] == [{}, {}, {}]
        assert len({tuple(rep.results) for rep in reps}) == 1
        assert verify_doctrine(P, max_card=1).bounds == {"max_card": 1}

    def test_swapped_adjoint_tables_rejected(self):
        with pytest.raises(LoadError) as e:
            load_doctrine(tiny_doctrine_data(adjoints=True, swap_adjoints=True))
        assert e.value.law.startswith("adjunction-")

    def test_missing_reindex_table(self):
        data = tiny_doctrine_data()
        data["reindex"].popitem()
        with pytest.raises(LoadError) as e:
            load_doctrine(data)
        assert e.value.law == "map-table"

    def test_unknown_capability(self):
        # a `capabilities` block is refused, known names or not: structure
        # is read off the tables
        for caps in (["levitation"], ["lat-fibers"]):
            data = tiny_doctrine_data(adjoints=True)
            data["capabilities"] = caps
            with pytest.raises(LoadError, match="unknown key 'capabilities'") as e:
                load_doctrine(data)
            assert e.value.law == "format"

    def test_unknown_top_level_key(self):
        # a misspelt `exists` block is named, not dropped with its adjoints
        data = tiny_doctrine_data(adjoints=True)
        data["exist"] = data.pop("exists")
        with pytest.raises(LoadError, match="unknown key 'exist'") as e:
            load_doctrine(data)
        assert e.value.law == "format"

    def test_malformed_files(self):
        ident = next(a["id"] for a in skel_category_json(1)["arrows"] if a["dom"] == a["cod"] == "n1")
        edits = {
            "fiber-order": [
                lambda d: d["fibers"]["n1"].update(leq=[["bot", "zzz"]]),
                lambda d: d["fibers"]["n1"].pop("elements"),
                lambda d: d["fibers"]["n1"].update(leq=[5]),
                lambda d: d["fibers"].update(n1=5),
                lambda d: d["fibers"]["n1"].update(elements=["top", "top"], leq=[]),
                # a fiber is a poset: a cycle of distinct elements is refused
                lambda d: two_point_n0(d, [["e", "f"], ["f", "e"]]),
            ],
            "map-table": [
                lambda d: d["reindex"].update({ident: [0.2, 1.9]}),
                lambda d: d["reindex"].update({ident: [False, True]}),
                lambda d: d["reindex"].update({ident: 5}),
            ],
            "format": [
                lambda d: d.update(fibers=[]),
                lambda d: d.update(reindex=[]),
                lambda d: d.update(category=[]),
            ],
        }
        for law, cases in edits.items():
            for edit in cases:
                data = tiny_doctrine_data()
                edit(data)
                with pytest.raises(LoadError) as e:
                    load_doctrine(data)
                assert e.value.law == law
        # predicates over an undeclared object are refused like its fiber
        doc = load_doctrine(tiny_doctrine_data())
        for call in (lambda: doc.pred_to_json("n9", 0), lambda: doc.pred_from_json("n9", "top")):
            with pytest.raises(CapabilityError, match="'n9' is not a declared object"):
                call()


class TestOpWrap:
    def test_double_wrap_type(self):
        assert isinstance(op_doctrine(P), OpDoctrine)
