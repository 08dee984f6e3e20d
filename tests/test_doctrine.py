"""Doctrine layer: powerset formulas against direct set computation, order
reversal, the verifier, and tabular files."""

import pytest

from doctrines.doctrine import (
    ALL_CAPS,
    OpDoctrine,
    PowersetDoctrine,
    indices_from_mask,
    load_doctrine,
    mask_from_indices,
    op_doctrine,
    powerset_doctrine,
)
from doctrines.errors import LoadError
from doctrines.fincat import skel_category_json
from doctrines.laws import verify_doctrine
from doctrines.poset import MonotoneMap, left_adjoint_of

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

    def test_masks_roundtrip(self):
        assert mask_from_indices([0, 3], 4) == 0b1001
        assert indices_from_mask(0b1001) == [0, 3]
        with pytest.raises(LoadError):
            mask_from_indices([4], 4)


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
        # materialize the fiber posets; under op, the left adjoint of the
        # preimage map is the old right adjoint
        op = op_doctrine(P)
        f = C.bang(2)  # 2 -> 1
        fiber2 = [0, 1, 2, 3]
        fiber1 = [0, 1]

        def as_map(doc):
            import doctrines.poset as poset

            src = poset.Preorder.from_le(fiber1, lambda p, q: doc.fiber_leq(1, p, q))
            dst = poset.Preorder.from_le(fiber2, lambda p, q: doc.fiber_leq(2, p, q))
            return MonotoneMap(src, dst, tuple(P.reindex(f, v) for v in fiber1))

        la_plain = left_adjoint_of(as_map(P))
        la_op = left_adjoint_of(as_map(op))
        assert tuple(P.exists_along(f, u) for u in fiber2) == la_plain.table
        assert tuple(P.forall_along(f, u) for u in fiber2) == la_op.table

    def test_witness_hooks_swap(self):
        op = op_doctrine(P)
        # EX over op(P) asks for P_<pr,f>(beta) <= alpha
        got = op.ex_witness(1, 1, 2, 0b1, 0b00)
        assert got == (0,)
        assert op.ex_witness(1, 1, 2, 0b0, 0b11) is None


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
        data = tiny_doctrine_data()
        data["capabilities"] = ["levitation"]
        with pytest.raises(LoadError) as e:
            load_doctrine(data)
        assert e.value.law == "capabilities"

    def test_all_caps_known(self):
        assert "existential-over-projections" in ALL_CAPS


class TestOpWrap:
    def test_double_wrap_type(self):
        assert isinstance(op_doctrine(P), OpDoctrine)
