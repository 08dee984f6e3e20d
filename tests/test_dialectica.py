"""Dialectica layer: the exponential forall against direct semantics, the
two order oracles against each other, and the composite lattice."""

import itertools
import random

from doctrines.completion import EX, UN, Completion
from doctrines.dialectica import (
    DialObj,
    bounded_dialobjs,
    dial_from_nested,
    dial_leq,
    dial_order_agrees,
    dial_preorder,
    dial_to_nested,
    eval_expand_arrow,
    forall_pr_exp,
    nested_completion,
)
from doctrines.doctrine import powerset_doctrine
from doctrines.poset import lattice_check, poset_reflect

P = powerset_doctrine()
C = P.cat
ex = Completion(P, EX)


def mask(pairs, width):
    return sum(1 << (a * width + b) for a, b in pairs)


def semantic_forall_exp(a1, a2, b, alpha):
    """{(a1, g) : forall a2, (a1, a2, g(a2)) in alpha}, computed directly.

    Functions g are ranked lexicographically, position 0 most significant.
    """
    e = b**a2
    out = 0
    for x in range(a1):
        for g in range(e):
            if all(
                (alpha >> ((x * a2 + v) * b + (g // b ** (a2 - 1 - v)) % b)) & 1
                for v in range(a2)
            ):
                out |= 1 << (x * e + g)
    return out


class TestForallExp:
    def test_eval_expand_arrow_table(self):
        # (a1, g, a2) in (A1 x B^A2) x A2 goes to (a1, a2, g(a2)) in (A1 x A2) x B
        for a1, a2, b in itertools.product(range(4), repeat=3):
            e = b**a2
            arrow = eval_expand_arrow(C, a1, a2, b)
            assert (arrow.dom, arrow.cod) == (a1 * e * a2, a1 * a2 * b)
            for x1, g, x2 in itertools.product(range(a1), range(e), range(a2)):
                value = (g // b ** (a2 - 1 - x2)) % b
                assert arrow.table[(x1 * e + g) * a2 + x2] == (x1 * a2 + x2) * b + value

    def test_diagonal_selects_identity_function(self):
        alpha = mask([(0, 0), (1, 1)], 2)  # over 1x2x2 with a1 absorbed
        x = ex.elem(C.product(1, 2), 2, alpha)
        got = forall_pr_exp(ex, (1, 2), x)
        assert got.qobj == 4
        # the identity function (0,1) has rank 0*2+1 = 1
        assert got.pred == 1 << 1
        assert got.pred == semantic_forall_exp(1, 2, 2, alpha)

    def test_exponent_by_singleton(self):
        for alpha in range(1 << 4):
            x = ex.elem(C.product(2, 1), 2, alpha)
            got = forall_pr_exp(ex, (2, 1), x)
            same = ex.elem(2, 2, alpha)
            assert got.qobj == 2
            assert ex.leq(got, same) is not None and ex.leq(same, got) is not None

    def test_against_semantics_exhaustive(self):
        for a1, a2, b in ((1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 1)):
            prod = C.product(a1, a2)
            for alpha in range(1 << (a1 * a2 * b)):
                got = forall_pr_exp(ex, (a1, a2), ex.elem(prod, b, alpha))
                assert got.pred == semantic_forall_exp(a1, a2, b, alpha)

    def test_against_semantics_sampled(self):
        rng = random.Random(7)
        a1, a2, b = 2, 2, 2
        for _ in range(50):
            alpha = rng.randrange(1 << 8)
            got = forall_pr_exp(ex, (a1, a2), ex.elem(4, b, alpha))
            assert got.pred == semantic_forall_exp(a1, a2, b, alpha)

    def test_adjunction(self):
        a1, a2 = 2, 2
        prod = C.product(a1, a2)
        pr1 = C.proj1(a1, a2)
        for alpha in range(1 << 4):
            x = ex.elem(prod, 1, alpha)
            fx = forall_pr_exp(ex, (a1, a2), x)
            for beta in range(1 << 2):
                y = ex.elem(a1, 1, beta)
                lhs = ex.leq(ex.reindex(pr1, y), x) is not None
                rhs = ex.leq(y, fx) is not None
                assert lhs == rhs


class TestDialOrder:
    def test_reflexive(self):
        u = DialObj(2, 2, mask([(0, 1)], 2))
        w = dial_leq(P, u, u)
        assert w is not None

    def test_eq_below_neq(self):
        u = DialObj(2, 2, mask([(0, 0), (1, 1)], 2))
        v = DialObj(2, 2, mask([(0, 1), (1, 0)], 2))
        w = dial_leq(P, u, v)
        assert w is not None
        # the claimed witness pair is valid: f = id, F(b, c') = 1 - c'
        from doctrines.dialectica import dial_certifies
        from doctrines.fincat import Arrow

        f = Arrow(2, 2, (0, 1))
        big_f = Arrow(4, 2, (1, 0, 1, 0))
        assert dial_certifies(P, u, v, f, big_f)

    def test_nothing_into_empty(self):
        u = DialObj(1, 1, 0b1)
        v = DialObj(1, 1, 0)
        assert dial_leq(P, u, v) is None

    def test_empty_src_is_bottom(self):
        u = DialObj(0, 0, 0)
        for v in bounded_dialobjs(P, 2):
            assert dial_leq(P, u, v) is not None


class TestOracleEquivalence:
    def test_exhaustive_cards_2(self):
        nested = nested_completion(P)
        objs = bounded_dialobjs(P, 2)
        assert len(objs) == 31
        for u in objs:
            zu = dial_to_nested(nested, u)
            for v in objs:
                zv = dial_to_nested(nested, v)
                direct = dial_leq(P, u, v)
                via = nested.leq(zu, zv)
                assert (direct is None) == (via is None), (u, v)
                if direct is not None:
                    f, big_f = direct
                    # the nested witness is the forward map through 1xB ~ B
                    assert via.arrow.table == f.table

    def test_roundtrip(self):
        nested = nested_completion(P)
        for u in bounded_dialobjs(P, 2):
            assert dial_from_nested(nested, dial_to_nested(nested, u)) == u

    def test_single_pair_helper(self):
        u = DialObj(2, 2, mask([(0, 0), (1, 1)], 2))
        v = DialObj(2, 1, mask([(0, 0)], 1))
        assert dial_order_agrees(P, u, v)
        assert dial_order_agrees(P, v, u)

    def test_sampled_beyond_acceptance_bounds(self):
        # carriers up to 3x3; seeded sample of the 689x689 pair space
        rng = random.Random(11)
        objs = bounded_dialobjs(P, 3)
        nested = nested_completion(P)
        zs = [dial_to_nested(nested, u) for u in objs]
        for _ in range(800):
            i, j = rng.randrange(len(objs)), rng.randrange(len(objs))
            direct = dial_leq(P, objs[i], objs[j]) is not None
            via = nested.leq(zs[i], zs[j]) is not None
            assert direct == via, (objs[i], objs[j])

    def test_nested_inner_witness_translates(self):
        # one concrete pair, checked against the inner certificate as well
        nested = nested_completion(P)
        inner: Completion = nested.base
        u = DialObj(2, 2, mask([(0, 0), (1, 1)], 2))
        v = DialObj(2, 2, mask([(0, 1), (1, 0)], 2))
        zu, zv = dial_to_nested(nested, u), dial_to_nested(nested, v)
        w = nested.leq(zu, zv)
        assert w is not None
        f = w.arrow
        moved = nested.base.reindex(C.pair(C.proj1(1, 2), f), zv.pred)
        assert inner.leq(zu.pred, moved) is not None


class TestDialLattice:
    def test_reflected_bounded_poset_is_lattice(self):
        objs = bounded_dialobjs(P, 2)
        pre = dial_preorder(P, objs)
        poset, _ = poset_reflect(pre)
        rep = lattice_check(poset)
        assert rep.ok
        assert poset.n > 2

    def test_composite_meet_universal(self):
        nested = nested_completion(P)
        objs = bounded_dialobjs(P, 1)
        elems = [dial_to_nested(nested, u) for u in objs]
        for x in elems:
            for y in elems:
                m = nested.meet(1, x, y)
                for z in elems:
                    lhs = nested.leq(z, m) is not None
                    rhs = nested.leq(z, x) is not None and nested.leq(z, y) is not None
                    assert lhs == rhs

    def test_composite_join_universal_nonempty(self):
        nested = nested_completion(P)
        objs = [u for u in bounded_dialobjs(P, 1) if u.src != 0]
        elems = [dial_to_nested(nested, u) for u in objs]
        for x in elems:
            for y in elems:
                j = nested.join(1, x, y)
                for z in elems:
                    lhs = nested.leq(j, z) is not None
                    rhs = nested.leq(x, z) is not None and nested.leq(y, z) is not None
                    assert lhs == rhs


class TestCompositePolarity:
    def test_nested_shapes(self):
        nested = nested_completion(P)
        assert nested.polarity == EX
        assert nested.base.polarity == UN
        u = DialObj(2, 1, 0b01)
        z = dial_to_nested(nested, u)
        assert z.base == 1 and z.qobj == 2
        assert z.pred.base == 2 and z.pred.qobj == 1
