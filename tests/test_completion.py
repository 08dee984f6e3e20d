"""Completion layer: order decisions against hom-set enumeration, the
quantifier adjoints, lattice formulas, duality, and the monad."""

import json

import pytest

from doctrines.completion import (
    EX,
    UN,
    Completion,
    dual_completion,
    duality_transport,
    exists_proj,
    forall_proj,
)
from doctrines.dialectica import nested_completion
from doctrines.doctrine import PowersetDoctrine, powerset_doctrine
from doctrines.errors import CapabilityError, SearchBudgetExceeded

P = powerset_doctrine()
C = P.cat
ex = Completion(P, EX)
un = Completion(P, UN)


def mask(pairs, width):
    return sum(1 << (a * width + b) for a, b in pairs)


class NoFastPath(PowersetDoctrine):
    """Forces the generic enumerative search; the dual route to the kernels."""

    def ex_witness(self, a, b, c, alpha, beta):
        return NotImplemented

    def un_witness(self, a, b, c, alpha, beta):
        return NotImplemented

    def dial_witness(self, b, c, b2, c2, alpha, beta):
        return NotImplemented


slow = NoFastPath()
ex_slow = Completion(slow, EX)
un_slow = Completion(slow, UN)


class TestOrder:
    def test_singleton_target(self):
        x = ex.elem(1, 2, mask([(0, 0)], 2))
        y = ex.elem(1, 1, 0b1)
        w = ex.leq(x, y)
        assert w is not None and w.arrow.table == (0, 0)

    def test_unsatisfiable(self):
        assert ex.leq(ex.elem(1, 1, 0b1), ex.elem(1, 2, 0)) is None

    def test_reflexive_with_projection_witness(self):
        x = ex.elem(2, 2, mask([(0, 1), (1, 0)], 2))
        assert ex.leq(x, x) is not None
        # the second projection always certifies reflexivity
        pr2 = C.proj2(2, 2)
        assert ex.certifies(x, x, pr2)

    def test_polarity_and_base_guards(self):
        with pytest.raises(ValueError):
            ex.leq(ex.elem(1, 1, 0), un.elem(1, 1, 0))
        with pytest.raises(ValueError):
            ex.leq(ex.elem(1, 1, 0), ex.elem(2, 1, 0))

    def test_witness_is_lex_first_against_enumeration(self):
        # dual route: greedy kernel vs complete scan of the hom-set
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    ab = a * b
                    pr = C.proj1(a, b)
                    for alpha in range(1 << ab):
                        for beta in range(1 << (a * c)):
                            x, y = ex.elem(a, b, alpha), ex.elem(a, c, beta)
                            got = ex.leq(x, y)
                            want = None
                            for f in C.iter_hom(ab, c):
                                if P.fiber_leq(ab, alpha, P.reindex(C.pair(pr, f), beta)):
                                    want = f
                                    break
                            if want is None:
                                assert got is None
                            else:
                                assert got is not None and got.arrow == want

    def test_un_witness_against_enumeration(self):
        for a in range(3):
            for b in range(2):
                for c in range(2):
                    pr = C.proj1(a, c)
                    for alpha in range(1 << (a * b)):
                        for beta in range(1 << (a * c)):
                            x, y = un.elem(a, b, alpha), un.elem(a, c, beta)
                            got = un.leq(x, y)
                            want = None
                            for g in C.iter_hom(a * c, b):
                                if P.fiber_leq(a * c, P.reindex(C.pair(pr, g), alpha), beta):
                                    want = g
                                    break
                            assert (got is None) == (want is None)
                            if want is not None:
                                assert got.arrow == want

    def test_generic_path_agrees_with_kernel_path(self):
        for a in (1, 2):
            for alpha in range(1 << (a * 2)):
                for beta in range(1 << (a * 2)):
                    x, y = ex.elem(a, 2, alpha), ex.elem(a, 2, beta)
                    xs, ys = ex_slow.elem(a, 2, alpha), ex_slow.elem(a, 2, beta)
                    fast = ex.leq(x, y)
                    slow_w = ex_slow.leq(xs, ys)
                    assert (fast is None) == (slow_w is None)
                    if fast is not None:
                        assert fast.arrow == slow_w.arrow

    def test_budget_error_not_false(self):
        x = ex_slow.elem(2, 2, 0b1111)
        y = ex_slow.elem(2, 3, 0)  # unsatisfiable; Hom(4,3) = 81 > budget
        with pytest.raises(SearchBudgetExceeded):
            ex_slow.leq(x, y, budget=10)
        # a positive found within budget still answers
        top = ex_slow.elem(2, 1, 0b11)
        assert ex_slow.leq(x, top, budget=10) is not None


class TestReindex:
    def test_identity(self):
        x = ex.elem(2, 2, 0b0110)
        assert ex.reindex(C.identity(2), x) == x

    def test_composition_both_ways(self):
        for f in C.iter_hom(1, 2):
            for g in C.iter_hom(2, 2):
                for pred in range(1 << 4):
                    x = ex.elem(2, 2, pred)
                    assert ex.reindex(f, ex.reindex(g, x)) == ex.reindex(
                        C.compose(g, f), x
                    )

    def test_point_picks_row(self):
        diag = ex.elem(2, 2, mask([(0, 0), (1, 1)], 2))
        pt = C.arrow(1, 2, [1])
        got = ex.reindex(pt, diag)
        assert got == ex.elem(1, 2, mask([(0, 1)], 2))


class TestProjectionQuantifiers:
    def test_exists_pr_shape(self):
        # (1x2, 1, {(0,1,0)}) -> (1, 2x1, same bits)
        alpha = 1 << 1
        x = ex.elem(C.product(1, 2), 1, alpha)
        got = ex.exists_pr((1, 2), x)
        assert got == ex.elem(1, 2, alpha)

    def test_exists_pr_unit_triangle(self):
        pr1 = C.proj1(1, 2)
        for alpha in range(1 << 2):
            x = ex.elem(2, 1, alpha)
            e = ex.exists_pr((1, 2), x)
            assert ex.leq(x, ex.reindex(pr1, e)) is not None

    def test_singleton_factor_degenerates(self):
        for alpha in range(1 << 2):
            x = ex.elem(C.product(2, 1), 1, alpha)
            got = ex.exists_pr((2, 1), x)
            same = ex.elem(2, 1, alpha)
            assert ex.leq(got, same) is not None and ex.leq(same, got) is not None

    def test_forall_pr_is_un_polarity(self):
        with pytest.raises(CapabilityError):
            un.exists_pr((1, 1), un.elem(1, 1, 0))

    def test_proj_reductions(self):
        # quantifying out the middle coordinate of 2x2x2, powerset level
        factors = (2, 2, 2)
        pred = 0b10110100
        got = forall_proj(P, factors, (0, 2), pred)
        want = 0
        for a in range(2):
            for c in range(2):
                if all((pred >> ((a * 2 + b) * 2 + c)) & 1 for b in range(2)):
                    want |= 1 << (a * 2 + c)
        assert got == want
        got_e = exists_proj(P, factors, (0, 2), pred)
        want_e = 0
        for a in range(2):
            for c in range(2):
                if any((pred >> ((a * 2 + b) * 2 + c)) & 1 for b in range(2)):
                    want_e |= 1 << (a * 2 + c)
        assert got_e == want_e


class TestLattice:
    def test_top_bottom(self):
        t, b = ex.top(2), ex.bottom(2)
        assert t == ex.elem(2, 1, 0b11)
        assert b == ex.elem(2, 0, 0)
        for q in (0, 1, 2):
            for pred in range(1 << (2 * q)):
                x = ex.elem(2, q, pred)
                assert ex.leq(x, t) is not None
                assert ex.leq(b, x) is not None

    def test_meet_with_top_is_identity(self):
        for pred in range(1 << 2):
            x = ex.elem(1, 2, pred)
            m = ex.meet(1, x, ex.top(1))
            assert ex.leq(m, x) is not None and ex.leq(x, m) is not None

    def test_join_example(self):
        # (1,2,{b=0}) v (1,2,{b=1}) transports the two direct images into
        # qobj 2+2; the summands keep their offsets
        x = ex.elem(1, 2, 0b01)
        y = ex.elem(1, 2, 0b10)
        j = ex.join(1, x, y)
        assert j.qobj == 4
        assert j.pred == (1 << 0) | (1 << 3)
        # least upper bound against the whole bounded fiber
        for z in ex.bounded_fiber(1, 2):
            lhs = ex.leq(j, z) is not None
            rhs = ex.leq(x, z) is not None and ex.leq(y, z) is not None
            assert lhs == rhs

    def test_un_duals(self):
        t, b = un.top(2), un.bottom(2)
        assert t == un.elem(2, 0, 0)
        assert b == un.elem(2, 1, 0)
        for q in (0, 1, 2):
            for pred in range(1 << (2 * q)):
                x = un.elem(2, q, pred)
                assert un.leq(x, t) is not None
                assert un.leq(b, x) is not None


class TestInjectionQuantifiers:
    def test_exists_inj_example(self):
        x = ex.elem(1, 1, 0b1)
        got = ex.exists_inj((1, 1), x)
        assert got == ex.elem(2, 1, mask([(0, 0)], 1))

    def test_forall_inj_example(self):
        x = ex.elem(1, 1, 0b1)
        got = ex.forall_inj((1, 1), x)
        assert got == ex.elem(2, 1, mask([(0, 0), (1, 0)], 1))

    def test_empty_right_summand_is_transport(self):
        x = ex.elem(2, 2, 0b0110)
        got = ex.exists_inj((2, 0), x)
        assert got.base == 2 and got.pred == x.pred
        assert ex.leq(got, x) is not None and ex.leq(x, got) is not None

    def test_adjunctions_on_nonempty_summand(self):
        for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
            j1 = C.inj1(a, b)
            for x in ex.bounded_fiber(a, 1):
                ex_x = ex.exists_inj((a, b), x)
                fa_x = ex.forall_inj((a, b), x)
                for y in ex.bounded_fiber(a + b, 1):
                    ry = ex.reindex(j1, y)
                    assert (ex.leq(ex_x, y) is not None) == (ex.leq(x, ry) is not None)
                    assert (ex.leq(ry, x) is not None) == (ex.leq(y, fa_x) is not None)

    def test_initial_summand_corner_pinned(self):
        """The transported formulas are not adjoints along the absurd
        injection: the fiber over 0 is one class, so the adjoints are the
        constant bottom/top classes, which the formulas miss.  This pins
        the counterexample so the scoping in the law suite stays honest.
        """
        x = ex.elem(0, 0, 0)
        y = ex.elem(1, 1, 0)
        j = C.inj1(0, 1)
        # reindexing along j lands in the trivial fiber: always below x
        assert ex.leq(ex.reindex(j, y), x) is not None
        # but y is not below the formula value (1, 0, empty) ...
        assert ex.forall_inj((0, 1), x) == ex.elem(1, 0, 0)
        assert ex.leq(y, ex.forall_inj((0, 1), x)) is None
        # ... while the true adjoint value, the top class, works
        assert ex.leq(y, ex.top(1)) is not None
        # dual corner for the left adjoint
        x2 = ex.elem(0, 1, 0)
        y2 = ex.elem(1, 0, 0)
        assert ex.leq(x2, ex.reindex(j, y2)) is not None
        assert ex.leq(ex.exists_inj((0, 1), x2), y2) is None


class TestDuality:
    def test_transport_involution(self):
        x = un.elem(2, 2, 0b1010)
        assert duality_transport(duality_transport(x)) == x
        assert duality_transport(x).polarity == EX

    def test_order_matrix_transposed(self):
        comp_dual = dual_completion(un)
        for a in (0, 1, 2):
            elems = un.bounded_fiber(a, 2)
            for x in elems:
                for y in elems:
                    lhs = un.leq(x, y) is not None
                    rhs = (
                        comp_dual.leq(duality_transport(y), duality_transport(x))
                        is not None
                    )
                    assert lhs == rhs

    def test_witnesses_transfer(self):
        x = un.elem(1, 2, mask([(0, 0)], 2))
        y = un.elem(1, 1, 0b0)
        w = un.leq(x, y)
        assert w is not None
        comp_dual = dual_completion(un)
        w2 = comp_dual.leq(duality_transport(y), duality_transport(x))
        assert w2 is not None and w2.arrow == w.arrow
        # and the transported witness certifies in the dual completion
        assert comp_dual.certifies(duality_transport(y), duality_transport(x), w.arrow)


class TestMonad:
    def test_unit_then_mult(self):
        doubled = Completion(ex, EX)
        for pred in range(1 << 2):
            x = ex.elem(1, 2, pred)
            z = doubled.elem(1, 2, ex.unit(C.product(1, 2), pred))
            got = ex.mult(z)
            assert ex.leq(got, x) is not None and ex.leq(x, got) is not None

    def test_outer_unit_then_mult(self):
        doubled = Completion(ex, EX)
        for pred in range(1 << 2):
            x = ex.elem(2, 1, pred)
            got = ex.mult(doubled.unit(2, x))
            assert ex.leq(got, x) is not None and ex.leq(x, got) is not None

    def test_mult_collapses_shape(self):
        inner = ex.elem(C.product(2, 2), 2, 0b10110100)
        z = Completion(ex, EX).elem(2, 2, inner)
        got = ex.mult(z)
        assert got.base == 2 and got.qobj == 4 and got.pred == inner.pred

    def test_mult_shape_mismatch(self):
        inner = ex.elem(2, 2, 0)
        z = Completion(ex, EX).elem(2, 2, inner)  # inner base should be 4
        with pytest.raises(ValueError):
            ex.mult(z)

    def test_prenex(self):
        for pred in range(1 << 4):
            x = ex.elem(2, 2, pred)
            p = ex.exists_pr((2, 2), ex.unit(C.product(2, 2), pred))
            assert ex.leq(p, x) is not None and ex.leq(x, p) is not None


class TestBoundedFiber:
    def test_sizes(self):
        assert len(ex.bounded_fiber(0, 2)) == 3
        assert len(ex.bounded_fiber(1, 2)) == 1 + 2 + 4
        assert len(ex.bounded_fiber(2, 2)) == 1 + 4 + 16

    def test_preorder_reflection_counts_classes(self):
        from doctrines.poset import poset_reflect

        pre = ex.bounded_preorder(1, 2)
        poset, _ = poset_reflect(pre)
        assert poset.n < pre.n  # plenty of collapse
        # pairwise mutual order really is an equivalence on labels
        for i in range(pre.n):
            assert pre.le(i, i)

    def test_fiber_not_enumerable(self):
        with pytest.raises(CapabilityError):
            ex.fiber_elements(1)


class TestUnPolarity:
    def test_forall_pr_shape(self):
        alpha = 0b1010
        x = un.elem(C.product(2, 2), 1, alpha)
        got = un.forall_pr((2, 2), x)
        assert got == un.elem(2, 2, alpha)

    def test_adjunction_direction(self):
        pr1 = C.proj1(2, 2)
        for alpha in range(1 << 4):
            x = un.elem(C.product(2, 2), 1, alpha)
            fx = un.forall_pr((2, 2), x)
            for beta in range(1 << 2):
                y = un.elem(2, 1, beta)
                lhs = un.leq(un.reindex(pr1, y), x) is not None
                rhs = un.leq(y, fx) is not None
                assert lhs == rhs


class TestSerialization:
    def test_element_shape(self):
        x = ex.elem(1, 2, 0b10)
        assert ex.pred_to_json(1, x) == {"polarity": "EX", "base": 1, "qobj": 2, "pred": [1]}

    def test_roundtrip(self):
        nested = nested_completion(P)
        cases = [(comp, comp.bounded_fiber(a, 2)) for comp in (ex, un) for a in range(3)]
        cases.append((nested, nested.bounded_fiber(1, 1, preds=lambda ob: nested.base.bounded_fiber(ob, 1))))
        for comp, elems in cases:
            for x in elems:
                data = comp.pred_to_json(x.base, x)
                assert json.loads(json.dumps(data)) == data
                assert comp.pred_from_json(x.base, data) == x

    def test_wrong_object_or_polarity_rejected(self):
        data = ex.pred_to_json(1, ex.elem(1, 2, 0b10))
        with pytest.raises(ValueError):
            ex.pred_from_json(2, data)
        with pytest.raises(ValueError):
            un.pred_from_json(1, data)
