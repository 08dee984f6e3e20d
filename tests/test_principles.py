"""Choice principles: witness/counterexample extraction against semantic
sweeps, and the quantifier exchange."""

import pytest

from doctrines.completion import EX, UN, Completion
from doctrines.doctrine import powerset_doctrine
from doctrines.errors import CapabilityError
from doctrines.principles import (
    extract_choice,
    extract_counterexample,
    skolem_check,
)

P = powerset_doctrine()
C = P.cat
ex = Completion(P, EX)
un = Completion(P, UN)


def mask(pairs, width):
    return sum(1 << (a * width + b) for a, b in pairs)


def total(alpha, a, b):
    """forall x exists y alpha(x, y)"""
    return all(any((alpha >> (x * b + y)) & 1 for y in range(b)) for x in range(a))


def refutable(alpha, a, b):
    """forall x exists y not alpha(x, y)"""
    return all(any(not (alpha >> (x * b + y)) & 1 for y in range(b)) for x in range(a))


class TestChoice:
    def test_trivial_existential(self):
        f = extract_choice(ex, ex.elem(2, 1, 0b11))
        assert f is not None and f.table == (0, 0)

    def test_swap_witness(self):
        alpha = mask([(0, 1), (1, 0)], 2)
        f = extract_choice(ex, ex.elem(2, 2, alpha))
        assert f is not None
        assert f.table == (1, 0)
        # lexicographically first valid table, confirmed by scan
        firsts = [
            t
            for t in [(0, 0), (0, 1), (1, 0), (1, 1)]
            if all((alpha >> (x * 2 + t[x])) & 1 for x in range(2))
        ]
        assert firsts[0] == f.table

    def test_unsatisfiable(self):
        assert extract_choice(ex, ex.elem(2, 2, 0)) is None

    def test_sound_and_complete_cards_3(self):
        for a in range(4):
            for b in range(4):
                for alpha in range(1 << (a * b)):
                    f = extract_choice(ex, ex.elem(a, b, alpha))
                    assert (f is not None) == total(alpha, a, b)
                    if f is not None:
                        assert all(
                            (alpha >> (x * b + f.table[x])) & 1
                            for x in range(a)
                        )

    def test_wrong_polarity(self):
        with pytest.raises(CapabilityError):
            extract_choice(un, un.elem(1, 1, 0))


class TestCounterexample:
    def test_example(self):
        alpha = mask([(0, 1)], 2)
        g = extract_counterexample(un, un.elem(1, 2, alpha))
        assert g is not None and g.table == (0,)

    def test_full_predicate_has_none(self):
        assert extract_counterexample(un, un.elem(2, 2, 0b1111)) is None

    def test_empty_predicate(self):
        g = extract_counterexample(un, un.elem(2, 1, 0))
        assert g is not None and g.table == (0, 0)

    def test_sound_and_complete_cards_3(self):
        for a in range(4):
            for b in range(4):
                for alpha in range(1 << (a * b)):
                    g = extract_counterexample(un, un.elem(a, b, alpha))
                    assert (g is not None) == refutable(alpha, a, b)
                    if g is not None:
                        assert not any(
                            (alpha >> (x * b + g.table[x])) & 1
                            for x in range(a)
                        )


class TestSkolem:
    def test_all_singletons(self):
        for alpha in (0, 1):
            rep = skolem_check(ex, 1, 1, 1, alpha)
            assert rep.equal
            same = ex.elem(1, 1, alpha)
            assert ex.leq(rep.lhs, same) is not None and ex.leq(same, rep.lhs) is not None

    def test_diagonal_gives_identity_point(self):
        alpha = mask([(0, 0), (1, 1)], 2)  # diagonal on 1x2x2
        rep = skolem_check(ex, 1, 2, 2, alpha)
        assert rep.equal
        expected = ex.elem(1, 4, 1 << 1)  # the rank-1 point is the identity map
        for side in (rep.lhs, rep.rhs):
            assert ex.leq(side, expected) is not None
            assert ex.leq(expected, side) is not None

    def test_full_sweep_smallest(self):
        for alpha in range(1 << 4):
            assert skolem_check(ex, 1, 2, 2, alpha).equal

    def test_certificates_attached(self):
        rep = skolem_check(ex, 1, 2, 2, 0b1001)
        assert rep.lhs_le_rhs is not None and rep.rhs_le_lhs is not None
        assert ex.certifies(rep.lhs, rep.rhs, rep.lhs_le_rhs.arrow)

    def test_wrong_polarity(self):
        with pytest.raises(CapabilityError):
            skolem_check(un, 1, 1, 1, 0)

    def test_sampled_beyond_acceptance_bounds(self):
        import random

        rng = random.Random(11)
        for (a1, a2, b), n in (((2, 3, 2), 25), ((3, 2, 2), 25), ((1, 3, 3), 15)):
            carrier = a1 * a2 * b
            for _ in range(n):
                alpha = rng.randrange(1 << carrier)
                assert skolem_check(ex, a1, a2, b, alpha).equal, (a1, a2, b, alpha)
