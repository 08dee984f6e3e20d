"""Poset layer: the class-built order matrix against the full scan,
reflection, lattice reports, DOT export."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctrines.completion import EX, UN, Completion
from doctrines.dialectica import bounded_dialobjs, dial_leq, dial_preorder
from doctrines.doctrine import powerset_doctrine
from doctrines.poset import Poset, Preorder, lattice_check, poset_reflect, to_dot


def chain(n):
    return Poset.from_le(list(range(n)), lambda a, b: a <= b)


def boolean(n_atoms):
    """Subsets of an n-element set ordered by inclusion, labels are masks."""
    masks = list(range(1 << n_atoms))
    return Poset.from_le(masks, lambda p, q: p & ~q == 0)


def full_scan_rows(labels, le):
    """Oracle for ``Preorder.from_le``: the n² matrix, every pair asked."""
    n = len(labels)
    return tuple(
        sum(1 << j for j in range(n) if le(labels[i], labels[j])) for i in range(n)
    )


def built_asking_once(labels, le):
    """``Preorder.from_le(labels, le)``, checked against a log of what it asked:
    no ordered pair twice, never the diagonal, every answer the matrix entry,
    at most 2·n·k decisions for k classes."""
    log = []

    def recording(x, y):
        answer = le(x, y)
        log.append((x, y, answer))
        return answer

    pre = Preorder.from_le(labels, recording)
    index = {x: i for i, x in enumerate(labels)}
    assert len(index) == pre.n
    pairs = [(index[x], index[y]) for x, y, _ in log]
    assert len(set(pairs)) == len(pairs)
    assert all(i != j for i, j in pairs)
    assert all(pre.le(i, j) == answer for (i, j), (_, _, answer) in zip(pairs, log))
    classes = poset_reflect(pre)[0].n
    assert len(log) <= 2 * pre.n * classes
    return pre


class TestFromLe:
    def test_dial_preorder_matches_full_scan(self):
        doc = powerset_doctrine()
        objs = bounded_dialobjs(doc, 2)
        assert len(objs) == 31

        def le(u, v):
            return dial_leq(doc, u, v) is not None

        for seed in range(4):
            random.Random(seed).shuffle(objs)
            want = full_scan_rows(objs, le)
            assert dial_preorder(doc, objs).rows == want
            assert built_asking_once(objs, le).rows == want

    def test_bounded_preorder_matches_full_scan(self):
        doc = powerset_doctrine()
        for polarity in (EX, UN):
            comp = Completion(doc, polarity)

            def le(x, y):
                return comp.leq(x, y) is not None

            for a in range(3):
                elems = comp.bounded_fiber(a, 2)
                want = full_scan_rows(elems, le)
                assert comp.bounded_preorder(a, 2).rows == want
                assert built_asking_once(elems, le).rows == want

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 6),
        pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8),
    )
    def test_random_preorders(self, n, pairs):
        pre = Preorder.from_pairs(list(range(n)), [(a % n, b % n) for a, b in pairs])
        assert built_asking_once(pre.labels, pre.le).rows == pre.rows

    def test_empty_and_singleton(self):
        assert built_asking_once([], pytest.fail).rows == ()
        assert built_asking_once(["x"], pytest.fail).rows == (1,)

    def test_wrong_answers_are_not_hidden(self):
        # 0 <= 1 <= 2 but not 0 <= 2: three classes whose order is not
        # transitive
        with pytest.raises(ValueError, match="not transitive"):
            Preorder.from_le([0, 1, 2], lambda a, b: a <= b and (a, b) != (0, 2))
        # a < b ~ c, and the lie c <= a: c is asked against a before it joins
        # b's class, and the asked "yes" must stay in row c
        holds = {("a", "b"), ("b", "c"), ("c", "b"), ("c", "a")}
        with pytest.raises(ValueError, match="not transitive"):
            Preorder.from_le("abc", lambda x, y: x == y or (x, y) in holds)


def reflect_by_scan(pre):
    """Oracle for ``poset_reflect``: each element's class is found by asking
    mutual comparability against every earlier element, and a class is
    represented by its least-index member."""
    n = pre.n
    rep = []
    for i in range(n):
        rep.append(next((rep[j] for j in range(i) if pre.le(i, j) and pre.le(j, i)), i))
    reps = sorted(set(rep))
    pos = {r: k for k, r in enumerate(reps)}
    labels = tuple(pre.labels[r] for r in reps)
    rows = tuple(sum(1 << pos[s] for s in reps if pre.le(r, s)) for r in reps)
    return labels, rows, tuple(pos[rep[i]] for i in range(n))


def assert_reflects_as_scan(pre):
    quotient, table = poset_reflect(pre)
    assert (quotient.labels, quotient.rows, table) == reflect_by_scan(pre)


class TestReflection:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 8),
        pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12),
    )
    def test_random_preorders_match_scan(self, n, pairs):
        pairs = [(a % n, b % n) for a, b in pairs] if n else []
        assert_reflects_as_scan(Preorder.from_pairs(list(range(n)), pairs))

    def test_dial_preorder_matches_scan(self):
        doc = powerset_doctrine()
        objs = bounded_dialobjs(doc, 2)
        for seed in range(4):
            random.Random(seed).shuffle(objs)
            assert_reflects_as_scan(dial_preorder(doc, objs))

    def test_bounded_preorder_matches_scan(self):
        doc = powerset_doctrine()
        for polarity in (EX, UN):
            comp = Completion(doc, polarity)
            for a in range(3):
                assert_reflects_as_scan(comp.bounded_preorder(a, 2))

    @pytest.mark.parametrize("rows", [(0b101, 0b110, 0b110), (0b1101, 0b1110, 0b1110, 0b1110)])
    def test_projection_not_monotone_is_named(self, rows):
        # past validation: 0 <= 2 and 1 ~ 2, but not 0 <= 1, so the quotient
        # {0}, {1, 2, ...} is an antichain that the pair (0, 2) does not respect
        pre = object.__new__(Preorder)
        object.__setattr__(pre, "labels", tuple(range(len(rows))))
        object.__setattr__(pre, "rows", rows)
        with pytest.raises(ValueError, match=r"projection not monotone at \(0,2\)"):
            poset_reflect(pre)

    def test_poset_fixed(self):
        p = chain(3)
        q, cls = poset_reflect(p)
        assert q.n == 3
        assert cls == (0, 1, 2)

    def test_collapse(self):
        pre = Preorder.from_pairs(["x", "y"], [("x", "y"), ("y", "x")])
        q, cls = poset_reflect(pre)
        assert q.n == 1
        assert cls == (0, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 5),
        pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
    )
    def test_idempotent(self, n, pairs):
        pairs = [(a % n, b % n) for a, b in pairs]
        pre = Preorder.from_pairs(list(range(n)), pairs)
        q1, cls = poset_reflect(pre)
        q2, cls2 = poset_reflect(q1)
        assert q2.n == q1.n
        assert cls2 == tuple(range(q1.n))
        # the projection is surjective and monotone
        assert set(cls) == set(range(q1.n))
        assert all(q1.le(cls[i], cls[j]) for i in range(n) for j in range(n) if pre.le(i, j))


class TestLattice:
    def test_boolean(self):
        rep = lattice_check(boolean(2))
        assert rep.ok
        assert rep.top == 3 and rep.bottom == 0
        for (i, j), m in rep.meet.items():
            assert m == (i & j)
        for (i, j), v in rep.join.items():
            assert v == (i | j)

    def test_antichain(self):
        p = Poset.from_le([0, 1], lambda a, b: a == b)
        rep = lattice_check(p)
        assert not rep.has_top and not rep.has_bottom
        assert (0, 1, "meet") in rep.failures and (0, 1, "join") in rep.failures


class TestDot:
    def test_cover_edges_only(self):
        dot = to_dot(chain(3), name="c")
        assert "digraph c" in dot
        assert "v0 -> v1;" in dot and "v1 -> v2;" in dot
        assert "v0 -> v2" not in dot

    def test_preorder_reflected_first(self):
        pre = Preorder.from_pairs([0, 1], [(0, 1), (1, 0)])
        dot = to_dot(pre)
        assert dot.count("label=") == 1


class TestValidation:
    def test_not_transitive(self):
        with pytest.raises(ValueError):
            Preorder((0, 1, 2), (0b011, 0b110, 0b100))

    def test_not_antisymmetric(self):
        with pytest.raises(ValueError):
            Poset((0, 1), (0b11, 0b11))

    @pytest.mark.parametrize("make, labels, rows, message", [
        (Preorder, (0, 1), (0b01,), "size disagrees"),
        (Preorder, (0, 1), (0b101, 0b10), "bits outside the carrier"),
        (Preorder, (0, 1), (0b01, 0b00), "not reflexive at 1"),
        (Preorder, (0, 1, 2), (0b011, 0b110, 0b100), "not transitive at 0"),
        (Poset, (0, 1), (0b11, 0b11), "not antisymmetric: 0 ~ 1"),
    ])
    def test_every_condition_names_itself(self, make, labels, rows, message):
        with pytest.raises(ValueError, match=message):
            make(labels, rows)

    @pytest.mark.parametrize("rows, pair", [
        ((0b1001, 0b0110, 0b0110, 0b1001), "0 ~ 3"),  # a scan over j meets the twins 1 ~ 2 first
        ((0b0111, 0b0111, 0b0111, 0b1000), "0 ~ 1"),
        ((0b0001, 0b1010, 0b0100, 0b1010), "1 ~ 3"),
    ])
    def test_antisymmetry_names_first_pair_in_row_major_order(self, rows, pair):
        with pytest.raises(ValueError, match=f"not antisymmetric: {pair}$"):
            Poset((0, 1, 2, 3), rows)

