"""Law suites: green on the honest build, red on each sabotaged fixture,
deterministic reports."""

from collections import Counter

import pytest

from doctrines.completion import EX, UN, Completion
from doctrines.doctrine import PowersetDoctrine, op_doctrine, powerset_doctrine
from doctrines.errors import SearchBudgetExceeded
from doctrines.fincat import SkelFinSet
from doctrines.laws import SUITES, LawContext, _once, _Order, run_laws, run_suite, verify_doctrine
from doctrines.report import FAIL, PASS, SKIPPED


def small_ctx(**kw):
    kw.setdefault("max_card", 1)
    kw.setdefault("qmax", 1)
    return LawContext(**kw)


class TestSuitesPass:
    @pytest.mark.parametrize("suite", SUITES)
    def test_suite_green_small(self, suite):
        rep = run_suite(suite, small_ctx())
        assert rep.ok, [r for r in rep.results if r.status == FAIL]

    def test_all_collects_everything(self):
        rep = run_suite("all", small_ctx())
        assert len(rep.results) > 30
        assert rep.ok

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_every_law_passes_over_the_reversed_powerset(self):
        # the choice oracles read provability in the doctrine's own order:
        # over op(P) a point of alpha is provable when its bit is clear
        rep = run_suite("all", LawContext(doctrine=op_doctrine(powerset_doctrine()), max_card=2, qmax=1))
        assert [r.law for r in rep.results if r.status != PASS] == []
        assert len(rep.results) == 48
        laws = {r.law: r.checked for r in rep.results}
        assert laws["rule-of-choice"] == laws["counterexample-property"] == 31


class Swapped(PowersetDoctrine):
    """The powerset doctrine with its two adjoints along arrows exchanged,
    and so also those along projections and injections."""

    def exists_along(self, f, p):
        return PowersetDoctrine.forall_along(self, f, p)

    def forall_along(self, f, p):
        return PowersetDoctrine.exists_along(self, f, p)


class TestNegativeControls:
    def test_swapped_adjoints_fail_adjunction_suite(self):
        rep = run_suite("adjunctions", small_ctx(doctrine=Swapped()))
        assert not rep.ok
        fail = rep.failed[0]
        assert fail.counterexample is not None
        # the counterexample replays: it names an arrow and two predicates
        assert {"f", "u", "v"} <= set(fail.counterexample)

    def test_sabotaged_mult_fails_monad_suite(self):
        class BrokenMult(Completion):
            def mult(self, z):
                good = Completion.mult(self, z)
                # collapse to the empty predicate: wrong unless already empty
                return self.elem(good.base, good.qobj, 0)

        P = powerset_doctrine()
        ctx = small_ctx(comp_ex=BrokenMult(P, EX))
        rep = run_suite("monad", ctx)
        assert not rep.ok
        fail = next(r for r in rep.failed if r.law == "monad-unit-laws-ex")
        assert fail.counterexample is not None and "x" in fail.counterexample

    def test_broken_reindex_fails_functoriality(self):
        class BrokenReindex(PowersetDoctrine):
            def reindex(self, f, p):
                good = PowersetDoctrine.reindex(self, f, p)
                if f.dom == 1 and f.cod == 1 and p:
                    return 0
                return good

        rep = run_suite("functoriality", small_ctx(doctrine=BrokenReindex()))
        assert not rep.ok
        laws = {r.law for r in rep.failed}
        assert "reindex-identity" in laws or "reindex-composition" in laws


class TestDeterminism:
    def test_reports_identical_modulo_timing(self):
        a = run_suite("duality", small_ctx(seed=5))
        b = run_suite("duality", small_ctx(seed=5))
        assert a.to_dict(with_timing=False) == b.to_dict(with_timing=False)

    def test_seed_recorded(self):
        rep = run_suite("skolem", small_ctx(seed=99))
        assert rep.seed == 99

    def test_context_arguments_beside_a_context_are_refused(self):
        # they used to be dropped: the suite ran at the context's bounds
        with pytest.raises(TypeError, match="both a context and qmax, seed"):
            run_suite("skolem", small_ctx(), seed=5, qmax=3)
        assert run_suite("skolem", max_card=1, qmax=1, seed=5).bounds == {"max_card": 1, "qmax": 1}


class TestOutcomePolicy:
    def test_budget_cut_is_skipped_not_passed(self):
        # Hom(2,2) has 4 arrows, one more than the budget allows
        for rep in (
            verify_doctrine(powerset_doctrine(), max_card=2, budget=3),
            run_suite("functoriality", max_card=2, qmax=1, budget=3),
        ):
            laws = {r.law: r for r in rep.results}
            for law in ("reindex-composition", "reindex-monotone"):
                assert laws[law].status == SKIPPED
                assert laws[law].detail == "search space of 4 candidate arrows exceeds budget 3 (Hom(2,2))"

    def test_oversized_order_memo_is_skipped_before_any_decision(self, monkeypatch):
        # every fiber at qmax=2 has at least 3 elements, so 9 memo entries
        calls = Counter()
        leq = Completion.leq

        def counted(self, x, y):
            calls[x, y] += 1
            return leq(self, x, y)

        monkeypatch.setattr(Completion, "leq", counted)
        monkeypatch.setattr("doctrines.laws.ORDER_MATRIX_CAP", 8)
        rep = run_suite("adjunctions", LawContext(max_card=2, qmax=2))
        laws = {r.law: r for r in rep.results}
        assert rep.ok and not calls
        for law in ("completion-exists-pr-adjunction", "completion-forall-pr-adjunction",
                    "completion-forall-pr-exp-adjunction", "completion-inj-adjunction-ex"):
            assert (laws[law].status, laws[law].checked) == (SKIPPED, 0)
        assert laws["completion-exists-pr-adjunction"].detail == (
            "search space of 9 order-memo entries exceeds budget 8 (order memo of the fiber over 0, 3 elements)")
        assert laws["adjunction-exists-along"].status == PASS

    def test_failed_recertification_is_a_fail(self):
        class LyingKernel(PowersetDoctrine):
            def ex_witness(self, a, b, c, alpha, beta):
                # claim the constant-0 map whenever there is no witness
                found = super().ex_witness(a, b, c, alpha, beta)
                if found is None and c:
                    return (0,) * (a * b)
                return found

        rep = run_suite("functoriality", small_ctx(doctrine=LyingKernel()))
        fail = next(r for r in rep.failed if r.law == "completion-leq-transitive-ex")
        assert fail.checked == 0
        assert "does not certify" in fail.counterexample["witness-validation"]


class CountingCompletion(Completion):
    """Counts the order decisions asked of it, pair by pair."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = Counter()

    def leq(self, x, y):
        self.calls[x, y] += 1
        return super().leq(x, y)


def counting_ctx(**kw):
    P = powerset_doctrine()
    return LawContext(P, comp_ex=CountingCompletion(P, EX), comp_un=CountingCompletion(P, UN), **kw)


@pytest.fixture(scope="module")
def full_run():
    """run_suite("all") at max_card=2, qmax=2 on counting completions, with
    every Completion.leq call of the run counted as well."""
    ctx = counting_ctx(max_card=2, qmax=2)
    total = [0]
    leq = Completion.leq

    def counted(self, x, y):
        total[0] += 1
        return leq(self, x, y)

    Completion.leq = counted
    try:
        rep = run_suite("all", ctx)
    finally:
        Completion.leq = leq
    return ctx, rep, total[0]


class TestFiberOrder:
    # every fiber a law materializes at max_card=2 lies over 0..4
    # (products and coproducts of objects up to 2)
    FIBER_BASES = range(5)
    # the laws that decide through the context's order memo; the others
    # need the witness arrow and call leq directly
    ROUTED = (
        "completion-leq-reflexive-ex", "completion-leq-reflexive-un",
        "completion-leq-transitive-ex", "completion-leq-transitive-un",
        "completion-exists-pr-adjunction", "completion-forall-pr-adjunction",
        "completion-forall-pr-exp-adjunction",
        "completion-inj-adjunction-ex", "completion-inj-adjunction-un",
        "completion-bounds-ex", "completion-bounds-un",
        "completion-meet-universal-ex", "completion-meet-universal-un",
        "completion-join-universal-ex", "completion-join-universal-un",
        "completion-reindex-lattice-ex", "completion-reindex-lattice-un",
        "duality-order-matrix",
        "monad-unit-laws-ex", "monad-unit-laws-un", "monad-prenex", "monad-unit-forall-commute",
        "dialectica-order-equivalence", "dialectica-lattice", "composite-structure",
    )

    def test_decision_count_guard(self, full_run):
        # measured with the order memo and one nested completion for all the
        # dialectica laws; with a nested completion per law the run made
        # 68,184 calls, with the memo over materialized fibers only 104,457,
        # and without any sharing 231,396, so a law that bypasses the memo
        # shows up here
        _, rep, total = full_run
        assert rep.ok
        assert sum(r.checked for r in rep.results) == 107_278
        assert total <= 67_933

    def test_le_agrees_with_leq_on_every_fiber(self, full_run):
        ctx = full_run[0]
        for polarity in (EX, UN):
            fresh = Completion(ctx.doctrine, polarity)
            for a in self.FIBER_BASES:
                elems = ctx.fiber(polarity, a)
                assert elems == fresh.bounded_fiber(a, ctx.qmax)
                order = ctx.order(polarity, a)
                assert [order.items[k] for k in order.slots] == elems
                for x in elems:
                    for y in elems:
                        assert ctx.le(x, y) == (fresh.leq(x, y) is not None), (x, y)
                # every other pair a law asked, meets and quantifier images
                # included, holds the answer leq gives
                inside = set(order.slots)
                for i, x in enumerate(order.items):
                    for j in range(len(order.items)):
                        if (i not in inside or j not in inside) and int.from_bytes(order.rows[i], "little") >> 2 * j & 3:
                            assert order.le(i, j) == (fresh.leq(x, order.items[j]) is not None)

    def test_routed_pairs_decided_at_most_once(self, monkeypatch):
        calls = Counter()
        leq = Completion.leq

        def counted(self, x, y):
            calls[self, x, y] += 1
            return leq(self, x, y)

        monkeypatch.setattr(Completion, "leq", counted)
        ctx = LawContext(max_card=2, qmax=1)
        assert all(r.status == PASS for r in run_laws(ctx, self.ROUTED))
        memos = {comp for comp, _ in ctx._orders}
        # the context's four completions: comp_ex, comp_un, dual and nested
        assert memos == {ctx.comp_ex, ctx.comp_un, ctx.dual, ctx.nested}
        asked = {key: n for key, n in calls.items() if key[0] in memos}
        assert asked and max(asked.values()) == 1
        # among them meets whose quantified object is above qmax
        assert any(x.qobj > ctx.qmax or y.qobj > ctx.qmax for _, x, y in asked)

    def test_pairs_outside_built_fibers_decided_once(self):
        ctx = counting_ctx(max_card=2, qmax=1)
        P = ctx.doctrine
        comp = ctx.comp_ex
        fresh = Completion(P, EX)
        inside = ctx.fiber(EX, 1)
        unbuilt = fresh.bounded_fiber(2, 1)  # no law asked for this fiber
        beyond = comp.elem(1, 2, 0b10)  # quantified object above qmax
        for x, y in ((unbuilt[1], unbuilt[2]), (inside[1], beyond), (beyond, inside[2])):
            for _ in range(3):
                assert ctx.le(x, y) == (fresh.leq(x, y) is not None)
            assert comp.calls[x, y] == 1
        # a completion other than the context's own: a dual and a nested one
        dual = CountingCompletion(op_doctrine(P), EX)
        nested = CountingCompletion(Completion(P, UN), EX)
        fibers = {
            dual: dual.bounded_fiber(1, 1),
            nested: nested.bounded_fiber(1, 1, preds=lambda ob: nested.base.bounded_fiber(ob, 1))[:4],
        }
        for other, elems in fibers.items():
            oracle = Completion(other.base, other.polarity)
            for x in elems:
                for y in elems:
                    for _ in range(2):
                        assert ctx.le(x, y, other) == (oracle.leq(x, y) is not None)
                        assert ctx.eq(x, y, other) == oracle.fiber_eq(1, x, y)
            assert len(other.calls) == len(elems) ** 2 and max(other.calls.values()) == 1

    def test_fiber_built_after_questions_keeps_their_answers(self):
        ctx = counting_ctx(max_card=1, qmax=1)
        comp = ctx.comp_ex
        x, y = Completion(ctx.doctrine, EX).bounded_fiber(1, 1)[1:3]
        beyond = comp.elem(1, 2, 0b10)
        answers = [ctx.le(x, y), ctx.le(beyond, x)]
        order = ctx.order(EX, 1)
        elems = order.fiber
        assert [order.items[k] for k in order.slots] == elems == comp.bounded_fiber(1, 1)
        assert [order.le(order.slot(x), order.slot(y)), order.le(order.slot(beyond), order.slot(x))] == answers
        assert comp.calls[x, y] == comp.calls[beyond, x] == 1
        assert ctx.fiber(EX, 1) is elems and ctx.order(EX, 1) is order

    def test_repeated_runs_add_no_memo(self):
        ctx = small_ctx()

        def footprint():
            return {key: len(order.items) for key, order in ctx._orders.items()}

        run_suite("all", ctx)
        first = footprint()
        maps = len(ctx.doctrine.cat._memo)
        for _ in range(2):
            run_suite("all", ctx)
            assert footprint() == first
            assert len(ctx.doctrine.cat._memo) == maps

    def test_raising_decision_leaves_no_entry(self):
        class Refusing(CountingCompletion):
            refuse = True

            def leq(self, x, y):
                if self.refuse:
                    self.calls[x, y] += 1
                    raise SearchBudgetExceeded(5, 4, "test")
                return super().leq(x, y)

        P = powerset_doctrine()
        ctx = LawContext(P, max_card=1, qmax=1, comp_ex=Refusing(P, EX))
        comp = ctx.comp_ex
        x, y = ctx.fiber(EX, 1)[:2]
        for n in (1, 2):
            with pytest.raises(SearchBudgetExceeded):
                ctx.le(x, y)
            assert comp.calls[x, y] == n
        comp.refuse = False
        assert ctx.le(x, y) == ctx.le(x, y) == (Completion(P, EX).leq(x, y) is not None)
        assert comp.calls[x, y] == 3

    def test_contexts_share_nothing(self):
        P = powerset_doctrine()
        comp = CountingCompletion(P, EX)
        one = LawContext(P, max_card=1, qmax=1, comp_ex=comp)
        two = LawContext(P, max_card=1, qmax=1, comp_ex=comp)
        assert one.fiber(EX, 1) == two.fiber(EX, 1)
        assert one.fiber(EX, 1) is not two.fiber(EX, 1)
        x, y = one.fiber(EX, 1)[:2]
        beyond = comp.elem(1, 2, 0b10)
        for a, b in ((x, y), (x, beyond)):
            one.le(a, b)
            one.le(a, b)
            two.le(a, b)
            assert comp.calls[a, b] == 2

    def test_swapped_completion_decides_each_pair_once(self):
        # the memo is keyed on the completion object: a swapped-in
        # completion decides each pair itself, once, and never reads the
        # answers of the one it replaced
        class Denying(CountingCompletion):
            def leq(self, x, y):
                super().leq(x, y)
                return None

        P = powerset_doctrine()
        ctx = LawContext(P, max_card=1, qmax=1, comp_ex=Denying(P, EX))
        x = ctx.fiber(EX, 1)[1]
        assert not ctx.le(x, x)
        old = ctx.comp_ex
        ctx.comp_ex = CountingCompletion(P, EX)
        assert ctx.le(x, x) and ctx.le(x, x) and ctx.eq(x, x)
        order = ctx.order(EX, 1)
        k = order.slot(x)
        assert order.comp is ctx.comp_ex and order.le(k, k)
        assert ctx.comp_ex.calls[x, x] == 1
        assert old.calls[x, x] == 1


class StubbornNo(PowersetDoctrine):
    """The powerset doctrine whose EX kernel says "no" on one fixed input,
    every time it is asked."""

    def ex_witness(self, a, b, c, alpha, beta):
        if (a, b, c, alpha, beta) == (1, 1, 1, 1, 1):
            return None
        return super().ex_witness(a, b, c, alpha, beta)


class TestMemoOracle:
    @pytest.mark.parametrize("doctrine", [PowersetDoctrine, StubbornNo])
    def test_memo_changes_no_outcome(self, doctrine, monkeypatch):
        # the same whole report as deciding every pair afresh
        def report():
            return run_suite("all", small_ctx(doctrine=doctrine())).to_dict(with_timing=False)

        memoized = report()
        monkeypatch.setattr(_Order, "le", lambda self, i, j: self.comp.leq(self.items[i], self.items[j]) is not None)
        assert report() == memoized
        failed = [r["law"] for r in memoized["results"] if r["status"] == FAIL]
        assert (doctrine is StubbornNo) == bool(failed)

    @pytest.mark.parametrize("doctrine", [PowersetDoctrine, StubbornNo])
    def test_category_memo_changes_no_outcome(self, doctrine, monkeypatch):
        # the same whole report with every structure map and every
        # arrow-keyed map of the category built afresh on each request
        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        def report():
            ctx = small_ctx(doctrine=doctrine())
            return ctx.doctrine.cat._memo, run_suite("all", ctx).to_dict(with_timing=False)

        kept, memoized = report()
        monkeypatch.setattr(SkelFinSet, "__init__", lambda self: setattr(self, "_memo", Forgetful()))
        forgot, fresh = report()
        assert kept and forgot == {}
        assert fresh == memoized

    def test_law_table_builds_once_and_keeps_no_failure(self):
        calls = []

        def build(x):
            calls.append(x)
            if x < 0:
                raise ValueError(x)
            return [x]

        once = _once(build)
        assert once(1) is once(1) == [1]
        for _ in range(2):
            with pytest.raises(ValueError):
                once(-1)
        assert calls == [1, -1, -1]

    @pytest.mark.parametrize("doctrine", [PowersetDoctrine, StubbornNo])
    def test_law_tables_change_no_outcome(self, doctrine, monkeypatch):
        # the same whole report with every construction of a law body built
        # afresh on each call
        def report():
            return run_suite("all", small_ctx(doctrine=doctrine())).to_dict(with_timing=False)

        once = report()
        monkeypatch.setattr("doctrines.laws._once", lambda build: build)
        assert report() == once


class WrongMeet(PowersetDoctrine):
    """The powerset doctrine with one wrong meet, over 2."""

    def meet(self, a, p, q):
        good = PowersetDoctrine.meet(self, a, p, q)
        return good ^ 1 if (a, p, q) == (2, 3, 2) else good


class WrongExistsInj(PowersetDoctrine):
    """The powerset doctrine with one wrong left adjoint along inj1: 2 -> 2 + 1."""

    def exists_inj(self, split, p):
        good = PowersetDoctrine.exists_inj(self, split, p)
        return good ^ 1 if (tuple(split), p) == ((2, 1), 2) else good


class WrongForallInj(PowersetDoctrine):
    """The powerset doctrine with one wrong right adjoint along inj1: 2 -> 2 + 2."""

    def forall_inj(self, split, p):
        good = PowersetDoctrine.forall_inj(self, split, p)
        return good ^ 1 if (tuple(split), p) == ((2, 2), 1) else good


def ex(base, qobj, pred):
    return {"polarity": EX, "base": base, "qobj": qobj, "pred": pred}


def un(base, qobj, pred):
    return {"polarity": UN, "base": base, "qobj": qobj, "pred": pred}


def dial(src, tgt, pred):
    return {"src": src, "tgt": tgt, "pred": pred}


# law -> (checked, counterexample) of every failing law, per sabotage
FAILURES = {
    WrongMeet: {
        "completion-meet-universal-ex": (224, {"kind": "bound", "x": ex(2, 1, [0, 1]), "y": ex(2, 1, [1])}),
        "completion-meet-universal-un": (84, {"kind": "bound", "x": un(2, 0, []), "y": un(2, 1, [1])}),
        "completion-reindex-lattice-ex": (152, {"f": [0], "op": "meet", "x": ex(2, 1, [0, 1]), "y": ex(2, 1, [1])}),
        "completion-reindex-lattice-un": (112, {"f": [0], "op": "meet", "x": un(2, 0, []), "y": un(2, 1, [1])}),
        "composite-structure": (721, {"op": "meet", "a": 2}),
        "dialectica-lattice": (1068, {"op": "meet", "u": dial(1, 0, []), "v": dial(1, 2, [1])}),
        "lat-fibers": (41, {"object": 2, "p": 3, "q": 2, "op": "meet"}),
        "reindex-preserves-lattice": (44, {"f": [0], "op": "meet", "p": 3, "q": 2}),
    },
    WrongExistsInj: {
        "beck-chevalley-injections": (
            120, {"side": "exists", "f": [0], "h": [], "a": 2, "b": 1, "c": 1, "d": 0, "pred": 2}),
        "completion-bc-inj-strict-ex": (
            175, {"side": "exists", "f": [0], "h": [], "a": 2, "b": 1, "c": 1, "d": 0, "x": ex(2, 1, [1])}),
        "completion-bc-inj-strict-un": (
            175, {"side": "exists", "f": [0], "h": [], "a": 2, "b": 1, "c": 1, "d": 0, "x": un(2, 1, [1])}),
        "completion-inj-adjunction-ex": (107, {"side": "exists", "a": 2, "b": 1, "x": ex(2, 1, [1]),
                                               "y": ex(3, 1, [1]), "lhs": False, "rhs": True}),
        "completion-inj-adjunction-un": (107, {"side": "exists", "a": 2, "b": 1, "x": un(2, 1, [1]),
                                               "y": un(3, 1, [1]), "lhs": False, "rhs": True}),
        "composite-structure": (360, {"op": "exists_inj", "a": 2, "b": 1}),
    },
    WrongForallInj: {
        "beck-chevalley-injections": (
            179, {"side": "forall", "f": [0, 1], "h": [0, 0], "a": 2, "b": 1, "c": 2, "d": 2, "pred": 1}),
        "completion-bc-inj-strict-ex": (
            249, {"side": "forall", "f": [0, 1], "h": [0, 0], "a": 2, "b": 1, "c": 2, "d": 2, "x": ex(2, 1, [0])}),
        "completion-bc-inj-strict-un": (
            249, {"side": "forall", "f": [0, 1], "h": [0, 0], "a": 2, "b": 1, "c": 2, "d": 2, "x": un(2, 1, [0])}),
        "completion-inj-adjunction-ex": (158, {"side": "forall", "a": 2, "b": 2, "x": ex(2, 1, [0]),
                                               "y": ex(4, 1, [0]), "lhs": True, "rhs": False}),
        "completion-inj-adjunction-un": (158, {"side": "forall", "a": 2, "b": 2, "x": un(2, 1, [0]),
                                               "y": un(4, 1, [0]), "lhs": True, "rhs": False}),
        "completion-meet-universal-un": (150, {"kind": "universal", "x": un(2, 1, [0]), "y": un(2, 1, [0]),
                                               "z": un(2, 1, [0]), "lhs": False, "rhs": True}),
        "completion-reindex-lattice-un": (130, {"f": [0], "op": "meet", "x": un(2, 1, [0]), "y": un(2, 1, [0])}),
        "composite-structure": (875, {"op": "meet", "a": 2}),
        "dialectica-lattice": (1194, {"op": "meet", "u": dial(1, 1, [0]), "v": dial(2, 1, [0])}),
    },
    Swapped: {
        "adjunction-exists-along": (2, {"f": [], "dom": 0, "cod": 1, "u": 0, "v": 0, "lhs": False, "rhs": True}),
        "adjunction-forall-along": (3, {"f": [], "dom": 0, "cod": 1, "u": 0, "v": 1, "lhs": True, "rhs": False}),
        "completion-forall-pr-exp-adjunction": (
            15, {"a1": 1, "a2": 0, "x": ex(0, 0, []), "y": ex(1, 1, [0]), "lhs": True, "rhs": False}),
        "completion-inj-adjunction-ex": (16, {"side": "exists", "a": 1, "b": 1, "x": ex(1, 1, []),
                                              "y": ex(2, 1, []), "lhs": False, "rhs": True}),
        "completion-inj-adjunction-un": (16, {"side": "exists", "a": 1, "b": 1, "x": un(1, 1, []),
                                              "y": un(2, 1, []), "lhs": False, "rhs": True}),
        "completion-join-universal-ex": (25, {"kind": "universal", "x": ex(1, 0, []), "y": ex(1, 1, []),
                                              "z": ex(1, 1, []), "lhs": False, "rhs": True}),
        "completion-meet-universal-un": (31, {"kind": "universal", "x": un(1, 0, []), "y": un(1, 1, [0]),
                                              "z": un(1, 1, [0]), "lhs": False, "rhs": True}),
        "composite-structure": (218, {"op": "exists_inj", "a": 1, "b": 1}),
        "dialectica-lattice": (1062, {"op": "meet", "u": dial(1, 0, []), "v": dial(1, 1, [0])}),
    },
}


def first_failures(doctrine):
    """law -> (checked, counterexample) of every law the sabotage fails;
    no law may be skipped."""
    failed = {}
    for suite in ("adjunctions", "beck-chevalley", "lattice", "skolem", "dialectica-oracle"):
        for r in run_suite(suite, LawContext(doctrine(), max_card=2, qmax=1, seed=7)).results:
            assert r.status != SKIPPED, r
            if r.status == FAIL:
                failed[r.law] = (r.checked, r.counterexample)
    return failed


class TestFailurePaths:
    @pytest.mark.parametrize("doctrine", list(FAILURES), ids=lambda d: d.__name__)
    def test_first_failure_pinned(self, doctrine):
        # each sabotage fails exactly these laws, each at the same check
        # with the same first counterexample, and skips nothing
        assert first_failures(doctrine) == FAILURES[doctrine]

    @pytest.mark.parametrize("doctrine", list(FAILURES), ids=lambda d: d.__name__)
    def test_first_failure_pinned_without_law_tables(self, doctrine, monkeypatch):
        # the same failures with every construction of a law body built
        # afresh on each call
        monkeypatch.setattr("doctrines.laws._once", lambda build: build)
        assert first_failures(doctrine) == FAILURES[doctrine]
