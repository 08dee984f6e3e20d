"""Law suites: green on the honest build, red on each sabotaged fixture,
deterministic reports."""

import pytest

from doctrines.completion import EX, Completion
from doctrines.doctrine import PowersetDoctrine, powerset_doctrine
from doctrines.laws import SUITES, LawContext, run_suite, verify_doctrine
from doctrines.report import FAIL, SKIPPED


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


class TestNegativeControls:
    def test_swapped_adjoints_fail_adjunction_suite(self):
        class Swapped(PowersetDoctrine):
            def exists_along(self, f, p):
                return PowersetDoctrine.forall_along(self, f, p)

            def forall_along(self, f, p):
                return PowersetDoctrine.exists_along(self, f, p)

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
        assert a.to_json(with_timing=False) == b.to_json(with_timing=False)

    def test_seed_recorded(self):
        rep = run_suite("skolem", small_ctx(seed=99))
        assert rep.seed == 99


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

    def test_failed_recertification_is_a_fail(self):
        class LyingKernel(PowersetDoctrine):
            def ex_witness(self, a, b, c, alpha, beta):
                # claim the constant-0 map whenever there is no witness
                found = super().ex_witness(a, b, c, alpha, beta)
                if found is None and self.carrier(c):
                    return (0,) * (self.carrier(a) * self.carrier(b))
                return found

        rep = run_suite("functoriality", small_ctx(doctrine=LyingKernel()))
        fail = next(r for r in rep.failed if r.law == "completion-leq-transitive-ex")
        assert fail.checked == 0
        assert "does not certify" in fail.counterexample["witness-validation"]
