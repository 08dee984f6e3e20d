"""Acceptance criteria, one test per criterion, each at its stated bound.

Everything runs over the built-in powerset doctrine; all checks are exact
(discrete data, no tolerances).  Each test prints one PASS line on the
way out; pytest -v additionally shows one line per criterion by name.
"""

import json
from pathlib import Path

from doctrines.completion import EX, Completion
from doctrines.doctrine import PowersetDoctrine, powerset_doctrine
from doctrines.laws import LawContext, run_laws, run_suite, verify_doctrine
from doctrines.report import PASS

CTX = LawContext(max_card=2, qmax=2, seed=2024)
EXPECTED_LAWS = Path(__file__).resolve().parents[1] / "perfbench" / "laws_expected.json"


def _ok(criterion, results, min_checked=0):
    results = results if isinstance(results, list) else [results]
    for r in results:
        assert r.status == PASS, f"criterion {criterion}: {r.law} {r.status} {r.counterexample}"
    total = sum(r.checked for r in results)
    assert total >= min_checked
    print(f"ACCEPTANCE {criterion}: PASS ({total} checks)")


def test_criterion_01_doctrine_laws():
    """Functoriality, the adjoint triple and Beck-Chevalley on projection
    squares, exhaustively at base cards <= 3."""
    rep = verify_doctrine(powerset_doctrine(), max_card=3)
    assert not rep.skipped, rep.skipped
    _ok(1, rep.results, min_checked=1000)


def test_criterion_02_completion_preorder():
    """Reflexivity and transitivity with valid certificates on the full
    bounded fibers over bases of card <= 2."""
    results = []
    pair_count = 0
    for comp in (CTX.comp_ex, CTX.comp_un):
        for a in (0, 1, 2):
            elems = comp.bounded_fiber(a, 2)
            mat = {}
            for x in elems:
                for y in elems:
                    w = comp.leq(x, y)  # re-certified internally on success
                    mat[(x, y)] = w is not None
                    pair_count += 1
                    if w is not None:
                        assert comp.certifies(x, y, w.arrow)
            for x in elems:
                assert mat[(x, x)]
                for y in elems:
                    for z in elems:
                        if mat[(x, y)] and mat[(y, z)]:
                            assert mat[(x, z)]
    assert pair_count >= 300
    from doctrines.report import LawResult

    results.append(LawResult("completion-preorder", PASS, pair_count))
    _ok(2, results, min_checked=300)


def test_criterion_03_projection_adjunctions():
    """exists_pr -| reindex(pr) on EX and reindex(pr) -| forall_pr on UN,
    as full equivalence tables on bounded fibers; the exponential forall
    on EX fibers satisfies the same table."""
    _ok(3, run_laws(CTX, [
        "completion-exists-pr-adjunction",
        "completion-forall-pr-adjunction",
        "completion-forall-pr-exp-adjunction",
    ]), min_checked=10000)


def test_criterion_04_strict_beck_chevalley():
    """Substitution commutes with the projection quantifiers as literal
    triples, for all arrows between objects of card <= 2; likewise for the
    exponential forall."""
    _ok(4, run_laws(CTX, [
        "completion-bc-forall-pr-strict",
        "completion-bc-exists-pr-strict",
        "completion-bc-forall-pr-exp-strict",
    ]), min_checked=1000)


def test_criterion_05_duality():
    """The UN order matrix is the transpose of the EX matrix over the
    reversed base, on every bounded fiber, with equal witnesses."""
    _ok(5, run_laws(CTX, [
        "duality-order-matrix",
        "duality-witnesses",
    ]), min_checked=400)


def test_criterion_06_lattice_structure():
    """Meets, joins, top and bottom of both completions satisfy their
    universal properties exhaustively and are preserved by reindexing."""
    rep = run_suite("lattice", CTX)
    assert not rep.skipped
    _ok(6, rep.results, min_checked=10000)


def test_criterion_07_injection_adjoints():
    """exists_inj -| reindex(j) -| forall_inj on splits with a non-initial
    left summand (the initial-summand corner is a verified defect of the
    construction, pinned in test_completion.py and recorded in the
    decisions ledger), plus the injection-square BC equalities on all
    squares including the degenerate ones."""
    _ok(7, run_laws(CTX, [
        "completion-inj-adjunction-ex",
        "completion-inj-adjunction-un",
        "completion-bc-inj-strict-ex",
        "completion-bc-inj-strict-un",
    ]), min_checked=5000)


def test_criterion_08_monad_identities():
    """Both unit laws of the completion monad up to mutual order, the
    unit/forall commutation, and the prenex identity."""
    _ok(8, run_laws(CTX, [
        "monad-unit-laws-ex",
        "monad-unit-laws-un",
        "monad-unit-forall-commute",
        "monad-prenex",
    ]), min_checked=100)


def test_criterion_09_skolemization():
    """Quantifier exchange reports equal for every predicate on the two
    smallest shapes (full sweeps of 2^4 and 2^8) and on a fixed-seed
    sample above them."""
    _ok(9, run_laws(CTX, [
        "skolem-full-sweep",
        "skolem-sampled",
    ]), min_checked=16 + 256 + 40)


def test_criterion_10_choice_principles():
    """Choice witnesses and counterexamples are sound and complete against
    exhaustive semantic checks for all predicates on bases of card <= 2."""
    # 31 predicates exist over all (a, b) with a, b <= 2
    _ok(10, run_laws(CTX, [
        "rule-of-choice",
        "counterexample-property",
    ]), min_checked=2 * 31)


def test_criterion_11_dialectica_oracle():
    """The nested-completion order and the direct (f, F) condition agree
    on every bounded pair, and the reflected bounded dialectica preorder
    is a lattice."""
    _ok(11, run_laws(CTX, [
        "dialectica-order-equivalence",
        "dialectica-lattice",
    ]), min_checked=31 * 31)


def test_criterion_12_negative_controls():
    """Each sabotaged fixture produces a FAIL with a replayable
    counterexample: the suites are able to fail."""

    class BrokenReindexTab(PowersetDoctrine):
        def reindex(self, f, p):
            good = PowersetDoctrine.reindex(self, f, p)
            if f.dom == 2 and f.cod == 2 and f.table == (0, 1) and p == 0b01:
                return 0b10
            return good

    rep1 = verify_doctrine(BrokenReindexTab(), max_card=2)
    assert not rep1.ok
    cex1 = rep1.failed[0].counterexample
    assert cex1 is not None and "f" in cex1 or "object" in cex1

    class Swapped(PowersetDoctrine):
        def exists_along(self, f, p):
            return PowersetDoctrine.forall_along(self, f, p)

        def forall_along(self, f, p):
            return PowersetDoctrine.exists_along(self, f, p)

    rep2 = run_suite("adjunctions", LawContext(doctrine=Swapped(), max_card=1, qmax=1))
    assert not rep2.ok
    cex2 = rep2.failed[0].counterexample
    assert cex2 is not None

    class BrokenMult(Completion):
        def mult(self, z):
            good = Completion.mult(self, z)
            return self.elem(good.base, good.qobj, 0)

    rep3 = run_suite(
        "monad",
        LawContext(max_card=1, qmax=1, comp_ex=BrokenMult(powerset_doctrine(), EX)),
    )
    assert not rep3.ok
    cex3 = next(r for r in rep3.failed if r.law == "monad-unit-laws-ex").counterexample
    assert cex3 is not None and "x" in cex3
    # counterexamples replay: they serialize
    for cex in (cex1, cex2, cex3):
        json.dumps(cex)
    print("ACCEPTANCE 12: PASS (3 sabotages caught with replayable counterexamples)")


def test_runtime_budget_sanity():
    """The whole acceptance battery re-run through the aggregate suite
    stays inside the runtime budget by a wide margin, and checks every law
    exactly as many times as the benchmark's reference counts say."""
    import time

    start = time.perf_counter()
    rep = run_suite("all", LawContext(max_card=2, qmax=2))
    elapsed = time.perf_counter() - start
    assert rep.ok
    assert elapsed < 240, f"aggregate suite took {elapsed:.0f}s"
    expected = json.loads(EXPECTED_LAWS.read_text())
    assert {r.law: r.checked for r in rep.results} == expected
