"""The three workloads: how each builds its inputs, runs one pass, and is
checked against the references.

Every workload has the same shape:

* ``context(raw)`` builds the library objects a pass needs: a fresh
  doctrine and whatever it is asked about;
* ``run(ctx)`` is one timed pass, from the first call to the final verdict;
* ``check(ctx, out)`` compares the outputs with the references and returns
  (attempted, failed), outside the timed window;
* ``operations(ctx)`` is what a pass attempts, all of it failed when the
  pass raises.

``make_doctrine`` gives the shipped powerset doctrine, or for the negative
control one that answers a single decision wrongly.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import calibrate
import reference as ref
from doctrines import (
    EX,
    UN,
    Completion,
    DoctrineError,
    LawContext,
    PowersetDoctrine,
    lattice_check,
    poset_reflect,
    run_suite,
)
from doctrines.dialectica import (
    DialObj,
    bounded_dialobjs,
    dial_certifies,
    dial_leq,
    dial_order_agrees,
    dial_preorder,
)
from doctrines.report import PASS

EXPECTED_LAWS = Path(__file__).with_name("laws_expected.json")
DIAL_BOUND = 3
DIAL_OBJECTS = 689
DIAL_CLASSES = 4
AGREE_SAMPLE = 1000


class Sabotaged(PowersetDoctrine):
    """The powerset doctrine with one decision answered wrongly.

    ``flip`` turns the first positive kernel answer into "no".
    ``nonleast`` replaces the first certificate that has a valid successor
    in table order, among hom-sets small enough for the reference to scan,
    by that successor: still a certificate, but not the least one.
    """

    def __init__(self, mode):
        super().__init__()
        self.mode = mode
        self.spent = False

    def _tamper(self, answer, small, successor):
        if self.spent or answer is None or (self.mode == "nonleast" and not small):
            return answer
        wrong = None if self.mode == "flip" else successor(answer)
        if self.mode == "flip" or wrong is not None:
            self.spent = True
            return wrong
        return answer

    def ex_witness(self, a, b, c, alpha, beta):
        def admissible(i):
            row = beta >> ((i // b) * c)
            return [v for v in range(c) if row >> v & 1] if alpha >> i & 1 else range(c)

        answer = super().ex_witness(a, b, c, alpha, beta)
        return self._tamper(answer, c ** (a * b) <= ref.SCAN_CAP,
                            lambda t: _successor(t, admissible))

    def un_witness(self, a, b, c, alpha, beta):
        def admissible(i):
            row = alpha >> ((i // c) * b)
            return range(b) if beta >> i & 1 else [v for v in range(b) if not row >> v & 1]

        answer = super().un_witness(a, b, c, alpha, beta)
        return self._tamper(answer, b ** (a * c) <= ref.SCAN_CAP,
                            lambda t: _successor(t, admissible))

    def dial_witness(self, b, c, b2, c2, alpha, beta):
        def successor(pair):
            f, big_f = pair

            def admissible(i):
                bb, cc2 = divmod(i, c2)
                if beta >> (f[bb] * c2 + cc2) & 1:
                    return range(c)
                return [v for v in range(c) if not alpha >> (bb * c + v) & 1]

            later = _successor(big_f, admissible)
            return None if later is None else (f, later)

        answer = super().dial_witness(b, c, b2, c2, alpha, beta)
        return self._tamper(answer, b2**b * c ** (b * c2) <= ref.SCAN_CAP, successor)


def _successor(table, admissible):
    """The next valid table after `table`, changing the last position that can grow."""
    for i in reversed(range(len(table))):
        for v in admissible(i):
            if v > table[i]:
                return tuple(table[:i]) + (v,) + tuple(table[i + 1:])
    return None


def make_doctrine(negative_control):
    return Sabotaged(negative_control) if negative_control else PowersetDoctrine()


# ---------------------------------------------------------------------------


class LawsAll:
    """run_suite("all", max_card=2, qmax=2) with the seed as LawContext.seed."""

    def __init__(self, seed, negative_control):
        self.seed = seed
        self.negative_control = negative_control
        self.expected = json.loads(EXPECTED_LAWS.read_text())

    def context(self, raw):
        doc = make_doctrine(self.negative_control)
        return LawContext(doctrine=doc, max_card=2, qmax=2, seed=self.seed)

    def run(self, ctx):
        return run_suite("all", ctx)

    def check(self, ctx, report):
        """Every expected law is PASS with its expected number of checks."""
        got = {r.law: r for r in report.results}
        failed = sum(
            1
            for law, checked in self.expected.items()
            if law not in got or got[law].status != PASS or got[law].checked != checked
        )
        failed += len(set(got) - set(self.expected))
        return len(set(got) | set(self.expected)), failed

    def operations(self, ctx):
        return len(self.expected)


class OrderStream:
    """Single decisions in a closed loop with one client; inputs from ``inputs``.

    ``context`` makes only library calls: the inputs arrive as bitmasks.
    """

    def __init__(self, seed, negative_control):
        self.seed = seed
        self.negative_control = negative_control

    def context(self, raw):
        doc = make_doctrine(self.negative_control)
        comps = {EX: Completion(doc, EX), UN: Completion(doc, UN)}
        calls = []
        for inst in raw:
            if inst[0] == "DIAL":
                _, nb, nc, nb2, nc2, alpha, beta = inst
                calls.append((None, DialObj(nb, nc, alpha), DialObj(nb2, nc2, beta)))
            else:
                pol, na, nb, nc, alpha, beta = inst
                comp = comps[pol]
                calls.append((comp, comp.elem(na, nb, alpha), comp.elem(na, nc, beta)))
        return {"doc": doc, "comps": comps, "raw": raw, "calls": calls}

    def run(self, ctx):
        """Answers and wall times of the decisions; a calibration that the
        worker's ticker runs inside a decision is left out of its time."""
        now = time.perf_counter
        doc = ctx["doc"]
        answers, seconds = [], []
        for comp, x, y in ctx["calls"]:  # comp is None for a dialectica decision
            paused = calibrate.paused_s
            t = now()
            try:
                answer = dial_leq(doc, x, y) if comp is None else comp.leq(x, y)
            except DoctrineError as exc:
                answer = exc
            seconds.append(now() - t - (calibrate.paused_s - paused))
            answers.append(answer)
        return answers, seconds

    def check(self, ctx, out):
        answers, _ = out
        failed = 0
        for inst, (_, x, y), answer in zip(ctx["raw"], ctx["calls"], answers):
            failed += not self._correct(ctx, inst, x, y, answer)
        return len(answers), failed

    def _correct(self, ctx, inst, x, y, answer):
        if isinstance(answer, DoctrineError):
            return False
        if inst[0] == "DIAL":
            _, nb, nc, nb2, nc2, alpha, beta = inst
            alpha, beta = ref.from_mask(alpha, nb, nc), ref.from_mask(beta, nb2, nc2)
            if (answer is not None) != ref.dial_holds(nb, nc, nb2, nc2, alpha, beta):
                return False
            least = ref.least_dial(nb, nc, nb2, nc2, alpha, beta)
            if answer is None:
                return least is None or least is ref.TOO_BIG
            f, big_f = answer
            return (
                ref.dial_certifies(nb, nc, nb2, nc2, alpha, beta, f.table, big_f.table)
                and dial_certifies(ctx["doc"], x, y, f, big_f)
                and (least is ref.TOO_BIG or least == (f.table, big_f.table))
            )
        pol, na, nb, nc, alpha, beta = inst
        alpha, beta = ref.from_mask(alpha, na, nb), ref.from_mask(beta, na, nc)
        holds, certifies, least = (
            (ref.ex_holds, ref.ex_certifies, ref.least_ex)
            if pol == EX
            else (ref.un_holds, ref.un_certifies, ref.least_un)
        )
        if (answer is not None) != holds(na, nb, nc, alpha, beta):
            return False
        first = least(na, nb, nc, alpha, beta)
        if answer is None:
            return first is None or first is ref.TOO_BIG
        table = answer.arrow.table
        return (
            certifies(na, nb, nc, alpha, beta, table)
            and ctx["comps"][pol].certifies(x, y, answer.arrow)
            and (first is ref.TOO_BIG or first == table)
        )

    def operations(self, ctx):
        return len(ctx["calls"])


class DialLattice:
    """The `doctrines dial-lattice --bound 3` question over seeded object order."""

    def __init__(self, seed, negative_control):
        self.seed = seed
        self.negative_control = negative_control

    def context(self, raw):
        doc = make_doctrine(self.negative_control)
        objs = bounded_dialobjs(doc, DIAL_BOUND)
        random.Random(f"dial-lattice:{self.seed}").shuffle(objs)
        return {"doc": doc, "objs": objs}

    def run(self, ctx):
        pre = dial_preorder(ctx["doc"], ctx["objs"])
        poset, _ = poset_reflect(pre)
        return pre, poset, lattice_check(poset)

    def check(self, ctx, out):
        """Every matrix entry against the first-order definition, the shape
        of the answer, and a seeded sample against the nested-completion
        oracle."""
        pre, poset, rep = out
        objs = ctx["objs"]
        sets = [(u.src, u.tgt, ref.from_mask(u.pred, u.src, u.tgt)) for u in objs]
        facts = [(nb, nc, ref.dial_escapes(nb, nc, p), ref.dial_has_full_row(nb, nc, p))
                 for nb, nc, p in sets]
        failed = 0
        for i, (nb, nc, escapes, _) in enumerate(facts):
            row = pre.rows[i]
            for j, (nb2, nc2, _, full) in enumerate(facts):
                failed += bool(row >> j & 1) != ref.dial_decide(nb, nc, nb2, nc2, escapes, full)
        failed += len(objs) != DIAL_OBJECTS or len(set(sets)) != DIAL_OBJECTS
        failed += poset.n != DIAL_CLASSES
        failed += not (rep.ok and rep.has_top and rep.has_bottom)
        rng = random.Random(f"dial-agree:{self.seed}")
        for _ in range(AGREE_SAMPLE):
            u, v = rng.choice(objs), rng.choice(objs)
            failed += not dial_order_agrees(ctx["doc"], u, v)
        return self.operations(ctx), failed

    def operations(self, ctx):
        return DIAL_OBJECTS * DIAL_OBJECTS + 3 + AGREE_SAMPLE


WORKLOADS = {"laws-all": LawsAll, "order-stream": OrderStream, "dial-lattice": DialLattice}
