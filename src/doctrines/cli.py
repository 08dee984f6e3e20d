"""Command-line interface.

Exit codes: 0 success or PASS, 1 mathematical negative (an order that
does not hold, a certificate that does not exist), 2 a violated law,
3 bad input, 4 search budget exceeded.  The distinction between 1 and 2
matters for scripting: a false query is not a soundness failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .completion import EX, UN, Completion, QuantElem
from .dialectica import DialObj, bounded_dialobjs, dial_leq, dial_preorder
from .doctrine import mask_from_indices, powerset_doctrine
from .errors import DEFAULT_BUDGET, DoctrineError, LoadError, SearchBudgetExceeded, natural
from .laws import SUITES, LawContext, run_suite, verify_doctrine
from .poset import Poset, lattice_check, poset_reflect, to_dot
from .principles import extract_choice, extract_counterexample, skolem_check

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_LAW_FAIL = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4


def _read_object(text: str, keys: tuple, what: str) -> dict:
    """`text` (inline JSON or a file path) as a JSON object with no key
    outside `keys`; LoadError naming them when it is anything else."""
    from .tables import _known_keys, read_json

    data = read_json(text)
    if not isinstance(data, dict):
        raise LoadError(f"{what} is a JSON object with keys {', '.join(keys)}, got {data!r}")
    _known_keys(data, keys, what)
    return data


def _load_elem(doc, text: str) -> QuantElem:
    data = _read_object(text, ("polarity", "base", "qobj", "pred"), "an element")
    try:
        polarity = data["polarity"]
        base = natural(data["base"], "base")
        elem = dict(data, base=base, qobj=natural(data["qobj"], "qobj"))
        if polarity not in (EX, UN):
            raise LoadError(f"polarity must be EX or UN, got {polarity!r}")
        return Completion(doc, polarity).pred_from_json(base, elem)
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"element needs polarity/base/qobj/pred: {exc}") from None


def _elem_json(doc, x: QuantElem) -> dict:
    return Completion(doc, x.polarity).pred_to_json(x.base, x)


def _load_dial(doc, text: str) -> DialObj:
    data = _read_object(text, ("src", "tgt", "pred"), "a dialectica object")
    try:
        src, tgt = natural(data["src"], "src"), natural(data["tgt"], "tgt")
        return DialObj(src, tgt, doc.pred_from_json(doc.cat.product(src, tgt), data["pred"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"dialectica object needs src/tgt/pred: {exc}") from None


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: exit code 3, where argparse would use
    2, the code of a violated law."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="doctrines",
        description="Quantifier completions of predicate doctrines over finite categories.",
    )
    parser.add_argument("--budget", type=natural, default=None,
                        help=f"cap on the arrows an enumerative search may scan (default {DEFAULT_BUDGET})")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-doctrine", help="verify a tabular doctrine file")
    p.add_argument("file")

    p = sub.add_parser("leq", help="decide the completion order between two elements")
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("meet", help="meet of two completion elements")
    p.add_argument("x")
    p.add_argument("y")
    p = sub.add_parser("join", help="join of two completion elements")
    p.add_argument("x")
    p.add_argument("y")

    for name in ("exists", "forall"):
        p = sub.add_parser(name, help=f"{name} along a projection or an injection")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--pr", metavar="A1,A2", help="split the base as a product")
        group.add_argument("--inj", metavar="B", type=natural, help="inject the base into base+B")
        p.add_argument("x")

    p = sub.add_parser("reflect", help="DOT of a reflected bounded completion fiber")
    p.add_argument("--base", type=natural, required=True)
    p.add_argument("--bound", type=natural, default=2)
    p.add_argument("--polarity", choices=(EX, UN), default=EX)

    p = sub.add_parser("dial-leq", help="decide the dialectica order")
    p.add_argument("u")
    p.add_argument("v")

    p = sub.add_parser("dial-lattice", help="lattice report for the bounded dialectica poset")
    p.add_argument("--bound", type=natural, default=2)
    p.add_argument("--dot", action="store_true", help="emit the Hasse diagram instead")

    p = sub.add_parser("choice", help="extract a choice witness from an EX element")
    p.add_argument("x")
    p = sub.add_parser("counterexample", help="extract a counterexample from a UN element")
    p.add_argument("x")

    p = sub.add_parser("skolem", help="check the quantifier exchange for one predicate")
    p.add_argument("--a1", type=natural, required=True)
    p.add_argument("--a2", type=natural, required=True)
    p.add_argument("--b", type=natural, required=True)
    p.add_argument("--pred", required=True, help="predicate over A1 x A2 x B as an index list")

    p = sub.add_parser("verify-laws", help="run a law suite")
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--max-card", type=natural, default=2)
    p.add_argument("--fiber-bound", type=natural, default=2)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--no-timing", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SearchBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except LoadError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DoctrineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _dispatch(args) -> int:
    budget = args.budget
    doc = powerset_doctrine()

    if args.command == "check-doctrine":
        from .tables import load_doctrine

        tab = load_doctrine(args.file, verify=False)
        report = verify_doctrine(tab, budget=budget)
        _emit(args, report.to_dict(), report.render())
        return EXIT_OK if report.ok else EXIT_LAW_FAIL

    if args.command == "leq":
        x = _load_elem(doc, args.x)
        y = _load_elem(doc, args.y)
        comp = Completion(doc, x.polarity, budget)
        w = comp.leq(x, y)
        if w is None:
            _emit(args, {"holds": False}, "false")
            return EXIT_NEGATIVE
        _emit(
            args,
            {"holds": True, "witness": list(w.arrow.table), "direction": w.direction},
            f"true, witness {list(w.arrow.table)} ({w.direction})",
        )
        return EXIT_OK

    if args.command in ("meet", "join"):
        x = _load_elem(doc, args.x)
        y = _load_elem(doc, args.y)
        comp = Completion(doc, x.polarity, budget)
        z = comp.meet(x.base, x, y) if args.command == "meet" else comp.join(x.base, x, y)
        payload = _elem_json(doc, z)
        _emit(args, payload, json.dumps(payload))
        return EXIT_OK

    if args.command in ("exists", "forall"):
        x = _load_elem(doc, args.x)
        comp = Completion(doc, x.polarity, budget)
        if args.pr:
            try:
                a1, a2 = (natural(v) for v in args.pr.split(","))
            except ValueError:
                raise LoadError("--pr wants two comma-separated cardinalities") from None
            op = comp.exists_pr if args.command == "exists" else comp.forall_pr
            z = op((a1, a2), x)
        else:
            op = comp.exists_inj if args.command == "exists" else comp.forall_inj
            z = op((x.base, args.inj), x)
        payload = _elem_json(doc, z)
        _emit(args, payload, json.dumps(payload))
        return EXIT_OK

    if args.command == "reflect":
        comp = Completion(doc, args.polarity, budget)
        poset, _ = poset_reflect(comp.bounded_preorder(args.base, args.bound))
        labels = tuple(f"({x.qobj},{doc.pred_to_json(None, x.pred)})" for x in poset.labels)
        print(to_dot(Poset(labels, poset.rows), name="fiber"), end="")
        return EXIT_OK

    if args.command == "dial-leq":
        u = _load_dial(doc, args.u)
        v = _load_dial(doc, args.v)
        w = dial_leq(doc, u, v, budget)
        if w is None:
            _emit(args, {"holds": False}, "false")
            return EXIT_NEGATIVE
        f, big_f = w
        _emit(
            args,
            {"holds": True, "f": list(f.table), "F": list(big_f.table)},
            f"true, f={list(f.table)} F={list(big_f.table)}",
        )
        return EXIT_OK

    if args.command == "dial-lattice":
        objs = bounded_dialobjs(doc, args.bound)
        pre = dial_preorder(doc, objs, budget)
        poset, _ = poset_reflect(pre)
        labels = tuple(f"({u.src},{u.tgt},{doc.pred_to_json(None, u.pred)})" for u in poset.labels)
        poset = Poset(labels, poset.rows)
        rep = lattice_check(poset)
        dot = to_dot(poset, name="dialectica")
        if args.dot:
            print(dot, end="")
            return EXIT_OK if rep.ok else EXIT_LAW_FAIL
        payload = {
            "objects": pre.n,
            "classes": poset.n,
            "has_top": rep.has_top,
            "has_bottom": rep.has_bottom,
            "failures": rep.failures,
            "lattice": rep.ok,
            "dot": dot,
        }
        text = (
            f"objects={pre.n} classes={poset.n} lattice={rep.ok} "
            f"top={rep.has_top} bottom={rep.has_bottom}\n\n{dot}"
        )
        _emit(args, payload, text)
        return EXIT_OK if rep.ok else EXIT_LAW_FAIL

    if args.command in ("choice", "counterexample"):
        extract, key, negative = {
            "choice": (extract_choice, "witness", "no witness: the existential is not provable"),
            "counterexample": (extract_counterexample, "counterexample",
                               "no counterexample: the universal is not refutable"),
        }[args.command]
        x = _load_elem(doc, args.x)
        f = extract(Completion(doc, x.polarity, budget), x)
        if f is None:
            _emit(args, {key: None}, negative)
            return EXIT_NEGATIVE
        _emit(args, {key: list(f.table)}, f"{key} {list(f.table)}")
        return EXIT_OK

    if args.command == "skolem":
        from .tables import read_json

        comp = Completion(doc, EX, budget)
        carrier = args.a1 * args.a2 * args.b
        alpha = mask_from_indices(read_json(args.pred), carrier)
        rep = skolem_check(comp, args.a1, args.a2, args.b, alpha)
        payload = {
            "equal": rep.equal,
            "lhs": _elem_json(doc, rep.lhs),
            "rhs": _elem_json(doc, rep.rhs),
            "lhs_le_rhs": list(rep.lhs_le_rhs.arrow.table) if rep.lhs_le_rhs else None,
            "rhs_le_lhs": list(rep.rhs_le_lhs.arrow.table) if rep.rhs_le_lhs else None,
        }
        _emit(args, payload, json.dumps(payload))
        return EXIT_OK if rep.equal else EXIT_LAW_FAIL

    if args.command == "verify-laws":
        ctx = LawContext(
            max_card=args.max_card, qmax=args.fiber_bound, seed=args.seed, budget=budget
        )
        report = run_suite(args.suite, ctx)
        with_timing = not args.no_timing
        _emit(args, report.to_dict(with_timing), report.render(with_timing))
        return EXIT_OK if report.ok else EXIT_LAW_FAIL

    raise LoadError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
