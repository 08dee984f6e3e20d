"""Entry point: subcommands, exit-code vocabulary, report determinism."""

import json
import time

import pytest

from doctrines.cli import main
from doctrines.tables import skel_category_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv):
    """Exit code and stderr of a command line the parser rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def elem(polarity, base, qobj, pred):
    return json.dumps({"polarity": polarity, "base": base, "qobj": qobj, "pred": pred})


class TestLeq:
    def test_true_with_witness(self, capsys):
        code, out, _ = run(capsys, "leq", elem("EX", 1, 2, [0]), elem("EX", 1, 1, [0]))
        assert code == 0
        assert "true" in out and "[0, 0]" in out

    def test_false(self, capsys):
        code, out, _ = run(capsys, "leq", elem("EX", 1, 1, [0]), elem("EX", 1, 2, []))
        assert code == 1
        assert "false" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "--json", "leq", elem("EX", 1, 2, [0]), elem("EX", 1, 1, [0])
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True and payload["witness"] == [0, 0]

    def test_bad_element(self, capsys):
        for bad in ('{"polarity": "EX"}', '{"polarity": "XX"}', elem("EX", 1, 1, 5),
                    elem("EX", -1, 1, []), elem("EX", 1, -1, []), elem("EX", "one", 1, []),
                    elem("EX", 1.7, 1, []), elem("EX", 1, True, []), elem("EX", 1, 2, [1.7]),
                    elem("EX", 1, 2, [True]),
                    json.dumps({"polarity": "EX", "base": 1, "qobj": 1, "pred": [0], "qboj": 5})):
            code, _, err = run(capsys, "leq", bad, elem("EX", 1, 1, [0]))
            assert code == 3
            assert "input error" in err

    def test_diagnostics_name_what_was_expected(self, capsys):
        good = elem("EX", 1, 1, [0])
        for x, y, diagnostic, leak in (
            ("5", "5", "an element is a JSON object with keys polarity, base, qobj, pred, got 5",
             "No such file"),
            ("[]", "[]", "an element is a JSON object with keys polarity, base, qobj, pred, got []",
             "list indices"),
            (elem("EX", 1, "a", [0]), good, "qobj must be a nonnegative integer, got 'a'",
             "invalid literal"),
        ):
            code, _, err = run(capsys, "leq", x, y)
            assert code == 3
            assert err.startswith("input error") and diagnostic in err
            assert leak not in err

    def test_pred_out_of_range(self, capsys):
        code, _, err = run(capsys, "leq", elem("EX", 1, 1, [7]), elem("EX", 1, 1, [0]))
        assert code == 3
        assert "predicate-extent" in err


class TestLatticeOps:
    def test_meet(self, capsys):
        code, out, _ = run(capsys, "--json", "meet", elem("EX", 1, 2, [0]), elem("EX", 1, 2, [1]))
        assert code == 0
        payload = json.loads(out)
        assert payload["qobj"] == 4

    def test_join(self, capsys):
        code, out, _ = run(capsys, "--json", "join", elem("EX", 1, 2, [0]), elem("EX", 1, 2, [1]))
        assert code == 0
        payload = json.loads(out)
        assert payload["qobj"] == 4 and payload["pred"] == [0, 3]


class TestQuantifiers:
    def test_exists_pr(self, capsys):
        code, out, _ = run(capsys, "--json", "exists", "--pr", "1,2", elem("EX", 2, 1, [1]))
        assert code == 0
        assert json.loads(out)["base"] == 1

    def test_forall_inj(self, capsys):
        code, out, _ = run(capsys, "--json", "forall", "--inj", "1", elem("EX", 1, 1, [0]))
        assert code == 0
        payload = json.loads(out)
        assert payload["base"] == 2 and payload["pred"] == [0, 1]

    def test_bad_split(self, capsys):
        for split in ("--pr=1", "--pr=-1,2"):
            code, _, err = run(capsys, "exists", split, elem("EX", 2, 1, [1]))
            assert code == 3
            assert "comma-separated" in err


class TestReflect:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "reflect", "--base", "1", "--bound", "1")
        assert code == 0
        assert out.startswith("digraph")
        assert "->" in out


class TestDialectica:
    def test_dial_leq_true(self, capsys):
        u = json.dumps({"src": 2, "tgt": 2, "pred": [0, 3]})
        v = json.dumps({"src": 2, "tgt": 2, "pred": [1, 2]})
        code, out, _ = run(capsys, "--json", "dial-leq", u, v)
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] and len(payload["F"]) == 4

    def test_dial_leq_false(self, capsys):
        u = json.dumps({"src": 1, "tgt": 1, "pred": [0]})
        v = json.dumps({"src": 1, "tgt": 1, "pred": []})
        code, out, _ = run(capsys, "dial-leq", u, v)
        assert code == 1

    def test_bad_object(self, capsys):
        good = json.dumps({"src": 1, "tgt": 1, "pred": [0]})
        for bad in (
            {"src": 2, "tgt": 2, "pred": 5},
            {"src": 2, "tgt": 2, "pred": ["x"]},
            {"src": -1, "tgt": 2, "pred": []},
            {"src": 2, "tgt": -1, "pred": []},
            {"src": 2.9, "tgt": 1, "pred": []},
            {"src": 2},
            # a misspelt or missing predicate is not the empty one
            {"src": 2, "tgt": 2, "prde": [0, 1, 2, 3]},
            {"src": 2, "tgt": 2},
            [2, 2],
        ):
            code, _, err = run(capsys, "dial-leq", json.dumps(bad), good)
            assert code == 3
            assert "input error" in err
        code, _, err = run(capsys, "dial-leq", json.dumps({"src": 1, "tgt": 1, "pred": [1]}), good)
        assert code == 3
        assert "predicate-extent" in err

    def test_dial_lattice(self, capsys):
        code, out, _ = run(capsys, "--json", "dial-lattice", "--bound", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["lattice"] is True

    def test_dial_lattice_bound_3(self, capsys):
        code, out, _ = run(capsys, "--json", "dial-lattice", "--bound", "3")
        assert code == 0
        payload = json.loads(out)
        assert (payload["objects"], payload["classes"], payload["lattice"]) == (689, 4, True)

    def test_dial_lattice_bound_4_refused(self, capsys):
        # 74,963 objects: the order matrix is refused before any decision
        start = time.perf_counter()
        code, _, err = run(capsys, "dial-lattice", "--bound", "4")
        assert code == 4 and time.perf_counter() - start < 10
        # the budget names what it counts: order-matrix entries, not arrows
        assert ("budget exceeded: search space of 5619451369 order-matrix entries exceeds budget 33554432 "
                "(order matrix of 74963 elements)") in err

    def test_dial_lattice_dot(self, capsys):
        code, out, _ = run(capsys, "dial-lattice", "--bound", "1", "--dot")
        assert code == 0
        assert out.startswith("digraph")


class TestPrinciples:
    def test_choice(self, capsys):
        code, out, _ = run(capsys, "--json", "choice", elem("EX", 2, 2, [1, 2]))
        assert code == 0
        assert json.loads(out)["witness"] == [1, 0]

    def test_choice_absent(self, capsys):
        code, out, _ = run(capsys, "choice", elem("EX", 1, 1, []))
        assert code == 1

    def test_counterexample(self, capsys):
        code, out, _ = run(capsys, "--json", "counterexample", elem("UN", 1, 2, [1]))
        assert code == 0
        assert json.loads(out)["counterexample"] == [0]

    def test_skolem(self, capsys):
        code, out, _ = run(
            capsys, "--json", "skolem", "--a1", "1", "--a2", "2", "--b", "2",
            "--pred", "[0, 3]",
        )
        assert code == 0
        assert json.loads(out)["equal"] is True


class TestVerifyLaws:
    def test_duality_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify-laws", "--suite", "duality", "--max-card", "1",
            "--fiber-bound", "1",
        )
        assert code == 0
        assert "PASS" in out

    def test_deterministic_bytes(self, capsys):
        argv = [
            "--json", "verify-laws", "--suite", "skolem", "--max-card", "1",
            "--fiber-bound", "1", "--seed", "3", "--no-timing",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestCheckDoctrine:
    def make_doctrine_file(self, tmp_path, broken=False, edit=None):
        cat_data = skel_category_json(1)
        fibers = {
            "n0": {"elements": ["e"], "leq": []},
            "n1": {"elements": ["bot", "top"], "leq": [["bot", "top"]]},
        }
        reindex = {}
        for arrow in cat_data["arrows"]:
            if arrow["dom"] == "n0":
                reindex[arrow["id"]] = [0] * (2 if arrow["cod"] == "n1" else 1)
            else:
                reindex[arrow["id"]] = [1, 1] if broken else [0, 1]
        data = {"category": cat_data, "fibers": fibers, "reindex": reindex}
        if edit is not None:
            edit(data)
        path = tmp_path / ("broken.json" if broken else "good.json")
        path.write_text(json.dumps(data))
        return str(path)

    def test_good_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-doctrine", self.make_doctrine_file(tmp_path))
        assert code == 0
        assert "PASS" in out

    def test_law_violation_exits_2(self, capsys, tmp_path):
        path = self.make_doctrine_file(tmp_path, broken=True)
        code, out, _ = run(capsys, "check-doctrine", path)
        assert code == 2
        assert "FAIL" in out and "reindex-identity" in out

    def test_capabilities_key_exits_3(self, capsys, tmp_path):
        # structure is read off the tables, so a file cannot claim any
        path = self.make_doctrine_file(tmp_path, edit=lambda d: d.update(capabilities=["lat-fibers"]))
        code, _, err = run(capsys, "check-doctrine", path)
        assert code == 3
        assert err.startswith("input error: [format] unknown key 'capabilities'")

    def test_non_lattice_fiber_skipped(self, capsys, tmp_path):
        """A fiber that is not a lattice passes: a tabular doctrine has no
        lattice providers, so its lattice laws are SKIPPED, never FAILed."""
        path = self.make_doctrine_file(tmp_path, edit=lambda d: d["fibers"]["n1"].update(leq=[]))
        code, out, _ = run(capsys, "--json", "check-doctrine", path)
        assert code == 0
        results = {r["law"]: (r["status"], r["detail"]) for r in json.loads(out)["results"]}
        assert results["lat-fibers"] == ("SKIPPED", "no top provider")
        assert results["reindex-preserves-lattice"] == ("SKIPPED", "no meet provider")

    def test_no_card_bound(self, capsys, tmp_path):
        """A tabular doctrine is checked on every declared object, so the
        command takes no cardinality bound and reports none."""
        path = self.make_doctrine_file(tmp_path)
        code, err = usage_error(capsys, "check-doctrine", path, "--max-card", "2")
        assert code == 3 and "unrecognized arguments: --max-card" in err
        code, out, _ = run(capsys, "--json", "check-doctrine", path)
        assert code == 0 and json.loads(out)["bounds"] == {}

    def test_structural_error_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check-doctrine", str(path))
        assert code == 3
        ident = next(a["id"] for a in skel_category_json(1)["arrows"] if a["dom"] == a["cod"] == "n1")
        for edit in (
            lambda d: d["fibers"]["n1"].update(leq=[["bot", "zzz"]]),
            lambda d: d["fibers"]["n1"].pop("elements"),
            lambda d: d["fibers"]["n1"].update(leq=[5]),
            lambda d: d["category"]["structure"]["products"][0].pop("right"),
            lambda d: d["category"]["arrows"].append(5),
            lambda d: d.update(fibers=[]),
            lambda d: d["category"]["objects"][1].update(card=1.7),
            lambda d: d["reindex"].update({ident: [0.2, 1.9]}),
            lambda d: d.update(exist={}),
            lambda d: d["category"]["structure"].update(prodcuts=[]),
            lambda d: d.update(category={"objects": "garbage"}),
        ):
            code, _, err = run(capsys, "check-doctrine", self.make_doctrine_file(tmp_path, edit=edit))
            assert code == 3
            assert err.startswith("input error") and err.count("\n") == 1

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run(capsys, "leq", "no-such-file.json", "also-missing.json")
        assert code == 3

    def test_doctrine_and_category_read_alike(self, capsys, tmp_path):
        """The doctrine argument and a path-valued `category` key go through
        one reader of "file path or inline JSON", so the same text fails the
        same way; the key is the one way to give the category."""
        for text, diagnostic in (("[1]", "expected a JSON object, got list"),
                                 ("no-such-file.json", "cannot read 'no-such-file.json'")):
            as_doctrine = run(capsys, "check-doctrine", text)
            as_category = run(capsys, "check-doctrine", json.dumps({"category": text, "fibers": {}}))
            assert as_doctrine[0] == as_category[0] == 3
            assert as_doctrine[2] == as_category[2]
            assert as_doctrine[2].startswith("input error") and diagnostic in as_doctrine[2]
        category = tmp_path / "category.json"
        category.write_text(json.dumps(skel_category_json(1)))
        path = self.make_doctrine_file(tmp_path, edit=lambda d: d.update(category=str(category)))
        code, out, _ = run(capsys, "--json", "check-doctrine", path)
        assert code == 0 and all(r["status"] != "FAIL" for r in json.loads(out)["results"])
        code, err = usage_error(capsys, "check-doctrine", path, "--category", str(category))
        assert code == 3 and "unrecognized arguments: --category" in err


class TestUsage:
    """Command lines the parser rejects are bad input: exit code 3."""

    def test_negative_numbers(self, capsys):
        x = elem("EX", 1, 1, [0])
        for argv in (
            ("--budget", "-5", "leq", x, x),
            ("reflect", "--base", "-1"),
            ("reflect", "--base", "1", "--bound", "-1"),
            ("dial-lattice", "--bound", "-1"),
            ("forall", "--inj", "-1", x),
            ("skolem", "--a1", "-1", "--a2", "1", "--b", "1", "--pred", "[]"),
            ("verify-laws", "--max-card", "-1"),
        ):
            code, err = usage_error(capsys, *argv)
            assert code == 3
            assert "invalid natural value: '-" in err

    def test_malformed_command_lines(self, capsys):
        for argv in ((), ("no-such-command",), ("leq", "x"), ("--budget", "many", "reflect", "--base", "1"),
                     ("reflect", "--base", "1", "--polarity", "XX")):
            code, err = usage_error(capsys, *argv)
            assert code == 3
            assert "error:" in err
