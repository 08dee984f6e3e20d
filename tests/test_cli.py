"""Entry point: subcommands, exit-code vocabulary, report determinism."""

import json

from doctrines.cli import main
from doctrines.fincat import skel_category_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        for bad in ('{"polarity": "EX"}', '{"polarity": "XX"}', elem("EX", 1, 1, 5)):
            code, _, err = run(capsys, "leq", bad, elem("EX", 1, 1, [0]))
            assert code == 3
            assert "input error" in err

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
        code, _, err = run(capsys, "exists", "--pr", "1", elem("EX", 2, 1, [1]))
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

    def test_dial_lattice(self, capsys):
        code, out, _ = run(capsys, "--json", "dial-lattice", "--bound", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["lattice"] is True

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
    def make_doctrine_file(self, tmp_path, broken=False, capabilities=()):
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
        path = tmp_path / ("broken.json" if broken else "good.json")
        path.write_text(json.dumps({"category": cat_data, "fibers": fibers, "reindex": reindex,
                                    "capabilities": list(capabilities)}))
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

    def test_claimed_capabilities_without_providers_skip(self, capsys, tmp_path):
        path = self.make_doctrine_file(
            tmp_path, capabilities=["existential-over-projections", "lat-fibers"]
        )
        code, out, _ = run(capsys, "--json", "check-doctrine", path)
        assert code == 0
        results = {r["law"]: r for r in json.loads(out)["results"]}
        assert results["beck-chevalley-projections"]["status"] == "SKIPPED"
        assert results["beck-chevalley-projections"]["detail"] == "missing capability existential-over-projections"
        for law in ("lat-fibers", "reindex-preserves-lattice"):
            assert results[law]["status"] == "SKIPPED"
            assert results[law]["detail"] == "no meet provider"

    def test_structural_error_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check-doctrine", str(path))
        assert code == 3

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run(capsys, "leq", "no-such-file.json", "also-missing.json")
        assert code == 3


class TestBudget:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("DOCTRINES_BUDGET", "1000000")
        code, _, _ = run(capsys, "leq", elem("EX", 1, 1, [0]), elem("EX", 1, 1, [0]))
        assert code == 0
