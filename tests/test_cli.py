"""End-to-end tests of the command-line interface.

Covers every subcommand, the three output formats, deterministic and
cacheable output, JSON re-ingestion, and the exit-code contract:
0 success, 1 verification failure, 2 usage error.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import operadkit
from operadkit.cli import main


@pytest.fixture()
def runner(cli, tmp_path, monkeypatch):
    monkeypatch.setenv("OPERADKIT_CACHE_DIR", str(tmp_path / "cache"))
    return cli


def run(runner, *args):
    return runner(args)


class TestTreesAndGraphs:
    def test_tree_count(self, runner):
        res = run(runner, "trees", "--n", "5", "--count")
        assert res.exit_code == 0
        assert res.output.strip() == "236"

    def test_tree_listing_json(self, runner):
        res = run(runner, "trees", "--n", "3", "--edges", "1", "--format", "json")
        doc = json.loads(res.output)
        assert doc["count"] == 3
        assert "(1,(2,3))" in doc["trees"]

    def test_tree_bounds(self, runner):
        res = run(runner, "trees", "--n", "50", "--count")
        assert res.exit_code == 2

    def test_csv_only_for_page_tables(self, runner):
        # trees print no CSV, so they do not offer it
        res = run(runner, "trees", "--n", "4", "--format", "csv")
        assert res.exit_code == 2

    def test_graph_census(self, runner):
        res = run(runner, "graphs", "--g", "1", "--n", "1", "--max-edges", "1",
                  "--count")
        assert res.exit_code == 0
        assert res.output.strip() == "2"

    def test_graph_loop_automorphisms_visible(self, runner):
        res = run(runner, "graphs", "--g", "1", "--n", "1", "--max-edges", "1",
                  "--format", "json")
        doc = json.loads(res.output)
        assert {g["aut_order"] for g in doc["graphs"]} == {1, 2}

    def test_graph_bounds(self, runner):
        assert run(runner, "graphs", "--g", "5", "--n", "1").exit_code == 2
        assert run(runner, "graphs", "--g", "0", "--n", "2").exit_code == 2


class TestAxiomsAndDims:
    def test_axioms_pass(self, runner):
        res = run(runner, "axioms", "--operad", "lie", "--max-arity", "4")
        assert res.exit_code == 0
        assert "all axioms hold" in res.output

    def test_axioms_decorated_trees(self, runner):
        res = run(runner, "axioms", "--operad", "cobar-liec", "--max-arity", "3")
        assert res.exit_code == 0

    def test_axioms_arity_guard(self, runner):
        res = run(runner, "axioms", "--operad", "cobar-liec", "--max-arity", "9")
        assert res.exit_code == 2

    def test_free_dims(self, runner):
        res = run(runner, "free-dims", "--operad", "lie", "--d", "2",
                  "--max-arity", "6")
        assert res.exit_code == 0
        assert res.output.strip() == "2,1,2,3,6,9"

    def test_free_dims_guard(self, runner):
        res = run(runner, "free-dims", "--operad", "lie", "--d", "40",
                  "--max-arity", "6")
        assert res.exit_code == 2


class TestCobarCommands:
    def test_cobar_dims(self, runner):
        res = run(runner, "cobar", "--cooperad", "liec", "--arity", "4",
                  "--format", "json")
        doc = json.loads(res.output)
        assert doc["dims"] == {"0": 6, "1": 20, "2": 15}

    def test_homology_and_cache_hit(self, runner):
        args = ("cobar-homology", "--cooperad", "liec", "--arity", "4",
                "--format", "json")
        first = run(runner, *args)
        second = run(runner, *args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output
        doc = json.loads(first.output)
        assert doc["total"] == 1 and doc["betti"]["2"] == 1

    @pytest.mark.parametrize("entry", [
        '{"betti": ',
        '{"arity": 4, "betti": {"0": 0, "1": 0, "2": 99}, '
        '"cooperad": "liec", "total": 1}',
        '{"arity": 3, "betti": {"0": 0, "1": 2}, '
        '"cooperad": "asc", "total": 2}',
    ], ids=["corrupt", "total-mismatch", "other-request"])
    def test_bad_cache_entry_is_recomputed(self, runner, tmp_path, entry):
        args = ("cobar-homology", "--cooperad", "liec", "--arity", "4",
                "--format", "json")
        first = run(runner, *args)
        [path] = (tmp_path / "cache").glob("*.json")
        good = path.read_text()
        path.write_text(entry)
        again = run(runner, *args)
        assert again.exit_code == 0
        assert again.output == first.output
        assert path.read_text() == good
        assert not list((tmp_path / "cache").glob("*.tmp"))

    def test_changed_source_misses_the_cache(self, runner, tmp_path,
                                             monkeypatch):
        from operadkit import cli
        args = ("cobar-homology", "--cooperad", "liec", "--arity", "4",
                "--format", "json")
        first = run(runner, *args)
        [path] = (tmp_path / "cache").glob("*.json")
        # a well-formed but wrong answer, as if cached by other code
        stale = ('{"arity": 4, "betti": {"0": 0, "1": 0, "2": 2}, '
                 '"cooperad": "liec", "total": 2}')
        path.write_text(stale)
        assert json.loads(run(runner, *args).output)["total"] == 2
        monkeypatch.setattr(cli, "_source_fingerprint", lambda: "other")
        again = run(runner, *args)
        assert again.exit_code == 0 and again.output == first.output
        assert path.read_text() == stale
        assert len(list((tmp_path / "cache").glob("*.json"))) == 2

    def test_unwritable_cache_warns_and_prints(self, cli, tmp_path,
                                               monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("OPERADKIT_CACHE_DIR", str(blocker / "cache"))
        res = cli(["cobar-homology", "--cooperad", "liec", "--arity", "3"])
        assert res.exit_code == 0
        assert res.stdout == "e=0: 0\ne=1: 1\ntotal: 1\n"
        assert res.stderr.startswith("warning: ")
        assert res.stderr.count("\n") == 1

    def test_homology_no_cache_same_answer(self, runner):
        base = ("cobar-homology", "--cooperad", "asc", "--arity", "3",
                "--format", "json")
        assert run(runner, *base).output == run(runner, *base, "--no-cache").output

    def test_arity_guard(self, runner):
        res = run(runner, "cobar", "--cooperad", "asc", "--arity", "9")
        assert res.exit_code == 2


class TestStrataCommands:
    def test_e1_text_and_csv_and_json_agree(self, runner):
        as_json = run(runner, "e1", "--n", "5", "--format", "json")
        as_csv = run(runner, "e1", "--n", "5", "--format", "csv")
        as_text = run(runner, "e1", "--n", "5")
        assert as_json.exit_code == as_csv.exit_code == as_text.exit_code == 0
        doc = json.loads(as_json.output)
        from_json = {(p, q): d for p, q, d in doc["entries"]}
        from_csv = {}
        for line in as_csv.output.strip().splitlines()[1:]:
            p, q, d = (int(x) for x in line.split(","))
            from_csv[(p, q)] = d
        assert from_json == from_csv
        assert from_json[(0, 0)] == 15
        assert "15" in as_text.output

    def test_e1_parameter_guard(self, runner):
        assert run(runner, "e1", "--n", "99", "--g", "5").exit_code == 2

    def test_e1_betti_ingestion(self, runner, tmp_path):
        csv = tmp_path / "betti.csv"
        csv.write_text("g,n,k,dim\n1,1,0,1\n1,2,0,1\n1,2,1,1\n1,3,0,1\n")
        res = run(runner, "e1", "--g", "1", "--n", "2",
                  "--betti", str(csv), "--aut-mode", "ignore",
                  "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.output)["entries"]

    def test_e1_conflicting_betti_rejected(self, runner, tmp_path):
        csv = tmp_path / "betti.csv"
        csv.write_text("g,n,k,dim\n0,5,1,4\n")
        res = run(runner, "e1", "--n", "5", "--betti", str(csv))
        assert res.exit_code == 2
        assert "conflicts" in res.output

    def test_e1_repeated_betti_row_rejected(self, runner, tmp_path):
        # two rows for (1, 2, 0): the last one used to win silently
        csv = tmp_path / "betti.csv"
        csv.write_text("g,n,k,dim\n1,2,0,1\n1,2,0,5\n1,2,2,1\n")
        res = run(runner, "e1", "--g", "1", "--n", "2", "--betti", str(csv),
                  "--aut-mode", "ignore", "--format", "csv")
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == ("Error: repeated (g, n, k) in row: "
                              "'1,2,0,5'\n")

    def test_betti_predict(self, runner):
        res = run(runner, "betti-predict", "--n", "6")
        assert res.exit_code == 0
        assert res.output.strip() == "1,16,16,1"

    def test_betti_predict_at_the_cap(self, runner):
        res = run(runner, "betti-predict", "--n", "12")
        assert res.exit_code == 0
        row = [int(h) for h in res.output.strip().split(",")]
        assert row == [1, 1981, 173570, 2567940, 9300303,
                       9300303, 2567940, 173570, 1981, 1]
        assert sum(row) == 24087590  # chi of the compactification
        over = run(runner, "betti-predict", "--n", "13")
        assert over.exit_code == 2
        assert "--n" in over.stderr

    def test_middle_row(self, runner):
        res = run(runner, "middle-row", "--arity", "4", "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.output)["equal"] is True

    def test_dual_e1(self, runner):
        res = run(runner, "dual-e1", "--n", "5", "--format", "json")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["format"] == "operadkit-dual-e1"

    def test_dual_e1_guard(self, runner):
        assert run(runner, "dual-e1", "--n", "2").exit_code == 2

    def test_genus_zero_pages_at_the_cap(self, runner):
        assert run(runner, "dual-e1", "--n", "12").exit_code == 0
        assert run(runner, "e1", "--n", "12", "--format", "csv").exit_code == 0
        assert run(runner, "e1", "--n", "13").exit_code == 2


class TestHomotopyCommands:
    @staticmethod
    def family_file(tmp_path, associative=True):
        from operadkit.hoalg import (map_family_to_json,
                                     truncated_polynomial_family, MapFamily)
        fam = truncated_polynomial_family(3)
        if not associative:
            bad = dict(fam.maps[2])
            bad[(1, (0, 1))] = -bad[(1, (0, 1))]
            fam = MapFamily(fam.space, fam.q, {2: bad})
        path = tmp_path / "family.json"
        path.write_text(map_family_to_json(fam))
        return str(path)

    def test_check_ainf_pass(self, runner, tmp_path):
        res = run(runner, "check-ainf", self.family_file(tmp_path),
                  "--max-arity", "3")
        assert res.exit_code == 0
        assert "all relations hold" in res.output

    def test_check_ainf_failure_reports_witness(self, runner, tmp_path):
        res = run(runner, "check-ainf",
                  self.family_file(tmp_path, associative=False),
                  "--max-arity", "3")
        assert res.exit_code == 1
        # exact coefficients, keys ascending, whatever the value type
        assert res.output.splitlines() == [
            "arity 3 relation fails on (0, 0, 1): defect {1: -2}",
            "arity 3 relation fails on (0, 1, 1): defect {2: -2}",
            "arity 3 relation fails on (1, 0, 1): defect {2: 2}",
            "3 failing instances"]

    def test_check_cinf(self, runner, tmp_path):
        res = run(runner, "check-cinf", self.family_file(tmp_path),
                  "--max-arity", "3")
        assert res.exit_code == 0

    def test_default_arity_checks_associativity(self, runner, tmp_path):
        path = product_file(tmp_path)
        res = run(runner, "check-cinf", path)
        assert (res.exit_code, res.stdout) == (
            1, "2 relation failures, 0 shuffle violations\n")
        assert res.stderr.splitlines() == [
            "arity 3 relation fails on (0, 0, 1): defect {1: -1}",
            "arity 3 relation fails on (1, 0, 0): defect {1: 1}"]
        assert run(runner, "check-ainf", path).exit_code == 1

    def test_check_cinf_failure_names_shuffle_witnesses(self, runner,
                                                        tmp_path):
        # H*(S^1) with m2(x, 1) = -x: not graded-commutative
        path = tmp_path / "twin.json"
        path.write_text(json.dumps({
            "format": "operadkit-mapfamily", "version": 1,
            "names": ["1", "x"], "degrees": [0, -1], "q": [],
            "maps": {"2": [[0, [0, 0], 1], [1, [0, 1], 1],
                           [1, [1, 0], -1]]}}))
        res = run(runner, "check-cinf", str(path), "--max-arity", "4")
        assert (res.exit_code, res.stdout) == (
            1, "1 relation failures, 2 shuffle violations\n")
        assert res.stderr.splitlines() == [
            "arity 3 relation fails on (1, 0, 0): defect {1: 2}",
            "arity 2 (1, 1)-shuffle sum fails on (0, 1): defect {1: 2}",
            "arity 2 (1, 1)-shuffle sum fails on (1, 0): defect {1: 2}"]

    def test_malformed_family_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        res = run(runner, "check-ainf", str(path))
        assert res.exit_code == 2


class TestFiltrationCommands:
    def test_er_end_fixture(self, runner):
        res = run(runner, "er", "--r", "2", "--fixture", "end",
                  "--max-arity", "2", "--format", "json")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        # acyclic two-term complex: second page vanishes
        assert all(not dims for dims in doc["dims"].values())

    def test_er_from_file(self, runner, tmp_path):
        from operadkit.filtration import (filtered_operad_to_json,
                                          moduli_chain_standin)
        path = tmp_path / "filtered.json"
        path.write_text(filtered_operad_to_json(moduli_chain_standin(3), 3))
        res = run(runner, "er", "--r", "1", "--file", str(path),
                  "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.output)["dims"]["3"]

    def test_dk_slices(self, runner):
        res = run(runner, "dk", "--r", "1", "--k", "0",
                  "--fixture", "standin", "--max-arity", "4",
                  "--format", "json")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["certificate"] is True
        assert sum(doc["slices"]["4"].values()) == 41

    def test_dk_on_the_zeroth_page(self, runner):
        # E0 = F_p / F_{p-1}: the end fixture's page sits in q = 0, and
        # its k = -1 slice closes under composition
        res = run(runner, "er", "--r", "0", "--fixture", "end",
                  "--format", "json")
        assert res.exit_code == 0
        dims = json.loads(res.output)["dims"]
        assert dims and all(pq.endswith(",0") for d in dims.values()
                            for pq in d)
        res = run(runner, "dk", "--r", "0", "--k", "-1", "--fixture", "end",
                  "--max-arity", "3")
        assert res.exit_code == 0
        assert res.stdout.endswith("closure certificate: ok\n")

    def test_er_guard(self, runner):
        res = run(runner, "er", "--r", "1", "--max-arity", "9")
        assert res.exit_code == 2

    def test_pipeline(self, runner):
        res = run(runner, "pipeline-cinf", "--max-arity", "3", "--dim", "2")
        assert res.exit_code == 0
        assert "pipeline verified" in res.output

    def test_pipeline_guard(self, runner):
        assert run(runner, "pipeline-cinf", "--max-arity", "9").exit_code == 2


def product_file(tmp_path) -> str:
    """A commutative, non-associative product on x0, x1 in degree 0:
    m(x0, x1) = m(x1, x0) = x1, so (x0 x0) x1 = 0 but x0 (x0 x1) = x1."""
    path = tmp_path / "product.json"
    path.write_text(json.dumps({
        "format": "operadkit-mapfamily", "version": 1,
        "names": ["x0", "x1"], "degrees": [0, 0], "q": [],
        "maps": {"2": [[1, [0, 1], 1], [1, [1, 0], 1]]}}))
    return str(path)


def _family_doc():
    from operadkit.hoalg import map_family_to_json, truncated_polynomial_family
    return json.loads(map_family_to_json(truncated_polynomial_family(3)))


def _end_doc(max_arity=3):
    """The degree-filtered End_V of V = <e0, e1>, Q e1 = e0."""
    from operadkit.filtration import degree_filtration, filtered_operad_to_json
    from operadkit.operads import EndOperad, GradedSpace
    from operadkit.qlinalg import SparseMatrix
    V = GradedSpace(("e0", "e1"), (0, 1))
    q = SparseMatrix.from_dict(2, 2, {(0, 1): 1})
    return json.loads(filtered_operad_to_json(
        degree_filtration(EndOperad(V, max_arity, q=q)), max_arity))


class TestMalformedInput:
    """Bad documents exit 2 with a message, never with a traceback."""

    @pytest.mark.parametrize("command", ["check-ainf", "check-cinf"])
    @pytest.mark.parametrize("fault, message", [
        ("coefficient", "coefficient [1] is neither an int nor a string"),
        ("missing key", "lacks the key 'names'"),
        ("ins not a list", "malformed operadkit-mapfamily document"),
    ])
    def test_family(self, runner, tmp_path, command, fault, message):
        doc = _family_doc()
        if fault == "coefficient":
            doc["maps"]["2"][0][2] = [1]
        elif fault == "missing key":
            del doc["names"]
        else:
            doc["maps"]["2"][0][1] = 0
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        res = run(runner, command, str(path))
        assert res.exit_code == 2
        assert message in res.output

    @pytest.mark.parametrize("command", ["er", "dk"])
    @pytest.mark.parametrize("fault, message", [
        ("coefficient", "coefficient [1] is neither an int nor a string"),
        ("missing key", "lacks the key 'components'"),
        ("level 99", "differential raises filtration at arity 2: 4 -> 0"),
        ("output index", "index 1000000 outside the arity-3 component"),
        # a map that keeps the levels but is no differential
        ("degree 0", "the arity-2 differential entry (0,0) violates degree -1"),
        ("d.d != 0", "the arity-2 differential squared is nonzero"),
        # composition and action records that would be read as another
        # operad: each is named, not dropped or overwritten
        ("slot 7", "composition record (n, i, m) = (2, 7, 2): slot 7 "
                   "outside 1..2"),
        ("no component", "composition record (n, i, m) = (3, 1, 2): no "
                         "arity-4 component"),
        ("second composition", "composition record (n, i, m) = (2, 1, 2) "
                               "appears twice"),
        ("second action", "action record (n, sigma) = (2, [2, 1]) appears "
                          "twice"),
        # a record beside the generators' that disagrees with them
        ("3-cycle", "action record (n, sigma) = (3, [2, 3, 1]) disagrees "
                    "with its adjacent transpositions at basis element 1"),
        ("action arity 9", "action record (n, sigma) = (9, [1, 2, 3, 4, 5, "
                           "6, 7, 8, 9]): no arity-9 component"),
        ("differential arity 9", "differential record n = 9: no arity-9 "
                                 "component"),
        ("level arity 9", "filtration levels at arity 9: no arity-9 "
                          "component"),
    ])
    def test_filtered_operad(self, runner, tmp_path, command, fault, message):
        doc = _end_doc()
        names = doc["components"]["2"]["names"]
        if fault == "degree 0":
            assert names[0] == "f[e0|e0,e0]"
            doc["differentials"]["2"] = [[0, 0, "1"]]
        elif fault == "d.d != 0":
            # degrees 1 -> 0 -> -1, so d.d sends a to c
            a, b, c = (names.index(f"f[{x}]") for x in
                       ("e1|e0,e0", "e0|e0,e0", "e0|e0,e1"))
            doc["differentials"]["2"] = [[b, a, "1"], [c, b, "1"]]
        elif fault == "coefficient":
            doc["compositions"][0]["entries"][0][3] = [1]
        elif fault == "missing key":
            del doc["components"]
        elif fault == "level 99":
            doc["filtration_level"]["2"][0] = 99
        elif fault == "slot 7":
            rec = next(r for r in doc["compositions"]
                       if (r["n"], r["i"], r["m"]) == (2, 2, 2))
            rec["i"] = 7
        elif fault == "no component":
            rec = next(r for r in doc["compositions"]
                       if (r["n"], r["i"], r["m"]) == (2, 1, 2))
            rec["n"] = 3
        elif fault == "second composition":
            rec = next(r for r in doc["compositions"]
                       if (r["n"], r["i"], r["m"]) == (2, 1, 2))
            doc["compositions"].append(dict(rec, entries=[]))
        elif fault == "second action":
            rec = next(r for r in doc["actions"]
                       if (r["n"], r["sigma"]) == (2, [2, 1]))
            doc["actions"].append(dict(rec, entries=[]))
        elif fault == "3-cycle":
            rec = next(r for r in doc["actions"]
                       if (r["n"], r["sigma"]) == (3, [2, 1, 3]))
            doc["actions"].append(dict(rec, sigma=[2, 3, 1]))
        elif fault == "action arity 9":
            doc["actions"].append({"n": 9, "sigma": list(range(1, 10)),
                                   "entries": []})
        elif fault == "differential arity 9":
            doc["differentials"]["9"] = []
        elif fault == "level arity 9":
            doc["filtration_level"]["9"] = [0]
        else:
            rec = next(r for r in doc["compositions"]
                       if (r["n"], r["m"]) == (2, 2))
            rec["entries"][0][2] = 10 ** 6
        path = tmp_path / "filtered.json"
        path.write_text(json.dumps(doc))
        args = ["--r", "1", "--file", str(path)]
        if command == "dk":
            args += ["--k", "0"]
        res = run(runner, command, *args)
        assert res.exit_code == 2
        assert message in res.output

    @pytest.mark.parametrize("command", ["er", "dk"])
    def test_every_arity_of_the_document_is_checked(self, runner, tmp_path,
                                                    command):
        # a level fault at arity 4: refused at the default --max-arity 3,
        # named by validate at --max-arity 4
        doc = _end_doc(4)
        row, col, _ = doc["differentials"]["4"][0]
        doc["filtration_level"]["4"][row] = 99
        path = tmp_path / "filtered.json"
        path.write_text(json.dumps(doc))
        args = ["--r", "1", "--file", str(path)]
        if command == "dk":
            args += ["--k", "0"]
        res = run(runner, command, *args)
        assert res.exit_code == 2
        assert "arity-4 component, above --max-arity 3" in res.output
        res = run(runner, command, *args, "--max-arity", "4")
        assert res.exit_code == 2
        assert (f"differential raises filtration at arity 4: {col} -> {row}"
                in res.output)


def _assert_refused(res, message):
    """Exit 2 with ``message`` on stderr, and no traceback (the runner
    lets any exception but SystemExit through)."""
    assert res.exit_code == 2
    assert message in res.stderr, res.stderr


def _write(tmp_path, text) -> str:
    path = tmp_path / "doc.json"
    path.write_text(text)
    return str(path)


class TestUnreadableDocuments:
    """JSON that the parser cannot hold and coefficients of any other
    form than an optional sign, digits and an optional nonzero
    denominator exit 2 with a message, in map families and operads."""

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits")
                        or not sys.get_int_max_str_digits(),
                        reason="no limit on integer digits")
    def test_integer_past_the_digit_limit(self, runner, tmp_path):
        text = json.dumps(_family_doc()).replace(
            '"q": []', '"q": [[0, 1, 1%s]]'
            % ("0" * sys.get_int_max_str_digits()))
        res = run(runner, "check-ainf", _write(tmp_path, text))
        _assert_refused(res, "Exceeds the limit")

    def test_nesting_past_the_recursion_limit(self, runner, tmp_path):
        depth = 200_000
        text = json.dumps(_family_doc()).replace(
            '"q": []', '"q": ' + "[" * depth + "]" * depth)
        res = run(runner, "check-ainf", _write(tmp_path, text))
        _assert_refused(res, "recursion")

    def test_zero_denominator_in_a_map_family(self, runner, tmp_path):
        doc = _family_doc()
        doc["q"] = [[0, 1, "1/0"]]
        res = run(runner, "check-ainf", _write(tmp_path, json.dumps(doc)))
        _assert_refused(res, "coefficient '1/0' is not of the form")

    def test_zero_denominator_in_an_operad_unit(self, runner, tmp_path):
        doc = _end_doc()
        doc["unit"][next(iter(doc["unit"]))] = "-2/000"
        res = run(runner, "er", "--r", "1", "--file",
                  _write(tmp_path, json.dumps(doc)))
        _assert_refused(res, "coefficient '-2/000' is not of the form")

    @pytest.mark.parametrize("coeff", ["1e3", " 1", "1.0", "1/-2", "1/", "١"])
    def test_other_coefficient_forms(self, runner, tmp_path, coeff):
        doc = _family_doc()
        doc["maps"]["2"][0][2] = coeff
        res = run(runner, "check-ainf", _write(tmp_path, json.dumps(doc)))
        _assert_refused(res, f"coefficient {coeff!r} is not of the form")

    @pytest.mark.parametrize("key", ["\u0662", " 2", "+2"])
    def test_map_arity_in_other_digits(self, runner, tmp_path, key):
        # int() reads each of these as 2; only the digits 0-9 are arities
        doc = _family_doc()
        doc["maps"][key] = doc["maps"].pop("2")
        res = run(runner, "check-cinf", _write(tmp_path, json.dumps(doc)))
        _assert_refused(res, f"maps: arity {key!r} is not written in the "
                             "digits 0-9")

    @pytest.mark.parametrize("command", ["er", "dk"])
    @pytest.mark.parametrize("key", ["\u0662", " 2", "+2"])
    def test_component_arity_in_other_digits(self, runner, tmp_path,
                                             command, key):
        doc = _end_doc()
        doc["components"][key] = doc["components"].pop("2")
        args = ["--r", "1", "--file", _write(tmp_path, json.dumps(doc))]
        if command == "dk":
            args += ["--k", "0"]
        _assert_refused(run(runner, command, *args),
                        f"components: arity {key!r} is not written in the "
                        "digits 0-9")

    def test_huge_exponent_is_refused_at_once(self, tmp_path):
        # Fraction("1e99999999") would build 10**99999999 first
        doc = _family_doc()
        doc["maps"]["2"][0][2] = "1e99999999"
        res = subprocess.run(
            [sys.executable, "-m", "operadkit.cli", "check-ainf",
             _write(tmp_path, json.dumps(doc))],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(
                Path(operadkit.__file__).parents[1])})
        assert res.returncode == 2
        assert "is not of the form" in res.stderr
        assert "Traceback" not in res.stderr


class TestRepeatsAreRefused:
    """A key, an arity or a table cell named twice exits 2 naming it,
    where the last value read used to win."""

    @pytest.mark.parametrize("fault, message", [
        ("arity spelt twice", "maps: arity 2 appears twice"),
        ("entry twice", "m_2 entry (0, (0, 0)) appears twice"),
        ("key twice", "JSON object key 'names' appears twice"),
    ])
    def test_family(self, runner, tmp_path, fault, message):
        doc = _family_doc()
        if fault == "arity spelt twice":
            doc["maps"]["02"] = doc["maps"]["2"]
        elif fault == "entry twice":
            doc["maps"]["2"].append(doc["maps"]["2"][0])
        text = json.dumps(doc)
        if fault == "key twice":
            text = text.replace('"names":', '"names": ["y"], "names":', 1)
        res = run(runner, "check-ainf", _write(tmp_path, text))
        _assert_refused(res, message)

    @pytest.mark.parametrize("fault, message", [
        ("component spelt twice", "components: arity 2 appears twice"),
        ("unit index spelt twice", "unit: index 0 appears twice"),
        ("differential spelt twice", "differentials: arity 2 appears twice"),
        ("levels spelt twice", "filtration_level: arity 2 appears twice"),
        ("composition cell twice", "composition record (n, i, m) = "
                                   "(2, 1, 2): cell (0, 0) -> "),
        ("action cell twice", "action record (n, sigma) = (2, [2, 1]): "
                              "cell 0 -> "),
        ("key twice", "JSON object key 'unit' appears twice"),
    ])
    def test_filtered_operad(self, runner, tmp_path, fault, message):
        doc = _end_doc()
        if fault == "component spelt twice":
            doc["components"]["02"] = doc["components"]["2"]
        elif fault == "levels spelt twice":
            doc["filtration_level"]["02"] = doc["filtration_level"]["2"]
        elif fault == "differential spelt twice":
            doc["differentials"]["02"] = doc["differentials"]["2"]
        elif fault == "unit index spelt twice":
            assert "0" in doc["unit"]
            doc["unit"]["00"] = doc["unit"]["0"]
        elif fault == "composition cell twice":
            rec = next(r for r in doc["compositions"]
                       if (r["n"], r["i"], r["m"]) == (2, 1, 2))
            rec["entries"].append(rec["entries"][0])
            assert rec["entries"][0][:2] == [0, 0]
        elif fault == "action cell twice":
            rec = next(r for r in doc["actions"]
                       if (r["n"], r["sigma"]) == (2, [2, 1]))
            rec["entries"].append(rec["entries"][0])
            assert rec["entries"][0][0] == 0
        text = json.dumps(doc)
        if fault == "key twice":
            text = text.replace('"unit":', '"unit": {}, "unit":', 1)
        res = run(runner, "er", "--r", "1", "--file", _write(tmp_path, text))
        _assert_refused(res, message)


class TestDkCertificate:
    def test_fault_injected_composition_fails_with_witness(self, runner,
                                                           tmp_path):
        # send one arity (2, 2) composite to a basis element of lower
        # filtration level: the flags stay compatible, so the document
        # validates and pages, but the composite leaves its bigrade
        doc = _end_doc()
        levels = doc["filtration_level"]["3"]
        rec = next(r for r in doc["compositions"]
                   if (r["n"], r["i"], r["m"]) == (2, 1, 2))
        entry = next(e for e in rec["entries"] if levels[e[2]] == 1)
        entry[2] = levels.index(0)
        path = tmp_path / "faulty.json"
        path.write_text(json.dumps(doc))
        assert run(runner, "er", "--r", "1", "--file", str(path)).exit_code == 0
        res = run(runner, "dk", "--r", "1", "--k", "0", "--file", str(path))
        assert res.exit_code == 1
        assert "closure certificate: FAILED" in res.stdout
        assert res.stderr.splitlines() == [
            "numerator of bigrade (1, 0) o_1 (0, 0) at arities (2,2) "
            "leaves its target span",
            "1 closure failures"]

    def test_unaltered_document_passes(self, runner, tmp_path):
        path = tmp_path / "end.json"
        path.write_text(json.dumps(_end_doc()))
        res = run(runner, "dk", "--r", "1", "--k", "0", "--file", str(path))
        assert res.exit_code == 0
        assert res.stdout.endswith("closure certificate: ok\n")


# stdout of each command, byte for byte, as recorded before stable graphs
# were canonicalized within genus classes and cobar dimensions counted
GRAPHS_1_2 = (
    "V[1] E[] L[0,0]  edges=0 aut=1\n"
    "V[0] E[0-0] L[0,0]  edges=1 aut=2\n"
    "V[0,1] E[0-1] L[0,0]  edges=1 aut=1\n"
    "V[0,0] E[0-0 0-1] L[1,1]  edges=2 aut=2\n"
    "V[0,0] E[0-1 0-1] L[0,1]  edges=2 aut=2\n"
)

GRAPHS_0_5 = (
    "V[0] E[] L[0,0,0,0,0]  edges=0 aut=1\n"
    "V[0,0] E[0-1] L[0,0,0,1,1]  edges=1 aut=1\n"
    "V[0,0] E[0-1] L[0,0,1,0,1]  edges=1 aut=1\n"
    "V[0,0] E[0-1] L[0,0,1,1,0]  edges=1 aut=1\n"
    "V[0,0] E[0-1] L[0,0,1,1,1]  edges=1 aut=1\n"
    "V[0,0] E[0-1] L[0,1,0,0,1]  edges=1 aut=1\n"
    "V[0,0] E[0-1] L[0,1,0,1,0]  edges=1 aut=1\n"
    "V[0,0] E[0-1] L[0,1,0,1,1]  edges=1 aut=1\n"
    "V[0,0] E[0-1] L[0,1,1,0,0]  edges=1 aut=1\n"
    "V[0,0] E[0-1] L[0,1,1,0,1]  edges=1 aut=1\n"
    "V[0,0] E[0-1] L[0,1,1,1,0]  edges=1 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[0,1,1,2,2]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[0,1,2,1,2]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[0,1,2,2,1]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[1,0,1,2,2]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[1,0,2,1,2]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[1,0,2,2,1]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[1,1,0,2,2]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[1,1,2,0,2]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[1,1,2,2,0]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[1,2,0,1,2]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[1,2,0,2,1]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[1,2,1,0,2]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[1,2,1,2,0]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[1,2,2,0,1]  edges=2 aut=1\n"
    "V[0,0,0] E[0-1 0-2] L[1,2,2,1,0]  edges=2 aut=1\n"
)

COBAR_ASC_5 = "e=0: 120\ne=1: 1080\ne=2: 2520\ne=3: 1680\n"


def _json_stdout(doc) -> str:
    return json.dumps(doc, indent=1) + "\n"


GRAPHS_2_0_JSON = _json_stdout({
    "g": 2, "n": 0, "count": 7,
    "graphs": [{"graph": graph, "edges": edges, "aut_order": aut}
               for graph, edges, aut in [
        ("V[2] E[] L[]", 0, 1),
        ("V[1] E[0-0] L[]", 1, 2),
        ("V[0] E[0-0 0-0] L[]", 2, 8),
        ("V[1,1] E[0-1] L[]", 1, 2),
        ("V[0,1] E[0-0 0-1] L[]", 2, 2),
        ("V[0,0] E[0-0 0-1 1-1] L[]", 3, 8),
        ("V[0,0] E[0-1 0-1 0-1] L[]", 3, 12),
    ]]})

MIDDLE_ROW_6_JSON = _json_stdout({
    "arity": 6,
    "e1_row": {"0": 945, "1": 2520, "2": 2380, "3": 924, "4": 120},
    "cobar": {"0": 945, "1": 2520, "2": 2380, "3": 924, "4": 120},
    "equal": True})

E1_1_2_JSON = _json_stdout({
    "format": "operadkit-e1", "g": 1, "n": 2,
    "entries": [[0, 0, 2], [1, 0, 2], [1, 1, 2], [2, 1, 1], [2, 2, 1]]})


class TestGoldenOutput:
    @pytest.mark.parametrize("args, stdout", [
        ("graphs --g 1 --n 2", GRAPHS_1_2),
        ("graphs --g 0 --n 5", GRAPHS_0_5),
        ("graphs --g 2 --n 0 --format json", GRAPHS_2_0_JSON),
        ("middle-row --arity 6 --format json", MIDDLE_ROW_6_JSON),
        ("cobar --cooperad asc --arity 5", COBAR_ASC_5),
    ])
    def test_stdout_is_pinned(self, runner, args, stdout):
        res = run(runner, *args.split())
        assert (res.exit_code, res.stdout) == (0, stdout)

    def test_e1_at_genus_one(self, runner, tmp_path):
        # without Betti data the page cannot be built: a usage error
        res = run(runner, "e1", "--g", "1", "--n", "2", "--format", "json")
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == ("Error: no Betti data for (g, n) = (1, 2); "
                              "ingest a table\n")
        csv = tmp_path / "betti.csv"
        csv.write_text("g,n,k,dim\n1,1,0,1\n1,2,0,1\n1,2,1,1\n1,3,0,1\n")
        res = run(runner, "e1", "--g", "1", "--n", "2", "--betti", str(csv),
                  "--aut-mode", "ignore", "--format", "json")
        assert (res.exit_code, res.stdout) == (0, E1_1_2_JSON)

    def test_e1_at_genus_two_without_legs(self, runner, tmp_path):
        from operadkit.strata import BettiTable, e1_table
        text = "g,n,k,dim\n2,0,0,1\n1,2,0,1\n"
        csv = tmp_path / "betti.csv"
        csv.write_text(text)
        res = run(runner, "e1", "--g", "2", "--n", "0", "--betti", str(csv),
                  "--aut-mode", "ignore", "--format", "csv")
        page = e1_table(2, 0, BettiTable.from_csv(text), aut_mode="ignore")
        assert (res.exit_code, res.stdout) == (0, page.render("csv"))


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("trees", "--n", "4", "--format", "json"),
        ("e1", "--n", "5", "--format", "json"),
        ("cobar", "--cooperad", "liec", "--arity", "4", "--format", "json"),
        ("dual-e1", "--n", "4", "--format", "json"),
    ])
    def test_byte_identical_reruns(self, runner, args):
        assert run(runner, *args).output == run(runner, *args).output


COMMAND_OPTIONS = {
    "trees": ["--n", "--edges", "--count", "--format"],
    "graphs": ["--g", "--n", "--max-edges", "--count", "--format"],
    "axioms": ["--operad", "--max-arity"],
    "free-dims": ["--operad", "--d", "--max-arity"],
    "cobar": ["--cooperad", "--arity", "--format"],
    "cobar-homology": ["--cooperad", "--arity", "--no-cache", "--format"],
    "e1": ["--g", "--n", "--betti", "--aut-mode", "--format"],
    "betti-predict": ["--n", "--format"],
    "middle-row": ["--arity", "--format"],
    "dual-e1": ["--g", "--n", "--format"],
    "check-ainf": ["FAMILY_FILE", "--max-arity"],
    "check-cinf": ["FAMILY_FILE", "--max-arity"],
    "er": ["--r", "--fixture", "--file", "--max-arity", "--format"],
    "dk": ["--r", "--k", "--fixture", "--file", "--max-arity", "--format"],
    "pipeline-cinf": ["--max-arity", "--dim"],
}


class TestContract:
    """Version, help and usage errors, as the console script shows them."""

    def test_version(self, cli):
        res = cli(["--version"])
        assert res.exit_code == 0
        assert res.stdout == f"operadkit, version {operadkit.__version__}\n"

    def test_help_names_every_command(self, cli):
        res = cli(["--help"])
        assert res.exit_code == 0
        for name in COMMAND_OPTIONS:
            assert re.search(rf"^\s+{name}\s", res.stdout, re.M), name

    @pytest.mark.parametrize("command", COMMAND_OPTIONS)
    def test_command_help_names_every_option(self, cli, command):
        res = cli([command, "--help"])
        assert res.exit_code == 0
        for option in COMMAND_OPTIONS[command]:
            assert re.search(rf"{option}\b", res.stdout), option

    # each bad input of the benchmark's cli-session, run where its
    # input file does not exist, then three parser errors, then each
    # input-file argument given a directory and --betti given a file
    # that is not UTF-8
    @pytest.mark.parametrize("argv, named", [
        ("trees --n 9 --count", "--n"),
        ("cobar --cooperad asc --arity 6", "--arity"),
        ("cobar-homology --cooperad liec --arity 7", "--arity"),
        ("axioms --operad lie --max-arity 7", "--max-arity"),
        ("graphs --g 2 --n 1", "3g - 3 + n <= 3"),
        ("e1 --g 1 --n 6", "3g - 3 + n <= 5"),
        ("free-dims --operad comm --d 7", "--d"),
        ("betti-predict --n 2", "--n"),
        ("middle-row --arity 8", "--arity"),
        ("check-ainf garbage.json", "garbage.json"),
        ("trees --bogus", "--bogus"),
        ("frobnicate", "frobnicate"),
        ("trees --count", "--n"),
        ("trees --n x", "--n"),
        # int() also reads other scripts' digits, '_' and '+'
        ("trees --n \u0664 --count",
         "argument --n: '\u0664' is not an integer in the digits 0-9"),
        ("trees --n 1_0 --count",
         "argument --n: '1_0' is not an integer in the digits 0-9"),
        ("betti-predict --n +5",
         "argument --n: '+5' is not an integer in the digits 0-9"),
        ("trees --n 3 --format xml", "--format"),
        ("check-ainf .", "argument FAMILY_FILE: cannot read '.'"),
        ("check-cinf .", "argument FAMILY_FILE: cannot read '.'"),
        ("e1 --n 5 --betti .", "argument --betti: cannot read '.'"),
        ("er --r 1 --file .", "argument --file: cannot read '.'"),
        ("dk --r 1 --k 0 --file .", "argument --file: cannot read '.'"),
        ("e1 --n 5 --betti latin1.csv",
         "argument --betti: 'latin1.csv' is not UTF-8 text"),
        # each limit in full: both sides of the three caps that depend on
        # --operad/--cooperad, and the ranges of --edges, --max-edges and
        # the relation arity (an unstable (g, n) keeps the library's error)
        ("axioms --operad cobar-liec --max-arity 5",
         "--max-arity must be between 1 and 4 (got 5)"),
        ("cobar --cooperad liec --arity 8",
         "--arity must be between 2 and 7 (got 8)"),
        ("cobar-homology --cooperad asc --arity 6",
         "--arity must be between 2 and 5 (got 6)"),
        ("trees --n 4 --edges 99", "--edges must be between 0 and 2 (got 99)"),
        ("trees --n 4 --edges -1 --count",
         "--edges must be between 0 and 2 (got -1)"),
        ("graphs --g 0 --n 3 --max-edges -5",
         "--max-edges must be between 0 and 0 (got -5)"),
        ("graphs --g 0 --n 2 --max-edges 0", "violates 2g-2+n > 0"),
        ("check-ainf product.json --max-arity 1",
         "--max-arity must be at least 2 (got 1)"),
        ("check-cinf product.json --max-arity 1",
         "--max-arity must be at least 2 (got 1)"),
        # genus 0 needs three punctures, so --n's floor depends on --g
        ("e1 --n 1", "--n must be between 3 and 12 (got 1)"),
        ("e1 --n 2", "--n must be between 3 and 12 (got 2)"),
        ("e1 --g 1 --n 0", "--n must be between 1 and 12 (got 0)"),
        # (2, 0) is stable: it reaches the library, which needs Betti data
        ("e1 --g 2 --n 0",
         "no Betti data for (g, n) = (2, 0); ingest a table"),
    ])
    def test_usage_error(self, runner, tmp_path, monkeypatch, argv, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "latin1.csv").write_bytes("g,n,k,dim\né\n".encode("latin-1"))
        product_file(tmp_path)
        res = run(runner, *argv.split())
        assert res.exit_code == 2
        assert res.stdout == ""
        [error] = res.stderr.splitlines()
        assert error.startswith("Error: ") and named in error


class TestTracerContract:
    """The benchmark's tracer wraps ``main.commands[name].callback`` and
    calls ``main.main(args=..., prog_name="operadkit")``."""

    def test_dispatch_goes_through_the_callback_entry(self, cli, monkeypatch):
        command = main.commands["betti-predict"]
        seen = []
        original = command.callback

        def recording(**params):
            seen.append(params)
            return original(**params)
        monkeypatch.setattr(command, "callback", recording)
        res = cli(["betti-predict", "--n", "4"])
        assert res.exit_code == 0 and res.stdout == "1,1\n"
        assert seen == [{"n": 4, "fmt": "text"}]

    def test_the_benchmark_tracer_fits_the_command_line(self, tmp_path):
        # perfbench/clitrace.py runs a command with the tracer installed:
        # it patches cli._cache_lookup, wraps each Command.callback and
        # calls main.main(args=..., prog_name=...)
        root = Path(operadkit.__file__).resolve().parents[2]
        env = dict(os.environ, OPERADKIT_CACHE_DIR=str(tmp_path / "cache"))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        homology = "cobar-homology --cooperad liec --arity 3"
        runs = [(homology, 0), (homology, 0), ("trees --n 4 --count", 0),
                ("frobnicate", 2)]
        counts, spans = {}, []
        for i, (argv, code) in enumerate(runs):
            dump = tmp_path / f"trace{i}.json"
            res = subprocess.run(
                [sys.executable, str(root / "perfbench" / "clitrace.py"),
                 str(dump), *argv.split()], cwd=tmp_path, env=env,
                capture_output=True, text=True)
            assert res.returncode == code, (argv, res.stderr)
            doc = json.loads(dump.read_text())
            for key, value in doc["counts"].items():
                counts[key] = counts.get(key, 0) + value
            spans.append({span[0] for span in doc["spans"]})
        assert counts.get("cli.cache_misses") == 1
        assert counts.get("cli.cache_hits") == 1
        assert ["cli.command" in names for names in spans] == [
            True, True, True, False]

    @pytest.mark.parametrize("args, code", [
        (["betti-predict", "--n", "4"], 0),
        (["check-ainf", "NONASSOC", "--max-arity", "3"], 1),
        (["trees", "--n", "9"], 2),
    ])
    def test_main_exits_with_the_command_code(self, tmp_path, args, code):
        nonassoc = TestHomotopyCommands.family_file(tmp_path,
                                                    associative=False)
        args = [nonassoc if a == "NONASSOC" else a for a in args]
        with pytest.raises(SystemExit) as info:
            main.main(args=args, prog_name="operadkit")
        assert info.value.code == code


class TestLazyImports:
    """A command imports only the library modules it runs, and a cache
    hit imports none: where no byte-code cache is usable, every module
    imported is compiled from source on each run."""

    @staticmethod
    def loaded_after(code: str, cache_dir: Path | None = None,
                     prefix: str = "operadkit") -> list[str]:
        """The modules named prefix... a fresh interpreter holds after
        code."""
        env = dict(os.environ)
        src = str(Path(operadkit.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        if cache_dir is not None:
            env["OPERADKIT_CACHE_DIR"] = str(cache_dir)
        probe = code + ("\nimport json, sys\nprint(json.dumps(sorted("
                        f"m for m in sys.modules if m.startswith({prefix!r}))))")
        res = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        return json.loads(res.stdout.splitlines()[-1])

    def test_hoalg_leaves_cobar_and_treegraph_unloaded(self):
        loaded = self.loaded_after("import operadkit.hoalg")
        assert "operadkit.hoalg" in loaded
        assert "operadkit.cobar" not in loaded
        assert "operadkit.treegraph" not in loaded

    def test_axiom_checker_loads_on_first_use(self):
        assert self.loaded_after("import operadkit.operads") == [
            "operadkit", "operadkit.operads", "operadkit.qlinalg"]
        loaded = self.loaded_after("from operadkit.operads import check_axioms")
        assert "operadkit.axioms" in loaded

    def test_cache_hit_imports_no_library_module(self, cli, tmp_path,
                                                 monkeypatch):
        args = ["cobar-homology", "--cooperad", "liec", "--arity", "4"]
        monkeypatch.setenv("OPERADKIT_CACHE_DIR", str(tmp_path / "cache"))
        seeded = run(cli, *args)
        assert seeded.exit_code == 0
        assert list((tmp_path / "cache").glob("*.json"))
        loaded = self.loaded_after(
            f"from operadkit.cli import main\n"
            f"main({args!r})", tmp_path / "cache")
        assert loaded == ["operadkit", "operadkit.cli"]

    @pytest.mark.parametrize("args", [
        ["middle-row", "--arity", "4"], ["trees", "--n", "3", "--count"],
        ["cobar-homology", "--cooperad", "liec", "--arity", "3"]])
    def test_no_click_and_no_hashlib_outside_the_cache(self, tmp_path, args):
        # the cobar-homology cache key is hashed by the interpreter's
        # built-in SHA-256, so no command, on a miss or on a hit, maps
        # OpenSSL's libcrypto through hashlib
        for _ in range(2):
            loaded = self.loaded_after(
                f"from operadkit.cli import main\nassert main({args!r}) == 0",
                tmp_path / "cache", prefix="")
            assert "operadkit.cli" in loaded
            assert "click" not in loaded
            assert "hashlib" not in loaded and "_hashlib" not in loaded
        if args[0] != "cobar-homology":
            return
        # the entry is named by hashlib's SHA-256 of the key, whose
        # source digest is hashlib's over the package's files
        import hashlib
        source = hashlib.sha256()
        for path in sorted(Path(operadkit.__file__).parent.glob("*.py")):
            source.update(path.name.encode())
            source.update(path.read_bytes())
        key = json.dumps({"op": "cobar-homology",
                          "params": {"cooperad": "liec", "arity": 3},
                          "version": operadkit.__version__,
                          "source": source.hexdigest()}, sort_keys=True)
        digest = hashlib.sha256(key.encode()).hexdigest()
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [
            f"{digest}.json"]
