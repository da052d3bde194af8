"""End-to-end runs of the command line interface."""

import dataclasses
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIG2 = str(ROOT / "tests" / "fixtures" / "fig2.kbi")

TWO_CYCLE = """{
  "signature": {"concepts": [], "roles": ["r"], "individuals": ["a1", "a2"]},
  "interpretations": {
    "C": {
      "domain": ["a1", "a2"],
      "concepts": {},
      "roles": {"r": [["a1", "a2"], ["a2", "a1"]]},
      "individuals": {"a1": "a1", "a2": "a2"}
    }
  }
}
"""

TRIANGLE = """{
  "signature": {"concepts": [], "roles": ["r"], "individuals": ["a", "b1", "b2"]},
  "phi": "Q",
  "interpretations": {
    "T": {
      "domain": ["a", "b1", "b2"],
      "concepts": {},
      "roles": {"r": [["a", "a"], ["a", "b1"], ["a", "b2"], ["b1", "b2"], ["b2", "b1"]]},
      "individuals": {"a": "a", "b1": "b1", "b2": "b2"}
    }
  }
}
"""

SINGLETON = """{
  "signature": {"concepts": ["A"], "roles": ["r"], "individuals": []},
  "interpretations": {
    "S": {"domain": ["x"], "concepts": {"A": ["x"]}, "roles": {"r": [["x", "x"]]},
          "individuals": {}}
  }
}
"""

CHAIN_WITH_RBOX = """{
  "signature": {"concepts": [], "roles": ["r"], "individuals": ["a", "b", "c"]},
  "interpretations": {
    "K": {
      "domain": ["a", "b", "c"],
      "concepts": {},
      "roles": {"r": [["a", "b"], ["b", "c"]]},
      "individuals": {"a": "a", "b": "b", "c": "c"}
    }
  },
  "kb": {"rbox": ["r ; r sub r"], "tbox": [], "abox": []}
}
"""

FAILING_KB = """{
  "signature": {"concepts": ["A"], "roles": [], "individuals": ["a"]},
  "interpretations": {
    "M": {"domain": ["a", "y"], "concepts": {"A": ["a"]}, "roles": {},
          "individuals": {"a": "a"}}
  },
  "kb": {"rbox": [], "tbox": ["top sub A"], "abox": ["A(a)"]}
}
"""


def child_env():
    env = dict(os.environ)
    # the child imports dlbisim from this checkout, installed or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run(*args, stdin=None, address_space=None):
    """Run the command line in a child process; address_space caps the
    child's address space, in bytes."""
    env = child_env()
    cap = None
    if address_space is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"  # each BLAS thread reserves its own buffers
        cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run([sys.executable, "-m", "dlbisim", *args],
                          input=stdin, capture_output=True, text=True,
                          env=env, cwd=str(ROOT), preexec_fn=cap)


class TestPartition:
    def test_fig2_blocks(self):
        out = run("partition", "-i", FIG2, "--phi", "IO", "-I", "I2")
        assert out.returncode == 0
        assert out.stdout == ("block 0: a\nblock 1: b\nblock 2: c\n"
                              "block 3: v1\nblock 4: v2 v4\nblock 5: v3\n")

    def test_everything_distinct_without_features(self):
        out = run("partition", "-i", FIG2, "--phi", "", "-I", "I1")
        assert out.returncode == 0
        assert out.stdout == ("block 0: a\nblock 1: b\nblock 2: c\n"
                              "block 3: u1\nblock 4: u2\nblock 5: u3\n")

    def test_phi_defaults_to_the_document(self):
        explicit = run("partition", "-i", FIG2, "--phi", "IOQ", "-I", "I1")
        implied = run("partition", "-i", FIG2, "-I", "I1")
        assert implied.returncode == 0
        assert implied.stdout == explicit.stdout

    def test_singleton_doc(self):
        out = run("partition", "-i", "-", "--phi", "", "-I", "S", stdin=SINGLETON)
        assert out.returncode == 0
        assert out.stdout == "block 0: x\n"

    def test_nominals_split_the_cycle(self):
        out = run("partition", "-i", "-", "--phi", "O", "-I", "C", stdin=TWO_CYCLE)
        assert out.returncode == 0
        assert out.stdout == "block 0: a1\nblock 1: a2\n"

    def test_json_blocks(self):
        out = run("partition", "-i", FIG2, "--phi", "IO", "-I", "I2", "--json")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc == {"blocks": [["a"], ["b"], ["c"], ["v1"], ["v2", "v4"], ["v3"]]}


class TestBisim:
    def test_bisimilar_with_inverse_and_nominals(self):
        out = run("bisim", "-i", FIG2, "--phi", "IO", "-l", "I1", "-r", "I2")
        assert out.returncode == 0
        assert out.stdout == "BISIMILAR\npairs: 7\n"

    def test_counting_separates_with_a_named_record(self):
        out = run("bisim", "-i", FIG2, "--phi", "Q", "-l", "I1", "-r", "I2")
        assert out.returncode == 1
        assert out.stdout == "NOT BISIMILAR\ncondition 4 fails at (a, c)\n"

    def test_json_verdicts(self):
        yes = run("bisim", "-i", FIG2, "--phi", "IO", "-l", "I1", "-r", "I2", "--json")
        assert yes.returncode == 0
        doc = json.loads(yes.stdout)
        assert doc["bisimilar"] is True
        assert len(doc["pairs"]) == 7
        assert ["a", "a"] in doc["pairs"]
        no = run("bisim", "-i", FIG2, "--phi", "Q", "-l", "I1", "-r", "I2", "--json")
        assert no.returncode == 1
        assert json.loads(no.stdout) == {"bisimilar": False}

    def test_json_pairs_are_written_as_the_general_encoder_writes_them(self):
        from dlbisim.bisim import bisimulation_pairs
        from dlbisim.core import FeatureSet
        from dlbisim.document import dumps_document, dumps_pairs, load_workspace

        def expected(pairs, left, right):
            doc = {"bisimilar": pairs is not None}
            if pairs is not None:
                doc["pairs"] = [[left[x], right[y]] for x, y in pairs]
            return dumps_document(doc)

        ws = load_workspace(FIG2)
        for phi in ("", "IO", "Q"):
            for lname, rname in (("I1", "I2"), ("I2", "I3")):
                left, right = ws.element_names[lname], ws.element_names[rname]
                args = (FeatureSet.from_string(phi), ws.interpretation(lname), ws.interpretation(rname))
                pairs = bisimulation_pairs(*args)
                listed = None if pairs is None else list(pairs)
                assert dumps_pairs(bisimulation_pairs(*args), left, right) == \
                    expected(listed, left, right)
        names = ("plain", 'say "hi"', "back\\slash", "tab\t", "naïve", "日本", "\U0001f600")
        everything = [(x, y) for x in range(len(names)) for y in range(len(names))]
        for pairs in (None, [], [(3, 5)], everything):
            assert dumps_pairs(None if pairs is None else iter(pairs), names, names) == \
                expected(pairs, names, names)


class TestEval:
    def test_concept_extension(self):
        out = run("eval", "-i", FIG2, "-I", "I1", "--phi", "", "-c",
                  "some r (F and not M)")
        assert out.returncode == 0
        assert out.stdout == "c\nu1\n"

    def test_role_extension(self):
        out = run("eval", "-i", FIG2, "-I", "I1", "--phi", "", "--role", "(r ; r)")
        assert out.returncode == 0
        assert out.stdout == "a u2\na u3\nb u2\nb u3\n"

    def test_qs_document_round_trip(self, tmp_path):
        src = tmp_path / "tri.kbi"
        src.write_text(TRIANGLE)
        packed = tmp_path / "packed.kbi"
        mini = run("minimize", "-i", str(src), "-I", "T", "--qs", "-o", str(packed))
        assert mini.returncode == 0
        doc = json.loads(packed.read_text())
        body = doc["interpretations"]["T"]
        assert body["domain"] == ["a", "b1"]
        assert body["individuals"]["b2"] == "b1"
        assert ["a", "b1", 2] in body["counts"]["r"]["forward"]
        assert body["self_loops"] == {"r": ["a"]}
        # the multiplicities restore the collapsed out-degree of 3
        summary = run("eval", "-i", str(packed), "-I", "T", "--qs",
                      "-c", "atleast 3 r top")
        assert summary.returncode == 0 and summary.stdout == "a\n"
        plain = run("eval", "-i", str(packed), "-I", "T", "-c", "atleast 3 r top")
        assert plain.returncode == 0 and plain.stdout == ""
        loops = run("eval", "-i", str(packed), "-I", "T", "--qs", "--phi", "QS",
                    "-c", "self r")
        assert loops.returncode == 0 and loops.stdout == "a\n"


class TestCheckKB:
    def test_fig2_holds_everywhere(self):
        expected = ("tbox[0] holds: not F sub M\n"
                    "tbox[1] holds: {a} sub all (r)* ({a} or atleast 2 inv(r) top)\n"
                    "abox[0] holds: F(a)\n"
                    "abox[1] holds: M(b)\n"
                    "abox[2] holds: F(c)\n"
                    "abox[3] holds: some r (some inv(r) {b} and"
                    " atleast 2 r some inv(r) {c})(a)\n")
        for name in ("I1", "I2", "I3"):
            out = run("check-kb", "-i", FIG2, "-I", name)
            assert out.returncode == 0
            assert out.stdout == expected

    def test_failures_flip_the_exit_code(self):
        out = run("check-kb", "-i", "-", "-I", "M", stdin=FAILING_KB)
        assert out.returncode == 1
        assert "tbox[0] FAILS: top sub A" in out.stdout
        assert "abox[0] holds: A(a)" in out.stdout


class TestWitness:
    def test_atom_witness(self):
        out = run("witness", "-i", FIG2, "-I", "I1", "--phi", "", "-l", "u2", "-r", "u3")
        assert out.returncode == 0
        assert out.stdout == "F\n"

    def test_nested_witness(self):
        out = run("witness", "-i", FIG2, "-I", "I1", "--phi", "", "-l", "c", "-r", "a")
        assert out.returncode == 0
        assert out.stdout == "some r F\n"

    def test_counting_witness(self):
        out = run("witness", "-i", FIG2, "-I", "I2", "--phi", "Q", "-l", "v1", "-r", "v3")
        assert out.returncode == 0
        assert out.stdout == "atleast 3 r top\n"

    def test_equivalent_elements_are_not_separated(self):
        out = run("witness", "-i", FIG2, "-I", "I2", "--phi", "IO", "-l", "v2", "-r", "v4")
        assert out.returncode == 1
        assert out.stdout == "NOT SEPARATED\n"

    @pytest.mark.parametrize("phi", ["", "Q"])
    def test_pair_parting_at_the_last_round(self, tmp_path, phi):
        # on a path with a marked end, x0 and x1 part only in round n - 2
        from dlbisim.core import FeatureSet
        from dlbisim.document import load_workspace
        from dlbisim.semantics import eval_concept
        from dlbisim.syntax import parse_concept

        n = 60
        names = ["x%d" % i for i in range(n)]
        path = tmp_path / "path.json"
        path.write_text(json.dumps({
            "signature": {"concepts": ["A"], "roles": ["r"], "individuals": []},
            "interpretations": {"I": {
                "domain": names, "concepts": {"A": [names[-1]]},
                "roles": {"r": [[a, b] for a, b in zip(names, names[1:])]}}}}))
        out = run("witness", "-i", str(path), "-I", "I", "--phi", phi, "-l", "x0", "-r", "x1")
        assert out.returncode == 0, out.stderr
        interp = load_workspace(str(path)).interpretation("I")
        ext = eval_concept(interp, parse_concept(out.stdout), FeatureSet.from_string(phi))
        assert 0 in ext and 1 not in ext

    def test_the_rounds_stop_where_the_pair_parts(self, tmp_path):
        # x57 and x58 of a 60-element path part at level 1 of 58; the text
        # is the one the full trace gives
        from dlbisim.core import FeatureSet, to_labeled_graph
        from dlbisim.document import load_workspace
        from dlbisim.quotient import separating_concept
        from dlbisim.refine import compute_partition
        from dlbisim.syntax import to_text

        n = 60
        names = ["x%d" % i for i in range(n)]
        path = tmp_path / "path.json"
        path.write_text(json.dumps({
            "signature": {"concepts": ["A"], "roles": ["r"], "individuals": []},
            "interpretations": {"I": {
                "domain": names, "concepts": {"A": [names[-1]]},
                "roles": {"r": [[a, b] for a, b in zip(names, names[1:])]}}}}))
        interp = load_workspace(str(path)).interpretation("I")
        _, full = compute_partition(FeatureSet(), to_labeled_graph(interp))
        for left, right, level in (("x57", "x58", 1), ("x0", "x1", 58), ("x58", "x59", 0)):
            out = run("witness", "-i", str(path), "-I", "I", "--phi", "", "-l", left, "-r", right,
                      "--stats")
            assert out.returncode == 0, out.stderr
            x, y = names.index(left), names.index(right)
            assert out.stdout == to_text(separating_concept(interp, full, x, y).concept) + "\n"
            rounds = [r["counters"]["rounds"] for r in json.loads(out.stderr)["refinements"]]
            assert rounds == [level]

    def test_numeric_element_references(self):
        by_name = run("witness", "-i", FIG2, "-I", "I1", "--phi", "", "-l", "u2", "-r", "u3")
        by_index = run("witness", "-i", FIG2, "-I", "I1", "--phi", "", "-l", "4", "-r", "5")
        assert by_index.returncode == 0
        assert by_index.stdout == by_name.stdout

    def test_reference_too_long_for_int_is_unknown(self, capsys):
        from dlbisim import cli

        ones = "1" * 5000
        argv = ["witness", "-i", FIG2, "-I", "I1", "-l", "a", "-r", ones]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: interpretation 'I1': unknown element '111")

    def test_print_limit(self, monkeypatch, capsys):
        from dlbisim import cli
        from dlbisim.syntax import ast_size, parse_concept

        text = "some r F"
        size = ast_size(parse_concept(text))
        argv = ["witness", "-i", FIG2, "-I", "I1", "--phi", "", "-l", "c", "-r", "a"]
        monkeypatch.setattr(cli, "WITNESS_LIMIT", size - 1)
        assert cli.main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: separating concept has %d nodes as a tree, above the print "
                           "limit of %d\n" % (size, size - 1))
        monkeypatch.setattr(cli, "WITNESS_LIMIT", size)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == text + "\n"


class TestMinimize:
    def test_fig2_merges_the_twin_leaves(self, tmp_path):
        target = tmp_path / "min.kbi"
        out = run("minimize", "-i", FIG2, "--phi", "IO", "-I", "I2", "-o", str(target))
        assert out.returncode == 0
        doc = json.loads(target.read_text())
        body = doc["interpretations"]["I2"]
        assert body["domain"] == ["a", "b", "c", "v1", "v2", "v3"]
        assert body["concepts"]["F"] == ["a", "c", "v2"]
        assert doc["phi"] == "IO"

    def test_minimized_model_is_bisimilar_to_the_source(self, tmp_path):
        from dlbisim.bisim import largest_bisimulation
        from dlbisim.core import FeatureSet
        from dlbisim.document import load_workspace

        target = tmp_path / "min.kbi"
        assert run("minimize", "-i", FIG2, "--phi", "IO", "-I", "I2",
                   "-o", str(target)).returncode == 0
        original = load_workspace(FIG2).interpretation("I2")
        reduced = load_workspace(str(target)).interpretation("I2")
        assert reduced.n == 6
        assert largest_bisimulation(FeatureSet.from_string("IO"), original, reduced) is not None

    def test_self_loops_collapse_to_one_element(self, tmp_path):
        src = tmp_path / "cycle.kbi"
        src.write_text(TWO_CYCLE)
        out = run("minimize", "-i", str(src), "--phi", "S", "-I", "C")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        body = doc["interpretations"]["C"]
        assert body["domain"] == ["a1"]
        assert body["roles"]["r"] == [["a1", "a1"]]
        qs = run("minimize", "-i", str(src), "--phi", "S", "-I", "C", "--qs")
        assert qs.returncode == 0
        packed = json.loads(qs.stdout)["interpretations"]["C"]
        assert packed["self_loops"] == {"r": []}

    @pytest.mark.parametrize("qs", [[], ["--qs"]])
    def test_numpy_ma_is_never_imported(self, qs):
        # the plain np.unique imports numpy.ma on its first call, tens of
        # milliseconds of CPU
        code = ("import io, sys\n"
                "from contextlib import redirect_stdout\n"
                "from dlbisim import cli\n"
                "with redirect_stdout(io.StringIO()):\n"
                "    code = cli.main(sys.argv[1:])\n"
                "print(code, 'numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code, "minimize", "-i", FIG2, "-I", "I2",
                              "--phi", "IOQUS", *qs], capture_output=True, text=True,
                             env=child_env())
        assert out.stdout == "0 False\n", out.stderr


class TestExtendRbox:
    def test_chain_axiom_closure(self):
        out = run("extend-rbox", "-i", "-", "-I", "K", stdin=CHAIN_WITH_RBOX)
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        edges = sorted(map(tuple, doc["interpretations"]["K"]["roles"]["r"]))
        assert edges == [("a", "b"), ("a", "c"), ("b", "c")]
        assert doc["kb"]["rbox"] == ["r ; r sub r"]

    def test_fig2_is_already_closed(self):
        out = run("extend-rbox", "-i", FIG2, "-I", "I1")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert sorted(map(tuple, doc["interpretations"]["I1"]["roles"]["r"])) == [
            ("a", "u1"), ("b", "u1"), ("c", "u2"), ("c", "u3"),
            ("u1", "u2"), ("u1", "u3"),
        ]


class TestGen:
    def test_seeded_and_loadable(self):
        first = run("gen", "--seed", "11", "--n", "6")
        again = run("gen", "--seed", "11", "--n", "6")
        other = run("gen", "--seed", "12", "--n", "6")
        assert first.returncode == 0
        assert first.stdout == again.stdout
        assert first.stdout != other.stdout
        piped = run("partition", "-i", "-", "--phi", "IQ", "-I", "I", stdin=first.stdout)
        assert piped.returncode == 0
        assert piped.stdout.startswith("block 0:")


class TestBench:
    def test_csv_shape(self):
        out = run("bench", "--sizes", "300,600", "--repeats", "1", "--engine", "numpy")
        assert out.returncode == 0
        rows = out.stdout.strip().split("\n")
        assert rows[0] == "n,sigma,millis"
        assert len(rows) == 3
        assert rows[1].startswith("300,3,") and rows[2].startswith("600,3,")
        for row in rows[1:]:
            float(row.split(",")[2])

    def test_engine_is_numpy_only(self):
        out = run("bench", "--sizes", "300", "--repeats", "1", "--engine", "numba")
        assert out.returncode == 2
        assert "invalid choice: 'numba'" in out.stderr

    def test_rejects_bad_sizes(self):
        out = run("bench", "--sizes", "12,-3")
        assert out.returncode == 3

    @pytest.mark.parametrize("size", ["\u00b2", "\u0663", "7" * 5000])
    def test_rejects_non_ascii_and_long_sizes(self, size):
        out = run("bench", "--sizes", size)
        assert out.returncode == 3, out.stderr
        assert out.stderr.startswith("error: sizes must be positive integers")


class TestFlagRanges:
    # MAX_ELEMENTS is patched to 40, so a missing check makes 41 elements
    # and fails rather than running for days; bench runs a size of 20
    @pytest.mark.parametrize("argv", [
        ["bench", "--max-out", "-1"],
        ["bench", "--concepts", "-1"],
        ["bench", "--roles", "-1"],
        ["bench", "--repeats", "0"],
        ["bench", "--seed", "-1"],
        ["gen", "--n", "0"],
        ["gen", "--n", "-3"],
        ["gen", "--n", "41"],
        ["gen", "--edge-density", "2"],
        ["gen", "--concept-density", "-0.5"],
        ["gen", "--edge-density", "nan"],
        ["gen", "--roles", "-1"],
        ["gen", "--concepts", "-2"],
        ["gen", "--individuals", "-1"],
    ], ids=" ".join)
    def test_out_of_range_flag_is_refused(self, argv, monkeypatch, capsys):
        from dlbisim import cli

        monkeypatch.setattr(cli, "MAX_ELEMENTS", 40)
        extra = ["--sizes", "20"] if argv[0] == "bench" else []
        try:
            code = cli.main(argv + extra + ["--output", os.devnull])
        except SystemExit as usage:
            code = usage.code
        assert code in (2, 3)
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert argv[1] in message and "internal error" not in message

    def test_bounds_are_accepted(self, monkeypatch, capsys):
        from dlbisim import cli

        monkeypatch.setattr(cli, "MAX_ELEMENTS", 40)
        assert cli.main(["gen", "--n", "40", "--edge-density", "1", "--concept-density", "0",
                         "--roles", "0", "--concepts", "0", "--individuals", "0"]) == 0
        assert cli.main(["gen", "--n", "1"]) == 0
        assert cli.main(["bench", "--sizes", "20", "--repeats", "1", "--max-out", "0",
                         "--roles", "0", "--concepts", "0", "--seed", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("20,0,")


class TestFailureModes:
    def test_invalid_json_is_a_parse_error(self):
        out = run("partition", "-i", "-", "--phi", "", "-I", "I", stdin="{bad json")
        assert out.returncode == 2
        assert "parse error" in out.stderr

    @pytest.mark.parametrize("opening", ['{"a":', "["])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_deeply_nested_json_is_a_parse_error(self, opening, source, tmp_path):
        depth = 100_000
        text = opening * depth + ("1" + "}" * depth if opening != "[" else "")
        path = tmp_path / "deep.json"
        path.write_text(text)
        if source == "file":
            out = run("partition", "-i", str(path), "--phi", "", "-I", "I")
        else:
            out = run("partition", "-i", "-", "--phi", "", "-I", "I", stdin=text)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == ("parse error: document nests arrays and objects more than 100 "
                              "levels deep (line 1, column %d)\n" % (len(opening) * 100 + 1))

    def test_bad_concept_grammar_is_a_parse_error(self):
        out = run("eval", "-i", FIG2, "-I", "I1", "--phi", "", "-c", "some r (")
        assert out.returncode == 2
        assert "line 1, column 9" in out.stderr

    def test_unknown_document_field_is_a_validation_error(self):
        doc = '{"signature": {"concepts": [], "roles": [], "individuals": []}, "bogus": 1}'
        out = run("partition", "-i", "-", "--phi", "", "-I", "I", stdin=doc)
        assert out.returncode == 3
        assert "unknown field 'bogus'" in out.stderr

    def test_unknown_interpretation_name(self):
        out = run("partition", "-i", FIG2, "--phi", "", "-I", "NOPE")
        assert out.returncode == 3
        assert "have: I1, I2, I3" in out.stderr

    def test_concept_outside_the_language(self):
        out = run("eval", "-i", FIG2, "-I", "I1", "--phi", "", "-c", "{a}")
        assert out.returncode == 3
        assert "needs O" in out.stderr

    def test_element_out_of_range(self):
        out = run("witness", "-i", FIG2, "-I", "I1", "--phi", "", "-l", "0", "-r", "99")
        assert out.returncode == 3

    def test_missing_kb_section(self):
        out = run("check-kb", "-i", "-", "-I", "C", stdin=TWO_CYCLE)
        assert out.returncode == 3
        assert "no kb section" in out.stderr

    def test_nesting_limit(self):
        from dlbisim.document import load_workspace
        from dlbisim.semantics import eval_concept
        from dlbisim.syntax import MAX_DEPTH, parse_concept

        ws = load_workspace(FIG2)
        names = ws.element_names["I1"]

        def expected(text):
            ext = eval_concept(ws.interpretation("I1"), parse_concept(text), ws.phi)
            return "".join(names[x] + "\n" for x in sorted(ext))

        # MAX_DEPTH - 1 nots around F is MAX_DEPTH levels, an odd count: not F
        for deepest, same in (("not " * (MAX_DEPTH - 1) + "F", "not F"),
                              ("some r" + "*" * (MAX_DEPTH - 2) + " F", "some (r)* F")):
            out = run("eval", "-i", FIG2, "-I", "I1", "-c", deepest)
            assert out.returncode == 0, out.stderr
            assert out.stdout == expected(same)
        for concept in ("not " * MAX_DEPTH + "F", "not " * 500 + "F"):
            out = run("eval", "-i", FIG2, "-I", "I1", "-c", concept)
            assert out.returncode == 2
            assert "nested deeper than %d levels" % MAX_DEPTH in out.stderr

    def test_domain_above_the_limit(self, monkeypatch, tmp_path, capsys):
        from dlbisim import cli, document

        monkeypatch.setattr(document, "MAX_ELEMENTS", 3)
        path = tmp_path / "doc.json"
        for domain, code in ((3, 0), (["w", "x", "y"], 0), (4, 3), (["w", "x", "y", "z"], 3)):
            path.write_text(json.dumps({
                "signature": {"concepts": [], "roles": [], "individuals": []},
                "interpretations": {"I": {"domain": domain}}}))
            assert cli.main(["partition", "-i", str(path), "--phi", "", "-I", "I"]) == code
            err = capsys.readouterr().err
            assert ("more than the limit of 3" in err) == (code == 3)

    def test_decimal_domain_above_the_limit(self, monkeypatch, tmp_path, capsys):
        # a name list of decimals, which the loader reads from the bytes
        from dlbisim import cli, document

        monkeypatch.setattr(document, "MAX_ELEMENTS", 3)
        path = tmp_path / "doc.json"
        for domain, code in ((["0", "1", "2"], 0), (["2", "0", "1"], 0), (["0", "1", "2", "3"], 3),
                             (["3", "2", "1", "0"], 3)):
            path.write_text(json.dumps({
                "signature": {"concepts": [], "roles": [], "individuals": []},
                "interpretations": {"I": {"domain": domain}}}))
            assert cli.main(["partition", "-i", str(path), "--phi", "", "-I", "I"]) == code
            err = capsys.readouterr().err
            assert ("more than the limit of 3" in err) == (code == 3)

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_invalid_utf8_is_a_parse_error(self, source, tmp_path):
        data = SINGLETON.encode().replace(b'["x"]', b'["x\xff"]', 1)
        at = data.index(b"\xff")
        line, column = data.count(b"\n", 0, at) + 1, at - data.rfind(b"\n", 0, at)
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        argv = [sys.executable, "-m", "dlbisim", "partition", "--phi", "", "-I", "S", "-i"]
        out = subprocess.run(argv + [str(path) if source == "file" else "-"],
                             input=data if source == "stdin" else None, capture_output=True,
                             env=child_env(), cwd=str(ROOT))
        assert out.returncode == 2
        assert out.stderr.decode() == ("parse error: invalid UTF-8: byte 0xff, invalid start "
                                       "byte (line %d, column %d)\n" % (line, column))

    def test_byte_order_mark_is_refused_from_files_and_stdin(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("\ufeff" + SINGLETON, encoding="utf-8")
        for out in (run("partition", "-i", str(path), "-I", "S"),
                    run("partition", "-i", "-", "-I", "S", stdin="\ufeff" + SINGLETON)):
            assert out.returncode == 2
            assert out.stderr == ("parse error: invalid JSON: Unexpected UTF-8 BOM (decode "
                                  "using utf-8-sig) (line 1, column 1)\n")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_long_and_non_ascii_integers_are_parse_errors(self, source, tmp_path):
        # a bound in a concept, and an integer of more digits than int()
        # reads as the domain, a concept member or a count
        long = "7" * 5000

        def command(text, *argv):
            path = tmp_path / "doc.json"
            path.write_text(text)
            if source == "file":
                return run(*argv, "-i", str(path))
            return run(*argv, "-i", "-", stdin=text)

        fig2 = open(FIG2, encoding="utf-8").read()
        for bound in ("\u00b2", "\u0663", long):
            out = command(fig2, "eval", "-I", "I1", "--phi", "Q", "-c", "atleast %s r top" % bound)
            assert out.returncode == 2, out.stderr
            assert out.stderr.startswith("parse error: ")
        if not hasattr(sys, "get_int_max_str_digits"):
            return  # int() reads any number of digits
        for body in ({"domain": "N"}, {"domain": 3, "concepts": {"A": ["N"]}},
                     {"domain": 3, "roles": {"r": [[0, 1]]},
                      "counts": {"r": {"forward": [[0, 1, "N"]]}}}):
            text = json.dumps({"signature": {"concepts": ["A"], "roles": ["r"], "individuals": []},
                               "interpretations": {"I": body}}).replace('"N"', long)
            out = command(text, "partition", "-I", "I")
            assert out.returncode == 2, (body, out.stderr)
            assert out.stderr == ("parse error: invalid JSON: an integer has too many digits "
                                  "(line 1, column %d)\n" % (text.index(long) + 1))

    def test_unknown_feature_letter(self):
        out = run("partition", "-i", FIG2, "--phi", "XYZ", "-I", "I1")
        assert out.returncode == 3
        assert "unknown feature letter" in out.stderr


WIDE = {
    "signature": {"concepts": ["A%d" % i for i in range(1000)],
                  "roles": ["r%d" % i for i in range(2000)], "individuals": ["a"]},
    "interpretations": {"I": {
        "domain": 100_000, "concepts": {"A0": [0, 5], "A999": [7]},
        "roles": {"r0": [[0, 1], [2, 2]], "r1999": [[3, 3], [7, 0]]},
        "individuals": {"a": 0}}},
}


class TestWideSignature:
    def test_commands_cost_the_labels_that_exist(self, tmp_path):
        # 100 000 elements, 1 000 concept and 2 000 role names, three
        # members and four edges: tables of a label bit per element and
        # name took 2.3 GB for partition and 4.6 GB for bisim
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(WIDE))
        cases = [(["partition", "-I", "I", "--phi", "S"], None),
                 (["minimize", "-I", "I", "--qs", "--phi", "IOQUS"], None),
                 (["bisim", "-l", "I", "-r", "I", "--phi", "S"],
                  # five singleton blocks and one of the other 99 995 elements
                  "BISIMILAR\npairs: %d\n" % (5 + 99_995 ** 2)),
                 (["witness", "-I", "I", "-l", "7", "-r", "8", "--phi", "S"], "A999\n"),
                 (["witness", "-I", "I", "-l", "0", "-r", "1", "--phi", "S"], "A0\n")]
        for args, expected in cases:
            out = run(*args, "-i", str(path), address_space=1 << 30)
            assert out.returncode == 0, (args, out.stderr)
            assert expected is None or out.stdout == expected, args


class TestDeterminism:
    CASES = [
        ("partition", "-i", FIG2, "--phi", "IOQ", "-I", "I3"),
        ("minimize", "-i", FIG2, "--phi", "IO", "-I", "I2", "--qs"),
        ("bisim", "-i", FIG2, "--phi", "Q", "-l", "I1", "-r", "I2"),
        ("eval", "-i", FIG2, "-I", "I2", "--phi", "IOQ", "-c", "atleast 2 r F"),
        ("check-kb", "-i", FIG2, "-I", "I3"),
        ("witness", "-i", FIG2, "-I", "I2", "--phi", "Q", "-l", "v1", "-r", "v3"),
        ("extend-rbox", "-i", FIG2, "-I", "I2"),
        ("gen", "--seed", "4", "--n", "9", "--phi", "IOQUS"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda case: case[0])
    def test_byte_identical_reruns(self, case):
        first = run(*case)
        again = run(*case)
        assert first.returncode == again.returncode
        assert first.stdout == again.stdout
        assert first.stderr == again.stderr


class TestStats:
    CASES = [
        ("partition", "-i", FIG2, "--phi", "IOQ", "-I", "I3", "--json"),
        ("minimize", "-i", FIG2, "--phi", "IO", "-I", "I2", "--qs"),
        ("bisim", "-i", FIG2, "--phi", "Q", "-l", "I1", "-r", "I2"),
        ("bisim", "-i", FIG2, "--phi", "I", "-l", "I1", "-r", "I2", "--json"),
        ("witness", "-i", FIG2, "-I", "I2", "--phi", "Q", "-l", "v1", "-r", "v3"),
        ("eval", "-i", FIG2, "-I", "I2", "--phi", "IU", "-c", "some (inv(r) | U)* F"),
        ("eval", "-i", FIG2, "-I", "I1", "--phi", "", "--role", "(r ; r)"),
        ("check-kb", "-i", FIG2, "-I", "I3"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(case[:1] + case[-2:]))
    def test_stdout_unchanged_and_stderr_is_json(self, case):
        from dlbisim.document import LoadCounters
        from dlbisim.refine import Counters
        from dlbisim.semantics import SearchCounters

        plain = run(*case)
        stats = run(*case, "--stats")
        assert stats.returncode == plain.returncode
        assert stats.stdout == plain.stdout
        assert plain.stderr == ""
        report = json.loads(stats.stderr)
        assert report["command"] == case[0]
        runs = report["refinements"]
        refining = case[0] not in ("eval", "check-kb")
        assert [r["function"] for r in runs] == ["compute_partition"] * refining
        for r in runs:
            assert list(r["counters"]) == list(Counters._fields)
            assert r["wall_s"] >= 0 and r["blocks"] >= 1
        searches = report["searches"]
        assert list(searches) == [f.name for f in dataclasses.fields(SearchCounters)]
        assert all(type(v) is int and v >= 0 for v in searches.values())
        if not refining:
            assert searches["searches"] >= 1
            assert searches["passes"] + searches["walked"] >= 1
        # the counters of the document load, and the wall time of each
        # layer, 0.0 for a layer the command does not run
        assert list(report) == ["command", "refinements", "searches", "load", "load_s", "graph_s",
                                "quotient_s", "witness_s", "validate_s", "eval_s", "write_s",
                                "pairs_s", "explain_s", "closure_s"]
        assert list(report["load"]) == [f.name for f in dataclasses.fields(LoadCounters)]
        assert report["load"]["bytes"] == os.path.getsize(FIG2)
        assert report["load_s"] > 0 and report["write_s"] > 0

    def test_extend_rbox_reports_its_load_and_write(self):
        case = ("extend-rbox", "-i", FIG2, "-I", "I2")
        plain = run(*case)
        stats = run(*case, "--stats")
        assert plain.returncode == stats.returncode == 0
        assert stats.stdout == plain.stdout
        report = json.loads(stats.stderr)
        assert report["command"] == "extend-rbox"
        assert report["refinements"] == []
        assert set(report["searches"].values()) == {0}
        assert report["load_s"] > 0 and report["write_s"] > 0

    def test_load_counts(self):
        # every list of a document of indices, and of the quotient written
        # from it, whose names are decimals, is read from the bytes; gen
        # names elements x0, x1, ..., and its lists of those names are read
        # from the bytes too, but for the ones below the floor: here the
        # members of A0 and A1 (225 and 175 bytes)
        index = json.dumps({
            "signature": {"concepts": ["A"], "roles": ["r"], "individuals": []},
            "interpretations": {"I": {"domain": 5, "concepts": {"A": [0, 4]},
                                      "roles": {"r": [[0, 1], [1, 2], [2, 2], [4, 3]]}}}})
        written = run("minimize", "-i", "-", "-I", "I", "--qs", stdin=index).stdout
        named = run("gen", "--seed", "3", "--n", "30", "--roles", "2", "--concepts", "3").stdout
        larger = run("gen", "--seed", "3", "--n", "60", "--roles", "2", "--concepts", "3").stdout
        for doc, scanned, declined in ((index, 2, 0), (written, 1 + 1 + 1 + 3, 0),
                                       (named, 1 + 1 + 2, 2), (larger, 1 + 3 + 2, 0)):
            out = run("partition", "-i", "-", "-I", "I", "--stats", stdin=doc)
            assert out.returncode == 0
            load = json.loads(out.stderr)["load"]
            assert load == {"bytes": len(doc.encode()), "scanned": scanned, "declined": declined}

    def test_eval_counts_its_searches(self):
        # some r F: one search over the fixture's four-element I2, whose
        # frontier is thin enough to be walked rather than passed
        out = run("eval", "-i", FIG2, "-I", "I2", "--phi", "", "-c", "some r F", "--stats")
        assert out.returncode == 0
        searches = json.loads(out.stderr)["searches"]
        assert searches["searches"] == 1
        assert searches["passes"] == 0 and searches["walked"] >= 1


class TestPrefixedNames:
    """gen names elements x0, x1, ...: loaded as a prefixed index domain,
    its documents print what they print when every list is parsed."""

    @pytest.mark.parametrize("argv", [
        ["partition", "-I", "I"],
        ["partition", "-I", "I", "--json"],
        ["minimize", "-I", "I", "--phi", "IQ"],
        ["minimize", "-I", "I", "--qs", "--phi", "Q"],
        ["witness", "-I", "I", "--left", "x3", "--right", "x7"],
        ["witness", "-I", "I", "--phi", "IQ", "--left", "3", "--right", "x7"],
        ["eval", "-I", "I", "-c", "some r0 (A1 and all r1 A0)"],
        ["eval", "-I", "I", "--phi", "I", "--role", "(r0 ; inv(r1))"],
        ["bisim", "-l", "I", "-r", "I", "--json"],
    ])
    def test_output_as_without_the_scan(self, argv, tmp_path, monkeypatch, capsys):
        from dlbisim import cli, document, stats

        path = str(tmp_path / "gen.json")
        assert cli.main(["gen", "--seed", "11", "--n", "80", "--roles", "2", "--concepts", "2",
                         "--edge-density", "0.03", "--output", path]) == 0
        names = document.load_workspace(path).element_names["I"]
        assert isinstance(names, document.IndexNames) and names.prefix == "x"
        runs = []
        for scan in (True, False):
            if not scan:
                monkeypatch.setattr(document._Reader, "scan", lambda self, data: data)
            with stats.recorded() as record:
                code = cli.main(argv + ["-i", path])
            out = capsys.readouterr()
            runs.append((code, out.out, out.err))
            assert (record.load.declined == 0) == scan
        assert runs[0] == runs[1]
        assert runs[0][0] in (0, 1) and runs[0][1]


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        from dlbisim import cli

        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert cli.main(["partition", "-i", FIG2, "-I", "I1"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1
        assert capsys.readouterr().out.count("block 0:") == 2

    def test_help_text_is_the_built_parser_text(self, capsys):
        from dlbisim import cli

        for argv in ([], ["witness"]):
            with pytest.raises(SystemExit):
                cli.main(argv + ["--help"])
            cached = capsys.readouterr().out
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv + ["--help"])
            assert capsys.readouterr().out == cached


def _readme_session() -> list[tuple[str, str]]:
    """(command, output) of each command in README.md's example session,
    bench left out: its millis vary from run to run."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Example session\n", 1)[1]
    block = section.split("```console\n", 1)[1].split("\n```", 1)[0]
    steps = []
    for entry in block.split("$ dlbisim ")[1:]:
        command, _, output = entry.partition("\n")
        if not command.startswith("bench "):
            steps.append((command, output.rstrip("\n") + "\n"))
    return steps


README_SESSION = _readme_session()


class TestReadme:
    def test_session_covers_the_commands(self):
        assert {command.split()[0] for command, _ in README_SESSION} >= {
            "partition", "bisim", "witness", "check-kb", "gen"}

    @pytest.mark.parametrize("command, output", README_SESSION,
                             ids=[command.split()[0] for command, _ in README_SESSION])
    def test_example_session_prints_what_the_readme_shows(self, command, output):
        # a pipeline's later stages are dlbisim commands reading stdin or head -N
        first, *rest = command.split(" | ")
        out = run(*shlex.split(first))
        assert out.stderr == "" and out.returncode in (0, 1), out.stderr
        text = out.stdout
        for stage in rest:
            words = shlex.split(stage)
            if words[0] == "head":
                text = "".join(text.splitlines(keepends=True)[:int(words[1].lstrip("-"))])
            else:
                assert words[0] == "dlbisim", stage
                out = run(*words[1:], stdin=text)
                assert out.stderr == "" and out.returncode == 0, out.stderr
                text = out.stdout
        assert text == output
