"""The document layer: loading into edge arrays, and writing from them."""

import gc
import json
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import helpers as H
from dlbisim import cli
from dlbisim.core import (
    FeatureSet,
    Interpretation,
    QSInterpretation,
    build_interpretation,
    qs_embedding,
    to_labeled_graph,
)
from dlbisim.document import (
    IndexNames,
    InterpretationBody,
    _Literals,
    _Refs,
    dumps_blocks,
    dumps_document,
    dumps_pairs,
    interpretation_to_json,
    load_workspace,
    loads_workspace,
    signature_to_json,
)
from dlbisim.errors import DocumentError, ElementOutOfRangeError, ParseError, UnknownNameError
from dlbisim.gen import make_signature, random_interpretation
from dlbisim.quotient import qs_quotient
from dlbisim.refine import Partition, compute_partition

ROOT = Path(__file__).resolve().parent.parent
FIG2 = str(ROOT / "tests" / "fixtures" / "fig2.kbi")
SIG = {"concepts": ["A"], "roles": ["r"], "individuals": ["a"]}
NAMED = {"domain": ["x", "y", "z"], "individuals": {"a": "x"}}


def _doc(body):
    interp = {"domain": 3, "individuals": {"a": 0}}
    interp.update(body)
    return {"signature": SIG, "interpretations": {"I": interp}}


def _with_counts(spec):
    return _doc({"roles": {"r": [[0, 1]]}, "counts": {"r": spec}})


def _named(**fields):
    return _doc(dict(NAMED, **fields))


def _canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# (case, document, error class, message): the first problem in document
# order is the one reported, whatever the loader checks first
MALFORMED = [
    ("bool reference", _doc({"roles": {"r": [[True, 0]]}}), DocumentError,
     "interpretations.I.roles.r: element reference True is not an index or name"),
    ("float reference", _doc({"concepts": {"A": [1.5]}}), DocumentError,
     "interpretations.I.concepts.A: element reference 1.5 is not an index or name"),
    ("index above the domain", _doc({"roles": {"r": [[0, 3]]}}), DocumentError,
     "interpretations.I.roles.r: index 3 outside 0..2"),
    ("negative index", _doc({"concepts": {"A": [-1]}}), DocumentError,
     "interpretations.I.concepts.A: index -1 outside 0..2"),
    ("huge index", _doc({"roles": {"r": [[0, 2 ** 70]]}}), DocumentError,
     "interpretations.I.roles.r: index 1180591620717411303424 outside 0..2"),
    ("unknown name", _doc(dict(NAMED, roles={"r": [["x", "w"]]})), DocumentError,
     "interpretations.I.roles.r: unknown element 'w'"),
    ("non-canonical index name", _doc({"roles": {"r": [["01", "1"]]}}), DocumentError,
     "interpretations.I.roles.r: unknown element '01'"),
    ("index name above the domain", _doc({"self_loops": {"r": ["3"]}}), DocumentError,
     "interpretations.I.self_loops.r: unknown element '3'"),
    ("entry too long", _doc({"roles": {"r": [[0, 1, 2]]}}), DocumentError,
     "interpretations.I.roles.r entries must be [src, dst]"),
    ("entry not a list", _doc({"roles": {"r": [0]}}), DocumentError,
     "interpretations.I.roles.r entries must be [src, dst]"),
    ("entry an object", _doc({"roles": {"r": [{"src": 0}]}}), DocumentError,
     "interpretations.I.roles.r entries must be [src, dst]"),
    ("bad reference before bad entry", _doc({"roles": {"r": [[0, 5], [0]]}}), DocumentError,
     "interpretations.I.roles.r: index 5 outside 0..2"),
    ("bad entry before bad reference", _doc({"roles": {"r": [[0], [0, 5]]}}), DocumentError,
     "interpretations.I.roles.r entries must be [src, dst]"),
    ("second role", _doc({"roles": {"r": [[0, 1]], "s": [[9, 9]]}}), DocumentError,
     "interpretations.I.roles.s: index 9 outside 0..2"),
    ("role list not a list", _doc({"roles": {"r": {"0": 1}}}), DocumentError,
     "interpretations.I.roles.r must be a list"),
    ("concept list not a list", _doc({"concepts": {"A": 0}}), DocumentError,
     "interpretations.I.concepts.A must be a list"),
    ("unknown individual element", _doc(dict(NAMED, individuals={"a": "q"})), DocumentError,
     "interpretations.I.individuals.a: unknown element 'q'"),
    ("count entry too short", _with_counts({"forward": [[0, 1]]}), DocumentError,
     "interpretations.I.counts.r.forward entries must be [src, dst, count]"),
    ("negative count", _with_counts({"forward": [[0, 1, -1]]}), DocumentError,
     "interpretations.I.counts.r.forward: count must be a non-negative integer"),
    ("bool count", _with_counts({"backward": [[1, 0, True]]}), DocumentError,
     "interpretations.I.counts.r.backward: count must be a non-negative integer"),
    ("float count", _with_counts({"backward": [[1, 0, 1.0]]}), DocumentError,
     "interpretations.I.counts.r.backward: count must be a non-negative integer"),
    ("bad count reference", _with_counts({"forward": [[0, 7, 1]]}), DocumentError,
     "interpretations.I: index 7 outside 0..2"),
    ("count support off the edges", _with_counts({"forward": [[0, 2, 1]]}),
     ElementOutOfRangeError,
     "qu support for r must equal the edge set of the base interpretation"),
    ("zero count on an edge", _with_counts({"forward": [[0, 1, 0]]}), ElementOutOfRangeError,
     "qu support for r must equal the edge set of the base interpretation"),
    ("backward count not reversed", _with_counts({"backward": [[0, 1, 1]]}),
     ElementOutOfRangeError,
     "qu support for r^- must equal the edge set of the base interpretation"),
    ("later zero count row", _with_counts({"forward": [[0, 1, 2], [0, 1, 0]]}),
     ElementOutOfRangeError,
     "qu support for r must equal the edge set of the base interpretation"),
    ("count for unknown role", _doc({"counts": {"s": {"forward": []}}}), DocumentError,
     "interpretations.I.counts: 's' is not a role name"),
    ("self loop out of range", _doc({"self_loops": {"r": [0, 7]}}), DocumentError,
     "interpretations.I.self_loops.r: index 7 outside 0..2"),
    ("self loop bool", _doc({"self_loops": {"r": [False]}}), DocumentError,
     "interpretations.I.self_loops.r: element reference False is not an index or name"),
    ("role not in signature", _doc({"roles": {"s": [[0, 1]]}}), UnknownNameError,
     "role extension for 's': not a role name"),
    ("concept not in signature", _doc({"concepts": {"B": [0]}}), UnknownNameError,
     "concept extension for 'B': not a concept name"),
    # lists that the one-scan reader refuses, read again entry by entry
    ("mixed references, unknown name", _named(roles={"r": [["x", 1], [2, "w"]]}), DocumentError,
     "interpretations.I.roles.r: unknown element 'w'"),
    ("mixed references, index above the domain", _named(roles={"r": [["x", 1], [2, 3]]}),
     DocumentError, "interpretations.I.roles.r: index 3 outside 0..2"),
    ("mixed concept references", _named(concepts={"A": ["y", 0, "q"]}), DocumentError,
     "interpretations.I.concepts.A: unknown element 'q'"),
    ("mixed self loops", _named(self_loops={"r": [1, "x", "q"]}), DocumentError,
     "interpretations.I.self_loops.r: unknown element 'q'"),
    ("true in a concept", _doc({"concepts": {"A": [0, True]}}), DocumentError,
     "interpretations.I.concepts.A: element reference True is not an index or name"),
    ("1.5 in a row", _doc({"roles": {"r": [[0, 1], [1.5, 0]]}}), DocumentError,
     "interpretations.I.roles.r: element reference 1.5 is not an index or name"),
    ("true among names", _named(roles={"r": [["x", "y"], ["y", True]]}), DocumentError,
     "interpretations.I.roles.r: element reference True is not an index or name"),
    ("1.5 among names", _named(concepts={"A": ["x", 1.5]}), DocumentError,
     "interpretations.I.concepts.A: element reference 1.5 is not an index or name"),
    ("unknown name in a row", _named(roles={"r": [["x", "y"], ["z", "w"]]}), DocumentError,
     "interpretations.I.roles.r: unknown element 'w'"),
    ("unknown concept element", _named(concepts={"A": ["x", "w"]}), DocumentError,
     "interpretations.I.concepts.A: unknown element 'w'"),
    ("unknown self loop element", _named(self_loops={"r": ["w"]}), DocumentError,
     "interpretations.I.self_loops.r: unknown element 'w'"),
    ("unknown count element", _named(roles={"r": [["x", "y"]]},
                                     counts={"r": {"forward": [["x", "w", 1]]}}),
     DocumentError, "interpretations.I: unknown element 'w'"),
    ("name as a count", _named(roles={"r": [["x", "y"]]},
                               counts={"r": {"forward": [["x", "y", "1"]]}}),
     DocumentError, "interpretations.I.counts.r.forward: count must be a non-negative integer"),
    ("index name as a count", _with_counts({"forward": [[0, 1, "1"]]}), DocumentError,
     "interpretations.I.counts.r.forward: count must be a non-negative integer"),
    ("ragged rows, long after short", _doc({"roles": {"r": [[0, 1], [0, 1, 2]]}}), DocumentError,
     "interpretations.I.roles.r entries must be [src, dst]"),
    ("ragged rows, short after long", _doc({"roles": {"r": [[0, 1], [2]]}}), DocumentError,
     "interpretations.I.roles.r entries must be [src, dst]"),
    ("ragged count rows", _with_counts({"forward": [[0, 1, 1], [0, 1]]}), DocumentError,
     "interpretations.I.counts.r.forward entries must be [src, dst, count]"),
    ("two names as one string", _named(roles={"r": [["x", "y"], "xy"]}), DocumentError,
     "interpretations.I.roles.r entries must be [src, dst]"),
    ("huge count", _with_counts({"forward": [[0, 1, 2 ** 63]]}), DocumentError,
     "interpretations.I.counts.r.forward: count 9223372036854775808 is not below 2**63"),
    ("huge count after the largest", _with_counts({"forward": [[0, 1, 2 ** 63 - 1],
                                                               [0, 1, 2 ** 63]]}),
     DocumentError,
     "interpretations.I.counts.r.forward: count 9223372036854775808 is not below 2**63"),
    ("huge count among names", _named(roles={"r": [["x", "y"]]},
                                      counts={"r": {"forward": [["x", "y", 2 ** 63]]}}),
     DocumentError,
     "interpretations.I.counts.r.forward: count 9223372036854775808 is not below 2**63"),
    ("bad reference before huge count", _with_counts({"forward": [[0, 5, 1], [0, 1, 2 ** 63]]}),
     DocumentError, "interpretations.I: index 5 outside 0..2"),
]


class TestLoaderErrors:
    @pytest.mark.parametrize("case,doc,error,message", MALFORMED, ids=[m[0] for m in MALFORMED])
    def test_first_problem_is_reported(self, case, doc, error, message, tmp_path, capsys):
        with pytest.raises(error) as info:
            loads_workspace(json.dumps(doc))
        assert type(info.value) is error
        assert str(info.value) == message
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "minimize", "-i", str(path), "-I", "I", "--qs")
        assert (code, out, err) == (3, "", "error: %s\n" % message)

    def test_huge_count_is_refused(self):
        with pytest.raises(DocumentError, match="count 9223372036854775808 is not below 2"):
            loads_workspace(json.dumps(_with_counts({"forward": [[0, 1, 2 ** 63]]})))


class TestLoading:
    def test_repeated_edges_count_once(self):
        ws = loads_workspace(json.dumps(_doc({"roles": {"r": [[2, 2], [0, 1], [0, 1], [2, 2]]}})))
        src, dst = ws.interpretation("I").role_edges["r"]
        assert src.tolist() == [0, 2] and dst.tolist() == [1, 2]
        assert ws.interpretation("I").role_ext["r"] == {(0, 1), (2, 2)}

    def test_names_and_indices_mix(self):
        doc = _doc(dict(NAMED, roles={"r": [["x", 1], [2, "y"], ["z", "z"]]},
                        concepts={"A": ["y", 0, "y"]}))
        interp = loads_workspace(json.dumps(doc)).interpretation("I")
        assert interp.role_ext["r"] == {(0, 1), (2, 1), (2, 2)}
        assert interp.concept_ext["A"] == {0, 1}

    def test_index_domain_names(self):
        doc = _doc({"roles": {"r": [["0", "2"], [1, "1"]]}, "self_loops": {"r": ["1"]}})
        ws = loads_workspace(json.dumps(doc))
        names = ws.element_names["I"]
        assert isinstance(names, IndexNames)
        assert list(names) == ["0", "1", "2"] and names[2] == "2" and names[-1] == "2"
        assert ws.resolve("I", "2") == 2 and ws.resolve("I", 1) == 1
        with pytest.raises(DocumentError, match="unknown element '02'"):
            ws.resolve("I", "02")
        assert ws.display("I", 1) == "1"
        assert ws.interpretation("I").role_ext["r"] == {(0, 2), (1, 1)}
        assert ws.qs["I"].se["r"] == {1}

    def test_later_count_row_wins(self):
        doc = _doc({"roles": {"r": [[0, 1], [1, 2]]},
                    "counts": {"r": {"forward": [[1, 2, 5], [0, 1, 2], [0, 1, 3]]}}})
        qsi = loads_workspace(json.dumps(doc)).qs["I"]
        assert qsi.qu[("r", False)] == {(0, 1): 3, (1, 2): 5}
        assert qsi.qu[("r", True)] == {(1, 0): 1, (2, 1): 1}
        assert qsi.se["r"] == frozenset()

    def test_collector_state_is_restored(self):
        assert gc.isenabled()
        loads_workspace(json.dumps(_doc({})))
        with pytest.raises(ParseError):
            loads_workspace("{")
        assert gc.isenabled()
        gc.disable()
        try:
            loads_workspace(json.dumps(_doc({})))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_name_index_is_built_once(self):
        ws = load_workspace(FIG2)
        for iname, names in ws.element_names.items():
            assert ws.element_index[iname] == {name: i for i, name in enumerate(names)}


def _weird_names(rng, n):
    pool = ['q"uote', "back\\slash", "tab\there", "new\nline", "\x00nul", "naïve", "日本",
            "\U0001f600", "", " ", "x"]
    return tuple("%s%d" % (rng.choice(pool), i) for i in range(n))


def _reference_json(interp, names, qsi):
    """The JSON object of an interpretation, from its pair-set views."""
    names = names if names is not None else [str(x) for x in range(interp.n)]
    sig = interp.signature
    out = {"domain": list(names),
           "concepts": {a: [names[x] for x in sorted(interp.concept_ext[a])]
                        for a in sig.concept_names},
           "roles": {r: [[names[x], names[y]] for x, y in sorted(interp.role_ext[r])]
                     for r in sig.role_names},
           "individuals": {a: names[x] for a, x in interp.individual_map.items()}}
    if qsi is not None:
        out["counts"] = {r: {key: [[names[x], names[y], k]
                                   for (x, y), k in sorted(qsi.qu[(r, inverted)].items())]
                             for key, inverted in (("forward", False), ("backward", True))}
                         for r in sig.role_names}
        out["self_loops"] = {r: [names[x] for x in sorted(qsi.se[r])] for r in sig.role_names}
    return out


def _documents(rng, count):
    """Seeded (doc with bodies, the same doc as JSON data built from the
    pair-set views)."""
    for trial in range(count):
        sig = make_signature(rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 2))
        n = rng.randint(1, 14)
        interp = random_interpretation(rng, sig, n, rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.8))
        names = None if trial % 3 == 0 else _weird_names(rng, n)
        qsi = None
        if trial % 2:
            qsi = qs_embedding(interp) if trial % 4 == 1 else qs_quotient(
                interp, compute_partition(FeatureSet(), to_labeled_graph(interp), False)[0])
            interp = qsi.base
            names = None if names is None else names[:interp.n]
        shared = {"signature": signature_to_json(sig), "phi": "IQ"}
        yield ({**shared, "interpretations": {"I": InterpretationBody(interp, names, qsi)}},
               {**shared, "interpretations": {"I": _reference_json(interp, names, qsi)}})


class TestWriter:
    def test_bodies_are_written_as_json_dumps_writes_their_dicts(self):
        for doc, plain in _documents(H.seeded(211), 60):
            text = dumps_document(doc)
            assert text == _canonical(plain)
            assert dumps_document(plain) == text
            body = doc["interpretations"]["I"]
            assert interpretation_to_json(body.interp, body.names, body.qsi) == \
                plain["interpretations"]["I"]

    def test_empty_and_counted_rows(self):
        sig = make_signature(1, 2, 1)
        interp = build_interpretation(sig, 2, {}, {"r0": {(1, 1), (0, 1)}}, {"a0": 1})
        qsi = qs_embedding(interp)
        plain = interpretation_to_json(interp, ("p", "q"), qsi)
        assert plain["concepts"] == {"A0": []}
        assert plain["roles"] == {"r0": [["p", "q"], ["q", "q"]], "r1": []}
        assert plain["counts"]["r0"]["backward"] == [["q", "p", 1], ["q", "q", 1]]
        assert plain["self_loops"] == {"r0": ["q"], "r1": []}
        body = {"I": InterpretationBody(interp, ("p", "q"), qsi)}
        assert dumps_document(body) == _canonical({"I": plain})

    def test_blocks_are_written_as_json_dumps_writes_them(self):
        rng = H.seeded(212)
        for trial in range(60):
            n = rng.randint(1, 14)
            ids, block_of = np.unique([rng.randrange(rng.randint(1, n)) for _ in range(n)],
                                      return_inverse=True)
            part = Partition(block_of, len(ids))
            names = IndexNames(n) if trial % 3 == 0 else _weird_names(rng, n)
            blocks = [[names[x] for x in part.blocks[b]] for b in part.canonical_order]
            order, bounds = part._runs
            assert dumps_blocks(order, bounds, part.canonical_order, names) == \
                _canonical({"blocks": blocks})

    def test_counted_rows_repeat_each_count(self):
        # counts of one and two digits and the largest, each twice, in no order
        literals = _Literals(("p", "q\u00e9"))
        xs, ys = np.array([0, 1, 0, 1, 1, 0, 0, 1]), np.array([1, 1, 0, 0, 1, 0, 1, 0])
        counts = np.array([10, 0, 2 ** 63 - 1, 9, 0, 10, 9, 2 ** 63 - 1], dtype=np.int64)
        names = ("p", "q\u00e9")
        rows = [[names[x], names[y], k] for x, y, k in zip(xs.tolist(), ys.tolist(),
                                                           counts.tolist())]
        assert dumps_document({"a": {"rows": _Refs(literals, xs, ys, counts)}}) == \
            _canonical({"a": {"rows": rows}})

    def test_empty_role_and_count_lists(self):
        empty = np.zeros(0, dtype=np.int64)
        literals = _Literals(("p",))
        doc = {"names": _Refs(literals, empty), "pairs": _Refs(literals, empty, empty),
               "counted": _Refs(literals, empty, empty, empty)}
        assert dumps_document(doc) == _canonical({"names": [], "pairs": [], "counted": []})
        sig = make_signature(1, 2, 0)
        interp = build_interpretation(sig, 1, {}, {}, {})
        for qsi in (None, qs_embedding(interp)):
            body = {"I": InterpretationBody(interp, None, qsi)}
            assert dumps_document(body) == _canonical({"I": _reference_json(interp, None, qsi)})

    def test_names_that_need_escapes(self):
        names = ('q"uote', "back\\slash", "tab\there", "new\nline", "\x00nul", "na\u00efve",
                 "\u65e5\u672c", "\U0001f600", "", " ", "\u2028")
        n = len(names)
        sig = make_signature(1, 1, 1)
        interp = build_interpretation(sig, n, {"A0": {1, 4, 7}},
                                      {"r0": {(x, (3 * x + 1) % n) for x in range(n)}},
                                      {"a0": 6})
        qsi = qs_embedding(interp)
        body = {"I": InterpretationBody(interp, names, qsi)}
        assert dumps_document(body) == _canonical({"I": _reference_json(interp, names, qsi)})
        pairs = [(x, y) for x in range(n) for y in range(n) if (x + y) % 3 == 0]
        assert dumps_pairs(iter(pairs), names, names[::-1]) == _canonical(
            {"bisimilar": True, "pairs": [[names[x], names[::-1][y]] for x, y in pairs]})

    def test_pairs_are_read_in_chunks(self):
        # 160 000 pairs: the text and its chunks, but never the rows as
        # objects, which took 3.4 times the text
        n = 400
        names = IndexNames(n)
        tracemalloc.start()
        try:
            text = dumps_pairs(((x, y) for x in range(n) for y in range(n)), names, names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == _canonical({"bisimilar": True,
                                   "pairs": [[str(x), str(y)] for x in range(n)
                                             for y in range(n)]})
        assert peak < 2.5 * len(text), (peak, len(text))

    def test_plain_documents(self):
        for doc in ({}, {"a": []}, {"b": {"c": [1, [2, "x"]], "a": None}, "a": True}, [1, {}]):
            assert dumps_document(doc) == _canonical(doc)

    @pytest.mark.parametrize("argv", [
        ["minimize", "-i", FIG2, "-I", "I1"],
        ["minimize", "-i", FIG2, "-I", "I2", "--phi", "IQ"],
        ["minimize", "-i", FIG2, "-I", "I2", "--qs", "--phi", "QS"],
        ["minimize", "-i", FIG2, "-I", "I3", "--qs", "--phi", ""],
        ["extend-rbox", "-i", FIG2, "-I", "I1"],
        ["gen", "--seed", "5", "--n", "30", "--phi", "IQ"],
        ["gen", "--seed", "6", "--n", "3", "--roles", "0", "--concepts", "0", "--individuals", "0"],
    ])
    def test_cli_documents_are_canonical(self, argv, capsys):
        code, out, err = _run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == _canonical(json.loads(out))


class TestNoPairViewsOnCommandPaths:
    """No command of the benchmark sessions builds role_ext, qu or se."""

    def test_benchmark_sessions(self, tmp_path, monkeypatch, capsys):
        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        built = []
        for cls, name in ((Interpretation, "role_ext"), (QSInterpretation, "qu"),
                          (QSInterpretation, "se")):
            view = cls.__dict__[name].func
            monkeypatch.setattr(cls, name, property(
                lambda self, view=view, name=name: built.append(name) or view(self)))
        for workload in workloads.WORKLOADS:
            spec = workloads.build(workload, 1, str(tmp_path / workload), smoke=True)
            assert spec["commands"]
            for cmd in spec["commands"]:
                code, _, err = _run(capsys, *cmd["argv"])
                out = cmd["argv"][cmd["argv"].index("--output") + 1]
                text = open(out, encoding="utf-8").read() if os.path.exists(out) else ""
                assert workloads.check(cmd["check"], code, text) is None, (cmd["argv"], err)
                assert built == [], cmd["argv"]
