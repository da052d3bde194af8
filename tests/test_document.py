"""The document layer: loading into edge arrays, and writing from them."""

import gc
import json
import os
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers as H
from dlbisim import cli, document
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
from dlbisim.errors import (
    BisimError,
    DocumentError,
    ElementOutOfRangeError,
    ParseError,
    TooLargeError,
    UnknownNameError,
)
from dlbisim.gen import make_signature, random_interpretation
from dlbisim.quotient import qs_quotient
from dlbisim.refine import Partition, compute_partition
from dlbisim.stats import recorded

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

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() reads any number of digits")
    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_long_integer_is_reported_at_its_first_digit(self, as_bytes):
        # json.loads gives this error no position; strings and the fraction
        # and exponent digits of the numbers before it are not integers
        long = "7" * 5000
        text = ('{"signature": {"concepts": ["%s"], "roles": [], "individuals": []},\n'
                '  "interpretations": {"I": {"x": 1.%se%s, "domain": -%s}}}'
                % (long, long, long, long))
        with pytest.raises(ParseError) as info:
            loads_workspace(text.encode("ascii") if as_bytes else text)
        col = len(text.splitlines()[1].rsplit("-", 1)[0]) + 2
        assert str(info.value) == ("invalid JSON: an integer has too many digits "
                                   "(line 2, column %d)" % col)
        assert (info.value.line, info.value.col) == (2, col)


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

    def test_prefixed_index_names(self):
        names = IndexNames(12, "x")
        assert len(names) == 12 and names.prefix == "x"
        assert (names[0], names[11], names[-1], names[-12]) == ("x0", "x11", "x11", "x0")
        for i in (12, -13):
            with pytest.raises(IndexError):
                names[i]
        assert names[2:5] == ["x2", "x3", "x4"] and names[::-5] == ["x11", "x6", "x1"]
        assert names[20:] == [] and list(names) == ["x%d" % i for i in range(12)]
        assert names.of([3, 0, 3]) == ["x3", "x0", "x3"]
        for probe, element in (("x5", 5), ("x0", 0), ("x11", 11), ("x05", None), ("5", None),
                               ("x", None), ("x12", None), ("x00", None), ("X5", None),
                               ("xx5", None), ("x-1", None), ("x 5", None), ("x5 ", None),
                               ("x+5", None), ("x\u0665", None), ("", None)):
            assert names.get(probe) == element, probe
        assert IndexNames(10 ** 6, "x").get("x" + "9" * 400) is None
        plain = IndexNames(3)
        assert plain.prefix == "" and list(plain) == ["0", "1", "2"] and plain.of([2]) == ["2"]
        assert (plain.get("2"), plain.get("x2"), plain.get("02")) == (2, None, None)

    def test_later_count_row_wins(self):
        doc = _doc({"roles": {"r": [[0, 1], [1, 2]]},
                    "counts": {"r": {"forward": [[1, 2, 5], [0, 1, 2], [0, 1, 3]]}}})
        qsi = loads_workspace(json.dumps(doc)).qs["I"]
        assert qsi.qu[("r", False)] == {(0, 1): 3, (1, 2): 5}
        assert qsi.qu[("r", True)] == {(1, 0): 1, (2, 1): 1}
        assert qsi.se["r"] == frozenset()

    def test_self_loops_default_to_the_diagonal(self):
        # counts without self_loops: each role's diagonal, as if listed; a
        # role left out of a given self_loops has none
        roles = {"r": [[0, 1], [2, 2], [1, 1]]}
        counts = {"r": {"forward": [[0, 1, 2], [1, 1, 1], [2, 2, 1]]}}
        implied, listed, empty = (
            loads_workspace(json.dumps(_doc(dict(roles=roles, counts=counts, **loops)))).qs["I"]
            for loops in ({}, {"self_loops": {"r": [1, 2]}}, {"self_loops": {}}))
        assert implied == listed and implied.se["r"] == {1, 2}
        assert empty.se["r"] == frozenset()

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


def _outcome(load):
    """What a load gives: the workspace's contents and name lookups, or
    its error's class and message."""
    try:
        ws = load()
    except BisimError as exc:
        return type(exc), str(exc)
    names = {i: list(names) for i, names in ws.element_names.items()}
    probes = ["0", "1", "2", "01", " 1", "x", "5", "-0", "x1", "x01", "X1", "x5"]
    lookups = {i: [ws.element_index[i].get(name) for name in names[i] + probes] for i in names}
    return (ws.signature, ws.phi, ws.interpretations, ws.qs, ws.kb_strings, names, lookups)


def _unscanned(text: str):
    """The workspace of text read without the scan: every list parsed."""
    return document._workspace(document._parse_json(text), document._Reader(0))


@contextmanager
def _floor(size: int):
    """Prefixed lists from size bytes up are read from the bytes."""
    kept = document._PREFIXED_FLOOR
    document._PREFIXED_FLOOR = size
    try:
        yield
    finally:
        document._PREFIXED_FLOOR = kept


def _names_doc(domain, concept, roles=None, individual=None) -> str:
    """A document of the name list domain: concept A's members and, if
    given, role r's rows are the lists given."""
    interp = {"domain": domain, "concepts": {"A": concept},
              "individuals": {"a": domain[0] if individual is None else individual}}
    if roles is not None:
        interp["roles"] = {"r": roles}
    return json.dumps({"signature": SIG, "interpretations": {"I": interp}})


def _scan_counts(text):
    with recorded() as record:
        loads_workspace(text)
    return record.load


def _same_as_unscanned(text: str):
    expected = _outcome(lambda: _unscanned(text))
    assert _outcome(lambda: loads_workspace(text)) == expected, text
    assert _outcome(lambda: loads_workspace(text.encode())) == expected, text
    return expected


# valid JSON that no scan reads, and tokens that are not JSON
_ODD = st.sampled_from(['"01"', "-0", "-1", '" 1"', '"1 "', '""', '"x5"', str(2 ** 63),
                        str(10 ** 18), str(10 ** 18 - 1), "1e2", "1.0", "true", "[0]",
                        '{"k": [1]}', '{"k": [[0, 1]]}'])
_BAD = st.one_of(st.sampled_from(["01", "00", "1 2", "x", "-", '"1"2', "1\x0b", "0x1", '""2',
                                  '2""', '" "2', '"1""2"', '"1" "2"']),
                 st.text(alphabet='01" \t', min_size=1, max_size=5))
_GAPS = st.sampled_from(["", "", "", " ", "\n    ", "\t", "\r\n"])
_SOUP = st.text(alphabet='0123456789,[]"- \t\n\r\x0bx', max_size=14)


# strings near a name of prefix "x" and a canonical decimal, and other
# references, for lists whose quoted references have that prefix
_ODD_NAMES = st.sampled_from(['"x5"', '"x05"', '"xy5"', '"x"', '"x_5"', '"x5 "', '"x-1"',
                              '"x1y2"', '"x%d"' % 10 ** 18, '"X1"', '"y1"', '"1"', '1', '"x 1"'])


@st.composite
def _list_text(draw, items, prefix=""):
    """The text of a list of items, each a reference, a count or a list
    of them: references bare, quoted (after the prefix) or either, with
    gaps of JSON whitespace, now and then a token that no scan reads, or
    with a prefix one near a prefixed name; one list in eight is noisy:
    a token soup, or a list with tokens that are not JSON."""
    noisy = draw(st.integers(0, 7)) == 7
    if noisy and draw(st.integers(0, 3)) == 3:
        return draw(_SOUP)
    style = draw(st.sampled_from(["bare", "quoted", "mixed"]))

    def text(item, count=False):
        if isinstance(item, list):
            return "[" + join([text(x, i == 2) for i, x in enumerate(item)]) + "]"
        if noisy and draw(st.integers(0, 2)) == 2:
            return draw(_BAD)
        if draw(st.integers(0, 9)) == 9:
            return draw(_ODD_NAMES if prefix and not count else _ODD)
        quote = not count and (style == "quoted" or style == "mixed" and draw(st.booleans()))
        return '"%s%d"' % (prefix, item) if quote else str(item)

    def join(texts):
        gaps = draw(st.lists(_GAPS, min_size=2 * len(texts), max_size=2 * len(texts)))
        return ",".join(gaps[2 * i] + t + gaps[2 * i + 1] for i, t in enumerate(texts))

    end = draw(st.sampled_from(["", ",", "\x0b"])) if noisy else ""
    return "[" + join([text(item) for item in items]) + end + "]"


_ELEMENT = st.integers(0, 3)


def _rows(width):
    sizes = st.sampled_from([width] * 8 + [width - 1, width + 1])
    return st.lists(sizes.flatmap(lambda k: st.lists(_ELEMENT, min_size=k, max_size=k)),
                    max_size=4)


@st.composite
def _texts(draw, prefix=""):
    """Documents with lists drawn at reference positions, at other
    positions, and after a ": [" inside keys and strings; their quoted
    references and domain names have the prefix, or now and then one
    that differs in case."""

    def lists(*shapes):
        return draw(st.one_of(*[
            (st.lists(_ELEMENT, max_size=5) if width == 1 else _rows(width)).flatmap(
                lambda items: _list_text(items, prefix))
            for width in shapes]))

    def rarely(usual, *other):
        return lists(*other) if draw(st.integers(0, 5)) == 5 else usual

    def names(*refs):
        return "[%s]" % ", ".join('"%s%s"' % (prefix, ref) for ref in refs)

    domain = draw(st.sampled_from(["3", "4", names(0, 1, 2), names(2, 0, 1, 3),
                                   '["x", "y", "z", "w"]'] * 3
                                  + [names(0, 1, "01"), names(0, 0, 1), names(1, 0, 3), "[]",
                                     names(0, 1, 2).swapcase()]))
    fields = ['"domain": ' + rarely(domain, 1),
              '"concepts": {"A": %s, "B: [1, 2]": %s}' % (lists(1), lists(1)),
              '"individuals": {"a": %s}' % rarely(draw(st.sampled_from(
                  ["0", '"%s1"' % prefix, '"x"', '"%s01"' % prefix])), 1)]
    edges = draw(st.lists(st.tuples(_ELEMENT, _ELEMENT), unique=True, max_size=3))
    if draw(st.booleans()):
        # multiplicities of the role's own edges, now and then of others
        weights = draw(st.lists(st.integers(1, 9), min_size=len(edges), max_size=len(edges)))
        forward = [[x, y, k] for (x, y), k in zip(edges, weights)]
        backward = [[y, x, k] for (x, y), k in zip(edges, weights)]
        fields.append('"counts": {"r": {"forward": %s, "backward": %s}}' % (
            rarely(draw(_list_text(forward)), 3), rarely(draw(_list_text(backward)), 3)))
    fields.append('"roles": {"r": %s}'
                  % rarely(draw(_list_text([list(edge) for edge in edges])), 2))
    if draw(st.booleans()):
        fields.append('"self_loops": {"r": %s}' % lists(1))
    if draw(st.integers(0, 3)) == 3:
        fields.append('"concepts": {"A": %s}' % lists(1))
    if draw(st.integers(0, 9)) == 9:
        fields.append('"extra": %s' % lists(1, 2))
    gap = draw(_GAPS)
    interp = "{" + ("," + gap).join(draw(st.permutations(fields))) + "}"
    parts = ['"signature": {"concepts": %s, "roles": ["r"], "individuals": ["a"]}'
             % rarely('["A", "B: [1, 2]"]', 1, 2),
             '"interpretations": {"I": %s}' % interp]
    if draw(st.booleans()):
        parts.append('"phi": %s' % rarely('"IQ"', 1))
    if draw(st.booleans()):
        parts.append('"kb": {"tbox": %s, "abox": ["A(a)"]}' % rarely('["A sub A"]', 1, 2))
    return "{" + ", ".join(draw(st.permutations(parts))) + "}"


class _Bare(str):
    """The text of a JSON number."""


def _read_as_json(text: str):
    """What _decimal_list should give for text, read with json.loads:
    (values, width, quoted) of a flat list, or a list of rows of width 2
    or 3, of canonical decimals below 10**18, every reference bare or
    every one quoted, the counts bare; else None."""
    try:
        val = json.loads(text, parse_int=_Bare, parse_float=_Bare, parse_constant=_Bare)
    except ValueError:
        return None
    if not isinstance(val, list):
        return None
    if not val:
        return [], 1, False
    width = len(val[0]) if isinstance(val[0], list) else 1
    if width == 1:
        refs, counts = val, []
    elif width in (2, 3) and all(isinstance(row, list) and len(row) == width for row in val):
        refs = [x for row in val for x in row[:2]]
        counts = [x for row in val for x in row[2:]]
    else:
        return None
    tokens = [x for row in val for x in row] if width > 1 else val
    if not all(isinstance(x, str) and x.isascii() and x.isdigit() and str(int(x)) == x
               and int(x) < 10 ** 18 for x in tokens):
        return None
    quoted = {type(x) is not _Bare for x in refs}
    if len(quoted) > 1 or not all(type(x) is _Bare for x in counts):
        return None
    return [int(x) for x in tokens], width, quoted.pop()


@st.composite
def _scan_candidates(draw):
    """Texts from "[" to "]": lists of references or rows, or soups."""
    if draw(st.integers(0, 3)) == 3:
        return "[" + draw(st.text(alphabet='0123456789,[]"- \t\n\x0bxe.', max_size=16)) + "]"
    items = draw(st.one_of(st.lists(_ELEMENT, max_size=5), _rows(2), _rows(3)))
    text = draw(_list_text(items))
    return text if text[:1] == "[" and text[-1:] == "]" else "[" + text + "]"


# (case, list text of the concept A in a domain of size 3, how the
# unscanned loader ends, whether the scan reads the list)
EDGES = [
    ("leading zero", "[01]", (ParseError, "invalid JSON: Expecting ',' delimiter"), False),
    ("quoted leading zero", '["01"]',
     (DocumentError, "interpretations.I.concepts.A: unknown element '01'"), False),
    ("minus zero", "[-0, 2]", {0, 2}, False),
    ("space in a quoted reference", '[" 1"]',
     (DocumentError, "interpretations.I.concepts.A: unknown element ' 1'"), False),
    ("empty string", '[""]', (DocumentError, "interpretations.I.concepts.A: unknown element ''"),
     False),
    ("empty string before a number", '[""2]',
     (ParseError, "invalid JSON: Expecting ',' delimiter"), False),
    ("space string before a number", '[" "2]',
     (ParseError, "invalid JSON: Expecting ',' delimiter"), False),
    ("two numbers in one slot", "[1 2]", (ParseError, "invalid JSON: Expecting ',' delimiter"),
     False),
    ("trailing comma", "[0, 1,]", (ParseError, "invalid JSON: Expecting value"), False),
    ("leading zeros and an empty slot", "[00, ]", (ParseError, "invalid JSON: Expecting ','"),
     False),
    ("leading comma", "[,1]", (ParseError, "invalid JSON: Expecting value"), False),
    ("vertical tab", "[1\x0b]", (ParseError, "invalid JSON: Expecting ',' delimiter"), False),
    ("bare and quoted", '[0, "1"]', {0, 1}, False),
    ("spaced out", '[ 2 ,\n 0\t]', {0, 2}, True),
    ("quoted", '["2", "0"]', {0, 2}, True),
]


class TestScan:
    """The reference lists that the loader reads straight from the bytes
    give what json.loads and the list reader give."""

    @given(st.one_of(
        _scan_candidates(),
        st.lists(_BAD, min_size=1, max_size=4).map(lambda tokens: '["0", ' + ", ".join(tokens)
                                                    + "]"),
        st.lists(st.sampled_from(["0", "00", "01", "007", "", " ", "\t", "1", "10", '"0"', '"00"',
                                  str(10 ** 18), str(10 ** 18 - 1), "0" * 20, "9" * 20]),
                 min_size=1, max_size=5).map(lambda tokens: "[" + ",".join(tokens) + "]")))
    @settings(max_examples=1500, deadline=None)
    def test_lists_are_read_as_json_reads_them(self, text):
        read = document._decimal_list(text.encode())
        if read is not None:
            values, width, quoted = read
            read = values.tolist(), width, quoted
        assert read == _read_as_json(text)

    @given(_texts())
    @settings(max_examples=600, deadline=None)
    def test_documents_load_as_without_the_scan(self, text):
        _same_as_unscanned(text)

    @given(_texts())
    @settings(max_examples=100, deadline=None)
    def test_files_load_as_without_the_scan(self, text):
        # the CLI's path: the bytes of a file, against the text a
        # text-mode read gives
        with tempfile.NamedTemporaryFile("wb", suffix=".json") as handle:
            handle.write(text.encode())
            handle.flush()
            with open(handle.name, encoding="utf-8") as read:
                expected = _outcome(lambda: _unscanned(read.read()))
            assert _outcome(lambda: load_workspace(handle.name)) == expected

    @pytest.mark.parametrize("case,refs,expected,scanned", EDGES, ids=[e[0] for e in EDGES])
    def test_edge_cases(self, case, refs, expected, scanned):
        text = '{"signature": %s, "interpretations": {"I": {"domain": 3, "concepts": {"A": %s}, ' \
               '"individuals": {"a": 0}}}}' % (json.dumps(SIG), refs)
        got = _same_as_unscanned(text)
        if isinstance(expected, set):
            assert got[2]["I"].concept_ext["A"] == expected
        else:
            assert got[0] is expected[0] and got[1].startswith(expected[1])
        assert (document._decimal_list(refs.encode()) is not None) == scanned

    @pytest.mark.parametrize("count,scanned", [(10 ** 18 - 1, True), (10 ** 18, False),
                                               (2 ** 63 - 1, False), (2 ** 63, False)])
    def test_large_counts(self, count, scanned):
        text = json.dumps(_with_counts({"forward": [[0, 1, count]]}))
        got = _same_as_unscanned(text)
        if count < 2 ** 63:
            assert got[3]["I"].qu[("r", False)] == {(0, 1): count}
            counts = _scan_counts(text)
            # roles.r, and counts.r.forward when it is scanned
            assert (counts.scanned, counts.declined) == (1 + scanned, 1 - scanned)
        else:
            assert got == (DocumentError, "interpretations.I.counts.r.forward: count %d is not "
                                          "below 2**63" % count)

    def test_list_after_a_colon_in_a_key(self):
        sig = {"concepts": ["A", "B: [0, 1]"], "roles": [], "individuals": []}
        text = json.dumps({"signature": sig, "interpretations": {"I": {
            "domain": 3, "concepts": {"A": [0], "B: [0, 1]": [2]}}}})
        got = _same_as_unscanned(text)
        assert got[2]["I"].concept_ext == {"A": {0}, "B: [0, 1]": {2}}
        assert (_scan_counts(text).scanned, _scan_counts(text).declined) == (2, 0)

    def test_duplicate_keys_last_wins(self):
        text = '{"signature": %s, "interpretations": {"I": {"domain": 3, ' \
               '"concepts": {"A": [0], "A": [1, 2]}, "individuals": {"a": 0}, ' \
               '"concepts": {"A": [2]}}}}' % json.dumps(SIG)
        got = _same_as_unscanned(text)
        assert got[2]["I"].concept_ext["A"] == {2}

    def test_lists_at_other_positions_stay_lists(self):
        sig = {"concepts": ["1", "2"], "roles": [], "individuals": []}
        text = json.dumps({"signature": sig, "interpretations": {"I": {
            "domain": ["0", "1"], "concepts": {"1": ["1"], "2": []}}}, "kb": {"tbox": []}})
        got = _same_as_unscanned(text)
        assert got[0].concept_names == ("1", "2") and got[4]["tbox"] == ()
        for phi in ([1], []):
            bad = json.dumps({"signature": sig, "phi": phi, "interpretations": {}})
            assert _same_as_unscanned(bad) == (DocumentError,
                                               "phi must be a string of feature letters")
        bad = json.dumps(_doc({"individuals": {"a": [0]}}))
        assert _same_as_unscanned(bad) == (
            DocumentError, "interpretations.I.individuals.a: element reference [0] is not an "
                           "index or name")
        bad = json.dumps(_doc({"concepts": {"A": [{"k": [0]}]}}))
        assert _same_as_unscanned(bad) == (
            DocumentError, "interpretations.I.concepts.A: element reference {'k': [0]} is not "
                           "an index or name")

    def test_decimal_name_lists(self):
        # names given as decimals out of order are found by value, and a
        # list "0", "1", ... in order loads as a domain given as a size
        for domain, kind in ((["2", "0", "1"], tuple), (["0", "1", "2"], IndexNames),
                             (["7", "30", "4"], tuple)):
            refs = [[domain[2], domain[0]], [domain[1], domain[1]]]
            text = json.dumps(_doc({"domain": domain, "roles": {"r": refs},
                                    "concepts": {"A": domain[1:]},
                                    "individuals": {"a": domain[2]}}))
            got = _same_as_unscanned(text)
            assert got[2]["I"].role_ext["r"] == {(2, 0), (1, 1)}
            assert type(loads_workspace(text).element_names["I"]) is kind
            counts = _scan_counts(text)
            assert (counts.scanned, counts.declined) == (3, 0)

    def test_every_list_of_an_index_document_is_scanned(self):
        doc = _doc({"concepts": {"A": [2, 0]}, "roles": {"r": [[0, 1], [2, 2]]},
                    "counts": {"r": {"forward": [[0, 1, 4], [2, 2, 1]],
                                     "backward": [[1, 0, 4], [2, 2, 1]]}},
                    "self_loops": {"r": [2]}})
        for text in (json.dumps(doc), json.dumps(doc, indent=3)):
            counts = _scan_counts(text)
            assert (counts.bytes, counts.scanned, counts.declined) == (len(text), 5, 0)

    def test_every_list_of_a_written_document_is_scanned(self):
        rng = H.seeded(213)
        for trial in range(12):
            sig = make_signature(rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 2))
            interp = random_interpretation(rng, sig, rng.randint(1, 14), 0.3, 0.5)
            qsi = qs_embedding(interp) if trial % 2 else None
            text = dumps_document({"signature": signature_to_json(sig), "interpretations": {
                "I": InterpretationBody(interp, None, qsi)}})
            lists = 1 + len(sig.concept_names) + len(sig.role_names) * (4 if qsi else 1)
            counts = _scan_counts(text)
            assert (counts.scanned, counts.declined) == (lists, 0), text
            _same_as_unscanned(text)

    def test_named_documents_scan_none(self):
        # lists of prefixed names below the floor, and names without a
        # shared prefix above it, are parsed lists
        doc = {"signature": SIG, "interpretations": {"I": {
            "domain": ["x0", "x1", "x2"], "concepts": {"A": ["x1"]},
            "roles": {"r": [["x0", "x2"]]}, "individuals": {"a": "x0"}}}}
        counts = _scan_counts(json.dumps(doc))
        assert (counts.scanned, counts.declined) == (0, 3)
        names = ["a", "b"] * 30 + ["a%d" % i for i in range(60)]
        text = _names_doc(names[60:] + names[:2], names[:40], [names[:2]] * 30)
        assert len(text) > 3 * document._PREFIXED_FLOOR
        assert (_scan_counts(text).scanned, _scan_counts(text).declined) == (0, 3)
        _same_as_unscanned(text)

    @given(st.sampled_from(["x", "x_", "X", "ab"]).flatmap(_texts))
    @settings(max_examples=600, deadline=None)
    def test_prefixed_documents_load_as_without_the_scan(self, text):
        with _floor(0):
            _same_as_unscanned(text)

    @pytest.mark.parametrize("name", ["x5", "x05", "xy5", "x", "x_5", "x5 ", "x-1", "x1y2",
                                      "x%d" % 10 ** 18, "X5", "5", 5])
    def test_prefixed_names(self, name):
        # a list of names x0, x2, ... ending in name: only "x5" keeps it
        # readable from the bytes, and the index 5 is taken from the
        # parsed list
        domain = ["x%d" % i for i in range(80)]
        text = _names_doc(domain, domain[::2] + [name])
        got = _same_as_unscanned(text)
        if name in ("x5", 5):
            assert got[2]["I"].concept_ext["A"] == set(range(0, 80, 2)) | {5}
            counts = _scan_counts(text)
            assert (counts.scanned, counts.declined) == ((2, 0) if name == "x5" else (1, 1))
        else:
            assert got == (DocumentError,
                           "interpretations.I.concepts.A: unknown element %r" % name)
        # a domain that holds the name is read from the bytes only when
        # all its names are one prefix and canonical decimals
        if isinstance(name, str) and name not in domain:
            text = _names_doc(domain + [name], [name] * 40, [[name, "x1"]])
            got = _same_as_unscanned(text)
            assert got[5]["I"] == domain + [name] and got[6]["I"][80] == 80
            assert type(loads_workspace(text).element_names["I"]) is tuple
            counts = _scan_counts(text)
            assert (counts.scanned, counts.declined) == (0, 3)

    def test_prefixed_documents_are_read_from_the_bytes(self):
        # names x0, x1, ... in order, and names by value
        for step in (1, 3):
            domain = ["x%d" % i for i in range(0, 80 * step, step)]
            rows = [[domain[x], domain[3 * x % 80]] for x in range(40)]
            text = _names_doc(domain, domain[::2], rows, domain[-1])
            got = _same_as_unscanned(text)
            ws = loads_workspace(text)
            names = ws.element_names["I"]
            assert type(names) is (IndexNames if step == 1 else tuple)
            assert list(names) == domain and got[5]["I"] == domain
            assert ws.interpretation("I").role_ext["r"] == {(x, 3 * x % 80) for x in range(40)}
            assert ws.interpretation("I").individual_map["a"] == 79
            assert (_scan_counts(text).scanned, _scan_counts(text).declined) == (3, 0)
        # the quoted references of a list must have the domain's prefix
        domain = ["x%d" % i for i in range(60)]
        for other in ("X", "y", "x_", ""):
            members = [other + name[1:] for name in domain[::2]]
            text = _names_doc(domain, members)
            assert _same_as_unscanned(text) == (
                DocumentError, "interpretations.I.concepts.A: unknown element %r" % members[0])
            text = _names_doc(members, domain[::2])
            got = _same_as_unscanned(text)
            assert got[0] is DocumentError and "unknown element 'x0'" in got[1]
        with _floor(0):
            text = _names_doc(["X0", "X1", "X2"], ["x1"], [["X0", "X1"]])
            assert _same_as_unscanned(text) == (
                DocumentError, "interpretations.I.concepts.A: unknown element 'x1'")

    def test_prefixed_domains_that_are_no_name_list(self):
        # duplicate names, and a domain out of order, whose names are
        # found by value
        for size in (2, 60):
            text = _names_doc(["x1"] * size, ["x1"] * 40)
            assert _same_as_unscanned(text) == (DocumentError,
                                                "interpretations.I.domain has duplicate names")
        domain = ["x%d" % i for i in range(3, 123)][::-1]
        text = _names_doc(domain, domain[::2], [[domain[0], domain[119]]])
        got = _same_as_unscanned(text)
        assert type(loads_workspace(text).element_names["I"]) is tuple
        assert got[2]["I"].concept_ext["A"] == set(range(0, 120, 2))
        assert got[2]["I"].role_ext["r"] == {(0, 119)}
        assert (_scan_counts(text).scanned, _scan_counts(text).declined) == (2, 1)
        assert _same_as_unscanned(_names_doc(domain, ["x2"] * 60)) == (
            DocumentError, "interpretations.I.concepts.A: unknown element 'x2'")

    def test_prefixed_domain_above_the_limit(self, monkeypatch):
        # refused before names or their index are made
        def made(*args):
            raise AssertionError("names made")

        monkeypatch.setattr(document, "MAX_ELEMENTS", 50)
        monkeypatch.setattr(document, "IndexNames", made)
        monkeypatch.setattr(document, "_name_index", made)
        for domain in (["x%d" % i for i in range(51)], ["x%d" % i for i in range(51)][::-1]):
            with pytest.raises(TooLargeError, match="51 elements, more than the limit of 50"):
                loads_workspace(_names_doc(domain, []))
        monkeypatch.undo()
        assert len(loads_workspace(_names_doc(domain[1:], [])).element_names["I"]) == 50

    def test_short_prefixed_lists_are_parsed(self):
        # the floor: a list below it is left to json.loads, whatever its
        # names; one above it is read from the bytes
        short = ["x%d" % i for i in range(3)]
        long = ["x%d" % i for i in range(40)]
        assert len(json.dumps(short)) < document._PREFIXED_FLOOR <= len(json.dumps(long))
        for domain, concept, counts in ((short, short, (0, 2)), (long, short, (1, 1)),
                                        (long, long, (2, 0))):
            text = _names_doc(domain, concept)
            _same_as_unscanned(text)
            assert (_scan_counts(text).scanned, _scan_counts(text).declined) == counts
            with _floor(0):
                _same_as_unscanned(text)
                assert _scan_counts(text).scanned == 2


class TestBytes:
    def test_invalid_utf8_is_a_parse_error(self):
        data = json.dumps(_doc({})).encode().replace(b'"a"', b'"a\xff"', 1)
        with pytest.raises(ParseError) as info:
            loads_workspace(data)
        at = data.index(b"\xff")
        assert str(info.value) == ("invalid UTF-8: byte 0xff, invalid start byte "
                                   "(line 1, column %d)" % (at + 1))
        # columns count characters
        with pytest.raises(ParseError, match=r"\(line 2, column 2\)"):
            loads_workspace("{\né".encode() + b"\xc3(")

    def test_byte_order_mark_message_is_kept(self):
        text = "\ufeff" + json.dumps(_doc({}))
        with pytest.raises(ParseError) as info:
            loads_workspace(text.encode())
        assert str(info.value) == ("invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig) "
                                   "(line 1, column 1)")
        with pytest.raises(ParseError) as again:
            loads_workspace(text)
        assert str(again.value) == str(info.value)

    def test_non_ascii_documents_load_without_the_scan(self):
        doc = {"signature": {"concepts": ["Å"], "roles": ["r"], "individuals": []},
               "interpretations": {"I": {"domain": 3, "concepts": {"Å": [1]},
                                         "roles": {"r": [[0, 2]]}}}}
        text = json.dumps(doc, ensure_ascii=False)
        _same_as_unscanned(text)
        counts = _scan_counts(text.encode())
        assert (counts.bytes, counts.scanned, counts.declined) == (len(text.encode()), 0, 2)

    def test_file_line_breaks_count_as_in_text_mode(self, tmp_path):
        path = tmp_path / "doc.json"
        for breaks in (b"\r\n", b"\r"):
            path.write_bytes(b"{" + breaks + b'"signature":' + breaks + b"]")
            with pytest.raises(ParseError, match=r"\(line 3, column 1\)"):
                load_workspace(str(path))

class TestNesting:
    """A document nested more than MAX_NESTING levels is a ParseError at
    the first array or object that opens too deep; one that the schema
    accepts nests at most 7."""

    @pytest.mark.parametrize("opening", ['{"a":', "["])
    def test_deep_documents_are_parse_errors(self, opening, tmp_path):
        depth = 100_000
        text = opening * depth + ("1" + "}" * depth if opening != "[" else "")
        path = tmp_path / "deep.json"
        path.write_text(text)
        column = len(opening) * document.MAX_NESTING + 1
        message = ("document nests arrays and objects more than 100 levels deep "
                   "(line 1, column %d)" % column)
        for load in (lambda: loads_workspace(text), lambda: loads_workspace(text.encode()),
                     lambda: load_workspace(str(path))):
            with pytest.raises(ParseError) as info:
                load()
            assert str(info.value) == message

    def test_the_limit_is_exact(self):
        for extra, error in ((0, DocumentError), (1, ParseError)):
            inner = "[" * (document.MAX_NESTING - 1 + extra) + "]" * (document.MAX_NESTING - 1 + extra)
            with pytest.raises(error) as info:
                loads_workspace('{"signature": %s}' % inner)
            if error is ParseError:
                assert str(info.value).endswith("(line 1, column %d)"
                                                % (len('{"signature": ') + document.MAX_NESTING))

    def test_strings_do_not_nest(self):
        # brackets inside strings, escaped quotes and non-ASCII text count
        # for nothing; the column counts characters
        for name in ("[[[{{{", '\\"[[', "é[[", "\\\\"):
            prefix = '{"signature": ["%s", ' % name
            inner = "[" * (document.MAX_NESTING - 2) + "]" * (document.MAX_NESTING - 2)
            with pytest.raises(DocumentError):
                loads_workspace(prefix + inner + "]}")
            with pytest.raises(ParseError) as info:
                loads_workspace(prefix + "[" + inner + "]]}")
            column = len(prefix) + document.MAX_NESTING - 1
            assert str(info.value).endswith("(line 1, column %d)" % column), name

    def test_accepted_documents_nest_at_most_seven_levels(self):
        rng = H.seeded(431)
        for doc, _ in _documents(rng, 12):
            text = dumps_document(doc)
            loads_workspace(text)
            assert document._nesting_error(text) is None
            levels = np.cumsum([{"[": 1, "{": 1, "]": -1, "}": -1}.get(c, 0)
                                for c in text if c in "[]{}"])
            assert levels.max() <= 7

    def test_json_syntax_errors_are_kept(self):
        with pytest.raises(ParseError, match="invalid JSON: Expecting value"):
            loads_workspace("[" * 150 + "x")


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
