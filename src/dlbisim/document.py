"""JSON workspace documents: signature, interpretations, features, KB.

A document is a single JSON object:

    {
      "signature": {"concepts": [...], "roles": [...], "individuals": [...]},
      "phi": "IOQ",
      "interpretations": {
        "I1": {
          "domain": 6            (or a list of unique element names),
          "concepts": {"F": [elements...]},
          "roles": {"r": [[src, dst], ...]},
          "individuals": {"a": element},
          "counts": {"r": {"forward": [[src, dst, k], ...],
                           "backward": [[src, dst, k], ...]}},
          "self_loops": {"r": [elements...]}
        }
      },
      "kb": {"rbox": [...], "tbox": [...], "abox": [...]}
    }

Elements are referred to either by index or, when the domain was given
as a name list, by name; the elements of a domain given as a size are
named by their indices in decimal ("0", "1", ...).  Only "signature"
and "interpretations" are required; "concepts", "roles", "counts" and
"self_loops" default to empty, "individuals" must cover the signature's
individual names.  KB entries are strings in the concept grammar (see
the syntax module).

"counts" and "self_loops" attach multiplicity data to an
interpretation.  When only one of the two is present the other takes
the neutral default: multiplicity 1 per edge in both directions, and
self loops read off the role's diagonal.  A direction or role missing
inside "counts" takes the same default.  Counts are below 2**63.

Loading turns each list of element references into an int64 array
with one scan of the list: one type check, one name lookup per name
and one array conversion; only a list that fails them is read again
one entry at a time, to name its first problem.  Each interpretation
keeps its edges in those arrays (see the core module); a repeated edge
counts once, and of two "counts" rows for one edge the later one
counts.  Writing goes the other way: dumps_document writes an
InterpretationBody from the arrays, each list of rows as whole-array
sums of per-element pieces (object arrays of strings), appends every
piece of the document to one list and joins it once.  The text is
exactly what json.dumps(indent=2, sort_keys=True) writes for the same
data.

Malformed JSON and unparseable grammar strings raise ParseError; every
structural or semantic problem (unknown fields, bad types, names or
element references) raises DocumentError or one of the construction
errors from the core module.  A domain of more than MAX_ELEMENTS
elements raises TooLargeError before anything is allocated for it, so a
few bytes of input cannot ask for gigabytes of memory.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .core import (
    FeatureSet,
    Interpretation,
    QSInterpretation,
    Signature,
    build_interpretation,
    build_qs_interpretation,
)
from .errors import DocumentError, ParseError, TooLargeError
from .syntax import (
    KnowledgeBase,
    parse_assertion,
    parse_gci,
    parse_role_axiom,
)

# the JSON literal json.dumps writes for a string
_literal = json.encoder.encode_basestring_ascii


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise DocumentError("unknown field %r in %s (allowed: %s)"
                                % (key, where, ", ".join(allowed)))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def _str_list(val, where: str) -> list[str]:
    _expect(isinstance(val, list) and set(map(type, val)) <= {str},
            "%s must be a list of strings" % where)
    return val


class IndexNames(Sequence):
    """Names of a domain given as a size: element i is named str(i).

    Names are made on demand.  get is the name index: it maps a name in
    canonical decimal form to its element, like the dict of a name list.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [str(x) for x in range(self.n)[i]]
        return str(range(self.n)[i])

    def __iter__(self):
        return map(str, range(self.n))

    def get(self, name: str) -> int | None:
        if (name.isascii() and name.isdigit() and len(name) <= len(str(self.n))
                and str(int(name)) == name and int(name) < self.n):
            return int(name)
        return None


def _name_index(names):
    """Element index by name: a dict for a name list, the names themselves
    for an index domain."""
    if isinstance(names, IndexNames):
        return names
    return dict(zip(names, range(len(names))))


@dataclass
class Workspace:
    signature: Signature
    phi: FeatureSet | None
    interpretations: dict[str, Interpretation]
    element_names: dict[str, Sequence[str]]
    qs: dict[str, QSInterpretation] = field(default_factory=dict)
    kb: KnowledgeBase | None = None
    kb_strings: dict[str, tuple[str, ...]] | None = None
    element_index: dict = field(default_factory=dict)

    def __post_init__(self):
        for iname, names in self.element_names.items():
            if iname not in self.element_index:
                self.element_index[iname] = _name_index(names)

    def interpretation(self, name: str) -> Interpretation:
        if name not in self.interpretations:
            raise DocumentError("no interpretation named %r in the document (have: %s)"
                                % (name, ", ".join(sorted(self.interpretations)) or "none"))
        return self.interpretations[name]

    def resolve(self, iname: str, ref) -> int:
        """Element index from an index or a domain name."""
        return _resolve_ref(ref, len(self.element_names[iname]), self.element_index[iname],
                            "interpretation %r" % iname)

    def display(self, iname: str, idx: int) -> str:
        return self.element_names[iname][idx]


def _load_signature(obj) -> Signature:
    _expect(isinstance(obj, dict), "signature must be an object")
    _check_keys(obj, ("concepts", "roles", "individuals"), "signature")
    return Signature(
        tuple(_str_list(obj.get("concepts", []), "signature.concepts")),
        tuple(_str_list(obj.get("roles", []), "signature.roles")),
        tuple(_str_list(obj.get("individuals", []), "signature.individuals")),
    )


# Largest domain a document may declare.  An interpretation costs a few
# hundred bytes per element (about 362 MB per million elements for
# `partition`), whatever the number of concept and role names, so this
# keeps the largest document within a few GB.
MAX_ELEMENTS = 1_000_000


def _check_domain_size(size: int, where: str) -> None:
    if size > MAX_ELEMENTS:
        raise TooLargeError("%s.domain has %d elements, more than the limit of %d"
                            % (where, size, MAX_ELEMENTS))


def _load_domain(val, where: str):
    """The domain's names and their index (see _name_index)."""
    if isinstance(val, bool):
        raise DocumentError("%s.domain must be a size or a list of names" % where)
    if isinstance(val, int):
        _expect(val > 0, "%s.domain must be positive" % where)
        _check_domain_size(val, where)
        names = IndexNames(val)
        return names, names
    if isinstance(val, list):
        _check_domain_size(len(val), where)
        names = tuple(_str_list(val, "%s.domain" % where))
        _expect(len(names) > 0, "%s.domain must not be empty" % where)
        index = _name_index(names)
        _expect(len(index) == len(names), "%s.domain has duplicate names" % where)
        return names, index
    raise DocumentError("%s.domain must be a size or a list of names" % where)


def _resolve_ref(ref, n: int, index, where: str) -> int:
    """Element index from an index or a domain name; index.get maps names."""
    # exact types: JSON true/false are bools, which are ints to isinstance
    if type(ref) is int:
        if 0 <= ref < n:
            return ref
        raise DocumentError("%s: index %d outside 0..%d" % (where, ref, n - 1))
    if type(ref) is str:
        x = index.get(ref)
        if x is not None:
            return x
        raise DocumentError("%s: unknown element %r" % (where, ref))
    raise DocumentError("%s: element reference %r is not an index or name" % (where, ref))


def _index_array(refs: list, index, counted: bool = False) -> np.ndarray | None:
    """refs as an int64 array, each name replaced by its element, or None
    when some entry is not an int or a known name, or is an int outside
    int64.  With counted the entries are [src, dst, count] rows flattened,
    and a count must be an int.  The range of the values is not checked."""
    types = set(map(type, refs))
    if not types <= {int, str}:
        return None
    if str in types:
        if counted and not set(map(type, refs[2::3])) <= {int}:
            return None
        get = index.get
        if types == {str}:
            refs = list(map(get, refs))
        else:
            refs = [get(ref) if type(ref) is str else ref for ref in refs]
    try:
        # an unknown name is None here, which np.array refuses
        return np.array(refs, dtype=np.int64)
    except (TypeError, OverflowError):
        return None


def _load_refs(refs: list, n: int, index, where: str) -> np.ndarray:
    """Element indices of a list of references."""
    out = _index_array(refs, index)
    if out is None or (len(out) and (out.min() < 0 or out.max() >= n)):
        # some reference is invalid: resolve one by one to report the first
        out = np.array([_resolve_ref(ref, n, index, where) for ref in refs], dtype=np.int64)
    return out


def _load_rows(items: list, width: int, n: int, index, where: str, shape: str,
               count: str = "") -> np.ndarray:
    """The (m, width) int64 array of [src, dst] (width 2) or [src, dst,
    count] (width 3) rows.  The rows are flattened and read as one array;
    when one is malformed, they are checked again one by one, which
    reports the first problem in document order: shape is the message
    for an entry of the wrong form, count the one for a bad count."""
    if set(map(type, items)) <= {list} and set(map(len, items)) <= {width}:
        rows = _index_array(list(chain.from_iterable(items)), index, width == 3)
        if rows is not None:
            rows = rows.reshape(-1, width)
            refs = rows[:, :2]
            if not len(rows) or (refs.min() >= 0 and refs.max() < n
                                 and (width == 2 or rows[:, 2].min() >= 0)):
                return rows
    rows = []
    for item in items:
        _expect(isinstance(item, list) and len(item) == width, shape)
        row = [_resolve_ref(item[0], n, index, where), _resolve_ref(item[1], n, index, where)]
        if width == 3:
            k = item[2]
            _expect(isinstance(k, int) and not isinstance(k, bool) and k >= 0,
                    "%s: count must be a non-negative integer" % count)
            _expect(k < 2 ** 63, "%s: count %d is not below 2**63" % (count, k))
            row.append(k)
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, width)


def _load_counts(obj, sig: Signature, n: int, index, where: str):
    _expect(isinstance(obj, dict), "%s.counts must be an object" % where)
    qu: dict[tuple[str, bool], np.ndarray] = {}
    for role, spec in obj.items():
        _expect(role in sig.role_index, "%s.counts: %r is not a role name" % (where, role))
        _expect(isinstance(spec, dict), "%s.counts.%s must be an object" % (where, role))
        _check_keys(spec, ("forward", "backward"), "%s.counts.%s" % (where, role))
        for key, inverted in (("forward", False), ("backward", True)):
            if key not in spec:
                continue
            entries = spec[key]
            _expect(isinstance(entries, list), "%s.counts.%s.%s must be a list" % (where, role, key))
            qu[(role, inverted)] = _load_rows(
                entries, 3, n, index, where,
                "%s.counts.%s.%s entries must be [src, dst, count]" % (where, role, key),
                "%s.counts.%s.%s" % (where, role, key))
    return qu


def _load_interpretation(obj, sig: Signature, where: str):
    _expect(isinstance(obj, dict), "%s must be an object" % where)
    _check_keys(obj, ("domain", "concepts", "roles", "individuals", "counts", "self_loops"), where)
    _expect("domain" in obj, "%s is missing the domain field" % where)
    names, index = _load_domain(obj["domain"], where)
    n = len(names)

    concepts = obj.get("concepts", {})
    _expect(isinstance(concepts, dict), "%s.concepts must be an object" % where)
    concept_ext = {}
    for cname, refs in concepts.items():
        _expect(isinstance(refs, list), "%s.concepts.%s must be a list" % (where, cname))
        concept_ext[cname] = _load_refs(refs, n, index, "%s.concepts.%s" % (where, cname))

    roles = obj.get("roles", {})
    _expect(isinstance(roles, dict), "%s.roles must be an object" % where)
    role_ext = {}
    for rname, pairs in roles.items():
        _expect(isinstance(pairs, list), "%s.roles.%s must be a list" % (where, rname))
        role_ext[rname] = _load_rows(pairs, 2, n, index, "%s.roles.%s" % (where, rname),
                                     "%s.roles.%s entries must be [src, dst]" % (where, rname))

    individuals = obj.get("individuals", {})
    _expect(isinstance(individuals, dict), "%s.individuals must be an object" % where)
    individual_map = {a: _resolve_ref(ref, n, index, "%s.individuals.%s" % (where, a))
                      for a, ref in individuals.items()}

    interp = build_interpretation(sig, n, concept_ext, role_ext, individual_map)

    qsi = None
    if "counts" in obj or "self_loops" in obj:
        qu = _load_counts(obj.get("counts", {}), sig, n, index, where)
        for role in sig.role_names:
            for inverted in (False, True):
                if (role, inverted) not in qu:
                    u, v = interp.edges(role, inverted)
                    qu[(role, inverted)] = np.column_stack((u, v, np.ones_like(u)))
        if "self_loops" in obj:
            loops_obj = obj["self_loops"]
            _expect(isinstance(loops_obj, dict), "%s.self_loops must be an object" % where)
            se = {}
            for role, refs in loops_obj.items():
                _expect(role in sig.role_index,
                        "%s.self_loops: %r is not a role name" % (where, role))
                _expect(isinstance(refs, list), "%s.self_loops.%s must be a list" % (where, role))
                se[role] = _load_refs(refs, n, index, "%s.self_loops.%s" % (where, role))
        else:
            se = {role: src[src == dst] for role, (src, dst) in interp.role_edges.items()}
        qsi = build_qs_interpretation(interp, qu, se)
    return interp, names, index, qsi


def _load_kb(obj) -> tuple[KnowledgeBase, dict[str, tuple[str, ...]]]:
    _expect(isinstance(obj, dict), "kb must be an object")
    _check_keys(obj, ("rbox", "tbox", "abox"), "kb")
    raw = {
        "rbox": tuple(_str_list(obj.get("rbox", []), "kb.rbox")),
        "tbox": tuple(_str_list(obj.get("tbox", []), "kb.tbox")),
        "abox": tuple(_str_list(obj.get("abox", []), "kb.abox")),
    }
    kb = KnowledgeBase(
        tuple(parse_role_axiom(s) for s in raw["rbox"]),
        tuple(parse_gci(s) for s in raw["tbox"]),
        tuple(parse_assertion(s) for s in raw["abox"]),
    )
    return kb, raw


def _parse_json(text: str):
    """json.loads with the cyclic garbage collector paused.

    The parse allocates one list or dict per JSON array or object, and
    each allocation counts towards the collector's thresholds, so without
    the pause it traverses the growing tree again and again; the tree
    has no cycles, so those collections find nothing.  On a 10 MB
    document of 600 000 edges the pause halves the parse time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc.msg, exc.lineno, exc.colno)
    finally:
        if was_enabled:
            gc.enable()


def loads_workspace(text: str) -> Workspace:
    doc = _parse_json(text)
    _expect(isinstance(doc, dict), "document must be a JSON object")
    _check_keys(doc, ("signature", "phi", "interpretations", "kb"), "document")
    _expect("signature" in doc, "document is missing the signature field")
    _expect("interpretations" in doc, "document is missing the interpretations field")
    sig = _load_signature(doc["signature"])

    phi = None
    if "phi" in doc:
        _expect(isinstance(doc["phi"], str), "phi must be a string of feature letters")
        try:
            phi = FeatureSet.from_string(doc["phi"])
        except ValueError as exc:
            raise DocumentError(str(exc))

    body = doc["interpretations"]
    _expect(isinstance(body, dict), "interpretations must be an object")
    interpretations = {}
    element_names = {}
    element_index = {}
    qs = {}
    for iname, spec in body.items():
        interp, names, index, qsi = _load_interpretation(spec, sig, "interpretations.%s" % iname)
        interpretations[iname] = interp
        element_names[iname] = names
        element_index[iname] = index
        if qsi is not None:
            qs[iname] = qsi

    kb = None
    kb_strings = None
    if "kb" in doc:
        kb, kb_strings = _load_kb(doc["kb"])
    return Workspace(sig, phi, interpretations, element_names, qs, kb, kb_strings, element_index)


def load_workspace(path: str) -> Workspace:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_workspace(handle.read())


class InterpretationBody:
    """One interpretation as a value in a document for dumps_document,
    which writes it straight from the edge arrays, every list sorted.
    names are the element names, by default the indices."""

    __slots__ = ("interp", "names", "qsi")

    def __init__(self, interp: Interpretation, names: Sequence[str] | None = None,
                 qsi: QSInterpretation | None = None):
        self.interp = interp
        self.names = names
        self.qsi = qsi

    def tree(self) -> dict:
        """The JSON object, with each list of names or rows as a _Refs."""
        interp, qsi = self.interp, self.qsi
        names = self.names if self.names is not None else IndexNames(interp.n)
        literals = _Literals(names)
        sig = interp.signature
        out: dict = {"domain": _Refs(literals, np.arange(interp.n))}
        out["concepts"] = {a: _Refs(literals, interp.concept_members[a]) for a in sig.concept_names}
        out["roles"] = {r: _Refs(literals, *interp.edges(r)) for r in sig.role_names}
        out["individuals"] = {a: names[x] for a, x in interp.individual_map.items()}
        if qsi is not None:
            out["counts"] = {
                r: {key: _Refs(literals, *interp.edges(r, inverted), qsi.weights[(r, inverted)])
                    for key, inverted in (("forward", False), ("backward", True))}
                for r in sig.role_names}
            out["self_loops"] = {r: _Refs(literals, qsi.loops[r]) for r in sig.role_names}
        return out


def interpretation_to_json(interp: Interpretation, names=None,
                           qsi: QSInterpretation | None = None) -> dict:
    """JSON-ready form of one interpretation: the data dumps_document
    writes for InterpretationBody(interp, names, qsi)."""
    out: list[str] = []
    _write(InterpretationBody(interp, names, qsi), "\n", out)
    return json.loads("".join(out))


class _Literals:
    """The JSON literals of a domain's element names, and row pieces made
    from them, each an object array indexed by element and made once."""

    def __init__(self, names):
        self.text = np.array(list(map(_literal, names)), dtype=object)
        self._pieces: dict[tuple[str, str], np.ndarray] = {}

    def pieces(self, before: str, after: str) -> np.ndarray:
        key = (before, after)
        if key not in self._pieces:
            self._pieces[key] = before + self.text + after
        return self._pieces[key]


def _rows(xs: np.ndarray, ys: np.ndarray, left: _Literals, right: _Literals, pad: str,
          counts: np.ndarray | None = None) -> list[str]:
    """The JSON texts of the [left, right] rows of the index arrays xs
    and ys, or with counts of the [left, right, count] rows, in a list
    whose first line is indented as pad ("\\n" and spaces) says.  Each
    row is a sum of object arrays: the pieces of its elements and the
    text of its count, made once per distinct count."""
    item, inner = pad + "  ", pad + "    "
    rows = left.pieces("[" + inner, "," + inner)[xs]
    if counts is None:
        rows += right.pieces("", item + "]")[ys]
    else:
        rows += right.pieces("", "," + inner)[ys]
        distinct, which = np.unique(counts, return_inverse=True)
        rows += np.array([str(k) + item + "]" for k in distinct.tolist()], dtype=object)[which]
    return rows.tolist()


class _Refs:
    """A list of element names (one index array), or of [src, dst] or
    [src, dst, count] rows (two or three arrays), written by dumps_document."""

    __slots__ = ("literals", "cols")

    def __init__(self, literals: _Literals, *cols: np.ndarray):
        self.literals = literals
        self.cols = cols

    def write(self, pad: str, out: list[str]) -> None:
        cols = self.cols
        if not len(cols[0]):
            out.append("[]")
            return
        if len(cols) == 1:
            items = self.literals.text[cols[0]].tolist()
        else:
            items = _rows(cols[0], cols[1], self.literals, self.literals, pad, *cols[2:])
        item = pad + "  "
        out += ("[" + item, ("," + item).join(items), pad + "]")


def _write(value, pad: str, out: list[str]) -> None:
    """Appends to out the pieces of value as json.dumps(indent=2,
    sort_keys=True) writes it at the indentation pad ("\\n" and spaces)
    says."""
    if isinstance(value, InterpretationBody):
        value = value.tree()
    if isinstance(value, _Refs):
        value.write(pad, out)
    elif isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        inner = pad + "  "
        sep = "{"
        for key in sorted(value):
            out.append(sep + inner + _literal(key) + ": ")
            _write(value[key], inner, out)
            sep = ","
        out.append(pad + "}")
    else:
        # json.dumps writes every line break of a nested value as "\n" and
        # the indentation of the line relative to the value's own
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", pad))


def signature_to_json(sig: Signature) -> dict:
    return {
        "concepts": list(sig.concept_names),
        "roles": list(sig.role_names),
        "individuals": list(sig.individual_names),
    }


def dumps_document(doc: dict) -> str:
    """Canonical rendering: sorted keys, two-space indent, final newline.

    The text is json.dumps(doc, indent=2, sort_keys=True) + "\\n"; an
    InterpretationBody value in doc, or in an object inside it, is
    written as its interpretation_to_json form would be.
    """
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def dumps_blocks(order: np.ndarray, bounds, block_order, names) -> str:
    """dumps_document of {"blocks": [[name, ...], ...]}, for the blocks
    that are the runs order[bounds[b]:bounds[b + 1]], listed in
    block_order.  Like the rows of _rows, the text is one join of
    per-element pieces: each element's literal between the line breaks
    and brackets that its place in its block calls for."""
    bounds = np.asarray(bounds, dtype=np.int64)
    block_order = np.asarray(block_order, dtype=np.int64)
    sizes = np.diff(bounds)[block_order]
    ends = np.cumsum(sizes)
    # the elements, block after block in block_order
    elems = order[np.repeat(bounds[block_order] - (ends - sizes), sizes) + np.arange(len(order))]
    place = np.zeros(len(elems), dtype=np.int64)
    place[ends - sizes] += 1  # first of its block
    place[ends - 1] += 2      # last of its block
    item, inner = "\n    ", "\n      "
    close = item + "]," + item
    heads = ["", "[" + inner, "", "[" + inner]
    tails = ["," + inner, "," + inner, close, close]
    parts = [""] * (3 * len(elems))
    parts[0::3] = np.array(heads, dtype=object)[place].tolist()
    parts[1::3] = _Literals(names).text[elems].tolist()
    parts[2::3] = np.array(tails, dtype=object)[place].tolist()
    parts[0] = '{\n  "blocks": [' + item + parts[0]
    parts[-1] = item + "]\n  ]\n}\n"
    return "".join(parts)


# pairs that dumps_pairs reads and writes at a time
_PAIR_CHUNK = 1 << 16


def dumps_pairs(pairs, left_names, right_names) -> str:
    """dumps_document of {"bisimilar": ..., "pairs": [[left, right], ...]}.

    pairs iterates over (left index, right index) tuples, or is None for
    a negative verdict, which has no "pairs" key.  The pairs are read
    _PAIR_CHUNK at a time into index arrays and written as _rows, so at
    most _PAIR_CHUNK rows are held as separate strings, and the text is
    the same as the general encoder's.
    """
    if pairs is None:
        return dumps_document({"bisimilar": False})
    pairs = iter(pairs)
    left, right = _Literals(left_names), _Literals(right_names)
    sep = ",\n    "
    parts = ['{\n  "bisimilar": true,\n  "pairs": [\n    ']
    while True:
        flat = np.fromiter(chain.from_iterable(islice(pairs, _PAIR_CHUNK)), dtype=np.int64)
        if not len(flat):
            break
        parts += (sep.join(_rows(flat[0::2], flat[1::2], left, right, "\n  ")), sep)
    if len(parts) == 1:
        return dumps_document({"bisimilar": True, "pairs": []})
    parts[-1] = "\n  ]\n}\n"
    return "".join(parts)
