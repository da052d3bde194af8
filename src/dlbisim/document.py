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

Loading reads the lists of decimal references straight from the
document's bytes into int64 arrays, and json.loads parses only the
rest (the skeleton), in which a short string marks each list cut out.
The scan runs on a document that is ASCII and has no backslash; then
quote parity tells exactly what is inside a string.  A candidate is an
object value that opens with ":", whitespace and "[" outside any
string, and ends at the last "]" before the next ":".  It is read only
if, by whole-text passes (bytes methods, numpy, one np.fromstring), it
proves to be a flat list, or a list of rows of width 2 or 3, of JSON
integers or strings of digits below 10**18 without leading zeros,
every reference bare or every one quoted, the counts of rows bare; its
first token is looked at first, so most other lists cost O(1).  The
strings may also all be one prefix of letters and "_" followed by such
digits, as in the names x0, x1, ... that gen writes; such a list is
read from 256 bytes up (_PREFIXED_FLOOR), and its prefix is recorded
with it.  A marker becomes an array only where the loader reads
references: the domain (its names, when they are all quoted decimals
after one prefix; prefix + "0", prefix + "1", ... in order loads as
IndexNames, like a domain given as a size), "concepts", "roles",
"counts" and "self_loops".  Bare references are indices; quoted ones
are names, found by value among the decimals of the domain's names,
when the list's prefix is the domain's.  Anywhere else, and when a
reference names no element, a marker is turned back into the list
json.loads reads from its text.  Every list not read from the bytes is
read as before: one type check, one name lookup per name and one array
conversion, and only a list that fails them is read again one entry at
a time, to name its first problem.  So the errors, and the line and
column of a ParseError (if the skeleton does not parse, the whole text
is parsed again), are those of a plain json.loads.  Each interpretation
keeps its edges in those arrays (see the core module); a repeated edge
counts once, and of two "counts" rows for one edge the later one
counts.  Writing goes the other way: dumps_document writes an
InterpretationBody from the arrays.  One layout, _Refs, writes every
list of names: flat, in rows, or in runs (the blocks of a partition).
Each item is its name's literal, made once per element, followed by the
piece that ends it; the pieces of the whole document go into one list,
which is joined once.  The text is exactly what json.dumps(indent=2,
sort_keys=True) writes for the same data.

Bytes that are not UTF-8, malformed JSON, JSON that nests arrays and
objects more than MAX_NESTING = 100 levels deep (brackets inside strings
do not count) and unparseable grammar strings raise ParseError.  A
document that the schema accepts nests at most 7 levels, so the depth is
measured only when a load fails, with the error of the first array or
object that opens too deep in place of the failure; a JSON syntax error
is kept as json.loads reports it.  Every structural or semantic problem
(unknown fields, bad types, names or element references) raises
DocumentError or one of the construction errors from the core module.  A
domain of more than MAX_ELEMENTS elements raises TooLargeError before
anything is allocated for it, so a few bytes of input cannot ask for
gigabytes of memory.
"""

from __future__ import annotations

import gc
import json
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import stats
from .core import (
    FeatureSet,
    Interpretation,
    QSInterpretation,
    Signature,
    build_interpretation,
    build_qs_interpretation,
)
from .errors import BisimError, DocumentError, ParseError, TooLargeError
from .stats import LoadCounters  # noqa: F401 - re-exported, the type of stats.Record.load
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
    """Names of a domain given as a size, element i named str(i), or of
    the name list prefix + "0", prefix + "1", ... in order: element i is
    named prefix + str(i).

    Names are made on demand.  get is the name index: it maps a name
    that is the prefix and a canonical decimal to its element, like the
    dict of a name list.
    """

    __slots__ = ("n", "prefix")

    def __init__(self, n: int, prefix: str = ""):
        self.n = n
        self.prefix = prefix

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.of(range(self.n)[i])
        return self.prefix + str(range(self.n)[i])

    def __iter__(self):
        words = map(str, range(self.n))
        return map(self.prefix.__add__, words) if self.prefix else words

    def of(self, elements) -> list[str]:
        """The names of the elements, which must be in the domain."""
        words = list(map(str, elements))
        prefix = self.prefix
        return [prefix + word for word in words] if prefix else words

    def get(self, name: str) -> int | None:
        if not name.startswith(self.prefix):
            return None
        digits = name[len(self.prefix):]
        if (digits.isascii() and digits.isdigit() and len(digits) <= len(str(self.n))
                and str(int(digits)) == digits and int(digits) < self.n):
            return int(digits)
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


# The bytes that _decimal_list reads a list with: JSON whitespace, digits,
# and the table that turns quotes and brackets into spaces.
_WS = b" \t\n\r"
_DIGITS = b"0123456789"
_SPACED = bytes.maketrans(b'"[]', b"   ")
# 10, 100, ..., 10**17: a value below 10**18 has one digit more than the
# number of these it reaches, and any larger one is taken for 18 digits
_POWERS = 10 ** np.arange(1, 18, dtype=np.int64)


def _decimal_list(seg: bytes):
    """(values, width, quoted) when seg is the text of a JSON list of
    decimal references (width 1) or of [src, dst] or [src, dst, count]
    rows (width 2 or 3), every reference bare or every one quoted, the
    counts bare; else None.  values are the numbers in text order.

    Nothing but whole-text passes: bytes methods, a few numpy passes
    over the bytes and one np.fromstring.  The list's brackets and
    commas, with digits, quotes and whitespace deleted, must be the
    list's shape exactly.  The text read with quotes and brackets as
    spaces must parse as one number per reference, each slot holding one
    run of digits (a slot of whitespace parses as 0, so with a 0 the runs
    are counted).  As many quotes as there are strings must be followed
    by a digit, and as many preceded by one: then each string holds only
    digits.  And the digit count must be the sum of the values' digit
    counts (see _POWERS), which rules out leading zeros and values of 19
    digits or more, so np.fromstring cannot have saturated.
    """
    shape = seg.translate(None, _DIGITS + _WS)
    quoted = b'"' in shape
    ref = b'""' if quoted else b""
    text = np.frombuffer(seg, dtype=np.uint8)
    digit = (text - 48) < 10
    digits = int(np.count_nonzero(digit))
    if shape[1:2] == b"[":
        unit = shape[1:shape.find(b"]") + 1]
        if unit == b"[%s,%s]" % (ref, ref):
            width = 2
        elif unit == b"[%s,%s,]" % (ref, ref):
            width = 3
        else:
            return None
        k = (len(shape) - 1) // (len(unit) + 1)
    else:
        width, unit = 1, ref
        k = shape.count(b",") + 1 if digits or quoted else 0
    if shape != b"[" + ((b"," + unit) * k)[1:] + b"]":
        return None
    if quoted:
        quote = text == 34
        strings = shape.count(b'"') // 2
        if (np.count_nonzero(quote[:-1] & digit[1:]) != strings
                or np.count_nonzero(digit[:-1] & quote[1:]) != strings):
            return None
    count = k * width
    if not count:
        return np.zeros(0, dtype=np.int64), 1, False
    try:
        values = np.fromstring(seg.translate(_SPACED), dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if (len(values) != count
            or digits != count + int(np.searchsorted(_POWERS, values, side="right").sum())):
        return None
    if values.min() == 0 and np.count_nonzero(digit[1:] > digit[:-1]) != count:
        return None
    return values, width, quoted


# a string's opening quote, a prefix of name characters and a digit
_PREFIXED = re.compile(rb'"([A-Za-z_]*)[0-9]')
# Prefixed lists shorter than this many bytes are left to json.loads: the
# numpy passes cost about 20 us a list, more than parsing and looking up
# a list as short as a signature's names (["A0", "A1"], about 5 us); at
# 24 names, about 200 bytes, the two cost the same.
_PREFIXED_FLOOR = 256


def _list_prefix(data: bytes, start: int) -> bytes | None:
    """The prefix of the list at data[start] when it opens like a
    _decimal_list once the prefix is deleted from its strings: b"" for
    none, or the run of name characters that opens its first string,
    followed by a digit; else None.  A look at its first token only."""
    head = data[start + 1:start + 80].lstrip(_WS)
    if head[:1] == b"[":
        head = head[1:].lstrip(_WS)
    if head[:1] == b"]" or head[:1].isdigit():
        return b""
    match = _PREFIXED.match(head)
    return match.group(1) if match else None


def _prefixed_list(data: bytes, start: int, end: int, prefix: bytes):
    """_decimal_list of the list data[start:end + 1] read with prefix
    deleted from its strings, when each of them is prefix followed by a
    canonical decimal; else None.

    The quotes of even rank in the list (0, 2, ...) must each be followed
    by prefix.  In a copy of the list each of them moves past its prefix,
    which turns into spaces: '"x5"' reads ' "5"'.  The copy keeps the
    order of the quotes, so once _decimal_list has proved it a list of
    digit strings, whose quotes alternate between opening and closing,
    the moved quotes are the opening ones: each string of the list is
    prefix and digits, and nothing else changed.  The copy holds as many
    quotes as the list, so an odd number is refused by _decimal_list.
    """
    text = np.frombuffer(data, dtype=np.uint8, count=end + 1 - start, offset=start)
    opening = np.flatnonzero(text == 34)[0::2]
    # text[q + j] is read once text[q + 1:q + j] matched the prefix, so
    # it is in the list, which ends in "]"
    for j, char in enumerate(prefix, 1):
        if np.count_nonzero(text[opening + j] != char):
            return None
    moved = text.copy()
    for j in range(len(prefix)):
        moved[opening + j] = 32
    moved[opening + len(prefix)] = 34
    seg = moved.tobytes()
    # freed before the passes of _decimal_list, which peak at a few copies
    del moved, opening
    return _decimal_list(seg)


class _Reader:
    """The reference lists of one document read straight from its bytes,
    and the counts of its load (see LoadCounters).

    scan cuts every list of decimal references that is an object value
    out of the text, or of strings that are all one prefix followed by
    decimals (see _prefixed_list), and records the prefix ("" for none);
    in the parsed skeleton the string "\\0i" stands for list i.  elements
    makes a marker at a reference position the array; unmark and restore
    turn markers anywhere else back into the lists json.loads reads from
    their text.
    """

    def __init__(self, size: int):
        self.size = size
        self.data = b""
        self.spans: list[tuple[int, int]] = []
        self.found: list[tuple[np.ndarray, int, bool, str]] = []
        self.scanned = self.declined = 0

    def scan(self, data: bytes) -> bytes:
        """The skeleton of data, an ASCII text without backslashes.

        A list is a candidate when ":", whitespace and "[" open it
        outside any string (by quote parity, exact without backslashes),
        and it ends at the last "]" before the next ":".  Without
        backslashes no string of the text can hold a NUL, so the markers
        cannot be taken for the document's strings.
        """
        self.data = data
        pieces = []
        done = quotes = counted = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for match in re.finditer(rb":[ \t\n\r]*\[", data):
                colon = match.start()
                quotes += data.count(b'"', counted, colon)
                counted = colon
                start = match.end() - 1
                prefix = None if quotes % 2 else _list_prefix(data, start)
                if prefix is None:
                    continue
                stop = data.find(b":", start)
                end = data.rfind(b"]", start, stop if stop >= 0 else len(data))
                if end < 0 or (prefix and end - start < _PREFIXED_FLOOR):
                    continue
                found = (_prefixed_list(data, start, end, prefix) if prefix
                         else _decimal_list(data[start:end + 1]))
                if found is None:
                    continue
                pieces += (data[done:start], b'"\\u0000%d"' % len(self.found))
                self.spans.append((start, end))
                self.found.append(found + (prefix.decode(),))
                # a list read holds an even number of quotes
                done = counted = end + 1
        if not pieces:
            return data
        pieces.append(data[done:])
        return b"".join(pieces)

    def listed(self, val) -> int | None:
        """The number of the list the marker val stands for, or None."""
        if self.found and type(val) is str and val[:1] == "\0":
            return int(val[1:])
        return None

    def unmark(self, val):
        """val, or the list it stands for as json.loads reads it."""
        i = self.listed(val)
        if i is None:
            return val
        start, end = self.spans[i]
        return json.loads(self.data[start:end + 1])

    def restore(self, val):
        """val with every marker in it unmarked, at any depth."""
        if not self.found:
            return val
        if isinstance(val, dict):
            return {key: self.restore(v) for key, v in val.items()}
        if isinstance(val, list):
            return list(map(self.restore, val))
        return self.unmark(val)

    def elements(self, val, width: int, n: int, lookup, prefix: str) -> np.ndarray | None:
        """The references of the list val stands for, as the int64 array
        (width 1) or (m, width) array the loader reads, or None when val
        is no marker, or its list is of another width, or some reference
        is not an element: quoted ones, whose prefix must be the domain's
        prefix, go through lookup (see _load_domain), bare ones must be
        below n."""
        i = self.listed(val)
        if i is None:
            return None
        values, w, quoted, named = self.found[i]
        if len(values) and w != width:
            return None
        rows = values.reshape(-1, width) if width > 1 else values
        if len(values):
            refs = rows[:, :2] if width == 3 else rows
            if quoted and named != prefix:
                return None
            if quoted and lookup is not _same:
                mapped = lookup(refs)
                if mapped is None:
                    return None
                refs[...] = mapped
            if refs.max() >= n:
                return None
        self.scanned += 1
        return rows


def _same(values: np.ndarray) -> np.ndarray:
    return values


def _load_domain(val, where: str, reader: _Reader):
    """The domain's names, their index (see _name_index), and the lookup
    and the prefix of quoted references read from the bytes: the lookup
    gives the elements of an array of decimal values, or None when one
    names no element; both are None when the names are not one prefix
    followed by decimals.  In a domain given as a size, and in the name
    list prefix + "0", prefix + "1", ... in order, which loads as
    IndexNames, a decimal is its element."""
    i = reader.listed(val)
    if i is not None:
        values, width, quoted, prefix = reader.found[i]
        if width == 1 and quoted:
            _check_domain_size(len(values), where)
            if np.array_equal(values, np.arange(len(values))):
                names = IndexNames(len(values), prefix)
                reader.scanned += 1
                return names, names, _same, prefix
            order = np.argsort(values)
            ordered = values[order]
            if (ordered[1:] != ordered[:-1]).all():
                def lookup(refs):
                    at = np.minimum(np.searchsorted(ordered, refs), len(ordered) - 1)
                    return order[at] if (ordered[at] == refs).all() else None

                names = tuple(prefix + word for word in map(str, values.tolist()))
                reader.scanned += 1
                return names, _name_index(names), lookup, prefix
        val = reader.unmark(val)
    if isinstance(val, bool):
        raise DocumentError("%s.domain must be a size or a list of names" % where)
    if isinstance(val, int):
        _expect(val > 0, "%s.domain must be positive" % where)
        _check_domain_size(val, where)
        names = IndexNames(val)
        return names, names, _same, ""
    if isinstance(val, list):
        reader.declined += 1
        _check_domain_size(len(val), where)
        names = tuple(_str_list(val, "%s.domain" % where))
        _expect(len(names) > 0, "%s.domain must not be empty" % where)
        index = _name_index(names)
        _expect(len(index) == len(names), "%s.domain has duplicate names" % where)
        return names, index, None, None
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


def _load_list(items: list, width: int, n: int, index, where: str, reader: _Reader,
               shape: str = "", count: str = "") -> np.ndarray:
    """The int64 array of a list of references (width 1), or the (m,
    width) array of its [src, dst] (width 2) or [src, dst, count] (width
    3) rows.  The entries are flattened and read as one array; when one
    is malformed, they are checked again one by one, which reports the
    first problem in document order: shape is the message for a row of
    the wrong form, count the one for a bad count."""
    if width == 1:
        flat = items
    elif set(map(type, items)) <= {list} and set(map(len, items)) <= {width}:
        flat = list(chain.from_iterable(items))
    else:
        flat = None
    out = None if flat is None else _index_array(flat, index, width == 3)
    if out is not None:
        rows = out.reshape(-1, width) if width > 1 else out
        refs = rows[:, :2] if width == 3 else rows
        if not len(rows) or (refs.min() >= 0 and refs.max() < n
                             and (width < 3 or rows[:, 2].min() >= 0)):
            return rows
    rows = []
    for item in reader.restore(items):
        if width == 1:
            rows.append(_resolve_ref(item, n, index, where))
            continue
        _expect(isinstance(item, list) and len(item) == width, shape)
        row = [_resolve_ref(item[0], n, index, where), _resolve_ref(item[1], n, index, where)]
        if width == 3:
            k = item[2]
            _expect(isinstance(k, int) and not isinstance(k, bool) and k >= 0,
                    "%s: count must be a non-negative integer" % count)
            _expect(k < 2 ** 63, "%s: count %d is not below 2**63" % (count, k))
            row.append(k)
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape((-1, width) if width > 1 else -1)


def _load_interpretation(obj, sig: Signature, where: str, reader: _Reader):
    _expect(isinstance(obj, dict), "%s must be an object" % where)
    _check_keys(obj, ("domain", "concepts", "roles", "individuals", "counts", "self_loops"), where)
    _expect("domain" in obj, "%s is missing the domain field" % where)
    names, index, lookup, prefix = _load_domain(obj["domain"], where, reader)
    n = len(names)

    def refs(val, width: int, field: str, at: str = "", shape: str = "") -> np.ndarray:
        """The array of the reference list val of the field: read from the
        bytes, or else from its JSON list; at names a bad reference (by
        default the field), shape a malformed row."""
        out = reader.elements(val, width, n, lookup, prefix)
        if out is not None:
            return out
        val = reader.unmark(val)
        _expect(isinstance(val, list), "%s must be a list" % field)
        reader.declined += 1
        return _load_list(val, width, n, index, at or field, reader, shape, field)

    concepts = obj.get("concepts", {})
    _expect(isinstance(concepts, dict), "%s.concepts must be an object" % where)
    concept_ext = {cname: refs(val, 1, "%s.concepts.%s" % (where, cname))
                   for cname, val in concepts.items()}

    roles = obj.get("roles", {})
    _expect(isinstance(roles, dict), "%s.roles must be an object" % where)
    role_ext = {rname: refs(val, 2, "%s.roles.%s" % (where, rname),
                            shape="%s.roles.%s entries must be [src, dst]" % (where, rname))
                for rname, val in roles.items()}

    individuals = obj.get("individuals", {})
    _expect(isinstance(individuals, dict), "%s.individuals must be an object" % where)
    individual_map = {a: _resolve_ref(reader.restore(ref), n, index,
                                      "%s.individuals.%s" % (where, a))
                      for a, ref in individuals.items()}

    interp = build_interpretation(sig, n, concept_ext, role_ext, individual_map)

    qsi = None
    if "counts" in obj or "self_loops" in obj:
        counts = obj.get("counts", {})
        _expect(isinstance(counts, dict), "%s.counts must be an object" % where)
        qu: dict[tuple[str, bool], np.ndarray] = {}
        for role, spec in counts.items():
            _expect(role in sig.role_index, "%s.counts: %r is not a role name" % (where, role))
            _expect(isinstance(spec, dict), "%s.counts.%s must be an object" % (where, role))
            _check_keys(spec, ("forward", "backward"), "%s.counts.%s" % (where, role))
            for key, inverted in (("forward", False), ("backward", True)):
                if key in spec:
                    field = "%s.counts.%s.%s" % (where, role, key)
                    qu[(role, inverted)] = refs(spec[key], 3, field, where,
                                                "%s entries must be [src, dst, count]" % field)
        se = None
        if "self_loops" in obj:
            loops_obj = obj["self_loops"]
            _expect(isinstance(loops_obj, dict), "%s.self_loops must be an object" % where)
            se = {}
            for role, val in loops_obj.items():
                _expect(role in sig.role_index,
                        "%s.self_loops: %r is not a role name" % (where, role))
                se[role] = refs(val, 1, "%s.self_loops.%s" % (where, role))
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
    """json.loads with the cyclic garbage collector paused; ParseError
    when the text is not JSON that Python reads.

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
    except ValueError:
        # the one other ValueError: an integer of more digits than int()
        # reads (sys.get_int_max_str_digits)
        raise ParseError("invalid JSON: an integer has too many digits") from None
    finally:
        if was_enabled:
            gc.enable()


def _decode(data: bytes) -> str:
    """data, UTF-8 bytes, as text; ParseError at the first byte that is
    not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
        line = data.rfind(b"\n", 0, at) + 1
        raise ParseError("invalid UTF-8: byte 0x%02x, %s" % (data[at], exc.reason),
                         data.count(b"\n", 0, at) + 1, len(data[line:at].decode("utf-8")) + 1)


def _parse(text: str | bytes):
    """The parsed document and its _Reader.  An ASCII text without
    backslashes is read by _Reader.scan, and json.loads parses only its
    skeleton; when that fails, it parses the whole text, for the
    document's own error message and position."""
    if isinstance(text, str):
        if not text.isascii():
            return _parse_json(text), _Reader(len(text.encode("utf-8", "surrogatepass")))
        text = text.encode("ascii")
    reader = _Reader(len(text))
    if not text.isascii():
        return _parse_json(_decode(text)), reader
    if b"\\" not in text:
        skeleton = reader.scan(text)
        if skeleton is not text:
            try:
                return _parse_json(skeleton.decode("ascii")), reader
            except ParseError:
                reader = _Reader(len(text))
    return _parse_json(text.decode("ascii")), reader


def _workspace(doc, reader: _Reader) -> Workspace:
    """The workspace of the parsed document doc, whose markers reader
    reads (see _Reader)."""
    _expect(isinstance(doc, dict), "document must be a JSON object")
    _check_keys(doc, ("signature", "phi", "interpretations", "kb"), "document")
    _expect("signature" in doc, "document is missing the signature field")
    _expect("interpretations" in doc, "document is missing the interpretations field")
    sig = _load_signature(reader.restore(doc["signature"]))

    phi = None
    if "phi" in doc:
        spec = reader.restore(doc["phi"])
        _expect(isinstance(spec, str), "phi must be a string of feature letters")
        try:
            phi = FeatureSet.from_string(spec)
        except ValueError as exc:
            raise DocumentError(str(exc))

    body = doc["interpretations"]
    _expect(isinstance(body, dict), "interpretations must be an object")
    interpretations = {}
    element_names = {}
    element_index = {}
    qs = {}
    for iname, spec in body.items():
        interp, names, index, qsi = _load_interpretation(spec, sig, "interpretations.%s" % iname,
                                                         reader)
        interpretations[iname] = interp
        element_names[iname] = names
        element_index[iname] = index
        if qsi is not None:
            qs[iname] = qsi

    kb = None
    kb_strings = None
    if "kb" in doc:
        kb, kb_strings = _load_kb(reader.restore(doc["kb"]))
    return Workspace(sig, phi, interpretations, element_names, qs, kb, kb_strings, element_index)


# the levels of arrays and objects a document may nest; a document that the
# schema accepts nests at most 7
MAX_NESTING = 100
_CHUNK = 1 << 20


def _nesting_error(text: str | bytes) -> ParseError | None:
    """A ParseError at the first array or object of text, UTF-8 text,
    that opens more than MAX_NESTING levels deep outside any string, or
    None.  Escapes are blanked first, keeping positions, so quote parity
    tells what is inside a string; the bytes are read in chunks of
    _CHUNK, the level and the parity carried across."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    if b"\\" in data:
        data = re.sub(rb"\\.", b"__", data, flags=re.S)
    step = np.zeros(256, dtype=np.int8)  # by byte: +1 opens, -1 closes
    step[list(b"[{")] = 1
    step[list(b"]}")] = -1
    level = parity = 0
    for lo in range(0, len(data), _CHUNK):
        codes = np.frombuffer(data, dtype=np.uint8, count=min(_CHUNK, len(data) - lo), offset=lo)
        quotes = np.cumsum(codes == ord('"'), dtype=np.int64)
        quotes += parity
        levels = np.cumsum(step[codes] * (quotes % 2 == 0), dtype=np.int64)
        levels += level
        over = np.flatnonzero(levels > MAX_NESTING)
        if len(over):
            at = lo + int(over[0])
            start = data.rfind(b"\n", 0, at) + 1
            return ParseError("document nests arrays and objects more than %d levels deep"
                              % MAX_NESTING, data.count(b"\n", 0, at) + 1,
                              len(data[start:at].decode("utf-8", "replace")) + 1)
        level, parity = int(levels[-1]), int(quotes[-1]) % 2
    return None


def loads_workspace(text: str | bytes) -> Workspace:
    """The workspace of a document, given as its text or its UTF-8 bytes.

    A document that the schema accepts nests at most 7 levels, so the
    nesting is measured only when the load fails, but for a JSON syntax
    error: past MAX_NESTING levels the error is a ParseError at the first
    array or object that opens too deep.  Deeper than json.loads or the
    loader can recurse, the load fails with RecursionError, which is
    reported alike."""
    try:
        doc, reader = _parse(text)
        ws = _workspace(doc, reader)
    except ParseError:
        raise
    except (BisimError, RecursionError):
        deep = _nesting_error(text)
        if deep is None:
            raise
        raise deep from None
    record = stats.current()
    if record is not None:
        record.load.bytes += reader.size
        record.load.scanned += reader.scanned
        record.load.declined += reader.declined
    return ws


def load_workspace(path: str) -> Workspace:
    with open(path, "rb") as handle:
        data = handle.read()
    if b"\r" in data:
        # as a text-mode read does, so error positions count lines alike
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return loads_workspace(data)


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
    """The JSON literals of a domain's element names, an object array
    indexed by element and made once."""

    def __init__(self, names):
        self.text = np.array(list(map(_literal, names)), dtype=object)


class _Refs:
    """A list of element names (one index array), or of [src, dst] or
    [src, dst, count] rows (two or three arrays), written by dumps_document.
    The dst of a row names an element of right when it is given; with
    run_ends, the names are the runs between those positions, written as
    lists of names.

    write lays each item out as its literal, a shared object, followed by
    the piece that ends it: the separator inside a row, a row's close and
    the next row's open, or the list's close.  Rows of one width end
    alike, so their ends are one list repeated; runs pick each element's
    end from two.  The pieces go into the document's list, which is
    joined once."""

    __slots__ = ("literals", "cols", "right", "run_ends")

    def __init__(self, literals: _Literals, *cols: np.ndarray, right: _Literals | None = None,
                 run_ends: np.ndarray | None = None):
        self.literals = literals
        self.cols = cols
        self.right = right or literals
        self.run_ends = run_ends

    def write(self, pad: str, out: list[str]) -> None:
        cols, runs = self.cols, self.run_ends
        m = len(cols[0])
        if not m:
            out.append("[]")
            return
        texts = [self.literals.text, self.right.text]
        if len(cols) == 3:
            distinct, which = np.unique(cols[2], return_inverse=True)
            texts.append(np.array(list(map(str, distinct.tolist())), dtype=object))
            cols = (cols[0], cols[1], which)
        width, item = len(cols), pad + "  "
        nested = width > 1 or runs is not None
        inner = item + "  " if nested else item
        sep, next_row = "," + inner, item + "]," + item + "[" + inner
        out.append("[" + item + "[" + inner if nested else "[" + item)
        unit = [None, sep] * width
        if nested:
            unit[-1] = next_row
        pieces = unit * m
        if runs is not None:
            last = np.zeros(m, dtype=np.intp)
            last[runs - 1] = 1
            pieces[1::2] = np.array([sep, next_row], dtype=object)[last].tolist()
        for j, (text, col) in enumerate(zip(texts, cols)):
            pieces[2 * j::2 * width] = text[col].tolist()
        pieces[-1] = item + "]" + pad + "]" if nested else pad + "]"
        out += pieces


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
    block_order."""
    bounds = np.asarray(bounds, dtype=np.int64)
    block_order = np.asarray(block_order, dtype=np.int64)
    sizes = np.diff(bounds)[block_order]
    ends = np.cumsum(sizes)
    # the elements, block after block in block_order
    elems = order[np.repeat(bounds[block_order] - (ends - sizes), sizes) + np.arange(len(order))]
    return dumps_document({"blocks": _Refs(_Literals(names), elems, run_ends=ends)})


def dumps_pairs(pairs, left_names, right_names) -> str:
    """dumps_document of {"bisimilar": ..., "pairs": [[left, right], ...]}.

    pairs iterates over (left index, right index) tuples, or is None for
    a negative verdict, which has no "pairs" key.  The pairs are read into
    one int32 array, so no row is held as a Python object; an index fits,
    since _Literals holds every name of both domains.
    """
    if pairs is None:
        return dumps_document({"bisimilar": False})
    flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int32)
    return dumps_document({"bisimilar": True, "pairs": _Refs(
        _Literals(left_names), flat[0::2], flat[1::2], right=_Literals(right_names))})
