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
as a name list, by name.  Only "signature" and "interpretations" are
required; "concepts", "roles", "counts" and "self_loops" default to
empty, "individuals" must cover the signature's individual names.  KB
entries are strings in the concept grammar (see the syntax module).

"counts" and "self_loops" attach multiplicity data to an
interpretation.  When only one of the two is present the other takes
the neutral default: multiplicity 1 per edge in both directions, and
self loops read off the role's diagonal.  A direction or role missing
inside "counts" takes the same default.

Malformed JSON and unparseable grammar strings raise ParseError; every
structural or semantic problem (unknown fields, bad types, names or
element references) raises DocumentError or one of the construction
errors from the core module.  A domain of more than MAX_ELEMENTS
elements raises TooLargeError before anything is allocated for it, so a
few bytes of input cannot ask for gigabytes of memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import (
    FeatureSet,
    Interpretation,
    QSInterpretation,
    Signature,
    build_interpretation,
    build_qs_interpretation,
    qs_embedding,
)
from .errors import DocumentError, ParseError, TooLargeError
from .syntax import (
    KnowledgeBase,
    parse_assertion,
    parse_gci,
    parse_role_axiom,
)


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise DocumentError("unknown field %r in %s (allowed: %s)"
                                % (key, where, ", ".join(allowed)))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def _str_list(val, where: str) -> list[str]:
    _expect(isinstance(val, list) and all(isinstance(s, str) for s in val),
            "%s must be a list of strings" % where)
    return val


@dataclass
class Workspace:
    signature: Signature
    phi: FeatureSet | None
    interpretations: dict[str, Interpretation]
    element_names: dict[str, tuple[str, ...]]
    qs: dict[str, QSInterpretation] = field(default_factory=dict)
    kb: KnowledgeBase | None = None
    kb_strings: dict[str, tuple[str, ...]] | None = None
    element_index: dict[str, dict[str, int]] = field(init=False)

    def __post_init__(self):
        self.element_index = {iname: _name_index(names)
                              for iname, names in self.element_names.items()}

    def interpretation(self, name: str) -> Interpretation:
        if name not in self.interpretations:
            raise DocumentError("no interpretation named %r in the document (have: %s)"
                                % (name, ", ".join(sorted(self.interpretations)) or "none"))
        return self.interpretations[name]

    def resolve(self, iname: str, ref) -> int:
        """Element index from an index or a domain name."""
        return _resolve_ref(ref, self.element_index[iname], "interpretation %r" % iname)

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
# `partition`), so this keeps the largest document within a few GB.
MAX_ELEMENTS = 1_000_000


def _check_domain_size(size: int, where: str) -> None:
    if size > MAX_ELEMENTS:
        raise TooLargeError("%s.domain has %d elements, more than the limit of %d"
                            % (where, size, MAX_ELEMENTS))


def _load_domain(val, where: str) -> tuple[str, ...]:
    if isinstance(val, bool):
        raise DocumentError("%s.domain must be a size or a list of names" % where)
    if isinstance(val, int):
        _expect(val > 0, "%s.domain must be positive" % where)
        _check_domain_size(val, where)
        return tuple(str(i) for i in range(val))
    if isinstance(val, list):
        _check_domain_size(len(val), where)
        names = tuple(_str_list(val, "%s.domain" % where))
        _expect(len(names) > 0, "%s.domain must not be empty" % where)
        _expect(len(set(names)) == len(names), "%s.domain has duplicate names" % where)
        return names
    raise DocumentError("%s.domain must be a size or a list of names" % where)


def _name_index(names: tuple[str, ...]) -> dict[str, int]:
    return {name: i for i, name in enumerate(names)}


def _resolve_ref(ref, index: dict[str, int], where: str) -> int:
    """Element index from an index or a domain name; index maps names to indices."""
    # exact types: JSON true/false are bools, which are ints to isinstance
    if type(ref) is int:
        if 0 <= ref < len(index):
            return ref
        raise DocumentError("%s: index %d outside 0..%d" % (where, ref, len(index) - 1))
    if type(ref) is str:
        if ref in index:
            return index[ref]
        raise DocumentError("%s: unknown element %r" % (where, ref))
    raise DocumentError("%s: element reference %r is not an index or name" % (where, ref))


def _load_counts(obj, sig: Signature, index, default_qu, where: str):
    _expect(isinstance(obj, dict), "%s.counts must be an object" % where)
    qu: dict[tuple[str, bool], dict[tuple[int, int], int]] = {}
    for role, spec in obj.items():
        _expect(role in sig.role_index, "%s.counts: %r is not a role name" % (where, role))
        _expect(isinstance(spec, dict), "%s.counts.%s must be an object" % (where, role))
        _check_keys(spec, ("forward", "backward"), "%s.counts.%s" % (where, role))
        for key, inverted in (("forward", False), ("backward", True)):
            if key not in spec:
                continue
            entries = spec[key]
            _expect(isinstance(entries, list), "%s.counts.%s.%s must be a list" % (where, role, key))
            table: dict[tuple[int, int], int] = {}
            for item in entries:
                _expect(isinstance(item, list) and len(item) == 3,
                        "%s.counts.%s.%s entries must be [src, dst, count]" % (where, role, key))
                src = _resolve_ref(item[0], index, where)
                dst = _resolve_ref(item[1], index, where)
                _expect(isinstance(item[2], int) and not isinstance(item[2], bool) and item[2] >= 0,
                        "%s.counts.%s.%s: count must be a non-negative integer" % (where, role, key))
                table[(src, dst)] = item[2]
            qu[(role, inverted)] = table
    for key, table in default_qu.items():
        qu.setdefault(key, table)
    return qu


def _load_interpretation(obj, sig: Signature, where: str):
    _expect(isinstance(obj, dict), "%s must be an object" % where)
    _check_keys(obj, ("domain", "concepts", "roles", "individuals", "counts", "self_loops"), where)
    _expect("domain" in obj, "%s is missing the domain field" % where)
    names = _load_domain(obj["domain"], where)
    index = _name_index(names)
    n = len(names)

    concepts = obj.get("concepts", {})
    _expect(isinstance(concepts, dict), "%s.concepts must be an object" % where)
    concept_ext = {}
    for cname, refs in concepts.items():
        _expect(isinstance(refs, list), "%s.concepts.%s must be a list" % (where, cname))
        concept_ext[cname] = {_resolve_ref(r, index, "%s.concepts.%s" % (where, cname))
                              for r in refs}

    roles = obj.get("roles", {})
    _expect(isinstance(roles, dict), "%s.roles must be an object" % where)
    role_ext = {}
    for rname, pairs in roles.items():
        _expect(isinstance(pairs, list), "%s.roles.%s must be a list" % (where, rname))
        out = set()
        for item in pairs:
            _expect(isinstance(item, list) and len(item) == 2,
                    "%s.roles.%s entries must be [src, dst]" % (where, rname))
            out.add((_resolve_ref(item[0], index, "%s.roles.%s" % (where, rname)),
                     _resolve_ref(item[1], index, "%s.roles.%s" % (where, rname))))
        role_ext[rname] = out

    individuals = obj.get("individuals", {})
    _expect(isinstance(individuals, dict), "%s.individuals must be an object" % where)
    individual_map = {a: _resolve_ref(ref, index, "%s.individuals.%s" % (where, a))
                      for a, ref in individuals.items()}

    interp = build_interpretation(sig, n, concept_ext, role_ext, individual_map)

    qsi = None
    if "counts" in obj or "self_loops" in obj:
        defaults = qs_embedding(interp)
        qu = _load_counts(obj.get("counts", {}), sig, index, defaults.qu, where)
        if "self_loops" in obj:
            loops_obj = obj["self_loops"]
            _expect(isinstance(loops_obj, dict), "%s.self_loops must be an object" % where)
            se = {}
            for role, refs in loops_obj.items():
                _expect(role in sig.role_index,
                        "%s.self_loops: %r is not a role name" % (where, role))
                _expect(isinstance(refs, list), "%s.self_loops.%s must be a list" % (where, role))
                se[role] = {_resolve_ref(r, index, "%s.self_loops.%s" % (where, role))
                            for r in refs}
        else:
            se = defaults.se
        qsi = build_qs_interpretation(interp, qu, se)
    return interp, names, qsi


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


def loads_workspace(text: str) -> Workspace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc.msg, exc.lineno, exc.colno)
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
    qs = {}
    for iname, spec in body.items():
        interp, names, qsi = _load_interpretation(spec, sig, "interpretations.%s" % iname)
        interpretations[iname] = interp
        element_names[iname] = names
        if qsi is not None:
            qs[iname] = qsi

    kb = None
    kb_strings = None
    if "kb" in doc:
        kb, kb_strings = _load_kb(doc["kb"])
    return Workspace(sig, phi, interpretations, element_names, qs, kb, kb_strings)


def load_workspace(path: str) -> Workspace:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_workspace(handle.read())


def interpretation_to_json(interp: Interpretation, names: tuple[str, ...] | None = None,
                           qsi: QSInterpretation | None = None) -> dict:
    """JSON-ready form of one interpretation, lists sorted for stable dumps."""
    if names is None:
        names = tuple(str(i) for i in range(interp.n))
    sig = interp.signature
    out: dict = {"domain": list(names)}
    out["concepts"] = {a: [names[x] for x in sorted(interp.concept_ext[a])]
                       for a in sig.concept_names}
    out["roles"] = {r: [[names[x], names[y]] for x, y in sorted(interp.role_ext[r])]
                    for r in sig.role_names}
    out["individuals"] = {a: names[x] for a, x in interp.individual_map.items()}
    if qsi is not None:
        counts = {}
        for r in sig.role_names:
            counts[r] = {
                "forward": [[names[x], names[y], k]
                            for (x, y), k in sorted(qsi.qu[(r, False)].items())],
                "backward": [[names[x], names[y], k]
                             for (x, y), k in sorted(qsi.qu[(r, True)].items())],
            }
        out["counts"] = counts
        out["self_loops"] = {r: [names[x] for x in sorted(qsi.se[r])] for r in sig.role_names}
    return out


def signature_to_json(sig: Signature) -> dict:
    return {
        "concepts": list(sig.concept_names),
        "roles": list(sig.role_names),
        "individuals": list(sig.individual_names),
    }


def dumps_document(doc: dict) -> str:
    """Canonical rendering: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dumps_pairs(pairs, left_names, right_names) -> str:
    """dumps_document of {"bisimilar": ..., "pairs": [[left, right], ...]}.

    pairs holds (left index, right index) tuples, or is None for a
    negative verdict, which has no "pairs" key.  The pair list is written
    as fixed-format lines, each name escaped once with json.dumps, since
    the general encoder is slow on millions of two-element lists; the
    text is the same.
    """
    if pairs is None:
        return dumps_document({"bisimilar": False})
    opens = ["    [\n      %s,\n      " % json.dumps(name) for name in left_names]
    closes = ["%s\n    ]" % json.dumps(name) for name in right_names]
    body = ",\n".join([opens[x] + closes[y] for x, y in pairs])
    if not body:
        return dumps_document({"bisimilar": True, "pairs": []})
    return '{\n  "bisimilar": true,\n  "pairs": [\n' + body + "\n  ]\n}\n"
