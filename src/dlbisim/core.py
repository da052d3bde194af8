"""Finite interpretations and the flat graph form consumed by refinement.

An interpretation lives over a fixed signature of concept names, role
names and individual names.  Domains are dense integer ranges 0..n-1;
extensions are plain sets.  Besides those sets, each basic role (a role
name or its inverse) has one index of its edges, a CSR structure sorted
by head and then by tail (Interpretation.in_edges); neighbour lists,
graph building, evaluation and quotients all read that index.  The
refinement engine takes a LabeledGraph, which stores the same data as
numpy arrays (per-node label bits, CSR adjacency per role in both
directions) so the hot loop never touches Python objects; its adjacency
rows are the interpretations' edge indexes stacked with node offsets.

Reverse adjacency is always materialised, whether or not inverse roles
are in the active feature set; consumers gate on the feature set, the
storage does not.  Disjoint unions keep, per individual name, one node
per side; the union is internal plumbing for the cross-interpretation
bisimulation check and is not itself a model of the signature.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    ElementOutOfRangeError,
    EmptyDomainError,
    PartialIndividualMapError,
    SignatureMismatchError,
    UnknownNameError,
)

FEATURE_LETTERS = "IOQUS"


@dataclass(frozen=True)
class FeatureSet:
    """Which optional constructors the active language admits.

    The five flags correspond to the letters I (inverse roles),
    O (nominals), Q (number restrictions), U (universal role) and
    S (local reflexivity tests).
    """

    inverse: bool = False
    nominals: bool = False
    counting: bool = False
    universal: bool = False
    local_refl: bool = False

    @classmethod
    def from_string(cls, text: str) -> "FeatureSet":
        text = text.strip()
        seen = set()
        for ch in text:
            if ch not in FEATURE_LETTERS:
                raise ValueError("unknown feature letter %r (use I O Q U S)" % ch)
            seen.add(ch)
        return cls(
            inverse="I" in seen,
            nominals="O" in seen,
            counting="Q" in seen,
            universal="U" in seen,
            local_refl="S" in seen,
        )

    def __str__(self) -> str:
        flags = (self.inverse, self.nominals, self.counting, self.universal, self.local_refl)
        return "".join(ch for ch, on in zip(FEATURE_LETTERS, flags) if on)

    def issubset(self, other: "FeatureSet") -> bool:
        return (
            (not self.inverse or other.inverse)
            and (not self.nominals or other.nominals)
            and (not self.counting or other.counting)
            and (not self.universal or other.universal)
            and (not self.local_refl or other.local_refl)
        )

    @classmethod
    def all_subsets(cls) -> tuple["FeatureSet", ...]:
        """All 32 feature sets, in a fixed order."""
        out = []
        for bits in itertools.product((False, True), repeat=5):
            out.append(cls(*bits))
        return tuple(out)


def _check_names(names: Iterable[str], kind: str) -> tuple[str, ...]:
    names = tuple(names)
    seen = set()
    for name in names:
        if not isinstance(name, str) or not name:
            raise UnknownNameError("%s names must be non-empty strings, got %r" % (kind, name))
        if name in seen:
            raise UnknownNameError("duplicate %s name %r" % (kind, name))
        seen.add(name)
    return names


def _edge_index(n: int, tail: np.ndarray, head: np.ndarray):
    """(ptr, tail, head) of int64 edges sorted by head and then by tail."""
    order = np.lexsort((tail, head))
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(head, minlength=n), out=ptr[1:])
    return ptr, tail[order], head[order]


@dataclass(frozen=True)
class Signature:
    """Vocabulary: concept, role and individual names, pairwise disjoint."""

    concept_names: tuple[str, ...] = ()
    role_names: tuple[str, ...] = ()
    individual_names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "concept_names", _check_names(self.concept_names, "concept"))
        object.__setattr__(self, "role_names", _check_names(self.role_names, "role"))
        object.__setattr__(self, "individual_names", _check_names(self.individual_names, "individual"))
        groups = (set(self.concept_names), set(self.role_names), set(self.individual_names))
        for i in range(3):
            for j in range(i + 1, 3):
                overlap = groups[i] & groups[j]
                if overlap:
                    raise UnknownNameError("name used in two parts of the signature: %r" % sorted(overlap)[0])

    @cached_property
    def concept_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.concept_names)}

    @cached_property
    def role_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.role_names)}

    @cached_property
    def individual_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.individual_names)}


@dataclass(frozen=True, eq=True)
class Interpretation:
    """A finite interpretation: dense domain 0..n-1 plus extensions.

    Instances should be produced through build_interpretation, which
    validates and normalises the extension maps (every signature name is
    present as a key, values are frozensets).
    """

    signature: Signature
    n: int
    concept_ext: Mapping[str, frozenset[int]]
    role_ext: Mapping[str, frozenset[tuple[int, int]]]
    individual_map: Mapping[str, int]

    @property
    def domain(self) -> range:
        return range(self.n)

    def successors(self, role: str, x: int) -> tuple[int, ...]:
        ptr, tail, _ = self.in_edges(role, True)
        return tuple(tail[ptr[x]:ptr[x + 1]].tolist())

    def predecessors(self, role: str, y: int) -> tuple[int, ...]:
        ptr, tail, _ = self.in_edges(role, False)
        return tuple(tail[ptr[y]:ptr[y + 1]].tolist())

    @cached_property
    def _in_edges(self) -> dict:
        return {}

    def in_edges(self, role: str, inverted: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges of one basic role as int64 arrays grouped by target.

        The basic role is the role name, or its inverse when inverted.
        Returns (ptr, tail, head): edge i runs from tail[i] to head[i],
        edges are sorted by head and then by tail, and ptr[y]:ptr[y + 1]
        are the positions of the edges into y, so tail[ptr[y]:ptr[y + 1]]
        lists y's neighbours in ascending order.  Built on first use and
        kept.  This is the only index of a role's edges: successors and
        predecessors slice it, graph building stacks it, and evaluation
        and quotients read it.
        """
        key = (role, inverted)
        if key not in self._in_edges:
            pairs = self.role_ext[role]
            flat = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64,
                               count=2 * len(pairs))
            tail, head = (flat[1::2], flat[0::2]) if inverted else (flat[0::2], flat[1::2])
            self._in_edges[key] = _edge_index(self.n, tail, head)
        return self._in_edges[key]


def build_interpretation(
    signature: Signature,
    n: int,
    concept_ext: Mapping[str, Iterable[int]] | None = None,
    role_ext: Mapping[str, Iterable[tuple[int, int]]] | None = None,
    individual_map: Mapping[str, int] | None = None,
) -> Interpretation:
    """Validate and normalise the pieces of an interpretation.

    Raises EmptyDomainError, UnknownNameError, ElementOutOfRangeError or
    PartialIndividualMapError; the message names the offending field.
    """
    if n <= 0:
        raise EmptyDomainError("domain size must be positive, got %d" % n)
    concept_ext = dict(concept_ext or {})
    role_ext = dict(role_ext or {})
    individual_map = dict(individual_map or {})

    for name in concept_ext:
        if name not in signature.concept_index:
            raise UnknownNameError("concept extension for %r: not a concept name" % name)
    for name in role_ext:
        if name not in signature.role_index:
            raise UnknownNameError("role extension for %r: not a role name" % name)
    for name in individual_map:
        if name not in signature.individual_index:
            raise UnknownNameError("individual assignment for %r: not an individual name" % name)

    norm_concepts = {}
    for name in signature.concept_names:
        elems = frozenset(concept_ext.get(name, ()))
        for x in elems:
            if not (0 <= x < n):
                raise ElementOutOfRangeError("concept %r contains element %r outside 0..%d" % (name, x, n - 1))
        norm_concepts[name] = elems

    norm_roles = {}
    for name in signature.role_names:
        pairs = frozenset((int(x), int(y)) for x, y in role_ext.get(name, ()))
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ElementOutOfRangeError("role %r contains pair (%r, %r) outside 0..%d" % (name, x, y, n - 1))
        norm_roles[name] = pairs

    norm_indiv = {}
    for name in signature.individual_names:
        if name not in individual_map:
            raise PartialIndividualMapError("individual %r has no assigned element" % name)
        x = int(individual_map[name])
        if not (0 <= x < n):
            raise ElementOutOfRangeError("individual %r assigned element %r outside 0..%d" % (name, x, n - 1))
        norm_indiv[name] = x

    return Interpretation(signature, int(n), norm_concepts, norm_roles, norm_indiv)


@dataclass(frozen=True, eq=True)
class QSInterpretation:
    """An interpretation extended with edge multiplicities and self sets.

    qu maps a basic role, written as (role name, inverted flag), to a
    multiplicity per edge of that basic role; by construction a pair has
    positive multiplicity exactly when it is an edge of the underlying
    interpretation.  se maps each role name to the subset of the domain
    whose local reflexivity test is deemed to hold.
    """

    base: Interpretation
    qu: Mapping[tuple[str, bool], Mapping[tuple[int, int], int]]
    se: Mapping[str, frozenset[int]]

    @property
    def signature(self) -> Signature:
        return self.base.signature

    @property
    def n(self) -> int:
        return self.base.n

    @cached_property
    def _in_weights(self) -> dict:
        return {}

    def in_weights(self, role: str, inverted: bool) -> np.ndarray:
        """The qu multiplicities of one basic role, aligned to base.in_edges."""
        key = (role, inverted)
        if key not in self._in_weights:
            _, tail, head = self.base.in_edges(role, inverted)
            table = self.qu[key]
            self._in_weights[key] = np.array(
                [table[edge] for edge in zip(tail.tolist(), head.tolist())], dtype=np.float64)
        return self._in_weights[key]


def build_qs_interpretation(base, qu, se) -> QSInterpretation:
    norm_qu = {}
    for key, counts in qu.items():
        role, inverted = key
        if role not in base.signature.role_index:
            raise UnknownNameError("qu entry for %r: not a role name" % role)
        edges = base.role_ext[role]
        expected = edges if not inverted else frozenset((y, x) for x, y in edges)
        counts = {(int(x), int(y)): int(c) for (x, y), c in counts.items() if int(c) != 0}
        for (x, y), c in counts.items():
            if c < 0:
                raise ElementOutOfRangeError("qu multiplicity for %r must be non-negative" % role)
        if frozenset(counts) != expected:
            raise ElementOutOfRangeError(
                "qu support for %s%s must equal the edge set of the base interpretation"
                % (role, "^-" if inverted else "")
            )
        norm_qu[(role, bool(inverted))] = dict(counts)
    norm_se = {}
    for role in base.signature.role_names:
        elems = frozenset(se.get(role, ()))
        for x in elems:
            if not (0 <= x < base.n):
                raise ElementOutOfRangeError("se set for %r contains element outside the domain" % role)
        norm_se[role] = elems
    return QSInterpretation(base, norm_qu, norm_se)


def qs_embedding(interp: Interpretation) -> QSInterpretation:
    """The canonical QS view of a plain interpretation.

    Every edge gets multiplicity 1 in both directions and se(r) is the
    diagonal of r.  Concept evaluation agrees with the plain semantics.
    """
    qu = {}
    for role, pairs in interp.role_ext.items():
        qu[(role, False)] = {p: 1 for p in pairs}
        qu[(role, True)] = {(y, x): 1 for x, y in pairs}
    se = {role: frozenset(x for x, y in pairs if x == y) for role, pairs in interp.role_ext.items()}
    return QSInterpretation(interp, qu, se)


@dataclass(frozen=True)
class BisimRelation:
    """A relation between the domains of two interpretations."""

    n_left: int
    n_right: int
    pairs: frozenset[tuple[int, int]]

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def to_matrix(self) -> np.ndarray:
        mat = np.zeros((self.n_left, self.n_right), dtype=bool)
        for x, y in self.pairs:
            mat[x, y] = True
        return mat

    def transpose(self) -> "BisimRelation":
        return BisimRelation(self.n_right, self.n_left, frozenset((y, x) for x, y in self.pairs))


class LabeledGraph:
    """Array form of one interpretation, or of a disjoint union of two."""

    __slots__ = (
        "signature",
        "n",
        "n_sides",
        "atom_bits",
        "self_bits",
        "nominal_key",
        "nominal_sets",
        "individual_nodes",
        "fwd_indptr",
        "fwd_indices",
        "rev_indptr",
        "rev_indices",
        "origin_side",
        "origin_elem",
    )

    def __init__(self, signature, n, n_sides, atom_bits, self_bits, nominal_key, nominal_sets,
                 individual_nodes, fwd_indptr, fwd_indices, rev_indptr, rev_indices,
                 origin_side, origin_elem):
        self.signature = signature
        self.n = n
        self.n_sides = n_sides
        self.atom_bits = atom_bits
        self.self_bits = self_bits
        self.nominal_key = nominal_key
        self.nominal_sets = nominal_sets
        self.individual_nodes = individual_nodes
        self.fwd_indptr = fwd_indptr
        self.fwd_indices = fwd_indices
        self.rev_indptr = rev_indptr
        self.rev_indices = rev_indices
        self.origin_side = origin_side
        self.origin_elem = origin_elem

    @property
    def n_roles(self) -> int:
        return len(self.signature.role_names)

    @property
    def n_edges(self) -> int:
        return int(len(self.fwd_indices))

    def successors(self, role_idx: int, x: int) -> np.ndarray:
        lo, hi = self.fwd_indptr[role_idx, x], self.fwd_indptr[role_idx, x + 1]
        return self.fwd_indices[lo:hi]

    def predecessors(self, role_idx: int, y: int) -> np.ndarray:
        lo, hi = self.rev_indptr[role_idx, y], self.rev_indptr[role_idx, y + 1]
        return self.rev_indices[lo:hi]


def _assemble(sig: Signature, sizes: list[int], atom_bits: np.ndarray,
              individual_nodes: dict[str, tuple[int, ...]], edge_index) -> LabeledGraph:
    """Shared assembly for to_labeled_graph, disjoint_union_graph and from_arrays.

    The graph's nodes are the sides' elements, side after side.
    edge_index(k, inverted) lists per side the (ptr, tail, head) index
    of role k, or of its inverse, in that side's own element ids; its
    rows are stacked with node offsets into the CSR adjacency, the
    inverse's as forward rows (grouped by source) and the role's own as
    reverse rows (grouped by target).
    """
    n = sum(sizes)
    offsets = list(itertools.accumulate(sizes, initial=0))[:-1]
    n_r = len(sig.role_names)
    self_bits = np.zeros((n, n_r), dtype=np.uint8)
    csr = []
    for inverted in (True, False):
        indptr = np.zeros((n_r, n + 1), dtype=np.int64)
        chunks = [np.zeros(0, dtype=np.int64)]  # concatenate needs one, even with no roles
        base = 0
        for k in range(n_r):
            for off, size, (ptr, tail, head) in zip(offsets, sizes, edge_index(k, inverted)):
                indptr[k, off:off + size] = base + ptr[:-1]
                chunks.append(tail + off)
                base += len(tail)
                if not inverted:
                    self_bits[off + tail[tail == head], k] = 1
            indptr[k, n] = base
        csr += [indptr, np.concatenate(chunks).astype(np.int32)]

    node_names: dict[int, list[str]] = {}
    for name, nodes in individual_nodes.items():
        for node in nodes:
            node_names.setdefault(node, []).append(name)
    key_of: dict[frozenset, int] = {frozenset(): 0}
    nominal_sets = [frozenset()]
    nominal_key = np.zeros(n, dtype=np.int32)
    for node in sorted(node_names):
        names = frozenset(node_names[node])
        key = key_of.get(names)
        if key is None:
            key = len(nominal_sets)
            key_of[names] = key
            nominal_sets.append(names)
        nominal_key[node] = key

    origin_side = np.repeat(np.arange(len(sizes), dtype=np.uint8), sizes)
    origin_elem = np.concatenate([np.arange(size, dtype=np.int32) for size in sizes])
    return LabeledGraph(sig, n, len(sizes), atom_bits, self_bits, nominal_key,
                        tuple(nominal_sets), individual_nodes, *csr, origin_side, origin_elem)


def _interpretations_graph(parts: list[Interpretation]) -> LabeledGraph:
    sig = parts[0].signature
    sizes = [interp.n for interp in parts]
    offsets = list(itertools.accumulate(sizes, initial=0))[:-1]
    atom_bits = np.zeros((sum(sizes), len(sig.concept_names)), dtype=np.uint8)
    for interp, off in zip(parts, offsets):
        for j, name in enumerate(sig.concept_names):
            ext = interp.concept_ext[name]
            atom_bits[off + np.fromiter(ext, dtype=np.int64, count=len(ext)), j] = 1
    individual_nodes = {name: tuple(off + interp.individual_map[name]
                                    for interp, off in zip(parts, offsets))
                        for name in sig.individual_names}
    return _assemble(sig, sizes, atom_bits, individual_nodes,
                     lambda k, inverted: [interp.in_edges(sig.role_names[k], inverted)
                                          for interp in parts])


def to_labeled_graph(interp: Interpretation) -> LabeledGraph:
    """Array form of a single interpretation.

    All label families and both adjacency directions are populated; the
    feature set is applied by the consumers.
    """
    return _interpretations_graph([interp])


def disjoint_union_graph(a: Interpretation, b: Interpretation) -> LabeledGraph:
    """Disjoint union of two interpretations over one signature.

    Nodes of a keep their ids, nodes of b are shifted by a.n.  Each
    individual name labels two nodes, one per side.
    """
    if a.signature != b.signature:
        raise SignatureMismatchError("disjoint union requires a shared signature")
    return _interpretations_graph([a, b])


def from_arrays(signature: Signature, n: int, atom_bits: np.ndarray,
                role_edges, individual_map: Mapping[str, int] | None = None) -> LabeledGraph:
    """Build a LabeledGraph straight from numpy data.

    role_edges is a sequence of (src, dst) array pairs, one per role
    name, already deduplicated.  Used by the benchmark path where
    materialising Python pair sets would dominate the run.
    """
    if len(role_edges) != len(signature.role_names):
        raise SignatureMismatchError("expected one edge array pair per role name")
    individual_map = dict(individual_map or {})
    index = {}
    for k, (src, dst) in enumerate(role_edges):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if len(src) and (src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n):
            raise ElementOutOfRangeError("edge endpoint outside 0..%d" % (n - 1))
        index[(k, True)] = [_edge_index(n, dst, src)]
        index[(k, False)] = [_edge_index(n, src, dst)]
    individual_nodes = {}
    for name in signature.individual_names:
        if name not in individual_map:
            raise PartialIndividualMapError("individual %r has no assigned element" % name)
        individual_nodes[name] = (int(individual_map[name]),)
    atom_bits = np.ascontiguousarray(atom_bits, dtype=np.uint8)
    return _assemble(signature, [n], atom_bits, individual_nodes,
                     lambda k, inverted: index[(k, inverted)])


def extract_interpretation(graph: LabeledGraph, side: int) -> Interpretation:
    """Project one side of a (possibly united) graph back to an interpretation."""
    sig = graph.signature
    nodes = np.flatnonzero(graph.origin_side == side)
    if len(nodes) == 0:
        raise EmptyDomainError("graph has no nodes with origin side %d" % side)
    back = {int(node): int(graph.origin_elem[node]) for node in nodes}
    n = max(back.values()) + 1
    concept_ext = {
        name: frozenset(back[int(v)] for v in nodes if graph.atom_bits[v, j])
        for j, name in enumerate(sig.concept_names)
    }
    role_ext = {}
    for k, name in enumerate(sig.role_names):
        pairs = set()
        for v in nodes:
            for w in graph.successors(k, int(v)):
                pairs.add((back[int(v)], back[int(w)]))
        role_ext[name] = frozenset(pairs)
    individual_map = {}
    for name, owners in graph.individual_nodes.items():
        for v in owners:
            if graph.origin_side[v] == side:
                individual_map[name] = back[int(v)]
    return build_interpretation(sig, n, concept_ext, role_ext, individual_map)


def is_unreachable_objects_free(interp: Interpretation, phi: FeatureSet) -> bool:
    """True when every element is reachable from some named element.

    Reachability follows role edges forwards, and also backwards when
    inverse roles are in the feature set.
    """
    if not interp.signature.individual_names:
        return interp.n == 0
    seen = set(interp.individual_map.values())
    stack = list(seen)
    while stack:
        x = stack.pop()
        for role in interp.signature.role_names:
            for y in interp.successors(role, x):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
            if phi.inverse:
                for y in interp.predecessors(role, x):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
    return len(seen) == interp.n
