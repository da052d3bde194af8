"""Finite interpretations and the flat graph form consumed by refinement.

An interpretation lives over a fixed signature of concept names, role
names and individual names.  Domains are dense integer ranges 0..n-1.
Each concept's members are one read-only int64 array, sorted, without
repeats (Interpretation.concept_members), and each role's edges are two
read-only int64 arrays (src, dst), sorted by source and then by target,
without repeats (Interpretation.role_edges); the sets concept_ext and
role_ext are views built only when asked for.  From the edge arrays
each basic role (a role name or its inverse) gets one CSR index of its
edges, sorted by head and then by tail (Interpretation.in_edges);
neighbour lists, evaluation and quotients read it.
Edge multiplicities of a QS-interpretation are weight arrays aligned to
the same edges (QSInterpretation.weights), with qu and se as views.
The refinement engine takes a LabeledGraph, which stores the same data
as lists of numpy arrays, O(n + m + memberships) whatever the number of
names: the sides' concept_members and role_edges laid end to end with
node offsets, as (members, concepts) and (tails, roles, heads).

The edge list holds the role names' edges only; consumers read an
inverse role's edges as its role's reversed, when the active feature set
has inverse roles.  Disjoint unions keep, per individual name, one node
per side; the union is internal plumbing for the cross-interpretation
bisimulation check and is not itself a model of the signature.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _int_array(value) -> np.ndarray:
    return np.asarray(value if isinstance(value, np.ndarray) else list(value), dtype=np.int64)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """values sorted, without repeats.  Not np.unique: its first call
    imports numpy.ma, 10 to 20 ms of CPU that most commands never pay."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _int_rows(value, width: int) -> np.ndarray:
    """An (m, width) int64 array, from an array of that shape or an
    iterable of width-tuples of integers."""
    rows = _int_array(value)
    if rows.size == 0:
        return rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError("expected rows of %d integers, got an array of shape %s"
                         % (width, rows.shape))
    return rows


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """rows sorted by their first two columns; of rows that agree there,
    only the last in the input survives."""
    u, v = rows[:, 0], rows[:, 1]
    if ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all():
        return rows
    order = np.lexsort((v, u))
    rows = rows[order]
    keep = np.ones(len(rows), dtype=bool)
    keep[:-1] = (rows[1:, 0] != rows[:-1, 0]) | (rows[1:, 1] != rows[:-1, 1])
    return rows[keep]


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


@dataclass(frozen=True, eq=False)
class Interpretation:
    """A finite interpretation: dense domain 0..n-1 plus extensions.

    Each concept's members are stored as concept_members[concept], one
    read-only int64 array, sorted, without repeats.  Each role's edges
    are stored as role_edges[role] = (src, dst), two read-only int64
    arrays sorted by source and then by target, without repeats.
    Instances should be produced through build_interpretation, which
    validates and normalises the extensions (every signature name is
    present as a key).  Two interpretations are equal when they have the
    same signature, domain size, extensions and individual map.
    """

    signature: Signature
    n: int
    concept_members: Mapping[str, np.ndarray]
    role_edges: Mapping[str, tuple[np.ndarray, np.ndarray]]
    individual_map: Mapping[str, int]

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, Interpretation):
            return NotImplemented
        return (self.signature == other.signature and self.n == other.n
                and self.individual_map == other.individual_map
                and all(np.array_equal(self.concept_members[a], other.concept_members[a])
                        for a in self.signature.concept_names)
                and all(np.array_equal(a, b)
                        for r in self.signature.role_names
                        for a, b in zip(self.role_edges[r], other.role_edges[r])))

    @property
    def domain(self) -> range:
        return range(self.n)

    @cached_property
    def concept_ext(self) -> Mapping[str, frozenset[int]]:
        """Each concept's members as a frozenset: a read-only view of
        concept_members, built on first use."""
        return MappingProxyType({a: frozenset(x.tolist()) for a, x in self.concept_members.items()})

    @cached_property
    def role_ext(self) -> Mapping[str, frozenset[tuple[int, int]]]:
        """Each role's edges as a frozenset of pairs: a read-only view of
        role_edges, built on first use."""
        return MappingProxyType({r: frozenset(zip(src.tolist(), dst.tolist()))
                                 for r, (src, dst) in self.role_edges.items()})

    def edges(self, role: str, inverted: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(u, v): the edges u -> v of the role, or of its inverse when
        inverted, sorted by u and then by v."""
        if not inverted:
            return self.role_edges[role]
        if role not in self._reversed:
            src, dst = self.role_edges[role]
            # a stable sort by dst keeps each dst's edges sorted by src
            order = np.argsort(dst, kind="stable")
            self._reversed[role] = _frozen(dst[order]), _frozen(src[order])
        return self._reversed[role]

    def successors(self, role: str, x: int) -> tuple[int, ...]:
        ptr, tail, _ = self.in_edges(role, True)
        return tuple(tail[ptr[x]:ptr[x + 1]].tolist())

    def predecessors(self, role: str, y: int) -> tuple[int, ...]:
        ptr, tail, _ = self.in_edges(role, False)
        return tuple(tail[ptr[y]:ptr[y + 1]].tolist())

    @cached_property
    def _reversed(self) -> dict:
        return {}

    @cached_property
    def _in_edges(self) -> dict:
        return {}

    def in_edges(self, role: str, inverted: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges of one basic role as int64 arrays grouped by target.

        The basic role is the role name, or its inverse when inverted.
        Returns (ptr, tail, head): edge i runs from tail[i] to head[i],
        edges are sorted by head and then by tail, and ptr[y]:ptr[y + 1]
        are the positions of the edges into y, so tail[ptr[y]:ptr[y + 1]]
        lists y's neighbours in ascending order.  ptr is built on first use
        and kept: successors and predecessors slice it, and evaluation
        reads it.
        """
        key = (role, inverted)
        if key not in self._in_edges:
            head, tail = self.edges(role, not inverted)
            ptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(head, minlength=self.n), out=ptr[1:])
            self._in_edges[key] = ptr, tail, head
        return self._in_edges[key]


def build_interpretation(
    signature: Signature,
    n: int,
    concept_ext: Mapping[str, Iterable[int]] | None = None,
    role_ext: Mapping[str, Iterable[tuple[int, int]] | np.ndarray] | None = None,
    individual_map: Mapping[str, int] | None = None,
) -> Interpretation:
    """Validate and normalise the pieces of an interpretation.

    A concept's members are given as an integer array or an iterable of
    integers, and a role's edges as an (m, 2) integer array of (src, dst)
    rows or as an iterable of pairs; repeats count once.  Raises
    EmptyDomainError, UnknownNameError, ElementOutOfRangeError or
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
        elems = _int_array(concept_ext.get(name, ()))
        bad = (elems < 0) | (elems >= n)
        if bad.any():
            raise ElementOutOfRangeError("concept %r contains element %r outside 0..%d"
                                         % (name, int(elems[bad][0]), n - 1))
        norm_concepts[name] = _frozen(_sorted_unique(elems))

    norm_roles = {}
    for name in signature.role_names:
        rows = _int_rows(role_ext.get(name, ()), 2)
        bad = ((rows < 0) | (rows >= n)).any(axis=1)
        if bad.any():
            x, y = rows[bad][0].tolist()
            raise ElementOutOfRangeError("role %r contains pair (%r, %r) outside 0..%d" % (name, x, y, n - 1))
        rows = _sorted_rows(rows)
        norm_roles[name] = (_frozen(rows[:, 0].copy()), _frozen(rows[:, 1].copy()))

    norm_indiv = {}
    for name in signature.individual_names:
        if name not in individual_map:
            raise PartialIndividualMapError("individual %r has no assigned element" % name)
        x = int(individual_map[name])
        if not (0 <= x < n):
            raise ElementOutOfRangeError("individual %r assigned element %r outside 0..%d" % (name, x, n - 1))
        norm_indiv[name] = x

    return Interpretation(signature, int(n), norm_concepts, norm_roles, norm_indiv)


@dataclass(frozen=True, eq=False)
class QSInterpretation:
    """An interpretation extended with edge multiplicities and self sets.

    weights[(role, inverted)] holds a positive multiplicity per edge of
    that basic role, aligned to base.edges(role, inverted).  loops[role]
    lists, sorted, the elements whose local reflexivity test is deemed
    to hold.  qu and se are read-only views of the same data as pair
    tables and sets.
    """

    base: Interpretation
    weights: Mapping[tuple[str, bool], np.ndarray]
    loops: Mapping[str, np.ndarray]

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, QSInterpretation):
            return NotImplemented
        return (self.base == other.base and self.weights.keys() == other.weights.keys()
                and all(np.array_equal(w, other.weights[key]) for key, w in self.weights.items())
                and all(np.array_equal(self.loops[r], other.loops[r])
                        for r in self.signature.role_names))

    @property
    def signature(self) -> Signature:
        return self.base.signature

    @property
    def n(self) -> int:
        return self.base.n

    @cached_property
    def qu(self) -> Mapping[tuple[str, bool], Mapping[tuple[int, int], int]]:
        """Per basic role, the multiplicity of each edge (u, v), built on first use."""
        out = {}
        for (role, inverted), w in self.weights.items():
            u, v = self.base.edges(role, inverted)
            out[(role, inverted)] = MappingProxyType(dict(zip(zip(u.tolist(), v.tolist()), w.tolist())))
        return MappingProxyType(out)

    @cached_property
    def se(self) -> Mapping[str, frozenset[int]]:
        """Per role, the set of elements with a self loop, built on first use."""
        return MappingProxyType({r: frozenset(x.tolist()) for r, x in self.loops.items()})


def build_qs_interpretation(base: Interpretation, qu, se) -> QSInterpretation:
    """Validate multiplicities and self sets over base.

    qu maps a basic role (role name, inverted flag) to its multiplicities,
    as a mapping from edges (u, v) to counts or as an (m, 3) integer array
    of (u, v, count) rows, where of two rows for one edge the later counts.
    Edges with count 0 are dropped, and the rest must be exactly the
    basic role's edges.  se maps role names to elements.
    """
    weights = {}
    for key, counts in qu.items():
        role, inverted = key
        if role not in base.signature.role_index:
            raise UnknownNameError("qu entry for %r: not a role name" % role)
        if isinstance(counts, Mapping):
            counts = [(u, v, c) for (u, v), c in counts.items()]
        rows = _sorted_rows(_int_rows(counts, 3))
        rows = rows[rows[:, 2] != 0]
        if (rows[:, 2] < 0).any():
            raise ElementOutOfRangeError("qu multiplicity for %r must be non-negative" % role)
        u, v = base.edges(role, bool(inverted))
        if not (np.array_equal(rows[:, 0], u) and np.array_equal(rows[:, 1], v)):
            raise ElementOutOfRangeError(
                "qu support for %s%s must equal the edge set of the base interpretation"
                % (role, "^-" if inverted else "")
            )
        weights[(role, bool(inverted))] = _frozen(rows[:, 2].copy())
    loops = {}
    for role in base.signature.role_names:
        elems = _sorted_unique(_int_array(se.get(role, ())))
        if len(elems) and (elems[0] < 0 or elems[-1] >= base.n):
            raise ElementOutOfRangeError("se set for %r contains element outside the domain" % role)
        loops[role] = _frozen(elems)
    return QSInterpretation(base, weights, loops)


def qs_embedding(interp: Interpretation) -> QSInterpretation:
    """The canonical QS view of a plain interpretation.

    Every edge gets multiplicity 1 in both directions and se(r) is the
    diagonal of r.  Concept evaluation agrees with the plain semantics.
    """
    weights = {}
    loops = {}
    for role, (src, dst) in interp.role_edges.items():
        weights[(role, False)] = weights[(role, True)] = _frozen(np.ones(len(src), dtype=np.int64))
        loops[role] = _frozen(src[src == dst])
    return QSInterpretation(interp, weights, loops)


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


@dataclass(eq=False, slots=True)
class LabeledGraph:
    """Array form of one interpretation, or of a disjoint union of two.

    The nodes are the sides' elements, side after side, and sizes lists
    the sides' element counts.  The edges are one list of read-only int64
    arrays: edge i runs from tails[i] to heads[i] along role name
    roles[i], and the edges are sorted by role, then tail, then head,
    without repeats.  The concept memberships are one list the same way:
    node members[i] is in concept name concepts[i], sorted by concept and
    then node.  nominal_key numbers each node's set of individual names,
    0 for none.
    """

    signature: Signature
    sizes: tuple[int, ...]
    members: np.ndarray
    concepts: np.ndarray
    nominal_key: np.ndarray
    individual_nodes: dict[str, tuple[int, ...]]
    tails: np.ndarray
    roles: np.ndarray
    heads: np.ndarray

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def n_roles(self) -> int:
        return len(self.signature.role_names)

    @property
    def n_edges(self) -> int:
        return int(len(self.tails))


def _end_to_end(offsets: list[int], per_side, width: int, n_columns: int):
    """Rows laid end to end, name after name and within a name side after
    side, with node offsets, which keeps them sorted: per_side lists per
    side, per name index below width, a tuple of n_columns sorted arrays
    in that side's element ids.  Returns the rows' name indices and
    columns, read-only int64 arrays."""
    parts = [(k, off, side[k]) for k in range(width) for off, side in zip(offsets, per_side)]
    names = np.repeat(np.array([k for k, _, _ in parts], dtype=np.int64),
                      [len(cols[0]) for _, _, cols in parts])
    empty = [np.zeros(0, dtype=np.int64)]  # concatenate needs one array, even with no names
    columns = [np.concatenate(empty + [cols[c] + off for _, off, cols in parts])
               for c in range(n_columns)]
    return tuple(map(_frozen, (names, *columns)))


def _runs(names: np.ndarray, width: int, columns) -> list[tuple[np.ndarray, ...]]:
    """Per name index below width, its slice of every column, of rows
    sorted by name."""
    bounds = np.searchsorted(names, np.arange(width + 1)).tolist()
    return [tuple(col[lo:hi] for col in columns) for lo, hi in zip(bounds, bounds[1:])]


def _assemble(sig: Signature, sizes: list[int], side_members, side_individuals,
              side_edges) -> LabeledGraph:
    """Shared assembly for to_labeled_graph, disjoint_union_graph and from_arrays.

    Per side, in that side's own element ids: side_members lists per
    concept name (its sorted members,), side_individuals maps every
    individual name to its element, and side_edges lists per role name
    its (src, dst) arrays sorted by src and then by dst without repeats.
    The lists are laid end to end (_end_to_end).
    """
    offsets = list(itertools.accumulate(sizes, initial=0))[:-1]
    concepts, members = _end_to_end(offsets, side_members, len(sig.concept_names), 1)
    roles, tails, heads = _end_to_end(offsets, side_edges, len(sig.role_names), 2)
    individual_nodes = {name: tuple(off + int(side[name])
                                    for side, off in zip(side_individuals, offsets))
                        for name in sig.individual_names}
    node_names: dict[int, list[str]] = {}
    for name, nodes in individual_nodes.items():
        for node in nodes:
            node_names.setdefault(node, []).append(name)
    key_of: dict[frozenset, int] = {frozenset(): 0}
    nominal_key = np.zeros(sum(sizes), dtype=np.int32)
    for node in sorted(node_names):
        nominal_key[node] = key_of.setdefault(frozenset(node_names[node]), len(key_of))
    return LabeledGraph(sig, tuple(sizes), members, concepts, nominal_key, individual_nodes,
                        tails, roles, heads)


def _interpretations_graph(parts: list[Interpretation]) -> LabeledGraph:
    sig = parts[0].signature
    return _assemble(sig, [interp.n for interp in parts],
                     [[(interp.concept_members[name],) for name in sig.concept_names]
                      for interp in parts],
                     [interp.individual_map for interp in parts],
                     [[interp.role_edges[name] for name in sig.role_names] for interp in parts])


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

    atom_bits is an (n, concept names) array whose nonzero cells are the
    memberships.  role_edges is a sequence of (src, dst) array pairs, one
    per role name, in any order; repeated edges count once.  Used by the
    benchmark path where materialising Python pair sets would dominate
    the run.
    """
    if len(role_edges) != len(signature.role_names):
        raise SignatureMismatchError("expected one edge array pair per role name")
    atom_bits = np.asarray(atom_bits)
    if atom_bits.shape != (n, len(signature.concept_names)):
        raise SignatureMismatchError("expected atom bits of shape (%d, %d)"
                                     % (n, len(signature.concept_names)))
    individual_map = dict(individual_map or {})
    edges = []
    for src, dst in role_edges:
        rows = np.column_stack((_int_array(src), _int_array(dst)))
        if len(rows) and (rows.min() < 0 or rows.max() >= n):
            raise ElementOutOfRangeError("edge endpoint outside 0..%d" % (n - 1))
        rows = _sorted_rows(rows)
        edges.append((rows[:, 0], rows[:, 1]))
    for name in signature.individual_names:
        if name not in individual_map:
            raise PartialIndividualMapError("individual %r has no assigned element" % name)
    concepts, members = np.nonzero(atom_bits.T)  # sorted by concept, then node
    return _assemble(signature, [n], [_runs(concepts, len(signature.concept_names), (members,))],
                     [individual_map], [edges])


def extract_interpretation(graph: LabeledGraph, side: int) -> Interpretation:
    """Project one side of a (possibly united) graph back to an interpretation."""
    sig = graph.signature
    if not 0 <= side < len(graph.sizes) or not graph.sizes[side]:
        raise EmptyDomainError("graph has no nodes with origin side %d" % side)
    lo = sum(graph.sizes[:side])
    hi = lo + graph.sizes[side]
    mine = (graph.members >= lo) & (graph.members < hi)
    members = _runs(graph.concepts[mine], len(sig.concept_names), (graph.members[mine] - lo,))
    mine = (graph.tails >= lo) & (graph.tails < hi)
    edges = _runs(graph.roles[mine], len(sig.role_names),
                  (graph.tails[mine] - lo, graph.heads[mine] - lo))
    individual_map = {name: v - lo for name, owners in graph.individual_nodes.items()
                      for v in owners if lo <= v < hi}
    return build_interpretation(sig, graph.sizes[side],
                                {name: x for name, (x,) in zip(sig.concept_names, members)},
                                {r: np.column_stack(pair) for r, pair in zip(sig.role_names, edges)},
                                individual_map)


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
