"""Quotient interpretations and concepts separating split elements.

`quotient_interpretation` collapses a partition's blocks into single
elements.  `qs_quotient` additionally remembers, per basic role and
block pair, the largest number of parallel edges any member of the
source block had into the target block, plus which blocks contained a
self loop; counting and self-loop concepts evaluated over that summary
see the structure the plain quotient forgets.

`separating_concept` turns a refinement trace into a certificate: a
concept satisfied by one of two elements in different blocks and not by
the other.  The trace runs signature rounds until the two part, and the
concept is read off the rounds' levels, of the least modal depth
(Cleaveland 1990, "On automatically explaining bisimulation
inequivalence").  It does not try to minimize size, which is NP-hard
(Martens & Groote 2023).  Every certificate is re-evaluated before
being returned, so a returned witness is always valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Interpretation,
    QSInterpretation,
    build_interpretation,
    build_qs_interpretation,
)
from .errors import BisimError, ElementOutOfRangeError, NotSeparatedError
from .refine import Partition, RefinementTrace, check_partition
from .semantics import eval_concept
from .syntax import (
    And,
    AtLeast,
    AtMost,
    Concept,
    ConceptName,
    HasSelf,
    Inverse,
    Nominal,
    Not,
    RoleName,
    Some,
    Top,
)


def _block_rows(nb: int, keys: np.ndarray, *cols: np.ndarray) -> np.ndarray:
    """Rows (a, b, *cols) of the keys a * nb + b."""
    return np.column_stack((keys // nb, keys % nb) + cols)


def quotient_interpretation(interp: Interpretation, partition: Partition) -> Interpretation:
    """Collapse blocks to elements; block ids follow smallest members."""
    check_partition(partition, interp.n)
    sig = interp.signature
    cls = partition.canonical_of.astype(np.int64)
    nb = partition.n_blocks
    concept_ext = {}
    for a in sig.concept_names:
        ext = interp.concept_ext[a]
        concept_ext[a] = np.unique(cls[np.fromiter(ext, dtype=np.int64, count=len(ext))]).tolist()
    role_ext = {}
    for r in sig.role_names:
        src, dst = interp.edges(r)
        role_ext[r] = _block_rows(nb, np.unique(cls[src] * nb + cls[dst]))
    individual_map = {a: int(cls[x]) for a, x in interp.individual_map.items()}
    return build_interpretation(sig, nb, concept_ext, role_ext, individual_map)


def qs_quotient(interp: Interpretation, partition: Partition) -> QSInterpretation:
    """Quotient that keeps maximal edge multiplicities and self loops."""
    base = quotient_interpretation(interp, partition)
    sig = interp.signature
    cls = partition.canonical_of.astype(np.int64)
    nb = partition.n_blocks
    qu: dict[tuple[str, bool], np.ndarray] = {}
    se: dict[str, np.ndarray] = {}
    for r in sig.role_names:
        for inverted in (False, True):
            src, dst = interp.edges(r, inverted)
            # edges from each element into each block, then the largest
            # such count over the members of the element's block
            keys, counts = np.unique(src * nb + cls[dst], return_counts=True)
            block_keys, at = np.unique(cls[keys // nb] * nb + keys % nb, return_inverse=True)
            top = np.zeros(len(block_keys), dtype=np.int64)
            np.maximum.at(top, at, counts)
            qu[(r, inverted)] = _block_rows(nb, block_keys, top)
            if not inverted:
                se[r] = cls[src[src == dst]]
    return build_qs_interpretation(base, qu, se)


def _conjoin(parts: list[Concept]) -> Concept:
    if not parts:
        return Top()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def _role_node(trace: RefinementTrace, role_idx: int):
    name, inverted = trace.splitter_role(role_idx)
    node = RoleName(name)
    return Inverse(node) if inverted else node


def _label_probes(trace: RefinementTrace):
    """The tests of the label partition, as (kind, key, name)."""
    sig = trace.graph.signature
    for a_idx, a in enumerate(sig.concept_names):
        yield ("atom", a_idx, a)
    if trace.phi.nominals:
        for a in sig.individual_names:
            yield ("nominal", a, a)
    if trace.phi.local_refl:
        for r_idx, r in enumerate(sig.role_names):
            yield ("self", r_idx, r)


def _label_value(trace: RefinementTrace, probe, x: int) -> bool:
    g = trace.graph
    kind, key, _ = probe
    if kind == "atom":
        return bool(g.atom_bits[x, key])
    if kind == "nominal":
        return x in g.individual_nodes.get(key, ())
    return bool(g.self_bits[x, key])


def _label_literal(probe, holds: bool) -> Concept:
    kind, _, name = probe
    node = {"atom": ConceptName, "nominal": Nominal, "self": HasSelf}[kind](name)
    return node if holds else Not(node)


def _count_literal(role, counting: bool, cx: int, cy: int, target: Concept) -> Concept:
    """A literal on the edges along role into target: true at an element
    with cx of them, false at one with cy (without counting, only whether
    there is one counts)."""
    if counting:
        return AtLeast(cx, role, target) if cx > cy else AtMost(cx, role, target)
    return Some(role, target) if cx else Not(Some(role, target))


class _LevelWitness:
    """Separating concepts read off the levels of the signature rounds.

    Two elements share a block of level d exactly when they agree on
    every concept of modal depth at most d, so a pair that first parts
    at level d gets a concept of depth d, and none is shallower.  At
    level 0 that is a label literal.  At level d > 0 the two share a
    level d-1 block, and along some splitter role s they differ in the
    set (with counting, the multiset) of level d-1 blocks that their
    s-successors lie in.  A degree literal (`some s top`, or with
    counting `atleast k s top`) is taken when one tells them apart.
    Otherwise the concept counts the s-successors in Char, for a block
    C that the two have different numbers of s-successors in: Char
    conjoins C's separations from the other blocks of the element with
    fewer, whose count into Char is then exactly its count into C, while
    the other's is at least its own.  Of the (s, C) that qualify, the one
    with the fewest conjuncts is taken.

    Levels refine each other, so the level at which a pair first parts
    is found by bisection.  Separations are memoised per (level, block
    of x, block of y) and built from an explicit stack, so a pair that
    parts thousands of levels deep costs no Python frames.
    """

    def __init__(self, trace: RefinementTrace):
        self.trace = trace
        g = trace.graph
        self.levels = [block_of for block_of, _ in trace.levels]
        self.adjacency = [(g.fwd_indptr[s], g.fwd_indices) for s in range(g.n_roles)]
        if trace.phi.inverse:
            self.adjacency += [(g.rev_indptr[s], g.rev_indices) for s in range(g.n_roles)]
        self.roles = [_role_node(trace, s) for s in range(trace.n_split_roles)]
        self.memo: dict[tuple[int, int, int], Concept] = {}

    def _task(self, x: int, y: int, hi: int):
        """(key, x, y) for separating x from y, which level hi parts: key
        is (d, block of x, block of y) at the least level d that parts them."""
        levels = self.levels
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            if levels[mid][x] != levels[mid][y]:
                hi = mid
            else:
                lo = mid + 1
        return (hi, int(levels[hi][x]), int(levels[hi][y])), x, y

    def separate(self, x: int, y: int) -> Concept:
        """A concept true at x and false at y, which the last level parts."""
        memo = self.memo
        plans = {}
        goal = self._task(x, y, len(self.levels) - 1)
        stack = [goal]
        while stack:
            key, x, y = stack[-1]
            if key in memo:
                stack.pop()
            elif key[0] == 0:
                memo[key] = self._label_separation(x, y)
            else:
                if key not in plans:
                    plans[key] = self._plan(key[0], x, y)
                s, cx, cy, parts = plans[key]
                todo = [task for task in parts if task[0] not in memo]
                if todo:
                    stack.extend(todo)
                    continue
                char = _conjoin([memo[part] for part, _, _ in parts])
                memo[key] = _count_literal(self.roles[s], self.trace.use_counts, cx, cy, char)
        return memo[goal[0]]

    def _label_separation(self, x: int, y: int) -> Concept:
        trace = self.trace
        for probe in _label_probes(trace):
            holds = _label_value(trace, probe, x)
            if holds != _label_value(trace, probe, y):
                return _label_literal(probe, holds)
        raise BisimError("internal: label blocks differ but labels agree")

    def _successors(self, d: int, s: int, x: int) -> dict[int, tuple[int, int]]:
        """Per level d block of x's s-successors: a member, and x's edge count into it."""
        indptr, indices = self.adjacency[s]
        succ = indices[indptr[x]:indptr[x + 1]]
        blocks, first, counts = np.unique(self.levels[d][succ], return_index=True,
                                          return_counts=True)
        return dict(zip(blocks.tolist(), zip(succ[first].tolist(), counts.tolist())))

    def _plan(self, d: int, x: int, y: int):
        """How level d > 0 parts x from y: (s, cx, cy, parts), the literal
        on the s-edges (cx at x, cy at y) into the conjunction of the
        separations that parts lists as tasks (none for a degree literal)."""
        trace = self.trace
        sides = [(self._successors(d - 1, s, x), self._successors(d - 1, s, y))
                 for s in range(trace.n_split_roles)]
        for s, (sx, sy) in enumerate(sides):
            dx = sum(count for _, count in sx.values())
            dy = sum(count for _, count in sy.values())
            if (dx != dy) if trace.use_counts else (bool(dx) != bool(dy)):
                return s, dx, dy, []
        best = None
        for s, (sx, sy) in enumerate(sides):
            for c in sorted(sx.keys() | sy.keys()):
                cx, cy = (side[c][1] if c in side else 0 for side in (sx, sy))
                if (cx == cy) if trace.use_counts else (bool(cx) == bool(cy)):
                    continue
                others = sy if cx > cy else sx
                cost = len(others) - (c in others)
                if best is None or cost < best[0]:
                    best = (cost, s, c, cx, cy, others)
        if best is None:
            raise BisimError("internal: level blocks differ but signatures agree")
        _, s, c, cx, cy, others = best
        member = (sides[s][0] if c in sides[s][0] else sides[s][1])[c][0]
        return s, cx, cy, [self._task(member, others[o][0], d - 1)
                           for o in sorted(others) if o != c]


@dataclass(frozen=True)
class WitnessConcept:
    concept: Concept
    left: int
    right: int


def separating_concept(interp: Interpretation, trace: RefinementTrace,
                       x: int, y: int) -> WitnessConcept:
    """A concept satisfied by x but not by y, read off the trace's levels;
    the trace runs signature rounds until the two part.

    Raises NotSeparatedError when the two elements share a final block,
    found by the first round that splits no block (then no concept of the
    traced language family separates them).  The result is checked by
    evaluation before being returned.
    """
    n = trace.graph.n
    if not (0 <= x < n and 0 <= y < n):
        raise ElementOutOfRangeError("element out of range for the traced graph")
    if x == y:
        raise NotSeparatedError("an element cannot be separated from itself")
    while trace.levels[-1][0][x] == trace.levels[-1][0][y]:
        if not trace.extend():
            raise NotSeparatedError("elements %d and %d share a block" % (x, y))
    concept = _LevelWitness(trace).separate(x, y)
    ext = eval_concept(interp, concept, trace.phi)
    if x not in ext or y in ext:
        raise BisimError("internal: separating concept failed validation")
    return WitnessConcept(concept, x, y)
