"""Quotient interpretations and concepts separating split elements.

`quotient_interpretation` collapses a partition's blocks into single
elements.  `qs_quotient` additionally remembers, per basic role and
block pair, the largest number of parallel edges any member of the
source block had into the target block, plus which blocks contained a
self loop; counting and self-loop concepts evaluated over that summary
see the structure the plain quotient forgets.

`separating_concept` turns a refinement trace into a certificate: a
concept satisfied by one of two elements in different blocks and not by
the other.  The concept is read off the levels of the signature rounds
that the trace keeps, of the least modal depth
(Cleaveland 1990, "On automatically explaining bisimulation
inequivalence").  It does not try to minimize size, which is NP-hard
(Martens & Groote 2023).  Every certificate is re-evaluated before
being returned, so a returned witness is always valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    Interpretation,
    QSInterpretation,
    _frozen,
    _sorted_unique,
    build_interpretation,
)
from .errors import BisimError, ElementOutOfRangeError, NotSeparatedError
from .refine import Partition, RefinementTrace, _edge_ends, check_partition
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


def quotient_interpretation(interp: Interpretation, partition: Partition) -> Interpretation:
    """Collapse blocks to elements; block ids follow smallest members."""
    check_partition(partition, interp.n)
    sig = interp.signature
    cls = partition.canonical_of.astype(np.int64)
    nb = partition.n_blocks
    concept_ext = {a: cls[members] for a, members in interp.concept_members.items()}
    role_ext = {}
    for r in sig.role_names:
        src, dst = interp.edges(r)
        keys = _sorted_unique(cls[src] * nb + cls[dst])
        role_ext[r] = np.column_stack((keys // nb, keys % nb))
    individual_map = {a: int(cls[x]) for a, x in interp.individual_map.items()}
    return build_interpretation(sig, nb, concept_ext, role_ext, individual_map)


def qs_quotient(interp: Interpretation, partition: Partition) -> QSInterpretation:
    """Quotient that keeps maximal edge multiplicities and self loops."""
    base = quotient_interpretation(interp, partition)
    sig = interp.signature
    cls = partition.canonical_of.astype(np.int64)
    nb = partition.n_blocks
    weights: dict[tuple[str, bool], np.ndarray] = {}
    loops: dict[str, np.ndarray] = {}
    for r in sig.role_names:
        for inverted in (False, True):
            src, dst = interp.edges(r, inverted)
            # edges from each element into each block, then the largest
            # such count over the members of the element's block; the block
            # pairs come out sorted and are the quotient's edges, so the
            # counts align to base.edges(r, inverted)
            keys, counts = np.unique(src * nb + cls[dst], return_counts=True)
            block_keys, at = np.unique(cls[keys // nb] * nb + keys % nb, return_inverse=True)
            top = np.zeros(len(block_keys), dtype=np.int64)
            np.maximum.at(top, at, counts)
            weights[(r, inverted)] = _frozen(top)
            if not inverted:
                loops[r] = _frozen(_sorted_unique(cls[src[src == dst]]))
    return QSInterpretation(base, weights, loops)


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
    if kind == "nominal":
        return x in g.individual_nodes.get(key, ())
    # by bisection: both lists are sorted by name and then by node
    names, nodes = (g.concepts, g.members) if kind == "atom" else (g.roles, g.tails)
    lo, hi = np.searchsorted(names, (key, key + 1)).tolist()
    lo, hi = (lo + np.searchsorted(nodes[lo:hi], (x, x + 1))).tolist()
    return hi > lo if kind == "atom" else x in g.heads[lo:hi].tolist()


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
    is found by bisection, over the trace's lookups of each level's
    blocks.  The edges along the splitter roles are sorted once by tail,
    then role, then head, so an element's edges are one slice, found by
    bisection.  Separations are memoised per (level, block of x, block
    of y) and built from an explicit stack, so a pair that parts
    thousands of levels deep costs no Python frames.
    """

    def __init__(self, trace: RefinementTrace):
        self.trace = trace
        self.roles = [_role_node(trace, s) for s in range(trace.n_split_roles)]
        self.memo: dict[tuple[int, int, int], Concept] = {}

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """_edge_ends sorted by tail, then role, then head: a stable sort
        by tail does it, since _edge_ends lists the edges by role, and
        within a role the edges of one tail by head."""
        tails, roles, heads = _edge_ends(self.trace.phi, self.trace.graph)
        order = np.argsort(tails, kind="stable")
        return tails[order], roles[order], heads[order]

    def _task(self, x: int, y: int, hi: int):
        """(key, x, y) for separating x from y, which level hi parts: key
        is (d, block of x, block of y) at the least level d that parts them."""
        blocks_at = self.trace.blocks_at
        pair = np.array((x, y))
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            bx, by = blocks_at(mid, pair).tolist()
            if bx != by:
                hi = mid
            else:
                lo = mid + 1
        bx, by = blocks_at(hi, pair).tolist()
        return (hi, bx, by), x, y

    def separate(self, x: int, y: int) -> Concept:
        """A concept true at x and false at y, which the last level parts."""
        memo = self.memo
        plans = {}
        goal = self._task(x, y, self.trace.depth)
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

    def _successors(self, d: int, x: int) -> dict[int, dict[int, tuple[int, int]]]:
        """Per splitter role s of x's edges, per level d block of x's
        s-successors: its least member, and x's s-edge count into it."""
        tails, roles, heads = self._edges
        lo, hi = np.searchsorted(tails, (x, x + 1)).tolist()
        heads = heads[lo:hi]
        width = self.trace.graph.n  # above every block id
        keys, first, counts = np.unique(roles[lo:hi] * width
                                        + self.trace.blocks_at(d, heads),
                                        return_index=True, return_counts=True)
        out: dict[int, dict[int, tuple[int, int]]] = {}
        for key, member, count in zip(keys.tolist(), heads[first].tolist(), counts.tolist()):
            s, c = divmod(key, width)
            out.setdefault(s, {})[c] = (member, count)
        return out

    def _plan(self, d: int, x: int, y: int):
        """How level d > 0 parts x from y: (s, cx, cy, parts), the literal
        on the s-edges (cx at x, cy at y) into the conjunction of the
        separations that parts lists as tasks (none for a degree literal)."""
        trace = self.trace
        succ_x, succ_y = self._successors(d - 1, x), self._successors(d - 1, y)
        sides = {s: (succ_x.get(s, {}), succ_y.get(s, {}))
                 for s in sorted(succ_x.keys() | succ_y.keys())}
        for s, (sx, sy) in sides.items():
            dx = sum(count for _, count in sx.values())
            dy = sum(count for _, count in sy.values())
            if (dx != dy) if trace.use_counts else (bool(dx) != bool(dy)):
                return s, dx, dy, []
        best = None
        for s, (sx, sy) in sides.items():
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
    """A concept satisfied by x but not by y, read off the trace's levels.

    Raises NotSeparatedError when the two elements share a block of the
    last level, the coarsest stable partition (then no concept of the
    traced language family separates them).  The result is checked by
    evaluation before being returned.
    """
    n = trace.graph.n
    if not (0 <= x < n and 0 <= y < n):
        raise ElementOutOfRangeError("element out of range for the traced graph")
    if x == y:
        raise NotSeparatedError("an element cannot be separated from itself")
    bx, by = trace.blocks_at(trace.depth, np.array((x, y))).tolist()
    if bx == by:
        raise NotSeparatedError("elements %d and %d share a block" % (x, y))
    concept = _LevelWitness(trace).separate(x, y)
    ext = eval_concept(interp, concept, trace.phi)
    if x not in ext or y in ext:
        raise BisimError("internal: separating concept failed validation")
    return WitnessConcept(concept, x, y)
