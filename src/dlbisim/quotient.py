"""Quotient interpretations and concepts separating split elements.

`quotient_interpretation` collapses a partition's blocks into single
elements.  `qs_quotient` additionally remembers, per basic role and
block pair, the largest number of parallel edges any member of the
source block had into the target block, plus which blocks contained a
self loop; counting and self-loop concepts evaluated over that summary
see the structure the plain quotient forgets.

`separating_concept` turns a refinement trace into a certificate: a
concept satisfied by one of two elements in different blocks and not by
the other.  A pair that the signature rounds part gets a concept of the
least modal depth, read off the rounds' levels (Cleaveland 1990, "On
automatically explaining bisimulation inequivalence").  A pair that they
leave in one block gets one read off the recorded loop, which replays
its splits; these can nest as deep as the loop ran.  Neither tries to
minimize size, which is NP-hard (Martens & Groote 2023).  Every
certificate is re-evaluated before being returned, so a returned
witness is always valid.
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
from .refine import (
    Partition,
    RefinementTrace,
    _splitter_structures,
    check_partition,
)
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


def _count_literal(trace: RefinementTrace, s: int, cx: int, cy: int, target: Concept) -> Concept:
    """A literal on the edges along splitter role s into target: true at
    an element with cx of them, false at one with cy (without counting,
    only whether there is one counts)."""
    role = _role_node(trace, s)
    if trace.use_counts:
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
    with the fewest conjuncts is taken.  Separations are memoised per
    (level, block of x, block of y).
    """

    def __init__(self, trace: RefinementTrace):
        self.trace = trace
        g = trace.graph
        self.levels = [block_of for block_of, _ in trace.levels]
        self.adjacency = [(g.fwd_indptr[s], g.fwd_indices) for s in range(g.n_roles)]
        if trace.phi.inverse:
            self.adjacency += [(g.rev_indptr[s], g.rev_indices) for s in range(g.n_roles)]
        self.memo: dict[tuple[int, int, int], Concept] = {}

    def separate(self, x: int, y: int) -> Concept:
        """A concept true at x and false at y, which some level parts."""
        d = next(d for d, block_of in enumerate(self.levels) if block_of[x] != block_of[y])
        key = (d, int(self.levels[d][x]), int(self.levels[d][y]))
        if key not in self.memo:
            self.memo[key] = self._build(d, x, y)
        return self.memo[key]

    def _successors(self, d: int, s: int, x: int) -> dict[int, tuple[int, int]]:
        """Per level d block of x's s-successors: a member, and x's edge count into it."""
        indptr, indices = self.adjacency[s]
        succ = indices[indptr[x]:indptr[x + 1]]
        blocks, first, counts = np.unique(self.levels[d][succ], return_index=True,
                                          return_counts=True)
        return dict(zip(blocks.tolist(), zip(succ[first].tolist(), counts.tolist())))

    def _build(self, d: int, x: int, y: int) -> Concept:
        trace = self.trace
        if d == 0:
            for probe in _label_probes(trace):
                holds = _label_value(trace, probe, x)
                if holds != _label_value(trace, probe, y):
                    return _label_literal(probe, holds)
            raise BisimError("internal: label blocks differ but labels agree")
        sides = [(self._successors(d - 1, s, x), self._successors(d - 1, s, y))
                 for s in range(trace.n_split_roles)]
        for s, (sx, sy) in enumerate(sides):
            dx = sum(count for _, count in sx.values())
            dy = sum(count for _, count in sy.values())
            if (dx != dy) if trace.use_counts else (bool(dx) != bool(dy)):
                return _count_literal(trace, s, dx, dy, Top())
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
        char = _conjoin([self.separate(member, others[o][0]) for o in sorted(others) if o != c])
        return _count_literal(trace, s, cx, cy, char)


class _WitnessBuilder:
    """Replays a trace; builds characteristic and separating concepts."""

    def __init__(self, trace: RefinementTrace):
        self.trace = trace
        g = trace.graph
        # A zone is a block's fact history as a linked list: zone z is
        # (event index, class, zone before it), sub-blocks share their
        # parent's zone, and zones 0..n_init-1 are the empty histories of
        # the initial blocks, marked by event index -1.
        n_init = int(trace.init_block_of.max()) + 1 if len(trace.init_block_of) else 0
        zones: list[tuple[int, int, int]] = [(-1, 0, -1)] * n_init
        zone_of = {b: b for b in range(n_init)}
        # target[ei]: the splitter's zone before the splits of event ei's
        # step, i.e. its facts from events at earlier times; all events of
        # one step share the splitter, so it is read at the step's first.
        # A compound entry's zone is read the same way, at its time; a
        # root entry, the whole domain, has zone -1.
        target: list[int] = []
        blocks, times, self.minus = (trace.compounds[:, i].tolist() for i in range(3))
        compound_zone: list[int] = []

        def resolve(before: float) -> None:
            while len(compound_zone) < len(times) and times[len(compound_zone)] <= before:
                block = blocks[len(compound_zone)]
                compound_zone.append(zone_of[block] if block >= 0 else -1)

        time = None
        for ei, ev in enumerate(trace.events):
            if ev.time != time:
                time = ev.time
                resolve(time)
                splitter_zone = zone_of[ev.splitter]
            target.append(splitter_zone)
            before = zone_of[ev.parent]
            for b, c in ev.subs:
                zone_of[b] = len(zones)
                zones.append((ei, c, before))
        resolve(float("inf"))
        # rest[ei]: without counting, the compound entry S without the
        # splitter, the last entry event ei's step made
        last_at = {when: k for k, when in enumerate(times)}
        self.rest = [-1 if trace.use_counts else last_at[ev.time] for ev in trace.events]
        self.zones = zones
        self.zone_of = zone_of
        self.target = target
        self.compound_zone = compound_zone
        # each initial block's first member
        blocks, first = np.unique(trace.init_block_of, return_index=True)
        self.init_rep = dict(zip(blocks.tolist(), first.tolist()))
        _, _, self.degrees = _splitter_structures(trace.phi, g)
        # without counting, an initial block's "has an edge" literal for a
        # role follows from its labels unless the pre-split cut its label
        # block along that role: only those (role, label block) pairs need it
        self.mixed: set[tuple[int, int]] = set()
        if not trace.use_counts:
            self.labels = trace.levels[0][0]
            for s, has in enumerate(self.degrees > 0):
                both = np.intersect1d(self.labels[has], self.labels[~has])
                self.mixed.update((s, int(b)) for b in both)
        self._zone_memo: dict[int, Concept] = {}
        self._compound_memo: dict[int, Concept] = {}

    def _init_probes(self):
        yield from _label_probes(self.trace)
        for s in range(self.trace.n_split_roles):
            yield ("degree", s, None)

    def _probe_value(self, probe, x: int):
        kind, key, _ = probe
        if kind != "degree":
            return _label_value(self.trace, probe, x)
        degree = int(self.degrees[key, x])
        return degree if self.trace.use_counts else degree > 0

    def _probe_literal(self, probe, vx, vy) -> Concept:
        if probe[0] != "degree":
            return _label_literal(probe, vx)
        return _count_literal(self.trace, probe[1], vx, vy, Top())

    def init_literals(self, rep: int) -> list[Concept]:
        out: list[Concept] = []
        for probe in self._init_probes():
            v = self._probe_value(probe, rep)
            if probe[0] != "degree":
                out.append(self._probe_literal(probe, v, not v))
            elif self.trace.use_counts:
                role = _role_node(self.trace, probe[1])
                if v:
                    out.append(AtLeast(v, role, Top()))
                out.append(AtMost(v, role, Top()))
            elif (probe[1], int(self.labels[rep])) in self.mixed:
                out.append(self._probe_literal(probe, v, not v))
        return out

    def _fact_literal(self, ei: int, c: int, target: Concept, rest: Concept | None) -> Concept:
        role = _role_node(self.trace, self.trace.events[ei].role)
        if self.trace.use_counts:
            if c == 0:
                return AtMost(0, role, target)
            return And(AtLeast(c, role, target), AtMost(c, role, target))
        if c == 0:
            return Not(Some(role, target))
        # the parent's elements all have edges into S, so within the parent
        # class 2 is just "no edge into S without B"
        into_rest = Some(role, rest)
        return And(Some(role, target), into_rest) if c == 1 else Not(into_rest)

    def char(self, zone: int) -> Concept:
        """Concept whose extension is the zone: its initial literals and facts.

        The conjunction nests left, so a zone's concept is its previous
        zone's concept and one fact literal, shared by every zone after
        it.  Memoised per zone, like the compound concepts (see _build).
        """
        self._build(zone)
        return self._zone_memo[zone]

    def _compound(self, k: int) -> Concept:
        """Concept whose extension is compound entry k."""
        self._build(~k)
        return self._compound_memo[k]

    def _build(self, node: int) -> None:
        """Memoise the concept of a zone, or of compound k given as ~k.

        A fact's literal needs the concept of its splitter's zone and,
        for a three-way split, of a compound, which needs zones in turn;
        all of them are built from one explicit stack.
        """
        zmemo = self._zone_memo
        cmemo = self._compound_memo
        stack = [node]
        while stack:
            z = stack[-1]
            if z < 0:
                k = ~z
                if k in cmemo:
                    stack.pop()
                    continue
                minus = self.minus[k]
                zk = self.compound_zone[k]
                if zk < 0:
                    cmemo[k] = Top()
                    continue
                pending = [] if zk in zmemo else [zk]
                if minus >= 0 and minus not in cmemo:
                    pending.append(~minus)
                if pending:
                    stack.extend(pending)
                    continue
                if minus < 0:
                    cmemo[k] = zmemo[zk]
                elif isinstance(cmemo[minus], Top):
                    cmemo[k] = Not(zmemo[zk])
                else:
                    cmemo[k] = And(cmemo[minus], Not(zmemo[zk]))
                continue
            if z in zmemo:
                stack.pop()
                continue
            ei, c, before = self.zones[z]
            if ei < 0:
                zmemo[z] = _conjoin(self.init_literals(self.init_rep[z]))
                continue
            rest = self.rest[ei]
            pending = [d for d in (before, self.target[ei]) if d not in zmemo]
            if rest >= 0 and rest not in cmemo:
                pending.append(~rest)
            if pending:
                stack.extend(pending)
                continue
            literal = self._fact_literal(ei, c, zmemo[self.target[ei]],
                                         cmemo[rest] if rest >= 0 else None)
            # Top is the empty conjunction; no literal is Top
            zmemo[z] = literal if isinstance(zmemo[before], Top) else And(zmemo[before], literal)

    def _history(self, block: int) -> list[tuple[int, int]]:
        """The block's facts (event index, count class), oldest first."""
        out = []
        ei, c, before = self.zones[self.zone_of[block]]
        while ei >= 0:
            out.append((ei, c))
            ei, c, before = self.zones[before]
        return out[::-1]

    def separate(self, x: int, y: int) -> Concept:
        trace = self.trace
        bx, by = int(trace.final_block_of[x]), int(trace.final_block_of[y])
        if bx == by:
            raise NotSeparatedError("elements %d and %d share a block" % (x, y))
        ix, iy = int(trace.init_block_of[x]), int(trace.init_block_of[y])
        if ix != iy:
            for probe in self._init_probes():
                vx, vy = self._probe_value(probe, x), self._probe_value(probe, y)
                if vx != vy:
                    return self._probe_literal(probe, vx, vy)
            raise BisimError("internal: initial blocks differ but labels agree")
        for (ex, cx), (ey, cy) in zip(self._history(bx), self._history(by)):
            if ex == ey and cx == cy:
                continue
            if ex != ey:
                raise BisimError("internal: histories diverge on different events")
            ev = trace.events[ex]
            if cx and cy and not trace.use_counts:
                # classes 1 and 2 differ on edges into S without the splitter
                into_rest = Some(_role_node(trace, ev.role), self._compound(self.rest[ex]))
                return into_rest if cx == 1 else Not(into_rest)
            return _count_literal(trace, ev.role, cx, cy, self.char(self.target[ex]))
        raise BisimError("internal: separated elements have matching histories")


@dataclass(frozen=True)
class WitnessConcept:
    concept: Concept
    left: int
    right: int


def separating_concept(interp: Interpretation, trace: RefinementTrace,
                       x: int, y: int) -> WitnessConcept:
    """A concept satisfied by x but not by y, read off the trace: off its
    levels when the signature rounds part the two, else off its loop.

    Raises NotSeparatedError when the two elements share a final block
    (then no concept of the traced language family separates them).
    The result is checked by evaluation before being returned.
    """
    n = trace.graph.n
    if not (0 <= x < n and 0 <= y < n):
        raise ElementOutOfRangeError("element out of range for the traced graph")
    if x == y:
        raise NotSeparatedError("an element cannot be separated from itself")
    last = trace.levels[-1][0]
    if last[x] != last[y]:
        concept = _LevelWitness(trace).separate(x, y)
    else:
        concept = _WitnessBuilder(trace).separate(x, y)
    ext = eval_concept(interp, concept, trace.phi)
    if x not in ext or y in ext:
        raise BisimError("internal: separating concept failed validation")
    return WitnessConcept(concept, x, y)
