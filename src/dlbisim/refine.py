"""Coarsest stable partitions of labeled graphs, by signature rounds.

The initial partition groups nodes by label: concept membership always,
nominal labels when nominals are active, self-loop patterns when local
reflexivity is active.  Refinement then splits until every block is
stable against every block along every splitter role.  Splitter roles
are the role names, plus their inverses when inverse roles are active;
the universal role never splits anything.  With counting active the
stability notion is "equal number of edges into the splitter block".

compute_partition runs exact signature rounds to the fixpoint (Blom &
Orzan 2005).  A round against a partition P gives each element the
signature (its block of P, the set of (splitter role, block of P) pairs
over its edges), the multiset with counting, and makes the elements
with equal signatures its blocks.  The first round is taken against the
label partition.  Rounds stop after one that splits no block, whose
partition is the coarsest stable one, or once every block is a
singleton.  Level d is the partition after round d, level 0 the label
partition: two elements share a level d block exactly when they agree
on every concept of modal depth at most d (see quotient).

Block ids follow Hopcroft's "process all but the largest" (1971), per
round as in Valmari & Franceschinis ("Simple O(m log n) time Markov
chain lumping", TACAS 2010): the largest sub-block of a block that a
round splits keeps the block's id, and the others get fresh ids, above
every id used before.  An element moves (gets a fresh id) only when its
block at least halves, so at most log2 n times.

A full round (_signature_round) reads every edge and compares whole
signatures exactly, never by hash, in whole-array numpy passes:
O((n + m) log(n + m)) time and O(n + m) memory.

An incremental round (_incremental_rounds) reads only the in-edges of
the elements that the round before moved.  Members of a block had equal
signatures over the level before, and a fresh id occurs in no older
signature, so two members have equal new signatures exactly when they
have equal deltas: the (role, fresh block) pairs over their edges into
moved elements, with their edge counts under counting, and without
counting also the (role, old block) pairs whose last edge moved out,
found by records of the edge count per (element, role, block), at most
m of them.  A round makes one pass over its touched elements, grouped
by block, blocks in order of their least touched element.  A block with
one touched element moves it to a fresh block of its own, with no sort;
a block with more groups them by their sorted deltas, and its untouched
elements form one class.  Each element moves at most log2 n times, so
the incremental rounds read O(m log n) edges in all.

Full rounds run while the in-edges of the elements that the last round
moved number at least m/8; the rounds after that are incremental.  The
quantity compared is observed after every round; the constant weighs a
whole-array pass over all m edges against Python steps over the moved
in-edges alone, a ratio of the two implementations, not of the input.
Random graphs fall apart into near-singletons within a few full rounds;
paths and trees move a few elements per round and go incremental after
one or two.

With want_trace, the same run keeps every level for the witness
builder, as changes of one element's id at one level (RefinementTrace):
one per element at level 0 and one per move, O(n log n) in all.  The
splits are read off those changes (RefinementTrace.events); no round
records them.

A run may watch pairs of nodes.  Rounds only split blocks, so two nodes
that part at level d stay parted, and a concept of modal depth d tells
them apart; a question that asks whether some watched pair parts is
decided at that level.  Such a run stops after the label partition, or
after the first round, full or incremental, in which a watched pair
lies in two blocks, and its partition, counters and trace are those of
that level, which the coarsest stable partition refines.  Only the
moved elements of a round can part from a partner, so an incremental
round checks only those.  This is "on the fly" checking (Fernandez &
Mounier, CAV 1991) applied to partition refinement: a negative bisim
verdict from an individual and a witness cost the rounds up to the
level that decides them.  Without watched pairs nothing is checked.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import stats
from .core import BisimRelation, FeatureSet, LabeledGraph
from .errors import PartitionMismatchError


class Counters(NamedTuple):
    """Deterministic work counts of one refinement run."""

    edges_scanned: int  # edges read: m per full round, then moved in-edges and record edges
    rounds: int         # signature rounds, full and incremental
    splits: int         # blocks the rounds split
    moves: int          # elements given a fresh block id


@dataclass(frozen=True, eq=False)
class Partition:
    """Blocks of 0..n-1, identified by the ids the kernel assigned."""

    block_of: np.ndarray
    n_blocks: int
    counters: Counters | None = None  # set when compute_partition made it

    @property
    def n(self) -> int:
        return int(len(self.block_of))

    @cached_property
    def _runs(self) -> tuple[np.ndarray, list[int]]:
        """The elements ordered by block id, ascending within a block, and
        the bounds of each block's run in that order."""
        order = np.argsort(self.block_of, kind="stable")
        bounds = np.zeros(self.n_blocks + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.block_of, minlength=self.n_blocks), out=bounds[1:])
        return order, bounds.tolist()

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        order, bounds = self._runs
        members = order.tolist()
        return tuple(tuple(members[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    @cached_property
    def canonical_order(self) -> tuple[int, ...]:
        """Block ids sorted by their smallest member."""
        order, bounds = self._runs
        return tuple(np.argsort(order[bounds[:-1]]).tolist())

    @cached_property
    def canonical_of(self) -> np.ndarray:
        """Element to canonical block index (position in canonical_order)."""
        rank = np.zeros(self.n_blocks, dtype=np.int32)
        rank[list(self.canonical_order)] = np.arange(self.n_blocks, dtype=np.int32)
        return rank[self.block_of]

    def same_block(self, x: int, y: int) -> bool:
        return self.block_of[x] == self.block_of[y]

    def to_lines(self, names=None) -> list[str]:
        order, bounds = self._runs
        words = list(map(names.__getitem__ if names is not None else str, order.tolist()))
        return ["block %d: %s" % (i, " ".join(words[bounds[b]:bounds[b + 1]]))
                for i, b in enumerate(self.canonical_order)]

@dataclass(frozen=True)
class SplitEvent:
    """One block split by a signature round: block parent of level
    level - 1 broke into the blocks subs of level level, ascending; the
    first is parent itself, which its largest sub-block keeps."""

    level: int
    parent: int
    subs: tuple[int, ...]


class RefinementTrace:
    """The levels of phi's refinement of graph, for the witness builder.

    Level 0 is the label partition, level d the partition after round d,
    and the last level, depth, the coarsest stable one, or the level at
    which a run with watched pairs stopped.  Every element's level 0 id
    and the fresh ids it got later are kept as changes, keyed element *
    (depth + 1) + level in ascending order: n entries plus one per move,
    O(n log n) in all.
    """

    def __init__(self, graph: LabeledGraph, phi: FeatureSet, depth: int, keys: np.ndarray,
                 ids: np.ndarray):
        self.graph = graph
        self.phi = phi
        self.use_counts = bool(phi.counting)
        self.n_split_roles = graph.n_roles * (2 if phi.inverse else 1)
        self.depth = depth
        self._keys = keys
        self._ids = ids

    def blocks_at(self, d: int, xs):
        """The level d block ids of xs, one element or an array of them:
        the last change of each at level d or before, by bisection."""
        at = np.searchsorted(self._keys, np.asarray(xs, dtype=np.int64) * (self.depth + 1) + d,
                             side="right")
        return self._ids[at - 1]

    @property
    def events(self) -> tuple[SplitEvent, ...]:
        """The splits, one per block that a round split, in level order,
        read off the changes.  A change at a level d above 0 gives its
        element a fresh id, and the change before it, the same element's,
        holds its level d - 1 block: the fresh block's parent.  The
        rounds hand out fresh ids in ascending order, each split's as one
        run, so the runs of equal (level, parent) over the fresh ids in
        order are the splits."""
        levels = self._keys % (self.depth + 1)
        moves = np.flatnonzero(levels)
        fresh, first = np.unique(self._ids[moves], return_index=True)
        at = moves[first]
        parent, level = self._ids[at - 1], levels[at]
        edges = np.flatnonzero(np.diff(parent, prepend=-1, append=-1)
                               | np.diff(level, prepend=-1, append=-1)).tolist()
        parent, level, fresh = parent.tolist(), level.tolist(), fresh.tolist()
        return tuple(SplitEvent(level[lo], parent[lo], (parent[lo], *fresh[lo:hi]))
                     for lo, hi in zip(edges, edges[1:]))

    def splitter_role(self, idx: int) -> tuple[str, bool]:
        """Role name and inverted flag for a splitter role index."""
        names = self.graph.signature.role_names
        if idx < len(names):
            return names[idx], False
        return names[idx - len(names)], True


def _label_ids(phi: FeatureSet, graph: LabeledGraph) -> tuple[np.ndarray, int]:
    """Ids of the distinct node labels, numbered in lexicographic order of
    the rows (atom bits, nominal key, self bits), the first name's bit
    highest, and their count, read off the member lists and the self
    loops without making the rows."""
    ids, k = _fold(np.zeros(graph.n, dtype=np.int64), 1, graph.members, graph.concepts)
    if phi.nominals:
        base = int(graph.nominal_key.max(initial=0)) + 1
        ids, k = _dense_ids(ids * base + graph.nominal_key, k * base)
    if phi.local_refl:
        loop = graph.tails == graph.heads  # sorted by (role, tail), as every edge is
        ids, k = _fold(ids, k, graph.tails[loop], graph.roles[loop])
    return ids.astype(np.int32), k


def _fold(ids: np.ndarray, k: int, nodes: np.ndarray, columns: np.ndarray):
    """_dense_ids of the rows (ids[x], bits of x), ids below k; the pairs
    (x, c) of nodes and columns, sorted by column without repeats, set bit
    c of x.  Up to 62 - bit_length(k) columns go at a time, first column
    highest; columns without a pair are skipped: zero digits keep ranks."""
    at = 0
    while at < len(columns):
        first = int(columns[at])
        end = int(np.searchsorted(columns, first + 62 - k.bit_length()))
        w = int(columns[end - 1]) - first + 1
        key = np.zeros(len(ids), dtype=np.int64)
        np.add.at(key, nodes[at:end], np.left_shift(1, first + w - 1 - columns[at:end]))
        ids, k = _dense_ids((ids << w) + key, k << w)
        at = end
    return ids, k


def econd_partition(phi: FeatureSet, graph: LabeledGraph) -> Partition:
    """Partition by node labels only, which the first signature round
    refines (see compute_partition)."""
    return Partition(*_label_ids(phi, graph))

def _dense_ids(keys: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """Ids of the distinct values of keys, all below bound, in ascending
    value order, and their count: by a table of bound flags when bound is
    at most 4 times the number of keys, else by np.unique.  The two break
    even at about 8 times; at 4 times and less the flags take 0.2 to 0.7
    of np.unique's CPU.  They matter where rows pack into small keys, as
    in the label grouping and the rounds on paths and trees: np.unique
    alone adds 3% to the refinement of a 700-element path."""
    if bound <= 4 * len(keys):
        rank = np.zeros(bound, dtype=np.int64)
        rank[keys] = 1
        np.cumsum(rank, out=rank)
        return rank[keys] - 1, int(rank[-1]) if bound else 0
    distinct, ids = np.unique(keys, return_inverse=True)
    return ids, len(distinct)


def _row_ids(ids: np.ndarray, bound: int, digits: np.ndarray, base: int):
    """Dense ids of the rows (ids[i], digits[i, 0], digits[i, 1], ...),
    compared exactly and numbered in lexicographic row order, for ids
    below bound and digits below base: the columns are packed into int64
    keys, as many at a time as fit in 62 bits, at least one, and each
    key is replaced by its dense id (_dense_ids) before the next.  A
    round's bound * base is below n * (nsr * n + m + 1), far inside
    int64 for any graph that fits in memory."""
    j = 0
    while True:
        width = 1
        while j + width < digits.shape[1] and bound * base ** (width + 1) < 1 << 62:
            width += 1
        width = min(width, digits.shape[1] - j)
        key = digits[:, j:j + width] @ base ** np.arange(width - 1, -1, -1, dtype=np.int64)
        if bound > 1:
            key += ids * base ** width
        ids, bound = _dense_ids(key, bound * base ** width)
        j += width
        if j >= digits.shape[1]:
            return ids, bound


def _edge_ends(phi: FeatureSet, graph: LabeledGraph):
    """Every edge x -s-> y along a splitter role s, as the arrays (tails
    x, roles s, heads y).  The splitter roles are the role names and
    then, with inverses, their inverses, whose edges are the role's own
    reversed: the graph's own arrays, sorted by (role, tail, head), and
    with inverses their reversed copies after them, sorted by (role,
    head, tail).
    """
    if not phi.inverse:
        return graph.tails, graph.roles, graph.heads
    return (np.concatenate((graph.tails, graph.heads)),
            np.concatenate((graph.roles, graph.roles + graph.n_roles)),
            np.concatenate((graph.heads, graph.tails)))


def _signature_round(block_of, k, origin, heads, nsr, counting):
    """One signature round against the partition block_of of k blocks,
    over the edges origin = x * nsr + s, of tail x and splitter role s,
    into heads: the new block ids, their count, and the number of blocks
    split.  The largest sub-block of every block keeps the block's id,
    the first in signature order of equal largest ones; the other
    sub-blocks get the fresh ids k, k + 1, ... by parent.

    An element's signature is its block and the keys s * k + C of its
    edges, C the head's block, with their edge counts when counting.
    While the dense (element, key) table of edge counts has at most
    8 (n + m) cells, the signatures are its rows; otherwise they are read
    off the distinct keys x * nsr * k + s * k + C in ascending order
    (_signature_ids).  Either way the rows total O(n + m) cells, packed
    into int64 keys and ranked.  The table costs one bincount and a few
    wide keys.  On the benchmark's graphs it takes 1.7 to 4 times less
    CPU than the sorted keys in every first round, at up to 4.1 (n + m)
    cells, and the sorted keys take 11 to 12 times less in the later
    rounds of named documents, at 130 to 170; on random graphs the two
    break even between 4 and 16 cells per n + m.
    """
    n = len(block_of)
    blocks = block_of.astype(np.int64)
    keys = origin * k + blocks[heads]
    if n * nsr * k <= 8 * (n + len(origin)):
        table = np.bincount(keys, minlength=n * nsr * k)
        rows = (table if counting else (table > 0).view(np.int8)).reshape(n, -1)
        ids, total = _row_ids(blocks, k, rows, int(rows.max(initial=0)) + 1)
    else:
        ids, total = _signature_ids(blocks, k, np.unique(keys, return_counts=True), nsr,
                                    counting)
    if total == k:  # no block split: every block keeps its id
        return block_of, k, 0
    parent = np.empty(total, dtype=np.int64)
    parent[ids] = blocks
    # by parent, then largest first; lexsort is stable
    order = np.lexsort((-np.bincount(ids, minlength=total), parent))
    parent = parent[order]
    fresh = np.zeros(total, dtype=bool)
    np.equal(parent[1:], parent[:-1], out=fresh[1:])
    renumber = np.empty(total, dtype=np.int32)
    renumber[order] = np.where(fresh, k - 1 + np.cumsum(fresh), parent)
    # a split block's first fresh id follows the id it keeps
    return renumber[ids], total, int(np.count_nonzero(fresh[1:] > fresh[:-1]))


def _signature_ids(blocks, k, pairs, nsr, counting):
    """_row_ids of the signatures read off the sorted pairs (distinct keys
    and their edge counts, see _signature_round), each key x * nsr * k +
    comp with comp = s * k + C.  The elements whose signatures have
    between 2^(c-1) and 2^c - 1 pairs form length class c; each class is
    ranked on its own, its rows padded to 2^c - 1 pairs, less than twice
    their lengths, so the rows total O(n + m) cells."""
    n = len(blocks)
    distinct, count = pairs
    owner, comp = np.divmod(distinct, nsr * k)
    length = np.bincount(owner, minlength=n)
    # the position of each pair in its element's row
    place = np.arange(len(owner)) - (np.cumsum(length) - length)[owner]
    base = nsr * k + 1  # comp + 1, so that 0 pads
    if counting and len(count):
        base = max(base, int(count.max()) + 1)
    wclass = np.frexp(length)[1]
    pair_class = wclass[owner]
    row = np.empty(n, dtype=np.int64)
    ids = np.empty(n, dtype=np.int64)
    total = 0
    for c in np.flatnonzero(np.bincount(wclass)).tolist():
        xs = np.flatnonzero(wclass == c)
        w = (1 << c) - 1
        mine = pair_class == c
        row[xs] = np.arange(len(xs))
        digits = np.zeros((len(xs), (1 + counting) * w), dtype=np.int64)
        digits[row[owner[mine]], place[mine]] = comp[mine] + 1
        if counting:
            digits[row[owner[mine]], w + place[mine]] = count[mine]
        local, found = _row_ids(blocks[xs], k, digits, base)
        ids[xs] = local + total
        total += found
    return ids, total


def _incremental_rounds(block_of, k, moved, olds, level, tails, roles, heads, nsr, counting,
                        trace, partners):
    """The incremental rounds (see the module) from level `level`, of k
    blocks block_of, whose round moved the elements `moved` out of the
    blocks olds, until a round splits no block, every block is a
    singleton, or, with partners (each watched element's list of the
    elements it is watched with), a watched pair parts.

    Returns the final block ids and count; the rounds, edges scanned,
    splits and moves; and, with trace, the moves as arrays of elements,
    levels and fresh ids.  The elements are kept in block order, every
    block a segment of it (Valmari's array form), so that a split moves
    only its touched elements.  When no edge leaves a block that can
    split, the first round reads nothing and splits nothing, and it is
    counted without the set-up.

    A delta entry is q * nsr + s for an edge along splitter role s into
    fresh block q, and span + p * nsr + s, span = n * nsr, for a record
    (x, s, p) that reached 0.  The record (x, s, p), keyed
    x * span + p * nsr + s, counts x's s-edges into block p.  Records
    start with the counts above 1 over the level before the first round:
    a missing record of such a block counts 1 edge, while a fresh block's
    records are there from its first edge on.

    A round makes one pass over the sorted codes x * wide + entry, wide =
    2 * span, of its touched elements x, which groups them by block,
    blocks in order of their least touched element.  A block with one
    touched element splits in two: the element moves to the back of the
    block's segment and to a fresh id, with no sort.  A block with more
    sorts its touched elements by delta and cuts the segment.  The keys
    of that sort (_delta_keys) are made once in a round, at its first
    such block, over all its touched elements in element order, so that
    no fresh id depends on which blocks have one touched element.
    """
    n = len(block_of)
    size = np.bincount(block_of, minlength=k)
    # the in-edges of every element, over all splitter roles, but for the
    # edges out of singleton blocks, which never split, in any order within
    # an element: the deltas are sorted
    live = size[block_of[tails]] > 1
    if not live.any():
        changes = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                   np.zeros(0, dtype=np.int32)) if trace else None
        return block_of, k, (1, 0, 0, 0), changes
    tails, roles, heads = tails[live], roles[live], heads[live]
    order = np.argsort(heads)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=ptr[1:])
    ptr = ptr.tolist()
    tail = tails[order].tolist()
    role = roles[order].tolist()
    scanned = 0
    recs = {}
    if not counting:
        # the records, over the level before, which the first round moves from
        before = block_of.copy()
        before[moved] = olds
        keys, counts = np.unique((tails * n + before[heads]) * nsr + roles, return_counts=True)
        recs = dict(zip(keys[counts > 1].tolist(), counts[counts > 1].tolist()))
        scanned = len(tails)
    span = nsr * n
    wide = 2 * span
    el = np.argsort(block_of, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[el] = np.arange(n)
    bounds = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(size, out=bounds[1:])
    el, pos, bounds, blk = el.tolist(), pos.tolist(), bounds.tolist(), block_of.tolist()
    fst, lst = bounds[:-1], bounds[1:]
    moved, olds = moved.tolist(), olds.tolist()
    rounds = splits = moves = 0
    moved_elems, moved_ids, per_round = [], [], []
    while moved and k < n:
        rounds += 1
        level += 1
        # the delta entries of the touched elements, as x * wide + entry
        found = []
        for y, p in zip(moved, olds):
            q = blk[y]
            lo = ptr[y]
            hi = ptr[y + 1]
            scanned += hi - lo
            for j in range(lo, hi):
                x = tail[j]
                b = blk[x]
                if lst[b] - fst[b] == 1:
                    continue  # a singleton never splits
                entry = q * nsr + role[j]
                found.append(x * wide + entry)
                if not counting:
                    new = x * span + entry
                    recs[new] = recs.get(new, 0) + 1
                    old = new + (p - q) * nsr
                    left = recs.pop(old, 1) - 1
                    if left:
                        recs[old] = left
                    else:
                        found.append(x * wide + span + p * nsr + role[j])
        moved, olds = [], []
        # the touched elements of each block, blocks in order of their least
        # touched element
        found.sort()
        groups = {}
        last = -1
        for code in found:
            x = code // wide
            if x != last:
                last = x
                groups.setdefault(blk[x], []).append(x)
        keyof = None
        for b, group in groups.items():
            fb = fst[b]
            lb = lst[b]
            if len(group) == 1:
                # the touched element moves to a fresh block of its own
                x = group[0]
                t = lb - 1
                i = pos[x]
                z = el[t]
                el[t] = x
                el[i] = z
                pos[x] = t
                pos[z] = i
                q = len(fst)
                fst.append(t)
                lst.append(lb)
                lst[b] = t
                blk[x] = q
                moved.append(x)
                olds.append(b)
                if trace:
                    moved_ids.append(q)
                splits += 1
                continue
            if keyof is None:
                keyof = _delta_keys(found, wide, counting)
            group.sort(key=keyof.__getitem__)
            t = lb - len(group)
            if t == fb and keyof[group[0]] == keyof[group[-1]]:
                continue
            # the touched elements go to the back of b's segment in delta
            # order; the untouched elements and each run of equal deltas
            # are the classes, between consecutive cuts
            cuts = [fb] if t > fb else []
            last = None
            for x in group:
                if keyof[x] != last:
                    cuts.append(t)
                    last = keyof[x]
                i = pos[x]
                z = el[t]
                el[t] = x
                el[i] = z
                pos[x] = t
                pos[z] = i
                t += 1
            cuts.append(lb)
            keep = 0
            for c in range(1, len(cuts) - 1):
                if cuts[c + 1] - cuts[c] > cuts[keep + 1] - cuts[keep]:
                    keep = c
            for c in range(len(cuts) - 1):
                lo = cuts[c]
                hi = cuts[c + 1]
                if c == keep:
                    fst[b] = lo
                    lst[b] = hi
                    continue
                q = len(fst)
                fst.append(lo)
                lst.append(hi)
                members = el[lo:hi]
                for x in members:
                    blk[x] = q
                moved += members
                olds += [b] * (hi - lo)
                if trace:
                    moved_ids += [q] * (hi - lo)
            splits += 1
        k = len(fst)
        moves += len(moved)
        if trace:
            moved_elems += moved
            per_round.append(len(moved))
        if partners and any(blk[x] != blk[y] for x in moved for y in partners.get(x, ())):
            break
    changes = None
    if trace:
        changes = (np.array(moved_elems, dtype=np.int64),
                   np.repeat(np.arange(level - rounds + 1, level + 1), per_round),
                   np.array(moved_ids, dtype=np.int32))
    return np.array(blk, dtype=np.int32), k, (rounds, scanned, splits, moves), changes


def _delta_keys(found: list[int], wide: int, counting: bool) -> dict[int, int]:
    """The sort key of each touched element's delta, from the sorted codes
    x * wide + entry of an incremental round: its one entry, or the
    complement of its index among the longer deltas, numbered in order of
    their least element.  Without counting, a delta is a set."""
    keyof = {}
    shapes = {}
    run = []
    last = found[0] // wide
    for code in found + [-1]:  # -1 closes the last element's run
        x, entry = divmod(code, wide)
        if x != last:
            keyof[last] = run[0] if len(run) == 1 else ~shapes.setdefault(tuple(run), len(shapes))
            run.clear()
            last = x
        if counting or not run or run[-1] != entry:
            run.append(entry)
    return keyof


def _record(function: str, phi: FeatureSet, graph: LabeledGraph, n_blocks: int,
            counters: Counters, start: float) -> None:
    """Append a run to the runs of the stats record in force, if any."""
    record = stats.current()
    if record is not None:
        record.runs.append({"function": function, "phi": str(phi), "n": graph.n,
                            "edges": int(graph.n_edges), "blocks": int(n_blocks),
                            "counters": {k: int(v) for k, v in counters._asdict().items()},
                            "wall_s": time.perf_counter() - start})


def compute_partition(phi: FeatureSet, graph: LabeledGraph, want_trace: bool = True,
                      engine: str | None = None, watch: Sequence[tuple[int, int]] = ()
                      ) -> tuple[Partition, RefinementTrace | None]:
    """Coarsest partition refining the label partition and stable for phi.

    Returns the partition, with the counters of its rounds, and, when
    requested, the trace of the same run.  The partition never depends
    on want_trace.  The result is deterministic: block ids depend only on
    the graph and phi.  engine may name the refinement, "numpy" (see
    _kernels.active_engine); any other name but None raises ValueError.

    watch lists pairs of nodes.  The run stops after the label partition,
    or after the first round, in which some watched pair lies in two
    blocks; the partition, its counters and the trace are then those of
    that level, which the coarsest stable partition refines.  Rounds only
    split blocks, so a pair that parts stays parted: only a caller whose
    question is decided once a pair parts may pass pairs (see
    bisim._union_blocks and the witness command).  Without pairs the run
    goes to the fixpoint, with no per-round check.
    """
    if engine not in (None, "numpy"):
        raise ValueError("engine must be numpy, got %r" % (engine,))
    start = time.perf_counter()
    n = graph.n
    nsr = graph.n_roles * (2 if phi.inverse else 1)
    counting = bool(phi.counting)
    tails, roles, heads = _edge_ends(phi, graph)
    m = len(tails)
    origin = tails * nsr + roles
    in_degree = np.bincount(heads, minlength=n)
    label, k = _label_ids(phi, graph)
    block_of = label
    rounds = scanned = splits = moves = 0
    # with the trace, every (element, level, id) change: level 0, then the moves
    changes = [(np.arange(n), np.zeros(n, dtype=np.int64), label)] if want_trace else []
    watched = len(watch) > 0
    if watched:
        left, right = np.array(watch, dtype=np.int64).T
    parted = watched and bool(np.any(label[left] != label[right]))
    moved_in = m  # every edge is new to the first round
    while not parted and k < n and 8 * moved_in >= m:
        ids, total, split = _signature_round(block_of, k, origin, heads, nsr, counting)
        rounds += 1
        scanned += m
        moved = np.flatnonzero(ids >= k)
        splits += split
        moves += len(moved)
        if want_trace:
            changes.append((moved, np.full(len(moved), rounds), ids[moved]))
        olds, block_of, k = block_of[moved], ids, total
        if not len(moved):
            break  # the round split no block: the fixpoint
        parted = watched and bool(np.any(ids[left] != ids[right]))
        moved_in = int(in_degree[moved].sum())
    if not parted and k < n and len(moved):
        partners: dict[int, list[int]] = {}
        if watched:
            for x, y in zip(left.tolist(), right.tolist()):
                partners.setdefault(x, []).append(y)
                partners.setdefault(y, []).append(x)
        block_of, k, counts, more = _incremental_rounds(
            block_of, k, moved, olds, rounds, tails, roles, heads, nsr, counting, want_trace,
            partners)
        rounds, scanned, splits, moves = map(sum, zip((rounds, scanned, splits, moves), counts))
        changes.append(more)
    counters = Counters(scanned, rounds, splits, moves)
    partition, trace = Partition(block_of, k, counters), None
    if want_trace:
        xs, levels, ids = (np.concatenate(column) for column in zip(*changes))
        keys = xs * (rounds + 1) + levels
        order = np.argsort(keys)
        trace = RefinementTrace(graph, phi, rounds, keys[order], ids[order])
    _record("compute_partition", phi, graph, k, counters, start)
    return partition, trace


def partition_to_relation(partition: Partition) -> BisimRelation:
    """The equivalence relation a partition induces, as a pair set.

    It has up to n^2 pairs; the tests use it to compare partitions with
    relations, and nothing in the package calls it.
    """
    pairs = set()
    for members in partition.blocks:
        for x in members:
            for y in members:
                pairs.add((x, y))
    n = partition.n
    return BisimRelation(n, n, frozenset(pairs))


def check_partition(partition: Partition, n: int) -> None:
    """Raise when the partition does not cover exactly 0..n-1."""
    if partition.n != n:
        raise PartitionMismatchError("partition covers %d elements, interpretation has %d"
                                     % (partition.n, n))
    seen = partition.block_of
    if len(seen) and (seen.min() < 0 or seen.max() >= partition.n_blocks):
        raise PartitionMismatchError("partition block ids out of range")
