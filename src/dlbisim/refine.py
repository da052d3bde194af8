"""Coarsest stable partitions of labeled graphs: signature rounds, then a loop.

The initial partition groups nodes by label: concept membership always,
nominal labels when nominals are active, self-loop patterns when local
reflexivity is active.  Refinement then splits until every block is
stable against every block along every splitter role.  Splitter roles
are the role names, plus their inverses when inverse roles are active;
the universal role never splits anything.  With counting active the
stability notion is "equal number of edges into the splitter block".

compute_partition refines by exact signature rounds first (Blom &
Orzan 2005).  A round against a partition P gives each element the
signature (its block of P, the set of (splitter role, block of P) pairs
over its edges), the multiset with counting, and makes the elements
with equal signatures its blocks.  Signatures are compared exactly,
never by hash, as rows: of the dense table of edge counts per
(element, role, block) while it has at most 8 (n + m) cells, else of
each element's sorted pairs, padded to the longest of its power-of-two
length class.  Either way the rows total O(n + m) cells; they are
packed into int64 keys and ranked.  A round reads every edge once and
sorts: O((n + m) log(n + m)) time and O(n + m) memory.  The first
round is taken against the label partition.  Rounds stop at the
fixpoint, the coarsest stable partition, when every block is a
singleton, or after the first round that does not double the block
count, so there are at most log2 n + 1 of them and they read at most
m (log2 n + 1) edges.  The result of the last round is stable
against every block of the partition that round split: these blocks
are the starting compounds of the loop (see _kernels), which finishes
the refinement with three-way splits against compound splitters in
O(m log n) edge scans.  A block B of a compound S splits every block by
its edges into B and into S without B, in time linear in B's in-edges.

refinement_trace records a refinement for the witness builder.  It
runs the signature rounds under the same stopping rule and keeps every
partition they pass through as a level: level 0 is the label partition
and level i round i's, so two elements share a block of level d exactly
when they agree on every concept of modal depth at most d (see
quotient).  The trace runs further rounds on request (extend), past the
doubling rule, until a round splits no block or every block is a
singleton: its last level is then the coarsest stable partition,
compute_partition's blocks with other block ids.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _kernels
from .core import BisimRelation, FeatureSet, LabeledGraph
from .errors import PartitionMismatchError


class Counters(NamedTuple):
    """Deterministic work counts of one refinement run."""

    extractions: int    # loop steps: splitter blocks taken from a compound
    edges_scanned: int  # edges read: m per round, the loop's predecessor edges, its record setup
    splits: int         # blocks the loop split
    queue_pushes: int   # worklist entries pushed
    rounds: int         # signature rounds
    round_splits: int   # blocks the rounds split


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
    level - 1 broke into the blocks subs of level level, ascending."""

    level: int
    parent: int
    subs: tuple[int, ...]


class RefinementTrace:
    """The signature rounds of phi's refinement of graph, kept as levels
    for the witness builder.

    levels are the rounds' partitions as (block ids, block count), level
    0 the label partition and level i round i's.  extend runs one more
    round; complete is set once the last level is the coarsest stable
    partition: when a round split no block, or every block is a
    singleton.
    """

    def __init__(self, graph: LabeledGraph, phi: FeatureSet, levels: list[tuple[np.ndarray, int]],
                 origin: np.ndarray, heads: np.ndarray, run: dict | None = None):
        self.graph = graph
        self.phi = phi
        self.use_counts = bool(phi.counting)
        self.n_split_roles = graph.n_roles * (2 if phi.inverse else 1)
        self.levels = levels
        self._origin = origin
        self._heads = heads
        # the recorded run that counts the rounds, made by refinement_trace
        # or by the first round extend runs where runs are recorded
        self._run = run
        k = levels[-1][1]
        self.complete = k == graph.n or (len(levels) > 1 and k == levels[-2][1])

    def extend(self) -> bool:
        """Run one more signature round and keep its partition as a level;
        False, and no round, once the trace is complete."""
        if self.complete:
            return False
        start = time.perf_counter()
        block_of, k = self.levels[-1]
        ids, total, split, _ = _signature_round(block_of, k, self._origin, self._heads,
                                                self.n_split_roles, self.use_counts)
        self.levels.append((ids, total))
        self.complete = total == k or total == self.graph.n
        run = self._run
        if run is None:
            self._run = _record("refinement_trace", self.phi, self.graph, total,
                                Counters(0, len(self._origin), 0, 0, 1, split), start)
        else:
            counters = run["counters"]
            counters["edges_scanned"] += len(self._origin)
            counters["rounds"] += 1
            counters["round_splits"] += split
            run["blocks"] = total
            run["wall_s"] += time.perf_counter() - start
        return True

    @property
    def events(self) -> tuple[SplitEvent, ...]:
        """The splits of the levels so far: one per block of level d - 1
        that round d split, in order of d and then of the parent's id."""
        out = []
        for d in range(1, len(self.levels)):
            (coarse, k), (fine, total) = self.levels[d - 1], self.levels[d]
            if total == k:
                continue
            parent = np.zeros(total, dtype=np.int64)
            parent[fine] = coarse
            subs = np.argsort(parent, kind="stable")
            bounds = np.zeros(k + 1, dtype=np.int64)
            np.cumsum(np.bincount(parent, minlength=k), out=bounds[1:])
            for b in np.flatnonzero(np.diff(bounds) > 1).tolist():
                out.append(SplitEvent(d, b, tuple(subs[bounds[b]:bounds[b + 1]].tolist())))
        return tuple(out)

    def splitter_role(self, idx: int) -> tuple[str, bool]:
        """Role name and inverted flag for a splitter role index."""
        names = self.graph.signature.role_names
        if idx < len(names):
            return names[idx], False
        return names[idx - len(names)], True


def _label_columns(phi: FeatureSet, graph: LabeledGraph) -> list[np.ndarray]:
    cols = [graph.atom_bits.astype(np.int64)]
    if phi.nominals:
        cols.append(graph.nominal_key.astype(np.int64)[:, None])
    if phi.local_refl:
        cols.append(graph.self_bits.astype(np.int64))
    return cols


def _group_rows(cols, n: int) -> tuple[np.ndarray, int]:
    """Ids of the distinct rows of the stacked columns, in lexicographic
    row order, and their count."""
    matrix = np.hstack(cols)
    if matrix.shape[1] == 0:
        return np.zeros(n, dtype=np.int32), 1
    if n == 0:
        return np.zeros(0, dtype=np.int32), 0
    digits = matrix - matrix.min(axis=0)
    ids, count = _row_ids(np.zeros(n, dtype=np.int64), 1, digits, int(digits.max()) + 1)
    return ids.astype(np.int32), count


def econd_partition(phi: FeatureSet, graph: LabeledGraph) -> Partition:
    """Partition by node labels only, which the first signature round
    refines (see compute_partition)."""
    ids, k = _group_rows(_label_columns(phi, graph), graph.n)
    return Partition(ids, k)


def _predecessors(phi: FeatureSet, graph: LabeledGraph):
    """Predecessor CSR per splitter role: the roles, then their inverses."""
    if phi.inverse:
        return (np.vstack([graph.rev_indptr, graph.fwd_indptr + len(graph.rev_indices)]),
                np.concatenate([graph.rev_indices, graph.fwd_indices]))
    return np.ascontiguousarray(graph.rev_indptr), np.ascontiguousarray(graph.rev_indices)


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


def _edge_ends(n: int, nsr: int, pred_indptr: np.ndarray, pred_indices: np.ndarray):
    """Per position j of pred_indices, the edge from x = pred_indices[j]
    along splitter role s into the node whose predecessor it lists:
    x * nsr + s, and that node."""
    slot = np.repeat(np.arange(n * nsr), (pred_indptr[:, 1:] - pred_indptr[:, :-1]).ravel())
    roles, heads = np.divmod(slot, n)
    return pred_indices * np.int64(nsr) + roles, heads


def _signature_round(block_of, k, origin, heads, nsr, counting):
    """One signature round against the partition block_of of k blocks:
    the new block ids, their count, the number of blocks of block_of that
    split, and the round's (element, compound) pairs.

    The pairs are those over the edges, for the compounds comp = s * k + C
    along splitter role s, C a block of block_of, as keys
    x * nsr * k + comp: (the key of each edge, the distinct keys in
    ascending order, the number of edges of each).  An element's
    signature is its block and its comps, with their edge counts when
    counting.  While the dense (element, comp) table of edge counts has
    at most 8 (n + m) cells, the signatures are its rows; otherwise they
    are read off the sorted pairs (_signature_ids).  The table costs one
    bincount and a few wide keys.  On the benchmark's graphs it takes
    1.7 to 4 times less CPU than the sorted pairs in every first round,
    at up to 4.1 (n + m) cells, and the sorted pairs take 11 to 12
    times less in the later rounds of named documents, at 130 to 170;
    on random graphs the two break even between 4 and 16 cells per
    n + m.
    """
    n = len(block_of)
    blocks = block_of.astype(np.int64)
    keys = origin * k + blocks[heads]
    if n * nsr * k <= 8 * (n + len(origin)):
        table = np.bincount(keys, minlength=n * nsr * k)
        present = table > 0
        distinct = np.flatnonzero(present)  # on bools, several times faster
        pairs = keys, distinct, table[distinct]
        rows = (table if counting else present.view(np.int8)).reshape(n, -1)
        ids, total = _row_ids(blocks, k, rows, int(rows.max(initial=0)) + 1)
    else:
        pairs = keys, *np.unique(keys, return_counts=True)
        ids, total = _signature_ids(blocks, k, pairs[1:], nsr, counting)
    parent = np.empty(total, dtype=np.int64)
    parent[ids] = block_of
    split = int(np.count_nonzero(np.bincount(parent, minlength=k) > 1))
    return ids.astype(np.int32), total, split, pairs


def _signature_ids(blocks, k, pairs, nsr, counting):
    """_row_ids of the signatures read off the sorted pairs (distinct keys
    and their edge counts, see _signature_round).  The elements whose
    signatures have between 2^(c-1) and 2^c - 1 pairs form length class
    c; each class is ranked on its own, its rows padded to 2^c - 1 pairs,
    less than twice their lengths, so the rows total O(n + m) cells."""
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


def _run_loop(loop, phi, nsr, pred_indptr, pred_indices, block_of, n_blocks, against,
              n_against, pairs):
    """The engine's loop on the layout of block_of (see _kernels)."""
    n = len(block_of)
    elems = np.argsort(block_of, kind="stable").astype(np.int32)
    pos = np.zeros(n, dtype=np.int32)
    pos[elems] = np.arange(n, dtype=np.int32)
    bounds = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(np.bincount(block_of, minlength=n_blocks), out=bounds[1:])
    first = np.zeros(n + 1, dtype=np.int32)
    last = np.zeros(n + 1, dtype=np.int32)
    first[:n_blocks] = bounds[:-1]
    last[:n_blocks] = bounds[1:]
    return loop(n, nsr, pred_indptr, pred_indices, block_of, elems, pos, first, last, n_blocks,
                against, n_against, pairs, bool(phi.counting))


# the list recorded_runs() collects into, in the current context
_RUNS: ContextVar[list | None] = ContextVar("refinement_runs", default=None)


@contextmanager
def recorded_runs():
    """Collect every refinement run inside the block: one dict each, with
    its function, feature set, element and edge counts, block count,
    counters and wall time in seconds."""
    runs: list = []
    token = _RUNS.set(runs)
    try:
        yield runs
    finally:
        _RUNS.reset(token)


def _record(function: str, phi: FeatureSet, graph: LabeledGraph, n_blocks: int,
            counters: Counters, start: float) -> dict | None:
    """Append a run to the recorded_runs list in force, if any, and return it."""
    runs = _RUNS.get()
    if runs is None:
        return None
    runs.append({"function": function, "phi": str(phi), "n": graph.n,
                 "edges": int(graph.n_edges), "blocks": int(n_blocks),
                 "counters": {k: int(v) for k, v in counters._asdict().items()},
                 "wall_s": time.perf_counter() - start})
    return runs[-1]


def _signature_rounds(phi: FeatureSet, graph: LabeledGraph, origin: np.ndarray,
                      heads: np.ndarray, nsr: int):
    """The signature rounds from the label partition, until the fixpoint,
    all singletons, or a round that does not double the block count.

    Returns every partition they pass through as (block ids, block
    count), level 0 the label partition and level i round i's, the last
    round's (element, compound) pairs (see _signature_round), and the
    number of blocks the rounds split.
    """
    levels = [_group_rows(_label_columns(phi, graph), graph.n)]
    pairs = None
    round_splits = 0
    while levels[-1][1] < graph.n:
        block_of, k = levels[-1]
        ids, total, split, pairs = _signature_round(block_of, k, origin, heads, nsr,
                                                    bool(phi.counting))
        round_splits += split
        levels.append((ids, total))
        if total < 2 * k:
            break
    return levels, pairs, round_splits


def compute_partition(phi: FeatureSet, graph: LabeledGraph, want_trace: bool = True,
                      engine: str | None = None) -> tuple[Partition, RefinementTrace | None]:
    """Coarsest partition refining the label partition and stable for phi.

    Returns the partition, with the counters of its rounds and loop, and,
    when requested, the trace that refinement_trace would return, built
    from the rounds run here.  The partition never depends on
    want_trace.  engine names the refinement loop, "numba" or "numpy";
    None runs the one the install provides (see _kernels).  The result
    is independent of the engine and deterministic: block ids depend only
    on the graph and phi.
    """
    start = time.perf_counter()
    loop = _kernels.get_refine_loop(engine)
    n = graph.n
    nsr = graph.n_roles * (2 if phi.inverse else 1)
    pred_indptr, pred_indices = _predecessors(phi, graph)
    origin, heads = _edge_ends(n, nsr, pred_indptr, pred_indices)
    levels, pairs, round_splits = _signature_rounds(phi, graph, origin, heads, nsr)
    rounds = len(levels) - 1
    if not want_trace:
        del levels[:-2]  # the loop reads the last two
    block_of, n_blocks = levels[-1]
    against, n_against = levels[-2] if rounds else (None, 0)

    steps = scanned = splits = pushes = 0
    if n_against < n_blocks < n:
        # stable against the blocks the last round split: the loop's compounds
        block_of, n_blocks, (steps, scanned, splits, pushes) = _run_loop(
            loop, phi, nsr, pred_indptr, pred_indices, block_of.copy(), n_blocks, against,
            n_against, pairs)
    counters = Counters(steps, rounds * len(origin) + scanned, splits, pushes, rounds,
                        round_splits)
    partition = Partition(block_of, n_blocks, counters)
    _record("compute_partition", phi, graph, n_blocks, counters, start)
    if not want_trace:
        return partition, None
    return partition, RefinementTrace(graph, phi, levels, origin, heads)


def refinement_trace(phi: FeatureSet, graph: LabeledGraph) -> RefinementTrace:
    """The trace of phi's refinement of graph: the signature rounds under
    compute_partition's stopping rule, more on request (see
    RefinementTrace).  Its one recorded run counts them all."""
    start = time.perf_counter()
    nsr = graph.n_roles * (2 if phi.inverse else 1)
    origin, heads = _edge_ends(graph.n, nsr, *_predecessors(phi, graph))
    levels, _, round_splits = _signature_rounds(phi, graph, origin, heads, nsr)
    rounds = len(levels) - 1
    run = _record("refinement_trace", phi, graph, levels[-1][1],
                  Counters(0, rounds * len(origin), 0, 0, rounds, round_splits), start)
    return RefinementTrace(graph, phi, levels, origin, heads, run)


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
