"""Coarsest stable partitions of labeled graphs by worklist refinement.

The initial partition groups nodes by label: concept membership always,
nominal labels when nominals are active, self-loop patterns when local
reflexivity is active.  Refinement then splits until every block is
stable against every block along every splitter role.  Splitter roles
are the role names, plus their inverses when inverse roles are active;
the universal role never splits anything.  With counting active the
stability notion is "equal number of edges into the splitter block".

Refinement starts from the label partition pre-split by per-role degree
(with counting) or by per-role "has an edge" (without), which is the
coarsest refinement of it that is stable against the whole domain and
so leaves the fixpoint unchanged.  From there it splits three ways
against compound splitters (see _kernels): a block B of a compound S
splits every block by its edges into B and into S without B, in time
linear in B's in-edges, so every feature set refines in O(m log n) edge
scans.

Every split can be recorded in a trace: which block split, against
which splitter block along which role, at which step, into which
classes, and from which compound.  The witness builder consumes this to
assemble concepts separating two elements that ended up in different
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _kernels
from .core import BisimRelation, FeatureSet, LabeledGraph
from .errors import PartitionMismatchError


class Counters(NamedTuple):
    """Deterministic work counts of one refinement run."""

    extractions: int    # refinement steps: splitter blocks taken from a compound
    edges_scanned: int  # predecessor edges read, the record setup without counting included
    splits: int         # blocks split
    queue_pushes: int   # worklist entries pushed


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
    """One block split: parent broke into classes against a splitter.

    The splitter block B was taken from compound S.  With counting a
    class is the exact number of edges into B, and every element of the
    parent has the same number of edges into S.  Otherwise class 0 has
    no edge into B, class 1 edges into B and into S without B, class 2
    edges into B only, and every element of the parent has an edge into
    S.
    """

    parent: int
    role: int
    splitter: int
    time: int
    subs: tuple[tuple[int, int], ...]  # (block id, class) in layout order
    compound: int                      # row of RefinementTrace.compounds: S


@dataclass(eq=False)
class RefinementTrace:
    graph: LabeledGraph
    phi: FeatureSet
    use_counts: bool
    n_split_roles: int
    init_block_of: np.ndarray
    final_block_of: np.ndarray
    n_blocks: int
    events: tuple[SplitEvent, ...]
    # (k, 3) int64 rows (block, time, minus): the set the block held just
    # before step time, without row minus unless minus is -1.  The first
    # n_split_roles rows are (-1, 0, -1), the whole domain; a step at time
    # t adds the splitter B and then S without B, the last row of time t
    compounds: np.ndarray

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
    order = np.lexsort(matrix.T[::-1])
    ranked = matrix[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ids = np.empty(n, dtype=np.int32)
    ids[order] = np.cumsum(new) - 1
    return ids, int(new.sum())


def econd_partition(phi: FeatureSet, graph: LabeledGraph) -> Partition:
    """Partition by node labels only; refinement starts from its pre-split
    by per-role degree (see compute_partition)."""
    ids, k = _group_rows(_label_columns(phi, graph), graph.n)
    return Partition(ids, k)


def _splitter_structures(phi: FeatureSet, graph: LabeledGraph):
    """Predecessor CSR per splitter role, and per-node degree columns."""
    n_r = graph.n_roles
    fwd_deg = np.diff(graph.fwd_indptr, axis=1).astype(np.int64)  # (n_r, n)
    rev_deg = np.diff(graph.rev_indptr, axis=1).astype(np.int64)
    if phi.inverse:
        pred_indptr = np.vstack([graph.rev_indptr, graph.fwd_indptr + len(graph.rev_indices)])
        pred_indices = np.concatenate([graph.rev_indices, graph.fwd_indices])
        degrees = np.vstack([fwd_deg, rev_deg])
    else:
        pred_indptr = graph.rev_indptr
        pred_indices = graph.rev_indices
        degrees = fwd_deg
    return np.ascontiguousarray(pred_indptr), np.ascontiguousarray(pred_indices), degrees


def compute_partition(phi: FeatureSet, graph: LabeledGraph, want_trace: bool = True,
                      engine: str | None = None) -> tuple[Partition, RefinementTrace | None]:
    """Coarsest partition refining the label partition and stable for phi.

    Returns the partition, with the kernel's counters, and, when
    requested, the split trace.  engine names the refinement loop,
    "numba" or "numpy"; None runs the one the install provides (see
    _kernels).  The result is independent of the engine and
    deterministic: block ids depend only on the graph and phi.
    """
    n = graph.n
    nsr = graph.n_roles * (2 if phi.inverse else 1)
    pred_indptr, pred_indices, degrees = _splitter_structures(phi, graph)

    # stable against the whole domain along every splitter role
    cols = _label_columns(phi, graph)
    cols.append(degrees.T if phi.counting else (degrees > 0).T)
    init_ids, nblocks0 = _group_rows(cols, n)

    order = np.argsort(init_ids, kind="stable")
    elems = order.astype(np.int32)
    pos = np.zeros(n, dtype=np.int32)
    pos[elems] = np.arange(n, dtype=np.int32)
    sizes = np.bincount(init_ids, minlength=nblocks0)
    bounds = np.zeros(nblocks0 + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    first = np.zeros(n + 1, dtype=np.int32)
    last = np.zeros(n + 1, dtype=np.int32)
    first[:nblocks0] = bounds[:-1]
    last[:nblocks0] = bounds[1:]

    loop = _kernels.get_refine_loop(engine)
    block_of, n_blocks, events, compounds, counters = loop(
        n, nsr, pred_indptr, pred_indices,
        init_ids.copy(), elems, pos, first, last, nblocks0,
        bool(phi.counting), bool(want_trace),
    )

    partition = Partition(block_of, n_blocks, Counters(*counters))
    trace = None
    if want_trace:
        trace = RefinementTrace(
            graph, phi, bool(phi.counting), nsr,
            init_ids, block_of.copy(), n_blocks, tuple(SplitEvent(*e) for e in events),
            compounds,
        )
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
