"""Partition refinement: oracle, traces, determinism, incremental rounds, counters."""

import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from dlbisim import _kernels, refine
from dlbisim.bisim import bisimilar, bisimulation_size, is_bisimulation, naive_largest_bisimulation
from dlbisim.core import (
    FeatureSet,
    Signature,
    build_interpretation,
    disjoint_union_graph,
    from_arrays,
    to_labeled_graph,
)
from dlbisim.errors import PartitionMismatchError
from dlbisim.gen import make_signature
from dlbisim.quotient import separating_concept
from dlbisim.refine import (
    Partition,
    _edge_ends,
    _label_ids,
    _signature_round,
    check_partition,
    compute_partition,
    econd_partition,
    partition_to_relation,
)
from dlbisim.semantics import eval_concept
from dlbisim.stats import recorded
from dlbisim.syntax import to_text

import helpers as H


def blocks_as_sets(partition):
    return {frozenset(b) for b in partition.blocks}


class TestInitialPartition:
    sig = Signature(("A",), ("r",), ("a",))
    interp = build_interpretation(
        sig, 4, {"A": {0, 1}}, {"r": {(1, 1), (2, 3)}}, {"a": 0})
    graph = to_labeled_graph(interp)

    def test_atoms_only(self):
        part = econd_partition(FeatureSet(), self.graph)
        assert blocks_as_sets(part) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_nominals_refine(self):
        part = econd_partition(FeatureSet.from_string("O"), self.graph)
        assert blocks_as_sets(part) == {frozenset({0}), frozenset({1}), frozenset({2, 3})}

    def test_self_loops_refine(self):
        part = econd_partition(FeatureSet.from_string("S"), self.graph)
        assert blocks_as_sets(part) == {frozenset({0}), frozenset({1}), frozenset({2, 3})}

    def test_empty_labels_one_block(self):
        sig = Signature((), ("r",), ())
        interp = build_interpretation(sig, 3, {}, {"r": {(0, 1)}}, {})
        part = econd_partition(FeatureSet(), to_labeled_graph(interp))
        assert part.n_blocks == 1


class TestGroupRows:
    """The label ids rank the nodes' rows of atom bits, which the graph
    keeps as member lists: from_arrays takes the rows."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (50, 1), (200, 3), (300, 140)])
    def test_ids_match_unique_rows(self, shape):
        rng = np.random.default_rng(sum(shape))
        for density in (0.02, 0.5, 0.98):
            matrix = (rng.random(shape) < density).astype(np.uint8)
            graph = from_arrays(make_signature(shape[1], 0, 0), shape[0], matrix, [])
            ids, k = _label_ids(FeatureSet(), graph)
            _, inverse = np.unique(matrix, axis=0, return_inverse=True)
            assert ids.tolist() == inverse.reshape(-1).tolist()
            assert k == int(inverse.max()) + 1

    def test_no_columns_one_block(self):
        graph = from_arrays(make_signature(0, 0, 0), 4, np.zeros((4, 0)), [])
        ids, k = _label_ids(FeatureSet.from_string("IOQUS"), graph)
        assert ids.tolist() == [0, 0, 0, 0] and k == 1


class TestPartitionContainer:
    part = Partition(np.array([2, 0, 2, 1], dtype=np.int32), 3)

    def test_blocks(self):
        assert self.part.blocks == ((1,), (3,), (0, 2))
        assert self.part.canonical_order == (2, 0, 1)
        assert self.part.canonical_of.tolist() == [0, 1, 0, 2]
        assert self.part.same_block(0, 2)
        assert not self.part.same_block(0, 1)

    def test_to_lines(self):
        names = ["w", "x", "y", "z"]
        assert self.part.to_lines(names) == [
            "block 0: w y", "block 1: x", "block 2: z"]
        assert self.part.to_lines() == ["block 0: 0 2", "block 1: 1", "block 2: 3"]

    def test_relation_is_equivalence(self):
        rel = partition_to_relation(self.part)
        pairs = rel.pairs
        assert all((x, x) in pairs for x in range(4))
        assert all((y, x) in pairs for x, y in pairs)
        assert all((x, z) in pairs
                   for x, y in pairs for y2, z in pairs if y == y2)

    def test_check_partition(self):
        check_partition(self.part, 4)
        with pytest.raises(PartitionMismatchError):
            check_partition(self.part, 5)
        with pytest.raises(PartitionMismatchError):
            check_partition(Partition(np.array([0, 7], dtype=np.int32), 2), 2)


class TestAgainstNaiveOracle:
    def test_random_instances(self):
        rng = H.seeded(401)
        for _ in range(60):
            interp = H.small_instance(rng, max_n=9)
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS:
                part, _ = compute_partition(phi, graph, want_trace=False)
                rel = partition_to_relation(part)
                oracle = naive_largest_bisimulation(phi, interp, interp)
                assert rel.pairs == oracle.pairs, str(phi)

    def test_self_bits_of_many_roles(self):
        # up to 70 concept and role names: the label bits are folded in 61
        # columns at a time at most, so wide rows take more than one step
        rng = H.seeded(403)
        for _ in range(40):
            interp = H.small_instance(rng, max_concepts=70, max_roles=70, max_n=9)
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS:
                label, count = _label_ids(phi, graph)
                assert (label.tolist(), count) == H.label_ids_oracle(phi, interp), str(phi)
                if phi.local_refl:
                    part, _ = compute_partition(phi, graph, want_trace=False)
                    oracle = naive_largest_bisimulation(phi, interp, interp)
                    assert partition_to_relation(part).pairs == oracle.pairs, str(phi)

    def test_worklist_economy_regression(self):
        # one maximal sink block; if a presence-mode worklist ever skipped
        # it, the two root elements would stay together
        sig = Signature(("A", "B"), ("r",), ())
        interp = build_interpretation(
            sig, 8,
            {"A": {2, 3, 4, 5, 6}, "B": {7}},
            {"r": {(0, 2), (0, 7), (1, 7)}},
            {})
        graph = to_labeled_graph(interp)
        for phi in H.ALL_PHIS:
            part, _ = compute_partition(phi, graph, want_trace=False)
            oracle = naive_largest_bisimulation(phi, interp, interp)
            assert partition_to_relation(part).pairs == oracle.pairs, str(phi)
        part, _ = compute_partition(FeatureSet(), graph, want_trace=False)
        assert not part.same_block(0, 1)

    def test_cut_copy_unions(self):
        # full rounds split most blocks, and incremental rounds finish
        # from partitions of many blocks
        rng = H.seeded(408)
        for _ in range(4):
            interp = H.sparse_model(rng, 14, n_roles=2, max_out=2, n_concepts=1)
            copy, union = H.cut_copy(rng, interp)
            graph = disjoint_union_graph(interp, copy)
            for phi in H.ALL_PHIS:
                part, _ = compute_partition(phi, graph, want_trace=False)
                oracle = naive_largest_bisimulation(phi, union, union)
                assert partition_to_relation(part).pairs == oracle.pairs, str(phi)

    def test_loop_instances(self, monkeypatch):
        # instances on which incremental rounds run, some of them from more
        # blocks than one (DEEP_SHAPES are checked in TestDeepShapes)
        rng = H.seeded(407)
        cases = [(interp, to_labeled_graph(interp))
                 for interp in (H.small_instance(rng, max_n=40) for _ in range(15))]
        cases.append((H.disjoint_union(*CUT_UNION), as_graph(CUT_UNION)))
        starts = []
        rounds = refine._incremental_rounds
        monkeypatch.setattr(refine, "_incremental_rounds",
                            lambda *a: starts.append(a[1]) or rounds(*a))
        for interp, graph in cases:
            for phi in H.ALL_PHIS:
                part, _ = compute_partition(phi, graph, want_trace=False)
                oracle = naive_largest_bisimulation(phi, interp, interp)
                assert partition_to_relation(part).pairs == oracle.pairs, str(phi)
        assert max(starts) > 1

    def test_no_roles_stays_at_labels(self):
        rng = H.seeded(402)
        for _ in range(10):
            interp = H.small_instance(rng, max_roles=0, max_n=10)
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS:
                part, trace = compute_partition(phi, graph)
                assert trace.events == ()
                init = econd_partition(phi, graph)
                assert np.array_equal(part.canonical_of, init.canonical_of)


class TestDeterminismAndEngines:
    def test_repeat_runs_identical(self):
        rng = H.seeded(403)
        for _ in range(10):
            interp = H.small_instance(rng)
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS[:8]:
                a_part, a_trace = compute_partition(phi, graph)
                b_part, b_trace = compute_partition(phi, graph)
                assert np.array_equal(a_part.block_of, b_part.block_of)
                assert a_part.n_blocks == b_part.n_blocks
                assert a_trace.events == b_trace.events

    def test_engine_selection(self):
        assert _kernels.active_engine() == "numpy"
        graph = to_labeled_graph(H.marked_path(12))
        named, _ = compute_partition(FeatureSet(), graph, want_trace=False, engine="numpy")
        default, _ = compute_partition(FeatureSet(), graph, want_trace=False)
        assert np.array_equal(named.block_of, default.block_of)
        for name in ("numba", "auto"):
            with pytest.raises(ValueError):
                compute_partition(FeatureSet(), graph, engine=name)

    def test_trace_optional(self):
        rng = H.seeded(405)
        interp = H.small_instance(rng)
        graph = to_labeled_graph(interp)
        part, trace = compute_partition(FeatureSet(), graph, want_trace=False)
        assert trace is None
        assert part.n_blocks >= 1


# shapes that split blocks in many rounds under every feature set
DEEP_SHAPES = (H.marked_path(12), H.binary_tree(4), H.two_role_chain(12))


def _cut_union(seed, n):
    rng = H.seeded(seed)
    interp = H.sparse_model(rng, n)
    return interp, H.cut_copy(rng, interp)[0]


# a random model and its copy missing one edge: full rounds split most
# blocks, and incremental rounds finish from the blocks of the last one
CUT_UNION = _cut_union(409, 30)


def marked_cycle(n, marks):
    """An r0-cycle of n elements, the marks in A0."""
    return build_interpretation(make_signature(1, 1, 0), n, {"A0": marks},
                                {"r0": {(i, (i + 1) % n) for i in range(n)}}, {})


def as_graph(shape):
    """The graph of an interpretation, or of a pair's disjoint union."""
    if isinstance(shape, tuple):
        return disjoint_union_graph(*shape)
    return to_labeled_graph(shape)


class TestDeepShapes:
    def test_shapes_match_the_oracle(self):
        for interp in DEEP_SHAPES:
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS:
                part, trace = compute_partition(phi, graph)
                oracle = naive_largest_bisimulation(phi, interp, interp)
                assert partition_to_relation(part).pairs == oracle.pairs, str(phi)
                assert trace.events, str(phi)

    def test_witnesses_for_every_split_pair(self):
        for interp in DEEP_SHAPES:
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS:
                part, trace = compute_partition(phi, graph)
                for x in range(interp.n):
                    for y in range(interp.n):
                        if x != y and not part.same_block(x, y):
                            witness = separating_concept(interp, trace, x, y)
                            ext = eval_concept(interp, witness.concept, phi)
                            assert x in ext and y not in ext, (str(phi), x, y)


def path_with_roles(n=20_000, path=500, roles=200, seed=5):
    """n elements, a marked path of `path` elements along r0 and one random
    edge along each of roles - 1 more roles: few edges, many roles."""
    rng = random.Random(seed)
    sig = Signature(("A",), tuple("r%d" % i for i in range(roles)), ())
    edges = {"r0": {(i, i + 1) for i in range(path - 1)}}
    for i in range(1, roles):
        edges["r%d" % i] = {(rng.randrange(n), rng.randrange(n))}
    return build_interpretation(sig, n, {"A": {path - 1}}, edges, {})


def traced_peak(run):
    """The tracemalloc peak, in bytes, of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCounters:
    @pytest.mark.parametrize("shape", [H.marked_path(2048), H.binary_tree(10), H.equal_cycle(2048),
                                       _cut_union(410, 1000)],
                             ids=["path", "tree", "cycle", "cut"])
    @pytest.mark.parametrize("phi", ["", "I", "Q", "IQ"])
    def test_edges_scanned_within_m_log_n(self, shape, phi):
        phi = FeatureSet.from_string(phi)
        graph = as_graph(shape)
        m = len(_edge_ends(phi, graph)[0])
        bound = 2 * m * (math.ceil(math.log2(graph.n)) + 1)
        part, _ = compute_partition(phi, graph, want_trace=False)
        assert part.counters.edges_scanned <= bound, part.counters
        # every split makes at least one block
        init_blocks = len(np.unique(econd_partition(phi, graph).block_of))
        assert part.counters.splits <= part.n_blocks - init_blocks
        # an element moves only when its block at least halves
        assert part.counters.moves <= graph.n * math.floor(math.log2(graph.n)), part.counters

    def test_counters_are_deterministic_and_optional(self):
        graph = to_labeled_graph(H.marked_path(50))
        a, _ = compute_partition(FeatureSet(), graph, want_trace=False)
        b, _ = compute_partition(FeatureSet(), graph, want_trace=True)
        assert a.counters == b.counters
        assert a.counters.moves >= a.counters.splits > 0
        assert Partition(a.block_of, a.n_blocks).counters is None

    def test_runs_are_recorded(self):
        graph = to_labeled_graph(H.marked_path(50))
        with recorded() as record:
            part, trace = compute_partition(FeatureSet(), graph, want_trace=True)
            assert [r["function"] for r in record.runs] == ["compute_partition"]
            for d in range(trace.depth + 1):
                trace.blocks_at(d, np.arange(graph.n))
        untraced, _ = compute_partition(FeatureSet(), graph, want_trace=False)
        # outside the block: not recorded
        assert [r["function"] for r in record.runs] == ["compute_partition"]
        assert record.runs[0]["counters"] == part.counters._asdict() == untraced.counters._asdict()
        assert record.runs[0]["blocks"] == part.n_blocks and record.runs[0]["wall_s"] >= 0
        # the trace is the run's own: one level per round, each round
        # splitting one element off the unmarked rest
        assert record.runs[0]["counters"]["rounds"] == trace.depth == 48
        assert record.runs[0]["counters"]["splits"] == record.runs[0]["counters"]["moves"] == 48
        assert record.runs[0]["blocks"] == len(np.unique(trace.blocks_at(trace.depth, np.arange(50))))

    def test_level_witnesses_run_no_recorded_loop(self):
        interp = H.sparse_model(H.seeded(3), 300)
        graph = to_labeled_graph(interp)
        phi = FeatureSet.from_string("Q")
        with recorded() as record:
            part, trace = compute_partition(phi, graph)
            y = int(np.flatnonzero(part.block_of != part.block_of[0])[0])
            separating_concept(interp, trace, 0, y)
        assert [r["function"] for r in record.runs] == ["compute_partition"]
        assert record.runs[0]["counters"]["rounds"] == trace.depth
        # a pair that parts deep in the incremental rounds costs no more runs
        path = H.marked_path(50)
        with recorded() as record:
            part, trace = compute_partition(FeatureSet(), to_labeled_graph(path))
            for x in (0, 1):
                separating_concept(path, trace, x, x + 1)
        assert [r["function"] for r in record.runs] == ["compute_partition"]
        assert record.runs[0]["counters"]["rounds"] == trace.depth
        assert record.runs[0]["blocks"] == part.n_blocks == 50


class TestMemory:
    def test_many_roles_cost_no_slot_per_element_and_role(self):
        # 20 000 elements and about 700 edges over 200 roles: the n * 400
        # (element, splitter role) slots under I took 349 MB here
        graph = to_labeled_graph(path_with_roles())
        phi = FeatureSet.from_string("I")
        part = []
        peak = traced_peak(lambda: part.append(compute_partition(phi, graph, want_trace=False)))
        assert part[0][0].n_blocks > 500
        assert peak < 512 * (graph.n + graph.n_edges), peak

    @pytest.mark.parametrize("phi", ["S", "IS"])
    def test_self_bits_are_grouped_without_a_wide_copy(self, phi):
        # 20 000 elements and about 700 edges over 200 roles: widening an
        # n * roles table of self bits to int64 took 97.8 MB here, against
        # 3.3 MB without S
        graph = to_labeled_graph(path_with_roles())
        plain = traced_peak(lambda: compute_partition(FeatureSet(), graph, want_trace=False))
        peak = traced_peak(lambda: compute_partition(FeatureSet.from_string(phi), graph,
                                                     want_trace=False))
        assert peak <= 2 * plain, (peak, plain)

    def test_graph_of_many_roles_has_no_offsets_per_role(self):
        # 20 000 elements and about 700 edges over 200 roles: no field of
        # the graph has a slot per element and role
        interp = path_with_roles()
        graph = []
        peak = traced_peak(lambda: graph.append(to_labeled_graph(interp)))
        assert peak < 512 * (graph[0].n + graph[0].n_edges), peak

    @pytest.mark.parametrize("phi", ["S", "IOQUS"])
    def test_wide_signature_costs_the_labels_that_exist(self, phi):
        # 100 000 elements, 1 000 concept and 2 000 role names, three
        # members and four edges: tables of a label bit per element and
        # name took 2.3 GB here
        sig = Signature(tuple("A%d" % i for i in range(1000)),
                        tuple("r%d" % i for i in range(2000)), ("a",))
        interp = build_interpretation(sig, 100_000, {"A0": [0, 5], "A999": [7]},
                                      {"r0": [(0, 1), (2, 2)], "r1999": [(3, 3), (7, 0)]},
                                      {"a": 0})
        out = []
        peak = traced_peak(lambda: out.append(compute_partition(
            FeatureSet.from_string(phi), to_labeled_graph(interp), want_trace=False)))
        assert peak < 512 * (interp.n + 4), peak
        assert out[0][0].n_blocks == {"S": 6, "IOQUS": 7}[phi]

    def test_trace_levels_take_n_log_n(self):
        # a marked path parts its first two elements at level n - 2; the
        # levels kept as per-element changes take O(n log n), not O(n^2)
        n = 20_000
        graph = to_labeled_graph(H.marked_path(n))

        def run():
            _, trace = compute_partition(FeatureSet(), graph, want_trace=True)
            pair = np.array([0, 1])
            parted = [d for d in range(trace.depth + 1)
                      if len(set(trace.blocks_at(d, pair).tolist())) == 2]
            assert parted[0] == trace.depth == n - 2

        peak = traced_peak(run)
        assert peak < 128 * n * math.log2(n), peak


class TestUniversalRoleNeverSplits:
    def test_adding_u_changes_nothing(self):
        rng = H.seeded(406)
        for _ in range(20):
            interp = H.small_instance(rng, max_n=9)
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS:
                if phi.universal:
                    continue
                with_u = FeatureSet(phi.inverse, phi.nominals, phi.counting,
                                    True, phi.local_refl)
                a, _ = compute_partition(phi, graph, want_trace=False)
                b, _ = compute_partition(with_u, graph, want_trace=False)
                assert np.array_equal(a.block_of, b.block_of)
                assert a.n_blocks == b.n_blocks


def blocks_of(block_of):
    return blocks_as_sets(Partition(block_of, int(block_of.max()) + 1))


def level(trace, d):
    """The block ids of every element at level d of the trace."""
    return trace.blocks_at(d, np.arange(trace.graph.n))


def full_rounds(phi, graph):
    """The levels of phi's refinement of graph by full signature rounds
    alone: the reference for the levels that incremental rounds reach."""
    tails, roles, heads = _edge_ends(phi, graph)
    nsr = graph.n_roles * (2 if phi.inverse else 1)
    block_of, k = _label_ids(phi, graph)
    levels = [block_of]
    while k < graph.n:
        ids, total, _ = _signature_round(block_of, k, tails * nsr + roles, heads, nsr,
                                         bool(phi.counting))
        levels.append(ids)
        if total == k:
            break
        block_of, k = ids, total
    return levels


def same_partition(a, b):
    return len(set(zip(a.tolist(), b.tolist()))) == len(np.unique(a)) == len(np.unique(b))


class TestTraces:
    def test_extended_levels_reach_the_partition(self):
        rng = H.seeded(407)
        for _ in range(25):
            interp = H.small_instance(rng)
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS:
                part, trace = compute_partition(phi, graph)
                final = level(trace, trace.depth)
                k = len(np.unique(final))
                assert k == part.n_blocks, str(phi)
                assert np.array_equal(final, part.block_of)
                # the last round split nothing, unless every block is a singleton
                assert k == interp.n or len(np.unique(level(trace, trace.depth - 1))) == k

    def test_trace_metadata(self):
        sig = Signature(("A",), ("r", "s"), ())
        interp = build_interpretation(
            sig, 4, {"A": {0}}, {"r": {(0, 1), (1, 2)}, "s": {(2, 3)}}, {})
        graph = to_labeled_graph(interp)
        phi = FeatureSet.from_string("I")
        part, trace = compute_partition(phi, graph)
        assert trace.n_split_roles == 4
        assert trace.splitter_role(0) == ("r", False)
        assert trace.splitter_role(3) == ("s", True)
        assert trace.use_counts is False
        assert np.array_equal(level(trace, 0), econd_partition(phi, graph).block_of)
        assert len(np.unique(level(trace, trace.depth))) == part.n_blocks

    def test_events_are_the_splits_of_the_levels(self):
        rng = H.seeded(431)
        shapes = [H.marked_path(n) for n in (2, 9, 30)] + [H.binary_tree(d) for d in (2, 4)]
        shapes += [marked_cycle(12, {0, 5}), marked_cycle(31, {3, 10, 17, 29})]
        shapes += [H.small_instance(rng, max_individuals=3, max_n=20) for _ in range(6)]
        shapes += [H.instance_pair(rng, max_n=12) for _ in range(4)] + [CUT_UNION]
        for shape in shapes:
            graph = as_graph(shape)
            watches = ([], [(0, graph.n - 1), (rng.randrange(graph.n), rng.randrange(graph.n))])
            for phi in H.ALL_PHIS:
                for watch in watches:
                    part, trace = compute_partition(phi, graph, watch=watch)
                    events = trace.events
                    assert len(events) == part.counters.splits, str(phi)
                    assert [ev.level for ev in events] == sorted(ev.level for ev in events)
                    # one event per block that a round split, into the blocks
                    # of its level inside it; the largest keeps the parent's id
                    for ev in events:
                        coarse, fine = level(trace, ev.level - 1), level(trace, ev.level)
                        subs = np.unique(fine[coarse == ev.parent]).tolist()
                        assert len(subs) > 1 and tuple(subs) == ev.subs, (str(phi), ev)
                        assert subs[0] == ev.parent
                        sizes = np.bincount(fine)[subs]
                        assert sizes[0] == sizes.max(), (str(phi), ev)

    def test_counting_traces_expose_degree_presplit(self):
        sig = Signature((), ("r",), ())
        interp = build_interpretation(
            sig, 3, {}, {"r": {(0, 1), (0, 2)}}, {})
        graph = to_labeled_graph(interp)
        _, trace = compute_partition(FeatureSet.from_string("Q"), graph)
        # the first round, against the one label block, splits by out-degree:
        # 2, 0, 0 split the root off
        assert blocks_of(level(trace, 1)) == {frozenset({0}), frozenset({1, 2})}
        assert trace.use_counts is True

    def test_plain_traces_expose_edge_presplit(self):
        sig = Signature((), ("r",), ())
        interp = build_interpretation(
            sig, 4, {}, {"r": {(0, 1), (0, 2), (1, 2)}}, {})
        graph = to_labeled_graph(interp)
        part, trace = compute_partition(FeatureSet(), graph)
        # out-degrees 2,1,0,0: the first round splits off the elements with
        # an edge, whatever their degree
        assert blocks_of(level(trace, 1)) == {frozenset({0, 1}), frozenset({2, 3})}
        assert trace.use_counts is False
        # the second: 0 has edges into {0, 1} and into {2, 3}, 1 into {2, 3} only
        assert blocks_of(level(trace, 2)) == {frozenset({0}), frozenset({1}),
                                              frozenset({2, 3})}
        assert [(ev.level, len(ev.subs)) for ev in trace.events] == [(1, 2), (2, 2)]
        assert part.n_blocks == 3


class TestSignatureRounds:
    # the dense table; sorted pairs; and sorted pairs with a hub whose
    # long signature is alone in its length class
    @pytest.mark.parametrize("k, nsr, hub", [(4, 2, False), (40, 3, False), (40, 3, True)],
                             ids=["table", "sorted", "sorted-hub"])
    def test_round_groups_by_exact_signatures(self, k, nsr, hub):
        rng = np.random.default_rng(411)
        n = 200
        block_of = np.concatenate([np.arange(k), rng.integers(0, k, n - k)]).astype(np.int32)
        tails = rng.integers(0, n, 600)
        heads = rng.integers(0, n, 600)
        roles = rng.integers(0, nsr, 600)
        if hub:
            tails = np.concatenate([tails, np.zeros(n, dtype=np.int64)])
            heads = np.concatenate([heads, np.arange(n)])
            roles = np.concatenate([roles, rng.integers(0, nsr, n)])
        for counting in (False, True):
            ids, total, split = _signature_round(block_of, k, tails * nsr + roles, heads,
                                                 nsr, counting)
            pairs = {x: Counter() for x in range(n)}
            for x, y, s in zip(tails.tolist(), heads.tolist(), roles.tolist()):
                pairs[x][s, int(block_of[y])] += 1
            signature = [(int(block_of[x]), tuple(sorted(pairs[x].items())) if counting
                          else tuple(sorted(pairs[x]))) for x in range(n)]
            classes = {}
            for x in range(n):
                classes.setdefault(signature[x], set()).add(int(ids[x]))
            assert all(len(v) == 1 for v in classes.values())
            assert total == len(classes) == len(set(ids.tolist()))
            # the largest sub-block of every block keeps its id, the others
            # get the fresh ids k..total-1, by parent
            size = np.bincount(ids, minlength=total)
            parents = []
            for b in range(k):
                subs = np.unique(ids[block_of == b])
                assert b in subs and size[b] == size[subs].max()
                parents += [b] * (len(subs) - 1)
            assert parents == [int(block_of[ids == q][0]) for q in range(k, total)]
            splits = Counter(b for b, _ in classes)
            assert split == sum(1 for c in splits.values() if c > 1)

    def test_counting_model_settles_by_rounds(self):
        interp = H.sparse_model(H.seeded(3), 300)
        phi = FeatureSet.from_string("Q")
        graph = to_labeled_graph(interp)
        part, _ = compute_partition(phi, graph, want_trace=False)
        # every round was a full one, reading every edge
        assert part.counters.edges_scanned == part.counters.rounds * graph.n_edges
        assert part.counters.rounds >= 2 and part.n_blocks < interp.n
        oracle = naive_largest_bisimulation(phi, interp, interp)
        assert partition_to_relation(part).pairs == oracle.pairs

    def test_levels_are_the_rounds(self):
        rng = H.seeded(413)
        shapes = [H.small_instance(rng, max_n=20) for _ in range(8)] + list(DEEP_SHAPES)
        for shape in shapes + [CUT_UNION, H.sparse_model(H.seeded(3), 300)]:
            graph = as_graph(shape)
            for phi in H.ALL_PHIS[::3]:
                part, trace = compute_partition(phi, graph, want_trace=True)
                levels = full_rounds(phi, graph)
                assert len(levels) == trace.depth + 1 == part.counters.rounds + 1
                for d, ids in enumerate(levels):
                    traced = level(trace, d)
                    assert same_partition(ids, traced), (str(phi), d)
                    assert len(np.unique(traced)) == int(traced.max()) + 1
                assert np.array_equal(level(trace, 0), econd_partition(phi, graph).block_of)
                # each level refines the one before, and the last is the result
                for coarse, fine in zip(levels, levels[1:]):
                    assert len(set(zip(coarse.tolist(), fine.tolist()))) == len(np.unique(fine))
                assert np.array_equal(part.block_of, level(trace, trace.depth)), str(phi)

    def test_traced_partition_has_the_trace_blocks(self):
        rng = H.seeded(412)
        shapes = [H.small_instance(rng, max_n=20) for _ in range(8)] + list(DEEP_SHAPES)
        for shape in shapes + [CUT_UNION]:
            graph = as_graph(shape)
            for phi in H.ALL_PHIS[::3]:
                part, trace = compute_partition(phi, graph, want_trace=True)
                untraced, _ = compute_partition(phi, graph, want_trace=False)
                assert np.array_equal(part.block_of, untraced.block_of)
                assert part.counters == untraced.counters
                final = Partition(level(trace, trace.depth), part.n_blocks)
                assert np.array_equal(part.canonical_of, final.canonical_of), str(phi)


class TestSingleTouchRounds:
    def test_fresh_ids_go_by_ascending_touched_element(self):
        # two marked paths told apart by A1 and A2 and numbered out of order:
        # from round 2 on, each round touches one element in each path's
        # block, and the block of the smaller element gets the first fresh id
        order = [10, 18, 16, 14, 0, 17, 11, 2, 3, 9, 5, 7, 4, 19, 6, 15, 8, 1, 13, 12]
        first, second = order[:10], order[10:]
        interp = build_interpretation(
            make_signature(3, 1, 0), 20,
            {"A0": {first[-1], second[-1]}, "A1": set(first), "A2": set(second)},
            {"r0": {(a, b) for path in (first, second) for a, b in zip(path, path[1:])}}, {})
        graph = to_labeled_graph(interp)
        for phi in ("", "Q"):
            part, trace = compute_partition(FeatureSet.from_string(phi), graph)
            assert part.block_of.tolist() == [12, 6, 7, 5, 16, 0, 13, 18, 8, 3,
                                              1, 9, 2, 4, 14, 10, 17, 11, 19, 15]
            # two splits a round, each one fresh id, by ascending touched element
            parents = [0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1]
            assert [(e.level, e.parent, e.subs) for e in trace.events] == [
                (1 + i // 2, b, (b, 4 + i)) for i, b in enumerate(parents)]

    def test_one_touched_and_several_touched_blocks_in_one_round(self, monkeypatch):
        # a marked path 0..11 and u, v, w = 12, 13, 14 in A1, u and v into
        # 9, w into 0: incremental round 3 touches 8 alone in the path's
        # block and u and v in theirs, which keep their id as the larger
        # class while w moves; 8 < u, so the path's block splits first
        edges = {(i, i + 1) for i in range(11)} | {(12, 9), (13, 9), (14, 0)}
        interp = build_interpretation(make_signature(2, 1, 0), 15,
                                      {"A0": {11}, "A1": {12, 13, 14}}, {"r0": edges}, {})
        graph = to_labeled_graph(interp)
        starts = []
        rounds = refine._incremental_rounds
        monkeypatch.setattr(refine, "_incremental_rounds",
                            lambda *a: starts.append(a[4]) or rounds(*a))
        for phi in ("", "Q"):
            part, trace = compute_partition(FeatureSet.from_string(phi), graph)
            assert part.counters.rounds == 11 and starts.pop() == 1
            assert part.block_of.tolist() == [0, 13, 12, 11, 10, 9, 8, 7, 5, 4, 3, 2, 1, 1, 6]
            assert [(e.level, e.parent, e.subs) for e in trace.events] == [
                (1, 0, (0, 3)), (2, 0, (0, 4)), (3, 0, (0, 5)), (3, 1, (1, 6)),
                *((d, 0, (0, d + 3)) for d in range(4, 11))]


def _shuffled_copy(rng, interp, cut):
    """interp with its elements shuffled, its individuals with them, and
    with cut one edge fewer, when it has one."""
    perm = list(range(interp.n))
    rng.shuffle(perm)
    roles = {r: {(perm[x], perm[y]) for x, y in pairs} for r, pairs in interp.role_ext.items()}
    edged = sorted(r for r, pairs in roles.items() if pairs)
    if cut and edged:
        role = rng.choice(edged)
        roles[role].discard(rng.choice(sorted(roles[role])))
    return build_interpretation(
        interp.signature, interp.n,
        {a: {perm[x] for x in ext} for a, ext in interp.concept_ext.items()}, roles,
        {a: perm[x] for a, x in interp.individual_map.items()})


def _watched_pairs(seed, count):
    """Seeded interpretation pairs with individuals: random pairs from gen,
    whose individuals mostly part within a round or two, and random models
    with shuffled copies, a third of them whole and the others missing one
    edge, whose individuals part late or never."""
    rng = H.seeded(seed)
    pairs = []
    for i in range(count):
        pairs.append(H.instance_pair(rng, max_individuals=2, max_n=9))
        interp = H.small_instance(rng, max_individuals=3, max_n=12)
        pairs.append((interp, _shuffled_copy(rng, interp, cut=i % 3 != 0)))
    return pairs


def _union_watch(ia, ib):
    return [(ia.individual_map[a], ia.n + ib.individual_map[a])
            for a in ia.signature.individual_names]


def _unwatched_size(phi, ia, ib):
    """bisimulation_size decided on the coarsest partition of the union."""
    part, _ = compute_partition(phi, disjoint_union_graph(ia, ib), want_trace=False)
    left, right = part.block_of[:ia.n], part.block_of[ia.n:]
    for x, y in _union_watch(ia, ib):
        if part.block_of[x] != part.block_of[y]:
            return None
    if phi.universal and set(left.tolist()) != set(right.tolist()):
        return None
    k = part.n_blocks
    return int(np.bincount(left, minlength=k) @ np.bincount(right, minlength=k))


class TestWatchedRuns:
    """compute_partition(watch=...) stops at the first level that parts a
    watched pair; the levels up to it are those of the unwatched run."""

    def test_verdicts_and_pair_counts_are_the_unwatched_ones(self):
        stopped = 0
        for ia, ib in _watched_pairs(421, 12):
            for phi in H.ALL_PHIS:
                with recorded() as record:
                    size = bisimulation_size(phi, ia, ib)
                unwatched = _unwatched_size(phi, ia, ib)
                assert size == unwatched, str(phi)
                assert bisimilar(phi, ia, ib) == (size is not None)
                full, _ = compute_partition(phi, disjoint_union_graph(ia, ib), want_trace=False)
                assert record.runs[0]["counters"]["rounds"] <= full.counters.rounds
                stopped += record.runs[0]["counters"]["rounds"] < full.counters.rounds
        assert stopped > 100, stopped

    def test_levels_up_to_the_stop_are_the_unwatched_ones(self):
        shapes = [(ia, ib) for ia, ib in _watched_pairs(422, 8)]
        shapes.append((H.marked_path(30), None))
        for ia, ib in shapes:
            if ib is None:
                graph, watch = to_labeled_graph(ia), [(20, 21), (3, 3)]
            else:
                graph, watch = disjoint_union_graph(ia, ib), _union_watch(ia, ib)
            everything = np.arange(graph.n)
            for phi in H.ALL_PHIS:
                part, trace = compute_partition(phi, graph, watch=watch)
                _, full = compute_partition(phi, graph)
                parts = [d for d in range(full.depth + 1)
                         if any(full.blocks_at(d, x) != full.blocks_at(d, y) for x, y in watch)]
                depth = parts[0] if parts else full.depth
                assert trace.depth == part.counters.rounds == depth, str(phi)
                for d in range(depth + 1):
                    assert np.array_equal(trace.blocks_at(d, everything),
                                          full.blocks_at(d, everything)), (str(phi), d)
                assert np.array_equal(part.block_of, full.blocks_at(depth, everything))
                assert part.n_blocks == len(np.unique(part.block_of))
                assert trace.events == tuple(e for e in full.events if e.level <= depth)

    def test_witnesses_are_the_full_traces_ones(self):
        rng = H.seeded(423)
        shapes = [H.small_instance(rng, max_individuals=2, max_n=9) for _ in range(6)]
        shapes += [H.marked_path(30), H.binary_tree(4)]
        for interp in shapes:
            graph = to_labeled_graph(interp)
            candidates = [(x, y) for x in range(interp.n) for y in range(x + 1, interp.n)]
            for phi in H.ALL_PHIS:
                part, full = compute_partition(phi, graph)
                split = [pair for pair in candidates if not part.same_block(*pair)]
                for x, y in split[:: max(1, len(split) // 5)]:
                    _, watched = compute_partition(phi, graph, watch=[(x, y)])
                    assert watched.depth <= full.depth
                    text = to_text(separating_concept(interp, watched, x, y).concept)
                    assert text == to_text(separating_concept(interp, full, x, y).concept)

    def test_a_pair_parting_in_single_touch_rounds_stops_them(self):
        # on a path with a marked end, element n - 1 - d parts at level d,
        # in incremental rounds that each touch one element
        graph = to_labeled_graph(H.marked_path(50))
        for phi in ("", "Q"):
            phi = FeatureSet.from_string(phi)
            part, trace = compute_partition(phi, graph, watch=[(45, 46)])
            assert part.counters.rounds == trace.depth == 3
            assert part.counters.moves == part.counters.splits == 3
            assert not part.same_block(45, 46) and part.same_block(0, 45)

    def test_one_edge_cut_under_q_makes_one_round(self):
        rng = H.seeded(424)
        interp = H.sparse_model(rng, 60)
        x = next(x for x in range(interp.n) if interp.successors("r0", x))
        sig = make_signature(0, 3, 1)
        ia = build_interpretation(sig, interp.n, {}, interp.role_ext, {"a0": x})
        roles = {r: set(pairs) for r, pairs in interp.role_ext.items()}
        roles["r0"].discard((x, min(interp.successors("r0", x))))
        ib = build_interpretation(sig, interp.n, {}, roles, {"a0": x})
        phi = FeatureSet.from_string("Q")
        with recorded() as record:
            assert not bisimilar(phi, ia, ib)
        assert record.runs[0]["counters"]["rounds"] == 1
        full, _ = compute_partition(phi, disjoint_union_graph(ia, ib), want_trace=False)
        assert full.counters.rounds > 1

    def test_a_pair_with_different_labels_makes_no_round(self):
        sig = make_signature(1, 1, 1)
        ia = build_interpretation(sig, 2, {"A0": {0}}, {"r0": {(0, 1)}}, {"a0": 0})
        ib = build_interpretation(sig, 2, {"A0": {1}}, {"r0": {(0, 1)}}, {"a0": 0})
        with recorded() as record:
            assert not bisimilar(FeatureSet(), ia, ib)
        assert record.runs[0]["counters"] == {"edges_scanned": 0, "rounds": 0, "splits": 0, "moves": 0}
        part, trace = compute_partition(FeatureSet(), to_labeled_graph(ia), watch=[(0, 1)])
        assert part.counters.rounds == trace.depth == 0
        assert to_text(separating_concept(ia, trace, 0, 1).concept) == "A0"

    # pinned counters of unwatched runs: path, tree, sparse model, cut copy
    # union, and a graph whose one edge leaves a singleton after round 1
    COUNTERS = {
        "path": {"": (144, 48, 48, 48), "Q": (96, 48, 48, 48), "I": (280, 24, 24, 48),
                 "IOQUS": (186, 24, 24, 48)},
        "tree": {"": (400, 6, 5, 57), "Q": (274, 6, 5, 57), "I": (1018, 4, 3, 49),
                 "IOQUS": (768, 4, 3, 49)},
        "sparse": {"": (5316, 3, 79, 464), "Q": (3544, 3, 18, 312), "I": (7088, 2, 12, 306),
                   "IOQUS": (3544, 1, 4, 293)},
        "cut": {"": (10051, 8, 253, 782), "Q": (5710, 7, 209, 608), "I": (15444, 5, 206, 600),
                "IOQUS": (10600, 4, 200, 584)},
        "dead": {"": (1, 2, 1, 1), "Q": (1, 2, 1, 1), "I": (2, 1, 1, 2), "IOQUS": (2, 1, 1, 2)},
    }

    def test_an_empty_watch_gives_the_unwatched_counters(self):
        rng = H.seeded(5)
        model = H.sparse_model(rng, 200, n_concepts=1)
        graphs = {
            "path": to_labeled_graph(H.marked_path(50)),
            "tree": to_labeled_graph(H.binary_tree(6)),
            "sparse": to_labeled_graph(H.sparse_model(H.seeded(3), 300, n_concepts=1)),
            "cut": disjoint_union_graph(model, H.cut_copy(rng, model)[0]),
            "dead": to_labeled_graph(build_interpretation(make_signature(0, 1, 0), 3, {},
                                                          {"r0": {(0, 1)}}, {})),
        }
        for name, graph in graphs.items():
            for phi, counters in self.COUNTERS[name].items():
                phi = FeatureSet.from_string(phi)
                part, trace = compute_partition(phi, graph)
                assert tuple(part.counters) == counters, (name, str(phi))
                # a pair that never parts stops nothing
                for watch in ([], [(0, 0)]):
                    same, again = compute_partition(phi, graph, watch=watch)
                    assert same.counters == part.counters
                    assert np.array_equal(same.block_of, part.block_of)
                    assert again.events == trace.events
