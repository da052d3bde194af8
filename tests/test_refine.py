"""Partition refinement: engines, traces, determinism, three-way splits, counters."""

import math

import numpy as np
import pytest

from dlbisim import _kernels
from dlbisim.bisim import is_bisimulation, naive_largest_bisimulation
from dlbisim.core import FeatureSet, Signature, build_interpretation, to_labeled_graph
from dlbisim.errors import PartitionMismatchError
from dlbisim.quotient import separating_concept
from dlbisim.refine import (
    Partition,
    _group_rows,
    _splitter_structures,
    check_partition,
    compute_partition,
    econd_partition,
    partition_to_relation,
)
from dlbisim.semantics import eval_concept

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
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (50, 1), (200, 3), (300, 40)])
    def test_ids_match_unique_rows(self, shape):
        rng = np.random.default_rng(sum(shape))
        for span in (2, 5, 1 << 40):
            matrix = rng.integers(-span, span, size=shape, dtype=np.int64)
            ids, k = _group_rows([matrix[:, :1], matrix[:, 1:]], shape[0])
            _, inverse = np.unique(matrix, axis=0, return_inverse=True)
            assert ids.tolist() == inverse.reshape(-1).tolist()
            assert k == int(inverse.max()) + 1

    def test_no_columns_one_block(self):
        ids, k = _group_rows([np.zeros((4, 0), dtype=np.int64)], 4)
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

    @pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not importable")
    def test_numpy_and_numba_agree(self):
        rng = H.seeded(404)
        for _ in range(15):
            interp = H.small_instance(rng)
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS:
                np_part, np_trace = compute_partition(phi, graph, engine="numpy")
                nb_part, nb_trace = compute_partition(phi, graph, engine="numba")
                assert np.array_equal(np_part.block_of, nb_part.block_of)
                assert np_part.n_blocks == nb_part.n_blocks
                assert np_trace.events == nb_trace.events

    def test_list_loop_matches_array_loop(self, monkeypatch):
        # _refine_list_loop and the array kernels are separate sources; run
        # the kernels uncompiled, through _array_loop, as the reference, so
        # this holds without numba.
        rng = H.seeded(407)
        graphs = [to_labeled_graph(H.small_instance(rng, max_n=40)) for _ in range(15)]
        graphs += [to_labeled_graph(interp) for interp in THREE_WAY_SHAPES]
        for graph in graphs:
            for phi in H.ALL_PHIS:
                ref_part, ref_trace = array_loop_partition(monkeypatch, phi, graph)
                part, trace = compute_partition(phi, graph, engine="numpy")
                assert np.array_equal(part.block_of, ref_part.block_of), str(phi)
                assert part.n_blocks == ref_part.n_blocks, str(phi)
                assert trace.events == ref_trace.events, str(phi)
                assert np.array_equal(trace.compounds, ref_trace.compounds), str(phi)
                assert part.counters == ref_part.counters, str(phi)

    def test_engine_selection(self):
        try:
            import numba  # noqa: F401
            installed = "numba"
        except ImportError:
            installed = "numpy"
        assert _kernels.active_engine() == installed
        assert _kernels.get_refine_loop("numpy") is _kernels._refine_list_loop
        for name in ("auto", "fast"):
            with pytest.raises(ValueError):
                _kernels.get_refine_loop(name)

    def test_trace_optional(self):
        rng = H.seeded(405)
        interp = H.small_instance(rng)
        graph = to_labeled_graph(interp)
        part, trace = compute_partition(FeatureSet(), graph, want_trace=False)
        assert trace is None
        assert part.n_blocks >= 1


# shapes that split blocks in many rounds under every feature set
THREE_WAY_SHAPES = (H.marked_path(12), H.binary_tree(4), H.two_role_chain(12))


def array_loop_partition(monkeypatch, phi, graph):
    """compute_partition through _array_loop over the uncompiled kernels."""
    with monkeypatch.context() as m:
        m.setattr(_kernels, "_three_way_loop_jit", _kernels._three_way_loop)
        m.setattr(_kernels, "_cut_block_jit", _kernels._cut_block)
        m.setattr(_kernels, "_bucket_jit", _kernels._bucket)
        m.setattr(_kernels, "get_refine_loop", lambda engine=None: _kernels._array_loop)
        return compute_partition(phi, graph)


class TestThreeWaySplits:
    def test_shapes_match_the_oracle(self):
        for interp in THREE_WAY_SHAPES:
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS:
                part, trace = compute_partition(phi, graph)
                oracle = naive_largest_bisimulation(phi, interp, interp)
                assert partition_to_relation(part).pairs == oracle.pairs, str(phi)
                # every split is three-way, against a compound of the trace
                assert trace.events, str(phi)
                assert all(0 <= ev.compound < len(trace.compounds) for ev in trace.events)
                H.replay_trace(trace)

    def test_witnesses_for_every_split_pair(self):
        for interp in THREE_WAY_SHAPES:
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS:
                part, trace = compute_partition(phi, graph)
                for x in range(interp.n):
                    for y in range(interp.n):
                        if x != y and not part.same_block(x, y):
                            witness = separating_concept(interp, trace, x, y)
                            ext = eval_concept(interp, witness.concept, phi)
                            assert x in ext and y not in ext, (str(phi), x, y)


class TestCounters:
    @pytest.mark.parametrize("shape", [H.marked_path(2048), H.binary_tree(10), H.equal_cycle(2048)],
                             ids=["path", "tree", "cycle"])
    @pytest.mark.parametrize("phi", ["", "I", "Q", "IQ"])
    def test_edges_scanned_within_m_log_n(self, monkeypatch, shape, phi):
        phi = FeatureSet.from_string(phi)
        graph = to_labeled_graph(shape)
        _, pred_indices, _ = _splitter_structures(phi, graph)
        bound = 2 * len(pred_indices) * (math.ceil(math.log2(graph.n)) + 1)
        part, _ = compute_partition(phi, graph, want_trace=False)
        ref, _ = array_loop_partition(monkeypatch, phi, graph)
        assert part.counters == ref.counters
        assert part.counters.edges_scanned <= bound, part.counters
        # every split makes at least one block
        init_blocks = len(np.unique(econd_partition(phi, graph).block_of))
        assert part.counters.splits <= part.n_blocks - init_blocks

    def test_counters_are_deterministic_and_optional(self):
        graph = to_labeled_graph(H.marked_path(50))
        a, _ = compute_partition(FeatureSet(), graph, want_trace=False)
        b, _ = compute_partition(FeatureSet(), graph, want_trace=True)
        assert a.counters == b.counters
        assert a.counters.extractions >= a.counters.splits > 0
        assert Partition(a.block_of, a.n_blocks).counters is None


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


class TestTraces:
    def test_replay_reconstructs_partition(self):
        rng = H.seeded(407)
        for _ in range(25):
            interp = H.small_instance(rng)
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS:
                _, trace = compute_partition(phi, graph)
                H.replay_trace(trace)

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
        assert trace.n_blocks == part.n_blocks
        # labels, then per splitter role "has an edge": r, s, inv r, inv s
        has_edge = [(1, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1)]
        labels = econd_partition(phi, graph).block_of
        rows = sorted(set(zip(labels.tolist(), has_edge)))
        expected = [rows.index(row) for row in zip(labels.tolist(), has_edge)]
        assert trace.init_block_of.tolist() == expected
        times = [ev.time for ev in trace.events]
        assert times == sorted(times)

    def test_counting_traces_expose_degree_presplit(self):
        sig = Signature((), ("r",), ())
        interp = build_interpretation(
            sig, 3, {}, {"r": {(0, 1), (0, 2)}}, {})
        graph = to_labeled_graph(interp)
        _, trace = compute_partition(FeatureSet.from_string("Q"), graph)
        # out-degrees 2,0,0 split the root off before any step
        assert len(np.unique(trace.init_block_of)) == 2
        assert trace.use_counts is True

    def test_plain_traces_expose_edge_presplit(self):
        sig = Signature((), ("r",), ())
        interp = build_interpretation(
            sig, 4, {}, {"r": {(0, 1), (0, 2), (1, 2)}}, {})
        graph = to_labeled_graph(interp)
        part, trace = compute_partition(FeatureSet(), graph)
        # out-degrees 2,1,0,0: the elements with an edge split off before
        # any step, whatever their degree
        assert trace.init_block_of.tolist() == [1, 1, 0, 0]
        assert trace.use_counts is False
        # the one step, against B = {2, 3}: 0 has edges into B and into the
        # rest of the domain (class 1), 1 into B only (class 2)
        assert [ev.subs for ev in trace.events] == [((1, 1), (2, 2))]
        assert part.n_blocks == 3
