"""Partition refinement: engines, traces, determinism, three-way splits, counters."""

import math
from collections import Counter

import numpy as np
import pytest

from dlbisim import _kernels
from dlbisim.bisim import is_bisimulation, naive_largest_bisimulation
from dlbisim.core import (
    FeatureSet,
    Signature,
    build_interpretation,
    disjoint_union_graph,
    to_labeled_graph,
)
from dlbisim.errors import PartitionMismatchError
from dlbisim.quotient import separating_concept
from dlbisim.refine import (
    Partition,
    _group_rows,
    _predecessors,
    _signature_round,
    check_partition,
    compute_partition,
    econd_partition,
    partition_to_relation,
    recorded_runs,
    refinement_trace,
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

    def test_cut_copy_unions(self):
        # the rounds hand over to the loop, which resumes from compounds
        # other than the whole domain
        rng = H.seeded(408)
        for _ in range(4):
            interp = H.sparse_model(rng, 14, n_roles=2, max_out=2, n_concepts=1)
            copy, union = H.cut_copy(rng, interp)
            graph = disjoint_union_graph(interp, copy)
            for phi in H.ALL_PHIS:
                part, _ = compute_partition(phi, graph, want_trace=False)
                oracle = naive_largest_bisimulation(phi, union, union)
                assert partition_to_relation(part).pairs == oracle.pairs, str(phi)

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
        graphs.append(as_graph(CUT_UNION))
        starts = []
        setup = _kernels._compound_setup
        monkeypatch.setattr(_kernels, "_compound_setup",
                            lambda *a: starts.append(a[-3]) or setup(*a))
        for graph in graphs:
            for phi in H.ALL_PHIS:
                ref_part, ref_trace = array_loop_partition(monkeypatch, phi, graph)
                part, trace = compute_partition(phi, graph, engine="numpy")
                assert np.array_equal(part.block_of, ref_part.block_of), str(phi)
                assert part.n_blocks == ref_part.n_blocks, str(phi)
                assert part.counters == ref_part.counters, str(phi)
        # some loops resumed from more compounds than the whole domain
        assert max(starts) > 1

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


def _cut_union(seed, n):
    rng = H.seeded(seed)
    interp = H.sparse_model(rng, n)
    return interp, H.cut_copy(rng, interp)[0]


# a random model and its copy missing one edge: the rounds split most
# blocks, and the loop finishes from the blocks of the last round
CUT_UNION = _cut_union(409, 30)


def as_graph(shape):
    """The graph of an interpretation, or of a pair's disjoint union."""
    if isinstance(shape, tuple):
        return disjoint_union_graph(*shape)
    return to_labeled_graph(shape)


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
                assert trace.events, str(phi)

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
    @pytest.mark.parametrize("shape", [H.marked_path(2048), H.binary_tree(10), H.equal_cycle(2048),
                                       _cut_union(410, 1000)],
                             ids=["path", "tree", "cycle", "cut"])
    @pytest.mark.parametrize("phi", ["", "I", "Q", "IQ"])
    def test_edges_scanned_within_m_log_n(self, monkeypatch, shape, phi):
        phi = FeatureSet.from_string(phi)
        graph = as_graph(shape)
        _, pred_indices = _predecessors(phi, graph)
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

    def test_recorded_runs(self):
        graph = to_labeled_graph(H.marked_path(50))
        with recorded_runs() as runs:
            part, trace = compute_partition(FeatureSet(), graph, want_trace=True)
            assert [r["function"] for r in runs] == ["compute_partition"]
            rounds = len(trace.levels) - 1
            while trace.extend():
                pass
        compute_partition(FeatureSet(), graph, want_trace=False)
        assert [r["function"] for r in runs] == ["compute_partition", "refinement_trace"]
        assert runs[0]["counters"] == part.counters._asdict()
        assert runs[0]["blocks"] == part.n_blocks and runs[0]["wall_s"] >= 0
        # the trace's own run counts the rounds it ran past compute_partition's
        traced = runs[1]["counters"]
        assert traced["rounds"] == len(trace.levels) - 1 - rounds > 0
        assert traced["extractions"] == traced["splits"] == 0
        assert traced["edges_scanned"] == traced["rounds"] * graph.n_edges
        assert runs[1]["blocks"] == trace.levels[-1][1] == part.n_blocks


    def test_level_witnesses_run_no_recorded_loop(self):
        interp = H.sparse_model(H.seeded(3), 300)
        graph = to_labeled_graph(interp)
        phi = FeatureSet.from_string("Q")
        with recorded_runs() as runs:
            trace = refinement_trace(phi, graph)
            last = trace.levels[-1][0]
            y = int(np.flatnonzero(last != last[0])[0])
            separating_concept(interp, trace, 0, y)
        assert [r["function"] for r in runs] == ["refinement_trace"]
        assert runs[0]["counters"]["extractions"] == 0
        assert runs[0]["counters"]["rounds"] == len(trace.levels) - 1
        # a pair that the doubling rule leaves in one block runs more rounds,
        # counted in the same run
        path = H.marked_path(50)
        with recorded_runs() as runs:
            trace = refinement_trace(FeatureSet(), to_labeled_graph(path))
            first = len(trace.levels)
            for x in (0, 1):
                separating_concept(path, trace, x, x + 1)
        assert len(trace.levels) > first
        assert [r["function"] for r in runs] == ["refinement_trace"]
        assert runs[0]["counters"]["extractions"] == 0
        assert runs[0]["counters"]["rounds"] == len(trace.levels) - 1
        assert runs[0]["blocks"] == trace.levels[-1][1]


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


class TestTraces:
    def test_extended_levels_reach_the_partition(self):
        rng = H.seeded(407)
        for _ in range(25):
            interp = H.small_instance(rng)
            graph = to_labeled_graph(interp)
            for phi in H.ALL_PHIS:
                part, trace = compute_partition(phi, graph)
                while trace.extend():
                    pass
                assert trace.complete and not trace.extend()
                final, k = trace.levels[-1]
                assert k == part.n_blocks, str(phi)
                assert np.array_equal(Partition(final, k).canonical_of, part.canonical_of)
                # the last round split nothing, unless every block is a singleton
                assert k == interp.n or trace.levels[-2][1] == k

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
        assert np.array_equal(trace.levels[0][0], econd_partition(phi, graph).block_of)
        while trace.extend():
            pass
        assert trace.levels[-1][1] == part.n_blocks
        # one event per block that a round split, into the blocks of its level
        assert [ev.level for ev in trace.events] == sorted(ev.level for ev in trace.events)
        for ev in trace.events:
            coarse, fine = trace.levels[ev.level - 1][0], trace.levels[ev.level][0]
            subs = np.unique(fine[coarse == ev.parent]).tolist()
            assert len(subs) > 1 and tuple(subs) == ev.subs

    def test_counting_traces_expose_degree_presplit(self):
        sig = Signature((), ("r",), ())
        interp = build_interpretation(
            sig, 3, {}, {"r": {(0, 1), (0, 2)}}, {})
        graph = to_labeled_graph(interp)
        _, trace = compute_partition(FeatureSet.from_string("Q"), graph)
        # the first round, against the one label block, splits by out-degree:
        # 2, 0, 0 split the root off
        assert blocks_of(trace.levels[1][0]) == {frozenset({0}), frozenset({1, 2})}
        assert trace.use_counts is True

    def test_plain_traces_expose_edge_presplit(self):
        sig = Signature((), ("r",), ())
        interp = build_interpretation(
            sig, 4, {}, {"r": {(0, 1), (0, 2), (1, 2)}}, {})
        graph = to_labeled_graph(interp)
        part, trace = compute_partition(FeatureSet(), graph)
        # out-degrees 2,1,0,0: the first round splits off the elements with
        # an edge, whatever their degree
        assert blocks_of(trace.levels[1][0]) == {frozenset({0, 1}), frozenset({2, 3})}
        assert trace.use_counts is False
        # the second: 0 has edges into {0, 1} and into {2, 3}, 1 into {2, 3} only
        assert blocks_of(trace.levels[2][0]) == {frozenset({0}), frozenset({1}),
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
            ids, total, split, pairs = _signature_round(block_of, k, tails * nsr + roles, heads,
                                                        nsr, counting)
            # the (element, compound) pairs the loop resumes from
            keys = (tails * nsr + roles) * k + block_of[heads]
            assert np.array_equal(pairs[0], keys)
            distinct, count = np.unique(keys, return_counts=True)
            assert np.array_equal(pairs[1], distinct) and np.array_equal(pairs[2], count)
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
            parents = Counter(b for b, _ in classes)
            assert split == sum(1 for c in parents.values() if c > 1)

    def test_counting_model_settles_by_rounds(self):
        interp = H.sparse_model(H.seeded(3), 300)
        phi = FeatureSet.from_string("Q")
        part, _ = compute_partition(phi, to_labeled_graph(interp), want_trace=False)
        # the last round split nothing: the loop never ran
        assert part.counters.extractions == 0 and part.counters.splits == 0
        assert part.counters.rounds >= 2 and part.n_blocks < interp.n
        oracle = naive_largest_bisimulation(phi, interp, interp)
        assert partition_to_relation(part).pairs == oracle.pairs

    def test_levels_are_the_rounds(self):
        rng = H.seeded(413)
        shapes = [H.small_instance(rng, max_n=20) for _ in range(8)] + list(THREE_WAY_SHAPES)
        for shape in shapes + [CUT_UNION, H.sparse_model(H.seeded(3), 300)]:
            graph = as_graph(shape)
            for phi in H.ALL_PHIS[::3]:
                part, trace = compute_partition(phi, graph, want_trace=True)
                levels = refinement_trace(phi, graph).levels
                assert len(levels) == len(trace.levels) == part.counters.rounds + 1
                for (ids, k), (traced, traced_k) in zip(levels, trace.levels):
                    assert np.array_equal(ids, traced) and k == traced_k
                    assert k == len(np.unique(ids))
                assert np.array_equal(levels[0][0], econd_partition(phi, graph).block_of)
                # each level refines the one before, and the result the last
                for (coarse, _), (fine, k) in zip(levels, levels[1:] + [(part.block_of, 0)]):
                    assert len(set(zip(coarse.tolist(), fine.tolist()))) == len(np.unique(fine))
                # the last level is the partition the loop resumes from
                if part.counters.extractions == 0:
                    assert np.array_equal(part.block_of, levels[-1][0]), str(phi)

    def test_traced_partition_has_the_trace_blocks(self):
        rng = H.seeded(412)
        shapes = [H.small_instance(rng, max_n=20) for _ in range(8)] + list(THREE_WAY_SHAPES)
        for shape in shapes + [CUT_UNION]:
            graph = as_graph(shape)
            for phi in H.ALL_PHIS[::3]:
                part, trace = compute_partition(phi, graph, want_trace=True)
                untraced, _ = compute_partition(phi, graph, want_trace=False)
                assert np.array_equal(part.block_of, untraced.block_of)
                assert part.counters == untraced.counters
                while trace.extend():
                    pass
                final = Partition(*trace.levels[-1])
                assert np.array_equal(part.canonical_of, final.canonical_of), str(phi)
