"""Interpretation construction, validation and the array-backed graph form."""

import random

import numpy as np
import pytest

from dlbisim.core import (
    FeatureSet,
    LabeledGraph,
    Signature,
    build_interpretation,
    disjoint_union_graph,
    extract_interpretation,
    from_arrays,
    is_unreachable_objects_free,
    qs_embedding,
    to_labeled_graph,
)
from dlbisim.errors import (
    ElementOutOfRangeError,
    EmptyDomainError,
    PartialIndividualMapError,
    SignatureMismatchError,
    UnknownNameError,
)
from dlbisim.gen import make_signature, random_interpretation

import helpers as H


class TestFeatureSet:
    def test_from_string_roundtrip(self):
        for text in ["", "I", "O", "Q", "U", "S", "IO", "IOQUS", "QI"]:
            phi = FeatureSet.from_string(text)
            assert str(phi) == "".join(ch for ch in "IOQUS" if ch in text)

    def test_whitespace_tolerated(self):
        assert FeatureSet.from_string(" IQ ") == FeatureSet(inverse=True, counting=True)

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            FeatureSet.from_string("IXO")

    def test_all_subsets(self):
        subsets = FeatureSet.all_subsets()
        assert len(subsets) == 32
        assert len(set(subsets)) == 32
        assert FeatureSet() in subsets
        assert FeatureSet.from_string("IOQUS") in subsets

    def test_issubset(self):
        small = FeatureSet.from_string("IQ")
        big = FeatureSet.from_string("IOQ")
        assert small.issubset(big)
        assert not big.issubset(small)
        assert FeatureSet().issubset(small)


class TestSignature:
    def test_duplicate_name_rejected(self):
        with pytest.raises(UnknownNameError):
            Signature(("A", "A"), (), ())

    def test_cross_group_overlap_rejected(self):
        with pytest.raises(UnknownNameError):
            Signature(("A",), ("A",), ())

    def test_index_maps(self):
        sig = Signature(("A", "B"), ("r",), ("a",))
        assert sig.concept_index == {"A": 0, "B": 1}
        assert sig.role_index == {"r": 0}
        assert sig.individual_index == {"a": 0}


class TestBuildInterpretation:
    sig = Signature(("A",), ("r",), ("a",))

    def test_empty_domain_rejected(self):
        with pytest.raises(EmptyDomainError):
            build_interpretation(self.sig, 0, {}, {}, {"a": 0})

    def test_unknown_concept_rejected(self):
        with pytest.raises(UnknownNameError):
            build_interpretation(self.sig, 2, {"B": {0}}, {}, {"a": 0})

    def test_out_of_range_rejected(self):
        with pytest.raises(ElementOutOfRangeError):
            build_interpretation(self.sig, 2, {"A": {5}}, {}, {"a": 0})
        with pytest.raises(ElementOutOfRangeError):
            build_interpretation(self.sig, 2, {}, {"r": {(0, 2)}}, {"a": 0})

    def test_partial_individual_map_rejected(self):
        with pytest.raises(PartialIndividualMapError):
            build_interpretation(self.sig, 2, {}, {}, {})

    def test_missing_extensions_default_empty(self):
        interp = build_interpretation(self.sig, 2, None, None, {"a": 1})
        assert interp.concept_ext["A"] == frozenset()
        assert interp.role_ext["r"] == frozenset()

    def test_successor_order(self):
        interp = build_interpretation(
            self.sig, 4, {}, {"r": {(0, 3), (0, 1), (2, 0)}}, {"a": 0})
        assert interp.successors("r", 0) == (1, 3)
        assert interp.predecessors("r", 0) == (2,)
        assert interp.successors("r", 1) == ()


class TestEdgeArrays:
    sig = Signature(("A",), ("r", "s"), ("a",))

    def test_edges_are_sorted_unique_and_read_only(self):
        interp = build_interpretation(self.sig, 4, {}, {"r": [(2, 0), (0, 3), (0, 1), (2, 0)]},
                                      {"a": 0})
        src, dst = interp.role_edges["r"]
        assert (src.tolist(), dst.tolist()) == ([0, 0, 2], [1, 3, 0])
        assert src.dtype == dst.dtype == np.int64
        with pytest.raises(ValueError):
            src[0] = 1
        assert [a.tolist() for a in interp.edges("r", True)] == [[0, 1, 3], [2, 0, 0]]
        assert interp.role_edges["s"][0].shape == (0,)

    def test_inverted_index_is_the_edge_arrays(self):
        # role_edges are sorted by (src, dst), which is the order of the
        # inverse role's edges by head: they are returned as they are
        interp = build_interpretation(self.sig, 4, {}, {"r": [(2, 0), (0, 3), (0, 1), (2, 2)]},
                                      {"a": 0})
        src, dst = interp.role_edges["r"]
        ptr, tail, head = interp.in_edges("r", True)
        assert np.shares_memory(tail, dst) and np.shares_memory(head, src)
        assert ptr.tolist() == [0, 2, 2, 4, 4]
        assert [interp.successors("r", x) for x in range(4)] == [(1, 3), (), (0, 2), ()]

    def test_arrays_and_pairs_build_equal_interpretations(self):
        pairs = {(0, 1), (1, 2), (2, 2)}
        a = build_interpretation(self.sig, 3, {"A": {1}}, {"r": pairs}, {"a": 0})
        b = build_interpretation(self.sig, 3, {"A": [1, 1]},
                                 {"r": np.array([[2, 2], [1, 2], [0, 1], [1, 2]])}, {"a": 0})
        assert a == b and not a != b
        assert a.role_ext == {"r": frozenset(pairs), "s": frozenset()}
        assert a != build_interpretation(self.sig, 3, {"A": {1}}, {"r": pairs - {(2, 2)}}, {"a": 0})
        assert a != build_interpretation(self.sig, 3, {"A": {1}}, {"s": pairs}, {"a": 0})
        assert a != build_interpretation(self.sig, 3, {"A": {2}}, {"r": pairs}, {"a": 0})
        with pytest.raises(TypeError):
            hash(a)

    def test_views_are_read_only(self):
        interp = build_interpretation(self.sig, 2, {}, {"r": {(0, 1)}}, {"a": 0})
        with pytest.raises(TypeError):
            interp.role_ext["r"] = frozenset()
        qsi = qs_embedding(interp)
        with pytest.raises(TypeError):
            qsi.qu[("r", False)][(0, 1)] = 2
        assert qsi.se == {"r": frozenset(), "s": frozenset()}

    def test_rows_of_the_wrong_width_are_rejected(self):
        with pytest.raises(ValueError):
            build_interpretation(self.sig, 3, {}, {"r": [(0, 1, 2)]}, {"a": 0})


class TestConceptMembers:
    sig = Signature(("A", "B"), ("r",), ("a",))

    @pytest.mark.parametrize("members", [
        {4, 1, 2},
        [2, 4, 1, 4, 2],
        np.array([4, 2, 1], dtype=np.int32),
        (x for x in (4, 1, 2, 1)),
    ], ids=["set", "list-with-repeats", "unsorted-array", "generator"])
    def test_sorted_unique_read_only_int64(self, members):
        interp = build_interpretation(self.sig, 5, {"A": members}, {}, {"a": 0})
        arr = interp.concept_members["A"]
        assert arr.dtype == np.int64 and arr.tolist() == [1, 2, 4]
        with pytest.raises(ValueError):
            arr[0] = 0
        assert interp.concept_members["B"].dtype == np.int64
        assert interp.concept_members["B"].shape == (0,)

    def test_set_view_matches_the_arrays(self):
        interp = random_interpretation(random.Random(3), make_signature(3, 1, 0), 30)
        for a, members in interp.concept_members.items():
            assert interp.concept_ext[a] == frozenset(members.tolist())
        with pytest.raises(TypeError):
            interp.concept_ext["A0"] = frozenset()

    def test_equality_sees_one_member(self):
        a = build_interpretation(self.sig, 4, {"A": [0, 2], "B": [3]}, {}, {"a": 0})
        assert a == build_interpretation(self.sig, 4, {"A": {2, 0}, "B": (3,)}, {}, {"a": 0})
        assert a != build_interpretation(self.sig, 4, {"A": [0, 2], "B": [2]}, {}, {"a": 0})
        assert a != build_interpretation(self.sig, 4, {"A": [0, 2, 3], "B": [3]}, {}, {"a": 0})

    def test_first_bad_member_in_input_order_is_named(self):
        with pytest.raises(ElementOutOfRangeError, match=r"'A' contains element 5 outside 0\.\.2"):
            build_interpretation(self.sig, 3, {"A": [5, -1]}, {}, {"a": 0})


def _atom_bits(interp):
    atom = np.zeros((interp.n, len(interp.signature.concept_names)), dtype=np.uint8)
    for j, name in enumerate(interp.signature.concept_names):
        atom[sorted(interp.concept_ext[name]), j] = 1
    return atom


def _pairs(names, nodes):
    return list(zip(names.tolist(), nodes.tolist()))


def _shuffled_edges(rng, interp):
    """Per role, (src, dst) arrays of its pairs in a random order."""
    out = []
    for name in interp.signature.role_names:
        pairs = sorted(interp.role_ext[name])
        rng.shuffle(pairs)
        out.append((np.array([x for x, _ in pairs], dtype=np.int64),
                    np.array([y for _, y in pairs], dtype=np.int64)))
    return out


def _assert_same_array(a, b, field):
    assert (a.dtype, a.shape) == (b.dtype, b.shape), field
    assert (a == b).all(), field


def _assert_same_graph(g, h):
    for field in LabeledGraph.__slots__:
        a, b = getattr(g, field), getattr(h, field)
        if isinstance(a, np.ndarray):
            _assert_same_array(a, b, field)
        else:
            assert a == b, field


def _assert_sorted_edges(graph):
    """The edge and member arrays are read-only int64 and sorted by (role,
    tail, head) and (concept, node) without repeats."""
    n = graph.n
    for field in ("tails", "roles", "heads", "members", "concepts"):
        arr = getattr(graph, field)
        assert arr.dtype == np.int64 and not arr.flags.writeable, field
    assert len(graph.tails) == len(graph.roles) == len(graph.heads) == graph.n_edges
    keys = (graph.roles * n + graph.tails) * n + graph.heads
    assert (np.diff(keys) > 0).all()
    assert len(graph.members) == len(graph.concepts)
    assert (np.diff(graph.concepts * n + graph.members) > 0).all()


def _role_pairs(graph, k):
    mine = graph.roles == k
    return list(zip(graph.tails[mine].tolist(), graph.heads[mine].tolist()))


class TestLabeledGraph:
    def test_roundtrip_through_graph(self):
        rng = H.seeded(41)
        for _ in range(25):
            interp = H.small_instance(rng)
            graph = to_labeled_graph(interp)
            assert extract_interpretation(graph, 0) == interp

    def test_edge_arrays_match_edges(self):
        # shapes the edge list must handle, then seeded random instances
        sig = Signature(("A",), ("r", "s"), ("a", "b"))
        instances = [
            build_interpretation(Signature(("A",), (), ("a",)), 3, {"A": {1}}, {}, {"a": 2}),
            build_interpretation(sig, 5, {"A": {0, 4}}, {"r": {(0, 0), (3, 1), (3, 0), (2, 2)}},
                                 {"a": 1, "b": 1}),
        ]
        rng = H.seeded(42)
        instances += [H.small_instance(rng, 2, 3, 3, 9) for _ in range(60)]
        for interp in instances:
            graph = to_labeled_graph(interp)
            _assert_sorted_edges(graph)
            for k, name in enumerate(interp.signature.role_names):
                pairs = sorted(interp.role_ext[name])
                assert _role_pairs(graph, k) == pairs
                assert [(x, y) for x in interp.domain for y in interp.successors(name, x)] == pairs
                assert [(x, y) for y in interp.domain for x in interp.predecessors(name, y)] == \
                    sorted(pairs, key=lambda p: (p[1], p[0]))
            assert _pairs(graph.concepts, graph.members) == [
                (j, x) for j, name in enumerate(interp.signature.concept_names)
                for x in sorted(interp.concept_ext[name])]
            _assert_same_graph(graph, from_arrays(interp.signature, interp.n, _atom_bits(interp),
                                                  _shuffled_edges(rng, interp), interp.individual_map))

        for _ in range(40):
            a, b = H.instance_pair(rng, 2, 3, 2, 9)
            union = disjoint_union_graph(a, b)
            _assert_sorted_edges(union)
            for k, name in enumerate(a.signature.role_names):
                assert _role_pairs(union, k) == sorted(a.role_ext[name]) + sorted(
                    (x + a.n, y + a.n) for x, y in b.role_ext[name])
            edges = [(np.concatenate([src_a, src_b + a.n]), np.concatenate([dst_a, dst_b + a.n]))
                     for (src_a, dst_a), (src_b, dst_b)
                     in zip(_shuffled_edges(rng, a), _shuffled_edges(rng, b))]
            atom = np.concatenate([_atom_bits(a), _atom_bits(b)])
            ref = from_arrays(a.signature, a.n + b.n, atom, edges, a.individual_map)
            for field in ("members", "concepts", "tails", "roles", "heads"):
                _assert_same_array(getattr(union, field), getattr(ref, field), field)

    def test_label_bits(self):
        sig = Signature(("A",), ("r",), ("a", "b"))
        interp = build_interpretation(
            sig, 3, {"A": {0, 2}}, {"r": {(1, 1), (0, 1)}}, {"a": 0, "b": 0})
        graph = to_labeled_graph(interp)
        assert _pairs(graph.concepts, graph.members) == [(0, 0), (0, 2)]
        # the self loop is the edge whose tail is its head
        loop = graph.tails == graph.heads
        assert _pairs(graph.roles[loop], graph.tails[loop]) == [(0, 1)]
        # node 0 carries both names, node 1 and 2 none
        assert graph.nominal_key.tolist() == [1, 0, 0]
        assert graph.individual_nodes == {"a": (0,), "b": (0,)}

    def test_union_graph(self):
        sig = make_signature(1, 1, 1)
        rng = H.seeded(43)
        a = random_interpretation(rng, sig, 3)
        b = random_interpretation(rng, sig, 4)
        graph = disjoint_union_graph(a, b)
        assert graph.n == 7
        assert graph.sizes == (3, 4)
        assert len(graph.individual_nodes["a0"]) == 2
        assert extract_interpretation(graph, 0) == a
        assert extract_interpretation(graph, 1) == b
        for side in (-1, 2):
            with pytest.raises(EmptyDomainError):
                extract_interpretation(graph, side)

    def test_union_requires_shared_signature(self):
        rng = H.seeded(44)
        a = random_interpretation(rng, make_signature(1, 1, 0), 2)
        b = random_interpretation(rng, make_signature(2, 1, 0), 2)
        with pytest.raises(SignatureMismatchError):
            disjoint_union_graph(a, b)

    def test_from_arrays(self):
        sig = make_signature(1, 2, 0)
        atom = np.array([[1], [0], [1]], dtype=np.uint8)
        edges = [
            (np.array([0, 1]), np.array([1, 1])),
            (np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
        ]
        graph = from_arrays(sig, 3, atom, edges)
        assert graph.n_edges == 2
        assert (graph.tails.tolist(), graph.roles.tolist(), graph.heads.tolist()) == \
            ([0, 1], [0, 0], [1, 1])
        assert _pairs(graph.concepts, graph.members) == [(0, 0), (0, 2)]
        # a repeated edge counts once, as in build_interpretation
        repeated = [(np.array([1, 0, 1, 0]), np.array([1, 1, 1, 1])), edges[1]]
        _assert_same_graph(from_arrays(sig, 3, atom, repeated), graph)
        with pytest.raises(SignatureMismatchError):
            from_arrays(sig, 3, atom, edges[:1])
        with pytest.raises(SignatureMismatchError):
            from_arrays(sig, 3, atom[:2], edges)
        with pytest.raises(ElementOutOfRangeError):
            from_arrays(sig, 3, atom, [(np.array([0]), np.array([3])), edges[1]])

    def test_from_arrays_checks_the_individuals(self):
        sig = make_signature(0, 1, 1)
        edges = [(np.array([0]), np.array([1]))]
        graph = from_arrays(sig, 3, np.zeros((3, 0)), edges, {"a0": 2})
        assert graph.individual_nodes == {"a0": (2,)}
        for x in (3, 7, -1):
            with pytest.raises(ElementOutOfRangeError):
                from_arrays(sig, 3, np.zeros((3, 0)), edges, {"a0": x})
        with pytest.raises(PartialIndividualMapError):
            from_arrays(sig, 3, np.zeros((3, 0)), edges)


class TestQSEmbedding:
    def test_unit_multiplicities(self):
        rng = H.seeded(45)
        interp = H.small_instance(rng, 2, 2, 2, 8)
        qsi = qs_embedding(interp)
        assert qsi.base == interp
        for r in interp.signature.role_names:
            assert set(qsi.qu[(r, False)]) == set(interp.role_ext[r])
            assert all(v == 1 for v in qsi.qu[(r, False)].values())
            assert qsi.qu[(r, True)] == {(y, x): 1 for (x, y), _ in qsi.qu[(r, False)].items()}
            assert qsi.se[r] == frozenset(x for x, y in interp.role_ext[r] if x == y)


class TestReachability:
    def test_all_reachable(self):
        sig = Signature((), ("r",), ("a",))
        interp = build_interpretation(sig, 3, {}, {"r": {(0, 1), (1, 2)}}, {"a": 0})
        assert is_unreachable_objects_free(interp, FeatureSet())

    def test_backward_needs_inverse(self):
        sig = Signature((), ("r",), ("a",))
        interp = build_interpretation(sig, 2, {}, {"r": {(1, 0)}}, {"a": 0})
        assert not is_unreachable_objects_free(interp, FeatureSet())
        assert is_unreachable_objects_free(interp, FeatureSet.from_string("I"))

    def test_no_named_elements(self):
        sig = Signature((), ("r",), ())
        interp = build_interpretation(sig, 1, {}, {}, {})
        assert not is_unreachable_objects_free(interp, FeatureSet())
