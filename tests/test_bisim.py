"""Bisimulation checking and the two largest-bisimulation routes."""

import tracemalloc
from pathlib import Path

import pytest

from dlbisim import syntax as sx
from dlbisim.bisim import (
    DeletionRecord,
    bisimilar,
    bisimulation_pairs,
    bisimulation_size,
    is_bisimulation,
    largest_auto_bisimulation,
    largest_bisimulation,
    naive_largest_bisimulation,
)
from dlbisim.core import (
    BisimRelation,
    FeatureSet,
    Signature,
    build_interpretation,
    disjoint_union_graph,
)
from dlbisim.document import load_workspace
from dlbisim.errors import (
    ElementOutOfRangeError,
    SignatureMismatchError,
    TooLargeError,
)
from dlbisim.refine import compute_partition, partition_to_relation
from dlbisim.semantics import check_assertion, check_gci, check_role_axiom, least_r_extension

import helpers as H

FIXTURE = str(Path(__file__).resolve().parent / "fixtures" / "fig2.kbi")


def phis_where(predicate):
    return [phi for phi in H.ALL_PHIS if predicate(phi)]


class TestRelationContainer:
    def test_matrix_and_transpose(self):
        rel = BisimRelation(2, 3, frozenset({(0, 1), (1, 2)}))
        assert rel.to_matrix().tolist() == [[False, True, False], [False, False, True]]
        back = rel.transpose()
        assert back.n_left == 3 and back.n_right == 2
        assert back.pairs == frozenset({(1, 0), (2, 1)})
        assert (0, 1) in rel and (1, 1) not in rel


class TestConditionDiagnostics:
    """Each numbered clause fires on a crafted minimal example."""

    def fired(self, report):
        return {v.condition for v in report.violations}

    def test_condition_1(self):
        sig = Signature((), (), ("a",))
        i = build_interpretation(sig, 1, {}, {}, {"a": 0})
        report = is_bisimulation(FeatureSet(), i, i, frozenset())
        assert self.fired(report) == {1}

    def test_condition_2(self):
        sig = Signature(("A",), (), ())
        i = build_interpretation(sig, 1, {"A": {0}}, {}, {})
        j = build_interpretation(sig, 1, {}, {}, {})
        report = is_bisimulation(FeatureSet(), i, j, {(0, 0)})
        assert self.fired(report) == {2}

    def test_conditions_3_and_4(self):
        sig = Signature((), ("r",), ())
        edge = build_interpretation(sig, 2, {}, {"r": {(0, 1)}}, {})
        bare = build_interpretation(sig, 2, {}, {}, {})
        z = {(0, 0), (1, 1)}
        assert self.fired(is_bisimulation(FeatureSet(), edge, bare, z)) == {3}
        assert self.fired(is_bisimulation(FeatureSet(), bare, edge, z)) == {4}

    def test_conditions_5_and_6(self):
        sig = Signature((), ("r",), ())
        # matching forward structure, mismatched predecessors
        left = build_interpretation(sig, 3, {}, {"r": {(1, 0), (1, 2)}}, {})
        right = build_interpretation(sig, 3, {}, {"r": {(1, 2)}}, {})
        z = {(0, 0), (1, 1), (2, 2), (0, 2)}
        phi = FeatureSet.from_string("I")
        assert 5 in self.fired(is_bisimulation(phi, left, right, z))
        zt = {(y, x) for x, y in z}
        assert 6 in self.fired(is_bisimulation(phi, right, left, zt))
        assert is_bisimulation(FeatureSet(), left, right, z).ok

    def test_condition_7(self):
        sig = Signature((), (), ("a",))
        i = build_interpretation(sig, 2, {}, {}, {"a": 0})
        z = {(0, 0), (1, 1), (0, 1)}
        report = is_bisimulation(FeatureSet.from_string("O"), i, i, z)
        assert self.fired(report) == {7}
        assert is_bisimulation(FeatureSet(), i, i, z).ok

    def test_condition_8(self):
        sig = Signature((), ("r",), ())
        two = build_interpretation(sig, 3, {}, {"r": {(0, 1), (0, 2)}}, {})
        one = build_interpretation(sig, 2, {}, {"r": {(0, 1)}}, {})
        z = {(0, 0), (1, 1), (2, 1)}
        assert is_bisimulation(FeatureSet(), two, one, z).ok
        report = is_bisimulation(FeatureSet.from_string("Q"), two, one, z)
        assert self.fired(report) == {8}

    def test_condition_9(self):
        sig = Signature((), ("r",), ())
        two = build_interpretation(sig, 3, {}, {"r": {(1, 0), (2, 0)}}, {})
        one = build_interpretation(sig, 2, {}, {"r": {(1, 0)}}, {})
        z = {(0, 0), (1, 1), (2, 1)}
        assert is_bisimulation(FeatureSet.from_string("I"), two, one, z).ok
        report = is_bisimulation(FeatureSet.from_string("IQ"), two, one, z)
        assert self.fired(report) == {9}

    def test_conditions_10_and_11(self):
        sig = Signature((), (), ())
        big = build_interpretation(sig, 2, {}, {}, {})
        small = build_interpretation(sig, 1, {}, {}, {})
        z = {(0, 0)}
        phi = FeatureSet.from_string("U")
        assert self.fired(is_bisimulation(phi, big, small, z)) == {10}
        assert self.fired(is_bisimulation(phi, small, big, {(0, 0)})) == {11}
        assert is_bisimulation(FeatureSet(), big, small, z).ok

    def test_condition_12(self):
        sig = Signature((), ("r",), ())
        loop = build_interpretation(sig, 1, {}, {"r": {(0, 0)}}, {})
        cycle = build_interpretation(sig, 2, {}, {"r": {(0, 1), (1, 0)}}, {})
        z = {(0, 0), (0, 1)}
        assert is_bisimulation(FeatureSet(), loop, cycle, z).ok
        report = is_bisimulation(FeatureSet.from_string("S"), loop, cycle, z)
        assert self.fired(report) == {12}

    def test_input_validation(self):
        sig = Signature((), ("r",), ())
        i = build_interpretation(sig, 2, {}, {}, {})
        other = build_interpretation(Signature((), ("s",), ()), 2, {}, {}, {})
        with pytest.raises(SignatureMismatchError):
            is_bisimulation(FeatureSet(), i, other, set())
        with pytest.raises(ElementOutOfRangeError):
            is_bisimulation(FeatureSet(), i, i, {(5, 0)})


class TestTerminologicalCounterexample:
    sig = Signature(("A",), (), ("a",))
    one = build_interpretation(sig, 1, {"A": {0}}, {}, {"a": 0})
    two = build_interpretation(sig, 2, {"A": {0}}, {}, {"a": 0})
    z = frozenset({(0, 0)})

    def test_relation_valid_without_universal(self):
        for phi in phis_where(lambda p: not p.universal):
            H.assert_clean(is_bisimulation(phi, self.one, self.two, self.z))

    def test_universal_rejects(self):
        for phi in phis_where(lambda p: p.universal):
            report = is_bisimulation(phi, self.one, self.two, self.z)
            assert any(v.condition == 11 for v in report.violations), str(phi)
            assert naive_largest_bisimulation(phi, self.one, self.two) is None
            assert largest_bisimulation(phi, self.one, self.two) is None

    def test_gci_verdict_splits(self):
        gci = sx.parse_gci("top sub A")
        assert check_gci(self.one, gci, FeatureSet())
        assert not check_gci(self.two, gci, FeatureSet())


class TestAssertionalCounterexample:
    sig = Signature((), ("r",), ("a", "b"))
    shared = build_interpretation(sig, 2, {}, {"r": {(0, 0), (1, 1)}}, {"a": 0, "b": 0})
    split = build_interpretation(sig, 2, {}, {"r": {(0, 0), (1, 1)}}, {"a": 0, "b": 1})
    z = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_relation_valid_without_nominals(self):
        for phi in phis_where(lambda p: not p.nominals):
            H.assert_clean(is_bisimulation(phi, self.shared, self.split, self.z))

    def test_nominals_reject(self):
        for phi in phis_where(lambda p: p.nominals):
            report = is_bisimulation(phi, self.shared, self.split, self.z)
            assert any(v.condition == 7 for v in report.violations), str(phi)
            assert largest_bisimulation(phi, self.shared, self.split) is None

    def test_assertion_verdict_splits(self):
        phi = FeatureSet()
        for text, on_shared, on_split in [
            ("a = b", True, False),
            ("a != b", False, True),
            ("r(a, b)", True, False),
            ("not r(a, b)", False, True),
        ]:
            assertion = sx.parse_assertion(text)
            assert check_assertion(self.shared, assertion, phi) is on_shared
            assert check_assertion(self.split, assertion, phi) is on_split


class TestRoleAxiomCounterexample:
    sig = Signature((), ("r",), ("a",))
    open_chain = build_interpretation(sig, 3, {}, {"r": {(0, 1), (1, 2), (2, 2)}}, {"a": 0})
    closed = build_interpretation(sig, 3, {}, {"r": {(0, 1), (1, 2), (2, 2), (0, 2)}}, {"a": 0})
    z = frozenset((x, y) for x in range(3) for y in range(3))

    def test_full_product_is_plain_bisimulation(self):
        H.assert_clean(is_bisimulation(FeatureSet(), self.open_chain, self.closed, self.z))

    def test_axiom_verdict_splits(self):
        ax = sx.parse_role_axiom("r ; r sub r")
        assert not check_role_axiom(self.open_chain, ax)
        assert check_role_axiom(self.closed, ax)

    def test_closure_is_the_other_model(self):
        ax = sx.parse_role_axiom("r ; r sub r")
        assert least_r_extension(self.open_chain, [ax]) == self.closed


class TestWorkedFigures:
    def setup_method(self):
        self.ws = load_workspace(FIXTURE)

    def idx(self, iname, element):
        return self.ws.resolve(iname, element)

    def interp(self, iname):
        return self.ws.interpretation(iname)

    def test_all_three_plainly_bisimilar(self):
        phi = FeatureSet()
        for a, b in [("I1", "I2"), ("I1", "I3"), ("I2", "I3")]:
            assert bisimilar(phi, self.interp(a), self.interp(b)), (a, b)

    def test_first_two_bisimilar_with_inverse_and_nominals(self):
        for letters in ["", "I", "O", "IO"]:
            phi = FeatureSet.from_string(letters)
            rel = largest_bisimulation(phi, self.interp("I1"), self.interp("I2"))
            assert rel is not None, letters
            H.assert_clean(is_bisimulation(phi, self.interp("I1"), self.interp("I2"), rel))
        rel = largest_bisimulation(FeatureSet.from_string("IO"),
                                   self.interp("I1"), self.interp("I2"))
        u2 = self.idx("I1", "u2")
        assert (u2, self.idx("I2", "v2")) in rel
        assert (u2, self.idx("I2", "v4")) in rel

    def test_counting_separates_first_two(self):
        phi = FeatureSet.from_string("Q")
        assert not bisimilar(phi, self.interp("I1"), self.interp("I2"))
        union = disjoint_union_graph(self.interp("I1"), self.interp("I2"))
        part, _ = compute_partition(phi, union)
        u1 = self.idx("I1", "u1")
        v1 = self.interp("I1").n + self.idx("I2", "v1")
        assert not part.same_block(u1, v1)

    def test_third_model_separated(self):
        for letters, a, b in [("I", "I1", "I3"), ("Q", "I1", "I3"), ("I", "I2", "I3")]:
            phi = FeatureSet.from_string(letters)
            assert not bisimilar(phi, self.interp(a), self.interp(b)), (letters, a, b)


class TestNaiveOracle:
    def test_empty_relation_is_a_result(self):
        sig = Signature(("A",), (), ())
        marked = build_interpretation(sig, 1, {"A": {0}}, {}, {})
        plain = build_interpretation(sig, 1, {}, {}, {})
        rel = naive_largest_bisimulation(FeatureSet(), marked, plain)
        assert rel is not None and rel.pairs == frozenset()
        assert largest_bisimulation(FeatureSet(), marked, plain).pairs == frozenset()
        phi_u = FeatureSet.from_string("U")
        assert naive_largest_bisimulation(phi_u, marked, plain) is None
        assert largest_bisimulation(phi_u, marked, plain) is None

    def test_guard_bound(self):
        sig = Signature((), ("r",), ())
        i = build_interpretation(sig, 2, {}, {}, {})
        with pytest.raises(TooLargeError):
            naive_largest_bisimulation(FeatureSet(), i, i, max_pairs=3)

    def test_deletion_log(self):
        ws = load_workspace(FIXTURE)
        log: list[DeletionRecord] = []
        naive_largest_bisimulation(FeatureSet.from_string("Q"),
                                   ws.interpretation("I1"), ws.interpretation("I2"),
                                   log=log)
        assert log
        assert len(log) <= 64
        assert all(rec.condition in {1, 3, 4, 5, 6, 8, 9, 10, 11} for rec in log)
        assert all(rec.detail for rec in log)

    def test_matches_partition_route_on_cross_pairs(self):
        rng = H.seeded(301)
        agreements = 0
        for _ in range(40):
            ia, ib = H.instance_pair(rng, max_n=8)
            for phi in H.ALL_PHIS:
                fast = largest_bisimulation(phi, ia, ib)
                slow = naive_largest_bisimulation(phi, ia, ib)
                if fast is None or slow is None:
                    assert fast is None and slow is None, str(phi)
                else:
                    assert fast.pairs == slow.pairs, str(phi)
                agreements += 1
        assert agreements == 40 * 32

    def test_result_is_a_bisimulation(self):
        rng = H.seeded(302)
        for _ in range(15):
            ia, ib = H.instance_pair(rng, max_n=7)
            for phi in H.ALL_PHIS:
                rel = naive_largest_bisimulation(phi, ia, ib)
                if rel is not None:
                    H.assert_clean(is_bisimulation(phi, ia, ib, rel))


class TestVerdictsFromBlocks:
    """bisimilar, bisimulation_size and bisimulation_pairs read the union
    partition's block ids; the naive fixpoint is their oracle."""

    def check_against_naive(self, phi, ia, ib):
        naive = naive_largest_bisimulation(phi, ia, ib)
        assert bisimilar(phi, ia, ib) == (naive is not None), str(phi)
        size = bisimulation_size(phi, ia, ib)
        pairs = bisimulation_pairs(phi, ia, ib)
        if naive is None:
            assert size is None and pairs is None, str(phi)
        else:
            assert size == len(naive.pairs), str(phi)
            assert list(pairs) == sorted(naive.pairs), str(phi)
        return naive is not None

    def test_random_pairs_match_naive_on_all_feature_sets(self):
        rng = H.seeded(311)
        tally = {"individuals": 0, "universal yes": 0, "universal no": 0}
        for _ in range(30):
            ia, ib = H.instance_pair(rng, max_n=8)
            for phi in H.ALL_PHIS:
                verdict = self.check_against_naive(phi, ia, ib)
                if phi.universal:
                    tally["universal yes" if verdict else "universal no"] += 1
            tally["individuals"] += bool(ia.signature.individual_names)
        for _ in range(20):
            ia = H.small_instance(rng, max_n=6)
            ib, _ = H.duplicated_thinned(rng, ia)
            for phi in H.ALL_PHIS:
                verdict = self.check_against_naive(phi, ia, ib)
                if phi.universal:
                    tally["universal yes" if verdict else "universal no"] += 1
            tally["individuals"] += bool(ia.signature.individual_names)
        assert all(tally.values()), tally

    def test_individual_clause_fails_alone(self):
        sig = Signature(("A",), (), ("a",))
        one = build_interpretation(sig, 1, {"A": {0}}, {}, {"a": 0})
        two = build_interpretation(sig, 2, {"A": {1}}, {}, {"a": 0})
        for phi in (FeatureSet(), FeatureSet.from_string("U")):
            log: list[DeletionRecord] = []
            assert naive_largest_bisimulation(phi, one, two, log=log) is None
            assert log[-1].condition == 1
            assert not bisimilar(phi, one, two)
            assert bisimulation_size(phi, one, two) is None
            assert largest_bisimulation(phi, one, two) is None
        moved = build_interpretation(sig, 2, {"A": {1}}, {}, {"a": 1})
        assert bisimulation_size(FeatureSet(), one, moved) == 1

    @pytest.mark.parametrize("left_bigger", [True, False])
    def test_universal_clauses_fail_alone(self, left_bigger):
        sig = Signature(("A",), (), ())
        one = build_interpretation(sig, 1, {"A": {0}}, {}, {})
        two = build_interpretation(sig, 2, {"A": {0}}, {}, {})
        ia, ib = (two, one) if left_bigger else (one, two)
        phi = FeatureSet.from_string("U")
        log: list[DeletionRecord] = []
        assert naive_largest_bisimulation(phi, ia, ib, log=log) is None
        assert log[-1].condition == (10 if left_bigger else 11)
        assert not bisimilar(phi, ia, ib)
        assert bisimulation_size(phi, ia, ib) is None
        assert largest_bisimulation(phi, ia, ib) is None
        assert bisimilar(FeatureSet(), ia, ib)
        assert bisimulation_size(FeatureSet(), ia, ib) == 1

    @pytest.mark.parametrize("phi", ["", "IQ"])
    def test_size_of_one_huge_block_without_pairs(self, phi):
        n = 2000
        sig = Signature((), ("r",), ())
        cycles = [build_interpretation(sig, n, {}, {"r": {(x, (x + step) % n) for x in range(n)}},
                                       {}) for step in (1, 3)]
        tracemalloc.start()
        try:
            size = bisimulation_size(FeatureSet.from_string(phi), *cycles)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size == n * n
        assert peak < 32 * 2 ** 20, "peak %.1f MB" % (peak / 2 ** 20)


class TestRelationAlgebra:
    """Identity, transpose, composition and union preserve the property."""

    def test_identity(self):
        rng = H.seeded(303)
        for _ in range(20):
            interp = H.small_instance(rng, max_n=8)
            diag = frozenset((x, x) for x in interp.domain)
            for phi in H.ALL_PHIS:
                H.assert_clean(is_bisimulation(phi, interp, interp, diag))

    def test_transpose(self):
        rng = H.seeded(304)
        done = 0
        while done < 25:
            ia, ib = H.instance_pair(rng, max_n=7)
            for phi in H.ALL_PHIS:
                rel = largest_bisimulation(phi, ia, ib)
                if rel is None or not rel.pairs:
                    continue
                H.assert_clean(is_bisimulation(phi, ib, ia, rel.transpose()))
                done += 1

    def test_composition(self):
        rng = H.seeded(305)
        done = 0
        while done < 25:
            sig = Signature(("A0",), ("r0",), ())
            from dlbisim.gen import random_interpretation
            tri = [random_interpretation(rng, sig, rng.randint(1, 6), 0.25, 0.5)
                   for _ in range(3)]
            for phi in H.ALL_PHIS:
                z1 = largest_bisimulation(phi, tri[0], tri[1])
                z2 = largest_bisimulation(phi, tri[1], tri[2])
                if z1 is None or z2 is None:
                    continue
                composed = frozenset(
                    (x, z) for x, y in z1.pairs for y2, z in z2.pairs if y == y2)
                if not composed:
                    continue
                H.assert_clean(is_bisimulation(phi, tri[0], tri[2], composed))
                done += 1

    def test_union(self):
        rng = H.seeded(306)
        done = 0
        while done < 25:
            ia, ib = H.instance_pair(rng, max_n=7)
            for phi in H.ALL_PHIS:
                z = largest_bisimulation(phi, ia, ib)
                if z is None or not z.pairs:
                    continue
                # two bisimulations on (ia, ia): the diagonal and the
                # round trip through ib
                round_trip = frozenset(
                    (x, w) for x, y in z.pairs for w, y2 in z.pairs if y == y2)
                diag = frozenset((x, x) for x in ia.domain)
                H.assert_clean(is_bisimulation(phi, ia, ia, round_trip))
                H.assert_clean(is_bisimulation(phi, ia, ia, diag | round_trip))
                done += 1


class TestAutoBisimulation:
    def test_partition_relation_is_bisimulation(self):
        rng = H.seeded(307)
        for _ in range(15):
            interp = H.small_instance(rng, max_n=9)
            for phi in H.ALL_PHIS:
                part = largest_auto_bisimulation(phi, interp)
                rel = partition_to_relation(part)
                H.assert_clean(is_bisimulation(phi, interp, interp, rel))
