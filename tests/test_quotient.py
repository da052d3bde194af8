"""Quotient interpretations, QS summaries, and separating witnesses."""

import itertools
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dlbisim.bisim import is_bisimulation, naive_largest_bisimulation
from dlbisim.cli import WITNESS_LIMIT
from dlbisim.core import (
    BisimRelation,
    FeatureSet,
    Signature,
    build_interpretation,
    build_qs_interpretation,
    is_unreachable_objects_free,
    qs_embedding,
    to_labeled_graph,
)
from dlbisim.document import interpretation_to_json, load_workspace
from dlbisim.errors import (
    ElementOutOfRangeError,
    NotSeparatedError,
    PartitionMismatchError,
)
from dlbisim.gen import make_signature, random_interpretation
from dlbisim.quotient import qs_quotient, quotient_interpretation, separating_concept
from dlbisim import refine
from dlbisim.refine import Partition, compute_partition, recorded_runs
from dlbisim.semantics import (
    check_assertion,
    check_gci,
    check_role_axiom,
    eval_concept,
    eval_concept_qs,
)
from dlbisim import syntax as sx

import helpers as H

EMPTY = FeatureSet()
IOU_PHIS = [phi for phi in H.ALL_PHIS if not phi.counting and not phi.local_refl]


def auto(phi, interp, want_trace=False):
    return compute_partition(phi, to_labeled_graph(interp), want_trace=want_trace)


def two_cycle():
    sig = Signature((), ("r",), ("a1", "a2"))
    return build_interpretation(sig, 2, role_ext={"r": {(0, 1), (1, 0)}},
                                individual_map={"a1": 0, "a2": 1})


def counting_triangle():
    # a points at itself and both b's; the b's point at each other.
    sig = Signature((), ("r",), ("a", "b1", "b2"))
    edges = {(0, 0), (0, 1), (0, 2), (1, 2), (2, 1)}
    return build_interpretation(sig, 3, role_ext={"r": edges},
                                individual_map={"a": 0, "b1": 1, "b2": 2})


class TestQuotientInterpretation:
    def test_singleton_partition_is_identity(self):
        rng = H.seeded(70)
        for _ in range(10):
            interp = H.small_instance(rng)
            part = Partition(np.arange(interp.n), interp.n)
            quot = quotient_interpretation(interp, part)
            assert quot == interp

    def test_blocks_relabel_by_smallest_member(self):
        sig = make_signature(1, 1, 1)
        interp = build_interpretation(
            sig, 4,
            concept_ext={"A0": {1, 3}},
            role_ext={"r0": {(0, 1), (2, 3)}},
            individual_map={"a0": 2},
        )
        part = Partition(np.array([1, 0, 1, 2]), 3)
        quot = quotient_interpretation(interp, part)
        # blocks {0,2}, {1}, {3} become elements 0, 1, 2
        assert quot.n == 3
        assert quot.concept_ext["A0"] == frozenset({1, 2})
        assert quot.role_ext["r0"] == frozenset({(0, 1), (0, 2)})
        assert quot.individual_map == {"a0": 0}

    def test_fig2_i2_merges_the_equal_leaves(self, fig2):
        interp = fig2.interpretation("I2")
        names = fig2.element_names["I2"]
        part, _ = auto(EMPTY, interp)
        assert part.n_blocks == 6
        assert part.same_block(names.index("v2"), names.index("v4"))
        quot = quotient_interpretation(interp, part)
        assert quot.n == 6
        assert len(interp.role_ext["r"]) == 8
        assert len(quot.role_ext["r"]) == 6

    def test_self_loop_appears_on_the_collapsed_cycle(self):
        interp = two_cycle()
        part, _ = auto(FeatureSet.from_string("S"), interp)
        assert part.n_blocks == 1
        quot = quotient_interpretation(interp, part)
        assert quot.n == 1
        assert quot.role_ext["r"] == frozenset({(0, 0)})

    def test_partition_must_cover_the_domain(self):
        interp = two_cycle()
        with pytest.raises(PartitionMismatchError):
            quotient_interpretation(interp, Partition(np.array([0, 0, 1]), 2))
        with pytest.raises(PartitionMismatchError):
            quotient_interpretation(interp, Partition(np.array([0, 5]), 2))
        with pytest.raises(PartitionMismatchError):
            qs_quotient(interp, Partition(np.array([0]), 1))


class TestQSQuotient:
    def test_counting_triangle_summary(self):
        interp = counting_triangle()
        part, _ = auto(FeatureSet.from_string("Q"), interp)
        assert part.n_blocks == 2
        qsi = qs_quotient(interp, part)
        assert qsi.base.role_ext["r"] == frozenset({(0, 0), (0, 1), (1, 1)})
        assert qsi.qu[("r", False)] == {(0, 0): 1, (0, 1): 2, (1, 1): 1}
        assert qsi.qu[("r", True)] == {(0, 0): 1, (1, 0): 1, (1, 1): 1}
        assert qsi.se["r"] == frozenset({0})

    def test_collapsed_cycle_keeps_se_empty(self):
        interp = two_cycle()
        part, _ = auto(FeatureSet.from_string("S"), interp)
        qsi = qs_quotient(interp, part)
        assert (0, 0) in qsi.base.role_ext["r"]
        assert qsi.se["r"] == frozenset()

    def test_singleton_partition_matches_the_embedding(self):
        rng = H.seeded(71)
        for _ in range(10):
            interp = H.small_instance(rng)
            part = Partition(np.arange(interp.n), interp.n)
            qsi = qs_quotient(interp, part)
            ref = qs_embedding(interp)
            assert qsi.base == ref.base
            assert qsi.qu == ref.qu
            assert qsi.se == ref.se

    def test_multiplicities_are_the_max_over_members(self):
        rng = H.seeded(72)
        for phi in H.ALL_PHIS:
            for _ in range(6):
                interp = H.small_instance(rng, max_n=9)
                part, _ = auto(phi, interp)
                qsi = qs_quotient(interp, part)
                cls = part.canonical_of
                for role in interp.signature.role_names:
                    pairs = interp.role_ext[role]
                    for inverted in (False, True):
                        edges = [(y, x) if inverted else (x, y) for x, y in pairs]
                        seen = {}
                        for (x, block), k in Counter((x, int(cls[y])) for x, y in edges).items():
                            seen.setdefault((int(cls[x]), block), []).append(k)
                        recorded = qsi.qu[(role, inverted)]
                        assert recorded == {key: max(ks) for key, ks in seen.items()}
                        # numpy integers would stop minimize --qs in json.dumps
                        assert all(type(v) is int for key, k in recorded.items() for v in (*key, k))
                        if phi.counting:
                            # with counting every member of a block agrees
                            for key, ks in seen.items():
                                assert len(set(ks)) == 1, (role, inverted, key)
                    assert qsi.se[role] == {int(cls[x]) for x, y in pairs if x == y}
                    assert all(type(b) is int for b in qsi.se[role])
                json.dumps(interpretation_to_json(qsi.base, qsi=qsi))


class TestQuotientIsBisimilar:
    def test_canonical_injection_passes_the_checker(self):
        rng = H.seeded(73)
        for trial in range(40):
            interp = H.small_instance(rng)
            for phi in IOU_PHIS:
                part, _ = auto(phi, interp)
                quot = quotient_interpretation(interp, part)
                pairs = frozenset((x, int(part.canonical_of[x])) for x in range(interp.n))
                rel = BisimRelation(interp.n, quot.n, pairs)
                report = is_bisimulation(phi, interp, quot, rel)
                H.assert_clean(report)

    def test_terminological_and_membership_agreement(self):
        rng = H.seeded(74)
        sig = make_signature(2, 1, 2)
        for trial in range(25):
            interp = random_interpretation(rng, sig, rng.randrange(2, 9))
            phi = rng.choice(IOU_PHIS)
            concepts = H.enumerate_concepts(phi, sig, 4)
            part, _ = auto(phi, interp)
            quot = quotient_interpretation(interp, part)
            for _ in range(30):
                gci = sx.GCI(rng.choice(concepts), rng.choice(concepts))
                assert check_gci(interp, gci, phi) == check_gci(quot, gci, phi)
                fact = sx.ConceptAssertion(rng.choice(concepts), rng.choice(sig.individual_names))
                assert check_assertion(interp, fact, phi) == check_assertion(quot, fact, phi)

    def test_facts_survive_collapsing(self):
        # role axioms, role assertions, and equalities transfer one way
        rng = H.seeded(75)
        sig = make_signature(1, 2, 2)
        r0, r1 = sx.RoleName("r0"), sx.RoleName("r1")
        axioms = [
            sx.EpsilonSub("r0"),
            sx.ChainSub((r0,), "r1"),
            sx.ChainSub((r0, r1), "r1"),
            sx.ChainSub((sx.Inverse(r0),), "r0"),
        ]
        checked = 0
        for trial in range(60):
            interp = random_interpretation(rng, sig, rng.randrange(2, 9), edge_density=0.3)
            phi = rng.choice(IOU_PHIS)
            part, _ = auto(phi, interp)
            quot = quotient_interpretation(interp, part)
            for axiom in axioms:
                if check_role_axiom(interp, axiom):
                    assert check_role_axiom(quot, axiom)
                    checked += 1
            role_exprs = [r0, r1, sx.Compose(r0, r1), sx.Star(r0)]
            if phi.inverse:
                role_exprs.append(sx.Inverse(r0))
            names = sig.individual_names
            facts = [sx.RoleAssertion(rng.choice(role_exprs), rng.choice(names), rng.choice(names))
                     for _ in range(6)]
            facts.append(sx.SameAs("a0", "a1"))
            for fact in facts:
                if check_assertion(interp, fact, phi):
                    assert check_assertion(quot, fact, phi)
                    checked += 1
        assert checked > 100

    def test_collapsing_can_invent_facts(self):
        # the reverse direction is genuinely false, not just untested
        interp = two_cycle()
        part, _ = auto(EMPTY, interp)
        quot = quotient_interpretation(interp, part)
        invented = [
            sx.EpsilonSub("r"),
            sx.RoleAssertion(sx.RoleName("r"), "a1", "a1"),
            sx.SameAs("a1", "a2"),
        ]
        axiom = invented[0]
        assert not check_role_axiom(interp, axiom) and check_role_axiom(quot, axiom)
        for fact in invented[1:]:
            assert not check_assertion(interp, fact, EMPTY)
            assert check_assertion(quot, fact, EMPTY)


class TestSelfLoopCounterexample:
    PHI = FeatureSet.from_string("S")

    def quotient(self):
        interp = two_cycle()
        part, _ = auto(self.PHI, interp)
        return interp, part, quotient_interpretation(interp, part)

    def test_plain_quotient_flips_the_verdicts(self):
        interp, _, quot = self.quotient()
        gci = sx.GCI(sx.Top(), sx.HasSelf("r"))
        assert not check_gci(interp, gci, self.PHI)
        assert check_gci(quot, gci, self.PHI)
        assert not check_role_axiom(interp, sx.EpsilonSub("r"))
        assert check_role_axiom(quot, sx.EpsilonSub("r"))
        flips = [
            sx.ConceptAssertion(sx.HasSelf("r"), "a1"),
            sx.SameAs("a1", "a2"),
            sx.RoleAssertion(sx.RoleName("r"), "a1", "a1"),
        ]
        for fact in flips:
            assert not check_assertion(interp, fact, self.PHI)
            assert check_assertion(quot, fact, self.PHI)

    def test_qs_view_restores_concept_verdicts(self):
        interp, part, _ = self.quotient()
        qsi = qs_quotient(interp, part)
        ext = eval_concept_qs(qsi, sx.HasSelf("r"), self.PHI)
        assert ext == frozenset()
        # top sub self r fails again, and so does the membership fact
        assert ext != frozenset(range(qsi.n))
        block_of_a1 = qsi.base.individual_map["a1"]
        assert block_of_a1 not in ext


class TestCountingCounterexample:
    PHI = FeatureSet.from_string("Q")

    def quotient(self):
        interp = counting_triangle()
        part, _ = auto(self.PHI, interp)
        return interp, part, quotient_interpretation(interp, part)

    def test_plain_quotient_flips_the_verdicts(self):
        interp, _, quot = self.quotient()
        atleast2 = sx.parse_concept("atleast 2 r top")
        atleast3 = sx.parse_concept("atleast 3 r top")
        gci = sx.GCI(atleast2, atleast3)
        assert check_gci(interp, gci, self.PHI)
        assert not check_gci(quot, gci, self.PHI)
        fact = sx.ConceptAssertion(atleast3, "a")
        assert check_assertion(interp, fact, self.PHI)
        assert not check_assertion(quot, fact, self.PHI)
        assert not check_role_axiom(interp, sx.EpsilonSub("r"))
        assert check_role_axiom(quot, sx.EpsilonSub("r"))
        invented = [
            sx.SameAs("b1", "b2"),
            sx.RoleAssertion(sx.RoleName("r"), "b1", "b1"),
        ]
        for item in invented:
            assert not check_assertion(interp, item, self.PHI)
            assert check_assertion(quot, item, self.PHI)

    def test_qs_view_restores_concept_verdicts(self):
        interp, part, _ = self.quotient()
        qsi = qs_quotient(interp, part)
        atleast2 = sx.parse_concept("atleast 2 r top")
        atleast3 = sx.parse_concept("atleast 3 r top")
        # multiplicities 1 + 2 put the collapsed a back at out-degree 3
        assert eval_concept_qs(qsi, atleast2, self.PHI) <= eval_concept_qs(qsi, atleast3, self.PHI)
        block_of_a = qsi.base.individual_map["a"]
        assert block_of_a in eval_concept_qs(qsi, atleast3, self.PHI)


class TestQSConceptAgreement:
    def test_members_and_blocks_agree_on_every_concept(self):
        rng = H.seeded(76)
        sig = make_signature(1, 1, 1)
        for phi in H.ALL_PHIS:
            concepts = H.enumerate_concepts(phi, sig, 4)
            for _ in range(3):
                interp = random_interpretation(rng, sig, rng.randrange(2, 8), edge_density=0.3)
                part, _ = auto(phi, interp)
                qsi = qs_quotient(interp, part)
                cls = part.canonical_of
                for concept in concepts:
                    ext = eval_concept(interp, concept, phi)
                    ext_q = eval_concept_qs(qsi, concept, phi)
                    assert ext == frozenset(x for x in range(interp.n) if cls[x] in ext_q), \
                        sx.to_text(concept)


def all_interpretations(sig: Signature, n: int):
    """Every interpretation over sig with domain 0..n-1.  Keep n tiny."""
    domain = range(n)
    concept_choices = [frozenset(s) for k in range(n + 1)
                       for s in itertools.combinations(domain, k)]
    edge_universe = [(x, y) for x in domain for y in domain]
    role_choices = [frozenset(s) for k in range(len(edge_universe) + 1)
                    for s in itertools.combinations(edge_universe, k)]
    for concepts in itertools.product(concept_choices, repeat=len(sig.concept_names)):
        for roles in itertools.product(role_choices, repeat=len(sig.role_names)):
            for anchors in itertools.product(domain, repeat=len(sig.individual_names)):
                yield build_interpretation(
                    sig, n,
                    dict(zip(sig.concept_names, concepts)),
                    dict(zip(sig.role_names, roles)),
                    dict(zip(sig.individual_names, anchors)),
                )


class TestNothingSmallerIsBisimilar:
    SIG = make_signature(1, 1, 1)

    def branching_chain(self):
        # 0 fans out to the equivalent pair {1,2}, both feed the member of A0
        return build_interpretation(
            self.SIG, 4,
            concept_ext={"A0": {3}},
            role_ext={"r0": {(0, 1), (0, 2), (1, 3), (2, 3)}},
            individual_map={"a0": 0},
        )

    def test_quotient_is_a_floor_for_every_feature_mix(self):
        interp = self.branching_chain()
        for phi in IOU_PHIS:
            assert is_unreachable_objects_free(interp, phi)
            part, _ = auto(phi, interp)
            assert part.n_blocks == 3
            quot = quotient_interpretation(interp, part)
            assert naive_largest_bisimulation(phi, interp, quot) is not None
            for smaller in range(1, part.n_blocks):
                for candidate in all_interpretations(self.SIG, smaller):
                    assert naive_largest_bisimulation(phi, interp, candidate) is None

    def test_four_distinct_elements_need_four(self):
        interp = build_interpretation(
            self.SIG, 4,
            concept_ext={"A0": {3}},
            role_ext={"r0": {(0, 1), (1, 2), (2, 3)}},
            individual_map={"a0": 0},
        )
        assert is_unreachable_objects_free(interp, EMPTY)
        part, _ = auto(EMPTY, interp)
        assert part.n_blocks == 4
        for smaller in range(1, 4):
            for candidate in all_interpretations(self.SIG, smaller):
                assert naive_largest_bisimulation(EMPTY, interp, candidate) is None

    def test_unreachable_objects_void_the_floor(self):
        # a dangling element inflates the quotient but not the models
        interp = build_interpretation(
            self.SIG, 2,
            concept_ext={"A0": {1}},
            individual_map={"a0": 0},
        )
        assert not is_unreachable_objects_free(interp, EMPTY)
        part, _ = auto(EMPTY, interp)
        assert part.n_blocks == 2
        candidate = build_interpretation(self.SIG, 1, individual_map={"a0": 0})
        assert naive_largest_bisimulation(EMPTY, interp, candidate) is not None


def qs_candidates(sig: Signature, n: int, max_count: int):
    """Every QS-interpretation over sig with n elements, inverse counts
    pinned to 1 (nothing reads them unless inverse roles are switched on)."""
    domain = range(n)
    concept_choices = [frozenset(s) for k in range(n + 1)
                       for s in itertools.combinations(domain, k)]
    edge_universe = [(x, y) for x in domain for y in domain]
    se_choices = [frozenset(s) for k in range(n + 1)
                  for s in itertools.combinations(domain, k)]
    role = sig.role_names[0]
    concept = sig.concept_names[0]
    for ext in concept_choices:
        for k in range(len(edge_universe) + 1):
            for edges in itertools.combinations(edge_universe, k):
                for mults in itertools.product(range(1, max_count + 1), repeat=k):
                    base = build_interpretation(sig, n, {concept: ext}, {role: set(edges)})
                    qu = {
                        (role, False): dict(zip(edges, mults)),
                        (role, True): {(y, x): 1 for x, y in edges},
                    }
                    for se in se_choices:
                        yield build_qs_interpretation(base, qu, {role: se})


class TestNoSmallerQSModelOfTheSameTheory:
    PHI = FeatureSet.from_string("QS")
    SIG = make_signature(1, 1, 0)

    def theory_signature(self, qsi, concepts):
        full = frozenset(range(qsi.n))
        out = []
        for concept in concepts:
            ext = eval_concept_qs(qsi, concept, self.PHI)
            out.append((ext == frozenset(), ext == full))
        return out

    def test_every_smaller_summary_validates_a_different_theory(self):
        interp = build_interpretation(
            self.SIG, 3,
            concept_ext={"A0": {0}},
            role_ext={"r0": {(0, 0), (0, 1), (0, 2), (1, 2)}},
        )
        part, _ = auto(self.PHI, interp)
        assert part.n_blocks == 3
        reference = qs_quotient(interp, part)
        survivors = []
        for smaller in range(1, part.n_blocks):
            survivors.extend(qs_candidates(self.SIG, smaller, max_count=3))
        for size in (4, 5, 6):
            concepts = sorted(H.enumerate_concepts(self.PHI, self.SIG, size),
                              key=sx.ast_size)
            wanted = self.theory_signature(reference, concepts)
            still = []
            for qsi in survivors:
                full = frozenset(range(qsi.n))
                for concept, (empty, whole) in zip(concepts, wanted):
                    ext = eval_concept_qs(qsi, concept, self.PHI)
                    if (ext == frozenset()) != empty or (ext == full) != whole:
                        break
                else:
                    still.append(qsi)
            survivors = still
            if not survivors:
                return
        pytest.fail("%d smaller summaries validate the same axioms" % len(survivors))


class TestSeparatingConcepts:
    def test_every_split_pair_gets_a_checked_witness(self):
        rng = H.seeded(77)
        produced = 0
        for trial in range(25):
            interp = H.small_instance(rng, max_n=8)
            phi = rng.choice(H.ALL_PHIS)
            part, trace = auto(phi, interp, want_trace=True)
            for x in range(interp.n):
                for y in range(interp.n):
                    if x == y or part.same_block(x, y):
                        continue
                    witness = separating_concept(interp, trace, x, y)
                    ext = eval_concept(interp, witness.concept, phi)
                    assert witness.left == x and witness.right == y
                    assert x in ext and y not in ext
                    produced += 1
        assert produced > 200

    def test_witnesses_print_in_the_concept_grammar(self):
        rng = H.seeded(78)
        interp = random_interpretation(rng, make_signature(2, 2, 1), 8, edge_density=0.25)
        phi = FeatureSet.from_string("IQ")
        part, trace = auto(phi, interp, want_trace=True)
        for x in range(interp.n):
            for y in range(interp.n):
                if x != y and not part.same_block(x, y):
                    witness = separating_concept(interp, trace, x, y)
                    assert sx.parse_concept(sx.to_text(witness.concept)) == witness.concept

    def test_same_block_means_no_witness(self):
        interp = two_cycle()
        part, trace = auto(EMPTY, interp, want_trace=True)
        assert part.n_blocks == 1
        with pytest.raises(NotSeparatedError):
            separating_concept(interp, trace, 0, 1)
        with pytest.raises(NotSeparatedError):
            separating_concept(interp, trace, 0, 0)
        with pytest.raises(ElementOutOfRangeError):
            separating_concept(interp, trace, 0, 2)

    def test_a_shared_final_block_costs_no_further_round(self):
        # the rounds stop after one that splits nothing: the trace is complete
        # and a pair in one of its blocks is not separated without more work
        interp = two_cycle()
        with recorded_runs() as runs:
            _, trace = auto(EMPTY, interp, want_trace=True)
            with pytest.raises(NotSeparatedError):
                separating_concept(interp, trace, 0, 1)
        assert [r["function"] for r in runs] == ["compute_partition"]
        assert runs[0]["counters"]["rounds"] == trace.depth == 1
        assert [trace.blocks_at(d, np.arange(2)).tolist() for d in (0, 1)] == [[0, 0], [0, 0]]

    def test_a_pair_parting_two_thousand_levels_deep(self):
        # the witness is built from an explicit stack: no Python frame per level
        n = 2000
        path = H.marked_path(n)
        for phi in (EMPTY, FeatureSet.from_string("Q")):
            _, trace = auto(phi, path, want_trace=True)
            witness = separating_concept(path, trace, 0, 1)
            depth = H.modal_depth(witness.concept)
            assert depth == trace.depth == n - 2
            assert dag_nodes(witness.concept) <= 4 * depth

    def test_named_elements_split_by_a_nominal_literal(self):
        phi = FeatureSet.from_string("O")
        interp = two_cycle()
        _, trace = auto(phi, interp, want_trace=True)
        witness = separating_concept(interp, trace, 0, 1)
        literal = witness.concept
        if isinstance(literal, sx.Not):
            literal = literal.concept
        assert isinstance(literal, sx.Nominal)

    def test_dead_end_separates_from_a_live_branch(self, fig2):
        interp = fig2.interpretation("I1")
        names = fig2.element_names["I1"]
        _, trace = auto(EMPTY, interp, want_trace=True)
        witness = separating_concept(interp, trace,
                                     names.index("c"), names.index("u2"))
        ext = eval_concept(interp, witness.concept, EMPTY)
        assert names.index("c") in ext
        assert names.index("u2") not in ext

    def test_witness_dag_grows_with_the_splits(self):
        # zones share their parent zone's concept, so the witness DAG holds
        # a few nodes per split event, not one literal per fact per zone
        n = 1000
        interp = build_interpretation(make_signature(1, 1, 0), n, {"A0": {n - 1}},
                                      {"r0": {(i, i + 1) for i in range(n - 1)}}, {})
        start = time.perf_counter()
        _, trace = auto(FeatureSet.from_string("Q"), interp, want_trace=True)
        witness = separating_concept(interp, trace, 0, 1)
        assert time.perf_counter() - start < 2.0
        assert dag_nodes(witness.concept) <= 16 * len(trace.events)

    def test_witnesses_on_a_sparse_random_model_stay_printable(self):
        # a step splits against the smaller of its compound's two oldest
        # blocks; taking the sub-blocks of its first blocks before its later
        # blocks gave separating concepts of 10^18 tree nodes and more here
        rng = H.seeded(79)
        n = 600
        concepts = {a: {x for x in range(n) if rng.random() < 0.1} for a in ("A0", "A1")}
        roles = {r: {(x, rng.randrange(n)) for x in range(n) for _ in range(2)}
                 for r in ("r0", "r1", "r2")}
        interp = build_interpretation(make_signature(2, 3, 0), n, concepts, roles, {})
        for phi in (EMPTY, FeatureSet.from_string("I")):
            part, trace = auto(phi, interp, want_trace=True)
            for x in range(100):
                if not part.same_block(x, x + 1):
                    size = sx.ast_size(separating_concept(interp, trace, x, x + 1).concept)
                    assert size <= WITNESS_LIMIT, (str(phi), x)


    def test_level_witnesses_have_the_parting_depth(self, monkeypatch):
        # level d blocks agree on every concept of modal depth d, so a pair
        # that the rounds first part at level d has no shallower witness;
        # the trace keeps every round up to the fixpoint
        rng = H.seeded(9100)
        depths = Counter()
        incremental = 0
        full_levels = []  # the level each run's incremental rounds start from
        rounds = refine._incremental_rounds
        monkeypatch.setattr(refine, "_incremental_rounds",
                            lambda *a: full_levels.append(a[4]) or rounds(*a))
        for _ in range(40):
            inst = H.small_instance(rng, max_n=12)
            graph = to_labeled_graph(inst)
            for phi in H.ALL_PHIS:
                full_levels.append(None)
                part, trace = compute_partition(phi, graph)
                full = full_levels[-1]
                levels = [trace.blocks_at(d, np.arange(inst.n)) for d in range(trace.depth + 1)]
                for x, y in itertools.permutations(range(inst.n), 2):
                    if part.same_block(x, y):
                        with pytest.raises(NotSeparatedError):
                            separating_concept(inst, trace, x, y)
                        continue
                    witness = separating_concept(inst, trace, x, y)
                    depth = next(d for d, ids in enumerate(levels) if ids[x] != ids[y])
                    ext = eval_concept(inst, witness.concept, phi)
                    assert x in ext and y not in ext
                    assert H.modal_depth(witness.concept) == depth, (str(phi), x, y)
                    depths[depth] += 1
                    incremental += full is not None and depth > full
        assert depths[0] > 1000 and depths[1] > 1000 and depths[2] > 100, depths
        # pairs that part only in incremental rounds
        assert incremental > 100, incremental

    @pytest.mark.parametrize("seed", [79, 80, 81])
    def test_witnesses_on_a_sparse_random_model_are_small(self, seed):
        # the model of the test above, whose pairs all part within two rounds
        rng = H.seeded(seed)
        n = 600
        concepts = {a: {x for x in range(n) if rng.random() < 0.1} for a in ("A0", "A1")}
        roles = {r: {(x, rng.randrange(n)) for x in range(n) for _ in range(2)}
                 for r in ("r0", "r1", "r2")}
        interp = build_interpretation(make_signature(2, 3, 0), n, concepts, roles, {})
        graph = to_labeled_graph(interp)
        for phi in (EMPTY, FeatureSet.from_string("I")):
            part, trace = compute_partition(phi, graph)
            for x in range(n - 1):
                if not part.same_block(x, x + 1):
                    size = sx.ast_size(separating_concept(interp, trace, x, x + 1).concept)
                    assert size <= 64, (str(phi), x, size)


def dag_nodes(root) -> int:
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(sx.children(node))
    return len(seen)


@pytest.fixture(scope="module")
def fig2():
    return load_workspace(str(Path(__file__).resolve().parent / "fixtures" / "fig2.kbi"))
