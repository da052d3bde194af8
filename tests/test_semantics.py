"""Model checking: term extensions, axiom verdicts, least role closure."""

import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dlbisim import semantics, stats
from dlbisim import syntax as sx
from dlbisim.core import (
    FeatureSet,
    Signature,
    build_interpretation,
    build_qs_interpretation,
    qs_embedding,
)
from dlbisim.document import load_workspace
from dlbisim.errors import FeatureViolationError, UnknownNameError
from dlbisim.gen import make_signature, random_interpretation
from dlbisim.semantics import (
    Evaluator,
    check_assertion,
    check_gci,
    check_kb,
    check_role_axiom,
    eval_concept,
    eval_concept_qs,
    eval_role,
    least_r_extension,
)

import helpers as H

FIXTURE = str(Path(__file__).resolve().parent / "fixtures" / "fig2.kbi")
FULL = FeatureSet.from_string("IOQUS")


class TestAgainstMatrixOracle:
    def test_concepts(self):
        rng = H.seeded(101)
        sig = make_signature(2, 2, 2)
        concepts = H.enumerate_concepts(FULL, sig, 4)
        for _ in range(6):
            interp = random_interpretation(rng, sig, rng.randint(2, 9),
                                           rng.uniform(0.1, 0.4), 0.5)
            ev = Evaluator(interp, FULL)
            for c in concepts:
                assert ev.concept(c) == H.matrix_eval_concept(interp, c), sx.to_text(c)

    def test_roles(self):
        rng = H.seeded(102)
        sig = make_signature(1, 2, 1)
        texts = [
            "r0", "inv(r1)", "(r0 ; r1)", "(r0 | inv(r0))", "(r0)*",
            "((r0 | r1))*", "test((A0 and some r0 top))", "eps", "U",
            "(inv(r0) ; (r1)*)", "((eps | r0) ; test(not A0))",
        ]
        roles = [sx.parse_role(t) for t in texts]
        for _ in range(8):
            interp = random_interpretation(rng, sig, rng.randint(2, 8),
                                           rng.uniform(0.1, 0.4), 0.5)
            for r in roles:
                assert eval_role(interp, r, FULL) == H.matrix_eval_role(interp, r)


def random_role(rng, phi, sig, depth):
    """A random role admitted by phi, at most depth constructors deep."""
    kinds = ["name"] * 3 + (["eps", "U"] if phi.universal else ["eps"])
    if depth > 0:
        kinds += ["compose", "union", "star", "star", "test"] + (["inv"] if phi.inverse else [])
    kind = rng.choice(kinds)
    if kind == "name":
        return sx.RoleName(rng.choice(sig.role_names))
    if kind == "eps":
        return sx.Epsilon()
    if kind == "U":
        return sx.UniversalRole()
    if kind == "inv":
        return sx.Inverse(random_role(rng, phi, sig, depth - 1))
    if kind == "star":
        return sx.Star(random_role(rng, phi, sig, depth - 1))
    if kind == "test":
        return sx.Test(random_concept(rng, phi, sig, depth - 1))
    pair = (random_role(rng, phi, sig, depth - 1), random_role(rng, phi, sig, depth - 1))
    return sx.Compose(*pair) if kind == "compose" else sx.RoleUnion(*pair)


def random_concept(rng, phi, sig, depth):
    """A random concept admitted by phi, at most depth constructors deep."""
    leaves = [sx.Top(), sx.Bottom()] + [sx.ConceptName(a) for a in sig.concept_names] * 2
    if phi.nominals:
        leaves += [sx.Nominal(a) for a in sig.individual_names]
    if phi.local_refl:
        leaves += [sx.HasSelf(r) for r in sig.role_names]
    if depth == 0:
        return rng.choice(leaves)
    kind = rng.choice(["leaf", "not", "and", "or", "some", "some", "all", "all"]
                      + (["count", "count"] if phi.counting else []))
    if kind == "leaf":
        return rng.choice(leaves)
    if kind == "not":
        return sx.Not(random_concept(rng, phi, sig, depth - 1))
    if kind in ("and", "or"):
        pair = (random_concept(rng, phi, sig, depth - 1), random_concept(rng, phi, sig, depth - 1))
        return sx.And(*pair) if kind == "and" else sx.Or(*pair)
    inner = random_concept(rng, phi, sig, depth - 1)
    if kind == "count":
        basic = sx.RoleName(rng.choice(sig.role_names))
        if phi.inverse and rng.random() < 0.5:
            basic = sx.Inverse(basic)
        node = sx.AtLeast if rng.random() < 0.5 else sx.AtMost
        return node(rng.randint(0, 3), basic, inner)
    role = random_role(rng, phi, sig, depth - 1)
    return sx.Some(role, inner) if kind == "some" else sx.All(role, inner)


# starred composite roles, tests, U and inv, each kept when phi admits it
FIXED_CONCEPTS = [
    "some ((r0 ; test(A0)) | r1)* A1",
    "all ((r0 ; r1))* (A0 or some r1 top)",
    "some (((r0)* ; test(not A1)) ; (r1 | eps))* A0",
    "some (inv(r0) ; (r1 | inv(r1))*)* A1",
    "all (inv((r0 ; inv(r1))))* some r0 A0",
    "some (U ; test(some (r1)* A0)) top",
    "all (r0 | (U ; test(A1)))* A0",
    "some ((r0)* ; inv(r1))* {a0}",
    "all (inv((r0)*))* some ((inv((r0 ; r1)))*)* A1",
    "(atleast 2 inv(r0) some (r1)* A0 and atmost 1 r1 self r0)",
    # automaton pitfalls: a star's loop on a state shared with a union or
    # a composition would accept r0 ; r1 or r1 ; r0
    "some ((r0)* | r1) A0",
    "some (r1 | (r0)*) A0",
    "some ((r0)* ; (r1)*) A0",
    "some ((r1)* ; (r0)*) A0",
    "some ((eps)* ; r0) A0",
    "some (test(A0))* A1",
    "some ((U ; r0))* A1",
    "some inv(((r0)* ; r1)) A0",
]


class TestAgainstMatrixOracleAllFeatureSets:
    def test_random_and_fixed_terms(self):
        rng = H.seeded(111)
        sig = make_signature(2, 2, 1)
        fixed = [sx.parse_concept(t) for t in FIXED_CONCEPTS]
        starred = 0
        for k, phi in enumerate(H.ALL_PHIS):
            interps = [random_interpretation(rng, sig, rng.randint(1, 40),
                                             rng.uniform(0.02, 0.12), 0.4)
                       for _ in range(2)]
            concepts = [c for c in fixed if sx.validate_in_language(phi, c).ok]
            concepts += [random_concept(rng, phi, sig, 4) for _ in range(12)]
            roles = [random_role(rng, phi, sig, 3) for _ in range(4)]
            starred += sum("*" in sx.to_text(c) for c in concepts)
            for interp in interps:
                ev = Evaluator(interp, phi)
                for c in concepts:
                    assert ev.concept(c) == H.matrix_eval_concept(interp, c), (str(phi), sx.to_text(c))
                for r in roles:
                    assert ev.role(r) == H.matrix_eval_role(interp, r), (str(phi), sx.to_text(r))
                    assert eval_role(interp, r, phi) == ev.role(r)
        assert starred > 100

    def test_shared_subterms_are_evaluated_consistently(self):
        # one evaluator, concepts reusing one another's nodes in new contexts
        rng = H.seeded(112)
        sig = make_signature(2, 2, 1)
        interp = random_interpretation(rng, sig, 30, 0.08, 0.4)
        ev = Evaluator(interp, FULL)
        pool = [random_concept(rng, FULL, sig, 3) for _ in range(10)]
        for _ in range(60):
            a, b = rng.choice(pool), rng.choice(pool)
            c = sx.Some(sx.Star(sx.Compose(random_role(rng, FULL, sig, 1), sx.Test(a))), b)
            pool.append(c)
            assert ev.concept(c) == H.matrix_eval_concept(interp, c), sx.to_text(c)


def qs_brute_force(qsi, c) -> frozenset[int]:
    """QS extension by summing multiplicities edge by edge, for the counting fragment."""
    base = qsi.base
    dom = frozenset(base.domain)
    if isinstance(c, sx.Top):
        return dom
    if isinstance(c, sx.ConceptName):
        return base.concept_ext[c.name]
    if isinstance(c, sx.Not):
        return dom - qs_brute_force(qsi, c.concept)
    if isinstance(c, sx.And):
        return qs_brute_force(qsi, c.left) & qs_brute_force(qsi, c.right)
    if isinstance(c, sx.HasSelf):
        return qsi.se[c.role]
    if isinstance(c, (sx.AtLeast, sx.AtMost)):
        key = (c.role.name, False) if isinstance(c.role, sx.RoleName) else (c.role.role.name, True)
        inner = qs_brute_force(qsi, c.concept)
        total = dict.fromkeys(dom, 0)
        for (x, y), k in qsi.qu[key].items():
            if y in inner:
                total[x] += k
        if isinstance(c, sx.AtLeast):
            return frozenset(x for x in dom if total[x] >= c.bound)
        return frozenset(x for x in dom if total[x] <= c.bound)
    raise TypeError(c)


def random_counting_concept(rng, sig, depth):
    if depth == 0:
        return rng.choice([sx.Top(), sx.HasSelf(rng.choice(sig.role_names))]
                          + [sx.ConceptName(a) for a in sig.concept_names])
    kind = rng.choice(["not", "and", "count", "count", "count"])
    if kind == "not":
        return sx.Not(random_counting_concept(rng, sig, depth - 1))
    if kind == "and":
        return sx.And(random_counting_concept(rng, sig, depth - 1),
                      random_counting_concept(rng, sig, depth - 1))
    basic = sx.RoleName(rng.choice(sig.role_names))
    if rng.random() < 0.5:
        basic = sx.Inverse(basic)
    node = sx.AtLeast if rng.random() < 0.5 else sx.AtMost
    return node(rng.randint(0, 9), basic, random_counting_concept(rng, sig, depth - 1))


class TestQSAgainstBruteForce:
    def test_random_multiplicities(self):
        rng = H.seeded(113)
        sig = make_signature(2, 2, 0)
        for _ in range(12):
            interp = random_interpretation(rng, sig, rng.randint(1, 30),
                                           rng.uniform(0.05, 0.3), 0.5)
            qu = {}
            for r in sig.role_names:
                pairs = sorted(interp.role_ext[r])
                qu[(r, False)] = {p: rng.randint(1, 5) for p in pairs}
                qu[(r, True)] = {(y, x): rng.randint(1, 5) for x, y in pairs}
            se = {r: {x for x in interp.domain if rng.random() < 0.3} for r in sig.role_names}
            qsi = build_qs_interpretation(interp, qu, se)
            ev = Evaluator(interp, FULL, qs=qsi)
            for _ in range(25):
                c = random_counting_concept(rng, sig, 3)
                assert eval_concept_qs(qsi, c, FULL) == qs_brute_force(qsi, c), sx.to_text(c)
                assert ev.concept(c) == qs_brute_force(qsi, c), sx.to_text(c)


class TestNestedStar:
    def test_linear_in_the_path(self):
        # forward s, backward r, A at 0: each outer round of ((s)* ; r)* walks
        # the whole inner closure again unless every state is searched once
        n = 2000
        sig = Signature(("A",), ("r", "s"), ())
        interp = build_interpretation(sig, n, {"A": {0}},
                                      {"s": {(i, i + 1) for i in range(n - 1)},
                                       "r": {(i + 1, i) for i in range(n - 1)}})
        start = time.perf_counter()
        ext = eval_concept(interp, sx.parse_concept("some ((s)* ; r)* A"), FeatureSet())
        assert time.perf_counter() - start < 2.0
        assert ext == frozenset(range(n))


class TestRoleBatches:
    def test_batch_sized_by_the_automaton(self):
        # twelve composed (r | eps) make a 13-state automaton; the search
        # holds one n x k bool matrix per state, so k shrinks with the states;
        # the role is the 25 922 pairs (x, x + j), j <= 12
        n = 2000
        role = sx.parse_role("(r | eps)")
        for _ in range(11):
            role = sx.Compose(role, sx.parse_role("(r | eps)"))
        interp = build_interpretation(Signature((), ("r",), ()), n, {},
                                      {"r": {(i, i + 1) for i in range(n - 1)}})
        tracemalloc.start()
        try:
            pairs = eval_role(interp, role, FeatureSet())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert pairs == {(x, x + j) for x in range(n) for j in range(13) if x + j < n}


# every role constructor the automaton has a step for
WALK_ROLES = ["(r0 ; test(A0))*", "(inv(r1) | eps)", "((r0)* ; inv((r1 ; r0)))",
              "(U ; test(some r1 A0))", "((r0 | U))*", "(test(not A0) ; (inv(r0))*)"]


def role_kinds(role) -> set[str]:
    """Class names of the role's nodes, those under its tests excluded."""
    kinds, stack = set(), [role]
    while stack:
        node = stack.pop()
        kinds.add(type(node).__name__)
        if not isinstance(node, sx.Test):
            stack.extend(sx.children(node))
    return kinds


class TestWalkAndPass:
    """A search walks thin frontiers cell by cell and takes wide ones in numpy
    passes; forcing either path everywhere must not change a result."""

    @pytest.mark.parametrize("limit", [0, 10 ** 9], ids=["numpy-only", "walk-wherever-allowed"])
    def test_both_paths_against_the_oracle(self, monkeypatch, limit):
        monkeypatch.setattr(semantics, "_WALK_EDGES", limit)
        rng = H.seeded(121)
        fixed = [sx.parse_role(t) for t in WALK_ROLES]
        used = set()
        for phi in H.ALL_PHIS:
            for _ in range(3):
                interp = H.small_instance(rng, max_n=10)
                # the fixed roles read r0, r1 and A0
                while len(interp.signature.role_names) < 2 or not interp.signature.concept_names:
                    interp = H.small_instance(rng, max_n=10)
                sig = interp.signature
                roles = [random_role(rng, phi, sig, 3) for _ in range(3)]
                roles += [r for r in fixed if sx.validate_in_language(phi, r).ok]
                concepts = [random_concept(rng, phi, sig, 3) for _ in range(4)]
                concepts += [sx.Some(r, random_concept(rng, phi, sig, 1)) for r in roles]
                concepts += [sx.All(r, random_concept(rng, phi, sig, 1)) for r in roles]
                qsi = qs_embedding(interp)
                for c in concepts:
                    expect = H.matrix_eval_concept(interp, c)
                    assert eval_concept(interp, c, phi) == expect, (str(phi), sx.to_text(c))
                    assert eval_concept_qs(qsi, c, phi) == expect, (str(phi), sx.to_text(c))
                abox = []
                for r in roles:
                    used.update(role_kinds(r))
                    pairs = H.matrix_eval_role(interp, r)
                    assert eval_role(interp, r, phi) == pairs, (str(phi), sx.to_text(r))
                    for a in sig.individual_names:
                        for b in sig.individual_names:
                            abox += [sx.RoleAssertion(r, a, b), sx.NegatedRoleAssertion(r, a, b)]
                imap = interp.individual_map
                report = check_kb(interp, sx.KnowledgeBase(abox=tuple(abox)), phi)
                for _, _, axiom, holds in report.entries:
                    related = (imap[axiom.a], imap[axiom.b]) in H.matrix_eval_role(interp, axiom.role)
                    assert holds == (related == isinstance(axiom, sx.RoleAssertion))
        assert used >= {"Inverse", "Compose", "RoleUnion", "Star", "Test", "Epsilon",
                        "UniversalRole"}

    def test_a_marked_path_takes_few_numpy_passes(self):
        # one pass per level would be n + 1 passes of one cell each
        n = 20_000
        interp = H.marked_path(n)
        ev = Evaluator(interp, FeatureSet())
        assert ev.concept(sx.parse_concept("some (r0)* A0")) == frozenset(range(n))
        counters = ev.counters
        assert counters.searches == 1
        assert counters.passes <= 2
        assert counters.walked >= n
        assert counters.walk_edges == n - 1

    def test_a_hub_is_never_walked(self, monkeypatch):
        # the hub 0 has an in-edge from each of 1..h and one edge to h + 1,
        # the only element in A0: the walk reaches the hub and must hand it
        # to a numpy pass rather than read its h in-edges one at a time
        h = 200_000
        src = np.concatenate([np.arange(1, h + 1), [0]])
        dst = np.concatenate([np.zeros(h, dtype=np.int64), [h + 1]])
        interp = build_interpretation(make_signature(1, 1, 0), h + 2, {"A0": {h + 1}},
                                      {"r0": np.column_stack((src, dst))}, {})
        concept = sx.parse_concept("some (r0)* A0")
        ev = Evaluator(interp, FeatureSet())
        ext = ev.concept(concept)
        counters = ev.counters
        assert counters.walked >= 1 and counters.passes >= 1
        assert counters.walk_edges <= semantics._WALK_EDGES * counters.walked < h
        assert counters.pass_edges >= h
        monkeypatch.setattr(semantics, "_WALK_EDGES", 0)
        assert ext == eval_concept(interp, concept, FeatureSet()) == frozenset(range(h + 2))

    def test_counters_add_up_across_evaluators_in_a_recording(self):
        interp = H.marked_path(50)
        concept = sx.parse_concept("(some (r0)* A0 and all r0 A0)")
        with stats.recorded() as record:
            eval_concept(interp, concept, FeatureSet())
            eval_concept(interp, concept, FeatureSet())
        ev = Evaluator(interp, FeatureSet())
        ev.concept(concept)
        assert record.searches.searches == 2 * ev.counters.searches == 4
        assert record.searches.walked == 2 * ev.counters.walked


class TestLongPath:
    # r* and U as pair sets would hold n^2 / 2 and n^2 pairs (2 * 10^8 and 4 * 10^8)
    n = 20_000

    def path(self):
        sig = Signature(("A", "B"), ("r",), ("a",))
        return build_interpretation(sig, self.n, {"A": {self.n - 1}},
                                    {"r": {(i, i + 1) for i in range(self.n - 1)}},
                                    {"a": 0})

    def test_star_and_universal_role(self):
        interp = self.path()
        phi = FeatureSet.from_string("IU")
        everything = frozenset(range(self.n))
        last = frozenset({self.n - 1})

        def ext(text):
            return eval_concept(interp, sx.parse_concept(text), phi)

        assert ext("some (r)* A") == everything
        assert ext("some (inv(r))* A") == last
        assert ext("all (r)* not A") == frozenset()
        assert ext("some (inv(r))* some (r)* A") == everything
        assert ext("some U A") == everything
        assert ext("some U B") == frozenset()
        assert ext("all U A") == frozenset()

    def test_kb_and_role_assertions(self):
        interp = self.path()
        kb = sx.KnowledgeBase(
            tbox=(sx.parse_gci("top sub some (r)* A"), sx.parse_gci("top sub some U A")),
            abox=(sx.parse_assertion("(r)*(a, a)"), sx.parse_assertion("not inv((r)*)(a, a)"),
                  sx.parse_assertion("some (r)* A(a)")))
        lines = check_kb(interp, kb, FeatureSet.from_string("IU")).to_lines()
        assert [line.split(":")[0] for line in lines] == [
            "tbox[0] holds", "tbox[1] holds", "abox[0] holds", "abox[1] FAILS", "abox[2] holds"]


class TestWorkedExample:
    def test_inner_concept_extension(self):
        ws = load_workspace(FIXTURE)
        interp = ws.interpretation("I1")
        names = ws.element_names["I1"]
        c = sx.parse_concept(
            "((some inv(r) {b}) and (atleast 2 r (some inv(r) {c})))")
        ext = eval_concept(interp, c, ws.phi)
        assert {names[x] for x in ext} == {"u1"}

    def test_kb_holds_on_all_three(self):
        ws = load_workspace(FIXTURE)
        for name in ["I1", "I2", "I3"]:
            report = check_kb(ws.interpretation(name), ws.kb, ws.phi)
            assert report.ok, (name, report.to_lines())

    def test_report_lines(self):
        ws = load_workspace(FIXTURE)
        lines = check_kb(ws.interpretation("I1"), ws.kb, ws.phi).to_lines()
        assert lines[0] == "tbox[0] holds: not F sub M"
        assert all(" holds: " in line for line in lines)


class TestAlgebraicLaws:
    def test_de_morgan_and_duality(self):
        rng = H.seeded(103)
        sig = make_signature(2, 1, 1)
        pieces = H.enumerate_concepts(FULL, sig, 3)
        role = sx.RoleName("r0")
        for _ in range(5):
            interp = random_interpretation(rng, sig, rng.randint(2, 8))
            ev = Evaluator(interp, FULL)
            dom = frozenset(interp.domain)
            for c in pieces[:40]:
                for d in pieces[:20]:
                    both = ev.concept(sx.Not(sx.And(c, d)))
                    split = ev.concept(sx.Or(sx.Not(c), sx.Not(d)))
                    assert both == split
                ext_all = ev.concept(sx.All(role, c))
                ext_dual = dom - ev.concept(sx.Some(role, sx.Not(c)))
                assert ext_all == ext_dual
                atmost = ev.concept(sx.AtMost(1, role, c))
                not_atleast = dom - ev.concept(sx.AtLeast(2, role, c))
                assert atmost == not_atleast

    def test_star_is_reachability(self):
        sig = make_signature(0, 1, 0)
        interp = build_interpretation(sig, 4, {}, {"r0": {(0, 1), (1, 2)}}, {})
        star = eval_role(interp, sx.parse_role("(r0)*"), FeatureSet())
        assert star == frozenset(
            {(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (1, 2)})


class TestValidation:
    def test_feature_violation(self):
        sig = make_signature(1, 1, 1)
        interp = build_interpretation(sig, 2, {}, {}, {"a0": 0})
        with pytest.raises(FeatureViolationError):
            eval_concept(interp, sx.parse_concept("{a0}"), FeatureSet())
        with pytest.raises(FeatureViolationError):
            eval_role(interp, sx.parse_role("inv(r0)"), FeatureSet())

    def test_unknown_name(self):
        sig = make_signature(1, 1, 0)
        interp = build_interpretation(sig, 2, {}, {}, {})
        with pytest.raises(UnknownNameError):
            eval_concept(interp, sx.parse_concept("B7"), FULL)
        with pytest.raises(UnknownNameError):
            check_kb(interp, sx.KnowledgeBase(tbox=(sx.parse_gci("top sub B7"),)), FULL)


class TestAssertionsAndAxioms:
    sig = Signature((), ("r",), ("a", "b"))
    shared = build_interpretation(sig, 2, {}, {"r": {(0, 0), (1, 1)}},
                                  {"a": 0, "b": 0})
    split = build_interpretation(sig, 2, {}, {"r": {(0, 0), (1, 1)}},
                                 {"a": 0, "b": 1})

    def verdict(self, interp, text):
        return check_assertion(interp, sx.parse_assertion(text), FeatureSet())

    def test_equality_assertions(self):
        assert self.verdict(self.shared, "a = b")
        assert not self.verdict(self.split, "a = b")
        assert self.verdict(self.split, "a != b")
        assert not self.verdict(self.shared, "a != b")

    def test_role_assertions(self):
        assert self.verdict(self.shared, "r(a, b)")
        assert not self.verdict(self.split, "r(a, b)")
        assert self.verdict(self.split, "not r(a, b)")
        assert not self.verdict(self.shared, "not r(a, b)")

    def test_concept_assertion(self):
        sig = make_signature(1, 0, 1)
        interp = build_interpretation(sig, 2, {"A0": {1}}, {}, {"a0": 1})
        assert check_assertion(interp, sx.parse_assertion("A0(a0)"), FeatureSet())
        assert not check_assertion(interp, sx.parse_assertion("not A0(a0)"), FeatureSet())

    def test_role_axioms(self):
        sig = Signature((), ("r",), ("a",))
        open_chain = build_interpretation(
            sig, 3, {}, {"r": {(0, 1), (1, 2), (2, 2)}}, {"a": 0})
        closed = build_interpretation(
            sig, 3, {}, {"r": {(0, 1), (1, 2), (2, 2), (0, 2)}}, {"a": 0})
        ax = sx.parse_role_axiom("r ; r sub r")
        assert not check_role_axiom(open_chain, ax)
        assert check_role_axiom(closed, ax)
        refl = sx.parse_role_axiom("eps sub r")
        assert not check_role_axiom(open_chain, refl)

    def test_chain_axioms_against_pair_composition(self):
        rng = H.seeded(96)
        verdicts = set()
        for _ in range(150):
            interp = H.small_instance(rng, 0, 3, 0, 9)
            roles = interp.signature.role_names
            if not roles:
                continue
            chain = [(rng.choice(roles), rng.random() < 0.4) for _ in range(rng.randint(1, 3))]
            axiom = sx.ChainSub(tuple(sx.Inverse(sx.RoleName(r)) if inv else sx.RoleName(r)
                                      for r, inv in chain), rng.choice(roles))
            for inst in (interp, least_r_extension(interp, [axiom])):
                reach = {(x, x) for x in inst.domain}
                for r, inv in chain:
                    step = {(y, x) if inv else (x, y) for x, y in inst.role_ext[r]}
                    reach = {(x, z) for x, y in reach for y2, z in step if y == y2}
                expected = reach <= inst.role_ext[axiom.role]
                assert check_role_axiom(inst, axiom) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_gci(self):
        sig = make_signature(2, 0, 0)
        interp = build_interpretation(sig, 3, {"A0": {0, 1}, "A1": {0, 1, 2}}, {}, {})
        assert check_gci(interp, sx.parse_gci("A0 sub A1"), FeatureSet())
        assert not check_gci(interp, sx.parse_gci("A1 sub A0"), FeatureSet())


class TestLeastRoleExtension:
    def axioms(self):
        return [
            sx.parse_role_axiom("r0 ; r0 sub r0"),
            sx.parse_role_axiom("eps sub r1"),
            sx.parse_role_axiom("inv(r0) ; r1 sub r1"),
        ]

    def test_matches_brute_force(self):
        rng = H.seeded(104)
        sig = make_signature(0, 2, 0)
        for _ in range(40):
            interp = random_interpretation(rng, sig, rng.randint(1, 9),
                                           rng.uniform(0.05, 0.3), 0.5)
            closed = least_r_extension(interp, self.axioms())
            assert closed.role_ext == H.closure_oracle(interp, self.axioms())
            assert closed.concept_ext == interp.concept_ext
            assert closed.individual_map == interp.individual_map
            for r in sig.role_names:
                assert interp.role_ext[r] <= closed.role_ext[r]

    def test_result_satisfies_axioms(self):
        rng = H.seeded(105)
        sig = make_signature(0, 2, 0)
        for _ in range(25):
            interp = random_interpretation(rng, sig, rng.randint(1, 8), 0.15, 0.5)
            closed = least_r_extension(interp, self.axioms())
            for ax in self.axioms():
                assert check_role_axiom(closed, ax)

    def test_idempotent(self):
        rng = H.seeded(106)
        sig = make_signature(0, 2, 0)
        for _ in range(25):
            interp = random_interpretation(rng, sig, rng.randint(1, 8), 0.2, 0.5)
            closed = least_r_extension(interp, self.axioms())
            assert least_r_extension(closed, self.axioms()) == closed

    def test_minimal(self):
        # every added edge reappears when it is removed and the closure rerun
        rng = H.seeded(107)
        sig = make_signature(0, 2, 0)
        checked = 0
        for _ in range(25):
            interp = random_interpretation(rng, sig, rng.randint(2, 8), 0.15, 0.5)
            closed = least_r_extension(interp, self.axioms())
            for r in sig.role_names:
                added = closed.role_ext[r] - interp.role_ext[r]
                for pair in sorted(added)[:5]:
                    thinner = build_interpretation(
                        sig, closed.n, closed.concept_ext,
                        {**closed.role_ext, r: closed.role_ext[r] - {pair}},
                        closed.individual_map)
                    reclosed = least_r_extension(thinner, self.axioms())
                    assert pair in reclosed.role_ext[r]
                    checked += 1
        assert checked > 30

    def test_rejects_non_axioms(self):
        sig = make_signature(0, 1, 0)
        interp = build_interpretation(sig, 2, {}, {}, {})
        with pytest.raises(TypeError):
            least_r_extension(interp, [sx.parse_gci("top sub top")])
        with pytest.raises(UnknownNameError):
            least_r_extension(interp, [sx.parse_role_axiom("eps sub r9")])


class TestQSReading:
    def test_embedding_agrees_with_plain(self):
        rng = H.seeded(108)
        sig = make_signature(1, 1, 1)
        concepts = H.enumerate_concepts(FULL, sig, 4)
        for _ in range(5):
            interp = random_interpretation(rng, sig, rng.randint(2, 7))
            qsi = qs_embedding(interp)
            for c in concepts:
                assert eval_concept_qs(qsi, c, FULL) == eval_concept(interp, c, FULL)

    def test_left_out_basic_roles_count_each_edge_once(self):
        rng = H.seeded(109)
        sig = make_signature(1, 2, 1)
        concepts = H.enumerate_concepts(FULL, sig, 3) + (sx.parse_concept("atleast 1 r0 A0"),)
        for _ in range(5):
            interp = random_interpretation(rng, sig, rng.randint(2, 7))
            diagonal = {r: src[src == dst] for r, (src, dst) in interp.role_edges.items()}
            embedded = qs_embedding(interp)
            assert build_qs_interpretation(interp, {}, diagonal) == embedded
            partial = {("r1", True): embedded.qu[("r1", True)]}
            for qu in ({}, partial):
                qsi = build_qs_interpretation(interp, qu, diagonal)
                for c in concepts:
                    assert eval_concept_qs(qsi, c, FULL) == eval_concept_qs(embedded, c, FULL)

    def test_self_sets_default_to_the_diagonal(self):
        sig = make_signature(1, 2, 1)
        interp = build_interpretation(sig, 3, {}, {"r0": {(0, 0), (0, 1), (2, 2)},
                                                   "r1": {(1, 1)}}, {"a0": 0})
        embedded = qs_embedding(interp)
        assert build_qs_interpretation(interp, {}) == embedded
        assert embedded.se == {"r0": {0, 2}, "r1": {1}}
        # a role left out of a given se has no self loops
        assert build_qs_interpretation(interp, {}, {"r0": [2]}).se == {"r0": {2}, "r1": set()}

    def test_multiplicities_feed_counting(self):
        from dlbisim.core import build_qs_interpretation
        sig = make_signature(0, 1, 0)
        base = build_interpretation(sig, 2, {}, {"r0": {(0, 1), (1, 1)}}, {})
        qsi = build_qs_interpretation(
            base,
            {("r0", False): {(0, 1): 3, (1, 1): 1},
             ("r0", True): {(1, 0): 3, (1, 1): 1}},
            {"r0": frozenset({1})},
        )
        phi = FeatureSet.from_string("IQS")
        assert eval_concept_qs(qsi, sx.parse_concept("atleast 3 r0 top"), phi) == {0}
        assert eval_concept_qs(qsi, sx.parse_concept("atmost 1 r0 top"), phi) == {1}
        assert eval_concept_qs(qsi, sx.parse_concept("atleast 4 inv(r0) top"), phi) == {1}
        assert eval_concept_qs(qsi, sx.parse_concept("self r0"), phi) == {1}
        # non-counting constructors read the plain edge relation
        assert eval_concept_qs(qsi, sx.parse_concept("some r0 top"), phi) == {0, 1}
