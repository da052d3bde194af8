"""Term construction, printing, parsing and the converse normal form."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlbisim import syntax as sx
from dlbisim.core import FeatureSet, build_interpretation, to_labeled_graph
from dlbisim.errors import ParseError, UnknownNameError
from dlbisim.gen import make_signature, random_interpretation
from dlbisim.quotient import separating_concept
from dlbisim.refine import compute_partition
from dlbisim.semantics import Evaluator, eval_concept

import helpers as H

SIG = make_signature(2, 2, 2)

_names_c = st.sampled_from(["A0", "A1"])
_names_r = st.sampled_from(["r0", "r1"])
_names_i = st.sampled_from(["a0", "a1"])

_role_leaf = st.one_of(
    _names_r.map(sx.RoleName),
    st.just(sx.Epsilon()),
    st.just(sx.UniversalRole()),
)
_roles = st.recursive(
    _role_leaf,
    lambda inner: st.one_of(
        inner.map(sx.Inverse),
        inner.map(sx.Star),
        st.tuples(inner, inner).map(lambda p: sx.Compose(*p)),
        st.tuples(inner, inner).map(lambda p: sx.RoleUnion(*p)),
    ),
    max_leaves=6,
)
_basic_roles = st.one_of(
    _names_r.map(sx.RoleName),
    _names_r.map(lambda r: sx.Inverse(sx.RoleName(r))),
)

_concept_leaf = st.one_of(
    st.just(sx.Top()),
    st.just(sx.Bottom()),
    _names_c.map(sx.ConceptName),
    _names_i.map(sx.Nominal),
    _names_r.map(sx.HasSelf),
)
_concepts = st.recursive(
    _concept_leaf,
    lambda inner: st.one_of(
        inner.map(sx.Not),
        st.tuples(inner, inner).map(lambda p: sx.And(*p)),
        st.tuples(inner, inner).map(lambda p: sx.Or(*p)),
        st.tuples(_roles, inner).map(lambda p: sx.Some(*p)),
        st.tuples(_roles, inner).map(lambda p: sx.All(*p)),
        st.tuples(st.integers(0, 3), _basic_roles, inner).map(lambda t: sx.AtLeast(*t)),
        st.tuples(st.integers(0, 3), _basic_roles, inner).map(lambda t: sx.AtMost(*t)),
    ),
    max_leaves=8,
)


class TestPrintParseRoundTrip:
    @given(_concepts)
    @settings(max_examples=300, deadline=None)
    def test_concepts(self, c):
        assert sx.parse_concept(sx.to_text(c)) == c

    @given(_roles)
    @settings(max_examples=300, deadline=None)
    def test_roles(self, r):
        assert sx.parse_role(sx.to_text(r)) == r

    def test_enumerated_concepts(self):
        phi = FeatureSet.from_string("IOQUS")
        for c in H.enumerate_concepts(phi, SIG, 4):
            assert sx.parse_concept(sx.to_text(c)) == c

    def test_axioms_and_assertions(self):
        for text in [
            "(A0 and not A1) sub some (r0)* {a0}",
            "top sub atmost 2 inv(r1) (A0 or self r0)",
        ]:
            assert sx.to_text(sx.parse_gci(text)) == text
        for text in ["eps sub r0", "r0 ; inv(r1) ; r0 sub r1"]:
            assert sx.to_text(sx.parse_role_axiom(text)) == text
        for text in [
            "a0 = a1", "a0 != a1", "r0(a0, a1)", "not r0(a1, a0)",
            "A0(a0)", "(A0 and A1)(a1)", "some (r0 ; r1) top(a0)",
            "not some r0 A1(a0)",
        ]:
            assert sx.to_text(sx.parse_assertion(text)) == text

    def test_unicode_rendering(self):
        c = sx.parse_concept("some inv(r0) (A0 and not {a0})")
        assert sx.to_unicode(c) == "∃r0⁻.(A0 ⊓ ¬{a0})"
        assert sx.to_unicode(sx.parse_concept("atleast 2 r0 top")) == "(≥ 2 r0.⊤)"
        assert sx.to_unicode(sx.parse_role("(eps | test(A0))")) == "(ε ∪ A0?)"
        assert sx.to_unicode(sx.parse_concept("self r1")) == "∃r1.Self"


class TestParseErrors:
    @pytest.mark.parametrize("text", [
        "",
        "(A0 and A1",
        "A0 and A1",
        "some r0",
        "atleast r0 top",
        "atleast 2 (r0 ; r1) top",
        "{A0 }}",
        "not",
        "some sub top",
        "self (r0)",
        "A0 @ A1",
    ])
    def test_bad_concepts(self, text):
        with pytest.raises(ParseError):
            sx.parse_concept(text)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            sx.parse_concept("some r0\n   @")
        assert err.value.line == 2
        assert err.value.col == 4
        assert "line 2" in str(err.value)

    def test_reserved_words_not_names(self):
        for text in ["some eps sub", "{inv}", "self test"]:
            with pytest.raises(ParseError):
                sx.parse_concept(text)

    def test_counting_bound_cap(self):
        assert sx.parse_concept("atleast %d r0 top" % sx.MAX_COUNT) is not None
        with pytest.raises(ParseError):
            sx.parse_concept("atleast %d r0 top" % (sx.MAX_COUNT + 1))

    def test_long_bounds_are_refused_before_they_are_read(self):
        # leading zeros do not count; more digits than MAX_COUNT has do,
        # however many, so int() never reads an over-long bound
        padded = "atleast %s r0 top" % str(sx.MAX_COUNT).zfill(40)
        assert sx.parse_concept(padded) == sx.parse_concept("atleast %d r0 top" % sx.MAX_COUNT)
        for digits in (len(str(sx.MAX_COUNT)) + 1, 5000):
            with pytest.raises(ParseError, match="counting bound of %d digits is too large"
                               % digits) as err:
                sx.parse_concept("atleast %s r0 top" % ("9" * digits))
            assert (err.value.line, err.value.col) == (1, 9)

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff13", "\U0001d7d1"])
    def test_only_ascii_digits_are_numbers(self, digit):
        # superscript two, Arabic-Indic three, fullwidth three, bold three
        with pytest.raises(ParseError, match="unexpected character %r" % digit) as err:
            sx.parse_concept("atleast %s r0 top" % digit)
        assert (err.value.line, err.value.col) == (1, 9)
        with pytest.raises(ParseError):
            sx.parse_concept("atleast 1%s r0 top" % digit)

    def test_nesting_limit(self):
        # names, keyword constructors, stars and bracket pairs each open one level
        deep = sx.MAX_DEPTH
        cases = [
            lambda k: "not " * (k - 1) + "A0",
            lambda k: "(" * (k - 1) + "A0" + ")" * (k - 1),
            lambda k: "some r0" + "*" * (k - 2) + " A0",
            lambda k: "some " + "inv(" * (k - 2) + "r0" + ")" * (k - 2) + " A0",
            lambda k: "all " + "(" * (k - 3) + "r0)*" + ")" * (k - 4) + " A0",
            lambda k: ("not " * ((k - 1) % 2) + "some test(" * ((k - 1) // 2) + "A0"
                       + ") top" * ((k - 1) // 2)),
        ]
        for make in cases:
            assert sx.parse_concept(make(deep)) is not None, make(deep)
            with pytest.raises(ParseError, match="nested deeper than %d levels" % deep):
                sx.parse_concept(make(deep + 1))
        assert sx.parse_role("inv(" * (deep - 1) + "r0" + ")" * (deep - 1)) is not None
        with pytest.raises(ParseError):
            sx.parse_role("inv(" * deep + "r0" + ")" * deep)
        with pytest.raises(ParseError):
            sx.parse_concept("not " * 5000 + "A0")
        assert sx.parse_assertion("not " * (deep - 1) + "A0(a0)") is not None
        with pytest.raises(ParseError):
            sx.parse_assertion("not " * deep + "A0(a0)")
        with pytest.raises(ParseError):
            sx.parse_gci("top sub " + "not " * deep + "A0")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            sx.parse_concept("A0 A1")
        with pytest.raises(ParseError):
            sx.parse_role_axiom("eps sub r0 r1")


class TestSizesAndShapes:
    def test_ast_size(self):
        assert sx.ast_size(sx.parse_concept("top")) == 1
        assert sx.ast_size(sx.parse_concept("some r0 top")) == 3
        assert sx.ast_size(sx.parse_concept("atleast 7 inv(r0) top")) == 4
        assert sx.ast_size(sx.parse_concept("(A0 and not A1)")) == 4
        assert sx.ast_size(sx.parse_role("((r0 | r1) ; (r0)*)")) == 6

    def test_is_basic(self):
        assert sx.is_basic(sx.parse_role("r0"))
        assert sx.is_basic(sx.parse_role("inv(r0)"))
        assert not sx.is_basic(sx.parse_role("inv(inv(r0))"))
        assert not sx.is_basic(sx.parse_role("(r0 ; r1)"))
        assert not sx.is_basic(sx.parse_role("eps"))


class TestLanguageGating:
    def test_each_feature_letter(self):
        cases = [
            ("some inv(r0) top", "I"),
            ("{a0}", "O"),
            ("atleast 1 r0 top", "Q"),
            ("some U top", "U"),
            ("self r0", "S"),
        ]
        full = FeatureSet.from_string("IOQUS")
        for text, letter in cases:
            c = sx.parse_concept(text)
            assert sx.validate_in_language(full, c).ok
            without = FeatureSet.from_string("IOQUS".replace(letter, ""))
            check = sx.validate_in_language(without, c)
            assert not check.ok
            assert any(need == letter for _, need in check.violations)

    def test_counting_needs_basic_roles(self):
        c = sx.AtLeast(1, sx.parse_role("(r0 ; r1)"), sx.Top())
        check = sx.validate_in_language(FeatureSet.from_string("Q"), c)
        assert not check.ok
        assert any(need == "basic" for _, need in check.violations)

    def test_whole_kb(self):
        kb = sx.KnowledgeBase(
            rbox=(sx.parse_role_axiom("r0 ; r0 sub r0"),),
            tbox=(sx.parse_gci("top sub some r0 {a0}"),),
            abox=(sx.parse_assertion("a0 = a1"),),
        )
        assert sx.validate_in_language(FeatureSet.from_string("O"), kb).ok
        assert not sx.validate_in_language(FeatureSet(), kb).ok

    def test_roles_and_unknown_nodes(self):
        role = sx.parse_role("(inv(r0) ; U)*")
        check = sx.validate_in_language(FeatureSet(), role)
        assert sorted(need for _, need in check.violations) == ["I", "U"]
        assert sx.validate_in_language(FeatureSet.from_string("IU"), role).ok
        for node in (object(), "top", sx.Some(object(), sx.Top()), sx.Star(object())):
            with pytest.raises(TypeError):
                sx.validate_in_language(FeatureSet.from_string("IOQUS"), node)


    def test_violations_in_pre_order(self):
        r0, r1 = sx.RoleName("r0"), sx.RoleName("r1")
        chain = sx.ChainSub((sx.Inverse(r0), sx.Compose(r0, r1),
                             sx.Inverse(sx.Compose(r0, sx.UniversalRole()))), "r1")
        kb = sx.KnowledgeBase(rbox=(chain,),
                              tbox=(sx.parse_gci("{a0} sub atleast 1 inv(r0) self r1"),),
                              abox=(sx.parse_assertion("some U {a1}(a0)"),))
        in_chain = [("inv(r0)", "I"), ("(r0 ; r1)", "basic"), ("inv((r0 ; U))", "basic"),
                    ("inv((r0 ; U))", "I"), ("U", "U")]
        cases = [
            (chain, in_chain),
            (kb, in_chain + [("{a0}", "O"), ("atleast 1 inv(r0) self r1", "Q"), ("inv(r0)", "I"),
                             ("self r1", "S"), ("U", "U"), ("{a1}", "O")]),
            (sx.AtLeast(1, sx.Compose(sx.Inverse(r0), r1), sx.Nominal("a0")),
             [("atleast 1 (inv(r0) ; r1) {a0}", "Q"), ("atleast 1 (inv(r0) ; r1) {a0}", "basic"),
              ("inv(r0)", "I"), ("{a0}", "O")]),
        ]
        for expr, expected in cases:
            check = sx.validate_in_language(FeatureSet(), expr)
            assert [(sx.to_text(node), need) for node, need in check.violations] == expected


class TestNameChecks:
    @pytest.mark.parametrize("expr, message", [
        (sx.parse_assertion("(Z and A0)(zz)"), "unknown concept name 'Z'"),
        (sx.parse_assertion("not q(zz, a0)"), "unknown role name 'q' in q"),
        (sx.parse_assertion("r0(a0, zz)"), "unknown individual name 'zz'"),
        (sx.parse_role_axiom("q ; inv(q) sub p"), "unknown role name 'p' in p"),
        (sx.parse_role_axiom("eps sub p"), "unknown role name 'p' in p"),
        (sx.parse_concept("(A0 or self q)"), "unknown role name 'q' in self q"),
        (sx.parse_assertion("a0 != zz"), "unknown individual name 'zz'"),
        (sx.parse_concept("all r0 {zz}"), "unknown individual name 'zz'"),
        (sx.KnowledgeBase(rbox=(sx.parse_role_axiom("r0 sub p"),),
                          tbox=(sx.parse_gci("Z sub A0"),)), "unknown role name 'p' in p"),
    ])
    def test_first_unknown_name(self, expr, message):
        # pre-order, except that an assertion's individuals come last
        with pytest.raises(UnknownNameError) as err:
            sx.check_names(SIG, expr)
        assert str(err.value) == message


class TestConverseNormalForm:
    def test_worked_example(self):
        role = sx.parse_role("inv(((r0 | inv(r1)) ; (r0)*))")
        expected = sx.parse_role("((inv(r0))* ; (inv(r0) | r1))")
        assert sx.to_cnf(role) == expected
        assert sx.in_cnf(expected)
        assert not sx.in_cnf(role)

    def test_symmetric_roles_drop_inversion(self):
        assert sx.to_cnf(sx.parse_role("inv(eps)")) == sx.Epsilon()
        assert sx.to_cnf(sx.parse_role("inv(U)")) == sx.UniversalRole()
        assert sx.to_cnf(sx.parse_role("inv(test(A0))")) == sx.parse_role("test(A0)")
        assert sx.to_cnf(sx.parse_role("inv(inv(r0))")) == sx.RoleName("r0")

    @given(_roles)
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_normal(self, role):
        once = sx.to_cnf(role)
        assert sx.in_cnf(once)
        assert sx.to_cnf(once) == once

    def test_exhaustive_small_roles(self):
        # every role of size <= 7 over one role name, evaluated both ways
        sig = make_signature(1, 1, 0)
        by_size: dict[int, list] = {
            1: [sx.RoleName("r0"), sx.Epsilon(), sx.UniversalRole()],
            2: [sx.Test(sx.Top()), sx.Test(sx.ConceptName("A0"))],
        }
        for size in range(2, 8):
            tier = by_size.setdefault(size, [])
            for inner in by_size[size - 1]:
                tier.append(sx.Inverse(inner))
                tier.append(sx.Star(inner))
            for lsize in range(1, size - 1):
                for left in by_size[lsize]:
                    for right in by_size[size - 1 - lsize]:
                        tier.append(sx.Compose(left, right))
                        tier.append(sx.RoleUnion(left, right))
        roles = [r for tier in by_size.values() for r in tier]
        assert len(roles) == 33353
        phi = FeatureSet.from_string("IU")
        rng = H.seeded(72)
        interps = [
            random_interpretation(rng, sig, 5, 0.3, 0.5),
            random_interpretation(rng, sig, 3, 0.5, 0.5),
            build_interpretation(sig, 2, {"A0": {0}}, {"r0": {(0, 1)}}),
        ]
        evaluators = [Evaluator(interp, phi) for interp in interps]
        for role in roles:
            cnf = sx.to_cnf(role)
            assert sx.in_cnf(cnf)
            for ev in evaluators:
                assert ev.role(role) == ev.role(cnf), sx.to_text(role)

    def test_semantics_preserved(self):
        rng = H.seeded(71)
        interps = [random_interpretation(rng, SIG, 6, 0.25, 0.5) for _ in range(4)]
        found = 0
        for c in H.enumerate_concepts(FeatureSet.from_string("I"), SIG, 5):
            if isinstance(c, sx.Some):
                role = c.role
                cnf = sx.to_cnf(role)
                if cnf == role:
                    continue
                found += 1
                for interp in interps:
                    assert H.matrix_eval_role(interp, role) == H.matrix_eval_role(interp, cnf)
        assert found > 50


class TestSharedTerms:
    """Every walker handles each distinct node once, however often it is shared.

    The terms here are far too large to print as trees, so every assertion
    compares plain values: a failing one must not make pytest repr a term.
    """

    FULL = FeatureSet.from_string("IOQUS")

    def small_interp(self):
        return build_interpretation(SIG, 3, {"A0": {2}, "A1": {0}},
                                    {"r0": {(0, 1), (2, 2)}, "r1": {(1, 2)}},
                                    {"a0": 0, "a1": 2})

    def test_doubling_chain(self):
        # 64 levels of And(c, c) over a 7-node term: 2**67 - 1 nodes as a tree
        inv = sx.Inverse(sx.Compose(sx.RoleName("r0"), sx.Inverse(sx.RoleName("r1"))))
        base = sx.Some(inv, sx.ConceptName("A0"))
        c = base
        for _ in range(64):
            c = sx.And(c, c)
        size = sx.ast_size(c)
        assert size == 2 ** 67 - 1
        violations = [(id(node), need) for node, need in
                      sx.validate_in_language(FeatureSet(), c).violations]
        assert violations == [(id(inv), "I"), (id(inv.role.right), "I")]
        ok = sx.validate_in_language(FeatureSet.from_string("I"), c).ok
        assert ok
        sx.check_names(SIG, c)
        normal = sx.in_cnf(c)
        assert not normal
        cnf = sx.to_cnf(c)
        normal, size = sx.in_cnf(cnf), sx.ast_size(cnf)
        assert normal and size == 7 * 2 ** 64 - 1
        node, shared = cnf, []
        for _ in range(64):
            shared.append(node.left is node.right)
            node = node.left
        assert shared == [True] * 64
        assert sx.to_text(node) == "some (r1 ; inv(r0)) A0"
        interp = self.small_interp()
        ext = eval_concept(interp, c, self.FULL)
        assert ext == {1}
        unknown = sx.ConceptName("Z")
        for _ in range(64):
            unknown = sx.Or(unknown, unknown)
        with pytest.raises(UnknownNameError, match="unknown concept name 'Z'"):
            sx.check_names(SIG, unknown)

    def test_printers_match_the_recursive_oracle(self):
        role = sx.parse_role("((inv(r0) | test({a0})) ; (eps | U)*)")
        c = sx.parse_concept("(atleast 2 inv(r1) self r0 or atmost 0 r0 not top)")
        for level in range(10):
            if level % 3 == 0:
                c = sx.And(sx.Some(role, c), sx.All(role, sx.Not(c)))
            elif level % 3 == 1:
                c = sx.Or(c, sx.AtLeast(level, sx.Inverse(sx.RoleName("r0")), c))
            else:
                role = sx.Compose(sx.Star(role), sx.RoleUnion(role, sx.Test(sx.Bottom())))
                c = sx.And(sx.AtMost(level, sx.RoleName("r1"), c), sx.Some(role, c))
        size = sx.ast_size(c)
        assert size > 2 ** 14
        terms = [c, role, sx.GCI(c, sx.Not(c)), sx.ConceptAssertion(c, "a1"),
                 sx.RoleAssertion(role, "a0", "a1"), sx.NegatedRoleAssertion(role, "a1", "a0"),
                 sx.ChainSub((sx.RoleName("r0"), sx.Inverse(sx.RoleName("r1"))), "r0"),
                 sx.EpsilonSub("r1"), sx.SameAs("a0", "a1"), sx.DifferentFrom("a1", "a0")]
        terms += H.enumerate_concepts(self.FULL, SIG, 4)
        for term in terms:
            text, oracle = sx.to_text(term), H.recursive_to_text(term)
            assert text == oracle
            text, oracle = sx.to_unicode(term), H.recursive_to_unicode(term)
            assert text == oracle
        same = sx.parse_concept(sx.to_text(c)) == c
        assert same
        for bad in (sx.KnowledgeBase(), sx.Not(object()), sx.Some(sx.RoleName("r0"), "top")):
            with pytest.raises(TypeError):
                sx.to_text(bad)
            with pytest.raises(TypeError):
                sx.to_unicode(bad)

    def test_deep_unshared_chain(self):
        # built directly: the parser stops at MAX_DEPTH levels
        depth = 100_000
        c = sx.ConceptName("A0")
        for _ in range(depth):
            c = sx.Not(c)
        sizes = [sx.ast_size(c), sx.ast_size(sx.to_cnf(c))]
        assert sizes == [depth + 1] * 2
        checks = [sx.validate_in_language(self.FULL, c).ok, sx.in_cnf(c)]
        assert checks == [True, True]
        sx.check_names(SIG, c)
        text, symbols = sx.to_text(c), sx.to_unicode(c)
        assert text == "not " * depth + "A0"
        assert symbols == "¬" * depth + "A0"
        ext = eval_concept(self.small_interp(), c, self.FULL)
        assert ext == {2}

    @pytest.mark.parametrize("phi", ["", "Q"])
    def test_path_witness(self, phi):
        # the separating concept of a path's first two elements nests one
        # restriction per level, n - 2 deep: a chain, linear as a tree
        n = 200
        sig = make_signature(1, 1, 0)
        interp = build_interpretation(sig, n, {"A0": {n - 1}},
                                      {"r0": {(i, i + 1) for i in range(n - 1)}}, {})
        start = time.perf_counter()
        _, trace = compute_partition(FeatureSet.from_string(phi), to_labeled_graph(interp),
                                     want_trace=True)
        witness = separating_concept(interp, trace, 0, 1)
        seconds = time.perf_counter() - start
        assert seconds < 2.0
        size = sx.ast_size(witness.concept)
        assert n - 2 < size <= 4 * (n - 2)
        assert sx.validate_in_language(FeatureSet.from_string(phi), witness.concept).ok
        assert sx.to_text(witness.concept) == H.recursive_to_text(witness.concept)
