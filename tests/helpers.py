"""Shared utilities for the test suite.

Seeded instance generators, an exhaustive concept enumerator (subterms
are shared, so one memoising Evaluator prices each enumerated concept at
a single set operation), recursive tree printers that the iterative DAG
printers are checked against, an independent matrix-based model checker, a
brute-force role closure oracle, and the modal depth of a concept.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from dlbisim import syntax as sx
from dlbisim.core import (
    BisimRelation,
    FeatureSet,
    Interpretation,
    Signature,
    build_interpretation,
)
from dlbisim.gen import make_signature, random_interpretation

ALL_PHIS = FeatureSet.all_subsets()


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def small_instance(rng: random.Random, max_concepts: int = 2, max_roles: int = 2,
                   max_individuals: int = 2, max_n: int = 12) -> Interpretation:
    """One random instance inside the small-model budget."""
    sig = make_signature(rng.randint(0, max_concepts),
                         rng.randint(0, max_roles),
                         rng.randint(0, max_individuals))
    n = rng.randint(1, max_n)
    return random_interpretation(rng, sig, n,
                                 edge_density=rng.uniform(0.05, 0.4),
                                 concept_density=rng.uniform(0.2, 0.8))


def instance_pair(rng: random.Random, max_concepts: int = 2, max_roles: int = 2,
                  max_individuals: int = 2, max_n: int = 12):
    """Two random instances over one shared signature."""
    sig = make_signature(rng.randint(0, max_concepts),
                         rng.randint(0, max_roles),
                         rng.randint(0, max_individuals))
    out = []
    for _ in range(2):
        n = rng.randint(1, max_n)
        out.append(random_interpretation(rng, sig, n,
                                         edge_density=rng.uniform(0.05, 0.4),
                                         concept_density=rng.uniform(0.2, 0.8)))
    return out[0], out[1]


def sparse_model(rng: random.Random, n: int, n_roles: int = 3, max_out: int = 4,
                 n_concepts: int = 0) -> Interpretation:
    """n elements with 0..max_out random successors along each role."""
    sig = make_signature(n_concepts, n_roles, 0)
    concept_ext = {a: {x for x in range(n) if rng.random() < 0.5} for a in sig.concept_names}
    role_ext = {r: {(x, rng.randrange(n))
                    for x in range(n) for _ in range(rng.randint(0, max_out))}
                for r in sig.role_names}
    return build_interpretation(sig, n, concept_ext, role_ext, {})


def cut_copy(rng: random.Random, interp: Interpretation):
    """A copy of interp (no individuals) missing one of its edges, and the
    two as one interpretation, the copy's elements after interp's: the
    numbering of disjoint_union_graph(interp, copy)."""
    roles = {r: set(pairs) for r, pairs in interp.role_ext.items()}
    role = rng.choice(sorted(r for r, pairs in roles.items() if pairs))
    roles[role].discard(rng.choice(sorted(roles[role])))
    copy = build_interpretation(interp.signature, interp.n, dict(interp.concept_ext), roles, {})
    n = interp.n
    union = build_interpretation(
        interp.signature, 2 * n,
        {a: set(ext) | {x + n for x in ext} for a, ext in interp.concept_ext.items()},
        {r: set(interp.role_ext[r]) | {(x + n, y + n) for x, y in roles[r]} for r in roles},
        {})
    return copy, union


def marked_path(n: int) -> Interpretation:
    """0 -r0-> 1 -r0-> ... -r0-> n-1, with only n-1 in A0."""
    return build_interpretation(make_signature(1, 1, 0), n, {"A0": {n - 1}},
                                {"r0": {(i, i + 1) for i in range(n - 1)}}, {})


def binary_tree(depth: int) -> Interpretation:
    """Complete binary tree along r0, its leaves in A0."""
    nodes = 2 ** (depth + 1) - 1
    first_leaf = 2 ** depth - 1
    return build_interpretation(make_signature(1, 1, 0), nodes, {"A0": set(range(first_leaf, nodes))},
                                {"r0": {(i, c) for i in range(first_leaf) for c in (2 * i + 1, 2 * i + 2)}},
                                {})


def two_role_chain(n: int) -> Interpretation:
    """A marked path whose edges alternate between r0 and r1."""
    return build_interpretation(make_signature(1, 2, 0), n, {"A0": {n - 1}},
                                {"r0": {(i, i + 1) for i in range(0, n - 1, 2)},
                                 "r1": {(i, i + 1) for i in range(1, n - 1, 2)}}, {})


def equal_cycle(n: int) -> Interpretation:
    """An unlabelled r0-cycle: all elements bisimilar."""
    return build_interpretation(make_signature(0, 1, 0), n, {},
                                {"r0": {(i, (i + 1) % n) for i in range(n)}}, {})


def assert_clean(report) -> None:
    assert report.ok, "\n".join(report.to_lines())


# ---------------------------------------------------------------------------
# concept enumeration by syntax-tree size


@lru_cache(maxsize=None)
def enumerate_concepts(phi: FeatureSet, sig: Signature, max_size: int = 5,
                       max_bound: int = 2) -> tuple:
    """Every concept of ast_size <= max_size admitted by phi over sig.

    Number restriction bounds are capped at max_bound; names and bounds
    are free, so without a cap the set is infinite.  Returned concepts
    share subterm objects: evaluating the whole batch through a single
    Evaluator costs one set operation per distinct node.
    """
    cs: dict[int, list] = {k: [] for k in range(1, max_size + 1)}
    rs: dict[int, list] = {k: [] for k in range(1, max_size + 1)}

    cs[1] = [sx.Top(), sx.Bottom()] + [sx.ConceptName(a) for a in sig.concept_names]
    if phi.nominals:
        cs[1] += [sx.Nominal(a) for a in sig.individual_names]
    if phi.local_refl:
        cs[1] += [sx.HasSelf(r) for r in sig.role_names]
    rs[1] = [sx.RoleName(r) for r in sig.role_names] + [sx.Epsilon()]
    if phi.universal:
        rs[1].append(sx.UniversalRole())
    basic = [sx.RoleName(r) for r in sig.role_names]
    if phi.inverse:
        basic += [sx.Inverse(sx.RoleName(r)) for r in sig.role_names]

    for size in range(2, max_size + 1):
        rout: list = []
        cout: list = []
        if phi.inverse:
            rout += [sx.Inverse(r) for r in rs[size - 1]]
        rout += [sx.Star(r) for r in rs[size - 1]]
        rout += [sx.Test(c) for c in cs[size - 1]]
        cout += [sx.Not(c) for c in cs[size - 1]]
        for i in range(1, size - 1):
            j = size - 1 - i
            rout += [sx.Compose(a, b) for a in rs[i] for b in rs[j]]
            rout += [sx.RoleUnion(a, b) for a in rs[i] for b in rs[j]]
            cout += [sx.And(a, b) for a in cs[i] for b in cs[j]]
            cout += [sx.Or(a, b) for a in cs[i] for b in cs[j]]
            cout += [sx.Some(r, c) for r in rs[i] for c in cs[j]]
            cout += [sx.All(r, c) for r in rs[i] for c in cs[j]]
        if phi.counting:
            for r in basic:
                room = size - 1 - sx.ast_size(r)
                if room >= 1:
                    for c in cs[room]:
                        for b in range(0, max_bound + 1):
                            cout.append(sx.AtLeast(b, r, c))
                            cout.append(sx.AtMost(b, r, c))
        rs[size] = rout
        cs[size] = cout

    return tuple(c for k in range(1, max_size + 1) for c in cs[k])


# ---------------------------------------------------------------------------
# recursive tree printers: the oracle for syntax.to_text and to_unicode


def recursive_to_text(node) -> str:
    """ASCII rendering by plain recursion over the tree."""
    t = recursive_to_text
    if isinstance(node, sx.Top):
        return "top"
    if isinstance(node, sx.Bottom):
        return "bottom"
    if isinstance(node, (sx.ConceptName, sx.RoleName)):
        return node.name
    if isinstance(node, sx.Nominal):
        return "{%s}" % node.name
    if isinstance(node, sx.Not):
        return "not %s" % t(node.concept)
    if isinstance(node, sx.And):
        return "(%s and %s)" % (t(node.left), t(node.right))
    if isinstance(node, sx.Or):
        return "(%s or %s)" % (t(node.left), t(node.right))
    if isinstance(node, sx.Some):
        return "some %s %s" % (t(node.role), t(node.concept))
    if isinstance(node, sx.All):
        return "all %s %s" % (t(node.role), t(node.concept))
    if isinstance(node, sx.AtLeast):
        return "atleast %d %s %s" % (node.bound, t(node.role), t(node.concept))
    if isinstance(node, sx.AtMost):
        return "atmost %d %s %s" % (node.bound, t(node.role), t(node.concept))
    if isinstance(node, sx.HasSelf):
        return "self %s" % node.role
    if isinstance(node, sx.Inverse):
        return "inv(%s)" % t(node.role)
    if isinstance(node, sx.Compose):
        return "(%s ; %s)" % (t(node.left), t(node.right))
    if isinstance(node, sx.RoleUnion):
        return "(%s | %s)" % (t(node.left), t(node.right))
    if isinstance(node, sx.Star):
        return "(%s)*" % t(node.role)
    if isinstance(node, sx.Test):
        return "test(%s)" % t(node.concept)
    if isinstance(node, sx.Epsilon):
        return "eps"
    if isinstance(node, sx.UniversalRole):
        return "U"
    if isinstance(node, sx.EpsilonSub):
        return "eps sub %s" % node.role
    if isinstance(node, sx.ChainSub):
        return "%s sub %s" % (" ; ".join(t(b) for b in node.chain), node.role)
    if isinstance(node, sx.GCI):
        return "%s sub %s" % (t(node.lhs), t(node.rhs))
    if isinstance(node, sx.ConceptAssertion):
        return "%s(%s)" % (t(node.concept), node.individual)
    if isinstance(node, sx.RoleAssertion):
        return "%s(%s, %s)" % (t(node.role), node.a, node.b)
    if isinstance(node, sx.NegatedRoleAssertion):
        return "not %s(%s, %s)" % (t(node.role), node.a, node.b)
    if isinstance(node, sx.SameAs):
        return "%s = %s" % (node.a, node.b)
    if isinstance(node, sx.DifferentFrom):
        return "%s != %s" % (node.a, node.b)
    raise TypeError("cannot print %r" % (node,))


def recursive_to_unicode(node) -> str:
    """Symbol rendering by plain recursion; ASCII for axioms and assertions."""
    u = recursive_to_unicode
    if isinstance(node, sx.Top):
        return "⊤"
    if isinstance(node, sx.Bottom):
        return "⊥"
    if isinstance(node, (sx.ConceptName, sx.RoleName)):
        return node.name
    if isinstance(node, sx.Nominal):
        return "{%s}" % node.name
    if isinstance(node, sx.Not):
        return "¬%s" % u(node.concept)
    if isinstance(node, sx.And):
        return "(%s ⊓ %s)" % (u(node.left), u(node.right))
    if isinstance(node, sx.Or):
        return "(%s ⊔ %s)" % (u(node.left), u(node.right))
    if isinstance(node, sx.Some):
        return "∃%s.%s" % (u(node.role), u(node.concept))
    if isinstance(node, sx.All):
        return "∀%s.%s" % (u(node.role), u(node.concept))
    if isinstance(node, sx.AtLeast):
        return "(≥ %d %s.%s)" % (node.bound, u(node.role), u(node.concept))
    if isinstance(node, sx.AtMost):
        return "(≤ %d %s.%s)" % (node.bound, u(node.role), u(node.concept))
    if isinstance(node, sx.HasSelf):
        return "∃%s.Self" % node.role
    if isinstance(node, sx.Inverse):
        inner = u(node.role)
        return ("%s⁻" if isinstance(node.role, sx.RoleName) else "(%s)⁻") % inner
    if isinstance(node, sx.Compose):
        return "(%s ∘ %s)" % (u(node.left), u(node.right))
    if isinstance(node, sx.RoleUnion):
        return "(%s ∪ %s)" % (u(node.left), u(node.right))
    if isinstance(node, sx.Star):
        return "(%s)*" % u(node.role)
    if isinstance(node, sx.Test):
        return "%s?" % u(node.concept)
    if isinstance(node, sx.Epsilon):
        return "ε"
    if isinstance(node, sx.UniversalRole):
        return "U"
    return recursive_to_text(node)


# ---------------------------------------------------------------------------
# independent matrix-based model checker


def _role_matrix(interp: Interpretation, r) -> np.ndarray:
    n = interp.n
    if isinstance(r, sx.RoleName):
        m = np.zeros((n, n), dtype=bool)
        for x, y in interp.role_ext[r.name]:
            m[x, y] = True
        return m
    if isinstance(r, sx.Inverse):
        return _role_matrix(interp, r.role).T
    if isinstance(r, sx.Compose):
        a = _role_matrix(interp, r.left).astype(np.int64)
        b = _role_matrix(interp, r.right).astype(np.int64)
        return (a @ b) > 0
    if isinstance(r, sx.RoleUnion):
        return _role_matrix(interp, r.left) | _role_matrix(interp, r.right)
    if isinstance(r, sx.Star):
        m = _role_matrix(interp, r.role) | np.eye(n, dtype=bool)
        while True:
            nxt = m | ((m.astype(np.int64) @ m.astype(np.int64)) > 0)
            if (nxt == m).all():
                return m
            m = nxt
    if isinstance(r, sx.Test):
        return np.diag(_concept_vector(interp, r.concept))
    if isinstance(r, sx.Epsilon):
        return np.eye(n, dtype=bool)
    if isinstance(r, sx.UniversalRole):
        return np.ones((n, n), dtype=bool)
    raise TypeError(r)


def _concept_vector(interp: Interpretation, c) -> np.ndarray:
    n = interp.n
    if isinstance(c, sx.Top):
        return np.ones(n, dtype=bool)
    if isinstance(c, sx.Bottom):
        return np.zeros(n, dtype=bool)
    if isinstance(c, sx.ConceptName):
        v = np.zeros(n, dtype=bool)
        v[sorted(interp.concept_ext[c.name])] = True
        return v
    if isinstance(c, sx.Nominal):
        v = np.zeros(n, dtype=bool)
        v[interp.individual_map[c.name]] = True
        return v
    if isinstance(c, sx.Not):
        return ~_concept_vector(interp, c.concept)
    if isinstance(c, sx.And):
        return _concept_vector(interp, c.left) & _concept_vector(interp, c.right)
    if isinstance(c, sx.Or):
        return _concept_vector(interp, c.left) | _concept_vector(interp, c.right)
    if isinstance(c, sx.Some):
        m = _role_matrix(interp, c.role)
        return (m & _concept_vector(interp, c.concept)[None, :]).any(axis=1)
    if isinstance(c, sx.All):
        m = _role_matrix(interp, c.role)
        return ~((m & ~_concept_vector(interp, c.concept)[None, :]).any(axis=1))
    if isinstance(c, sx.AtLeast):
        m = _role_matrix(interp, c.role)
        deg = (m & _concept_vector(interp, c.concept)[None, :]).sum(axis=1)
        return deg >= c.bound
    if isinstance(c, sx.AtMost):
        m = _role_matrix(interp, c.role)
        deg = (m & _concept_vector(interp, c.concept)[None, :]).sum(axis=1)
        return deg <= c.bound
    if isinstance(c, sx.HasSelf):
        m = _role_matrix(interp, sx.RoleName(c.role))
        return np.diag(m).copy()
    raise TypeError(c)


def matrix_eval_concept(interp: Interpretation, concept) -> frozenset[int]:
    """Concept extension computed with boolean matrices, no shared code."""
    return frozenset(int(x) for x in np.flatnonzero(_concept_vector(interp, concept)))


def matrix_eval_role(interp: Interpretation, role) -> frozenset[tuple[int, int]]:
    m = _role_matrix(interp, role)
    return frozenset((int(x), int(y)) for x, y in zip(*np.nonzero(m)))


# ---------------------------------------------------------------------------
# brute-force role closure


def _basic_parts(part) -> tuple[str, bool]:
    if isinstance(part, sx.RoleName):
        return part.name, False
    if isinstance(part, sx.Inverse) and isinstance(part.role, sx.RoleName):
        return part.role.name, True
    raise TypeError(part)


def closure_oracle(interp: Interpretation, axioms) -> dict[str, frozenset]:
    """Least extension of the role extensions satisfying the axioms,
    computed by naive iteration to a fixpoint."""
    rel = {r: set(pairs) for r, pairs in interp.role_ext.items()}
    ident = {(x, x) for x in interp.domain}
    changed = True
    while changed:
        changed = False
        for ax in axioms:
            if isinstance(ax, sx.EpsilonSub):
                add = ident - rel[ax.role]
            else:
                pairs = set(ident)
                for part in ax.chain:
                    name, inverted = _basic_parts(part)
                    step = rel[name]
                    if inverted:
                        step = {(y, x) for x, y in step}
                    by_src: dict[int, list[int]] = {}
                    for x, y in step:
                        by_src.setdefault(x, []).append(y)
                    pairs = {(x, z) for x, y in pairs for z in by_src.get(y, ())}
                add = pairs - rel[ax.role]
            if add:
                rel[ax.role] |= add
                changed = True
    return {r: frozenset(v) for r, v in rel.items()}


def modal_depth(root) -> int:
    """Nesting depth of the role restrictions (some, all, atleast,
    atmost) in a term; names, nominals, self and the constants have 0.
    Each distinct node is visited once, from an explicit stack."""
    memo: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        kids = sx.children(node)
        todo = [kid for kid in kids if id(kid) not in memo]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        below = max((memo[id(kid)] for kid in kids), default=0)
        memo[id(node)] = below + isinstance(node, (sx.Some, sx.All, sx.AtLeast, sx.AtMost))
    return memo[id(root)]


# ---------------------------------------------------------------------------
# duplication with edge thinning


def duplicated_thinned(rng: random.Random, interp: Interpretation):
    """A variant with every unnamed element doubled and, per original
    edge, a random choice of copy-to-copy edges that still covers every
    source copy and every target copy.  The canonical relation (element,
    any of its copies) is a bisimulation whenever counting is off."""
    named = set(interp.individual_map.values())
    copies: dict[int, list[int]] = {}
    k = 0
    for x in interp.domain:
        reps = 1 if x in named else 2
        copies[x] = list(range(k, k + reps))
        k += reps

    concept_ext = {a: {c for x in ext for c in copies[x]}
                   for a, ext in interp.concept_ext.items()}
    role_ext: dict[str, set] = {}
    for r, pairs in interp.role_ext.items():
        out = set()
        for x, y in pairs:
            if x == y:
                # copies must keep their own loops, or self tests diverge
                chosen = {(s, s) for s in copies[x]}
            else:
                chosen = {(s, rng.choice(copies[y])) for s in copies[x]}
                for t in copies[y]:
                    if all(st != t for _, st in chosen):
                        chosen.add((rng.choice(copies[x]), t))
            for s in copies[x]:
                for t in copies[y]:
                    if (s, t) not in chosen and rng.random() < 0.3:
                        chosen.add((s, t))
            out |= chosen
        role_ext[r] = out
    individual_map = {a: copies[x][0] for a, x in interp.individual_map.items()}
    dup = build_interpretation(interp.signature, k, concept_ext, role_ext, individual_map)
    zpairs = frozenset((x, c) for x in interp.domain for c in copies[x])
    return dup, BisimRelation(interp.n, k, zpairs)
