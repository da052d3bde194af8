"""Model checking: concept and role evaluation, axiom and KB verdicts.

A concept's extension is a numpy bool vector over the domain 0..n-1,
and no role is ever stored as a set of pairs.  `some R C` is the
preimage pre_R(C), the elements with an R-successor in C, and `all R C`
is the complement of pre_R(not C).  The preimage recurses over the
role's syntax tree, one work item per role node:

    pre_r(T)      tails of the r-edges whose head is in T
    pre_inv(R)    the same walk with every edge reversed (the image of T)
    pre_(R;S)(T)  pre_R(pre_S(T))
    pre_(R|S)(T)  pre_R(T) or pre_S(T)
    pre_R*(T)     T, then pre_R of the elements reached in the round
                  before, until no round reaches a new element
    pre_C?(T)     T and C
    pre_eps(T)    T
    pre_U(T)      every element when T is non-empty, else none

Roles are read through Interpretation.in_edges, per basic role the edge
arrays grouped by target.  Number restrictions count along a basic role
with np.bincount over those arrays, self tests read the diagonal.
QS-interpretations reinterpret exactly these two: counts sum the stored
edge multiplicities (QSInterpretation.in_weights, aligned to the edge
arrays), and self tests read the stored se sets.  Everything else is
inherited from the underlying interpretation.

Cost, for n elements and m edges: a concept node costs O(n) vector
work plus the role steps under it.  A role-name step reads its input
at the head of every edge, O(n + m).  The
closure of a role name or its inverse walks index arrays of the newly
reached elements only, O(n + m) in all.  The closure of a compound role
costs one preimage of that role per round; stars and inverses directly
under a star are peeled first ((R*)* = R*, (inv R)* = inv(R*)), but a
star inside a compound role under a star is walked afresh in every
outer round, which is quadratic in the worst case.  Evaluation is
bottom-up from an explicit stack and memoised on subterm identity, so
shared subtrees (the witness builder produces heavily shared DAGs) are
evaluated once and nesting depth costs no Python frames.

Only role extensions and role assertions need pairs.  They come from
the preimages of singletons, computed as the columns of n x k bool
matrices, so eval_role costs O(n (n + m)) for the up to n^2 pairs it
returns.  A chain role axiom is checked on pair keys instead: the edge
arrays are joined step by step into the distinct pairs the chain
reaches, which are then looked up among the role's edges, O(p log p)
for p pairs reached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import syntax as sx
from .core import Interpretation, QSInterpretation
from .errors import FeatureViolationError, UnknownNameError

# work items of the preimage loop
_EVAL, _UNION, _OR, _STAR = range(4)
# cells per bool matrix of singleton targets in Evaluator.role
_BATCH_CELLS = 1 << 22


def _require(phi, expr):
    check = sx.validate_in_language(phi, expr)
    if not check.ok:
        node, need = check.violations[0]
        raise FeatureViolationError(
            "%s is not in the active language (needs %s)" % (sx.to_text(node), need),
            check.violations,
        )


def _closure(ptr, tail, targets: np.ndarray) -> np.ndarray:
    """pre_b* of every column of targets for a basic role b (semi-naive).

    Each round gathers, through the CSR ranges of ptr, the edges into
    the elements reached in the round before, and keeps each newly
    reached (element, column) cell once, so the closure costs O(n + m)
    per column.
    """
    k = targets.shape[1]
    seen = targets.copy()
    flat = seen.reshape(-1)
    last = np.zeros(len(flat), dtype=np.int64)
    frontier = np.flatnonzero(flat)
    while len(frontier):
        heads = frontier // k if k > 1 else frontier
        lo = ptr[heads]
        cnt = ptr[heads + 1] - lo
        cells = tail[np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())]
        if k > 1:
            cells = cells * k + np.repeat(frontier % k, cnt)
        cells = cells[~flat[cells]]
        # keep one occurrence of each cell: the one whose position was stored
        order = np.arange(len(cells))
        last[cells] = order
        frontier = cells[last[cells] == order]
        flat[frontier] = True
    return seen


class Evaluator:
    """Evaluates concepts, roles and axioms against one interpretation.

    Reusable across many terms; the memo is keyed by subterm object
    identity and lives as long as the evaluator.
    """

    def __init__(self, interp: Interpretation, phi, qs: QSInterpretation | None = None):
        self.interp = interp
        self.phi = phi
        self.qs = qs
        self._memo: dict[int, np.ndarray | None] = {}
        self._keepalive: list = []

    def concept(self, c) -> frozenset[int]:
        _require(self.phi, c)
        sx.check_names(self.interp.signature, c)
        return frozenset(np.flatnonzero(self._value(c)).tolist())

    def role(self, r) -> frozenset[tuple[int, int]]:
        _require(self.phi, r)
        sx.check_names(self.interp.signature, r)
        self._value(r)
        n = self.interp.n
        m = sum(len(pairs) for pairs in self.interp.role_ext.values())
        k = max(1, min(n, _BATCH_CELLS // max(n, m)))
        pairs = []
        for lo in range(0, n, k):
            # column j: the singleton {lo + j}
            targets = np.eye(n, min(k, n - lo), -lo, dtype=bool)
            xs, ys = np.divmod(np.flatnonzero(self._pre(r, targets)), targets.shape[1])
            pairs.extend(zip(xs.tolist(), (ys + lo).tolist()))
        return frozenset(pairs)

    def _value(self, root):
        """Bool vector of a concept, None for a role; memoises every subterm."""
        memo = self._memo
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            pending = [c for c in sx.children(node) if id(c) not in memo]
            if pending:
                stack.extend(pending)
            else:
                stack.pop()
                memo[id(node)] = self._node(node)
                self._keepalive.append(node)
        return memo[id(root)]

    def _node(self, c):
        """Value of one node whose children are memoised."""
        interp = self.interp
        memo = self._memo
        n = interp.n
        if isinstance(c, sx.Top):
            return np.ones(n, dtype=bool)
        if isinstance(c, sx.Bottom):
            return np.zeros(n, dtype=bool)
        if isinstance(c, (sx.ConceptName, sx.Nominal, sx.HasSelf)):
            out = np.zeros(n, dtype=bool)
            if isinstance(c, sx.ConceptName):
                ext = interp.concept_ext[c.name]
                out[np.fromiter(ext, dtype=np.int64, count=len(ext))] = True
            elif isinstance(c, sx.Nominal):
                out[interp.individual_map[c.name]] = True
            elif self.qs is not None:
                se = self.qs.se[c.role]
                out[np.fromiter(se, dtype=np.int64, count=len(se))] = True
            else:
                _, tail, head = interp.in_edges(c.role, False)
                out[tail[tail == head]] = True
            return out
        if isinstance(c, sx.Not):
            return ~memo[id(c.concept)]
        if isinstance(c, sx.And):
            return memo[id(c.left)] & memo[id(c.right)]
        if isinstance(c, sx.Or):
            return memo[id(c.left)] | memo[id(c.right)]
        if isinstance(c, sx.Some):
            return self._pre(c.role, memo[id(c.concept)][:, None])[:, 0]
        if isinstance(c, sx.All):
            return ~self._pre(c.role, ~memo[id(c.concept)][:, None])[:, 0]
        if isinstance(c, (sx.AtLeast, sx.AtMost)):
            inverted = isinstance(c.role, sx.Inverse)
            name = c.role.role.name if inverted else c.role.name
            _, tail, head = interp.in_edges(name, inverted)
            hit = memo[id(c.concept)][head]
            if self.qs is None:
                counts = np.bincount(tail[hit], minlength=n)
            else:
                weights = self.qs.in_weights(name, inverted)
                counts = np.bincount(tail, weights=weights * hit, minlength=n)
            return counts >= c.bound if isinstance(c, sx.AtLeast) else counts <= c.bound
        if isinstance(c, (sx.RoleName, sx.Inverse, sx.Compose, sx.RoleUnion, sx.Star,
                          sx.Test, sx.Epsilon, sx.UniversalRole)):
            return None
        raise TypeError("not a concept or role node: %r" % (c,))

    def _pre(self, role, targets: np.ndarray) -> np.ndarray:
        """pre_R of every column of the n x k bool matrix targets.

        The tests under role must already be memoised (see _value).  A
        work stack replaces recursion; cur holds the value flowing
        through it, and inv marks a subterm read under an odd number of
        inversions, whose preimage is its image.
        """
        memo = self._memo
        edges = self.interp.in_edges
        cur = targets
        work = [(_EVAL, role, False, None)]
        while work:
            op, node, inv, aux = work.pop()
            if op == _EVAL:
                kind = type(node)
                if kind is sx.RoleName:
                    _, tail, head = edges(node.name, inv)
                    hits, cols = np.divmod(np.flatnonzero(cur[head]), cur.shape[1])
                    cur = np.zeros(cur.shape, dtype=bool)
                    cur[tail[hits], cols] = True
                elif kind is sx.Inverse:
                    work.append((_EVAL, node.role, not inv, None))
                elif kind is sx.Compose:
                    first, then = (node.left, node.right) if inv else (node.right, node.left)
                    work.append((_EVAL, then, inv, None))
                    work.append((_EVAL, first, inv, None))
                elif kind is sx.RoleUnion:
                    work.append((_UNION, node.right, inv, cur))
                    work.append((_EVAL, node.left, inv, None))
                elif kind is sx.Star:
                    # (R*)* = R* and (inv R)* = inv(R*): peel both before iterating
                    inner = node.role
                    while type(inner) in (sx.Star, sx.Inverse):
                        inv ^= type(inner) is sx.Inverse
                        inner = inner.role
                    if type(inner) is sx.RoleName:
                        ptr, tail, _ = edges(inner.name, inv)
                        cur = _closure(ptr, tail, cur)
                    else:
                        work.append((_STAR, inner, inv, cur))
                        work.append((_EVAL, inner, inv, None))
                elif kind is sx.Test:
                    cur = cur & memo[id(node.concept)][:, None]
                elif kind is sx.UniversalRole:
                    cur = np.repeat(cur.any(axis=0, keepdims=True), len(cur), axis=0)
                elif kind is not sx.Epsilon:
                    raise TypeError("not a role node: %r" % (node,))
            elif op == _STAR:
                new = cur & ~aux
                if new.any():
                    work.append((_STAR, node, inv, aux | new))
                    work.append((_EVAL, node, inv, None))
                    cur = new
                else:
                    cur = aux
            elif op == _UNION:
                # cur is the left operand's preimage, aux the union's input
                work.append((_OR, None, inv, cur))
                work.append((_EVAL, node, inv, None))
                cur = aux
            else:
                cur = cur | aux
        return cur

    def _holds(self, axiom) -> bool:
        """Verdict of one KB axiom, without validation."""
        imap = self.interp.individual_map
        if isinstance(axiom, (sx.EpsilonSub, sx.ChainSub)):
            return check_role_axiom(self.interp, axiom)
        if isinstance(axiom, sx.GCI):
            return not (self._value(axiom.lhs) & ~self._value(axiom.rhs)).any()
        if isinstance(axiom, sx.ConceptAssertion):
            return bool(self._value(axiom.concept)[imap[axiom.individual]])
        if isinstance(axiom, (sx.RoleAssertion, sx.NegatedRoleAssertion)):
            self._value(axiom.role)
            target = np.zeros((self.interp.n, 1), dtype=bool)
            target[imap[axiom.b], 0] = True
            related = bool(self._pre(axiom.role, target)[imap[axiom.a], 0])
            return related == isinstance(axiom, sx.RoleAssertion)
        if isinstance(axiom, sx.SameAs):
            return imap[axiom.a] == imap[axiom.b]
        if isinstance(axiom, sx.DifferentFrom):
            return imap[axiom.a] != imap[axiom.b]
        raise TypeError("not an axiom: %r" % (axiom,))


def eval_concept(interp: Interpretation, concept, phi) -> frozenset[int]:
    """Extension of the concept, validated against phi first."""
    return Evaluator(interp, phi).concept(concept)


def eval_role(interp: Interpretation, role, phi) -> frozenset[tuple[int, int]]:
    """Extension of the role, validated against phi first."""
    return Evaluator(interp, phi).role(role)


def eval_concept_qs(qsi: QSInterpretation, concept, phi) -> frozenset[int]:
    """Extension of the concept under the QS reading of counts and self."""
    return Evaluator(qsi.base, phi, qs=qsi).concept(concept)


def check_role_axiom(interp: Interpretation, axiom) -> bool:
    if isinstance(axiom, sx.EpsilonSub):
        target = interp.role_ext[axiom.role]
        return all((x, x) in target for x in interp.domain)
    if isinstance(axiom, sx.ChainSub):
        # the pairs (x, z) the chain reaches from x, kept as distinct keys
        # x * n + z, must all be edges of the role
        n = interp.n
        start = here = np.arange(n, dtype=np.int64)
        for basic in axiom.chain:
            name, inverted = _basic_parts(basic)
            ptr, tail, _ = interp.in_edges(name, not inverted)
            deg = ptr[here + 1] - ptr[here]
            row_start = np.repeat(np.cumsum(deg) - deg, deg)
            here = tail[np.repeat(ptr[here], deg) + np.arange(len(row_start)) - row_start]
            keys = np.unique(np.repeat(start, deg) * n + here)
            start, here = keys // n, keys % n
        _, tail, head = interp.in_edges(axiom.role, False)
        return bool(np.isin(start * n + here, tail * n + head).all())
    raise TypeError("not a role axiom: %r" % (axiom,))


def _checked_verdict(interp: Interpretation, axiom, phi) -> bool:
    _require(phi, axiom)
    sx.check_names(interp.signature, axiom)
    return Evaluator(interp, phi)._holds(axiom)


def check_gci(interp: Interpretation, gci: sx.GCI, phi) -> bool:
    return _checked_verdict(interp, gci, phi)


def check_assertion(interp: Interpretation, assertion, phi) -> bool:
    return _checked_verdict(interp, assertion, phi)


@dataclass
class KBReport:
    """Per-axiom verdicts for one interpretation against one KB."""

    entries: list  # (section, index, axiom, holds)

    @property
    def ok(self) -> bool:
        return all(holds for _, _, _, holds in self.entries)

    def to_lines(self) -> list[str]:
        out = []
        for section, i, axiom, holds in self.entries:
            verdict = "holds" if holds else "FAILS"
            out.append("%s[%d] %s: %s" % (section, i, verdict, sx.to_text(axiom)))
        return out


def check_kb(interp: Interpretation, kb: sx.KnowledgeBase, phi) -> KBReport:
    """Verdict per axiom, from one evaluator; rejects a KB outside the active language."""
    _require(phi, kb)
    sx.check_names(interp.signature, kb)
    ev = Evaluator(interp, phi)
    entries = [(section, i, axiom, ev._holds(axiom))
               for section, axioms in (("rbox", kb.rbox), ("tbox", kb.tbox), ("abox", kb.abox))
               for i, axiom in enumerate(axioms)]
    return KBReport(entries)


def _basic_parts(basic) -> tuple[str, bool]:
    if isinstance(basic, sx.RoleName):
        return basic.name, False
    if isinstance(basic, sx.Inverse) and isinstance(basic.role, sx.RoleName):
        return basic.role.name, True
    raise TypeError("chain axioms take basic roles, got %r" % (basic,))


def least_r_extension(interp: Interpretation, axioms) -> Interpretation:
    """Smallest superset of the role extensions satisfying every axiom.

    Worklist closure: each newly derived edge is matched against every
    chain position it can instantiate, prefix and suffix sets are walked
    through the current relations, and the resulting pairs land in the
    target role.  Concept extensions and individuals are untouched.
    """
    for ax in axioms:
        if not isinstance(ax, (sx.EpsilonSub, sx.ChainSub)):
            raise TypeError("not a role axiom: %r" % (ax,))
        if isinstance(ax, sx.ChainSub):
            for b in ax.chain:
                _basic_parts(b)
        if ax.role not in interp.signature.role_index:
            raise UnknownNameError("unknown role name %r in role axiom" % ax.role)

    rels: dict[str, set] = {r: set(pairs) for r, pairs in interp.role_ext.items()}
    succ: dict[str, dict[int, set]] = {r: {} for r in rels}
    pred: dict[str, dict[int, set]] = {r: {} for r in rels}

    queue: deque = deque()

    def add(role: str, x: int, y: int):
        if (x, y) in rels[role]:
            return
        rels[role].add((x, y))
        succ[role].setdefault(x, set()).add(y)
        pred[role].setdefault(y, set()).add(x)
        queue.append((role, x, y))

    for role, pairs in interp.role_ext.items():
        for x, y in pairs:
            succ[role].setdefault(x, set()).add(y)
            pred[role].setdefault(y, set()).add(x)
            queue.append((role, x, y))
    for ax in axioms:
        if isinstance(ax, sx.EpsilonSub):
            for x in interp.domain:
                add(ax.role, x, x)

    chains = [(tuple(_basic_parts(b) for b in ax.chain), ax.role)
              for ax in axioms if isinstance(ax, sx.ChainSub)]

    def step_back(basic, frontier):
        name, inverted = basic
        out = set()
        for z in frontier:
            out |= (pred[name].get(z, set()) if not inverted else succ[name].get(z, set()))
        return out

    def step_fwd(basic, frontier):
        name, inverted = basic
        out = set()
        for z in frontier:
            out |= (succ[name].get(z, set()) if not inverted else pred[name].get(z, set()))
        return out

    while queue:
        role, x, y = queue.popleft()
        for chain, target in chains:
            for i, (name, inverted) in enumerate(chain):
                if name != role:
                    continue
                px, py = ((x, y) if not inverted else (y, x))
                left = {px}
                for j in range(i - 1, -1, -1):
                    left = step_back(chain[j], left)
                    if not left:
                        break
                if not left:
                    continue
                right = {py}
                for j in range(i + 1, len(chain)):
                    right = step_fwd(chain[j], right)
                    if not right:
                        break
                for u in left:
                    for v in right:
                        add(target, u, v)

    return Interpretation(
        interp.signature, interp.n, interp.concept_ext,
        {r: frozenset(pairs) for r, pairs in rels.items()}, interp.individual_map,
    )
