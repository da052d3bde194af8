"""Model checking: concept and role evaluation, axiom and KB verdicts.

A concept's extension is a numpy bool vector over the domain 0..n-1,
and no role is ever stored as a set of pairs.  `some R C` is the
preimage pre_R(C), the elements with an R-successor in C, and `all R C`
is the complement of pre_R(not C).

A preimage is one search over the interpretation times an automaton
of the role (Thompson's construction), whose paths from state 0 to
state 1 spell the role.  A role name is an edge step; inv reverses the
steps under it and the order of a composition; R;S passes through a
fresh middle state and R|S joins both operands to the same two states;
R* runs R on a fresh loop state, entered and left by eps-steps; C? is
a step that keeps the elements in C, eps a step that keeps all, and U
a step from any element to every element.  The search starts from the
target elements at state 1 and takes the steps backward; the elements
that reach state 0 form the preimage.  It takes its frontiers, the
elements that entered one state and whose steps back are still to be
taken, in one of two ways (the rule of direction-optimising BFS, Beamer,
Asanovic & Patterson 2012).  A wide frontier takes one numpy pass, at
about 15 us whatever its size.  A thin one, whose elements and the
edges their steps would read number at most _WALK_EDGES (16), is walked
element by element from a Python queue, which costs about 1 us per
element; a state entered by a U step is always passed.  The rule counts
edges and not only elements, so the walk never reads a hub's many
in-edges one at a time.

Roles are read through Interpretation.in_edges, per basic role the edge
arrays grouped by target.  Number restrictions count along a basic role
with np.bincount over its edge arrays (Interpretation.edges), self tests
read the diagonal.  QS-interpretations reinterpret exactly these two:
counts sum the stored edge multiplicities (QSInterpretation.weights,
aligned to the same arrays), and self tests read the stored loops.
Everything else is inherited from the underlying interpretation.

Cost, for n elements and m edges: a concept node costs O(n) vector
work plus the preimage under it.  A role of |R| constructors has
O(|R|) states and steps, each element enters each state at most once,
whether walked or passed, and an edge step reads the edges into the
elements it takes, so a preimage costs O(|R| (n + m)) per target
column.  A deep, thin search no longer makes one numpy pass per level:
`some (r)* A` along a path of 20 000 elements is walked with no pass
at all, where one pass per level took 20 001.  Evaluation is
bottom-up from an explicit stack and memoised on subterm identity, so
shared subtrees (the witness builder produces heavily shared DAGs) are
evaluated once and nesting depth costs no Python frames.

Only role extensions and role assertions need pairs.  They come from
the preimages of singletons, computed as the columns of n x k bool
matrices, so eval_role costs O(|R| n (n + m)) for the up to n^2 pairs it
returns.  A chain role axiom is checked on pair keys instead: the edge
arrays are joined step by step into the distinct pairs the chain
reaches, which are then looked up among the role's edges, O(p log p)
for p pairs reached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import stats
from . import syntax as sx
from .core import Interpretation, QSInterpretation, _sorted_unique, build_interpretation
from .errors import FeatureViolationError, UnknownNameError
from .stats import SearchCounters

# cells per bool matrix of singleton targets in Evaluator.role
_BATCH_CELLS = 1 << 22
# most cells plus edges that a frontier may read to be walked (see _Walk)
_WALK_EDGES = 16


def _require(phi, expr):
    check = sx.validate_in_language(phi, expr)
    if not check.ok:
        node, need = check.violations[0]
        raise FeatureViolationError(
            "%s is not in the active language (needs %s)" % (sx.to_text(node), need),
            check.violations,
        )


def _ranges(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ptr[r]:ptr[r + 1] of every row r, concatenated, and each row's count."""
    lo = ptr[rows]
    cnt = ptr[rows + 1] - lo
    return np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum()), cnt


class _Walk:
    """Expands the thin frontiers of one search a cell at a time.

    The walk takes (state, cell) items from a Python queue and marks the
    same seen vectors as the numpy passes, read and written through
    memoryviews.  It hands back to fresh, for numpy passes, every cell
    whose steps read more than _WALK_EDGES edges, every cell that enters
    a state with a U step, and the whole queue once it holds more than
    _WALK_EDGES items.  The queue is first in, first out, so its length
    is the width of the frontier, and a search that fans out leaves the
    walk within a few levels.
    """

    def __init__(self, into: list[list], seen: list[np.ndarray], k: int, counters: SearchCounters):
        self.k = k
        self.counters = counters
        # go[p]: 0 when no step enters p, 1 to queue a cell that enters p,
        # 2 to hand it back because a U step enters p
        go = [2 if any(kind is sx.UniversalRole for _, kind, _ in steps) else int(bool(steps))
              for steps in into]
        marks = [memoryview(s) for s in seen]
        self.go = go
        self.ptrs: list[list] = []
        self.steps: list[list] = []
        for steps in into:
            ptrs, views = [], []
            for p, kind, arg in steps:
                if kind is sx.RoleName:
                    ptrs.append(memoryview(arg[0]))
                    arg = (ptrs[-1], memoryview(arg[1]))
                elif kind is sx.Test:
                    arg = memoryview(arg)
                views.append((p, kind, arg, marks[p], go[p]))
            self.ptrs.append(ptrs)
            self.steps.append(views)

    def run(self, q: int, cells: np.ndarray, fresh: dict) -> bool:
        """Walk from the frontier (q, cells); False, doing nothing, when a U
        step enters q or the cells and the edges their steps read number
        more than _WALK_EDGES."""
        k = self.k
        if self.go[q] == 2:
            return False
        cells = cells.tolist()
        reads = len(cells)
        for ptr in self.ptrs[q]:
            for cell in cells:
                row = cell // k
                reads += ptr[row + 1] - ptr[row]
        if reads > _WALK_EDGES:
            return False
        queue = deque((q, cell) for cell in cells)
        take, put = queue.popleft, queue.append
        ptrs, steps = self.ptrs, self.steps
        back: dict[int, list] = {}
        walked = edges = 0
        while queue:
            q, cell = take()
            row, col = divmod(cell, k)
            reads = 0
            for ptr in ptrs[q]:
                reads += ptr[row + 1] - ptr[row]
            if reads > _WALK_EDGES:
                back.setdefault(q, []).append(cell)
                continue
            walked += 1
            edges += reads
            for p, kind, arg, mark, go in steps[q]:
                if kind is sx.RoleName:
                    ptr, tail = arg
                    reach = tail[ptr[row]:ptr[row + 1]]
                elif kind is sx.Epsilon or arg[row]:
                    reach = (row,)
                else:
                    continue
                for x in reach:
                    c = x * k + col
                    if not mark[c]:
                        mark[c] = True
                        if go == 1:
                            put((p, c))
                        elif go == 2:
                            back.setdefault(p, []).append(c)
            if len(queue) > _WALK_EDGES:
                for p, c in queue:
                    back.setdefault(p, []).append(c)
                queue.clear()
        for p, part in back.items():
            fresh.setdefault(p, []).append(np.array(part, dtype=np.int64))
        self.counters.walked += walked
        self.counters.walk_edges += edges
        return True


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
        record = stats.current()
        self.counters = record.searches if record is not None else SearchCounters()

    def concept(self, c) -> frozenset[int]:
        _require(self.phi, c)
        sx.check_names(self.interp.signature, c)
        return frozenset(np.flatnonzero(self._value(c)).tolist())

    def role(self, r) -> frozenset[tuple[int, int]]:
        _require(self.phi, r)
        sx.check_names(self.interp.signature, r)
        self._value(r)
        into = self._automaton(r)
        n = self.interp.n
        m = sum(len(src) for src, _ in self.interp.role_edges.values())
        # the search holds one n x k bool matrix per automaton state
        k = max(1, min(n, 2 * _BATCH_CELLS // (len(into) * max(n, m))))
        pairs = []
        for lo in range(0, n, k):
            # column j: the singleton {lo + j}
            targets = np.eye(n, min(k, n - lo), -lo, dtype=bool)
            xs, ys = np.divmod(np.flatnonzero(self._search(into, targets)), targets.shape[1])
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
                out[interp.concept_members[c.name]] = True
            elif isinstance(c, sx.Nominal):
                out[interp.individual_map[c.name]] = True
            elif self.qs is not None:
                out[self.qs.loops[c.role]] = True
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
            return self._search(self._automaton(c.role), memo[id(c.concept)][:, None])[:, 0]
        if isinstance(c, sx.All):
            return ~self._search(self._automaton(c.role), ~memo[id(c.concept)][:, None])[:, 0]
        if isinstance(c, (sx.AtLeast, sx.AtMost)):
            inverted = isinstance(c.role, sx.Inverse)
            name = c.role.role.name if inverted else c.role.name
            src, dst = interp.edges(name, inverted)
            hit = memo[id(c.concept)][dst]
            if self.qs is None:
                counts = np.bincount(src[hit], minlength=n)
            else:
                weights = self.qs.weights[(name, inverted)]
                counts = np.bincount(src, weights=weights * hit, minlength=n)
            return counts >= c.bound if isinstance(c, sx.AtLeast) else counts <= c.bound
        if isinstance(c, (sx.RoleName, sx.Inverse, sx.Compose, sx.RoleUnion, sx.Star,
                          sx.Test, sx.Epsilon, sx.UniversalRole)):
            return None
        raise TypeError("not a concept or role node: %r" % (c,))

    def _automaton(self, role) -> list[list]:
        """The role's automaton, whose paths from state 0 to state 1 spell it.

        into[q] lists the steps (p, kind, arg) from p to q, kind being the
        class of the role node that makes the step.  The tests under role
        must already be memoised (see _value).
        """
        memo = self._memo
        into: list[list] = [[], []]
        work = [(role, 0, 1, False)]
        while work:
            node, src, dst, inv = work.pop()
            kind = type(node)
            if kind is sx.RoleName:
                into[dst].append((src, kind, self.interp.in_edges(node.name, inv)))
            elif kind is sx.Inverse:
                work.append((node.role, src, dst, not inv))
            elif kind is sx.Compose:
                mid = len(into)
                into.append([])
                first, then = (node.right, node.left) if inv else (node.left, node.right)
                work += [(first, src, mid, inv), (then, mid, dst, inv)]
            elif kind is sx.RoleUnion:
                work += [(node.left, src, dst, inv), (node.right, src, dst, inv)]
            elif kind is sx.Star:
                # a fresh loop state: a loop on src would let the other
                # branches out of src follow it ((r0)* | r1 would take r0 ; r1)
                loop = len(into)
                into.append([(src, sx.Epsilon, None)])
                into[dst].append((loop, sx.Epsilon, None))
                work.append((node.role, loop, loop, inv))
            elif kind is sx.Test:
                into[dst].append((src, kind, memo[id(node.concept)]))
            elif kind in (sx.Epsilon, sx.UniversalRole):
                into[dst].append((src, kind, None))
            else:
                raise TypeError("not a role node: %r" % (node,))
        return into

    def _search(self, into: list[list], targets: np.ndarray) -> np.ndarray:
        """pre_R of every column of the n x k bool matrix targets, R the automaton into.

        The search runs backward from the target cells at state 1, and the
        cells that reach state 0 are the preimage.  A thin frontier is
        walked cell by cell (see _Walk), any other takes one numpy pass.
        """
        n, k = targets.shape
        # cell x * k + j is element x in column j; fresh[q] holds the cells
        # that entered state q and whose steps back are still to be taken
        seen = [np.zeros(n * k, dtype=bool), targets.reshape(-1).copy()]
        seen += [np.zeros(n * k, dtype=bool) for _ in into[2:]]
        start = np.flatnonzero(seen[1])
        fresh = {1: [start]} if len(start) else {}
        spread: dict[int, np.ndarray] = {}
        last = None
        walk = None
        counters = self.counters
        counters.searches += 1
        while fresh:
            q, parts = fresh.popitem()
            cells = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if len(cells) <= _WALK_EDGES:
                if walk is None:
                    walk = _Walk(into, seen, k, counters)
                if walk.run(q, cells, fresh):
                    continue
            counters.passes += 1
            rows, cols = np.divmod(cells, k) if k > 1 else (cells, 0)
            for p, kind, arg in into[q]:
                if kind is sx.RoleName:
                    ptr, tail, _ = arg
                    pos, cnt = _ranges(ptr, rows)
                    counters.pass_edges += len(pos)
                    reach = tail[pos] * k + np.repeat(cols, cnt) if k > 1 else tail[pos]
                    reach = reach[~seen[p][reach]]
                    if len(reach) > 1:
                        # keep one occurrence of each cell: the one whose position was stored
                        if last is None:
                            last = np.empty(n * k, dtype=np.int64)
                        order = np.arange(len(reach))
                        last[reach] = order
                        reach = reach[last[reach] == order]
                elif kind is sx.Test:
                    reach = cells[arg[rows] & ~seen[p][cells]]
                elif kind is sx.Epsilon:
                    reach = cells[~seen[p][cells]]
                else:
                    # U: every element, once per column and state
                    done = spread.setdefault(p, np.zeros(k, dtype=bool))
                    new = np.zeros(k, dtype=bool)
                    new[cols] = True
                    new &= ~done
                    done |= new
                    reach = (np.arange(0, n * k, k)[:, None] + np.flatnonzero(new)).reshape(-1)
                    reach = reach[~seen[p][reach]]
                if len(reach):
                    seen[p][reach] = True
                    if into[p]:
                        fresh.setdefault(p, []).append(reach)
        return seen[0].reshape(n, k)

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
            related = bool(self._search(self._automaton(axiom.role), target)[imap[axiom.a], 0])
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
        # the edges are distinct pairs, so n self-loops cover the domain
        _, tail, head = interp.in_edges(axiom.role, False)
        return bool(np.count_nonzero(tail == head) == interp.n)
    if isinstance(axiom, sx.ChainSub):
        # the pairs (x, z) the chain reaches from x, kept as distinct keys
        # x * n + z, must all be edges of the role
        n = interp.n
        start = here = np.arange(n, dtype=np.int64)
        for basic in axiom.chain:
            name, inverted = _basic_parts(basic)
            ptr, tail, _ = interp.in_edges(name, not inverted)
            pos, deg = _ranges(ptr, here)
            here = tail[pos]
            keys = _sorted_unique(np.repeat(start, deg) * n + here)
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

    rels: dict[str, set] = {r: set() for r in interp.role_edges}
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

    for role, (src, dst) in interp.role_edges.items():
        for x, y in zip(src.tolist(), dst.tolist()):
            add(role, x, y)
    for ax in axioms:
        if isinstance(ax, sx.EpsilonSub):
            for x in interp.domain:
                add(ax.role, x, x)

    chains = [(tuple(_basic_parts(b) for b in ax.chain), ax.role)
              for ax in axioms if isinstance(ax, sx.ChainSub)]

    def step(basic, frontier, forward: bool):
        """The heads of the basic role's edges out of frontier (forward),
        or the tails of its edges into frontier."""
        name, inverted = basic
        ends = (succ if forward != inverted else pred)[name]
        out = set()
        for z in frontier:
            out |= ends.get(z, set())
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
                    left = step(chain[j], left, False)
                    if not left:
                        break
                if not left:
                    continue
                right = {py}
                for j in range(i + 1, len(chain)):
                    right = step(chain[j], right, True)
                    if not right:
                        break
                for u in left:
                    for v in right:
                        add(target, u, v)

    return build_interpretation(interp.signature, interp.n, interp.concept_members, rels,
                                interp.individual_map)
