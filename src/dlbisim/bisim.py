"""Checking and computing bisimulations between interpretations.

A candidate relation Z between the domains of two interpretations over
the same signature is judged against twelve clauses.  Which clauses
apply depends on the feature set; the checker numbers them so that
diagnostics can point at the exact failure:

 1. every individual name maps to a Z-related pair
 2. related elements satisfy the same concept names
 3. an edge from x can be matched from any partner of x (forth)
 4. an edge from x' can be matched from any partner of x' (back)
 5. with inverse roles: clause 3 for incoming edges
 6. with inverse roles: clause 4 for incoming edges
 7. with nominals: related elements name the same individuals
 8. with counting: successor sets per role name admit a Z-respecting
    bijection
 9. with counting and inverse roles: clause 8 for predecessor sets
10. with the universal role: every element has a partner (left to right)
11. with the universal role: every element has a partner (right to left)
12. with local reflexivity: related elements agree on self-loops per role

`is_bisimulation` reports violations of these clauses.  Two independent
routes compute the largest bisimulation: `naive_largest_bisimulation`
runs a straightforward delete-until-stable fixpoint on the full product
of the domains, and the partition route reads it off the coarsest
stable partition of the disjoint union graph.  The two must agree; the
test suite leans on that.

The partition route decides everything from block ids.  `bisimilar`
checks clauses 1, 10 and 11 on the ids of the two sides, and
`bisimulation_size` multiplies the per-block counts of left and right
members, so neither costs more than the partition.  Pairs are built
only on request: `bisimulation_pairs` generates them in ascending
order, and `largest_bisimulation` collects them into a `BisimRelation`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BisimRelation,
    FeatureSet,
    Interpretation,
    disjoint_union_graph,
    to_labeled_graph,
)
from .errors import ElementOutOfRangeError, SignatureMismatchError, TooLargeError
from .refine import Partition, compute_partition


@dataclass(frozen=True)
class Violation:
    condition: int
    left: int | None
    right: int | None
    message: str


@dataclass
class ConditionReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_lines(self) -> list[str]:
        if self.ok:
            return ["all conditions hold"]
        return ["condition %d fails: %s" % (v.condition, v.message) for v in self.violations]


def _perfect_matching(adj: list[list[int]], n_right: int) -> bool:
    """Kuhn's augmenting paths; True iff every left node gets matched."""
    if len(adj) != n_right:
        return False
    match_r = [-1] * n_right

    def augment(u: int, seen: list[bool]) -> bool:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_r[v] == -1 or augment(match_r[v], seen):
                    match_r[v] = u
                    return True
        return False

    return all(augment(u, [False] * n_right) for u in range(len(adj)))


def _label_key(interp: Interpretation, phi: FeatureSet, x: int):
    sig = interp.signature
    atoms = tuple(x in interp.concept_ext[a] for a in sig.concept_names)
    nom = tuple(interp.individual_map[a] == x for a in sig.individual_names) if phi.nominals else ()
    loops = tuple(x in interp.successors(r, x) for r in sig.role_names) if phi.local_refl else ()
    return atoms, nom, loops


def _pairs_of(rel) -> frozenset[tuple[int, int]]:
    if isinstance(rel, BisimRelation):
        return rel.pairs
    return frozenset((int(x), int(y)) for x, y in rel)


def is_bisimulation(phi: FeatureSet, ia: Interpretation, ib: Interpretation,
                    relation) -> ConditionReport:
    """Check every applicable clause; report all violations found."""
    if ia.signature != ib.signature:
        raise SignatureMismatchError("interpretations use different signatures")
    pairs = _pairs_of(relation)
    for x, y in pairs:
        if not (0 <= x < ia.n and 0 <= y < ib.n):
            raise ElementOutOfRangeError("pair (%d, %d) outside domains" % (x, y))
    sig = ia.signature
    report = ConditionReport()
    add = report.violations.append

    right_of: dict[int, set[int]] = {}
    left_of: dict[int, set[int]] = {}
    for x, y in pairs:
        right_of.setdefault(x, set()).add(y)
        left_of.setdefault(y, set()).add(x)

    for a in sig.individual_names:
        pair = (ia.individual_map[a], ib.individual_map[a])
        if pair not in pairs:
            add(Violation(1, pair[0], pair[1],
                          "individual %s maps to unrelated pair (%d, %d)" % (a, *pair)))

    for x, y in sorted(pairs):
        for a in sig.concept_names:
            if (x in ia.concept_ext[a]) != (y in ib.concept_ext[a]):
                add(Violation(2, x, y, "pair (%d, %d) disagrees on concept %s" % (x, y, a)))
        if phi.nominals:
            for a in sig.individual_names:
                if (ia.individual_map[a] == x) != (ib.individual_map[a] == y):
                    add(Violation(7, x, y,
                                  "pair (%d, %d) disagrees on individual %s" % (x, y, a)))
        if phi.local_refl:
            for r in sig.role_names:
                if (x in ia.successors(r, x)) != (y in ib.successors(r, y)):
                    add(Violation(12, x, y,
                                  "pair (%d, %d) disagrees on a self loop via %s" % (x, y, r)))
        for r in sig.role_names:
            sx, sy = ia.successors(r, x), ib.successors(r, y)
            for u in sx:
                if not any(v in right_of.get(u, ()) for v in sy):
                    add(Violation(3, x, y,
                                  "edge %d -%s-> %d unmatched from %d" % (x, r, u, y)))
            for v in sy:
                if not any(u in left_of.get(v, ()) for u in sx):
                    add(Violation(4, x, y,
                                  "edge %d -%s-> %d unmatched from %d" % (y, r, v, x)))
            if phi.inverse:
                px, py = ia.predecessors(r, x), ib.predecessors(r, y)
                for u in px:
                    if not any(v in right_of.get(u, ()) for v in py):
                        add(Violation(5, x, y,
                                      "edge %d -%s-> %d unmatched into %d" % (u, r, x, y)))
                for v in py:
                    if not any(u in left_of.get(v, ()) for u in px):
                        add(Violation(6, x, y,
                                      "edge %d -%s-> %d unmatched into %d" % (v, r, y, x)))
            if phi.counting:
                adj = [[j for j, v in enumerate(sy) if v in right_of.get(u, ())] for u in sx]
                if len(sx) != len(sy) or not _perfect_matching(adj, len(sy)):
                    add(Violation(8, x, y,
                                  "no successor bijection via %s between %d and %d" % (r, x, y)))
                if phi.inverse:
                    px, py = ia.predecessors(r, x), ib.predecessors(r, y)
                    adj = [[j for j, v in enumerate(py) if v in right_of.get(u, ())] for u in px]
                    if len(px) != len(py) or not _perfect_matching(adj, len(py)):
                        add(Violation(9, x, y,
                                      "no predecessor bijection via %s between %d and %d"
                                      % (r, x, y)))

    if phi.universal:
        for x in range(ia.n):
            if not right_of.get(x):
                add(Violation(10, x, None, "element %d of the left domain has no partner" % x))
        for y in range(ib.n):
            if not left_of.get(y):
                add(Violation(11, None, y, "element %d of the right domain has no partner" % y))
    return report


@dataclass(frozen=True)
class DeletionRecord:
    """Why the naive fixpoint discarded a pair, or failed a global clause."""

    condition: int
    left: int | None
    right: int | None
    detail: str


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def naive_largest_bisimulation(phi: FeatureSet, ia: Interpretation, ib: Interpretation,
                               max_pairs: int = 10 ** 6,
                               log: list[DeletionRecord] | None = None) -> BisimRelation | None:
    """Greatest fixpoint by deleting violating pairs from the full product.

    Deliberately simple: pairs are bitmask rows, every pass re-checks
    every surviving pair, deletions apply at the end of a pass.  Serves
    as the oracle the partition route is tested against.  Pass a list
    as `log` to collect the reason each pair died.
    """
    if ia.signature != ib.signature:
        raise SignatureMismatchError("interpretations use different signatures")
    n, m = ia.n, ib.n
    if n * m > max_pairs:
        raise TooLargeError("product of domain sizes %d exceeds limit %d" % (n * m, max_pairs))
    sig = ia.signature

    def record(cond: int, x, y, detail: str) -> None:
        if log is not None and len(log) < 64:
            log.append(DeletionRecord(cond, x, y, detail))

    keys_right: dict[object, int] = {}
    for y in range(m):
        k = _label_key(ib, phi, y)
        keys_right[k] = keys_right.get(k, 0) | (1 << y)
    z = [keys_right.get(_label_key(ia, phi, x), 0) for x in range(n)]
    tz = [0] * m
    for x in range(n):
        for y in _iter_bits(z[x]):
            tz[y] |= 1 << x

    succ_l = {r: [ia.successors(r, x) for x in range(n)] for r in sig.role_names}
    succ_r = {r: [ib.successors(r, y) for y in range(m)] for r in sig.role_names}
    pred_l = {r: [ia.predecessors(r, x) for x in range(n)] for r in sig.role_names}
    pred_r = {r: [ib.predecessors(r, y) for y in range(m)] for r in sig.role_names}
    mask = lambda elems: sum(1 << e for e in elems)
    succ_mask_r = {r: [mask(succ_r[r][y]) for y in range(m)] for r in sig.role_names}
    pred_mask_r = {r: [mask(pred_r[r][y]) for y in range(m)] for r in sig.role_names}
    succ_mask_l = {r: [mask(succ_l[r][x]) for x in range(n)] for r in sig.role_names}
    pred_mask_l = {r: [mask(pred_l[r][x]) for x in range(n)] for r in sig.role_names}

    def pair_ok(x: int, y: int) -> tuple[bool, int, str]:
        for r in sig.role_names:
            for u in succ_l[r][x]:
                if not z[u] & succ_mask_r[r][y]:
                    return False, 3, "edge %d -%s-> %d unmatched from %d" % (x, r, u, y)
            for v in succ_r[r][y]:
                if not tz[v] & succ_mask_l[r][x]:
                    return False, 4, "edge %d -%s-> %d unmatched from %d" % (y, r, v, x)
            if phi.inverse:
                for u in pred_l[r][x]:
                    if not z[u] & pred_mask_r[r][y]:
                        return False, 5, "edge %d -%s-> %d unmatched into %d" % (u, r, x, y)
                for v in pred_r[r][y]:
                    if not tz[v] & pred_mask_l[r][x]:
                        return False, 6, "edge %d -%s-> %d unmatched into %d" % (v, r, y, x)
            if phi.counting:
                sx, sy = succ_l[r][x], succ_r[r][y]
                adj = [[j for j, v in enumerate(sy) if z[u] >> v & 1] for u in sx]
                if len(sx) != len(sy) or not _perfect_matching(adj, len(sy)):
                    return False, 8, ("no successor bijection via %s between %d and %d"
                                      % (r, x, y))
                if phi.inverse:
                    px, py = pred_l[r][x], pred_r[r][y]
                    adj = [[j for j, v in enumerate(py) if z[u] >> v & 1] for u in px]
                    if len(px) != len(py) or not _perfect_matching(adj, len(py)):
                        return False, 9, ("no predecessor bijection via %s between %d and %d"
                                          % (r, x, y))
        return True, 0, ""

    changed = True
    while changed:
        changed = False
        doomed: list[tuple[int, int]] = []
        for x in range(n):
            for y in _iter_bits(z[x]):
                ok, cond, detail = pair_ok(x, y)
                if not ok:
                    doomed.append((x, y))
                    record(cond, x, y, detail)
        for x, y in doomed:
            z[x] &= ~(1 << y)
            tz[y] &= ~(1 << x)
            changed = True

    for a in sig.individual_names:
        xa, ya = ia.individual_map[a], ib.individual_map[a]
        if not z[xa] >> ya & 1:
            record(1, xa, ya, "individual %s maps to unrelated pair (%d, %d)" % (a, xa, ya))
            return None
    if phi.universal:
        for x in range(n):
            if not z[x]:
                record(10, x, None, "element %d of the left domain has no partner" % x)
                return None
        for y in range(m):
            if not tz[y]:
                record(11, None, y, "element %d of the right domain has no partner" % y)
                return None
    pairs = frozenset((x, y) for x in range(n) for y in _iter_bits(z[x]))
    return BisimRelation(n, m, pairs)


def _union_blocks(phi: FeatureSet, ia: Interpretation,
                  ib: Interpretation) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Block ids of both domains in the coarsest partition of their union.

    Cross pairs sharing a block form the largest candidate relation.
    The three global clauses are decided on the ids alone: clause 1 asks
    that each individual's two nodes share a block; clauses 10 and 11
    (with U) ask that every block holds nodes of both sides.  If the
    largest candidate fails them, nothing smaller can succeed, so the
    result is None.  Otherwise it is (left ids, right ids, block count).
    """
    graph = disjoint_union_graph(ia, ib)
    partition, _ = compute_partition(phi, graph, want_trace=False)
    left, right = partition.block_of[:ia.n], partition.block_of[ia.n:]
    for a in ia.signature.individual_names:
        if left[ia.individual_map[a]] != right[ib.individual_map[a]]:
            return None
    n_blocks = partition.n_blocks
    if phi.universal and not np.array_equal(np.bincount(left, minlength=n_blocks) > 0,
                                            np.bincount(right, minlength=n_blocks) > 0):
        return None
    return left, right, n_blocks


def bisimilar(phi: FeatureSet, ia: Interpretation, ib: Interpretation) -> bool:
    return _union_blocks(phi, ia, ib) is not None


def bisimulation_size(phi: FeatureSet, ia: Interpretation, ib: Interpretation) -> int | None:
    """Number of pairs in the largest bisimulation, or None if there is none.

    The sum over blocks of left members times right members; no pair is
    built.
    """
    found = _union_blocks(phi, ia, ib)
    if found is None:
        return None
    left, right, n_blocks = found
    return int(np.bincount(left, minlength=n_blocks) @ np.bincount(right, minlength=n_blocks))


def bisimulation_pairs(phi: FeatureSet, ia: Interpretation,
                       ib: Interpretation) -> Iterator[tuple[int, int]] | None:
    """Pairs of the largest bisimulation in ascending order, or None.

    The pairs are generated lazily: for each left element in turn, the
    right members of its block.
    """
    found = _union_blocks(phi, ia, ib)
    if found is None:
        return None
    left, right, n_blocks = found
    rights: list[list[int]] = [[] for _ in range(n_blocks)]
    for y, b in enumerate(right.tolist()):
        rights[b].append(y)
    return ((x, y) for x, b in enumerate(left.tolist()) for y in rights[b])


def largest_bisimulation(phi: FeatureSet, ia: Interpretation,
                         ib: Interpretation) -> BisimRelation | None:
    """Largest bisimulation via the partition of the disjoint union.

    Collects `bisimulation_pairs` into a set.  The verdict itself comes
    from block ids, so a caller that needs only the verdict or the pair
    count should ask `bisimilar` or `bisimulation_size`, which build no
    pair.
    """
    pairs = bisimulation_pairs(phi, ia, ib)
    if pairs is None:
        return None
    return BisimRelation(ia.n, ib.n, frozenset(pairs))


def largest_auto_bisimulation(phi: FeatureSet, interp: Interpretation) -> Partition:
    """Coarsest partition of one interpretation's domain under phi."""
    graph = to_labeled_graph(interp)
    partition, _ = compute_partition(phi, graph, want_trace=False)
    return partition
