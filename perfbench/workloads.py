"""Documents, command sessions and output checks of the benchmark workloads.

Every document is generated here from the seed with the standard library
only, so the program under test receives nothing but its inputs.  Each
command carries a check whose expected value follows from how the
document is built, or from the small reference implementations at the
end of this file (signature refinement for block counts, a set-based
evaluator for concepts).  None of them imports dlbisim.
"""

from __future__ import annotations

import json
import os
import random
import re

# Sizes per workload, chosen so one pass of a session takes a few seconds
# on a 2-core box while each workload's dominant layer stays dominant.
SIZES = {
    "minimize-random": {"n": 1500},
    "refine-adversarial": {"path": 700, "depth": 11, "cycle": 900},
    "explain-check": {"n": 600, "qpath": 13},
}
SMOKE_SIZES = {
    "minimize-random": {"n": 300},
    "refine-adversarial": {"path": 40, "depth": 4, "cycle": 30},
    "explain-check": {"n": 60, "qpath": 6},
}
WORKLOADS = tuple(SIZES)


class Model:
    """The benchmark's own copy of one interpretation."""

    def __init__(self, n, concepts, roles, individuals, names=None):
        self.n = n
        self.concepts = {c: set(xs) for c, xs in concepts.items()}
        self.roles = {r: sorted(set(pairs)) for r, pairs in roles.items()}
        self.individuals = dict(individuals)
        self.names = names

    def name(self, x: int) -> str:
        return self.names[x] if self.names is not None else str(x)

    def body(self) -> dict:
        ref = (lambda x: self.names[x]) if self.names is not None else (lambda x: x)
        return {
            "domain": list(self.names) if self.names is not None else self.n,
            "concepts": {c: [ref(x) for x in sorted(xs)] for c, xs in self.concepts.items()},
            "roles": {r: [[ref(x), ref(y)] for x, y in pairs] for r, pairs in self.roles.items()},
            "individuals": {a: ref(x) for a, x in self.individuals.items()},
        }

    @classmethod
    def from_body(cls, body: dict) -> "Model":
        domain = body["domain"]
        names = list(domain) if isinstance(domain, list) else None
        index = {name: i for i, name in enumerate(names)} if names is not None else None
        ref = (lambda v: index[v]) if index is not None else int
        return cls(
            len(names) if names is not None else domain,
            {c: [ref(v) for v in xs] for c, xs in body.get("concepts", {}).items()},
            {r: [(ref(a), ref(b)) for a, b in pairs] for r, pairs in body.get("roles", {}).items()},
            {a: ref(v) for a, v in body.get("individuals", {}).items()},
            names,
        )

    def permuted(self, perm: list[int]) -> "Model":
        """The isomorphic copy that renumbers x as perm[x]; names stay in order."""
        return Model(self.n,
                     {c: [perm[x] for x in xs] for c, xs in self.concepts.items()},
                     {r: [(perm[x], perm[y]) for x, y in pairs] for r, pairs in self.roles.items()},
                     {a: perm[x] for a, x in self.individuals.items()},
                     self.names)


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _signature(concepts, roles, individuals) -> dict:
    return {"concepts": list(concepts), "roles": list(roles), "individuals": list(individuals)}


def _write(path: str, signature: dict, interps: dict, phi: str | None = None,
           kb: dict | None = None) -> str:
    doc = {"signature": signature,
           "interpretations": {name: m.body() for name, m in interps.items()}}
    if phi is not None:
        doc["phi"] = phi
    if kb is not None:
        doc["kb"] = kb
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _random_model(rng: random.Random, n: int, roles, degree=(0, 4), names=None) -> Model:
    """Concepts A0, A1 with probability 1/2; per role, degree[0]..degree[1] distinct successors."""
    concepts = {c: [x for x in range(n) if rng.random() < 0.5] for c in ("A0", "A1")}
    edges = {r: [(x, y) for x in range(n) for y in rng.sample(range(n), rng.randint(*degree))]
             for r in roles}
    return Model(n, concepts, edges, {}, names)


def _separated_pair(model: Model, phi: str, rng: random.Random) -> tuple[int, int]:
    """Two elements with equal labels that the coarsest partition separates."""
    final = reference_blocks(model, phi)
    start = reference_blocks(model, phi, rounds=0)
    order = list(range(model.n))
    rng.shuffle(order)
    for x in order:
        for y in order:
            if x != y and start[x] == start[y] and final[x] != final[y]:
                return x, y
    raise ValueError("no separable pair with equal labels")


def _cmd(kind: str, argv: list, **check) -> dict:
    return {"kind": kind, "argv": [kind] + [str(a) for a in argv], "check": check}


def _out(work: str, i: int) -> str:
    return os.path.join(work, "out", "%02d.txt" % i)


def _session(work: str, commands: list) -> list:
    """Give every command its own output file."""
    for i, cmd in enumerate(commands):
        cmd["argv"] += ["--output", _out(work, i)]
    return commands


def _pairs_of_isomorphic_copy(model: Model, phi: str) -> int:
    """Pair count of the largest bisimulation between a model and its copy."""
    sizes: dict[int, int] = {}
    for b in reference_blocks(model, phi):
        sizes[b] = sizes.get(b, 0) + 1
    return sum(k * k for k in sizes.values())


def minimize_random(work: str, rng: random.Random, n: int) -> list:
    """Large sparse random documents; elements referenced by index."""
    roles = ("r0", "r1", "r2")
    m = _random_model(rng, n, roles)
    # Element 0 is in A0 and A1 and has no r0 edge, so the second axiom
    # below fails; a0 is in A0 and has an r0 edge, so the cut copy differs.
    m.concepts["A0"].add(0)
    m.concepts["A1"].add(0)
    m.roles["r0"] = [(x, y) for x, y in m.roles["r0"] if x != 0]
    a0, a1 = rng.sample(range(1, n), 2)
    m.individuals = {"a0": a0, "a1": a1}
    m.concepts["A0"].add(a0)
    if not any(x == a0 for x, _ in m.roles["r0"]):
        m.roles["r0"] = sorted(m.roles["r0"] + [(a0, rng.randrange(n))])
    cut = Model(n, m.concepts, m.roles, m.individuals)
    drop = next(p for p in cut.roles["r0"] if p[0] == a0)
    cut.roles["r0"].remove(drop)

    sig = _signature(("A0", "A1"), roles, ("a0", "a1"))
    kb = {"tbox": ["top sub atmost 4 r0 top", "(A0 and A1) sub some r0 top",
                   "top sub atmost 4 r1 top", "top sub atmost 4 r2 top",
                   "some r0 top sub atleast 1 r0 top"],
          "abox": ["A0(a0)"]}
    doc = _write(os.path.join(work, "random.json"), sig, {"I": m}, kb=kb)
    perm = _write(os.path.join(work, "perm.json"), sig, {"I": m, "P": m.permuted(_shuffled(rng, n))})
    cutd = _write(os.path.join(work, "cut.json"), sig, {"I": m, "D": cut})
    pairs = {phi: _separated_pair(m, phi, rng) for phi in ("Q", "IQ")}
    concepts = [("", "some r0 (A0 and some r1 A1)"), ("IQ", "atleast 2 inv(r1) (A0 or A1)"),
                ("", "all r2 (A1 or some r0 top)")]

    blocks = {phi: _block_count(m, phi) for phi in ("Q", "IOQUS", "", "IQ")}
    return [
        _cmd("partition", ["-i", doc, "-I", "I", "--phi", "Q"], type="blocks", n=n, blocks=blocks["Q"]),
        _cmd("partition", ["-i", doc, "-I", "I", "--phi", "IOQUS"], type="blocks", n=n,
             blocks=blocks["IOQUS"]),
        _cmd("partition", ["-i", doc, "-I", "I", "--phi", ""], type="blocks", n=n, blocks=blocks[""]),
        _cmd("minimize", ["-i", doc, "-I", "I", "--phi", "IQ"], type="minimize",
             elements=blocks["IQ"], qs=False),
        # the --qs quotient must have as many elements as the Q partition has blocks
        _cmd("minimize", ["-i", doc, "-I", "I", "--qs", "--phi", "Q"], type="minimize",
             elements=blocks["Q"], qs=True),
        _cmd("bisim", ["-i", perm, "-l", "I", "-r", "P", "--phi", "IQ"], type="bisim", exit=0,
             pairs=_pairs_of_isomorphic_copy(m, "IQ")),
        # too large for the NOT BISIMILAR explanation (n * n > 40 000)
        _cmd("bisim", ["-i", cutd, "-l", "I", "-r", "D", "--phi", "Q"], type="bisim", exit=1),
    ] + [
        _cmd("witness", ["-i", doc, "-I", "I", "--phi", phi, "--left", x, "--right", y],
             type="witness", doc=doc, interp="I", left=str(x), right=str(y))
        for phi, (x, y) in pairs.items()
    ] + [
        _cmd("eval", ["-i", doc, "-I", "I", "--phi", phi, "-c", concept], type="eval",
             elements=sorted(m.name(e) for e in RefEval(m).concept(concept)))
        for phi, concept in concepts
    ] + [
        _cmd("check-kb", ["-i", doc, "-I", "I", "--phi", "Q"], type="kb", exit=1,
             verdicts=["holds", "FAILS"] + ["holds"] * 4),
    ]


def refine_adversarial(work: str, rng: random.Random, path: int, depth: int, cycle: int) -> list:
    """Path, complete binary tree and twin cycles: deep refinement, big blocks.

    The seed only renumbers the elements; every expected value follows
    from the shapes.
    """
    sig = _signature(("A",), ("r",), ())
    pperm = _shuffled(rng, path)
    path_m = Model(path, {"A": [path - 1]}, {"r": [(i, i + 1) for i in range(path - 1)]},
                   {}).permuted(pperm)
    nodes = 2 ** (depth + 1) - 1
    first_leaf = 2 ** depth - 1
    tperm = _shuffled(rng, nodes)
    tree_m = Model(nodes, {"A": range(first_leaf, nodes)},
                   {"r": [(i, c) for i in range(first_leaf) for c in (2 * i + 1, 2 * i + 2)]},
                   {}).permuted(tperm)
    ring = {"L": Model(cycle, {}, {"r": [(i, (i + 1) % cycle) for i in range(cycle)]}, {}),
            "R": Model(cycle, {}, {"r": [(i, (i + 3) % cycle) for i in range(cycle)]}, {})}
    ring = {k: m.permuted(_shuffled(rng, cycle)) for k, m in ring.items()}
    pathd = _write(os.path.join(work, "path.json"), sig, {"I": path_m})
    kb = {"tbox": ["top sub (A or atleast 2 r top)", "A sub all r bottom", "top sub some r top"]}
    treed = _write(os.path.join(work, "tree.json"), sig, {"I": tree_m}, kb=kb)
    cycled = _write(os.path.join(work, "cycles.json"), _signature((), ("r",), ()), ring)

    commands = [_cmd("partition", ["-i", pathd, "-I", "I", "--phi", phi], type="blocks", n=path,
                     blocks=path, singletons=True) for phi in ("", "I", "Q", "IOQUS")]
    commands += [_cmd("minimize", ["-i", treed, "-I", "I", "--phi", phi], type="minimize",
                      elements=depth + 1, qs=False) for phi in ("", "I", "Q")]
    commands += [_cmd("bisim", ["-i", cycled, "-l", "L", "-r", "R", "--phi", phi], type="bisim",
                      exit=0, pairs=cycle * cycle) for phi in ("", "IQ")]
    root, child = tperm[0], tperm[1]
    # r* and inv(r)* hold every pair along the path: n^2 / 2 of them
    commands += [_cmd("eval", ["-i", pathd, "-I", "I", "--phi", phi, "-c", concept], type="eval",
                      elements=sorted(path_m.name(e) for e in RefEval(path_m).concept(concept)))
                 for phi, concept in (("", "some (r)* A"), ("I", "some (inv(r))* A"))]
    commands += [
        # the root and its child part only in the last refinement round
        _cmd("witness", ["-i", treed, "-I", "I", "--phi", "", "--left", root, "--right", child],
             type="witness", doc=treed, interp="I", left=str(root), right=str(child)),
        _cmd("check-kb", ["-i", treed, "-I", "I", "--phi", "Q"], type="kb", exit=1,
             verdicts=["holds", "holds", "FAILS"]),
    ]
    return commands


def explain_check(work: str, rng: random.Random, n: int, qpath: int) -> list:
    """Named elements, a KB with starred roles, and deep witnesses."""
    names = ["x%d" % i for i in range(n)]
    roles = ("r0", "r1", "r2")
    # a fixed out-degree keeps (r0 ; inv(r1))* one strongly connected
    # component, so the evaluation cost does not swing with the seed
    m = _random_model(rng, n, roles, degree=(2, 2), names=names)
    # r2 contains r0 ; r1, so the role axiom holds; element 1 has no r0
    # edge, so "top sub atleast 1 r0 top" fails; a0 in A0 with an r0
    # edge to a1, so both assertions hold.
    succ1: dict[int, list[int]] = {}
    for y, z in m.roles["r1"]:
        succ1.setdefault(y, []).append(z)
    m.roles["r0"] = [(x, y) for x, y in m.roles["r0"] if x != 1]
    a0 = rng.choice([x for x, _ in m.roles["r0"]])
    a1 = next(y for x, y in m.roles["r0"] if x == a0)
    m.individuals = {"a0": a0, "a1": a1}
    m.concepts["A0"].add(a0)
    m.concepts["A1"].add(a1)
    chain = {(x, z) for x, y in m.roles["r0"] for z in succ1.get(y, ())}
    m.roles["r2"] = sorted(set(m.roles["r2"]) | chain)

    sig = _signature(("A0", "A1"), roles, ("a0", "a1"))
    kb = {"rbox": ["r0 ; r1 sub r2"],
          "tbox": ["top sub all (r0 ; inv(r1))* (A0 or not A0)", "A0 sub some U A1",
                   "{a0} sub A0", "top sub atmost 4 r0 top", "top sub atleast 1 r0 top"],
          "abox": ["A0(a0)", "r0(a0, a1)"]}
    doc = _write(os.path.join(work, "kb.json"), sig, {"I": m}, kb=kb)
    pair = _write(os.path.join(work, "pair.json"), sig, {"I": m, "P": m.permuted(_shuffled(rng, n))})
    pnames = ["x%d" % i for i in range(qpath)]
    path_m = Model(qpath, {"A": [qpath - 1]}, {"r": [(i, i + 1) for i in range(qpath - 1)]}, {},
                   pnames)
    qpathd = _write(os.path.join(work, "qpath.json"), _signature(("A",), ("r",), ()),
                    {"I": path_m}, phi="Q")
    concept = "some (r0 ; inv(r1))* A1"

    commands = [
        _cmd("check-kb", ["-i", doc, "-I", "I", "--phi", "IOQU"], type="kb", exit=1,
             verdicts=["holds"] * 5 + ["FAILS"] + ["holds"] * 2),
        _cmd("eval", ["-i", doc, "-I", "I", "--phi", "I", "-c", concept], type="eval",
             elements=sorted(m.name(e) for e in RefEval(m).concept(concept))),
    ]
    for phi in ("", "IQ"):
        x, y = _separated_pair(m, phi, rng)
        commands.append(_cmd("witness", ["-i", doc, "-I", "I", "--phi", phi, "--left", names[x],
                                         "--right", names[y]],
                             type="witness", doc=doc, interp="I", left=names[x], right=names[y]))
    commands += [
        # the separating concept of the first two path elements grows
        # exponentially with the path length when printed as a tree
        _cmd("witness", ["-i", qpathd, "-I", "I", "--left", "x0", "--right", "x1"],
             type="witness", doc=qpathd, interp="I", left="x0", right="x1"),
        _cmd("partition", ["-i", doc, "-I", "I", "--phi", ""], type="blocks", n=n,
             blocks=_block_count(m, "")),
        _cmd("minimize", ["-i", doc, "-I", "I", "--phi", "IQ"], type="minimize",
             elements=_block_count(m, "IQ"), qs=False),
        _cmd("bisim", ["-i", pair, "-l", "I", "-r", "P", "--phi", "IQ"], type="bisim", exit=0,
             pairs=_pairs_of_isomorphic_copy(m, "IQ")),
    ]
    return commands


BUILDERS = {
    "minimize-random": minimize_random,
    "refine-adversarial": refine_adversarial,
    "explain-check": explain_check,
}


def build(workload: str, seed: int, work: str, smoke: bool = False) -> dict:
    """Write the workload's documents under work and return its session."""
    os.makedirs(os.path.join(work, "out"), exist_ok=True)
    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    commands = _session(work, BUILDERS[workload](work, rng, **sizes))
    warm = _write(os.path.join(work, "warmup.json"), _signature(("A",), ("r",), ()),
                  {"I": Model(3, {"A": [2]}, {"r": [(0, 1), (1, 2)]}, {})})
    warmup = ["partition", "-i", warm, "-I", "I", "--output", os.path.join(work, "warmup.txt")]
    return {"workload": workload, "seed": seed, "sizes": sizes, "warmup": warmup,
            "commands": commands}


# ---------------------------------------------------------------- references

def reference_blocks(model: Model, phi: str, rounds: int | None = None) -> list[int]:
    """Block id per element of the coarsest stable partition under phi.

    Plain signature refinement: an element's signature is its block and,
    per splitter role, the set (or, with Q, the multiset) of its
    neighbours' blocks.  The universal role never splits a single model.
    rounds=0 gives the initial label partition.
    """
    n = model.n
    labels = [[x in xs for xs in model.concepts.values()] for x in range(n)]
    if "O" in phi:
        for x in range(n):
            labels[x] += [model.individuals[a] == x for a in sorted(model.individuals)]
    if "S" in phi:
        loops = [{x for x, y in pairs if x == y} for pairs in model.roles.values()]
        for x in range(n):
            labels[x] += [x in ls for ls in loops]
    adjs = []
    for pairs in model.roles.values():
        succ: list[list[int]] = [[] for _ in range(n)]
        pred: list[list[int]] = [[] for _ in range(n)]
        for x, y in pairs:
            succ[x].append(y)
            pred[y].append(x)
        adjs.append(succ)
        if "I" in phi:
            adjs.append(pred)
    key = (lambda bs: tuple(sorted(bs))) if "Q" in phi else frozenset
    block = _relabel([tuple(lab) for lab in labels])
    done = 0
    while rounds is None or done < rounds:
        nxt = _relabel([(block[x],) + tuple(key([block[y] for y in adj[x]]) for adj in adjs)
                        for x in range(n)])
        done += 1
        if max(nxt) == max(block):
            break
        block = nxt
    return block


def _relabel(keys: list) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def _block_count(model: Model, phi: str) -> int:
    return len(set(reference_blocks(model, phi)))


_TOKEN = re.compile(r"\d+|[A-Za-z_]\w*|[(){};|*]")


class RefEval:
    """Set-based evaluator for the concept texts the workloads use and print.

    Covers top, bottom, names, nominals, not, and, or, some, all,
    atleast, atmost and self, over roles built from names, inv, ;, |, *
    and U.  It reads the canonical fully parenthesised form to_text
    prints.
    """

    def __init__(self, model: Model):
        self.m = model
        self.domain = frozenset(range(model.n))
        self.succ: dict[str, dict[int, list[int]]] = {}
        self.pred: dict[str, dict[int, list[int]]] = {}
        for r, pairs in model.roles.items():
            s, p = self.succ.setdefault(r, {}), self.pred.setdefault(r, {})
            for x, y in pairs:
                s.setdefault(x, []).append(y)
                p.setdefault(y, []).append(x)

    def concept(self, text: str) -> frozenset[int]:
        self.toks = _TOKEN.findall(text)
        self.pos = 0
        out = self._concept()
        if self.pos != len(self.toks):
            raise ValueError("trailing input at token %d" % self.pos)
        return out

    def _next(self) -> str:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def _expect(self, tok: str) -> None:
        got = self._next()
        if got != tok:
            raise ValueError("expected %r, got %r" % (tok, got))

    def _concept(self) -> frozenset[int]:
        tok = self._next()
        if tok == "top":
            return self.domain
        if tok == "bottom":
            return frozenset()
        if tok == "not":
            return self.domain - self._concept()
        if tok in ("some", "all"):
            role = self._role()
            inner = self._concept()
            if tok == "some":
                return self._pre(role, inner)
            return self.domain - self._pre(role, self.domain - inner)
        if tok in ("atleast", "atmost"):
            bound = int(self._next())
            role = self._role()
            inner = self._concept()
            adj = self._basic(role)
            counts = {x: sum(1 for y in adj.get(x, ()) if y in inner) for x in self.domain}
            if tok == "atleast":
                return frozenset(x for x, k in counts.items() if k >= bound)
            return frozenset(x for x, k in counts.items() if k <= bound)
        if tok == "self":
            r = self._next()
            return frozenset(x for x, y in self.m.roles[r] if x == y)
        if tok == "{":
            a = self._next()
            self._expect("}")
            return frozenset([self.m.individuals[a]])
        if tok == "(":
            left = self._concept()
            op = self._next()
            if op == ")":
                return left
            right = self._concept()
            self._expect(")")
            if op == "and":
                return left & right
            if op == "or":
                return left | right
            raise ValueError("unknown connective %r" % op)
        return frozenset(self.m.concepts[tok])

    def _role(self):
        tok = self._next()
        if tok == "U":
            node = ("U",)
        elif tok == "inv":
            self._expect("(")
            node = ("inv", self._role())
            self._expect(")")
        elif tok == "(":
            left = self._role()
            op = self._next()
            if op == ")":
                node = left
            else:
                node = ({";": "seq", "|": "or"}[op], left, self._role())
                self._expect(")")
        else:
            node = ("name", tok)
        while self.pos < len(self.toks) and self.toks[self.pos] == "*":
            self.pos += 1
            node = ("star", node)
        return node

    def _basic(self, role) -> dict[int, list[int]]:
        """Successor lists of a role name or of its inverse."""
        if role[0] == "name":
            return self.succ.get(role[1], {})
        if role[0] == "inv" and role[1][0] == "name":
            return self.pred.get(role[1][1], {})
        raise ValueError("not a basic role: %r" % (role,))

    def _pre(self, role, target: frozenset[int]) -> frozenset[int]:
        """Elements with a role successor in target."""
        kind = role[0]
        if kind == "U":
            return self.domain if target else frozenset()
        if kind == "seq":
            return self._pre(role[1], self._pre(role[2], target))
        if kind == "or":
            return self._pre(role[1], target) | self._pre(role[2], target)
        if kind == "star":
            seen = set(target)
            frontier = frozenset(target)
            while frontier:
                frontier = self._pre(role[1], frontier) - seen
                seen |= frontier
            return frozenset(seen)
        back = self.pred if kind == "name" else self.succ
        adj = back.get(role[1] if kind == "name" else self._inv_name(role), {})
        return frozenset(x for y in target for x in adj.get(y, ()))

    @staticmethod
    def _inv_name(role) -> str:
        if role[1][0] != "name":
            raise ValueError("inverse of a non-basic role: %r" % (role,))
        return role[1][1]


# ---------------------------------------------------------------- checks

_MODELS: dict[tuple[str, str], Model] = {}


def _model(doc: str, interp: str) -> Model:
    key = (doc, interp)
    if key not in _MODELS:
        with open(doc, encoding="utf-8") as handle:
            _MODELS[key] = Model.from_body(json.load(handle)["interpretations"][interp])
    return _MODELS[key]


def check(spec: dict, code: int, text: str) -> str | None:
    """None when the command's exit code and output are right, else why not."""
    kind = spec["type"]
    want = spec.get("exit", 0)
    if code != want:
        return "exit code %d, expected %d" % (code, want)
    if kind == "blocks":
        blocks = [line.split(":", 1)[1].split() for line in text.splitlines()]
        members = [x for b in blocks for x in b]
        if len(members) != spec["n"] or len(set(members)) != spec["n"]:
            return "blocks do not cover the %d elements once" % spec["n"]
        if len(blocks) != spec["blocks"]:
            return "%d blocks, expected %d" % (len(blocks), spec["blocks"])
        if spec.get("singletons") and any(len(b) != 1 for b in blocks):
            return "a block is not a singleton"
        return None
    if kind == "minimize":
        body = next(iter(json.loads(text)["interpretations"].values()))
        if len(body["domain"]) != spec["elements"]:
            return "%d elements, expected %d" % (len(body["domain"]), spec["elements"])
        if spec["qs"] != ("counts" in body):
            return "counts present: %s, expected %s" % ("counts" in body, spec["qs"])
        return None
    if kind == "bisim":
        lines = text.splitlines()
        if want == 1:
            return None if lines == ["NOT BISIMILAR"] else "unexpected output %r" % lines[:2]
        expect = ["BISIMILAR", "pairs: %d" % spec["pairs"]]
        return None if lines == expect else "output %r, expected %r" % (lines[:2], expect)
    if kind == "kb":
        got = [line.split(":", 1)[0].split()[-1] for line in text.splitlines()]
        return None if got == spec["verdicts"] else "verdicts %r, expected %r" % (got, spec["verdicts"])
    if kind == "eval":
        got = sorted(text.split())
        return None if got == spec["elements"] else "%d elements differ from the reference" % len(got)
    if kind == "witness":
        m = _model(spec["doc"], spec["interp"])
        index = {m.name(x): x for x in range(m.n)}
        ext = RefEval(m).concept(text)
        if index[spec["left"]] not in ext or index[spec["right"]] in ext:
            return "the witness does not separate %s from %s" % (spec["left"], spec["right"])
        return None
    raise ValueError("unknown check %r" % kind)
