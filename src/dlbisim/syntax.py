"""Concept and role syntax trees, feature gating, normal form, text grammar.

Everything here is pure syntax.  Nodes are frozen dataclasses, so terms
compare and deduplicate structurally.  The text grammar is whitespace
separated ASCII:

    concept  := "top" | "bottom" | NAME | "{" NAME "}"
              | "not" concept
              | "(" concept ("and" | "or") concept ")"
              | "(" concept ")"
              | ("some" | "all") role concept
              | ("atleast" | "atmost") INT basic concept
              | "self" NAME
    role     := primary "*"*
    primary  := NAME | "eps" | "U" | "inv" "(" role ")" | "test" "(" concept ")"
              | "(" role (";" | "|") role ")" | "(" role ")"
    basic    := NAME | "inv" "(" NAME ")"

    gci      := concept "sub" concept
    raxiom   := "eps" "sub" NAME | basic (";" basic)* "sub" NAME
    assertion:= NAME "=" NAME | NAME "!=" NAME
              | role "(" NAME "," NAME ")" | "not" role "(" NAME "," NAME ")"
              | concept "(" NAME ")"

INT is a run of the ASCII digits 0-9, at most MAX_COUNT; other
characters that Unicode counts as digits are not read as numbers.
Keywords (top bottom not and or some all atleast atmost self inv test
eps sub U) are reserved and cannot be used as names.  The printer emits
exactly this grammar, so print and parse are mutually inverse.

Terms are DAGs: a subterm may be shared by several parents, as in the
separating concepts of the quotient module, whose trees are exponentially
larger than their DAGs.  Every walker here (sizes, feature and name
checks, the converse normal form, both printers) runs from an explicit
stack over `children` and handles each distinct node once, keyed by
identity, so it costs the DAG, not the tree, and no Python frames however
deep the term nests.  The printers add the characters they write: their
output is the tree and can be exponentially long.  Structural `==` and
`hash` (the dataclass ones) do not share this: they recurse and cost the
tree size.

Parsed terms nest at most MAX_DEPTH levels deep: every name, keyword
constructor, star and pair of brackets on the way from the outside of a
term to its innermost part is one level, so `not not A` is three levels
deep.  Deeper input raises ParseError, which keeps the recursive-descent
parser below far from Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import ParseError, UnknownNameError

MAX_COUNT = 2 ** 32
MAX_DEPTH = 200


# --- role constructors ---

@dataclass(frozen=True)
class RoleName:
    name: str


@dataclass(frozen=True)
class Inverse:
    role: "Role"


@dataclass(frozen=True)
class Compose:
    left: "Role"
    right: "Role"


@dataclass(frozen=True)
class RoleUnion:
    left: "Role"
    right: "Role"


@dataclass(frozen=True)
class Star:
    role: "Role"


@dataclass(frozen=True)
class Test:
    concept: "Concept"


@dataclass(frozen=True)
class Epsilon:
    pass


@dataclass(frozen=True)
class UniversalRole:
    pass


# --- concept constructors ---

@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class ConceptName:
    name: str


@dataclass(frozen=True)
class Nominal:
    name: str


@dataclass(frozen=True)
class Not:
    concept: "Concept"


@dataclass(frozen=True)
class And:
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True)
class Or:
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True)
class Some:
    role: "Role"
    concept: "Concept"


@dataclass(frozen=True)
class All:
    role: "Role"
    concept: "Concept"


@dataclass(frozen=True)
class AtLeast:
    bound: int
    role: "Role"
    concept: "Concept"


@dataclass(frozen=True)
class AtMost:
    bound: int
    role: "Role"
    concept: "Concept"


@dataclass(frozen=True)
class HasSelf:
    role: str


Role = Union[RoleName, Inverse, Compose, RoleUnion, Star, Test, Epsilon, UniversalRole]
Concept = Union[Top, Bottom, ConceptName, Nominal, Not, And, Or, Some, All, AtLeast, AtMost, HasSelf]


# --- axioms and assertions ---

@dataclass(frozen=True)
class EpsilonSub:
    """eps sub r: the diagonal is contained in the role."""
    role: str


@dataclass(frozen=True)
class ChainSub:
    """B1 ; ... ; Bk sub r with every Bi a basic role."""
    chain: tuple[Role, ...]
    role: str


@dataclass(frozen=True)
class GCI:
    lhs: "Concept"
    rhs: "Concept"


@dataclass(frozen=True)
class ConceptAssertion:
    concept: "Concept"
    individual: str


@dataclass(frozen=True)
class RoleAssertion:
    role: "Role"
    a: str
    b: str


@dataclass(frozen=True)
class NegatedRoleAssertion:
    role: "Role"
    a: str
    b: str


@dataclass(frozen=True)
class SameAs:
    a: str
    b: str


@dataclass(frozen=True)
class DifferentFrom:
    a: str
    b: str


RoleAxiom = Union[EpsilonSub, ChainSub]
Assertion = Union[ConceptAssertion, RoleAssertion, NegatedRoleAssertion, SameAs, DifferentFrom]


@dataclass(frozen=True)
class KnowledgeBase:
    rbox: tuple[RoleAxiom, ...] = ()
    tbox: tuple[GCI, ...] = ()
    abox: tuple[Assertion, ...] = ()


def is_basic(role) -> bool:
    return isinstance(role, RoleName) or (
        isinstance(role, Inverse) and isinstance(role.role, RoleName)
    )


# --- traversal ---

_CHILDREN = {kind: get for kinds, get in (
    ((Top, Bottom, ConceptName, Nominal, HasSelf, RoleName, Epsilon, UniversalRole,
      EpsilonSub, SameAs, DifferentFrom), lambda n: ()),
    ((Not, Test, ConceptAssertion), lambda n: (n.concept,)),
    ((Inverse, Star, RoleAssertion, NegatedRoleAssertion), lambda n: (n.role,)),
    ((And, Or, Compose, RoleUnion), lambda n: (n.left, n.right)),
    ((Some, All, AtLeast, AtMost), lambda n: (n.role, n.concept)),
    ((GCI,), lambda n: (n.lhs, n.rhs)),
    ((ChainSub,), lambda n: n.chain),
    ((KnowledgeBase,), lambda n: n.rbox + n.tbox + n.abox),
) for kind in kinds}


def children(node) -> tuple:
    """The direct subterms of a term, axiom, assertion or KB, in text order."""
    get = _CHILDREN.get(type(node))
    if get is None:
        raise TypeError("not a syntax node: %r" % (node,))
    return get(node)


def _walk(root):
    """Yield (node, False) on reaching each distinct node, in pre-order,
    then (node, True) once all its children have been yielded.

    Nodes are told apart by identity, so a subterm shared by several
    parents is visited once, and the explicit stack costs no Python
    frames however deep the term nests.
    """
    seen = set()
    stack = [(root, False)]
    push = stack.append
    while stack:
        node, done = stack.pop()
        if done:
            yield node, True
        elif id(node) not in seen:
            seen.add(id(node))
            yield node, False
            push((node, True))
            for kid in reversed(children(node)):
                push((kid, False))


def ast_size(node) -> int:
    """Number of constructor nodes of a term, axiom or assertion read as a tree.

    Names and integer bounds are free.  Computed on the DAG, so a
    heavily shared term is counted exactly without being unfolded.
    """
    size: dict[int, int] = {}
    for n, done in _walk(node):
        if done:
            size[id(n)] = 1 + sum(size[id(kid)] for kid in children(n))
    return size[id(node)]


# --- feature gating ---

@dataclass
class LanguageCheck:
    ok: bool
    violations: list  # (subterm, requirement letter or "basic")


def validate_in_language(phi, expr) -> LanguageCheck:
    """Check every feature-gated constructor of expr against phi.

    Works on concepts, roles, axioms, assertions and whole knowledge
    bases.  Each violation names the offending subterm and the feature
    it needs ("I", "O", "Q", "U", "S") or "basic" when a number
    restriction or chain carries a non-basic role.  Violations come in
    pre-order of first occurrence; a shared subterm is reported once.
    """
    bad = []
    chained: set[int] = set()  # chain members, which must be basic roles
    for node, done in _walk(expr):
        if done:
            continue
        kind = type(node)
        if id(node) in chained and not is_basic(node):
            bad.append((node, "basic"))
        if kind is Inverse:
            if not phi.inverse:
                bad.append((node, "I"))
        elif kind is UniversalRole:
            if not phi.universal:
                bad.append((node, "U"))
        elif kind is Nominal:
            if not phi.nominals:
                bad.append((node, "O"))
        elif kind in (AtLeast, AtMost):
            if not phi.counting:
                bad.append((node, "Q"))
            if not is_basic(node.role):
                bad.append((node, "basic"))
        elif kind is HasSelf:
            if not phi.local_refl:
                bad.append((node, "S"))
        elif kind is ChainSub:
            chained.update(map(id, node.chain))
    return LanguageCheck(not bad, bad)


def check_names(signature, expr) -> None:
    """Raise UnknownNameError for the first name of expr outside the signature.

    Names are checked in pre-order, except that an assertion's
    individuals come after the concept or role it asserts.
    """

    def role_name(name, node):
        if name not in signature.role_index:
            raise UnknownNameError("unknown role name %r in %s" % (name, to_text(node)))

    def individual(name):
        if name not in signature.individual_index:
            raise UnknownNameError("unknown individual name %r" % name)

    for node, done in _walk(expr):
        kind = type(node)
        if done:
            if kind is ConceptAssertion:
                individual(node.individual)
            elif kind in (RoleAssertion, NegatedRoleAssertion):
                individual(node.a)
                individual(node.b)
        elif kind is ConceptName:
            if node.name not in signature.concept_index:
                raise UnknownNameError("unknown concept name %r" % node.name)
        elif kind is RoleName:
            role_name(node.name, node)
        elif kind is HasSelf:
            role_name(node.role, node)
        elif kind is Nominal:
            individual(node.name)
        elif kind in (EpsilonSub, ChainSub):
            role_name(node.role, RoleName(node.role))
        elif kind in (SameAs, DifferentFrom):
            individual(node.a)
            individual(node.b)


# --- converse normal form ---

def to_cnf(node):
    """Push inversion down to role names, in a role or a concept.

    Inverses of composition reverse the operands, inverses of tests,
    eps and U vanish (those relations are symmetric), double inversion
    cancels.  The result is semantically equal to the input and
    idempotent under repeated application.  Each distinct input node is
    rewritten once, so a shared subterm stays shared in the result.
    """
    plain: dict[int, object] = {}    # id -> normal form of the node
    flipped: dict[int, object] = {}  # id -> normal form of inv(node), for roles
    for n, done in _walk(node):
        if not done:
            continue
        kind = type(n)
        if kind is RoleName:
            plain[id(n)], flipped[id(n)] = n, Inverse(n)
        elif kind is Inverse:
            inner = n.role
            plain[id(n)] = n if type(inner) is RoleName else flipped[id(inner)]
            flipped[id(n)] = plain[id(inner)]
        elif kind is Compose:
            left, right = id(n.left), id(n.right)
            plain[id(n)] = Compose(plain[left], plain[right])
            flipped[id(n)] = Compose(flipped[right], flipped[left])
        elif kind is RoleUnion:
            left, right = id(n.left), id(n.right)
            plain[id(n)] = RoleUnion(plain[left], plain[right])
            flipped[id(n)] = RoleUnion(flipped[left], flipped[right])
        elif kind is Star:
            plain[id(n)], flipped[id(n)] = Star(plain[id(n.role)]), Star(flipped[id(n.role)])
        elif kind is Test:
            plain[id(n)] = flipped[id(n)] = Test(plain[id(n.concept)])
        elif kind in (Epsilon, UniversalRole):
            plain[id(n)] = flipped[id(n)] = n
        elif kind in (Top, Bottom, ConceptName, Nominal, HasSelf):
            plain[id(n)] = n
        elif kind is Not:
            plain[id(n)] = Not(plain[id(n.concept)])
        elif kind in (And, Or):
            plain[id(n)] = kind(plain[id(n.left)], plain[id(n.right)])
        elif kind in (Some, All):
            plain[id(n)] = kind(plain[id(n.role)], plain[id(n.concept)])
        elif kind in (AtLeast, AtMost):
            plain[id(n)] = kind(n.bound, plain[id(n.role)], plain[id(n.concept)])
        else:
            raise TypeError("not a concept or role node: %s" % type(n).__name__)
    return plain[id(node)]


def in_cnf(node) -> bool:
    """True when every Inverse in the term sits directly on a role name."""
    return not any(type(n) is Inverse and type(n.role) is not RoleName
                   for n, done in _walk(node) if not done)


# --- printing ---

def _chain_text(n):
    parts = []
    for b in n.chain:
        parts += (" ; ", b) if parts else (b,)
    return (*parts, " sub %s" % n.role)


# Per node type, the node's text as a sequence of strings and children.
_TEXT = {
    Top: lambda n: ("top",),
    Bottom: lambda n: ("bottom",),
    ConceptName: lambda n: (n.name,),
    Nominal: lambda n: ("{%s}" % n.name,),
    Not: lambda n: ("not ", n.concept),
    And: lambda n: ("(", n.left, " and ", n.right, ")"),
    Or: lambda n: ("(", n.left, " or ", n.right, ")"),
    Some: lambda n: ("some ", n.role, " ", n.concept),
    All: lambda n: ("all ", n.role, " ", n.concept),
    AtLeast: lambda n: ("atleast %d " % n.bound, n.role, " ", n.concept),
    AtMost: lambda n: ("atmost %d " % n.bound, n.role, " ", n.concept),
    HasSelf: lambda n: ("self %s" % n.role,),
    RoleName: lambda n: (n.name,),
    Inverse: lambda n: ("inv(", n.role, ")"),
    Compose: lambda n: ("(", n.left, " ; ", n.right, ")"),
    RoleUnion: lambda n: ("(", n.left, " | ", n.right, ")"),
    Star: lambda n: ("(", n.role, ")*"),
    Test: lambda n: ("test(", n.concept, ")"),
    Epsilon: lambda n: ("eps",),
    UniversalRole: lambda n: ("U",),
    EpsilonSub: lambda n: ("eps sub %s" % n.role,),
    ChainSub: _chain_text,
    GCI: lambda n: (n.lhs, " sub ", n.rhs),
    ConceptAssertion: lambda n: (n.concept, "(%s)" % n.individual),
    RoleAssertion: lambda n: (n.role, "(%s, %s)" % (n.a, n.b)),
    NegatedRoleAssertion: lambda n: ("not ", n.role, "(%s, %s)" % (n.a, n.b)),
    SameAs: lambda n: ("%s = %s" % (n.a, n.b),),
    DifferentFrom: lambda n: ("%s != %s" % (n.a, n.b),),
}

_UNICODE = {
    Top: lambda n: ("⊤",),
    Bottom: lambda n: ("⊥",),
    ConceptName: lambda n: (n.name,),
    Nominal: lambda n: ("{%s}" % n.name,),
    Not: lambda n: ("¬", n.concept),
    And: lambda n: ("(", n.left, " ⊓ ", n.right, ")"),
    Or: lambda n: ("(", n.left, " ⊔ ", n.right, ")"),
    Some: lambda n: ("∃", n.role, ".", n.concept),
    All: lambda n: ("∀", n.role, ".", n.concept),
    AtLeast: lambda n: ("(≥ %d " % n.bound, n.role, ".", n.concept, ")"),
    AtMost: lambda n: ("(≤ %d " % n.bound, n.role, ".", n.concept, ")"),
    HasSelf: lambda n: ("∃%s.Self" % n.role,),
    RoleName: lambda n: (n.name,),
    Inverse: lambda n: ((n.role, "⁻") if type(n.role) is RoleName else ("(", n.role, ")⁻")),
    Compose: lambda n: ("(", n.left, " ∘ ", n.right, ")"),
    RoleUnion: lambda n: ("(", n.left, " ∪ ", n.right, ")"),
    Star: lambda n: ("(", n.role, ")*"),
    Test: lambda n: (n.concept, "?"),
    Epsilon: lambda n: ("ε",),
    UniversalRole: lambda n: ("U",),
}


def _render(root, parts) -> str:
    """The text of root, from the per-type parts of each node.

    A node with several parents is rendered once into a string that its
    parents copy, and that string is dropped once its last parent has
    copied it.  Every other node is rendered in line into its nearest
    such ancestor, so a deep unshared term costs no repeated copying.
    """
    uses: dict[int, int] = {}
    order = []
    for node, done in _walk(root):
        if done:
            order.append(node)
        elif type(node) not in parts:
            raise TypeError("cannot print a %s" % type(node).__name__)
        else:
            for kid in children(node):
                uses[id(kid)] = uses.get(id(kid), 0) + 1
    shared: dict[int, str] = {}
    for node in order:
        if uses.get(id(node), 0) < 2 and node is not root:
            continue
        out = []
        stack = list(reversed(parts[type(node)](node)))
        while stack:
            part = stack.pop()
            if type(part) is str:
                out.append(part)
            elif id(part) in shared:
                out.append(shared[id(part)])
                uses[id(part)] -= 1
                if not uses[id(part)]:
                    del shared[id(part)]
            else:
                stack.extend(reversed(parts[type(part)](part)))
        shared[id(node)] = "".join(out)
    return shared[id(root)]


def to_text(node) -> str:
    """Canonical ASCII rendering, parseable by the functions below."""
    return _render(node, _TEXT)


def to_unicode(node) -> str:
    """Display rendering with the usual symbols; not meant to be parsed."""
    if type(node) not in _UNICODE:
        return to_text(node)
    return _render(node, _UNICODE)


# --- parsing ---

_KEYWORDS = {
    "top", "bottom", "not", "and", "or", "some", "all",
    "atleast", "atmost", "self", "inv", "test", "eps", "sub", "U",
}

_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
    ";": "SEMI", "|": "PIPE", "*": "STAR", ",": "COMMA", "=": "EQ",
}

# keywords and operators that differ only in the node they make
_QUANTIFIERS = {"some": Some, "all": All}
_COUNTERS = {"atleast": AtLeast, "atmost": AtMost}
_CONNECTIVES = {"and": And, "or": Or}
_ROLE_OPERATORS = {"SEMI": Compose, "PIPE": RoleUnion}


@dataclass(frozen=True)
class _Tok:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "!" and i + 1 < len(text) and text[i + 1] == "=":
            toks.append(_Tok("NEQ", "!=", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            toks.append(_Tok(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            toks.append(_Tok("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.rewind(0)

    def rewind(self, pos: int):
        self.pos = pos
        self.depth = 0    # levels open around the current token
        self.deepest = 0  # deepest level parsed so far, stars included

    def descend(self):
        self.depth += 1
        self.reach(self.depth)

    def reach(self, level: int):
        self.deepest = max(self.deepest, level)
        if self.deepest > MAX_DEPTH:
            self.fail("term nested deeper than %d levels" % MAX_DEPTH)

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message + (", got %r" % (tok.value or "end of input")), tok.line, tok.col)

    def expect(self, kind: str, what: str) -> _Tok:
        if self.peek().kind != kind:
            self.fail("expected %s" % what)
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "NAME" and tok.value == word

    def take_keyword(self, word: str):
        if not self.at_keyword(word):
            self.fail("expected %r" % word)
        self.advance()

    def name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "NAME":
            self.fail("expected %s" % what)
        if tok.value in _KEYWORDS:
            self.fail("reserved word cannot be used as %s" % what)
        return self.advance().value

    def int_bound(self) -> int:
        tok = self.expect("INT", "a non-negative integer")
        # int() is not asked to read a bound too long to be below MAX_COUNT
        if len(tok.value.lstrip("0")) > len(str(MAX_COUNT)):
            raise ParseError("counting bound of %d digits is too large" % len(tok.value),
                             tok.line, tok.col)
        value = int(tok.value)
        if value > MAX_COUNT:
            raise ParseError("counting bound %d is too large" % value, tok.line, tok.col)
        return value

    def eof(self):
        if self.peek().kind != "EOF":
            self.fail("trailing input")

    # concept := see module docstring
    def concept(self) -> Concept:
        self.descend()
        node = self.concept_body()
        self.depth -= 1
        return node

    def concept_body(self) -> Concept:
        if self.at_keyword("top"):
            self.advance()
            return Top()
        if self.at_keyword("bottom"):
            self.advance()
            return Bottom()
        if self.at_keyword("not"):
            self.advance()
            return Not(self.concept())
        tok = self.peek()
        if tok.kind == "NAME" and tok.value in _QUANTIFIERS:
            self.advance()
            role = self.role()
            return _QUANTIFIERS[tok.value](role, self.concept())
        if tok.kind == "NAME" and tok.value in _COUNTERS:
            self.advance()
            bound = self.int_bound()
            role = self.basic_role()
            return _COUNTERS[tok.value](bound, role, self.concept())
        if self.at_keyword("self"):
            self.advance()
            return HasSelf(self.name("a role name"))
        if tok.kind == "LBRACE":
            self.advance()
            name = self.name("an individual name")
            self.expect("RBRACE", "'}'")
            return Nominal(name)
        if tok.kind == "LPAREN":
            self.advance()
            left = self.concept()
            op = self.peek()
            if op.kind == "NAME" and op.value in _CONNECTIVES:
                self.advance()
                left = _CONNECTIVES[op.value](left, self.concept())
            self.expect("RPAREN", "')'")
            return left
        if tok.kind == "NAME":
            return ConceptName(self.name("a concept name"))
        self.fail("expected a concept")

    def role(self) -> Role:
        outer, self.deepest = self.deepest, self.depth
        node = self.role_primary()
        stars = 0
        while self.peek().kind == "STAR":
            self.advance()
            node = Star(node)
            stars += 1
        # the stars push everything inside the primary down by as many levels
        inner, self.deepest = self.deepest, outer
        self.reach(inner + stars)
        return node

    def role_primary(self) -> Role:
        self.descend()
        node = self.role_primary_body()
        self.depth -= 1
        return node

    def role_primary_body(self) -> Role:
        if self.at_keyword("eps"):
            self.advance()
            return Epsilon()
        tok = self.peek()
        if tok.kind == "NAME" and tok.value == "U":
            self.advance()
            return UniversalRole()
        if self.at_keyword("inv"):
            self.advance()
            self.expect("LPAREN", "'('")
            inner = self.role()
            self.expect("RPAREN", "')'")
            return Inverse(inner)
        if self.at_keyword("test"):
            self.advance()
            self.expect("LPAREN", "'('")
            inner = self.concept()
            self.expect("RPAREN", "')'")
            return Test(inner)
        if tok.kind == "LPAREN":
            self.advance()
            left = self.role()
            op = _ROLE_OPERATORS.get(self.peek().kind)
            if op is not None:
                self.advance()
                left = op(left, self.role())
            self.expect("RPAREN", "')'")
            return left
        if tok.kind == "NAME":
            return RoleName(self.name("a role name"))
        self.fail("expected a role")

    def basic_role(self) -> Role:
        role = self.role()
        if not is_basic(role):
            self.fail("number restrictions take a role name or its inverse")
        return role


def parse_concept(text: str) -> Concept:
    p = _Parser(text)
    c = p.concept()
    p.eof()
    return c


def parse_role(text: str) -> Role:
    p = _Parser(text)
    r = p.role()
    p.eof()
    return r


def parse_gci(text: str) -> GCI:
    p = _Parser(text)
    lhs = p.concept()
    p.take_keyword("sub")
    rhs = p.concept()
    p.eof()
    return GCI(lhs, rhs)


def parse_role_axiom(text: str) -> RoleAxiom:
    p = _Parser(text)
    if p.at_keyword("eps"):
        p.advance()
        p.take_keyword("sub")
        role = p.name("a role name")
        p.eof()
        return EpsilonSub(role)
    chain = [p.basic_role()]
    while p.peek().kind == "SEMI":
        p.advance()
        chain.append(p.basic_role())
    p.take_keyword("sub")
    role = p.name("a role name")
    p.eof()
    return ChainSub(tuple(chain), role)


def parse_assertion(text: str) -> Assertion:
    p = _Parser(text)
    mark = p.pos
    # a = b / a != b
    if p.peek().kind == "NAME" and p.peek().value not in _KEYWORDS:
        a = p.advance().value
        if p.peek().kind == "EQ":
            p.advance()
            b = p.name("an individual name")
            p.eof()
            return SameAs(a, b)
        if p.peek().kind == "NEQ":
            p.advance()
            b = p.name("an individual name")
            p.eof()
            return DifferentFrom(a, b)
        p.rewind(mark)
    # R(a, b), then not R(a, b)
    for node in (RoleAssertion, NegatedRoleAssertion):
        if node is NegatedRoleAssertion:
            if not p.at_keyword("not"):
                break
            p.advance()
        try:
            role = p.role()
            p.expect("LPAREN", "'('")
            a = p.name("an individual name")
            p.expect("COMMA", "','")
            b = p.name("an individual name")
            p.expect("RPAREN", "')'")
            p.eof()
            return node(role, a, b)
        except ParseError:
            p.rewind(mark)
    # C(a)
    concept = p.concept()
    p.expect("LPAREN", "'('")
    a = p.name("an individual name")
    p.expect("RPAREN", "')'")
    p.eof()
    return ConceptAssertion(concept, a)
