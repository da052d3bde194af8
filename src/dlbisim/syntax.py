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

Keywords (top bottom not and or some all atleast atmost self inv test
eps sub U) are reserved and cannot be used as names.  The printer emits
exactly this grammar, so print and parse are mutually inverse.

Parsed terms nest at most MAX_DEPTH levels deep: every name, keyword
constructor, star and pair of brackets on the way from the outside of a
term to its innermost part is one level, so `not not A` is three levels
deep.  Deeper input raises ParseError, which keeps the recursive
walkers below far from Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union, get_args

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


def ast_size(node) -> int:
    """Number of constructor nodes; names and integer bounds are free."""
    if isinstance(node, (RoleName, Epsilon, UniversalRole, Top, Bottom, ConceptName, Nominal, HasSelf)):
        return 1
    if isinstance(node, (Inverse, Star)):
        return 1 + ast_size(node.role)
    if isinstance(node, (Compose, RoleUnion, And, Or)):
        return 1 + ast_size(node.left) + ast_size(node.right)
    if isinstance(node, Test):
        return 1 + ast_size(node.concept)
    if isinstance(node, Not):
        return 1 + ast_size(node.concept)
    if isinstance(node, (Some, All, AtLeast, AtMost)):
        return 1 + ast_size(node.role) + ast_size(node.concept)
    raise TypeError("not a concept or role node: %r" % (node,))


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
    restriction or chain carries a non-basic role.
    """
    bad = []

    def walk_role(r):
        if isinstance(r, RoleName):
            return
        if isinstance(r, Inverse):
            if not phi.inverse:
                bad.append((r, "I"))
            walk_role(r.role)
        elif isinstance(r, (Compose, RoleUnion)):
            walk_role(r.left)
            walk_role(r.right)
        elif isinstance(r, Star):
            walk_role(r.role)
        elif isinstance(r, Test):
            walk_concept(r.concept)
        elif isinstance(r, UniversalRole):
            if not phi.universal:
                bad.append((r, "U"))
        elif isinstance(r, Epsilon):
            pass
        else:
            raise TypeError("not a role node: %r" % (r,))

    def walk_concept(c):
        if isinstance(c, (Top, Bottom, ConceptName)):
            return
        if isinstance(c, Nominal):
            if not phi.nominals:
                bad.append((c, "O"))
        elif isinstance(c, Not):
            walk_concept(c.concept)
        elif isinstance(c, (And, Or)):
            walk_concept(c.left)
            walk_concept(c.right)
        elif isinstance(c, (Some, All)):
            walk_role(c.role)
            walk_concept(c.concept)
        elif isinstance(c, (AtLeast, AtMost)):
            if not phi.counting:
                bad.append((c, "Q"))
            if not is_basic(c.role):
                bad.append((c, "basic"))
            walk_role(c.role)
            walk_concept(c.concept)
        elif isinstance(c, HasSelf):
            if not phi.local_refl:
                bad.append((c, "S"))
        else:
            raise TypeError("not a concept node: %r" % (c,))

    def walk(e):
        if isinstance(e, KnowledgeBase):
            for part in e.rbox + e.tbox + e.abox:
                walk(part)
        elif isinstance(e, EpsilonSub):
            pass
        elif isinstance(e, ChainSub):
            for b in e.chain:
                if not is_basic(b):
                    bad.append((b, "basic"))
                walk_role(b)
        elif isinstance(e, GCI):
            walk_concept(e.lhs)
            walk_concept(e.rhs)
        elif isinstance(e, ConceptAssertion):
            walk_concept(e.concept)
        elif isinstance(e, (RoleAssertion, NegatedRoleAssertion)):
            walk_role(e.role)
        elif isinstance(e, (SameAs, DifferentFrom)):
            pass
        elif isinstance(e, get_args(Concept)):
            walk_concept(e)
        else:
            walk_role(e)

    walk(expr)
    return LanguageCheck(not bad, bad)


def check_names(signature, expr) -> None:
    """Raise UnknownNameError when expr mentions a name outside the signature."""

    def role_name(name, node):
        if name not in signature.role_index:
            raise UnknownNameError("unknown role name %r in %s" % (name, to_text(node)))

    def walk(e):
        if isinstance(e, KnowledgeBase):
            for part in e.rbox + e.tbox + e.abox:
                walk(part)
            return
        if isinstance(e, EpsilonSub):
            role_name(e.role, RoleName(e.role))
            return
        if isinstance(e, ChainSub):
            role_name(e.role, RoleName(e.role))
            for b in e.chain:
                walk(b)
            return
        if isinstance(e, GCI):
            walk(e.lhs)
            walk(e.rhs)
            return
        if isinstance(e, ConceptAssertion):
            walk(e.concept)
            walk_indiv(e.individual)
            return
        if isinstance(e, (RoleAssertion, NegatedRoleAssertion)):
            walk(e.role)
            walk_indiv(e.a)
            walk_indiv(e.b)
            return
        if isinstance(e, (SameAs, DifferentFrom)):
            walk_indiv(e.a)
            walk_indiv(e.b)
            return
        if isinstance(e, ConceptName):
            if e.name not in signature.concept_index:
                raise UnknownNameError("unknown concept name %r" % e.name)
        elif isinstance(e, Nominal):
            walk_indiv(e.name)
        elif isinstance(e, RoleName):
            role_name(e.name, e)
        elif isinstance(e, HasSelf):
            role_name(e.role, e)
        elif isinstance(e, (Inverse, Star)):
            walk(e.role)
        elif isinstance(e, (Compose, RoleUnion, And, Or)):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, (Test, Not)):
            walk(e.concept)
        elif isinstance(e, (Some, All, AtLeast, AtMost)):
            walk(e.role)
            walk(e.concept)

    def walk_indiv(name):
        if name not in signature.individual_index:
            raise UnknownNameError("unknown individual name %r" % name)

    walk(expr)


# --- converse normal form ---

def to_cnf(role: Role) -> Role:
    """Push inversion down to role names.

    Inverses of composition reverse the operands, inverses of tests,
    eps and U vanish (those relations are symmetric), double inversion
    cancels.  The result is semantically equal to the input and
    idempotent under repeated application.
    """
    if isinstance(role, Inverse):
        inner = role.role
        if isinstance(inner, RoleName):
            return role
        if isinstance(inner, Inverse):
            return to_cnf(inner.role)
        if isinstance(inner, Compose):
            return Compose(to_cnf(Inverse(inner.right)), to_cnf(Inverse(inner.left)))
        if isinstance(inner, RoleUnion):
            return RoleUnion(to_cnf(Inverse(inner.left)), to_cnf(Inverse(inner.right)))
        if isinstance(inner, Star):
            return Star(to_cnf(Inverse(inner.role)))
        if isinstance(inner, Test):
            return Test(_cnf_concept(inner.concept))
        if isinstance(inner, (Epsilon, UniversalRole)):
            return inner
        raise TypeError("not a role node: %r" % (inner,))
    if isinstance(role, Compose):
        return Compose(to_cnf(role.left), to_cnf(role.right))
    if isinstance(role, RoleUnion):
        return RoleUnion(to_cnf(role.left), to_cnf(role.right))
    if isinstance(role, Star):
        return Star(to_cnf(role.role))
    if isinstance(role, Test):
        return Test(_cnf_concept(role.concept))
    if isinstance(role, (RoleName, Epsilon, UniversalRole)):
        return role
    raise TypeError("not a role node: %r" % (role,))


def _cnf_concept(c: Concept) -> Concept:
    if isinstance(c, (Top, Bottom, ConceptName, Nominal, HasSelf)):
        return c
    if isinstance(c, Not):
        return Not(_cnf_concept(c.concept))
    if isinstance(c, And):
        return And(_cnf_concept(c.left), _cnf_concept(c.right))
    if isinstance(c, Or):
        return Or(_cnf_concept(c.left), _cnf_concept(c.right))
    if isinstance(c, Some):
        return Some(to_cnf(c.role), _cnf_concept(c.concept))
    if isinstance(c, All):
        return All(to_cnf(c.role), _cnf_concept(c.concept))
    if isinstance(c, AtLeast):
        return AtLeast(c.bound, to_cnf(c.role), _cnf_concept(c.concept))
    if isinstance(c, AtMost):
        return AtMost(c.bound, to_cnf(c.role), _cnf_concept(c.concept))
    raise TypeError("not a concept node: %r" % (c,))


def in_cnf(node) -> bool:
    """True when every Inverse in the tree sits directly on a role name."""
    if isinstance(node, Inverse):
        return isinstance(node.role, RoleName)
    if isinstance(node, (Compose, RoleUnion, And, Or)):
        return in_cnf(node.left) and in_cnf(node.right)
    if isinstance(node, Star):
        return in_cnf(node.role)
    if isinstance(node, (Test, Not)):
        return in_cnf(node.concept)
    if isinstance(node, (Some, All, AtLeast, AtMost)):
        return in_cnf(node.role) and in_cnf(node.concept)
    return True


# --- printing ---

def to_text(node) -> str:
    """Canonical ASCII rendering, parseable by the functions below."""
    if isinstance(node, Top):
        return "top"
    if isinstance(node, Bottom):
        return "bottom"
    if isinstance(node, ConceptName):
        return node.name
    if isinstance(node, Nominal):
        return "{%s}" % node.name
    if isinstance(node, Not):
        return "not %s" % to_text(node.concept)
    if isinstance(node, And):
        return "(%s and %s)" % (to_text(node.left), to_text(node.right))
    if isinstance(node, Or):
        return "(%s or %s)" % (to_text(node.left), to_text(node.right))
    if isinstance(node, Some):
        return "some %s %s" % (to_text(node.role), to_text(node.concept))
    if isinstance(node, All):
        return "all %s %s" % (to_text(node.role), to_text(node.concept))
    if isinstance(node, AtLeast):
        return "atleast %d %s %s" % (node.bound, to_text(node.role), to_text(node.concept))
    if isinstance(node, AtMost):
        return "atmost %d %s %s" % (node.bound, to_text(node.role), to_text(node.concept))
    if isinstance(node, HasSelf):
        return "self %s" % node.role
    if isinstance(node, RoleName):
        return node.name
    if isinstance(node, Inverse):
        return "inv(%s)" % to_text(node.role)
    if isinstance(node, Compose):
        return "(%s ; %s)" % (to_text(node.left), to_text(node.right))
    if isinstance(node, RoleUnion):
        return "(%s | %s)" % (to_text(node.left), to_text(node.right))
    if isinstance(node, Star):
        return "(%s)*" % to_text(node.role)
    if isinstance(node, Test):
        return "test(%s)" % to_text(node.concept)
    if isinstance(node, Epsilon):
        return "eps"
    if isinstance(node, UniversalRole):
        return "U"
    if isinstance(node, EpsilonSub):
        return "eps sub %s" % node.role
    if isinstance(node, ChainSub):
        return "%s sub %s" % (" ; ".join(to_text(b) for b in node.chain), node.role)
    if isinstance(node, GCI):
        return "%s sub %s" % (to_text(node.lhs), to_text(node.rhs))
    if isinstance(node, ConceptAssertion):
        return "%s(%s)" % (to_text(node.concept), node.individual)
    if isinstance(node, RoleAssertion):
        return "%s(%s, %s)" % (to_text(node.role), node.a, node.b)
    if isinstance(node, NegatedRoleAssertion):
        return "not %s(%s, %s)" % (to_text(node.role), node.a, node.b)
    if isinstance(node, SameAs):
        return "%s = %s" % (node.a, node.b)
    if isinstance(node, DifferentFrom):
        return "%s != %s" % (node.a, node.b)
    raise TypeError("cannot print %r" % (node,))


def to_unicode(node) -> str:
    """Display rendering with the usual symbols; not meant to be parsed."""
    if isinstance(node, Top):
        return "⊤"
    if isinstance(node, Bottom):
        return "⊥"
    if isinstance(node, ConceptName):
        return node.name
    if isinstance(node, Nominal):
        return "{%s}" % node.name
    if isinstance(node, Not):
        return "¬%s" % to_unicode(node.concept)
    if isinstance(node, And):
        return "(%s ⊓ %s)" % (to_unicode(node.left), to_unicode(node.right))
    if isinstance(node, Or):
        return "(%s ⊔ %s)" % (to_unicode(node.left), to_unicode(node.right))
    if isinstance(node, Some):
        return "∃%s.%s" % (to_unicode(node.role), to_unicode(node.concept))
    if isinstance(node, All):
        return "∀%s.%s" % (to_unicode(node.role), to_unicode(node.concept))
    if isinstance(node, AtLeast):
        return "(≥ %d %s.%s)" % (node.bound, to_unicode(node.role), to_unicode(node.concept))
    if isinstance(node, AtMost):
        return "(≤ %d %s.%s)" % (node.bound, to_unicode(node.role), to_unicode(node.concept))
    if isinstance(node, HasSelf):
        return "∃%s.Self" % node.role
    if isinstance(node, RoleName):
        return node.name
    if isinstance(node, Inverse):
        inner = to_unicode(node.role)
        if not isinstance(node.role, RoleName):
            inner = "(%s)" % inner
        return "%s⁻" % inner
    if isinstance(node, Compose):
        return "(%s ∘ %s)" % (to_unicode(node.left), to_unicode(node.right))
    if isinstance(node, RoleUnion):
        return "(%s ∪ %s)" % (to_unicode(node.left), to_unicode(node.right))
    if isinstance(node, Star):
        return "(%s)*" % to_unicode(node.role)
    if isinstance(node, Test):
        return "%s?" % to_unicode(node.concept)
    if isinstance(node, Epsilon):
        return "ε"
    if isinstance(node, UniversalRole):
        return "U"
    return to_text(node)


# --- parsing ---

_KEYWORDS = {
    "top", "bottom", "not", "and", "or", "some", "all",
    "atleast", "atmost", "self", "inv", "test", "eps", "sub", "U",
}

_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
    ";": "SEMI", "|": "PIPE", "*": "STAR", ",": "COMMA", "=": "EQ",
}


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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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
        if self.at_keyword("some"):
            self.advance()
            role = self.role()
            return Some(role, self.concept())
        if self.at_keyword("all"):
            self.advance()
            role = self.role()
            return All(role, self.concept())
        if self.at_keyword("atleast"):
            self.advance()
            bound = self.int_bound()
            role = self.basic_role()
            return AtLeast(bound, role, self.concept())
        if self.at_keyword("atmost"):
            self.advance()
            bound = self.int_bound()
            role = self.basic_role()
            return AtMost(bound, role, self.concept())
        if self.at_keyword("self"):
            self.advance()
            return HasSelf(self.name("a role name"))
        tok = self.peek()
        if tok.kind == "LBRACE":
            self.advance()
            name = self.name("an individual name")
            self.expect("RBRACE", "'}'")
            return Nominal(name)
        if tok.kind == "LPAREN":
            self.advance()
            left = self.concept()
            if self.at_keyword("and"):
                self.advance()
                right = self.concept()
                self.expect("RPAREN", "')'")
                return And(left, right)
            if self.at_keyword("or"):
                self.advance()
                right = self.concept()
                self.expect("RPAREN", "')'")
                return Or(left, right)
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
            if self.peek().kind == "SEMI":
                self.advance()
                right = self.role()
                self.expect("RPAREN", "')'")
                return Compose(left, right)
            if self.peek().kind == "PIPE":
                self.advance()
                right = self.role()
                self.expect("RPAREN", "')'")
                return RoleUnion(left, right)
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
    # R(a, b)
    try:
        role = p.role()
        p.expect("LPAREN", "'('")
        a = p.name("an individual name")
        p.expect("COMMA", "','")
        b = p.name("an individual name")
        p.expect("RPAREN", "')'")
        p.eof()
        return RoleAssertion(role, a, b)
    except ParseError:
        p.rewind(mark)
    # not R(a, b)
    if p.at_keyword("not"):
        try:
            p.advance()
            role = p.role()
            p.expect("LPAREN", "'('")
            a = p.name("an individual name")
            p.expect("COMMA", "','")
            b = p.name("an individual name")
            p.expect("RPAREN", "')'")
            p.eof()
            return NegatedRoleAssertion(role, a, b)
        except ParseError:
            p.rewind(mark)
    # C(a)
    concept = p.concept()
    p.expect("LPAREN", "'('")
    a = p.name("an individual name")
    p.expect("RPAREN", "')'")
    p.eof()
    return ConceptAssertion(concept, a)
