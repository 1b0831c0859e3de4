"""First-order syntax: terms, formulas, parser and syntactic operations.

The surface language covers both the set-theoretic fragment (binary ``in``
and ``eq``, name constants ``#k``) and a general predicate signature with
function symbols.  A single ``Neg`` constructor and the surface token ``~``
serve for the paraconsistent negation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

from .errors import PstError


# --- terms -----------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class NameConst:
    ref: int


@dataclass(frozen=True)
class FuncApp:
    sym: str
    args: tuple["Term", ...]


Term = Union[Var, NameConst, FuncApp]


# --- formulas ---------------------------------------------------------------


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Mem:
    left: Term
    right: Term


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Pred:
    sym: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Neg:
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Meta:
    """Schema metavariable; only valid inside axiom-schema templates."""

    name: str


Formula = Union[Bot, Mem, Eq, Pred, And, Or, Imp, Neg, Forall, Exists, Meta]

BOT = Bot()
ATOMS = (Mem, Eq, Pred)
BINOPS = (And, Or, Imp)


def iff(left: Formula, right: Formula) -> Formula:
    """Surface biconditional, expanded to (l -> r) & (r -> l)."""
    return And(Imp(left, right), Imp(right, left))


def iff_sides(phi: Formula) -> tuple[Formula, Formula] | None:
    """(l, r) when phi is ``iff(l, r)``: both sides shared between l -> r and
    r -> l.  A walk that visits each side once stays linear in a chain of
    n biconditionals, where visiting both positions costs 2 ** n."""
    if phi.__class__ is not And:
        return None
    left, right = phi.left, phi.right
    if (
        left.__class__ is Imp
        and right.__class__ is Imp
        and left.left is right.right
        and left.right is right.left
    ):
        return left.left, left.right
    return None


class SyntaxIssue(PstError):
    pass


class FormulaSyntaxError(SyntaxIssue):
    def __init__(self, position: int, expected: str, found: str = ""):
        shown = f", found {found!r}" if found else ""
        super().__init__(f"at {position}: expected {expected}{shown}")
        self.position = position
        self.expected = expected


class UnknownSymbol(SyntaxIssue):
    def __init__(self, sym: str):
        super().__init__(f"unknown symbol {sym!r}")
        self.sym = sym


class ArityMismatch(SyntaxIssue):
    def __init__(self, sym: str, want: int, got: int):
        super().__init__(f"{sym!r} declared /{want}, used /{got}")
        self.sym = sym


class NotFreeFor(SyntaxIssue):
    def __init__(self, term: Term, var: str):
        super().__init__(f"term {term_to_text(term)} is not free for {var!r} (capture)")
        self.term = term
        self.var = var


class FormulaTooDeep(SyntaxIssue):
    def __init__(self, position: int, limit: int):
        super().__init__(f"at {position}: formula nests deeper than {limit} levels")
        self.position = position
        self.limit = limit


class NegOverQuantifier(SyntaxIssue):
    def __init__(self, sub: Formula):
        super().__init__(
            "negation over a quantifier has no defined clause: ~"
            + formula_to_text(sub)
        )
        self.sub = sub


# --- variable bookkeeping ----------------------------------------------------


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, FuncApp):
        out: frozenset[str] = frozenset()
        for a in t.args:
            out |= term_vars(a)
        return out
    return frozenset()


def free_vars(phi: Formula) -> frozenset[str]:
    if isinstance(phi, (Bot, Meta)):
        return frozenset()
    if isinstance(phi, (Mem, Eq)):
        return term_vars(phi.left) | term_vars(phi.right)
    if isinstance(phi, Pred):
        out: frozenset[str] = frozenset()
        for a in phi.args:
            out |= term_vars(a)
        return out
    if isinstance(phi, BINOPS):
        left, right = iff_sides(phi) or (phi.left, phi.right)
        return free_vars(left) | free_vars(right)
    if isinstance(phi, Neg):
        return free_vars(phi.body)
    if isinstance(phi, (Forall, Exists)):
        return free_vars(phi.body) - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


def _subst_term(t: Term, x: str, rep: Term) -> Term:
    if isinstance(t, Var):
        return rep if t.name == x else t
    if isinstance(t, FuncApp):
        return FuncApp(t.sym, tuple(_subst_term(a, x, rep) for a in t.args))
    return t


def free_for(t: Term, x: str, phi: Formula) -> bool:
    """No free occurrence of x in phi sits under a quantifier binding a
    variable of t."""
    tvs = term_vars(t)

    def walk(node: Formula, blocked: frozenset[str]) -> bool:
        if isinstance(node, (Bot, Meta)):
            return True
        if isinstance(node, ATOMS):
            if x in free_vars(node):
                return not (tvs & blocked)
            return True
        if isinstance(node, BINOPS):
            left, right = iff_sides(node) or (node.left, node.right)
            return walk(left, blocked) and walk(right, blocked)
        if isinstance(node, Neg):
            return walk(node.body, blocked)
        if isinstance(node, (Forall, Exists)):
            if node.var == x:
                return True
            return walk(node.body, blocked | {node.var})
        raise TypeError(f"not a formula: {node!r}")

    return walk(phi, frozenset())


def substitute(phi: Formula, x: str, t: Term) -> Formula:
    """Replace all free occurrences of x in phi by t simultaneously.

    Raises NotFreeFor when a replacement would be captured.
    """
    if not free_for(t, x, phi):
        raise NotFreeFor(t, x)
    return map_terms(phi, lambda term: _subst_term(term, x, t), x)


def map_terms(phi: Formula, fn: Callable[[Term], Term], bound: str | None = None) -> Formula:
    """phi with every term of its atoms replaced by fn(term), except below
    a quantifier over ``bound``.  The shared sides of a <-> are rewritten
    once and stay shared."""

    def walk(node: Formula) -> Formula:
        cls = node.__class__
        if cls is Mem or cls is Eq:
            return cls(fn(node.left), fn(node.right))
        if cls is Pred:
            return Pred(node.sym, tuple(fn(a) for a in node.args))
        if cls is And or cls is Or or cls is Imp:
            sides = iff_sides(node)
            if sides is not None:
                return iff(walk(sides[0]), walk(sides[1]))
            return cls(walk(node.left), walk(node.right))
        if cls is Neg:
            return Neg(walk(node.body))
        if cls is Forall or cls is Exists:
            return node if node.var == bound else cls(node.var, walk(node.body))
        if cls is Bot or cls is Meta:
            return node
        raise TypeError(f"not a formula: {node!r}")

    return walk(phi)


def subformulas(phi: Formula) -> Iterator[Formula]:
    """phi and each of its subformulas, in pre-order, left before right.
    A <-> is one node over its two sides, each visited once."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BINOPS):
            left, right = iff_sides(node) or (node.left, node.right)
            stack.append(right)
            stack.append(left)
        elif isinstance(node, (Neg, Forall, Exists)):
            stack.append(node.body)


def prop_atoms(phi: Formula) -> set[str]:
    """The symbols of the propositional (0-ary) atoms in phi."""
    return {node.sym for node in subformulas(phi) if isinstance(node, Pred) and not node.args}


def universal_closure(phi: Formula) -> Formula:
    """Forall over the free variables in lexicographic order."""
    out = phi
    for v in sorted(free_vars(phi), reverse=True):
        out = Forall(v, out)
    return out


def nnf_n4(phi: Formula) -> Formula:
    """Push strong negation to atoms.

    Uses exactly ~(a & b) -> ~a | ~b, ~(a | b) -> ~a & ~b,
    ~(a -> b) -> a & ~b and ~~a -> a.  There is no clause for negation
    over a quantifier; such input is rejected.
    """
    if isinstance(phi, Neg):
        b = phi.body
        if isinstance(b, And):
            return Or(nnf_n4(Neg(b.left)), nnf_n4(Neg(b.right)))
        if isinstance(b, Or):
            return And(nnf_n4(Neg(b.left)), nnf_n4(Neg(b.right)))
        if isinstance(b, Imp):
            return And(nnf_n4(b.left), nnf_n4(Neg(b.right)))
        if isinstance(b, Neg):
            return nnf_n4(b.body)
        if isinstance(b, (Forall, Exists)):
            raise NegOverQuantifier(b)
        return phi  # atom or bot
    if isinstance(phi, And):
        sides = iff_sides(phi)
        if sides is not None:
            return iff(nnf_n4(sides[0]), nnf_n4(sides[1]))
        return And(nnf_n4(phi.left), nnf_n4(phi.right))
    if isinstance(phi, Or):
        return Or(nnf_n4(phi.left), nnf_n4(phi.right))
    if isinstance(phi, Imp):
        return Imp(nnf_n4(phi.left), nnf_n4(phi.right))
    if isinstance(phi, Forall):
        return Forall(phi.var, nnf_n4(phi.body))
    if isinstance(phi, Exists):
        return Exists(phi.var, nnf_n4(phi.body))
    return phi


def is_negation_free(phi: Formula) -> bool:
    if isinstance(phi, Neg):
        return False
    if isinstance(phi, BINOPS):
        left, right = iff_sides(phi) or (phi.left, phi.right)
        return is_negation_free(left) and is_negation_free(right)
    if isinstance(phi, (Forall, Exists)):
        return is_negation_free(phi.body)
    return True


def negates_atoms_only(phi: Formula) -> bool:
    """Every negation in phi has an atom or bot as its body."""
    if isinstance(phi, Neg):
        return isinstance(phi.body, (Bot, Mem, Eq, Pred))
    if isinstance(phi, BINOPS):
        left, right = iff_sides(phi) or (phi.left, phi.right)
        return negates_atoms_only(left) and negates_atoms_only(right)
    if isinstance(phi, (Forall, Exists)):
        return negates_atoms_only(phi.body)
    return True


def is_restricted(phi: Formula) -> bool:
    """True iff every quantifier is bounded (see ``bounded_parts``)."""
    if isinstance(phi, (Bot, Mem, Eq, Pred, Meta)):
        return True
    if isinstance(phi, BINOPS):
        return is_restricted(phi.left) and is_restricted(phi.right)
    if isinstance(phi, Neg):
        return is_restricted(phi.body)
    if isinstance(phi, (Forall, Exists)):
        parts = bounded_parts(phi)
        return parts is not None and is_restricted(parts[1])
    raise TypeError(f"not a formula: {phi!r}")


def bounded_parts(phi: Formula) -> tuple[Term, Formula] | None:
    """The bound t and the body of forall x . x in t -> body or of
    exists x . x in t & body, with x not occurring in t; None otherwise."""
    if isinstance(phi, Forall):
        guarded = Imp
    elif isinstance(phi, Exists):
        guarded = And
    else:
        return None
    b = phi.body
    if (
        isinstance(b, guarded)
        and isinstance(b.left, Mem)
        and b.left.left == Var(phi.var)
        and phi.var not in term_vars(b.left.right)
    ):
        return b.left.right, b.right
    return None


# --- printing ----------------------------------------------------------------

# a right conjunct prints at _PREC_AND + 1, below a negation's body
_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NEG = 1, 2, 3, 4, 6


def term_to_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, NameConst):
        return f"#{t.ref}"
    if isinstance(t, FuncApp):
        return f"{t.sym}({', '.join(term_to_text(a) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


def formula_to_text(phi: Formula) -> str:
    return _print(phi, 0)


def _print(node: Formula, ctx: int) -> str:
    if isinstance(node, Bot):
        return "bot"
    if isinstance(node, Meta):
        return f"?{node.name}"
    if isinstance(node, (Mem, Eq)):
        op = "in" if isinstance(node, Mem) else "eq"
        s = f"{term_to_text(node.left)} {op} {term_to_text(node.right)}"
        return f"({s})" if ctx == _PREC_NEG else s
    if isinstance(node, Pred):
        if node.args:
            return f"{node.sym}({', '.join(term_to_text(a) for a in node.args)})"
        return node.sym
    if isinstance(node, Neg):
        return "~" + _print(node.body, _PREC_NEG)
    if isinstance(node, And):
        sides = iff_sides(node)
        if sides is not None:  # lowest and right-associative, as parsed
            s = f"{_print(sides[0], _PREC_IFF + 1)} <-> {_print(sides[1], _PREC_IFF)}"
            return f"({s})" if ctx > _PREC_IFF else s
        s = f"{_print(node.left, _PREC_AND)} & {_print(node.right, _PREC_AND + 1)}"
        return f"({s})" if ctx > _PREC_AND else s
    if isinstance(node, Or):
        s = f"{_print(node.left, _PREC_OR)} | {_print(node.right, _PREC_OR + 1)}"
        return f"({s})" if ctx > _PREC_OR else s
    if isinstance(node, Imp):
        s = f"{_print(node.left, _PREC_IMP + 1)} -> {_print(node.right, _PREC_IMP)}"
        return f"({s})" if ctx > _PREC_IMP else s
    if isinstance(node, (Forall, Exists)):
        kw = "forall" if isinstance(node, Forall) else "exists"
        s = f"{kw} {node.var} . {_print(node.body, 0)}"
        return f"({s})" if ctx > 0 else s
    raise TypeError(f"not a formula: {node!r}")


# --- signature + parser -------------------------------------------------------


@dataclass
class Signature:
    """Declared predicate and function symbols with arities.

    Non-strict signatures accept undeclared identifiers: bare identifiers in
    formula position become 0-ary predicates, identifiers in term position
    become variables.
    """

    predicates: dict[str, int] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)
    strict: bool = False


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<iff><->)|(?P<punct>[().,~&|])|"
    r"(?P<name>#\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_']*))"
)

_KEYWORDS = {"forall", "exists", "in", "eq", "bot"}

# Deepest nesting a formula may have, counted both in the parser (operators,
# quantifiers, parentheses, function arguments) and in the parsed tree, where
# a chain of n & or | is n levels deep. Under Python's default recursion
# limit of 1000 the parser overflows at about 164 nested parentheses (six
# frames a level) and the evaluators at about 327 nested quantifiers (three
# frames a level; connectives take one or two), so 100 leaves a margin of
# some 400 frames for callers.
MAX_FORMULA_DEPTH = 100


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m or m.end() == i:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            pos = len(text) - len(stripped)
            raise FormulaSyntaxError(pos, "a token", stripped[0])
        i = m.end()
        if m.lastgroup == "iff":
            out.append(_Tok("iff", "<->", m.start()))
        elif m.lastgroup == "arrow":
            out.append(_Tok("arrow", "->", m.start()))
        elif m.lastgroup == "punct":
            out.append(_Tok(m.group("punct"), m.group("punct"), m.start()))
        elif m.lastgroup == "name":
            out.append(_Tok("name", m.group("name"), m.start()))
        else:
            ident = m.group("ident")
            kind = ident if ident in _KEYWORDS else "ident"
            out.append(_Tok(kind, ident, m.start()))
    out.append(_Tok("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.toks = _tokenize(text)
        self.sig = sig
        self.i = 0
        self.depth = 0

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_FORMULA_DEPTH:
            raise FormulaTooDeep(self.peek().pos, MAX_FORMULA_DEPTH)

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise FormulaSyntaxError(t.pos, kind, t.text or "end of input")
        return self.next()

    # <-> is lowest and right-associative; expands to the conjunction of
    # both implications.
    def formula(self) -> Formula:
        left = self.imp()
        if self.peek().kind == "iff":
            self.next()
            self._enter()
            right = self.formula()
            self.depth -= 1
            return iff(left, right)
        return left

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek().kind == "arrow":
            self.next()
            self._enter()
            right = self.imp()
            self.depth -= 1
            return Imp(left, right)
        return left

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek().kind == "|":
            self.next()
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.unary()
        while self.peek().kind == "&":
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        self._enter()
        t = self.peek()
        if t.kind == "~":
            self.next()
            out: Formula = Neg(self.unary())
        elif t.kind in ("forall", "exists"):
            self.next()
            var = self.expect("ident").text
            self.expect(".")
            body = self.formula()
            out = Forall(var, body) if t.kind == "forall" else Exists(var, body)
        else:
            out = self.atom()
        self.depth -= 1
        return out

    def atom(self) -> Formula:
        t = self.peek()
        if t.kind == "bot":
            self.next()
            return BOT
        if t.kind == "(":
            self.next()
            out = self.formula()
            self.expect(")")
            return out
        term = self.term()
        nxt = self.peek()
        if nxt.kind in ("in", "eq"):
            self.next()
            right = self.term()
            return Mem(term, right) if nxt.kind == "in" else Eq(term, right)
        return self._as_predicate(term, t.pos)

    def _as_predicate(self, term: Term, pos: int) -> Formula:
        if isinstance(term, FuncApp):
            sym, args = term.sym, term.args
        elif isinstance(term, Var):
            sym, args = term.name, ()
        else:
            raise FormulaSyntaxError(pos, "'in' or 'eq' after a name constant")
        if sym in self.sig.predicates:
            want = self.sig.predicates[sym]
            if want != len(args):
                raise ArityMismatch(sym, want, len(args))
        elif sym in self.sig.functions:
            raise FormulaSyntaxError(pos, f"a relator after function {sym!r}")
        elif self.sig.strict:
            raise UnknownSymbol(sym)
        return Pred(sym, args)

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "name":
            self.next()
            return NameConst(int(t.text[1:]))
        if t.kind == "ident":
            self.next()
            if self.peek().kind == "(":
                self.next()
                self._enter()
                args: list[Term] = []
                if self.peek().kind != ")":
                    args.append(self.term())
                    while self.peek().kind == ",":
                        self.next()
                        args.append(self.term())
                self.expect(")")
                self.depth -= 1
                if t.text in self.sig.functions:
                    want = self.sig.functions[t.text]
                    if want != len(args):
                        raise ArityMismatch(t.text, want, len(args))
                elif self.sig.strict and t.text not in self.sig.predicates:
                    raise UnknownSymbol(t.text)
                return FuncApp(t.text, tuple(args))
            if self.sig.functions.get(t.text) == 0:
                return FuncApp(t.text, ())
            return Var(t.text)
        raise FormulaSyntaxError(t.pos, "a term", t.text or "end of input")


def parse_formula(text: str, signature: Signature | None = None) -> Formula:
    sig = signature if signature is not None else Signature()
    p = _Parser(text, sig)
    out = p.formula()
    t = p.peek()
    if t.kind != "eof":
        raise FormulaSyntaxError(t.pos, "end of input", t.text)
    if _tree_depth(out) > MAX_FORMULA_DEPTH:  # long chains of & and | parse iteratively
        raise FormulaTooDeep(0, MAX_FORMULA_DEPTH)
    return out


def _tree_depth(phi: Formula) -> int:
    """Height of phi, each shared subformula measured once (iff shares both
    sides), stopping as soon as a height passes the cap."""
    height: dict[int, int] = {}
    stack = [phi]
    while stack:
        node = stack[-1]
        if id(node) in height:
            stack.pop()
            continue
        subs = [
            sub
            for sub in (getattr(node, "left", None), getattr(node, "right", None), getattr(node, "body", None))
            if sub is not None and not isinstance(sub, (Var, NameConst, FuncApp))
        ]
        todo = [sub for sub in subs if id(sub) not in height]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        h = 1 + max((height[id(sub)] for sub in subs), default=0)
        if h > MAX_FORMULA_DEPTH:
            return h
        height[id(node)] = h
    return height[id(phi)]


# --- derivations ---------------------------------------------------------------

Justification = tuple  # ("axiom", id) | ("premise", k) | ("mp", i, j) | ("r3", i) | ("r4", i)


@dataclass(frozen=True)
class DerivLine:
    number: int
    formula: Formula
    just: Justification


@dataclass(frozen=True)
class Derivation:
    ident: str
    system: str
    premises: tuple[Formula, ...]
    lines: tuple[DerivLine, ...]
    qed: int


class DerivationFormatError(SyntaxIssue):
    pass


_SYSTEM_ALIASES = {"n4": "qn4", "qn4": "qn4", "n3": "qn3", "qn3": "qn3", "qcw": "qcw", "cw": "qcw"}


def parse_derivation_text(text: str, signature: Signature | None = None) -> Derivation:
    sig = signature if signature is not None else Signature()
    lines = [
        ln.split("#", 1)[0].strip()
        for ln in text.splitlines()
    ]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("derivation"):
        raise DerivationFormatError("expected 'derivation <ident> system=<...>'")
    head = lines[0].split()
    if len(head) != 3 or not head[2].startswith("system="):
        raise DerivationFormatError("expected 'derivation <ident> system=<...>'")
    ident = head[1]
    system = head[2][7:]
    if system not in _SYSTEM_ALIASES:
        raise DerivationFormatError(f"unknown system {system!r}")
    system = _SYSTEM_ALIASES[system]

    premises: list[Formula] = []
    deriv_lines: list[DerivLine] = []
    qed: int | None = None
    for raw in lines[1:]:
        if raw.startswith("premise"):
            head_part, _, body = raw.partition(":")
            try:
                k = int(head_part.split()[1])
            except (IndexError, ValueError) as exc:
                raise DerivationFormatError(f"bad premise line {raw!r}") from exc
            if k != len(premises) + 1:
                raise DerivationFormatError(f"premise numbered {k}, expected {len(premises) + 1}")
            premises.append(parse_formula(body.strip(), sig))
            continue
        if raw.startswith("qed"):
            try:
                qed = int(raw.split()[1])
            except (IndexError, ValueError) as exc:
                raise DerivationFormatError(f"bad qed line {raw!r}") from exc
            continue
        m = re.match(r"^(\d+)\s*:\s*(.*)\[\s*([^\]]+)\]\s*$", raw)
        if not m:
            raise DerivationFormatError(f"bad derivation line {raw!r}")
        num = int(m.group(1))
        phi = parse_formula(m.group(2).strip(), sig)
        just_toks = m.group(3).split()
        just = _parse_justification(just_toks, raw)
        deriv_lines.append(DerivLine(num, phi, just))
    if qed is None:
        raise DerivationFormatError("missing 'qed <n>' line")
    return Derivation(ident, system, tuple(premises), tuple(deriv_lines), qed)


def _parse_justification(toks: list[str], raw: str) -> Justification:
    if not toks:
        raise DerivationFormatError(f"empty justification in {raw!r}")
    kind = toks[0].lower()
    try:
        if kind == "axiom" and len(toks) == 2:
            return ("axiom", toks[1].upper())
        if kind == "premise" and len(toks) == 2:
            return ("premise", int(toks[1]))
        if kind == "mp" and len(toks) == 3:
            return ("mp", int(toks[1]), int(toks[2]))
        if kind in ("r3", "r4") and len(toks) == 2:
            return (kind, int(toks[1]))
    except ValueError as exc:
        raise DerivationFormatError(f"bad justification in {raw!r}") from exc
    raise DerivationFormatError(f"bad justification in {raw!r}")
