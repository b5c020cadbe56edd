"""Lukasiewicz terms: abstract syntax, parser, and minimal-parenthesis printer.

ASCII grammar: variables are [a-z][a-z0-9_]*, constants are 0 and 1, ~ is
prefix negation, and the infix connectives are (+) for ⊕, (.) for ⊙, (-) for
⊖, -> for →, /\\ for ∧, \\/ for ∨.  Binding, tightest first:
~  >  (.)  >  (+) = (-)  >  /\\  >  \\/  >  ->, with -> right-associative and
everything else left-associative.  Parentheses override.

The connective table lives on the classes: each ``Binary`` subclass carries
its record operation, symbol, binding power and associativity, and the lexer,
the parser, the printer and ``logic``'s compiler all read it from there.
Traversals are functions over the node data, not methods on the nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar

from .errors import TermSyntaxError


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    value: int  # 0 or 1


@dataclass(frozen=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True)
class Binary(Term):
    """A binary connective.  Each subclass is one row of the connective table:
    ``op``, its operation on a ``PayloadOps`` record; ``symbol``, its ASCII
    spelling; ``bp``, its binding power (higher binds tighter); and
    ``right_assoc``."""

    left: Term
    right: Term
    op: ClassVar[str]
    symbol: ClassVar[str]
    bp: ClassVar[int]
    right_assoc: ClassVar[bool] = False


class Oplus(Binary):
    op, symbol, bp = "oplus", "(+)", 4


class Odot(Binary):
    op, symbol, bp = "odot", "(.)", 5


class Ominus(Binary):
    op, symbol, bp = "ominus", "(-)", 4


class Implies(Binary):
    op, symbol, bp, right_assoc = "implies", "->", 1, True


class Meet(Binary):
    op, symbol, bp = "meet", "/\\", 3


class Join(Binary):
    op, symbol, bp = "join", "\\/", 2


CONST0 = Const(0)
CONST1 = Const(1)

_BINARY = {cls.symbol: cls for cls in Binary.__subclasses__()}
_NEG_BP = 6

_TOKEN = re.compile("|".join([
    "(?P<op>" + "|".join(map(re.escape, _BINARY)) + ")",
    r"(?P<neg>~)", r"(?P<lpar>\()", r"(?P<rpar>\))", r"(?P<const>[01])",
    r"(?P<var>[a-z][a-z0-9_]*)", r"(?P<ws>\s+)"]))


def _lex(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise TermSyntaxError(f"unexpected character {text[pos]!r}", pos,
                                  ("variable", "0", "1", "~", "(", *sorted(_BINARY)))
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(0), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expr(self, min_bp: int) -> Term:
        lhs = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind != "op":
                break
            cls = _BINARY[text]
            if cls.bp < min_bp:
                break
            self.advance()
            rhs = self.expr(cls.bp if cls.right_assoc else cls.bp + 1)
            lhs = cls(lhs, rhs)
        return lhs

    def atom(self) -> Term:
        kind, text, pos = self.advance()
        if kind == "neg":
            return Neg(self.atom())
        if kind == "lpar":
            inner = self.expr(1)
            kind, _, pos = self.advance()
            if kind != "rpar":
                raise TermSyntaxError("unbalanced parenthesis", pos, (")",))
            return inner
        if kind == "const":
            return CONST0 if text == "0" else CONST1
        if kind == "var":
            return Var(text)
        raise TermSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input",
                              pos, ("variable", "0", "1", "~", "("))


def parse(text: str) -> Term:
    """Parse a term; syntax errors carry the offset and the expected token set."""
    parser = _Parser(text)
    term = parser.expr(1)
    kind, text_, pos = parser.peek()
    if kind != "eof":
        raise TermSyntaxError(f"trailing input {text_!r}", pos,
                              tuple(sorted(_BINARY)) + ("end of input",))
    return term


def print_term(t: Term) -> str:
    """Canonical minimal-parenthesis rendering; parse(print_term(t)) == t."""
    return _render(t, 1)


def _render(t: Term, min_bp: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, Neg):
        return "~" + _render(t.arg, _NEG_BP)
    if not isinstance(t, Binary):
        raise TypeError(f"not a term: {t!r}")
    bp = t.bp
    left, right = (bp + 1, bp) if t.right_assoc else (bp, bp + 1)
    body = f"{_render(t.left, left)} {t.symbol} {_render(t.right, right)}"
    return f"({body})" if bp < min_bp else body


def variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Const):
        return set()
    if isinstance(t, Neg):
        return variables(t.arg)
    return variables(t.left) | variables(t.right)


def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Capture-free substitution t[name := replacement]."""
    if isinstance(t, Var):
        return replacement if t.name == name else t
    if isinstance(t, Const):
        return t
    if isinstance(t, Neg):
        return Neg(substitute(t.arg, name, replacement))
    return type(t)(substitute(t.left, name, replacement),
                   substitute(t.right, name, replacement))


def operation_count(t: Term) -> int:
    """Number of connective nodes, used for the default refutation bound."""
    if isinstance(t, (Var, Const)):
        return 0
    if isinstance(t, Neg):
        return 1 + operation_count(t.arg)
    return 1 + operation_count(t.left) + operation_count(t.right)


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term

    def variables(self) -> set[str]:
        return variables(self.lhs) | variables(self.rhs)


def parse_equation(text: str) -> Equation:
    """Parse "lhs = rhs"."""
    if text.count("=") != 1:
        raise TermSyntaxError("an equation needs exactly one '='",
                              text.find("=") if "=" in text else len(text), ("=",))
    lhs, rhs = text.split("=")
    return Equation(parse(lhs), parse(rhs))
