"""Lukasiewicz terms: abstract syntax, parser, and minimal-parenthesis printer.

ASCII grammar: variables are [a-z][a-z0-9_]*, constants are 0 and 1, ~ is
prefix negation, and the infix connectives are (+) for ⊕, (.) for ⊙, (-) for
⊖, -> for →, /\\ for ∧, \\/ for ∨.  Binding, tightest first:
~  >  (.)  >  (+) = (-)  >  /\\  >  \\/  >  ->, with -> right-associative and
everything else left-associative.  Parentheses override.  A term nests at
most ``MAX_NESTING`` levels (each ~, parenthesis pair and connective above a
leaf is one); the parser refuses deeper input, so no traversal overflows.

The connective table lives on the classes: each ``Binary`` subclass carries
its record operation, symbol, binding power and associativity, and the lexer,
the parser, the printer and the law engine's pipelines (``stream``) all read
it from there.  Traversals are folds over the node data (``fold``, the one
dispatch on node types), not methods on the nodes.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Callable, Iterator

from .errors import TermSyntaxError
from .value import Value, set_field


class Term(Value):
    __slots__ = ()


class Var(Term):
    def __init__(self, name: str):
        set_field(self, "name", name)


class Const(Term):
    def __init__(self, value: int):  # 0 or 1
        set_field(self, "value", value)


class Neg(Term):
    def __init__(self, arg: Term):
        set_field(self, "arg", arg)


class Binary(Term):
    """A binary connective.  Each subclass is one row of the connective table:
    ``op``, its operation on a ``PayloadOps`` record; ``symbol``, its ASCII
    spelling; ``bp``, its binding power (higher binds tighter); and
    ``right_assoc``."""

    right_assoc = False

    def __init__(self, left: Term, right: Term):
        set_field(self, "left", left)
        set_field(self, "right", right)


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
MAX_NESTING = 200
_TOO_DEEP = f"term nests deeper than {MAX_NESTING} levels"

_TOKEN = re.compile("|".join([
    "(?P<op>" + "|".join(map(re.escape, _BINARY)) + ")",
    r"(?P<neg>~)", r"(?P<lpar>\()", r"(?P<rpar>\))", r"(?P<const>[01])",
    r"(?P<var>[a-z][a-z0-9_]*)", r"(?P<ws>\s+)", r"(?P<bad>.)"]))


def _lex(text: str, start: int, end: int) -> list[tuple[str, str, int]]:
    """The tokens of text[start:end], each with its position in the whole text."""
    tokens = []
    for m in _TOKEN.finditer(text, start, end):
        if m.lastgroup == "bad":
            raise TermSyntaxError(f"unexpected character {m.group()!r}", m.start(),
                                  ("variable", "0", "1", "~", "(", *sorted(_BINARY)))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("eof", "", end))
    return tokens


class _Parser:
    """Precedence climbing.  ``depth`` counts the levels above the subterm being
    read and each subterm comes back with its height, so a term nesting deeper
    than ``MAX_NESTING`` is refused before anything recurses on it."""

    def __init__(self, text: str, start: int, end: int):
        self.tokens = _lex(text, start, end)[::-1]  # the next token is last

    def expr(self, min_bp: int, depth: int) -> tuple[Term, int]:
        lhs, height = self.atom(depth)
        while True:
            kind, text, pos = self.tokens[-1]
            if kind != "op":
                break
            cls = _BINARY[text]
            if cls.bp < min_bp:
                break
            self.tokens.pop()
            rhs, rhs_height = self.expr(cls.bp if cls.right_assoc else cls.bp + 1, depth + 1)
            lhs, height = cls(lhs, rhs), 1 + max(height, rhs_height)
            if depth + height > MAX_NESTING:  # a left-associative spine grows here
                raise TermSyntaxError(_TOO_DEEP, pos)
        return lhs, height

    def atom(self, depth: int) -> tuple[Term, int]:
        kind, text, pos = self.tokens.pop()
        if depth > MAX_NESTING:
            raise TermSyntaxError(_TOO_DEEP, pos)
        if kind == "neg":
            arg, height = self.atom(depth + 1)
            return Neg(arg), height + 1
        if kind == "lpar":
            inner, height = self.expr(1, depth + 1)
            kind, _, pos = self.tokens.pop()
            if kind != "rpar":
                raise TermSyntaxError("unbalanced parenthesis", pos, (")",))
            return inner, height + 1
        if kind == "const":
            return (CONST0 if text == "0" else CONST1), 0
        if kind == "var":
            return Var(text), 0
        raise TermSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input",
                              pos, ("variable", "0", "1", "~", "("))


def parse(text: str, start: int = 0, end: int | None = None) -> Term:
    """Parse the term text[start:end]; syntax errors carry the offset in text and
    the expected token set."""
    parser = _Parser(text, start, len(text) if end is None else end)
    term, _ = parser.expr(1, 0)
    kind, text_, pos = parser.tokens[-1]
    if kind != "eof":
        raise TermSyntaxError(f"trailing input {text_!r}", pos,
                              tuple(sorted(_BINARY)) + ("end of input",))
    return term


def fold(t: Term, var: Callable, const: Callable, neg: Callable, binary: Callable):
    """Combine t bottom-up, the left subterm before the right: ``var(name)``,
    ``const(value)``, ``neg(arg)`` and ``binary(cls, left, right)`` receive
    the results for the children.  The one dispatch on node types."""
    if isinstance(t, Binary):
        return binary(type(t), fold(t.left, var, const, neg, binary),
                      fold(t.right, var, const, neg, binary))
    if isinstance(t, Var):
        return var(t.name)
    if isinstance(t, Neg):
        return neg(fold(t.arg, var, const, neg, binary))
    if isinstance(t, Const):
        return const(t.value)
    raise TypeError(f"not a term: {t!r}")


def stream(t: Term, ops, read: Callable) -> Iterator:
    """t's values on a stream of instances, a pipeline of ``map`` iterators on
    the operations of one record (``algebra.PayloadOps``): variable ``name``
    yields ``read(name)``, a constant repeats the record's 0 or 1, and ¬ and
    each connective map the record's own operation over their children."""
    one, zero, neg = ops.one, ops.zero, ops.neg
    return fold(t, read, lambda value: repeat(one if value else zero), lambda a: map(neg, a),
                lambda cls, a, b: map(getattr(ops, cls.op), a, b))


def _wrap(printed: tuple[str, int], min_bp: int) -> str:
    text, bp = printed
    return f"({text})" if bp < min_bp else text


def print_term(t: Term) -> str:
    """Canonical minimal-parenthesis rendering; parse(print_term(t)) == t.

    A fold to (text, binding power) pairs: a child binding looser than its
    place allows is parenthesized, and atoms and negations bind tightest."""
    def binary(cls, left, right):  # only the associative side may bind at cls.bp
        bp, ra = cls.bp, cls.right_assoc
        return f"{_wrap(left, bp + ra)} {cls.symbol} {_wrap(right, bp + 1 - ra)}", bp
    return fold(t, lambda name: (name, _NEG_BP), lambda value: (str(value), _NEG_BP),
                lambda arg: ("~" + _wrap(arg, _NEG_BP), _NEG_BP), binary)[0]


def variables(t: Term) -> set[str]:
    return fold(t, lambda name: {name}, lambda _: set(), lambda arg: arg,
                lambda _, left, right: left | right)


def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Capture-free substitution t[name := replacement]."""
    return fold(t, lambda v: replacement if v == name else Var(v), Const, Neg,
                lambda cls, left, right: cls(left, right))


def operation_count(t: Term) -> int:
    """Number of connective nodes, used for the default refutation bound."""
    return fold(t, lambda _: 0, lambda _: 0, lambda arg: arg + 1,
                lambda _, left, right: left + right + 1)


class Equation(Value):
    def __init__(self, lhs: Term, rhs: Term):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)

    def variables(self) -> set[str]:
        return variables(self.lhs) | variables(self.rhs)

    def __iter__(self):  # an equation is the conjunction of itself alone (``report.Law``)
        return iter((self,))


def parse_equation(text: str) -> Equation:
    """Parse "lhs = rhs"."""
    if text.count("=") != 1:
        raise TermSyntaxError("an equation needs exactly one '='",
                              text.find("=") if "=" in text else len(text), ("=",))
    i = text.index("=")
    return Equation(parse(text, 0, i), parse(text, i + 1))
