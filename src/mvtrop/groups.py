"""Abelian lattice-ordered groups and the tropical semifields built on them.

Shipped group kinds: the integers, subgroups of Q cut out by a characteristic,
lexicographic products Z lex G, and the trivial group.  All of them are totally
ordered, so meet and join are min and max under the group order.  The tropical
semifield Trop(G) adjoins an absorbing bottom element -inf to G; semiring
addition is join and semiring multiplication is the group operation.

Each kind is a frozen subclass of ``LGroup`` holding, as methods, all that is
particular to it, its JSON ``tag``, descriptor JSON (``to_json``) and shorthand
(``str(G)``) among them; the public functions guard once and call into the kind.
A kind lists its bounded positive cone in ascending order from 0 (``cone``); its
fragment (``enumerate``) is that cone mirrored through −.  A subgroup of Q
orders its cone on exact int keys, so listing it compares no ``Fraction``.

Every ordered structure — each ℓ-group, each Trop(G) and each cone with a top
(``bisemirings.TopCone``) — carries one record of operations, ``S.ops``
(``GroupOps``: membership, 0, +, −, ≤, meet, join), built on first use and
kept on the descriptor.  Trop(G) and the cone build theirs from the group's
record plus their one adjoined element.  The record's operations do no
membership checks: each structure is closed under them, so results computed
from members stay members.  Membership is checked at the boundary, once per
call and never inside an operation: the group, semifield and cone operations
are the record's operations lifted by ``checked_operation``, which first runs
``require_members`` on the arguments, and Δ(G)'s check is ``require_members``
too.  Code that works on members it produced itself (enumerated fragments,
the Δ(G) payloads of ``algebra``) calls the record directly.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable

from .characteristics import (CHI_Z, Characteristic, admits_denominator, contains_rational,
                              group_label)
from .errors import DomainError, StructuralError, UsageError
from .rationals import dumps, parse_integer, parse_rational, rational_str
from .value import Value, set_field


class GroupOps:
    """The operations of one structure on members, without membership checks."""

    __slots__ = ("contains", "zero", "add", "neg", "leq", "meet", "join")

    def __init__(self, contains: Callable, zero_g, add: Callable, neg: Callable,
                 leq: Callable, meet: Callable = min, join: Callable = max):
        self.contains, self.zero = contains, zero_g
        self.add, self.neg, self.leq, self.meet, self.join = add, neg, leq, meet, join


_NATIVE = (operator.add, operator.neg, operator.le)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class OrderedStructure(Value):
    """Base of the ordered structures: the ℓ-groups, Trop(G) and the cones with
    a top.  Each supplies ``build_ops``; its record is built on first use, and
    pickle and copy, which rebuild a structure from its fields, leave it out."""

    @cached_property
    def ops(self) -> GroupOps:
        return self.build_ops()


class LGroup(OrderedStructure):
    """Base of the group descriptors.  A kind supplies its ``tag``, ``__str__``,
    ``build_ops``, ``coerce`` (a member's canonical form) and ``cone(bound)``;
    its JSON is its tag alone and its members are "p/q" unless it overrides that."""

    def enumerate(self, bound: int) -> list:
        """The bounded fragment in ascending order: the cone mirrored through −."""
        cone, neg = self.cone(bound), self.ops.neg
        return [neg(x) for x in cone[:0:-1]] + cone

    def to_json(self) -> dict:
        return {"kind": self.tag}

    def payload_to_json(self, x) -> Any:
        return rational_str(x)

    def payload_from_json(self, data) -> Any:
        if isinstance(data, list):
            raise UsageError(f"expected a rational for {self}")
        return self.coerce(parse_rational(str(data)))


class Integers(LGroup):
    tag = "integers"

    def __repr__(self) -> str:
        return "Z"

    __str__ = __repr__

    def build_ops(self) -> GroupOps:
        return GroupOps(_is_int, 0, *_NATIVE)

    def coerce(self, x):
        if isinstance(x, Fraction) and x.denominator == 1:
            x = int(x)
        if not _is_int(x):
            raise StructuralError(f"{x!r} is not an integer")
        return x

    def cone(self, bound: int) -> list:
        return list(range(bound + 1))


class TrivialGroup(LGroup):
    tag = "trivial"

    def __repr__(self) -> str:
        return "TrivialGroup"

    def __str__(self) -> str:
        return "trivial"

    def build_ops(self) -> GroupOps:
        return GroupOps(lambda x: x == 0, 0, *_NATIVE)

    def coerce(self, x):
        if x != 0:
            raise StructuralError(f"{x!r} is not in the trivial group")
        return 0

    def cone(self, bound: int) -> list:
        return [0]


class QSubgroup(LGroup):
    tag = "q_subgroup"

    def __init__(self, chi: Characteristic):
        set_field(self, "chi", chi)

    def __repr__(self) -> str:
        return f"QSubgroup({self.chi!r})"

    def __str__(self) -> str:  # its label where one exists, else its JSON
        return group_label(self.chi) or dumps(self.to_json())

    def to_json(self) -> dict:
        return {"kind": self.tag, "chi": self.chi.to_json()}

    def build_ops(self) -> GroupOps:
        chi = self.chi

        def contains(x) -> bool:
            return isinstance(x, (int, Fraction)) and not isinstance(x, bool) \
                and contains_rational(chi, x)
        return GroupOps(contains, Fraction(0), *_NATIVE)

    def coerce(self, x):
        if _is_int(x):
            x = Fraction(x)
        if not self.ops.contains(x):
            raise StructuralError(f"{x!r} violates the characteristic constraint of {self}")
        return x

    def cone(self, bound: int) -> list:
        """Members 0 <= n/d <= bound with d <= bound, in lowest terms, sorted on
        the int key n·(L/d), L the lcm of the admitted denominators d."""
        ds = [d for d in range(1, bound + 1) if admits_denominator(self.chi, d)]
        L = math.lcm(*ds)
        keyed = sorted((n * (L // d), n, d) for d in ds
                       for n in range(1, bound * d + 1) if math.gcd(n, d) == 1)
        return [Fraction(0)] + [Fraction(n, d) for _, n, d in keyed]


class LexZG(LGroup):
    tag = "lex_zg"

    def __init__(self, tail: LGroup):
        set_field(self, "tail", tail)

    def __repr__(self) -> str:
        return f"LexZG({self.tail!r})"

    def __str__(self) -> str:
        return f"lex:{self.tail}"

    def to_json(self) -> dict:
        return {"kind": self.tag, "tail": self.tail.to_json()}

    def build_ops(self) -> GroupOps:
        """Lex pairs over the tail's record: heads first, then tails."""
        t = self.tail.ops
        t_contains, t_add, t_neg, t_leq = t.contains, t.add, t.neg, t.leq

        def leq(x, y) -> bool:
            if x[0] != y[0]:
                return x[0] < y[0]
            return t_leq(x[1], y[1])

        return GroupOps(
            lambda x: (isinstance(x, tuple) and len(x) == 2 and _is_int(x[0])
                       and t_contains(x[1])),
            (0, t.zero),
            lambda x, y: (x[0] + y[0], t_add(x[1], y[1])),
            lambda x: (-x[0], t_neg(x[1])),
            leq,
            lambda x, y: x if leq(x, y) else y,
            lambda x, y: y if leq(x, y) else x)

    def coerce(self, x):
        if not isinstance(x, tuple) or len(x) != 2:
            raise StructuralError(f"{x!r} is not a lex pair")
        head = x[0]
        if isinstance(head, Fraction) and head.denominator == 1:
            head = int(head)
        if not _is_int(head):
            raise StructuralError(f"lex head {x[0]!r} is not an integer")
        return (head, self.tail.coerce(x[1]))

    def cone(self, bound: int) -> list:  # the upper half, from the fragment's middle 0
        fragment = self.enumerate(bound)
        return fragment[len(fragment) // 2:]

    def enumerate(self, bound: int) -> list:
        """Lexicographic pairs over [-bound, bound] and the tail's fragment."""
        tail = self.tail.enumerate(bound)
        return [(a, t) for a in range(-bound, bound + 1) for t in tail]

    def payload_to_json(self, x) -> Any:
        return [x[0], self.tail.payload_to_json(x[1])]

    def payload_from_json(self, data) -> Any:
        if not isinstance(data, list) or len(data) != 2:
            raise UsageError(f"expected a lex pair, got {data!r}")
        return (parse_integer(data[0], "lex head"), self.tail.payload_from_json(data[1]))


Z = Integers()
TRIVIAL = TrivialGroup()


def qsubgroup(chi: Characteristic) -> LGroup:
    """Descriptor for the subgroup of Q denoted by chi; Z is its own canonical kind."""
    if chi == CHI_Z:
        return Z
    return QSubgroup(chi)


def _descriptor(G) -> LGroup:
    if not isinstance(G, LGroup):
        raise StructuralError(f"unknown group descriptor {G!r}")
    return G


def group_zero(G: LGroup):
    return G.ops.zero


def group_coerce(G: LGroup, x: Any):
    """Coerce x into the canonical carrier representation of G, validating membership."""
    return _descriptor(G).coerce(x)


def require_members(S: OrderedStructure, *xs) -> None:
    """Raise StructuralError at the first x outside S: the one membership check
    of the checked group, semifield and cone operations and of the Δ(G)
    payload record."""
    contains = S.ops.contains
    for x in xs:
        if not contains(x):
            raise StructuralError(f"{x!r} is not in the carrier of {S}")


def checked_operation(name: str, public: str) -> Callable:
    """The record's operation ``name``, once each argument is checked to lie in S."""
    def op(S: OrderedStructure, *xs):
        require_members(S, *xs)
        return getattr(S.ops, name)(*xs)
    op.__name__ = op.__qualname__ = public
    return op


group_add = checked_operation("add", "group_add")
group_negate = checked_operation("neg", "group_negate")
group_leq = checked_operation("leq", "group_leq")
group_meet = checked_operation("meet", "group_meet")
group_join = checked_operation("join", "group_join")


def group_enumerate(G: LGroup, bound: int) -> list:
    """Bounded fragment of G in ascending order (see each kind's ``enumerate``)."""
    if bound < 1:
        raise DomainError("bound must be >= 1")
    return _descriptor(G).enumerate(bound)


def group_positive_cone(G: LGroup, bound: int) -> list:
    """Fragment of {x in G : x >= 0} in ascending order (see each kind's ``cone``)."""
    if bound < 1:
        raise DomainError("bound must be >= 1")
    return _descriptor(G).cone(bound)


# ---------------------------------------------------------------------------
# Tropical semifields Trop(G) = G ∪ {-inf}.

class Adjoined(Enum):
    """An element adjoined to a group: the absorbing bottom -inf of a tropical
    semifield, and the absorbing top ⊤ of a positive cone (``bisemirings``).
    Each is one object, kept as it is by pickle and copy."""

    BOTTOM = "-inf"
    TOP = "⊤"

    def __repr__(self) -> str:
        return self.value

    __str__ = __repr__


BOTTOM, TOP = Adjoined.BOTTOM, Adjoined.TOP


class TropOfGroup(OrderedStructure):
    tag = "trop"

    def __init__(self, group: LGroup):
        set_field(self, "group", group)

    def __repr__(self) -> str:
        return f"Trop({self.group!r})"

    def __str__(self) -> str:
        return f"trop:{self.group}"

    def to_json(self) -> dict:
        return {"kind": self.tag, "group": self.group.to_json()}

    def build_ops(self) -> GroupOps:
        """G's record with -inf adjoined below G: neutral for the join, absorbing
        for the group operation, and without a negative."""
        r = self.group.ops
        g_contains, g_add, g_neg, g_leq, g_meet, g_join = (
            r.contains, r.add, r.neg, r.leq, r.meet, r.join)

        def neg(x):
            if x is BOTTOM:
                raise DomainError("-inf has no multiplicative inverse")
            return g_neg(x)

        return GroupOps(
            lambda x: x is BOTTOM or g_contains(x),
            r.zero,
            lambda x, y: BOTTOM if x is BOTTOM or y is BOTTOM else g_add(x, y),
            neg,
            lambda x, y: x is BOTTOM or (y is not BOTTOM and g_leq(x, y)),
            lambda x, y: BOTTOM if x is BOTTOM or y is BOTTOM else g_meet(x, y),
            lambda x, y: y if x is BOTTOM else x if y is BOTTOM else g_join(x, y))


splus = checked_operation("join", "splus")  # semiring addition: join, with -inf neutral
stimes = checked_operation("add", "stimes")  # multiplication: +, with -inf absorbing
sinverse = checked_operation("neg", "sinverse")
sf_leq = checked_operation("leq", "sf_leq")  # natural order: x <= y iff x + y = y
