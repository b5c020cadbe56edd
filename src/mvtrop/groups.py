"""Abelian lattice-ordered groups and the tropical semifields built on them.

Shipped group kinds: the integers, subgroups of Q cut out by a characteristic,
lexicographic products Z lex G, and the trivial group.  All of them are totally
ordered, so meet and join are min and max under the group order.  The tropical
semifield Trop(G) adjoins an absorbing bottom element -inf to G; semiring
addition is join and semiring multiplication is the group operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Union

from .characteristics import CHI_Z, Characteristic, contains_rational
from .errors import DomainError, StructuralError


@dataclass(frozen=True)
class Integers:
    def __repr__(self) -> str:
        return "Z"


@dataclass(frozen=True)
class TrivialGroup:
    def __repr__(self) -> str:
        return "TrivialGroup"


@dataclass(frozen=True)
class QSubgroup:
    chi: Characteristic

    def __repr__(self) -> str:
        return f"QSubgroup({self.chi!r})"


@dataclass(frozen=True)
class LexZG:
    tail: "LGroup"

    def __repr__(self) -> str:
        return f"LexZG({self.tail!r})"


LGroup = Union[Integers, TrivialGroup, QSubgroup, LexZG]

Z = Integers()
TRIVIAL = TrivialGroup()


def qsubgroup(chi: Characteristic) -> LGroup:
    """Descriptor for the subgroup of Q denoted by chi; Z is its own canonical kind."""
    if chi == CHI_Z:
        return Z
    return QSubgroup(chi)


def group_zero(G: LGroup):
    if isinstance(G, Integers):
        return 0
    if isinstance(G, TrivialGroup):
        return 0
    if isinstance(G, QSubgroup):
        return Fraction(0)
    if isinstance(G, LexZG):
        return (0, group_zero(G.tail))
    raise StructuralError(f"unknown group descriptor {G!r}")


def group_contains(G: LGroup, x: Any) -> bool:
    if isinstance(G, Integers):
        return isinstance(x, int) and not isinstance(x, bool)
    if isinstance(G, TrivialGroup):
        return x == 0
    if isinstance(G, QSubgroup):
        return isinstance(x, (int, Fraction)) and not isinstance(x, bool) \
            and contains_rational(G.chi, x)
    if isinstance(G, LexZG):
        return (isinstance(x, tuple) and len(x) == 2
                and isinstance(x[0], int) and not isinstance(x[0], bool)
                and group_contains(G.tail, x[1]))
    return False


def group_coerce(G: LGroup, x: Any):
    """Coerce x into the canonical carrier representation of G, validating membership."""
    if isinstance(G, Integers):
        if isinstance(x, Fraction) and x.denominator == 1:
            x = int(x)
        if not group_contains(G, x):
            raise StructuralError(f"{x!r} is not an integer")
        return x
    if isinstance(G, TrivialGroup):
        if x != 0:
            raise StructuralError(f"{x!r} is not in the trivial group")
        return 0
    if isinstance(G, QSubgroup):
        if isinstance(x, int) and not isinstance(x, bool):
            x = Fraction(x)
        if not group_contains(G, x):
            raise StructuralError(f"{x!r} violates the characteristic constraint of {G!r}")
        return x
    if isinstance(G, LexZG):
        if not isinstance(x, tuple) or len(x) != 2:
            raise StructuralError(f"{x!r} is not a lex pair")
        head = x[0]
        if isinstance(head, Fraction) and head.denominator == 1:
            head = int(head)
        if not isinstance(head, int) or isinstance(head, bool):
            raise StructuralError(f"lex head {x[0]!r} is not an integer")
        return (head, group_coerce(G.tail, x[1]))
    raise StructuralError(f"unknown group descriptor {G!r}")


def _require(G: LGroup, *xs) -> None:
    for x in xs:
        if not group_contains(G, x):
            raise StructuralError(f"{x!r} is not in the carrier of {G!r}")


def group_add(G: LGroup, x, y):
    _require(G, x, y)
    if isinstance(G, LexZG):
        return (x[0] + y[0], group_add(G.tail, x[1], y[1]))
    return x + y


def group_negate(G: LGroup, x):
    _require(G, x)
    if isinstance(G, LexZG):
        return (-x[0], group_negate(G.tail, x[1]))
    return -x


def group_leq(G: LGroup, x, y) -> bool:
    _require(G, x, y)
    if isinstance(G, LexZG):
        if x[0] != y[0]:
            return x[0] < y[0]
        return group_leq(G.tail, x[1], y[1])
    return x <= y


def group_meet(G: LGroup, x, y):
    return x if group_leq(G, x, y) else y


def group_join(G: LGroup, x, y):
    return y if group_leq(G, x, y) else x


def group_enumerate(G: LGroup, bound: int) -> list:
    """Bounded fragment of G in ascending order.

    Integers: [-bound, bound].  QSubgroup: members q with |q| <= bound and
    denominator <= bound.  LexZG: lexicographic pairs over the fragments of
    both coordinates.
    """
    if bound < 1:
        raise DomainError("bound must be >= 1")
    if isinstance(G, Integers):
        return list(range(-bound, bound + 1))
    if isinstance(G, TrivialGroup):
        return [0]
    if isinstance(G, QSubgroup):
        seen = {Fraction(0)}
        for d in range(1, bound + 1):
            for n in range(1, bound * d + 1):
                q = Fraction(n, d)
                if q.denominator == d and contains_rational(G.chi, q):
                    seen.add(q)
                    seen.add(-q)
        return sorted(seen)
    if isinstance(G, LexZG):
        tail = group_enumerate(G.tail, bound)
        return [(a, t) for a in range(-bound, bound + 1) for t in tail]
    raise StructuralError(f"unknown group descriptor {G!r}")


def group_positive_cone(G: LGroup, bound: int) -> list:
    """Fragment of {x in G : x >= 0} in ascending order."""
    z = group_zero(G)
    return [x for x in group_enumerate(G, bound) if group_leq(G, z, x)]


def group_element_str(G: LGroup, x) -> str:
    if isinstance(G, LexZG):
        return f"({x[0]},{group_element_str(G.tail, x[1])})"
    return str(x)


# ---------------------------------------------------------------------------
# Tropical semifields Trop(G) = G ∪ {-inf}.

class _Bottom:
    """The adjoined zero of a tropical semifield."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "-inf"


BOTTOM = _Bottom()


@dataclass(frozen=True)
class TropOfGroup:
    group: LGroup

    def __repr__(self) -> str:
        return f"Trop({self.group!r})"


def sf_contains(S: TropOfGroup, x) -> bool:
    return x is BOTTOM or group_contains(S.group, x)


def splus(S: TropOfGroup, x, y):
    """Semiring addition: join, with -inf neutral."""
    if x is BOTTOM:
        _sf_require(S, y)
        return y
    if y is BOTTOM:
        _sf_require(S, x)
        return x
    return group_join(S.group, x, y)


def stimes(S: TropOfGroup, x, y):
    """Semiring multiplication: the group operation, with -inf absorbing."""
    _sf_require(S, x)
    _sf_require(S, y)
    if x is BOTTOM or y is BOTTOM:
        return BOTTOM
    return group_add(S.group, x, y)


def sinverse(S: TropOfGroup, x):
    if x is BOTTOM:
        raise DomainError("-inf has no multiplicative inverse")
    return group_negate(S.group, x)


def sf_leq(S: TropOfGroup, x, y) -> bool:
    """Natural order of the idempotent semiring: x <= y iff x + y = y."""
    if x is BOTTOM:
        _sf_require(S, y)
        return True
    if y is BOTTOM:
        _sf_require(S, x)
        return False
    return group_leq(S.group, x, y)


def sf_enumerate(S: TropOfGroup, bound: int) -> list:
    return [BOTTOM] + group_enumerate(S.group, bound)


def _sf_require(S: TropOfGroup, x) -> None:
    if not sf_contains(S, x):
        raise StructuralError(f"{x!r} is not in the carrier of {S!r}")
