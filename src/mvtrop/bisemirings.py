"""ℓ-bisemiring values (the θ and θ* images) and positive cones with a top.

A Bisemiring is a subset of a host MV-algebra, closed under ⊕, ⊙, ∧, ∨ and
containing 0 and 1, represented as a membership predicate plus, when the
carrier is finite, an explicit element tuple.  A TopCone is the positive cone
of an ℓ-group together with an absorbing top element; it is how θ of a perfect
algebra is packaged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .algebra import (MvAlgebra, MvElement, carrier_size, enumerate_elements,
                      mv_join, mv_meet, mv_odot, mv_oplus, one, payload_ops,
                      zero)
from .errors import DomainError, MalformedInputError, StructuralError
from .groups import GroupOps, LGroup, group_positive_cone
from .report import COUNTEREXAMPLE, VALID, CheckReport


@dataclass(frozen=True, eq=False)
class Bisemiring:
    """A sub-bisemiring of a host MV-algebra, given by membership.

    Operations are inherited from the host; use the algebra-level functions
    mv_oplus / mv_odot / mv_meet / mv_join on the elements.
    """

    host: MvAlgebra
    member: Callable[[MvElement], bool] = field(repr=False)
    label: str = "bisemiring"
    explicit: tuple | None = None

    def contains(self, x: MvElement) -> bool:
        if x.algebra != self.host:
            raise StructuralError(f"{x!r} does not inhabit {self.host!r}")
        payload_ops(self.host).checked(x.payload)
        if self.explicit is not None:
            return x in self.explicit
        return self.member(x)

    def elements(self, bound: int | None = None) -> list[MvElement]:
        """The carrier (finite case) or its bound-limited fragment."""
        if self.explicit is not None:
            return list(self.explicit)
        if carrier_size(self.host) is None and bound is None:
            raise DomainError(f"{self.label} over an infinite host needs a bound")
        return [x for x in enumerate_elements(self.host, bound) if self.member(x)]

    @property
    def is_finite(self) -> bool:
        return self.explicit is not None or carrier_size(self.host) is not None

    def __repr__(self) -> str:
        return f"{self.label}({self.host!r})"


# ---------------------------------------------------------------------------
# Positive cones with a top.

class _Top:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊤"


TOP = _Top()


@dataclass(frozen=True)
class TopCone:
    """Positive cone of base_group plus a maximum element ⊤ absorbing addition."""

    base_group: LGroup

    def __repr__(self) -> str:
        return f"TopCone({self.base_group!r})"


def cone_contains(T: TopCone, x) -> bool:
    if x is TOP:
        return True
    r = T.base_group.ops
    return r.contains(x) and r.leq(r.zero, x)


def _cone_members(T: TopCone, *xs) -> GroupOps:
    """The base group's record, once every x has been checked to lie in the cone."""
    for x in xs:
        if not cone_contains(T, x):
            raise StructuralError(f"{x!r} is not in the cone of {T!r}")
    return T.base_group.ops


def cone_add(T: TopCone, x, y):
    r = _cone_members(T, x, y)
    if x is TOP or y is TOP:
        return TOP
    return r.add(x, y)


def cone_leq(T: TopCone, x, y) -> bool:
    r = _cone_members(T, x, y)
    if y is TOP:
        return True
    if x is TOP:
        return False
    return r.leq(x, y)


def cone_meet(T: TopCone, x, y):
    return x if cone_leq(T, x, y) else y


def cone_join(T: TopCone, x, y):
    return y if cone_leq(T, x, y) else x


def cone_elements(T: TopCone, bound: int) -> list:
    """Bounded cone fragment in ascending order, with ⊤ last."""
    return group_positive_cone(T.base_group, bound) + [TOP]


# ---------------------------------------------------------------------------
# The ℓ-bisemiring axiom suite, exhaustive over an explicit finite carrier.

def check_lbisemiring(elements, *, oplus, odot, meet, join, zero_el, one_el) -> CheckReport:
    """Exhaustively verify the ℓ-bisemiring axioms on a finite carrier.

    Clauses: (S, ∧, ∨, 0, 1) is a bounded distributive lattice; (S, ∧, 0, 1, ⊕)
    and (S, ∨, 0, 1, ⊙) are idempotent commutative semirings (⊕ distributes
    over ∧ with 1 absorbing; ⊙ distributes over ∨ with 0 absorbing).  Raises
    MalformedInputError when the carrier misses a constant or is not closed.
    """
    elems = list(elements)
    eset = set(elems)
    if zero_el not in eset or one_el not in eset:
        raise MalformedInputError("carrier must contain 0 and 1")
    if zero_el == one_el:
        raise MalformedInputError("0 = 1 violates the bounded lattice axioms")
    for name, op in (("oplus", oplus), ("odot", odot), ("meet", meet), ("join", join)):
        for x, y in itertools.product(elems, repeat=2):
            if op(x, y) not in eset:
                raise MalformedInputError(
                    f"carrier is not closed under {name} at ({x!r}, {y!r})")

    laws = [
        ("meet_commutative", 2, lambda x, y: meet(x, y) == meet(y, x)),
        ("join_commutative", 2, lambda x, y: join(x, y) == join(y, x)),
        ("meet_associative", 3, lambda x, y, z: meet(meet(x, y), z) == meet(x, meet(y, z))),
        ("join_associative", 3, lambda x, y, z: join(join(x, y), z) == join(x, join(y, z))),
        ("meet_idempotent", 1, lambda x: meet(x, x) == x),
        ("join_idempotent", 1, lambda x: join(x, x) == x),
        ("absorption", 2, lambda x, y: meet(x, join(x, y)) == x and join(x, meet(x, y)) == x),
        ("zero_bottom", 1, lambda x: join(x, zero_el) == x),
        ("one_top", 1, lambda x: meet(x, one_el) == x),
        ("lattice_distributive", 3,
         lambda x, y, z: meet(x, join(y, z)) == join(meet(x, y), meet(x, z))),
        ("oplus_associative", 3, lambda x, y, z: oplus(oplus(x, y), z) == oplus(x, oplus(y, z))),
        ("oplus_commutative", 2, lambda x, y: oplus(x, y) == oplus(y, x)),
        ("oplus_zero_neutral", 1, lambda x: oplus(x, zero_el) == x),
        ("oplus_distributes_over_meet", 3,
         lambda x, y, z: oplus(x, meet(y, z)) == meet(oplus(x, y), oplus(x, z))),
        ("one_absorbs_oplus", 1, lambda x: oplus(x, one_el) == one_el),
        ("odot_associative", 3, lambda x, y, z: odot(odot(x, y), z) == odot(x, odot(y, z))),
        ("odot_commutative", 2, lambda x, y: odot(x, y) == odot(y, x)),
        ("odot_one_neutral", 1, lambda x: odot(x, one_el) == x),
        ("odot_distributes_over_join", 3,
         lambda x, y, z: odot(x, join(y, z)) == join(odot(x, y), odot(x, z))),
        ("zero_absorbs_odot", 1, lambda x: odot(x, zero_el) == zero_el),
    ]
    checked = 0
    for name, arity, pred in laws:
        for combo in itertools.product(elems, repeat=arity):
            checked += 1
            if not pred(*combo):
                return CheckReport(COUNTEREXAMPLE, checked,
                                   {"axiom": name, "elements": list(combo)})
    return CheckReport(VALID, checked)


def check_lbisemiring_of(S: Bisemiring, bound: int | None = None) -> CheckReport:
    """Run the axiom suite on a Bisemiring with a finite carrier."""
    return check_lbisemiring(
        S.elements(bound),
        oplus=mv_oplus, odot=mv_odot, meet=mv_meet, join=mv_join,
        zero_el=zero(S.host), one_el=one(S.host))
