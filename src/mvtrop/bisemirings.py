"""ℓ-bisemiring values (the θ and θ* images) and positive cones with a top.

A Bisemiring is a subset of a host MV-algebra, closed under ⊕, ⊙, ∧, ∨ and
containing 0 and 1, represented as a membership predicate plus, when the
carrier is finite, an explicit element tuple.  A TopCone is the positive cone
of an ℓ-group together with an absorbing top element; it is how θ of a perfect
algebra is packaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .algebra import (MvAlgebra, MvElement, enumerate_elements, one,
                      payload_ops, zero)
from .errors import MalformedInputError, StructuralError
from .groups import (TOP, GroupOps, LGroup, group_positive_cone,
                     require_members)
from .report import CheckReport, Instances, axiom_witness, check_laws


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
        return self.has(self._in_host(x))

    def has(self, x: MvElement) -> bool:
        """Membership of an element known to lie in the host; nothing is checked."""
        return x in self.explicit if self.explicit is not None else self.member(x)

    def _in_host(self, x: MvElement) -> MvElement:
        if x.algebra != self.host:
            raise StructuralError(f"{x!r} does not inhabit {self.host!r}")
        payload_ops(self.host).checked(x.payload)
        return x

    def elements(self, bound: int | None = None) -> list[MvElement]:
        """The carrier (finite case) or its bound-limited fragment."""
        if self.explicit is not None:
            return list(self.explicit)
        return [x for x in enumerate_elements(self.host, bound) if self.member(x)]

    def payloads(self, bound: int | None = None) -> list:
        """The payloads of ``elements(bound)``, each checked once to lie in the host."""
        return [self._in_host(x).payload for x in self.elements(bound)]

    def __repr__(self) -> str:
        return f"{self.label}({self.host!r})"


# ---------------------------------------------------------------------------
# Positive cones with a top.

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
    require_members(T, cone_contains, *xs)
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
# Closure, and the ℓ-bisemiring axiom suite over an explicit finite carrier.

def closure_laws(operations, member: Callable) -> list[tuple]:
    """One law per ``(name, operation)``: the operation of any pair satisfies member."""
    return [(name, 2, lambda x, y, op=op: member(op(x, y))) for name, op in operations]


def check_closed(elements: list, operations, show: Callable) -> int:
    """Raise MalformedInputError at the first pair whose result under one of the
    operations lies outside elements, printed by ``show``; else count the pairs."""
    report = check_laws(closure_laws(operations, set(elements).__contains__),
                        Instances.over(elements))
    if not report.ok:
        name, (x, y) = report.witness
        raise MalformedInputError(f"carrier is not closed under {name} at ({show(x)}, {show(y)})")
    return report.checked


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
    check_closed(elems, (("oplus", oplus), ("odot", odot), ("meet", meet), ("join", join)), repr)

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
    return check_laws(laws, Instances.over(elems)).shaped(axiom_witness)


def check_lbisemiring_of(S: Bisemiring, bound: int | None = None) -> CheckReport:
    """Run the axiom suite on a Bisemiring with a finite carrier, on the host's
    payload record once the carrier has been checked to lie in the host."""
    A, ops = S.host, payload_ops(S.host)

    def lift(op):
        return lambda x, y: MvElement(A, op(x.payload, y.payload))
    return check_lbisemiring(
        [MvElement(A, p) for p in S.payloads(bound)],
        oplus=lift(ops.oplus), odot=lift(ops.odot), meet=lift(ops.meet), join=lift(ops.join),
        zero_el=zero(A), one_el=one(A))
