"""ℓ-bisemiring values (the θ and θ* images) and positive cones with a top.

A Bisemiring is a subset of a host MV-algebra, closed under ⊕, ⊙, ∧, ∨ and
containing 0 and 1, represented as a record-level membership test plus, when
the carrier is given from outside, an explicit element tuple.  The test takes
an ops record and a value on it: membership of one element runs it on the
host's payload record, and a listing runs it on ``algebra.int_record``, whose
values are ints, scaled ints or tuples of them wherever the host allows.  A TopCone is the
positive cone of an ℓ-group together with an absorbing top element; it is how
θ of a perfect algebra is packaged.  Like every ordered structure it carries
one ops record (see ``groups``), and the cone operations are that record's,
checked.
"""

from __future__ import annotations

from typing import Any, Callable

from .algebra import (MvAlgebra, MvElement, PayloadOps, int_record, one,
                      payload_ops, zero)
from .errors import MalformedInputError, StructuralError
from .groups import (TOP, GroupOps, LGroup, OrderedStructure, checked_operation,
                     group_positive_cone)
from .report import CheckReport, Instances, axiom_witness, check_laws
from .value import Value, set_field


class Bisemiring(Value, eq=False):
    """A sub-bisemiring of a host MV-algebra, given by membership.

    ``test(ops, value)`` decides membership of a value on any record of the
    host: its payload record or ``int_record``'s.  Operations are inherited
    from the host; use the algebra-level functions mv_oplus / mv_odot /
    mv_meet / mv_join on the elements.
    """

    def __init__(self, host: MvAlgebra, test: Callable[[PayloadOps, Any], bool],
                 label: str = "bisemiring", explicit: tuple | None = None):
        set_field(self, "host", host)
        set_field(self, "test", test)
        set_field(self, "label", label)
        set_field(self, "explicit", explicit)

    def contains(self, x: MvElement) -> bool:
        return self._member(x, self._host_ops(x))

    def has(self, x: MvElement) -> bool:
        """Membership of an element known to lie in the host; nothing is checked."""
        return self._member(x, payload_ops(self.host))

    def _member(self, x: MvElement, ops: PayloadOps) -> bool:
        return x in self.explicit if self.explicit is not None else self.test(ops, x.payload)

    def _host_ops(self, x: MvElement) -> PayloadOps:
        """The host's payload record, once x is checked to lie in the host."""
        if x.algebra != self.host:
            raise StructuralError(f"{x!r} does not inhabit {self.host}")
        return payload_ops(self.host).checked(x.payload)

    def elements(self, bound: int | None = None) -> list[MvElement]:
        """The carrier (finite case) or its bound-limited fragment."""
        if self.explicit is not None:
            return list(self.explicit)
        return [MvElement(self.host, p) for p in self.payloads(bound)]

    def payloads(self, bound: int | None = None) -> list:
        """The payloads of ``elements(bound)``.  Listed ones come from the host's
        enumeration, so only explicit elements are checked to lie in the host."""
        if self.explicit is not None:
            for x in self.explicit:
                self._host_ops(x)
            return [x.payload for x in self.explicit]
        ops, values, decode = int_record(self.host, bound)
        return [decode(v) for v in values if self.test(ops, v)]

    def __repr__(self) -> str:
        return f"{self.label}({self.host!r})"


# ---------------------------------------------------------------------------
# Positive cones with a top.

class TopCone(OrderedStructure):
    """Positive cone of base_group plus a maximum element ⊤ absorbing addition."""

    def __init__(self, base_group: LGroup):
        set_field(self, "base_group", base_group)

    def __repr__(self) -> str:
        return f"TopCone({self.base_group!r})"

    def build_ops(self) -> GroupOps:
        """The base group's record on its cone, with ⊤ adjoined above; no negation."""
        r = self.base_group.ops
        g_contains, g_add, g_leq, g_zero = r.contains, r.add, r.leq, r.zero

        def leq(x, y) -> bool:
            return y is TOP or (x is not TOP and g_leq(x, y))

        return GroupOps(
            lambda x: x is TOP or (g_contains(x) and g_leq(g_zero, x)),
            g_zero,
            lambda x, y: TOP if x is TOP or y is TOP else g_add(x, y),
            None,
            leq,
            lambda x, y: x if leq(x, y) else y,
            lambda x, y: y if leq(x, y) else x)


cone_add = checked_operation("add", "cone_add")
cone_leq = checked_operation("leq", "cone_leq")
cone_meet = checked_operation("meet", "cone_meet")
cone_join = checked_operation("join", "cone_join")


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
