"""ℓ-bisemiring values (the θ and θ* images) and positive cones with a top.

A Bisemiring is a subset of a host MV-algebra, closed under ⊕, ⊙, ∧, ∨ and
containing 0 and 1, represented as a record-level membership test plus, when
the carrier is given from outside, an explicit element tuple.  The test takes
an ops record and a value on it: membership of one element runs it on the
host's payload record, and a listing runs it on ``algebra.int_record``, whose
values are ints or tuples of them.  A TopCone is the positive cone of an
ℓ-group together with an absorbing top element; it is how θ of a perfect
algebra is packaged.  Like every ordered structure it carries one ops record
(see ``groups``), and the cone operations are that record's, checked.

The ℓ-bisemiring axioms, a bounded distributive lattice (S, ∧, ∨, 0, 1) and
idempotent commutative semirings (S, ∧, 0, 1, ⊕) and (S, ∨, 0, 1, ⊙), are a
table of ``report.Law``s, which ``check_lbisemiring`` runs on an ops record.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from .algebra import MvAlgebra, MvElement, PayloadOps, payload_ops, walk_record
from .errors import MalformedInputError, StructuralError
from .groups import (TOP, GroupOps, LGroup, OrderedStructure, checked_operation,
                     group_positive_cone)
from .report import CheckReport, Instances, Law, check_laws, check_over
from .terms import parse_equation
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
        enumeration, so only explicit elements are checked to lie in the host; a
        host past ``sys.maxsize`` elements is a DomainError (``algebra.walk_record``)."""
        if self.explicit is not None:
            for x in self.explicit:
                self._host_ops(x)
            return [x.payload for x in self.explicit]
        record = walk_record(self.host, bound, "list")
        ops, decode = record.ops, record.decode
        return [decode(v) for v in record.values if self.test(ops, v)]

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

def bisemiring_operations(ops) -> list[tuple]:
    """``(name, operation)`` for ⊕, ⊙, ∧ and ∨ of the record ops, in that order."""
    return [(name, getattr(ops, name)) for name in ("oplus", "odot", "meet", "join")]


def closure_laws(operations, member: Callable) -> list[tuple]:
    """One law per ``(name, operation)``: the operation of any pair satisfies member."""
    return [(name, 2, lambda x, y, op=op: member(op(x, y))) for name, op in operations]


def check_closed(elements: list, ops, show: Callable) -> int:
    """Raise MalformedInputError at the first pair whose ⊕, ⊙, ∧ or ∨ on the record
    ops lies outside elements, printed by ``show``; else count the pairs."""
    report = check_laws(closure_laws(bisemiring_operations(ops), set(elements).__contains__),
                        Instances.over(elements))
    if not report.ok:
        name, (x, y) = report.witness
        raise MalformedInputError(f"carrier is not closed under {name} at ({show(x)}, {show(y)})")
    return report.checked


@functools.cache
def _lbisemiring_axioms() -> tuple[Law, ...]:
    """The ℓ-bisemiring axioms as Laws, parsed on first use."""
    return tuple([Law(name, tuple(map(parse_equation, texts))) for name, *texts in (
        ("meet_commutative", "x /\\ y = y /\\ x"),
        ("join_commutative", "x \\/ y = y \\/ x"),
        ("meet_associative", "(x /\\ y) /\\ z = x /\\ (y /\\ z)"),
        ("join_associative", "(x \\/ y) \\/ z = x \\/ (y \\/ z)"),
        ("meet_idempotent", "x /\\ x = x"),
        ("join_idempotent", "x \\/ x = x"),
        ("absorption", "x /\\ (x \\/ y) = x", "x \\/ (x /\\ y) = x"),
        ("zero_bottom", "x \\/ 0 = x"),
        ("one_top", "x /\\ 1 = x"),
        ("lattice_distributive", "x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z)"),
        ("oplus_associative", "(x (+) y) (+) z = x (+) (y (+) z)"),
        ("oplus_commutative", "x (+) y = y (+) x"),
        ("oplus_zero_neutral", "x (+) 0 = x"),
        ("oplus_distributes_over_meet", "x (+) (y /\\ z) = (x (+) y) /\\ (x (+) z)"),
        ("one_absorbs_oplus", "x (+) 1 = 1"),
        ("odot_associative", "(x (.) y) (.) z = x (.) (y (.) z)"),
        ("odot_commutative", "x (.) y = y (.) x"),
        ("odot_one_neutral", "x (.) 1 = x"),
        ("odot_distributes_over_join", "x (.) (y \\/ z) = (x (.) y) \\/ (x (.) z)"),
        ("zero_absorbs_odot", "x (.) 0 = 0"),
    )])


def check_lbisemiring(elements, ops: PayloadOps, show: Callable = lambda p: p) -> CheckReport:
    """Exhaustively verify the ℓ-bisemiring axioms on a finite carrier under the record
    ops, shown by ``show``; MalformedInputError if it misses 0 or 1 or is not closed."""
    elems = list(elements)
    if ops.zero not in elems or ops.one not in elems:
        raise MalformedInputError("carrier must contain 0 and 1")
    if ops.zero == ops.one:
        raise MalformedInputError("0 = 1 violates the bounded lattice axioms")
    check_closed(elems, ops, lambda p: repr(show(p)))
    return check_over(_lbisemiring_axioms(), ops, elems, show)


def check_lbisemiring_of(S: Bisemiring, bound: int | None = None) -> CheckReport:
    """Run the axiom suite on a Bisemiring with a finite carrier, on the host's
    payload record once the carrier has been checked to lie in the host."""
    A = S.host
    return check_lbisemiring(S.payloads(bound), payload_ops(A), lambda p: MvElement(A, p))
