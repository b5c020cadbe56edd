"""MV-algebra descriptors, elements, exact operations, and axiom checking.

Shipped descriptor kinds: finite chains (the n-valued Lukasiewicz algebras),
the rational unit interval, Delta-of-a-group algebras (unit interval of
Z lex G, so Chang's algebra is DeltaOf(Z)), and finite products.  All
arithmetic is exact: chain and interval payloads are reduced Fractions,
DeltaOf payloads are (bit, offset) lex pairs with offset in the base group.

Every operation goes through one payload-ops record per descriptor
(``payload_ops``): a kind supplies ⊕, ¬, 0 and 1 on raw payloads, and the
record derives ⊙, ⊖, →, ∨, ∧ and ≤ from them.  A record is built on first use
in O(number of factors), with no tables, and kept in a bounded cache keyed on
the frozen descriptor.  The ``mv_*`` functions unwrap MvElements, call the
record and wrap the result; the checkers in ``logic`` and ``export`` call the
record on payloads directly and build MvElements only for witnesses.

Δ(G) payloads are (bit, offset) pairs whose arithmetic runs on the group's
unchecked ops record (``groups.GroupOps``).  Group membership of offsets is
checked at the boundary, once per call and never inside an operation:
``element`` validates a payload in full, and every element-level entry point
(the ``mv_*`` functions, ``is_boolean_elem``, ``logic.evaluate``'s bindings
and θ/θ* membership) first runs the record's ``check`` on each argument,
through ``PayloadOps.checked``.  Pools from ``enumerate_payloads`` and results of
the record's operations are members already, so check loops run unchecked.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Union

from .errors import DomainError, ModeError, StructuralError
from .groups import (LGroup, TrivialGroup, Z, group_coerce, group_element_str,
                     group_positive_cone)
from .report import CheckReport, Instances, axiom_witness, check_laws

DEFAULT_SAMPLE_BOUND = 100

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class FiniteChain:
    """The chain 0 < 1/(size-1) < ... < 1 with truncated addition."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 2:
            raise DomainError("a finite chain needs at least the two elements 0 and 1")

    def __repr__(self) -> str:
        return f"FiniteChain({self.size})"


@dataclass(frozen=True)
class RationalInterval:
    """[0, 1] ∩ Q with x ⊕ y = min(x + y, 1) and ¬x = 1 - x."""

    def __repr__(self) -> str:
        return "RationalInterval"


@dataclass(frozen=True)
class DeltaOf:
    """Unit interval of Z lex G: payloads (0, g) with g >= 0 and (1, g) with g <= 0."""

    group: LGroup

    def __repr__(self) -> str:
        if isinstance(self.group, type(Z)):
            return "Chang"
        return f"DeltaOf({self.group!r})"


@dataclass(frozen=True)
class ProductAlgebra:
    factors: tuple

    def __post_init__(self):
        if not isinstance(self.factors, tuple) or not self.factors:
            raise DomainError("a product algebra needs at least one factor")

    def __repr__(self) -> str:
        return "Product(" + ", ".join(repr(f) for f in self.factors) + ")"


MvAlgebra = Union[FiniteChain, RationalInterval, DeltaOf, ProductAlgebra]

CHANG = DeltaOf(Z)


def product_algebra(*factors: MvAlgebra) -> ProductAlgebra:
    return ProductAlgebra(tuple(factors))


@dataclass(frozen=True)
class MvElement:
    algebra: MvAlgebra
    payload: Any

    def __repr__(self) -> str:
        return f"<{element_str(self)} in {self.algebra!r}>"


def _coerce_payload(A: MvAlgebra, payload: Any):
    if isinstance(A, (FiniteChain, RationalInterval)):
        try:
            value = Fraction(payload)
        except (TypeError, ValueError):
            raise StructuralError(f"{payload!r} is not a rational") from None
        if not (_ZERO <= value <= _ONE):
            raise StructuralError(f"{value} is outside [0, 1]")
        if isinstance(A, FiniteChain) and (value * (A.size - 1)).denominator != 1:
            raise StructuralError(f"{value} is not a point of the {A.size}-element chain")
        return value
    if isinstance(A, DeltaOf):
        if not isinstance(payload, tuple) or len(payload) != 2 or payload[0] not in (0, 1):
            raise StructuralError(f"{payload!r} is not a (bit, offset) pair")
        bit, off = payload
        off = group_coerce(A.group, off)
        r = A.group.ops
        if bit == 0 and not r.leq(r.zero, off):
            raise StructuralError(f"offset of (0, {off!r}) must be >= 0")
        if bit == 1 and not r.leq(off, r.zero):
            raise StructuralError(f"offset of (1, {off!r}) must be <= 0")
        return (bit, off)
    if isinstance(A, ProductAlgebra):
        if not isinstance(payload, tuple) or len(payload) != len(A.factors):
            raise StructuralError(f"{payload!r} does not match the product arity")
        return tuple(_coerce_payload(f, p) for f, p in zip(A.factors, payload))
    raise StructuralError(f"unknown algebra descriptor {A!r}")


def element(A: MvAlgebra, payload: Any) -> MvElement:
    """Validate and canonicalize a payload, returning an element of A."""
    return MvElement(A, _coerce_payload(A, payload))


class PayloadOps:
    """The operations of one descriptor on raw payloads.

    A kind supplies only ⊕, ¬, 0 and 1; ⊙, ⊖, →, ∨, ∧ and the order test are
    derived here from those four, exactly as the MV-algebra definitions read.
    None of them checks its arguments.  ``check`` is the boundary check of one
    payload (it raises StructuralError when a Δ(G) offset lies outside G), or
    None when the kind needs none.
    """

    __slots__ = ("oplus", "neg", "zero", "one", "check", "odot", "ominus", "implies",
                 "join", "meet", "leq")

    def __init__(self, oplus: Callable, neg: Callable, zero_p, one_p,
                 check: Callable | None = None):
        self.oplus, self.neg, self.zero, self.one = oplus, neg, zero_p, one_p
        self.check = check

        def odot(p, q):  # ¬(¬p ⊕ ¬q)
            return neg(oplus(neg(p), neg(q)))

        def join(p, q):  # ¬(¬p ⊕ q) ⊕ q
            return oplus(neg(oplus(neg(p), q)), q)

        self.odot, self.join = odot, join
        self.ominus = lambda p, q: odot(p, neg(q))
        self.implies = lambda p, q: oplus(neg(p), q)
        self.meet = lambda p, q: neg(join(neg(p), neg(q)))
        self.leq = lambda p, q: oplus(neg(p), q) == one_p

    def checked(self, *payloads) -> PayloadOps:
        """This record, once each payload has passed the boundary check."""
        if self.check is not None:
            for p in payloads:
                self.check(p)
        return self


def _unit_oplus(p, q):
    s = p + q
    return s if s < _ONE else _ONE


def _unit_neg(p):
    return _ONE - p


@functools.lru_cache(maxsize=64)
def payload_ops(A: MvAlgebra) -> PayloadOps:
    """The ops record of a descriptor, built in O(number of factors) and cached."""
    if isinstance(A, FiniteChain):
        return payload_ops(RationalInterval())  # every chain shares the interval's record
    if isinstance(A, RationalInterval):
        return PayloadOps(_unit_oplus, _unit_neg, _ZERO, _ONE)
    if isinstance(A, DeltaOf):
        G = A.group
        r = G.ops
        gz, add, neg, meet, contains = r.zero, r.add, r.neg, r.meet, r.contains

        def delta_oplus(p, q):
            bit = p[0] + q[0]
            off = add(p[1], q[1])
            if bit == 0:
                return (0, off)
            if bit == 1:
                return (1, meet(off, gz))
            return (1, gz)

        def check(p):
            if not contains(p[1]):
                raise StructuralError(f"{p[1]!r} is not in the carrier of {G!r}")

        return PayloadOps(delta_oplus, lambda p: (1 - p[0], neg(p[1])),
                          (0, gz), (1, gz), check)
    if isinstance(A, ProductAlgebra):
        parts = [payload_ops(f) for f in A.factors]
        pluses, negs = tuple(o.oplus for o in parts), tuple(o.neg for o in parts)
        checks = tuple((i, o.check) for i, o in enumerate(parts) if o.check is not None)

        def check(p):
            for i, c in checks:
                c(p[i])

        return PayloadOps(
            lambda p, q: tuple([f(a, b) for f, a, b in zip(pluses, p, q)]),
            lambda p: tuple([f(a) for f, a in zip(negs, p)]),
            tuple(o.zero for o in parts), tuple(o.one for o in parts),
            check if checks else None)
    raise StructuralError(f"unknown algebra descriptor {A!r}")


def zero(A: MvAlgebra) -> MvElement:
    return MvElement(A, payload_ops(A).zero)


def one(A: MvAlgebra) -> MvElement:
    return MvElement(A, payload_ops(A).one)


def _same_algebra(x: MvElement, y: MvElement) -> MvAlgebra:
    if x.algebra != y.algebra:
        raise StructuralError(f"descriptor mismatch: {x.algebra!r} vs {y.algebra!r}")
    return x.algebra


def _lift(name: str, doc: str | None) -> Callable[[MvElement, MvElement], MvElement]:
    """The element-level form of the record's binary operation ``name``."""
    def op(x: MvElement, y: MvElement) -> MvElement:
        A = _same_algebra(x, y)
        ops = payload_ops(A).checked(x.payload, y.payload)
        return MvElement(A, getattr(ops, name)(x.payload, y.payload))
    op.__name__ = op.__qualname__ = "mv_" + name
    op.__doc__ = doc
    return op


mv_oplus = _lift("oplus", None)
mv_odot = _lift("odot", "x ⊙ y = ¬(¬x ⊕ ¬y).")
mv_ominus = _lift("ominus", "x ⊖ y = x ⊙ ¬y.")
mv_implies = _lift("implies", "x → y = ¬x ⊕ y.")
mv_join = _lift("join", "x ∨ y = ¬(¬x ⊕ y) ⊕ y, the lattice join of the natural order.")
mv_meet = _lift("meet", None)


def mv_neg(x: MvElement) -> MvElement:
    return MvElement(x.algebra, payload_ops(x.algebra).checked(x.payload).neg(x.payload))


def mv_leq(x: MvElement, y: MvElement) -> bool:
    """Natural order, decided through the equivalent test ¬x ⊕ y = 1."""
    A = _same_algebra(x, y)
    return payload_ops(A).checked(x.payload, y.payload).leq(x.payload, y.payload)


def is_boolean_elem(x: MvElement) -> bool:
    """True iff x is idempotent: x ⊕ x = x."""
    return payload_ops(x.algebra).checked(x.payload).oplus(x.payload, x.payload) == x.payload


def is_infinitesimal_elem(x: MvElement) -> bool:
    """Exact test for n·x <= ¬x for all n >= 1, decided representation-wise.

    On chains and the interval only 0 qualifies; on DeltaOf algebras exactly
    the bit-0 payloads do; products decide componentwise.
    """
    A = x.algebra
    if isinstance(A, (FiniteChain, RationalInterval)):
        return x.payload == _ZERO
    if isinstance(A, DeltaOf):
        return x.payload[0] == 0
    return all(is_infinitesimal_elem(MvElement(f, p))
               for f, p in zip(A.factors, x.payload))


def element_str(x: MvElement) -> str:
    return _payload_str(x.algebra, x.payload)


def _payload_str(A: MvAlgebra, p) -> str:
    if isinstance(A, (FiniteChain, RationalInterval)):
        return str(p)
    if isinstance(A, DeltaOf):
        return f"({p[0]},{group_element_str(A.group, p[1])})"
    return "(" + ",".join(_payload_str(f, c) for f, c in zip(A.factors, p)) + ")"


# ---------------------------------------------------------------------------
# Carriers: size, canonical enumeration, deterministic sampling.

def carrier_size(A: MvAlgebra) -> int | None:
    """Number of elements, or None when the carrier is infinite."""
    if isinstance(A, FiniteChain):
        return A.size
    if isinstance(A, RationalInterval):
        return None
    if isinstance(A, DeltaOf):
        return 2 if isinstance(A.group, TrivialGroup) else None
    total = 1
    for f in A.factors:
        n = carrier_size(f)
        if n is None:
            return None
        total *= n
    return total


def _farey(bound: int) -> list[Fraction]:
    out = {_ZERO, _ONE}
    for d in range(2, bound + 1):
        for n in range(1, d):
            out.add(Fraction(n, d))
    return sorted(out)


def enumerate_payloads(A: MvAlgebra, bound: int | None = None) -> list:
    """Canonical enumeration: the full carrier when finite, else a bounded fragment.

    Chains and DeltaOf fragments come in ascending natural order; the interval
    fragment is the Farey sequence of order ``bound``; products are enumerated
    lexicographically by component.  DeltaOf fragments hold all elements with
    offset in the bound-limited fragment of the base group.
    """
    if isinstance(A, FiniteChain):
        n = A.size - 1
        return [Fraction(k, n) for k in range(n + 1)]
    if isinstance(A, RationalInterval):
        if bound is None:
            raise DomainError("enumerating the rational interval requires a bound")
        if bound < 1:
            raise DomainError("bound must be >= 1")
        return _farey(bound)
    if isinstance(A, DeltaOf):
        if isinstance(A.group, TrivialGroup):
            ops = payload_ops(A)
            return [ops.zero, ops.one]
        if bound is None:
            raise DomainError(f"enumerating {A!r} requires a bound")
        cone, neg = group_positive_cone(A.group, bound), A.group.ops.neg
        return [(0, g) for g in cone] + [(1, neg(g)) for g in reversed(cone)]
    if isinstance(A, ProductAlgebra):
        return list(itertools.product(*(enumerate_payloads(f, bound) for f in A.factors)))
    raise StructuralError(f"unknown algebra descriptor {A!r}")


def enumerate_elements(A: MvAlgebra, bound: int | None = None) -> list[MvElement]:
    """The elements of ``enumerate_payloads(A, bound)``, in the same order."""
    return [MvElement(A, p) for p in enumerate_payloads(A, bound)]


def sample_elements(A: MvAlgebra, count: int, seed: int,
                    bound: int = DEFAULT_SAMPLE_BOUND) -> list[MvElement]:
    """Deterministic sample, uniform over the bounded fragment (with replacement)."""
    return [MvElement(A, p) for (p,) in payload_tuples(A, bound, count, seed).tuples(1)]


def payload_tuples(A: MvAlgebra, bound: int | None = None, samples: int | None = None,
                   seed: int = 0) -> Instances:
    """The instances of every check: ``tuples(arity)`` yields all arity-tuples of
    payloads of the (bound-limited) carrier in canonical order or, with
    ``samples`` set, that many seeded draws with replacement, where the bound
    only applies to infinite carriers.  The mode is sampled when ``samples`` is
    set, bounded when ``bound`` is, and exhaustive otherwise."""
    if samples is None:
        if bound is None and carrier_size(A) is None:
            raise ModeError(f"{A!r} has an infinite carrier; use a bounded or sampled check")
        return Instances.over(enumerate_payloads(A, bound),
                              "exhaustive" if bound is None else "bounded", bound)
    if samples < 1:
        raise DomainError("samples must be >= 1")
    pool = enumerate_payloads(A, None if carrier_size(A) is not None else bound)
    rng = random.Random(seed)
    return Instances(lambda arity: (tuple(rng.choice(pool) for _ in range(arity))
                                    for _ in range(samples)), "sampled", bound)


# ---------------------------------------------------------------------------
# MV axiom suite.

def _mv_axioms(oplus: Callable, neg: Callable, zero_el, one_el) -> list[tuple]:
    return [
        ("oplus_associative", 3, lambda x, y, z: oplus(oplus(x, y), z) == oplus(x, oplus(y, z))),
        ("oplus_commutative", 2, lambda x, y: oplus(x, y) == oplus(y, x)),
        ("zero_neutral", 1, lambda x: oplus(x, zero_el) == x),
        ("one_absorbing", 1, lambda x: oplus(x, one_el) == one_el),
        ("neg_involutive", 1, lambda x: neg(neg(x)) == x),
        ("neg_zero_is_one", 0, lambda: neg(zero_el) == one_el),
        ("lukasiewicz_exchange", 2,
         lambda x, y: oplus(neg(oplus(neg(x), y)), y) == oplus(neg(oplus(neg(y), x)), x)),
    ]


def check_mv_axioms(A: MvAlgebra, mode: str = "exhaustive", *,
                    samples: int = 1000, seed: int = 0,
                    bound: int = DEFAULT_SAMPLE_BOUND) -> CheckReport:
    """Verify the MV axioms over all tuples (exhaustive) or seeded samples.

    Exhaustive mode requires a finite carrier.  The first counterexample in
    canonical enumeration order is reported.
    """
    if mode == "exhaustive":
        source = payload_tuples(A)
    elif mode == "sampled":
        source = payload_tuples(A, bound, samples, seed)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    ops = payload_ops(A)
    return check_laws(_mv_axioms(ops.oplus, ops.neg, ops.zero, ops.one), source).shaped(
        lambda name, instance: axiom_witness(name, [MvElement(A, p) for p in instance]))


def check_axioms_over(elements: Iterable, oplus: Callable, neg: Callable,
                      zero_el, one_el) -> CheckReport:
    """Run the MV axiom suite against explicitly supplied operations.

    Every tuple of ``elements`` is tried.  Exercised by tests as a negative
    control: feed a corrupted operation table and the counterexample must
    surface.
    """
    return check_laws(_mv_axioms(oplus, neg, zero_el, one_el),
                      Instances.over(elements)).shaped(axiom_witness)
