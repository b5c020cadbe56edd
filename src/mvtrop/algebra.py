"""MV-algebra descriptors, elements, exact operations, and axiom checking.

Shipped descriptor kinds: finite chains (the n-valued Lukasiewicz algebras),
the rational unit interval, Delta-of-a-group algebras (unit interval of
Z lex G, so Chang's algebra is DeltaOf(Z)), and finite products.  All
arithmetic is exact: chain and interval payloads are reduced Fractions,
DeltaOf payloads are (bit, offset) lex pairs with offset in the base group.
Each kind is a frozen subclass of ``MvAlgebra`` holding, as methods, all that
is particular to it; the public functions guard once and call into the kind.

Every operation goes through one payload-ops record per descriptor
(``payload_ops``): a kind supplies ⊕, ¬, 0 and 1 on raw payloads together with
its order ≤, ∨ and ∧, and the record derives ⊙, ⊖ and → from ⊕ and ¬.  Every
shipped kind is an MV-chain or a finite product of MV-chains, so each knows its
order natively.  A record is built on first use in O(number of factors), with
no tables, and kept in a bounded cache keyed on the frozen descriptor.  The
``mv_*`` functions unwrap MvElements, call the record and wrap the result; the
checkers in ``logic`` and ``export`` call the record on payloads directly and
build MvElements only for witnesses.

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
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable

from .errors import DomainError, ModeError, StructuralError, UsageError
from .groups import TRIVIAL, LexZG, LGroup, Z, group_coerce, require_members
from .rationals import parse_integer, parse_rational, rational_str
from .report import CheckReport, Instances, axiom_witness, check_laws

DEFAULT_SAMPLE_BOUND = 100

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PayloadOps:
    """The operations of one descriptor on raw payloads.

    A kind supplies ⊕, ¬, 0 and 1 and its lattice order: the test ≤ and the
    join ∨ and meet ∧ it induces.  ⊙, ⊖ and → are derived here from ⊕ and ¬,
    exactly as the MV-algebra definitions read.  None of them checks its
    arguments.  ``check`` is the boundary check of one payload (it raises
    StructuralError when a Δ(G) offset lies outside G), or None when the kind
    needs none.
    """

    __slots__ = ("oplus", "neg", "zero", "one", "check", "odot", "ominus", "implies",
                 "join", "meet", "leq")

    def __init__(self, oplus: Callable, neg: Callable, zero_p, one_p,
                 leq: Callable, join: Callable, meet: Callable,
                 check: Callable | None = None):
        self.oplus, self.neg, self.zero, self.one = oplus, neg, zero_p, one_p
        self.leq, self.join, self.meet = leq, join, meet
        self.check = check

        def odot(p, q):  # ¬(¬p ⊕ ¬q)
            return neg(oplus(neg(p), neg(q)))

        self.odot = odot
        self.ominus = lambda p, q: odot(p, neg(q))
        self.implies = lambda p, q: oplus(neg(p), q)

    def checked(self, *payloads) -> PayloadOps:
        """This record, once each payload has passed the boundary check."""
        if self.check is not None:
            for p in payloads:
                self.check(p)
        return self


def _unit_oplus(p, q):
    s = p + q
    return s if s < _ONE else _ONE


_UNIT_OPS = PayloadOps(_unit_oplus, lambda p: _ONE - p, _ZERO, _ONE, operator.le, max, min)


class MvAlgebra:
    """Base of the MV descriptors.  A kind supplies ``coerce(payload)`` (validated in
    full), ``build_ops()`` (its record; callers use ``payload_ops``),
    ``carrier_size()`` (None, the default, when infinite), ``enumerate(bound)``
    (the carrier or its bounded fragment, in canonical order),
    ``is_infinitesimal(payload)`` and ``payload_to_json`` / ``payload_from_json``."""

    def carrier_size(self) -> int | None:
        return None


class _Unit(MvAlgebra):
    """Chains and the interval: payloads are the Fractions of [0, 1], all on one record."""

    def coerce(self, payload) -> Fraction:
        try:
            value = Fraction(payload)
        except (TypeError, ValueError):
            raise StructuralError(f"{payload!r} is not a rational") from None
        if not (_ZERO <= value <= _ONE):
            raise StructuralError(f"{value} is outside [0, 1]")
        return value

    def build_ops(self) -> PayloadOps:
        return _UNIT_OPS

    def is_infinitesimal(self, p) -> bool:
        return p == _ZERO

    def payload_to_json(self, p) -> Any:
        return rational_str(p)

    def payload_from_json(self, data) -> Fraction:
        if isinstance(data, list):
            raise UsageError(f"expected a rational for {self!r}")
        return parse_rational(str(data))


@dataclass(frozen=True)
class FiniteChain(_Unit):
    """The chain 0 < 1/(size-1) < ... < 1 with truncated addition."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 2:
            raise DomainError("a finite chain needs at least the two elements 0 and 1")

    def __repr__(self) -> str:
        return f"FiniteChain({self.size})"

    def coerce(self, payload) -> Fraction:
        value = super().coerce(payload)
        if (value * (self.size - 1)).denominator != 1:
            raise StructuralError(f"{value} is not a point of the {self.size}-element chain")
        return value

    def carrier_size(self) -> int:
        return self.size

    def enumerate(self, bound) -> list:
        n = self.size - 1
        return [Fraction(k, n) for k in range(n + 1)]


@dataclass(frozen=True)
class RationalInterval(_Unit):
    """[0, 1] ∩ Q with x ⊕ y = min(x + y, 1) and ¬x = 1 - x."""

    def __repr__(self) -> str:
        return "RationalInterval"

    def enumerate(self, bound: int) -> list:
        """The Farey sequence of order ``bound``."""
        return sorted({Fraction(n, d) for d in range(1, bound + 1) for n in range(d + 1)})


@dataclass(frozen=True)
class DeltaOf(MvAlgebra):
    """Unit interval of Z lex G: payloads (0, g) with g >= 0 and (1, g) with g <= 0."""

    group: LGroup

    def __repr__(self) -> str:
        return "Chang" if self.group == Z else f"DeltaOf({self.group!r})"

    def coerce(self, payload) -> tuple:
        if not isinstance(payload, tuple) or len(payload) != 2 or payload[0] not in (0, 1):
            raise StructuralError(f"{payload!r} is not a (bit, offset) pair")
        bit, off = payload
        off = group_coerce(self.group, off)
        r = self.group.ops
        if bit == 0 and not r.leq(r.zero, off):
            raise StructuralError(f"offset of (0, {off!r}) must be >= 0")
        if bit == 1 and not r.leq(off, r.zero):
            raise StructuralError(f"offset of (1, {off!r}) must be <= 0")
        return (bit, off)

    def build_ops(self) -> PayloadOps:
        """Truncated lex addition; ≤, ∨ and ∧ are those of Z lex G."""
        G = self.group
        r, lex = G.ops, LexZG(G).ops
        gz, add, neg, gmeet = r.zero, r.add, r.neg, r.meet

        def oplus(p, q):
            bit = p[0] + q[0]
            off = add(p[1], q[1])
            if bit == 0:
                return (0, off)
            if bit == 1:
                return (1, gmeet(off, gz))
            return (1, gz)

        def check(p):
            require_members(G, p[1])

        return PayloadOps(oplus, lambda p: (1 - p[0], neg(p[1])), (0, gz), (1, gz),
                          lex.leq, lex.join, lex.meet, check)

    def carrier_size(self) -> int | None:
        return 2 if self.group == TRIVIAL else None

    def enumerate(self, bound: int | None) -> list:
        """Ascending: (0, g) over the bound-limited positive cone, then (1, -g) back down."""
        r = self.group.ops
        cone = [g for g in self.group.enumerate(bound) if r.leq(r.zero, g)]
        return [(0, g) for g in cone] + [(1, r.neg(g)) for g in reversed(cone)]

    def is_infinitesimal(self, p) -> bool:
        return p[0] == 0

    def payload_to_json(self, p) -> Any:
        return [p[0], self.group.payload_to_json(p[1])]

    def payload_from_json(self, data) -> tuple:
        if not isinstance(data, list) or len(data) != 2:
            raise UsageError(f"expected a [bit, offset] pair, got {data!r}")
        return (parse_integer(data[0], "bit"), self.group.payload_from_json(data[1]))


@dataclass(frozen=True)
class ProductAlgebra(MvAlgebra):
    """Componentwise operations; payloads are tuples, enumerated lexicographically."""

    factors: tuple

    def __post_init__(self):
        if not isinstance(self.factors, tuple) or not self.factors:
            raise DomainError("a product algebra needs at least one factor")
        for f in self.factors:
            _descriptor(f)

    def __repr__(self) -> str:
        return "Product(" + ", ".join(repr(f) for f in self.factors) + ")"

    def coerce(self, payload) -> tuple:
        if not isinstance(payload, tuple) or len(payload) != len(self.factors):
            raise StructuralError(f"{payload!r} does not match the product arity")
        return tuple(f.coerce(p) for f, p in zip(self.factors, payload))

    def build_ops(self) -> PayloadOps:
        parts = [payload_ops(f) for f in self.factors]
        pluses, negs = tuple(o.oplus for o in parts), tuple(o.neg for o in parts)
        leqs, joins = tuple(o.leq for o in parts), tuple(o.join for o in parts)
        meets = tuple(o.meet for o in parts)
        checks = tuple((i, o.check) for i, o in enumerate(parts) if o.check is not None)

        def check(p):
            for i, c in checks:
                c(p[i])

        return PayloadOps(
            lambda p, q: tuple([f(a, b) for f, a, b in zip(pluses, p, q)]),
            lambda p: tuple([f(a) for f, a in zip(negs, p)]),
            tuple(o.zero for o in parts), tuple(o.one for o in parts),
            lambda p, q: all([f(a, b) for f, a, b in zip(leqs, p, q)]),
            lambda p, q: tuple([f(a, b) for f, a, b in zip(joins, p, q)]),
            lambda p, q: tuple([f(a, b) for f, a, b in zip(meets, p, q)]),
            check if checks else None)

    def carrier_size(self) -> int | None:
        sizes = [f.carrier_size() for f in self.factors]
        return None if None in sizes else math.prod(sizes)

    def enumerate(self, bound: int | None) -> list:
        return list(itertools.product(*(f.enumerate(bound) for f in self.factors)))

    def is_infinitesimal(self, p) -> bool:
        return all(f.is_infinitesimal(c) for f, c in zip(self.factors, p))

    def payload_to_json(self, p) -> Any:
        return [f.payload_to_json(c) for f, c in zip(self.factors, p)]

    def payload_from_json(self, data) -> tuple:
        if not isinstance(data, list) or len(data) != len(self.factors):
            raise UsageError(f"payload arity mismatch for {self!r}: {data!r}")
        return tuple(f.payload_from_json(c) for f, c in zip(self.factors, data))


CHANG = DeltaOf(Z)


def product_algebra(*factors: MvAlgebra) -> ProductAlgebra:
    return ProductAlgebra(tuple(factors))


def _descriptor(A) -> MvAlgebra:
    if not isinstance(A, MvAlgebra):
        raise StructuralError(f"unknown algebra descriptor {A!r}")
    return A


@dataclass(frozen=True)
class MvElement:
    algebra: MvAlgebra
    payload: Any

    def __repr__(self) -> str:
        return f"<{element_str(self)} in {self.algebra!r}>"


def element(A: MvAlgebra, payload: Any) -> MvElement:
    """Validate and canonicalize a payload, returning an element of A."""
    return MvElement(A, _descriptor(A).coerce(payload))


@functools.lru_cache(maxsize=64)
def payload_ops(A: MvAlgebra) -> PayloadOps:
    """The ops record of a descriptor, built in O(number of factors) and cached."""
    return _descriptor(A).build_ops()


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
mv_join = _lift("join", "x ∨ y, the join of the kind's own order; it equals ¬(¬x ⊕ y) ⊕ y.")
mv_meet = _lift("meet", "x ∧ y, the meet of the kind's own order; it equals ¬(¬x ∨ ¬y).")


def mv_neg(x: MvElement) -> MvElement:
    return MvElement(x.algebra, payload_ops(x.algebra).checked(x.payload).neg(x.payload))


def mv_leq(x: MvElement, y: MvElement) -> bool:
    """Natural order, from the kind's own order; x ≤ y iff ¬x ⊕ y = 1."""
    A = _same_algebra(x, y)
    return payload_ops(A).checked(x.payload, y.payload).leq(x.payload, y.payload)


def is_boolean_elem(x: MvElement) -> bool:
    """True iff x is idempotent: x ⊕ x = x."""
    return payload_ops(x.algebra).checked(x.payload).oplus(x.payload, x.payload) == x.payload


def is_infinitesimal_elem(x: MvElement) -> bool:
    """Exact test for n·x <= ¬x for all n >= 1, decided by the kind: only 0 on
    chains and the interval, the bit-0 payloads on Δ(G), componentwise on products."""
    return x.algebra.is_infinitesimal(x.payload)


def element_str(x: MvElement) -> str:
    """The payload's JSON form written with (a,b) for lists, as shorthand input reads it."""
    return _tuple_form(x.algebra.payload_to_json(x.payload))


def _tuple_form(data) -> str:
    if isinstance(data, list):
        return "(" + ",".join(map(_tuple_form, data)) + ")"
    return str(data)


# ---------------------------------------------------------------------------
# Carriers: size, canonical enumeration, deterministic sampling.

def carrier_size(A: MvAlgebra) -> int | None:
    """Number of elements, or None when the carrier is infinite."""
    return _descriptor(A).carrier_size()


def enumerate_payloads(A: MvAlgebra, bound: int | None = None) -> list:
    """Canonical enumeration: the full carrier when finite (any bound is ignored),
    else the fragment of a bound >= 1; see each kind's ``enumerate``."""
    if _descriptor(A).carrier_size() is None:
        if bound is None:
            raise DomainError(f"enumerating {A!r} requires a bound")
        if bound < 1:
            raise DomainError("bound must be >= 1")
    return A.enumerate(bound)


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
    pool = enumerate_payloads(A, bound)
    rng = random.Random(seed)
    return Instances(lambda arity: (tuple(rng.choice(pool) for _ in range(arity))
                                    for _ in range(samples)), "sampled", bound)


def check_identities(A: MvAlgebra, laws_of: Callable[[PayloadOps], list[tuple]],
                     bound: int | None = None, samples: int | None = None,
                     seed: int = 0) -> CheckReport:
    """Check the laws ``laws_of(payload_ops(A))`` over ``payload_tuples(A, bound,
    samples, seed)``, deciding a valid walk over a product factor by factor.

    Every law must be an identity or a quasi-identity (a Horn sentence: premises
    that are equations, one equation as conclusion).  Such a law holds on all
    tuples of a product of pools iff it holds on all tuples of each pool
    (Birkhoff: varieties and quasivarieties are closed under products), and
    the pool of a product, bounded or not, is the product of its factors'
    pools.  So when A is a product walked in full, the laws are first checked
    on each distinct factor of the product tree once, with the same bound.
    If all pass, the report is the one the product walk would give, without
    walking it: the same verdict, mode and details, and ``checked`` = the sum
    over the laws of ``source.count(arity)``.  If one fails, the product is
    walked, so the first counterexample in canonical order and its ``checked``
    are the walk's.  A sampled source is always walked.
    """
    laws = laws_of(payload_ops(A))
    source = payload_tuples(A, bound, samples, seed)
    if isinstance(A, ProductAlgebra) and source.mode != "sampled" and all(
            check_laws(laws_of(payload_ops(f)), Instances.over(enumerate_payloads(f, bound))).ok
            for f in _distinct_factors(A)):
        return source.clean(sum(source.count(arity) for _, arity, _ in laws))
    return check_laws(laws, source)


def _distinct_factors(A: MvAlgebra) -> list:
    """The factors of A that are not products, at any depth, each once, in order."""
    if not isinstance(A, ProductAlgebra):
        return [A]
    return list(dict.fromkeys(f for g in A.factors for f in _distinct_factors(g)))


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


def _mv_laws(ops: PayloadOps) -> list[tuple]:
    return _mv_axioms(ops.oplus, ops.neg, ops.zero, ops.one)


def check_mv_axioms(A: MvAlgebra, mode: str = "exhaustive", *,
                    samples: int = 1000, seed: int = 0,
                    bound: int = DEFAULT_SAMPLE_BOUND) -> CheckReport:
    """Verify the MV axioms over all tuples (exhaustive) or seeded samples.

    Exhaustive mode requires a finite carrier.  The first counterexample in
    canonical enumeration order is reported.
    """
    if mode == "exhaustive":
        report = check_identities(A, _mv_laws)
    elif mode == "sampled":
        report = check_identities(A, _mv_laws, bound, samples, seed)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return report.shaped(
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
