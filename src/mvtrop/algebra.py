"""MV-algebra descriptors, elements, exact operations, and axiom checking.

Shipped descriptor kinds: finite chains (the n-valued Lukasiewicz algebras),
the rational unit interval, Delta-of-a-group algebras (unit interval of
Z lex G, so Chang's algebra is DeltaOf(Z)), and finite products.  All
arithmetic is exact: chain and interval payloads are reduced Fractions,
DeltaOf payloads are (bit, offset) lex pairs with offset in the base group.
Each kind is a frozen subclass of ``MvAlgebra`` holding, as methods, all that
is particular to it, its JSON ``tag``, descriptor JSON (``to_json``) and
shorthand (``str(A)``, which messages use) among them; the public functions
guard once and call into the kind.

Every operation goes through one payload-ops record per descriptor
(``payload_ops``): a kind supplies ⊕, ¬, 0 and 1 on raw payloads together with
its order ≤, ∨ and ∧, and the record derives ⊙, ⊖ and → from ⊕ and ¬.  Every
shipped kind is an MV-chain or a finite product of MV-chains, so each knows its
order natively.  A record is built on first use in O(number of factors), with
no tables, and kept in a bounded cache keyed on the frozen descriptor.  The
``mv_*`` functions unwrap MvElements, call the record and wrap the result; a
check compiles its laws (``report.Law``, the MV axioms one table of them) on a
record and builds MvElements only for witnesses.

A walk over a listing (θ, θ*, the Boolean part and ``export``), every sampled
check and every check of a product run on the int record of ``int_record(A,
bound)``: the record, the listing's values on it, and a decoder of any value
back to its payload.  It is exact because Γ's truncated operations commute
with scaling by a positive integer.  Each kind builds its own
(``build_int_record``).  A finite chain with n elements is L_n on
``range(n)``, i decoded as Fraction(i, n−1).  The interval's fragment runs on
p·D and Δ(G)'s for G ⊆ Q on Chang's record over (bit, offset·D), D the lcm of
the listing's denominators; any other Δ(G) keeps the payload record, with the
payloads as values.  A product's int record is one flat record over its leaves
(``leaf_factors``), componentwise (``_componentwise``): its values are the
tuples of theirs, a sequence that builds only the tuples it is asked for
(``_Tuples``), and its decoder regroups the leaves' payloads by the product
tree.  The listing of a chain or a product is its values decoded
(``MvAlgebra.enumerate``), so a walk builds no listing of either and decodes
only what it keeps.  The Fractions of [0, 1], the ints of L_n and the scaled
interval share one record, ``_chain_ops(bottom, top)``.  A sampled check draws
on the values with the seeded ``rng.choice``, which picks the same indices as
it would on the listing; a product walked in full (exhaustive or bounded) is
decided on its leaves' records or walked on the k-tuples of its values
(``_Tuples.tuples``).  Both decode only a counterexample's instance.
Exhaustive and bounded checks of a leaf still walk payloads.  Both refuse, on
``sized_record``, a record with more values than ``sys.maxsize``, the most that
``len`` and ``rng.choice`` take; a product builds each distinct leaf's record once.

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
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable

from .errors import DomainError, ModeError, StructuralError, UsageError
from .groups import (TRIVIAL, LexZG, LGroup, QSubgroup, Z, group_coerce,
                     require_members)
from .rationals import dumps, parse_integer, parse_rational, rational_str
from .report import CheckReport, Instances, Law, axiom_witness, check_laws
from .terms import parse_equation
from .value import Value, set_field

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
    needs none.  The int records of ``int_record`` are ones too, on ints or
    tuples of them.
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


def _chain_ops(bottom, top) -> PayloadOps:
    """Γ of the numbers with unit ``top`` on [bottom, top]: p ⊕ q = min(p + q, top),
    ¬p = top − p, ordered as numbers (Cignoli, D'Ottaviano and Mundici,
    *Algebraic Foundations of Many-valued Reasoning*, 2000)."""
    def oplus(p, q):
        s = p + q
        return s if s < top else top

    return PayloadOps(oplus, lambda p: top - p, bottom, top, operator.le, max, min)


_UNIT_OPS = _chain_ops(_ZERO, _ONE)


class MvAlgebra(Value):
    """Base of the MV descriptors.  A kind supplies its ``tag`` and ``__str__`` (its
    JSON is the tag alone unless it overrides ``to_json``), ``coerce(payload)``
    (validated in full), ``build_ops()`` (its record; callers use ``payload_ops``),
    ``carrier_size()`` (None, the default, when infinite),
    ``is_infinitesimal(payload)`` and ``payload_to_json`` / ``payload_from_json``.
    Finite chains and products supply ``build_int_record(bound)``, their piece of
    ``int_record``, and list their carrier by decoding its values (``enumerate``).
    The interval and Δ(G) supply ``enumerate(bound)``, the carrier or its bounded
    fragment in canonical order, from which their int record is built; by
    default that is the payload record, with the listing as its values."""

    def to_json(self) -> dict:
        return {"kind": self.tag}

    def carrier_size(self) -> int | None:
        return None

    def build_int_record(self, bound: int | None) -> tuple:
        return payload_ops(self), self.enumerate(bound), lambda p: p

    def enumerate(self, bound: int | None) -> list:
        _, values, decode = self.build_int_record(bound)
        return [decode(v) for v in values]


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
            raise UsageError(f"expected a rational for {self}")
        return parse_rational(str(data))


class FiniteChain(_Unit):
    """The chain 0 < 1/(size-1) < ... < 1 with truncated addition."""

    tag = "finite_chain"

    def __init__(self, size: int):
        if not isinstance(size, int) or size < 2:
            raise DomainError("a finite chain needs at least the two elements 0 and 1")
        set_field(self, "size", size)

    def __repr__(self) -> str:
        return f"FiniteChain({self.size})"

    def __str__(self) -> str:
        return f"chain:{self.size}"

    def to_json(self) -> dict:
        return {"kind": self.tag, "size": self.size}

    def coerce(self, payload) -> Fraction:
        value = super().coerce(payload)
        if (value * (self.size - 1)).denominator != 1:
            raise StructuralError(f"{value} is not a point of the {self.size}-element chain")
        return value

    def carrier_size(self) -> int:
        return self.size

    def build_int_record(self, bound) -> tuple:
        """L_n on ``range(n)``, i decoded as Fraction(i, n − 1); no listing is built."""
        top = self.size - 1
        return _chain_ops(0, top), range(self.size), lambda i: Fraction(i, top)


class RationalInterval(_Unit):
    """[0, 1] ∩ Q with x ⊕ y = min(x + y, 1) and ¬x = 1 - x."""

    tag = "rational_interval"

    def __repr__(self) -> str:
        return "RationalInterval"

    def __str__(self) -> str:
        return "interval"

    def enumerate(self, bound: int) -> list:
        """The Farey sequence of order ``bound``."""
        return sorted({Fraction(n, d) for d in range(1, bound + 1) for n in range(d + 1)})

    def build_int_record(self, bound: int) -> tuple:
        """p ↦ p·D on ``_chain_ops(0, D)``, D the lcm of the listing's denominators."""
        pool = self.enumerate(bound)
        D = math.lcm(*[p.denominator for p in pool])
        return (_chain_ops(0, D), [p.numerator * (D // p.denominator) for p in pool],
                lambda v: Fraction(v, D))


class DeltaOf(MvAlgebra):
    """Unit interval of Z lex G: payloads (0, g) with g >= 0 and (1, g) with g <= 0."""

    tag = "delta"

    def __init__(self, group: LGroup):
        set_field(self, "group", group)

    def __repr__(self) -> str:
        return "Chang" if self.group == Z else f"DeltaOf({self.group!r})"

    def __str__(self) -> str:  # Chang's algebra is the one alias, here and in to_json
        return "chang" if self.group == Z else f"delta:{self.group}"

    def to_json(self) -> dict:
        if self.group == Z:
            return {"kind": "chang"}
        return {"kind": self.tag, "group": self.group.to_json()}

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

    def build_int_record(self, bound: int | None) -> tuple:
        """For G ⊆ Q, (bit, g) ↦ (bit, g·D) on Chang's record, D the lcm of the
        listing's offset denominators; other groups keep the payload record."""
        if not isinstance(self.group, QSubgroup):
            return super().build_int_record(bound)
        pool = self.enumerate(bound)
        D = math.lcm(*[g.denominator for _, g in pool])
        return (payload_ops(CHANG), [(b, g.numerator * (D // g.denominator)) for b, g in pool],
                lambda v: (v[0], Fraction(v[1], D)))

    def enumerate(self, bound: int | None) -> list:
        """Ascending: (0, g) over the upper half of the group's fragment, its cone,
        then (1, g) over the lower half, up to 0; no offset is negated."""
        fragment = self.group.enumerate(bound)
        mid = len(fragment) // 2
        return [(0, g) for g in fragment[mid:]] + [(1, g) for g in fragment[:mid + 1]]

    def is_infinitesimal(self, p) -> bool:
        return p[0] == 0

    def payload_to_json(self, p) -> Any:
        return [p[0], self.group.payload_to_json(p[1])]

    def payload_from_json(self, data) -> tuple:
        if not isinstance(data, list) or len(data) != 2:
            raise UsageError(f"expected a [bit, offset] pair, got {data!r}")
        return (parse_integer(data[0], "bit"), self.group.payload_from_json(data[1]))


class ProductAlgebra(MvAlgebra):
    """Componentwise operations; payloads are tuples, enumerated lexicographically."""

    tag = "product"

    def __init__(self, factors: tuple):
        if not isinstance(factors, tuple) or not factors:
            raise DomainError("a product algebra needs at least one factor")
        for f in factors:
            _descriptor(f)
        set_field(self, "factors", factors)

    def __repr__(self) -> str:
        return "Product(" + ", ".join(repr(f) for f in self.factors) + ")"

    def __str__(self) -> str:  # a product factor as its JSON, which prod: reads back
        return "prod:" + ",".join(dumps(f.to_json()) if f.tag == self.tag
                                  else str(f) for f in self.factors)

    def to_json(self) -> dict:
        return {"kind": self.tag, "factors": [f.to_json() for f in self.factors]}

    def coerce(self, payload) -> tuple:
        if not isinstance(payload, tuple) or len(payload) != len(self.factors):
            raise StructuralError(f"{payload!r} does not match the product arity")
        return tuple(f.coerce(p) for f, p in zip(self.factors, payload))

    def build_ops(self) -> PayloadOps:
        return _componentwise([payload_ops(f) for f in self.factors])

    def build_int_record(self, bound: int | None) -> tuple:
        """The leaves' int records side by side: values are the tuples of theirs,
        decoded leaf by leaf and regrouped by the product tree."""
        records = {f: f.build_int_record(bound) for f in dict.fromkeys(leaf_factors(self))}
        opss, valuess, decoders = zip(*[records[f] for f in leaf_factors(self)])

        def regroup(A, leaves):  # A's payload from an iterator over its leaves' payloads
            return tuple([regroup(f, leaves) if f.tag == self.tag else next(leaves)
                          for f in A.factors])

        return (_componentwise(opss), _Tuples(valuess),
                lambda v: regroup(self, iter([d(c) for d, c in zip(decoders, v)])))

    def carrier_size(self) -> int | None:
        sizes = [f.carrier_size() for f in self.factors]
        return None if None in sizes else math.prod(sizes)

    def is_infinitesimal(self, p) -> bool:
        return all(f.is_infinitesimal(c) for f, c in zip(self.factors, p))

    def payload_to_json(self, p) -> Any:
        return [f.payload_to_json(c) for f, c in zip(self.factors, p)]

    def payload_from_json(self, data) -> tuple:
        if not isinstance(data, list) or len(data) != len(self.factors):
            raise UsageError(f"payload arity mismatch for {self}: {data!r}")
        return tuple(f.payload_from_json(c) for f, c in zip(self.factors, data))


class _Tuples:
    """The tuples of ``itertools.product(*parts)``, listing none: tuple i has the
    digit i // weight % size in each part, by its (weight, size) in ``shape``."""

    def __init__(self, parts):
        sizes = [len(p) for p in parts]
        self.parts, self.shape = parts, [(math.prod(sizes[i + 1:]), s) for i, s in enumerate(sizes)]
        self.indices = range(self.shape[0][0] * self.shape[0][1])

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        i = self.indices[i]  # a list's IndexError and negative indices
        return tuple([p[i // w % s] for p, (w, s) in zip(self.parts, self.shape)])

    def __iter__(self):
        return itertools.product(*self.parts)

    def tuples(self, k: int):
        """``itertools.product(self, repeat=k)``, listing none of these tuples: the
        product of the parts repeated k times, each of its tuples cut in k."""
        m = len(self.parts)
        cuts = [slice(i, i + m) for i in range(0, m * k, m)]
        return (tuple([flat[c] for c in cuts]) for flat in itertools.product(*self.parts * k))


def _componentwise(parts) -> PayloadOps:
    """The product of the records ``parts``, on tuples with one coordinate each."""
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


CHANG = DeltaOf(Z)


def product_algebra(*factors: MvAlgebra) -> ProductAlgebra:
    return ProductAlgebra(tuple(factors))


def _descriptor(A) -> MvAlgebra:
    if not isinstance(A, MvAlgebra):
        raise StructuralError(f"unknown algebra descriptor {A!r}")
    return A


class MvElement(Value):
    def __init__(self, algebra: MvAlgebra, payload: Any):
        set_field(self, "algebra", algebra)
        set_field(self, "payload", payload)

    def __repr__(self) -> str:
        return f"<{element_str(self)} in {self.algebra!r}>"


def element(A: MvAlgebra, payload: Any) -> MvElement:
    """Validate and canonicalize a payload, returning an element of A."""
    return MvElement(A, _descriptor(A).coerce(payload))


@functools.lru_cache(maxsize=64)
def payload_ops(A: MvAlgebra) -> PayloadOps:
    """The ops record of a descriptor, built in O(number of factors) and cached."""
    return _descriptor(A).build_ops()


def int_record(A: MvAlgebra, bound: int | None = None) -> tuple[PayloadOps, Any, Callable]:
    """The record a walk over ``enumerate_payloads(A, bound)`` runs on, the
    listing's values on it in the same order, and the decoder of any value of
    the record, listed or not, to its payload; built by the kind
    (``build_int_record``), uncached."""
    return _bounded(A, bound).build_int_record(bound)


def sized_record(A: MvAlgebra, bound: int | None, limit: int) -> tuple | None:
    """``int_record(A, bound)``, or None when it has more than ``limit`` values.  A
    finite carrier is sized before its record is built (a product's ``_Tuples``
    takes ``len`` of each leaf's values, which fails past ``sys.maxsize``), a
    fragment after, on its ``record_shape``."""
    if (carrier_size(A) or 0) <= limit:
        record = int_record(A, bound)
        if math.prod([size for _, size in record_shape(A, record[1])]) <= limit:
            return record
    return None


def record_shape(A: MvAlgebra, values) -> list[tuple[int, int]]:
    """The (weight, size) of each leaf of ``values``, A's int record's: a product's
    ``_Tuples.shape``, or a leaf's (1, its carrier size or its fragment's length)."""
    return values.shape if A.tag == ProductAlgebra.tag else [(1, carrier_size(A) or len(values))]


def zero(A: MvAlgebra) -> MvElement:
    return MvElement(A, payload_ops(A).zero)


def one(A: MvAlgebra) -> MvElement:
    return MvElement(A, payload_ops(A).one)


def _same_algebra(x: MvElement, y: MvElement) -> MvAlgebra:
    if x.algebra != y.algebra:
        raise StructuralError(f"descriptor mismatch: {x.algebra} vs {y.algebra}")
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
    return _bounded(A, bound).enumerate(bound)


def _bounded(A: MvAlgebra, bound: int | None) -> MvAlgebra:
    """A, once a bound >= 1 is given if its carrier is infinite."""
    if _descriptor(A).carrier_size() is None:
        if bound is None:
            raise DomainError(f"enumerating {A} requires a bound")
        if bound < 1:
            raise DomainError("bound must be >= 1")
    return A


def enumerate_elements(A: MvAlgebra, bound: int | None = None) -> list[MvElement]:
    """The elements of ``enumerate_payloads(A, bound)``, in the same order."""
    return [MvElement(A, p) for p in enumerate_payloads(A, bound)]


def sample_elements(A: MvAlgebra, count: int, seed: int,
                    bound: int = DEFAULT_SAMPLE_BOUND) -> list[MvElement]:
    """``count`` seeded draws with replacement from the (bounded) carrier's
    listing: the draws of ``_sampled``, decoded."""
    _, source, decode = _sampled(A, bound, count, seed)
    return [MvElement(A, decode(v)) for (v,) in source.tuples(1)]


def payload_tuples(A: MvAlgebra, bound: int | None = None) -> Instances:
    """The instances of a walk on payloads: ``tuples(arity)`` yields every
    arity-tuple of the (bound-limited) carrier's listing in canonical order.
    The mode is bounded when ``bound`` is set, and exhaustive otherwise."""
    mode = _walk_mode(A, bound)
    return Instances.over(enumerate_payloads(A, bound), mode, bound)


def _walk_mode(A: MvAlgebra, bound: int | None) -> str:
    """The mode of a walk over every tuple: bounded when ``bound`` is set, else
    exhaustive, which needs a finite carrier."""
    if bound is None and carrier_size(A) is None:
        raise ModeError(f"{A} has an infinite carrier; use a bounded or sampled check")
    return "exhaustive" if bound is None else "bounded"


def _sampled(A: MvAlgebra, bound: int | None, samples: int,
             seed: int) -> tuple[PayloadOps, Instances, Callable]:
    """The one sampler: the record and decoder of ``int_record(A, bound)`` and
    ``samples`` seeded draws with replacement of its values (the bound only
    applies to infinite carriers).  ``rng.choice`` picks an index from the
    length alone, and the values have the listing's length and order, so these
    are the listing's draws; a finite chain's ``range`` and a product's
    ``_Tuples`` are never listed."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    record = sized_record(A, bound, sys.maxsize)  # rng.choice takes a length as a C ssize_t
    if record is None:
        raise DomainError(f"cannot draw from {A}: more than {sys.maxsize} elements")
    ops, values, decode = record
    rng = random.Random(seed)
    return ops, Instances(lambda arity: (tuple([rng.choice(values) for _ in range(arity)])
                                         for _ in range(samples)), "sampled", bound), decode


def check_identities(A: MvAlgebra, laws: list[Law], bound: int | None = None,
                     samples: int | None = None, seed: int = 0) -> CheckReport:
    """Check ``laws`` over the tuples of ``payload_tuples(A, bound)`` or, with
    ``samples`` set, the draws of ``_sampled``, deciding a valid walk over a
    product factor by factor.  Each law is compiled on the record walked: the
    payload record of a leaf walked in full, kept by ``_compiled``, else an int record.

    Every ``Law`` is an identity or a quasi-identity (a Horn sentence: premises
    that are equations, one equation as conclusion).  Such a law holds on all
    tuples of a product of pools iff it holds on all tuples of each pool
    (Birkhoff: varieties and quasivarieties are closed under products), and
    the pool of a product, bounded or not, is the product of its factors'
    pools.  So when A is a product walked in full, the laws are first checked
    on the int record of each distinct leaf of the product tree once, with the
    same bound, decoding nothing.  If all pass, the report is the one the
    product walk would give, without walking it: the same verdict, mode and
    details, and ``checked`` = the sum over the laws of ``source.count(arity)``.
    If one fails, the laws are compiled on the product's int record and walked
    over its values' k-tuples (``_Tuples.tuples``), so the first counterexample
    in canonical order and its ``checked`` are the walk's.

    A sampled source is always walked, on ints: the laws are compiled on the
    record of ``_sampled``.  On ints, only a counterexample's instance is decoded.
    """
    if samples is not None:
        ops, source, decode = _sampled(A, bound, samples, seed)
        return _decoded(check_laws([law.on(ops) for law in laws], source), decode)
    if not isinstance(A, ProductAlgebra):
        return check_laws(_compiled(tuple(laws), payload_ops(A)), payload_tuples(A, bound))
    mode = _walk_mode(A, bound)
    record = sized_record(A, bound, sys.maxsize)  # len takes a length as a C ssize_t
    if record is None:
        raise DomainError(f"cannot check {A}: more than {sys.maxsize} elements")
    ops, values, decode = record
    source = Instances(values.tuples, mode, bound, len(values))
    for f in dict.fromkeys(leaf_factors(A)):
        leaf_ops, leaf_values, _ = int_record(f, bound)
        if not check_laws([law.on(leaf_ops) for law in laws], Instances.over(leaf_values)).ok:
            return _decoded(check_laws([law.on(ops) for law in laws], source), decode)
    return source.clean(sum(source.count(len(law.slots)) for law in laws))


@functools.lru_cache(maxsize=64)
def _compiled(laws: tuple[Law, ...], ops: PayloadOps) -> tuple:
    """``laws`` compiled on a record of the ``payload_ops`` cache, once per descriptor."""
    return tuple([law.on(ops) for law in laws])


def _decoded(report: CheckReport, decode: Callable) -> CheckReport:
    """The report of a walk on an int record, its counterexample's instance decoded."""
    return report.shaped(lambda name, instance: (name, tuple([decode(v) for v in instance])))


def leaf_factors(A: MvAlgebra) -> list:
    """The factors of A that are not products, at any depth, in order; [A] when
    A is not a product.  A's enumeration is the lexicographic product of theirs."""
    return [f for g in A.factors for f in leaf_factors(g)] if A.tag == ProductAlgebra.tag else [A]


# ---------------------------------------------------------------------------
# MV axiom suite.

_MV_AXIOMS = [Law(name, parse_equation(text)) for name, text in (
    ("oplus_associative", "(x (+) y) (+) z = x (+) (y (+) z)"),
    ("oplus_commutative", "x (+) y = y (+) x"),
    ("zero_neutral", "x (+) 0 = x"),
    ("one_absorbing", "x (+) 1 = 1"),
    ("neg_involutive", "~~x = x"),
    ("neg_zero_is_one", "~0 = 1"),
    ("lukasiewicz_exchange", "~(~x (+) y) (+) y = ~(~y (+) x) (+) x"),
)]


def check_mv_axioms(A: MvAlgebra, mode: str = "exhaustive", *,
                    samples: int = 1000, seed: int = 0,
                    bound: int = DEFAULT_SAMPLE_BOUND) -> CheckReport:
    """Verify the MV axioms over all tuples (exhaustive) or seeded samples.

    Exhaustive mode requires a finite carrier.  The first counterexample in
    canonical enumeration order is reported.
    """
    if mode not in ("exhaustive", "sampled"):
        raise DomainError(f"unknown mode {mode!r}")
    sampled = (bound, samples, seed) if mode == "sampled" else ()
    return check_identities(A, _MV_AXIOMS, *sampled).shaped(
        lambda name, instance: axiom_witness(name, [MvElement(A, p) for p in instance]))


def check_axioms_over(elements: Iterable, oplus: Callable, neg: Callable,
                      zero_el, one_el) -> CheckReport:
    """Run the MV axiom suite against explicitly supplied operations.

    Every tuple of ``elements`` is tried.  Exercised by tests as a negative
    control: feed a corrupted operation table and the counterexample must
    surface.
    """
    ops = PayloadOps(oplus, neg, zero_el, one_el, None, None, None)
    return check_laws([law.on(ops) for law in _MV_AXIOMS],
                      Instances.over(elements)).shaped(axiom_witness)
