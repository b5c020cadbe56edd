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
its order ≤, ∨ and ∧.  The record of chains and the interval (``_chain_ops``)
states ⊙, ⊖ and → in closed form as truncated sums, Δ(G)'s is Γ of the record
of Z lex G at (1, 0) with the three derived from ⊕ and ¬, and a product takes
its factors' own.  Every shipped kind is an MV-chain or a finite product of
MV-chains, so each knows its order natively.  A record is built on first use
in O(number of factors), with no tables, and kept in a bounded cache keyed on
the frozen descriptor.  The ``mv_*`` functions unwrap MvElements, call the
record and wrap the result; every check streams its laws (``report.Law``, the
MV axioms one table of them) through pipelines on the record it runs on
(``report.check_laws``), full and sampled alike, and builds MvElements only
for witnesses.

A walk over a listing (θ, θ*, the Boolean part and ``export``), every sampled
check and every full check but those of a chain or the interval run on
``int_record(A, bound)``, one ``IntRecord``: the record, the listing's values
on it, a decoder of any value back to its payload, each leaf's (weight, size)
and each distinct leaf's record.  Each kind builds its own
(``build_int_record``), sized by its kind, never by ``len`` of its values.
Every listing of a carrier or fragment, ``enumerate_payloads`` and the
Bisemiring listings of θ, θ* and the Boolean part, decodes the values of that
record sized first (``walk_record``), so a carrier past ``sys.maxsize`` is
refused before anything is listed.  Every shipped leaf is Γ of an ordered
group with a strong unit, and its int record is ``_chain_ops(0, top)`` on
ints: L_n on ``range(n)``, i read as i/(n−1); the interval's Farey fragment
as p·D, D the lcm of its denominators; Δ(G)'s as bit·T + φ(g), φ the group's
``scaled``.  A product's int record is one flat
record over its leaves (``leaf_factors``), componentwise
(``_componentwise``): its values are the tuples of theirs, a sequence that
builds only the tuples it is asked for (``_Tuples``), its shape the product
of theirs, and its decoder regroups the leaves' payloads by the product tree.
A sampled check reads its instances from one lazy stream of draws on the
values (``seeded_draws``), exactly the values that the seeded ``rng.choice``
picks, the same indices as on the listing; ``qpoints.check_flatness`` draws
its pairs and triples from such streams too.  A full check (exhaustive or
bounded) decides on each distinct leaf's record and walks a product's
k-tuples (``_Tuples.tuples``) only when a leaf fails; a chain or the interval
is one leaf, walked on its payloads.  All decode only a counterexample's
instance, and refuse a record of more than ``sys.maxsize`` values
(``walk_record``).

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
from typing import Any, Callable, Iterator

from .errors import DomainError, ModeError, StructuralError, UsageError
from .groups import TRIVIAL, LexZG, LGroup, Z, group_coerce, require_members, unit_above
from .rationals import dumps, parse_integer, parse_rational, rational_str, shown
from .report import CheckReport, Instances, Law, axiom_witness, check_laws
from .terms import parse_equation
from .value import Value, set_field

DEFAULT_SAMPLE_BOUND = 100

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PayloadOps:
    """The operations of one descriptor on raw payloads.

    A kind supplies ⊕, ¬, 0 and 1 and its lattice order: the test ≤ and the
    join ∨ and meet ∧ it induces.  A kind may also state ⊙, ⊖ and → in closed
    form, as ``_chain_ops`` does; a record given none of them (Δ(G)'s, or a
    test's) derives them here from ⊕ and ¬, exactly as the MV-algebra
    definitions read: x ⊙ y = ¬(¬x ⊕ ¬y), x ⊖ y = x ⊙ ¬y and x → y = ¬x ⊕ y.
    None of them checks its arguments.  ``check`` is the boundary check of one
    payload (it raises StructuralError when a Δ(G) offset lies outside G), or
    None when the kind needs none.  The int records of ``int_record`` are ones
    too, on ints or tuples of them.
    """

    __slots__ = ("oplus", "neg", "zero", "one", "check", "odot", "ominus", "implies",
                 "join", "meet", "leq")

    def __init__(self, oplus: Callable, neg: Callable, zero_p, one_p,
                 leq: Callable, join: Callable, meet: Callable,
                 check: Callable | None = None, *, odot: Callable | None = None,
                 ominus: Callable | None = None, implies: Callable | None = None):
        self.oplus, self.neg, self.zero, self.one = oplus, neg, zero_p, one_p
        self.leq, self.join, self.meet = leq, join, meet
        self.check = check
        self.odot = odot = odot or (lambda p, q: neg(oplus(neg(p), neg(q))))
        self.ominus = ominus or (lambda p, q: odot(p, neg(q)))
        self.implies = implies or (lambda p, q: oplus(neg(p), q))

    def checked(self, *payloads) -> PayloadOps:
        """This record, once each payload has passed the boundary check."""
        if self.check is not None:
            for p in payloads:
                self.check(p)
        return self


def _chain_ops(bottom, top) -> PayloadOps:
    """Γ of the numbers with unit ``top`` on [bottom, top], ``bottom`` their 0:
    p ⊕ q = min(p + q, top), ¬p = top − p, and in closed form p ⊙ q =
    max(p + q − top, bottom), p ⊖ q = max(p − q, bottom) and p → q =
    min(top − p + q, top), ordered as numbers (Cignoli, D'Ottaviano and Mundici,
    *Algebraic Foundations of Many-valued Reasoning*, 2000, ch. 1)."""
    def oplus(p, q):
        s = p + q
        return s if s < top else top

    return PayloadOps(oplus, lambda p: top - p, bottom, top, operator.le, max, min,
                      odot=lambda p, q: max(p + q - top, bottom),
                      ominus=lambda p, q: max(p - q, bottom),
                      implies=lambda p, q: min(top - p + q, top))


_UNIT_OPS = _chain_ops(_ZERO, _ONE)


class MvAlgebra(Value):
    """Base of the MV descriptors.  A kind supplies its ``tag`` and ``__str__`` (its
    JSON is the tag alone unless it overrides ``to_json``), ``coerce(payload)``
    (validated in full), ``build_ops()`` (its record; callers use ``payload_ops``),
    ``carrier_size()`` (None, the default, when infinite),
    ``is_infinitesimal(payload)``, ``payload_to_json`` / ``payload_from_json``
    and ``build_int_record(bound)``, its piece of ``int_record``.  ``enumerate``
    lists the carrier or bounded fragment, in canonical order, by decoding the
    values of that record sized by ``walk_record``."""

    def to_json(self) -> dict:
        return {"kind": self.tag}

    def carrier_size(self) -> int | None:
        return None

    def enumerate(self, bound: int | None) -> list:
        record = walk_record(self, bound, "list")
        return list(map(record.decode, record.values))


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

    def build_int_record(self, bound) -> IntRecord:
        """L_n on ``range(n)``, i decoded as Fraction(i, n − 1); no listing is built."""
        top = self.size - 1
        return IntRecord(_chain_ops(0, top), range(self.size), lambda i: Fraction(i, top),
                         [(1, self.size)])


class RationalInterval(_Unit):
    """[0, 1] ∩ Q with x ⊕ y = min(x + y, 1) and ¬x = 1 - x."""

    tag = "rational_interval"

    def __repr__(self) -> str:
        return "RationalInterval"

    def __str__(self) -> str:
        return "interval"

    def build_int_record(self, bound: int) -> IntRecord:
        """The Farey sequence of order ``bound``, p as p·D, D = lcm(1..bound)."""
        D = math.lcm(*range(1, bound + 1))
        values = sorted({n * (D // d) for d in range(1, bound + 1) for n in range(d + 1)})
        return IntRecord(_chain_ops(0, D), values, lambda v: Fraction(v, D), [(1, len(values))])


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
            raise StructuralError(f"{shown(payload)} is not a (bit, offset) pair")
        bit, off = payload
        off = group_coerce(self.group, off)
        r = self.group.ops
        if bit == 0 and not r.leq(r.zero, off):
            raise StructuralError(f"offset of {shown((bit, off))} must be >= 0")
        if bit == 1 and not r.leq(off, r.zero):
            raise StructuralError(f"offset of {shown((bit, off))} must be <= 0")
        return (bit, off)

    def build_ops(self) -> PayloadOps:
        """Δ(G) = Γ(Z lex G, u) at u = (1, 0) (A. Di Nola and A. Lettieri,
        Studia Logica 53, 1994), on the record of Z lex G: x ⊕ y = (x + y) ∧ u
        and ¬x = u − x, ordered as Z lex G, and ⊙, ⊖ and → derived.  Walks run
        on the int record (``build_int_record``); this record serves the
        element-level calls, ``mv_*``, ``logic.evaluate`` and θ membership."""
        G, lex = self.group, LexZG(self.group).ops
        add, meet, u = lex.add, lex.meet, (1, G.ops.zero)

        def check(p):
            require_members(G, p[1])

        return PayloadOps(lambda p, q: meet(add(p, q), u), lambda p: add(u, lex.neg(p)),
                          lex.zero, u, lex.leq, lex.join, meet, check)

    def carrier_size(self) -> int | None:
        return 2 if self.group == TRIVIAL else None

    def build_int_record(self, bound: int | None) -> IntRecord:
        """ψ(bit, g) = bit·T + φ(g) on ``_chain_ops(0, T)``, φ the group's
        ``scaled``, T = (4B + 1)·2⁶⁴ (``unit_above``) and B the fragment's
        largest |φ(g)|: (0, g) over its cone, then (1, g) up to (1, 0) = T.

        ψ is additive, so the walk is exact where ψ is injective and monotone.
        Every term is piecewise Σcᵢxᵢ + c₀u with Σ|cᵢ| ≤ L, L its number of
        variable occurrences, and so are the untruncated sums inside ⊕ and ⊙
        (induction over the connectives).  So a value reached is some (b, g)
        with |φ(g)| ≤ L·B < T/4 unless L ≥ 2⁶⁴, 2⁶⁴ bytes of input: there ψ is
        injective, orders as Z lex G does and is undone by splitting at T/2.
        A lex group's S is this argument one level down.  T is fixed from the
        fragment alone because the record also serves export and θ."""
        ints, decode = self.group.scaled(bound)
        mid, T = len(ints) // 2, unit_above(ints[-1])
        return IntRecord(_chain_ops(0, T), ints[mid:] + [T + g for g in ints[:mid + 1]],
                         lambda v: (0, decode(v)) if 2 * v < T else (1, decode(v - T)),
                         [(1, len(ints) + 1)])

    def is_infinitesimal(self, p) -> bool:
        return p[0] == 0

    def payload_to_json(self, p) -> Any:
        return [p[0], self.group.payload_to_json(p[1])]

    def payload_from_json(self, data) -> tuple:
        if not isinstance(data, list) or len(data) != 2:
            raise UsageError(f"expected a [bit, offset] pair, got {shown(data)}")
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

    def build_int_record(self, bound: int | None) -> IntRecord:
        """The leaves' int records side by side: values are the tuples of theirs,
        decoded leaf by leaf and regrouped by the product tree, and the shape
        is the product of their shapes, the first leaf the heaviest."""
        records = {f: f.build_int_record(bound) for f in dict.fromkeys(leaf_factors(self))}
        parts = [records[f] for f in leaf_factors(self)]
        sizes = [size for part in parts for _, size in part.shape]
        shape = [(math.prod(sizes[i + 1:]), size) for i, size in enumerate(sizes)]
        opss, valuess, decoders = zip(*[(part.ops, part.values, part.decode) for part in parts])
        return IntRecord(_componentwise(opss), _Tuples(valuess, shape),
                         lambda v: _regroup(self, iter([d(c) for d, c in zip(decoders, v)])),
                         shape, tuple(records.values()))

    def carrier_size(self) -> int | None:
        sizes = [f.carrier_size() for f in self.factors]
        return None if None in sizes else math.prod(sizes)

    def is_infinitesimal(self, p) -> bool:
        return all(f.is_infinitesimal(c) for f, c in zip(self.factors, p))

    def payload_to_json(self, p) -> Any:
        return [f.payload_to_json(c) for f, c in zip(self.factors, p)]

    def payload_from_json(self, data) -> tuple:
        if not isinstance(data, list) or len(data) != len(self.factors):
            raise UsageError(f"payload arity mismatch for {self}: {shown(data)}")
        return tuple(f.payload_from_json(c) for f, c in zip(self.factors, data))


def _regroup(A: ProductAlgebra, leaves) -> tuple:
    """A's payload from an iterator over its leaves' payloads, in order."""
    return tuple([_regroup(f, leaves) if f.tag == A.tag else next(leaves) for f in A.factors])


class IntRecord:
    """The record of ``int_record``: ``ops`` (a leaf's ``_chain_ops(0, top)``, a
    product's its leaves'), the listing's ``values`` on it, ints or tuples of
    them, ``decode`` from any value to its payload, ``shape``, each leaf's
    (weight, size), and ``leaves``, each distinct leaf's record.  A leaf's one
    leaf is itself, made on each read: held, it would be a cycle keeping the
    listing alive until the garbage collector runs.  A plain class, as
    ``Value``'s repr would recurse."""

    __slots__ = ("ops", "values", "decode", "shape", "_leaves")
    leaves = property(lambda self: self._leaves or (self,))

    def __init__(self, ops: PayloadOps, values, decode: Callable, shape: list, leaves=None):
        self.ops, self.values, self.decode = ops, values, decode
        self.shape, self._leaves = shape, leaves


class _Tuples:
    """The tuples of ``itertools.product(*parts)``, listing none: tuple i has the
    digit i // weight % size in each part, by its (weight, size) in ``shape``."""

    def __init__(self, parts, shape):
        self.parts, self.shape = parts, shape
        self.indices = range(shape[0][0] * shape[0][1])

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
    """The product of the records ``parts``, on tuples with one coordinate each:
    every operation is the parts' own, ⊙, ⊖ and → included."""
    def each(name):  # the binary operation name of the parts, componentwise
        fs = tuple([getattr(o, name) for o in parts])
        return lambda p, q: tuple([f(a, b) for f, a, b in zip(fs, p, q)])

    negs, leqs = tuple(o.neg for o in parts), tuple(o.leq for o in parts)
    checks = tuple((i, o.check) for i, o in enumerate(parts) if o.check is not None)

    def check(p):
        for i, c in checks:
            c(p[i])

    return PayloadOps(
        each("oplus"), lambda p: tuple([f(a) for f, a in zip(negs, p)]),
        tuple(o.zero for o in parts), tuple(o.one for o in parts),
        lambda p, q: all([f(a, b) for f, a, b in zip(leqs, p, q)]),
        each("join"), each("meet"), check if checks else None,
        odot=each("odot"), ominus=each("ominus"), implies=each("implies"))


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


def int_record(A: MvAlgebra, bound: int | None = None) -> IntRecord:
    """The ``IntRecord`` a walk over ``enumerate_payloads(A, bound)`` runs on,
    its values the listing's in order and its decoder defined on any value of
    the record, listed or not; built by the kind (``build_int_record``),
    uncached.  A chain's values are its ``range`` and a product's ``_Tuples``.
    An infinite carrier needs a bound >= 1."""
    if _descriptor(A).carrier_size() is None:
        if bound is None:
            raise DomainError(f"enumerating {A} requires a bound")
        if bound < 1:
            raise DomainError("bound must be >= 1")
    return A.build_int_record(bound)


def sized_record(A: MvAlgebra, bound: int | None, limit: int) -> IntRecord | None:
    """``int_record(A, bound)``, or None when it has more than ``limit`` values,
    sized on its ``shape`` alone: nothing is listed, and no ``len`` is taken."""
    record = int_record(A, bound)
    return record if math.prod([size for _, size in record.shape]) <= limit else None


def walk_record(A: MvAlgebra, bound: int | None, doing: str) -> IntRecord:
    """``int_record(A, bound)``, refused with a DomainError naming what it was
    for (``doing``) past ``sys.maxsize`` values, the most that ``len``,
    ``itertools.product`` and ``rng.choice`` take."""
    record = sized_record(A, bound, sys.maxsize)
    if record is None:
        raise DomainError(f"cannot {doing} {A}: more than {sys.maxsize} elements")
    return record


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
    """The payload as shorthand input reads it (``rationals.shown``): (a,b) for
    pairs and tuples, "p/q" for rationals."""
    return shown(x.payload)


# ---------------------------------------------------------------------------
# Carriers: size, canonical enumeration, deterministic sampling.

def carrier_size(A: MvAlgebra) -> int | None:
    """Number of elements, or None when the carrier is infinite."""
    return _descriptor(A).carrier_size()


def enumerate_payloads(A: MvAlgebra, bound: int | None = None) -> list:
    """Canonical enumeration: the full carrier when finite (any bound is ignored),
    else the fragment of a bound >= 1, decoded from ``int_record(A, bound)``; a
    DomainError past ``sys.maxsize`` elements (``walk_record``)."""
    return _descriptor(A).enumerate(bound)


def enumerate_elements(A: MvAlgebra, bound: int | None = None) -> list[MvElement]:
    """The elements of ``enumerate_payloads(A, bound)``, in the same order."""
    return [MvElement(A, p) for p in enumerate_payloads(A, bound)]


def sample_elements(A: MvAlgebra, count: int, seed: int,
                    bound: int = DEFAULT_SAMPLE_BOUND) -> list[MvElement]:
    """``count`` seeded draws with replacement from the (bounded) carrier's
    listing: the first ``count`` draws of ``_sampled``, decoded."""
    record, draws = _sampled(A, bound, count, seed)
    return [MvElement(A, record.decode(v)) for v in itertools.islice(draws, count)]


def _sampled(A: MvAlgebra, bound: int | None, samples: int, seed: int) -> tuple:
    """The sampler of MV checks: ``int_record(A, bound)`` and the lazy stream
    of seeded draws with replacement of its values (the bound only applies to
    infinite carriers), refused when ``samples`` is below 1.  They are the
    listing's draws, as ``seeded_draws`` says; a finite chain's ``range`` and a
    product's ``_Tuples`` are never listed."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    record = walk_record(A, bound, "draw from")
    return record, seeded_draws(record.values, random.Random(seed))


def seeded_draws(values, rng: random.Random) -> Iterator:
    """The values that successive calls of ``rng.choice(values)`` return, as
    one lazy iterator.  On Python 3.10 to 3.13 a choice is ``values[r]``, r the
    first of ``getrandbits(k)``, k the bit length of n = ``len(values)``, that
    is below n; so the draws are the values at the raw draws below n, in order,
    and a raw draw is taken only when the next value is asked for: after m
    values the generator is where m ``choice`` calls leave it.  ``choice``
    picks an index from the length alone, so values with a listing's length
    and order give its draws.  Streams on one generator interleave as the
    calls would: ``qpoints.check_flatness`` reads its pairs and triples from
    one stream of its pool and one of ``range(1, 16)`` (``randrange(1, 16)`` is
    ``choice(range(1, 16))``); ``_sampled`` is the other caller."""
    n = len(values)
    raw = map(rng.getrandbits, itertools.repeat(n.bit_length()))
    return map(values.__getitem__, filter(n.__gt__, raw))


def check_identities(A: MvAlgebra, laws: list[Law], bound: int | None = None,
                     samples: int | None = None, seed: int = 0) -> CheckReport:
    """Check ``laws`` over every tuple of the (bound-limited) carrier's listing
    or, with ``samples`` set, on the draws of ``_sampled``: each law of k
    variables takes its ``samples`` instances as the next k·samples draws of
    the one stream, cut into successive k-tuples, so a check holds O(k) draws
    and reads none past its first counterexample.  Each walk streams the laws
    through the one law engine (``report.check_laws``) on one record, and only
    a counterexample's instance is decoded.

    A full walk (exhaustive, or bounded by ``bound``) runs on
    ``walk_record(A, bound, "check")``, sized before anything is listed; a
    chain or the interval walks its values decoded, on the payload record.
    The laws are checked on each of its distinct ``leaves`` in turn, over
    every tuple of the leaf's values; a one-leaf carrier is its own leaf.

    Every ``Law`` is an identity or a quasi-identity (a Horn sentence per
    equation of its conclusion, each under the premises).  Such a law holds on
    all tuples of a product of pools iff it holds on all tuples of each pool
    (Birkhoff: varieties and quasivarieties are closed under products), and
    the pool of a product, bounded or not, is the product of its leaves'
    pools.  So if every leaf passes, a product's report is the one its walk
    would give, without walking it: the same verdict, mode and details, and
    ``checked`` = the sum over the laws of ``source.count(arity)``.  If a leaf
    fails, the laws are run on the product's record over its values' k-tuples
    (``_Tuples.tuples``), so the first counterexample in canonical order and
    its ``checked`` are the walk's.
    """
    if samples is not None:
        record, draws = _sampled(A, bound, samples, seed)
        drawn = Instances(lambda k: itertools.islice(zip(*[draws] * k), samples),
                          lambda k: samples, "sampled")
        return _decoded(check_laws(laws, drawn, record.ops), record.decode)
    if bound is None and carrier_size(A) is None:
        raise ModeError(f"{A} has an infinite carrier; use a bounded or sampled check")
    mode = "exhaustive" if bound is None else "bounded"
    record = walk_record(A, bound, "check")
    # Chains and the interval walk payloads: on ints their walks run so much faster
    # that perfbench's harness, which keeps every finished job, grows past its
    # peak-RSS bound (ROADMAP items 1 and 3).
    if A.tag in (FiniteChain.tag, RationalInterval.tag):
        record = IntRecord(payload_ops(A), list(map(record.decode, record.values)),
                           lambda p: p, record.shape)
    for leaf in record.leaves:
        report = check_laws(laws, Instances.over(leaf.values, mode, bound), leaf.ops)
        if leaf is record:
            return _decoded(report, leaf.decode)
        if not report.ok:
            break
    source = Instances(record.values.tuples, len(record.values).__pow__, mode, bound)
    if report.ok:
        return source.clean(sum(source.count(len(law.slots)) for law in laws))
    return _decoded(check_laws(laws, source, record.ops), record.decode)


def _decoded(report: CheckReport, decode: Callable) -> CheckReport:
    """The report of a walk on an int record, its counterexample's instance decoded."""
    return report.shaped(lambda name, instance: (name, tuple([decode(v) for v in instance])))


def leaf_factors(A: MvAlgebra) -> list:
    """The factors of A that are not products, at any depth, in order; [A] when
    A is not a product.  A's enumeration is the lexicographic product of theirs."""
    return [f for g in A.factors for f in leaf_factors(g)] if A.tag == ProductAlgebra.tag else [A]


# ---------------------------------------------------------------------------
# MV axiom suite.

@functools.cache
def _mv_axioms() -> tuple[Law, ...]:
    """The MV axioms as Laws, parsed on first use."""
    return tuple([Law(name, parse_equation(text)) for name, text in (
        ("oplus_associative", "(x (+) y) (+) z = x (+) (y (+) z)"),
        ("oplus_commutative", "x (+) y = y (+) x"),
        ("zero_neutral", "x (+) 0 = x"),
        ("one_absorbing", "x (+) 1 = 1"),
        ("neg_involutive", "~~x = x"),
        ("neg_zero_is_one", "~0 = 1"),
        ("lukasiewicz_exchange", "~(~x (+) y) (+) y = ~(~y (+) x) (+) x"),
    )])


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
    return check_identities(A, _mv_axioms(), *sampled).shaped(
        lambda name, instance: axiom_witness(name, [MvElement(A, p) for p in instance]))
