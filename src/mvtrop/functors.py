"""The categorical constructions: Γ, Δ, Trop, Detrop, θ, θ*, F, gluing, recognition.

Round trips are structural: detrop(trop(G)) is G, delta_inverse(delta(G)) is G,
and theta_perfect_inverse(theta_perfect(P)) is P, as descriptor equalities.
Γ is representation-aware: it accepts positive integer units over Z (yielding
finite chains) and (1, 0)-shaped units over lexicographic groups (yielding
DeltaOf algebras).  The general inverse via good sequences is out of scope.
"""

from __future__ import annotations

from typing import Any, Callable

from .algebra import (DeltaOf, FiniteChain, MvAlgebra, MvElement,
                      ProductAlgebra, element, enumerate_payloads,
                      int_record, leaf_factors, mv_neg, mv_oplus, one,
                      payload_ops, zero)
from .bisemirings import (TOP, Bisemiring, TopCone, bisemiring_operations,
                          check_closed, closure_laws)
from .errors import (BrokenHomomorphismError, DomainError, MalformedInputError,
                     UnsupportedRepresentationError)
from .groups import (BOTTOM, Integers, LexZG, LGroup, TropOfGroup, group_coerce,
                     group_leq, group_zero)
from .rationals import shown
from .report import COUNTEREXAMPLE, VALID, CheckReport, Instances, check_laws
from .value import Value, replace, set_field


def gamma(G: LGroup, u) -> MvAlgebra:
    """Mundici's interval construction on [0, u] with truncated addition.

    Structurally verified units: any positive integer over Z, and (1, 0) over
    a lexicographic group Z lex G (any other unit of a shipped kind is refused
    rather than guessed at).
    """
    u = group_coerce(G, u)
    zero_g = group_zero(G)
    if group_leq(G, u, zero_g):
        raise DomainError(f"unit must be strictly positive, got {shown(u)}")
    if isinstance(G, Integers):
        return FiniteChain(u + 1)
    if isinstance(G, LexZG):
        if u == (1, group_zero(G.tail)):
            return DeltaOf(G.tail)
        raise DomainError(f"only (1, 0)-shaped strong units are supported, got {shown(u)}")
    raise DomainError(f"no structurally verified strong units for {G}")


def delta(G: LGroup) -> DeltaOf:
    """Δ(G): the perfect algebra on the unit interval of Z lex G; Δ(Z) is Chang."""
    return DeltaOf(G)


def delta_inverse(P: MvAlgebra) -> LGroup:
    if isinstance(P, DeltaOf):
        return P.group
    raise UnsupportedRepresentationError(
        f"{P} was not built by delta; the general inverse is out of scope")


def trop(G: LGroup) -> TropOfGroup:
    """Adjoin -inf to G: the additively idempotent semifield on G."""
    return TropOfGroup(G)


def detrop(S: TropOfGroup) -> LGroup:
    """Delete the zero of the semifield, recovering the ℓ-group."""
    if not isinstance(S, TropOfGroup):
        raise UnsupportedRepresentationError(f"{S} is not a tropical semifield")
    return S.group


def mv_from_semifield(S: TropOfGroup, u) -> MvAlgebra:
    """Interval algebra of a semifield with strong unit: gamma(detrop(S), u)."""
    if u is BOTTOM:
        raise DomainError("the semifield zero is not a strong unit")
    return gamma(detrop(S), u)


# ---------------------------------------------------------------------------
# θ and θ*.

def theta(A: MvAlgebra) -> Bisemiring:
    """θ(A) = {x : x >= 2x²}, as a record-level test over A."""
    def test(ops, p) -> bool:
        sq = ops.odot(p, p)
        return ops.leq(ops.oplus(sq, sq), p)
    return Bisemiring(A, test, label="theta")


def theta_star(A: MvAlgebra) -> Bisemiring:
    """θ*(A) = {x : x <= 2x²}."""
    def test(ops, p) -> bool:
        sq = ops.odot(p, p)
        return ops.leq(p, ops.oplus(sq, sq))
    return Bisemiring(A, test, label="theta_star")


def theta_perfect(P: MvAlgebra) -> TopCone:
    """θ of a perfect algebra as a cone: the radical carries the positive cone,
    and the unit becomes ⊤."""
    return TopCone(_perfect(P, "; theta_perfect is representation-aware").group)


def _perfect(P: MvAlgebra, why: str = "") -> DeltaOf:
    """P, refused unless it is a DeltaOf algebra, the message ending in ``why``."""
    if not isinstance(P, DeltaOf):
        raise UnsupportedRepresentationError(f"{P} is not a DeltaOf algebra{why}")
    return P


def theta_perfect_inverse(T: TopCone) -> DeltaOf:
    return delta(T.base_group)


def perfect_to_cone(x: MvElement):
    """The bijection θ(P) → cone: (0, g) ↦ g and 1 ↦ ⊤."""
    P = _perfect(x.algebra)
    bit, off = x.payload
    if bit == 0:
        return off
    if off == group_zero(P.group):
        return TOP
    raise DomainError(f"{shown(x.payload)} is not in theta of {P}")


def cone_to_perfect(P: DeltaOf, c) -> MvElement:
    if c is TOP:
        return one(P)
    return element(P, (0, c))


def f_equiv(S: TropOfGroup) -> TopCone:
    """F(S) = θ(Δ(Detrop(S))): from semifields straight to cones with a top."""
    return theta_perfect(delta(detrop(S)))


# ---------------------------------------------------------------------------
# Boolean part, gluing, and recognition of θ images.

def boolean_part(A: MvAlgebra, bound: int | None = None) -> list[MvElement]:
    """All idempotent elements of the (bounded) carrier: the elements of the
    Bisemiring they form, listed as every listing is (``Bisemiring.payloads``)."""
    return Bisemiring(A, lambda ops, p: ops.oplus(p, p) == p).elements(bound)


def is_boolean_algebra(A: MvAlgebra) -> bool:
    """True iff A is finite and every element is idempotent, i.e. every leaf is L_2."""
    return all(f.carrier_size() == 2 for f in leaf_factors(A))


def atoms(A: MvAlgebra) -> list[MvElement]:
    """Minimal nonzero elements of a finite algebra, in canonical order: one leaf
    one step above 0 and every other leaf at 0, i.e. the listing positions that
    are leaf weights, decoded from ``int_record`` without listing the carrier."""
    record = int_record(A)
    return [MvElement(A, record.decode(record.values[w])) for w, _ in reversed(record.shape)]


def glue_boolean_perfect(B: MvAlgebra, P: MvAlgebra) -> MvAlgebra:
    """Combine a finite Boolean algebra with a perfect algebra.

    The subalgebra {(b, p) : the class of p modulo the radical matches the
    evaluation of b at a fixed atom} of B × P is canonically isomorphic to
    2^(k-1) × P where k is the number of atoms of B, and that product is what
    gets returned.  Its Boolean part is a copy of B and its radical is a copy
    of Rad(P).
    """
    if not is_boolean_algebra(B):
        raise DomainError(f"{B} is not a finite Boolean algebra")
    _perfect(P, "; gluing is representation-aware")
    k = len(atoms(B))
    if k == 1:
        return P
    return ProductAlgebra((FiniteChain(2),) * (k - 1) + (P,))


def _inf_bool(elems: list, ops) -> tuple[list, list]:
    """Inf(S), the payloads with x⊙x = 0, and Bool(S), those with x⊙x = x, in order."""
    odot, z = ops.odot, ops.zero
    squares = [(p, odot(p, p)) for p in elems]
    return [p for p, sq in squares if sq == z], [p for p, sq in squares if sq == p]


def recognize_theta_image(S: Bisemiring) -> CheckReport:
    """Decide whether a finite ℓ-bisemiring is θ of some algebra in V(C).

    Checks the two characterization conditions: the square-zero elements
    Inf(S) must be closed under all four operations and downward closed, and
    the square-idempotent elements Bool(S) must form a Boolean algebra under
    ∨ = ⊕ and ∧ = ⊙.  For a finite input the verdict is yes exactly when
    Inf(S) = {0} and Bool(S) is the whole of S (finite members of V(C) are
    Boolean algebras, which are their own θ images).
    """
    elems = S.payloads()
    A, ops = S.host, payload_ops(S.host)
    oplus, odot, z, o = ops.oplus, ops.odot, ops.zero, ops.one
    if z not in elems or o not in elems:
        raise MalformedInputError(
            "carrier must contain distinct 0 and 1 (a one-element input collapses 0 = 1)")
    closure_checked = check_closed(elems, ops, shown)
    inf_set, bool_set = map(set, _inf_bool(elems, ops))
    # Bool(S) = S forces Inf(S) = {0}; the radical conditions are then vacuous
    # and it remains to confirm Bool(S) is a Boolean algebra under ⊕/⊙.  On
    # idempotents ⊕ and ⊙ already are ∨ and ∧, so only complements need a
    # check.  Each law is named by the reason its witness gives.
    laws = [
        ("x⊙x ≠ x", 1, lambda x: x in bool_set),
        ("no complement", 1, lambda x: any(oplus(x, y) == o and odot(x, y) == z for y in elems)),
    ]

    def witness(reason, instance):
        x, = instance
        if reason == "x⊙x ≠ x" and x in inf_set:
            reason = "x⊙x = 0 but x ≠ 0"
        return {"element": MvElement(A, x), "reason": reason}
    report = check_laws(laws, Instances.over(elems)).shaped(witness)
    return replace(report, checked=closure_checked + report.checked,
                   details={"inf_size": len(inf_set), "bool_size": len(bool_set)})


def theta_image_conditions(S: Bisemiring, bound: int | None = None) -> CheckReport:
    """The two characterization conditions, checked on a (bounded) fragment.

    Condition (i): the square-zero elements are closed under ⊕, ⊙, ∧, ∨ and
    downward closed within S.  Condition (ii): the square-idempotent elements
    are closed under ⊕ and ⊙, contain 0 and 1, and are complemented under
    ∨ = ⊕, ∧ = ⊙.  Results of operations are tested with the membership
    predicate, so fragments of infinite carriers work.
    """
    elems = S.payloads(bound)
    A, ops = S.host, payload_ops(S.host)
    oplus, odot, z, o = ops.oplus, ops.odot, ops.zero, ops.one
    inf_set, bool_set = _inf_bool(elems, ops)
    operations = bisemiring_operations(ops)

    def shown(payloads):
        return [MvElement(A, p) for p in payloads]

    def closure(condition, operations, keep, pool):
        laws = closure_laws(operations, lambda r: S.has(MvElement(A, r)) and keep(r))
        return check_laws(laws, Instances.over(pool)).shaped(lambda name, pair: {
            "condition": condition, "operation": name, "elements": shown(pair)})

    def phases():  # run lazily, in order, until one fails
        yield closure("inf_closure", operations, lambda r: odot(r, r) == z, inf_set)
        downward = ("inf_downward", 2, lambda w, x: odot(w, w) == z or not ops.leq(w, x))
        pairs = Instances(lambda _: ((w, x) for x in inf_set for w in elems),
                          lambda _: len(inf_set) * len(elems))
        yield check_laws([downward], pairs).shaped(
            lambda _, pair: {"condition": "inf_downward", "elements": shown(pair)})
        if z not in bool_set or o not in bool_set:
            yield CheckReport(COUNTEREXAMPLE, 0, {"condition": "bool_constants"})
        yield closure("bool_closure", operations[:2], lambda r: odot(r, r) == r, bool_set)
        complemented = ("bool_complement", 1,
                        lambda x: any(oplus(x, y) == o and odot(x, y) == z for y in bool_set))
        yield check_laws([complemented], Instances.over(bool_set)).shaped(
            lambda _, x: {"condition": "bool_complement", "element": shown(x)[0]})

    checked = 0
    for report in phases():
        checked += report.checked
        if not report.ok:
            return replace(report, checked=checked)
    return CheckReport(VALID, checked,
                       details={"inf_size": len(inf_set), "bool_size": len(bool_set)})


# ---------------------------------------------------------------------------
# Morphisms and θ on morphisms.

class Morphism(Value, compare=("source", "target", "name")):
    """A named computable map between two structures; ``fn`` is left out of its
    equality and hash."""

    def __init__(self, source: Any, target: Any, name: str, fn: Callable):
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "name", name)
        set_field(self, "fn", fn)

    def __call__(self, x):
        return self.fn(x)


def identity_morphism(A: MvAlgebra) -> Morphism:
    return Morphism(A, A, "id", lambda x: x)


def projection_morphism(A: ProductAlgebra, index: int) -> Morphism:
    if not isinstance(A, ProductAlgebra):
        raise DomainError(f"{A} is not a product algebra")
    if not 0 <= index < len(A.factors):
        raise DomainError(f"no factor {index} in {A}")
    target = A.factors[index]
    return Morphism(A, target, f"proj_{index}",
                    lambda x: MvElement(target, x.payload[index]))


def check_homomorphism(h: Morphism, bound: int = 4) -> None:
    """Verify preservation of ⊕, ¬, 0, 1 on a bounded fragment of the source.

    The fragment is enumerated, so it lies in the source; the source side runs
    on its payload record, and h's images go through the checking ``mv_*``.
    """
    src, ops = h.source, payload_ops(h.source)

    def image(p):
        return h(MvElement(src, p))
    laws = [
        ("the constants", 0,
         lambda: h(zero(src)) == zero(h.target) and h(one(src)) == one(h.target)),
        ("negation", 1, lambda x: image(ops.neg(x)) == mv_neg(image(x))),
        ("⊕", 2, lambda x, y: image(ops.oplus(x, y)) == mv_oplus(image(x), image(y))),
    ]
    report = check_laws(laws, Instances.over(enumerate_payloads(src, bound)))
    if not report.ok:
        name, instance = report.witness
        listed = ", ".join(map(shown, instance))
        at = f" at ({listed})" if len(instance) > 1 else f" at {listed}" if instance else ""
        raise BrokenHomomorphismError(f"{h.name} does not preserve {name}{at}")


def theta_on_morphism(h: Morphism, bound: int = 4) -> Morphism:
    """Restrict a homomorphism to the θ images.

    Homomorphisms preserve the zero set of 2x² ⊖ x, so the restriction is well
    defined; both the homomorphism laws and θ preservation are checked on a
    bounded fragment and violations raise BrokenHomomorphismError.
    """
    check_homomorphism(h, bound)
    src, tgt = theta(h.source), theta(h.target)
    report = check_laws([("theta", 1, lambda x: tgt.contains(h(x)))],
                        Instances.over(src.elements(bound)))
    if not report.ok:
        x, = report.witness[1]
        raise BrokenHomomorphismError(
            f"{h.name} maps {shown(x.payload)} outside theta of the target; "
            "it cannot be a homomorphism")
    return Morphism(src, tgt, f"theta({h.name})", h.fn)
