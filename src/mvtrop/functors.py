"""The categorical constructions: Γ, Δ, Trop, Detrop, θ, θ*, F, gluing, recognition.

Round trips are structural: detrop(trop(G)) is G, delta_inverse(delta(G)) is G,
and theta_perfect_inverse(theta_perfect(P)) is P, as descriptor equalities.
Γ is representation-aware: it accepts positive integer units over Z (yielding
finite chains) and (1, 0)-shaped units over lexicographic groups (yielding
DeltaOf algebras).  The general inverse via good sequences is out of scope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from .algebra import (DeltaOf, FiniteChain, MvAlgebra, MvElement,
                      ProductAlgebra, carrier_size, element, element_str,
                      enumerate_elements, is_boolean_elem, mv_join, mv_leq,
                      mv_meet, mv_neg, mv_odot, mv_oplus, one, payload_ops,
                      zero)
from .bisemirings import TOP, Bisemiring, TopCone
from .errors import (BrokenHomomorphismError, DomainError, MalformedInputError,
                     UnsupportedRepresentationError)
from .groups import (Integers, LexZG, LGroup, TropOfGroup, group_coerce,
                     group_leq, group_zero)
from .report import COUNTEREXAMPLE, VALID, CheckReport


def gamma(G: LGroup, u) -> MvAlgebra:
    """Mundici's interval construction on [0, u] with truncated addition.

    Structurally verified units: any positive integer over Z, and (1, 0) over
    a lexicographic group Z lex G (any other unit of a shipped kind is refused
    rather than guessed at).
    """
    u = group_coerce(G, u)
    zero_g = group_zero(G)
    if group_leq(G, u, zero_g):
        raise DomainError(f"unit must be strictly positive, got {u!r}")
    if isinstance(G, Integers):
        return FiniteChain(u + 1)
    if isinstance(G, LexZG):
        if u == (1, group_zero(G.tail)):
            return DeltaOf(G.tail)
        raise DomainError(f"only (1, 0)-shaped strong units are supported, got {u!r}")
    raise DomainError(f"no structurally verified strong units for {G!r}")


def delta(G: LGroup) -> DeltaOf:
    """Δ(G): the perfect algebra on the unit interval of Z lex G; Δ(Z) is Chang."""
    return DeltaOf(G)


def delta_inverse(P: MvAlgebra) -> LGroup:
    if isinstance(P, DeltaOf):
        return P.group
    raise UnsupportedRepresentationError(
        f"{P!r} was not built by delta; the general inverse is out of scope")


def trop(G: LGroup) -> TropOfGroup:
    """Adjoin -inf to G: the additively idempotent semifield on G."""
    return TropOfGroup(G)


def detrop(S: TropOfGroup) -> LGroup:
    """Delete the zero of the semifield, recovering the ℓ-group."""
    if not isinstance(S, TropOfGroup):
        raise UnsupportedRepresentationError(f"{S!r} is not a tropical semifield")
    return S.group


def mv_from_semifield(S: TropOfGroup, u) -> MvAlgebra:
    """Interval algebra of a semifield with strong unit: gamma(detrop(S), u)."""
    from .groups import BOTTOM
    if u is BOTTOM:
        raise DomainError("the semifield zero is not a strong unit")
    return gamma(detrop(S), u)


# ---------------------------------------------------------------------------
# θ and θ*.

def theta(A: MvAlgebra) -> Bisemiring:
    """θ(A) = {x : x >= 2x²}, as a membership predicate over A."""
    ops = payload_ops(A)

    def member(x: MvElement) -> bool:
        sq = ops.odot(x.payload, x.payload)
        return ops.leq(ops.oplus(sq, sq), x.payload)
    return Bisemiring(A, member, label="theta")


def theta_star(A: MvAlgebra) -> Bisemiring:
    """θ*(A) = {x : x <= 2x²}."""
    ops = payload_ops(A)

    def member(x: MvElement) -> bool:
        sq = ops.odot(x.payload, x.payload)
        return ops.leq(x.payload, ops.oplus(sq, sq))
    return Bisemiring(A, member, label="theta_star")


def theta_perfect(P: MvAlgebra) -> TopCone:
    """θ of a perfect algebra as a cone: the radical carries the positive cone,
    and the unit becomes ⊤."""
    if not isinstance(P, DeltaOf):
        raise UnsupportedRepresentationError(
            f"{P!r} is not a DeltaOf algebra; theta_perfect is representation-aware")
    return TopCone(P.group)


def theta_perfect_inverse(T: TopCone) -> DeltaOf:
    return delta(T.base_group)


def perfect_to_cone(x: MvElement):
    """The bijection θ(P) → cone: (0, g) ↦ g and 1 ↦ ⊤."""
    P = x.algebra
    if not isinstance(P, DeltaOf):
        raise UnsupportedRepresentationError(f"{P!r} is not a DeltaOf algebra")
    bit, off = x.payload
    if bit == 0:
        return off
    if off == group_zero(P.group):
        return TOP
    raise DomainError(f"{x!r} is not in theta of the perfect algebra")


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
    """All idempotent elements of the (bounded) carrier."""
    return [x for x in enumerate_elements(A, bound) if is_boolean_elem(x)]


def is_boolean_algebra(A: MvAlgebra) -> bool:
    """True iff A is finite and every element is idempotent."""
    if carrier_size(A) is None:
        return False
    return all(is_boolean_elem(x) for x in enumerate_elements(A))


def atoms(A: MvAlgebra) -> list[MvElement]:
    """Minimal nonzero elements of a finite algebra, in canonical order."""
    elems = enumerate_elements(A)
    z = zero(A)
    nonzero = [x for x in elems if x != z]
    return [x for x in nonzero
            if not any(y != x and mv_leq(y, x) for y in nonzero)]


def glue_boolean_perfect(B: MvAlgebra, P: MvAlgebra) -> MvAlgebra:
    """Combine a finite Boolean algebra with a perfect algebra.

    The subalgebra {(b, p) : the class of p modulo the radical matches the
    evaluation of b at a fixed atom} of B × P is canonically isomorphic to
    2^(k-1) × P where k is the number of atoms of B, and that product is what
    gets returned.  Its Boolean part is a copy of B and its radical is a copy
    of Rad(P).
    """
    if carrier_size(B) is None or not is_boolean_algebra(B):
        raise DomainError(f"{B!r} is not a finite Boolean algebra")
    if not isinstance(P, DeltaOf):
        raise UnsupportedRepresentationError(
            f"{P!r} is not a DeltaOf algebra; gluing is representation-aware")
    k = len(atoms(B))
    if k == 1:
        return P
    return ProductAlgebra((FiniteChain(2),) * (k - 1) + (P,))


def recognize_theta_image(S: Bisemiring) -> CheckReport:
    """Decide whether a finite ℓ-bisemiring is θ of some algebra in V(C).

    Checks the two characterization conditions: the square-zero elements
    Inf(S) must be closed under all four operations and downward closed, and
    the square-idempotent elements Bool(S) must form a Boolean algebra under
    ∨ = ⊕ and ∧ = ⊙.  For a finite input the verdict is yes exactly when
    Inf(S) = {0} and Bool(S) is the whole of S (finite members of V(C) are
    Boolean algebras, which are their own θ images).
    """
    elems = S.elements()
    A = S.host
    z, o = zero(A), one(A)
    eset = set(elems)
    if z not in eset or o not in eset:
        raise MalformedInputError(
            "carrier must contain distinct 0 and 1 (a one-element input collapses 0 = 1)")
    ops = (("oplus", mv_oplus), ("odot", mv_odot), ("meet", mv_meet), ("join", mv_join))
    checked = 0
    for name, op in ops:
        for x, y in itertools.product(elems, repeat=2):
            checked += 1
            if op(x, y) not in eset:
                raise MalformedInputError(
                    f"carrier is not closed under {name} at ({element_str(x)}, {element_str(y)})")

    inf_set = {x for x in elems if mv_odot(x, x) == z}
    bool_set = {x for x in elems if mv_odot(x, x) == x}
    details = {"inf_size": len(inf_set), "bool_size": len(bool_set)}

    for x in elems:
        checked += 1
        if x in inf_set and x != z:
            witness = {"element": x, "reason": "x⊙x = 0 but x ≠ 0"}
            return CheckReport(COUNTEREXAMPLE, checked, witness, details=details)
        if x not in bool_set:
            witness = {"element": x, "reason": "x⊙x ≠ x"}
            return CheckReport(COUNTEREXAMPLE, checked, witness, details=details)

    # Inf(S) = {0} and Bool(S) = S here; the radical conditions are vacuous
    # and it remains to confirm Bool(S) is a Boolean algebra under ⊕/⊙.
    for x, y in itertools.product(elems, repeat=2):
        checked += 1
        if mv_oplus(x, y) != mv_join(x, y) or mv_odot(x, y) != mv_meet(x, y):
            witness = {"elements": [x, y], "reason": "⊕/⊙ do not agree with ∨/∧"}
            return CheckReport(COUNTEREXAMPLE, checked, witness, details=details)
    for x in elems:
        checked += 1
        if not any(mv_oplus(x, y) == o and mv_odot(x, y) == z for y in elems):
            witness = {"element": x, "reason": "no complement"}
            return CheckReport(COUNTEREXAMPLE, checked, witness, details=details)
    return CheckReport(VALID, checked, details=details)


def theta_image_conditions(S: Bisemiring, bound: int | None = None) -> CheckReport:
    """The two characterization conditions, checked on a (bounded) fragment.

    Condition (i): the square-zero elements are closed under ⊕, ⊙, ∧, ∨ and
    downward closed within S.  Condition (ii): the square-idempotent elements
    are closed under ⊕ and ⊙, contain 0 and 1, and are complemented under
    ∨ = ⊕, ∧ = ⊙.  Results of operations are tested with the membership
    predicate, so fragments of infinite carriers work.
    """
    elems = S.elements(bound)
    A = S.host
    z, o = zero(A), one(A)

    def square_zero(x):
        return mv_odot(x, x) == z

    def square_idem(x):
        return mv_odot(x, x) == x

    inf_set = [x for x in elems if square_zero(x)]
    bool_set = [x for x in elems if square_idem(x)]
    checked = 0
    ops = (("oplus", mv_oplus), ("odot", mv_odot), ("meet", mv_meet), ("join", mv_join))
    for name, op in ops:
        for x, y in itertools.product(inf_set, repeat=2):
            checked += 1
            r = op(x, y)
            if not (S.contains(r) and square_zero(r)):
                witness = {"condition": "inf_closure", "operation": name, "elements": [x, y]}
                return CheckReport(COUNTEREXAMPLE, checked, witness)
    for x in inf_set:
        for w in elems:
            checked += 1
            if mv_leq(w, x) and not square_zero(w):
                witness = {"condition": "inf_downward", "elements": [w, x]}
                return CheckReport(COUNTEREXAMPLE, checked, witness)
    if z not in bool_set or o not in bool_set:
        return CheckReport(COUNTEREXAMPLE, checked, {"condition": "bool_constants"})
    for name, op in (("oplus", mv_oplus), ("odot", mv_odot)):
        for x, y in itertools.product(bool_set, repeat=2):
            checked += 1
            r = op(x, y)
            if not (S.contains(r) and square_idem(r)):
                witness = {"condition": "bool_closure", "operation": name, "elements": [x, y]}
                return CheckReport(COUNTEREXAMPLE, checked, witness)
    for x in bool_set:
        checked += 1
        if not any(mv_oplus(x, y) == o and mv_odot(x, y) == z for y in bool_set):
            witness = {"condition": "bool_complement", "element": x}
            return CheckReport(COUNTEREXAMPLE, checked, witness)
    return CheckReport(VALID, checked,
                       details={"inf_size": len(inf_set), "bool_size": len(bool_set)})


# ---------------------------------------------------------------------------
# Morphisms and θ on morphisms.

@dataclass(frozen=True)
class Morphism:
    """A named computable map between two structures."""

    source: Any
    target: Any
    name: str
    fn: Callable = field(compare=False)

    def __call__(self, x):
        return self.fn(x)


def identity_morphism(A: MvAlgebra) -> Morphism:
    return Morphism(A, A, "id", lambda x: x)


def projection_morphism(A: ProductAlgebra, index: int) -> Morphism:
    if not isinstance(A, ProductAlgebra):
        raise DomainError(f"{A!r} is not a product algebra")
    if not 0 <= index < len(A.factors):
        raise DomainError(f"no factor {index} in {A!r}")
    target = A.factors[index]
    return Morphism(A, target, f"proj_{index}",
                    lambda x: MvElement(target, x.payload[index]))


def check_homomorphism(h: Morphism, bound: int = 4) -> None:
    """Verify preservation of ⊕, ¬, 0, 1 on a bounded fragment of the source."""
    elems = enumerate_elements(h.source, bound)
    if h(zero(h.source)) != zero(h.target) or h(one(h.source)) != one(h.target):
        raise BrokenHomomorphismError(f"{h.name} does not preserve the constants")
    for x in elems:
        if h(mv_neg(x)) != mv_neg(h(x)):
            raise BrokenHomomorphismError(
                f"{h.name} does not preserve negation at {element_str(x)}")
    for x, y in itertools.product(elems, repeat=2):
        if h(mv_oplus(x, y)) != mv_oplus(h(x), h(y)):
            raise BrokenHomomorphismError(
                f"{h.name} does not preserve ⊕ at ({element_str(x)}, {element_str(y)})")


def theta_on_morphism(h: Morphism, bound: int = 4) -> Morphism:
    """Restrict a homomorphism to the θ images.

    Homomorphisms preserve the zero set of 2x² ⊖ x, so the restriction is well
    defined; both the homomorphism laws and θ preservation are checked on a
    bounded fragment and violations raise BrokenHomomorphismError.
    """
    check_homomorphism(h, bound)
    src, tgt = theta(h.source), theta(h.target)
    for x in src.elements(bound):
        if not tgt.contains(h(x)):
            raise BrokenHomomorphismError(
                f"{h.name} maps {element_str(x)} outside theta of the target; "
                "it cannot be a homomorphism")
    return Morphism(src, tgt, f"theta({h.name})", h.fn)
