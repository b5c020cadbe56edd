"""Evaluation of Lukasiewicz terms and equation / tautology checking.

A term is compiled once per check, by ``terms.compile_term``, into a closure
over one record's operations; ``evaluate`` runs that, and every checker passes
its laws as ``report.Law``s, compiled on the record a check walks.  ``evaluate``
and exhaustive and bounded checks of a leaf run on the descriptor's payload
record; a sampled check, and any check of a product, runs on the int record of
``algebra.int_record`` (L_n's ints 0..n−1 for a finite chain, decoded as
Fraction(i, n−1)), and only its counterexample is decoded to payloads.

Exhaustive checks walk every valuation of a finite algebra in canonical order
and report the first counterexample; bounded checks run over the bound-limited
fragment of an infinite algebra and can only refute (a clean run is reported
as valid_up_to_bound, never as a completeness claim).

Every law here is an identity or a quasi-identity (modus ponens), run through
``algebra.check_identities``, so on a product a valid verdict is decided leaf
by leaf on the leaves' int records, with the ``checked`` count of the full walk,
and a failure is still the first counterexample of the full walk.
"""

from __future__ import annotations

from typing import Mapping

from .algebra import CHANG, MvAlgebra, MvElement, check_identities, payload_ops
from .errors import EvaluationError, StructuralError
from .report import CheckReport, Law
from .terms import (CONST1, Equation, Term, compile_term, operation_count, parse,
                    parse_equation)
from .value import Value, set_field


class Valuation(Value):
    def __init__(self, algebra: MvAlgebra, bindings: Mapping[str, MvElement]):
        set_field(self, "algebra", algebra)
        set_field(self, "bindings", bindings)


def evaluate(t: Term, v: Valuation) -> MvElement:
    """Evaluate t under v; → is read as ¬x ⊕ y, ⊖ as x ⊙ ¬y."""
    A = v.algebra
    slots: dict[str, int] = {}
    ops = payload_ops(A)
    f = compile_term(t, ops, slots)
    env = []
    for name in slots:
        try:
            x = v.bindings[name]
        except KeyError:
            raise EvaluationError(f"variable {name!r} is not bound") from None
        if x.algebra != A:
            raise StructuralError(f"binding for {name!r} inhabits {x.algebra}, not {A}")
        env.append(x.payload)
    ops.checked(*env)
    return MvElement(A, f(env))


def _bindings(A: MvAlgebra, names, env) -> dict[str, MvElement]:
    return {name: MvElement(A, p) for name, p in zip(names, env)}


def _valuation_witness(e: Equation, A: MvAlgebra, env) -> dict:
    """The valuation env of a tautology e (lhs = 1) and the value it gives lhs."""
    valuation = _bindings(A, sorted(e.variables()), env)
    return {"valuation": valuation, "value": evaluate(e.lhs, Valuation(A, valuation))}


def check_equation_finite(e: Equation, A: MvAlgebra) -> CheckReport:
    """Exhaustive equation check over all valuations of a finite algebra."""
    return check_equation_bounded(e, A, None)


def default_chang_bound(e: Equation) -> int:
    """Heuristic refutation bound: twice the equation's operation-symbol count."""
    return max(1, 2 * (operation_count(e.lhs) + operation_count(e.rhs)))


def check_equation_bounded(e: Equation, A: MvAlgebra, bound: int | None) -> CheckReport:
    """Refutation-only check over the bound-limited fragment of A, every
    valuation in canonical order; the first counterexample wins.

    A counterexample is definitive; a clean run is reported as valid up to the
    bound, which is not a completeness claim.  A bound of None is the
    exhaustive walk of a finite algebra, as in ``check_equation_finite``.
    """
    return check_identities(A, [Law("equation", e)], bound).shaped(
        lambda _, env: _bindings(A, sorted(e.variables()), env))


def check_equation_chang(e: Equation, bound: int | None = None) -> CheckReport:
    """Bounded refutation check over Chang's algebra, the generator of V(C)."""
    if bound is None:
        bound = default_chang_bound(e)
    return check_equation_bounded(e, CHANG, bound)


def tautology_check(t: Term, A: MvAlgebra) -> CheckReport:
    """Valid iff the term evaluates to 1 under every valuation of a finite algebra."""
    e = Equation(t, CONST1)
    return check_identities(A, [Law("tautology", e)]).shaped(
        lambda _, env: _valuation_witness(e, A, env))


VC_AXIOM = parse_equation("(x (+) x) (.) (x (+) x) = (x (.) x) (+) (x (.) x)")


def vc_membership(A: MvAlgebra) -> CheckReport:
    """Does the finite algebra satisfy (2x)² = 2(x²), the axiom of V(C)?"""
    return check_equation_finite(VC_AXIOM, A)


LUKASIEWICZ_AXIOMS = (
    ("axiom_1", parse("x -> (y -> x)")),
    ("axiom_2", parse("(x -> y) -> ((y -> z) -> (x -> z))")),
    ("axiom_3", parse("((x -> y) -> y) -> ((y -> x) -> x)")),
    ("axiom_4", parse("(~x -> ~y) -> (y -> x)")),
)

# Modus ponens soundness, a quasi-identity: if x → y = 1 and x = 1, then y = 1.
_SUITE = [Law(name, Equation(axiom, CONST1)) for name, axiom in LUKASIEWICZ_AXIOMS] + [
    Law("modus_ponens", parse_equation("y = 1"),
        (parse_equation("x -> y = 1"), parse_equation("x = 1")))]


def axiom_suite(A: MvAlgebra, *, samples: int | None = None, seed: int = 0,
                bound: int = 12) -> CheckReport:
    """Check that the four axioms are tautologies and modus ponens is sound.

    Exhaustive on finite algebras; with ``samples`` set, seeded random
    valuations from the bound-limited fragment are used instead (required for
    infinite carriers).
    """
    def witness(name, env):
        if name == "modus_ponens":
            return {"axiom": name, "valuation": _bindings(A, ("x", "y"), env)}
        axiom = next(law.conclusion for law in _SUITE if law.name == name)
        return {"axiom": name, **_valuation_witness(axiom, A, env)}
    return check_identities(A, _SUITE, None if samples is None else bound,
                            samples, seed).shaped(witness)
