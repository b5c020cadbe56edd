"""Evaluation of Lukasiewicz terms and equation / tautology checking.

``evaluate`` reads its one valuation through the pipeline that checks laws
(``terms.stream``), on the descriptor's payload record.  Every checker passes
its laws as ``report.Law``s to the one law engine (``report.check_laws``),
which streams the instances of each law through such pipelines on the record
it runs on.  Exhaustive and bounded checks of a chain or the interval run on
the payload record; a sampled check, and any full check of a product or of
Δ(G), runs on the ints of ``algebra.int_record``, and only its counterexample
is decoded to payloads.

Exhaustive checks walk every valuation of a finite algebra in canonical order
and report the first counterexample; bounded checks run over the bound-limited
fragment of an infinite algebra and can only refute (a clean run is reported
as valid_up_to_bound, never as a completeness claim).

Every law here is an identity or a quasi-identity (modus ponens), run through
``algebra.check_identities``, which decides on each distinct leaf of the
record it walks: on a product a valid verdict comes leaf by leaf, with the
``checked`` count of the full walk, and a failure is still the first
counterexample of the full walk.
"""

from __future__ import annotations

import functools
from typing import Mapping

from .algebra import CHANG, MvAlgebra, MvElement, check_identities, payload_ops
from .errors import EvaluationError, StructuralError
from .report import CheckReport, Law
from .terms import CONST1, Equation, Term, operation_count, parse, parse_equation, stream
from .value import Value, set_field


class Valuation(Value):
    def __init__(self, algebra: MvAlgebra, bindings: Mapping[str, MvElement]):
        set_field(self, "algebra", algebra)
        set_field(self, "bindings", bindings)


def evaluate(t: Term, v: Valuation) -> MvElement:
    """Evaluate t under v; → is read as ¬x ⊕ y, ⊖ as x ⊙ ¬y."""
    A = v.algebra
    env: dict = {}

    def read(name):  # each binding checked once, in the order the term reads them
        if name not in env:
            try:
                x = v.bindings[name]
            except KeyError:
                raise EvaluationError(f"variable {name!r} is not bound") from None
            if x.algebra != A:
                raise StructuralError(f"binding for {name!r} inhabits {x.algebra}, not {A}")
            env[name] = x.payload
        return iter((env[name],))
    ops = payload_ops(A)
    values = stream(t, ops, read)
    ops.checked(*env.values())
    return MvElement(A, next(values))


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


@functools.cache
def _suite() -> tuple[Law, ...]:
    """The four axioms as tautologies and modus ponens soundness, a quasi-identity
    (if x → y = 1 and x = 1, then y = 1), as Laws built on first use."""
    return tuple([Law(name, Equation(axiom, CONST1)) for name, axiom in LUKASIEWICZ_AXIOMS] + [
        Law("modus_ponens", parse_equation("y = 1"),
            (parse_equation("x -> y = 1"), parse_equation("x = 1")))])


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
        axiom = next(law.conclusion for law in _suite() if law.name == name)
        return {"axiom": name, **_valuation_witness(axiom, A, env)}
    return check_identities(A, _suite(), None if samples is None else bound,
                            samples, seed).shaped(witness)
