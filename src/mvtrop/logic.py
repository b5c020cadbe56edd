"""Evaluation of Lukasiewicz terms and equation / tautology checking.

Exhaustive checks walk every valuation of a finite algebra in canonical order
and report the first counterexample; bounded checks run over the bound-limited
fragment of an infinite algebra and can only refute (a clean run is reported
as valid_up_to_bound, never as a completeness claim).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Mapping

from .algebra import (CHANG, MvAlgebra, MvElement, PayloadOps, payload_ops,
                      payload_tuples)
from .errors import EvaluationError, StructuralError
from .report import CheckReport, check_laws
from .terms import (CONST1, Const, Equation, Implies, Join, Meet, Neg, Odot,
                    Ominus, Oplus, Term, Var, operation_count, parse,
                    parse_equation)


@dataclass(frozen=True)
class Valuation:
    algebra: MvAlgebra
    bindings: Mapping[str, MvElement]


_CONNECTIVES = {Oplus: "oplus", Odot: "odot", Ominus: "ominus",
                Implies: "implies", Meet: "meet", Join: "join"}


def _compile_term(t: Term, ops: PayloadOps, slots: dict[str, int]) -> Callable:
    """Close t over payload operations, once per check.

    The result maps a sequence of payloads to the payload of t, reading
    variable ``name`` at position ``slots[name]``.  A variable missing from
    ``slots`` gets the next free position, so an empty dict collects the
    variables in evaluation order.
    """
    if isinstance(t, Var):
        return itemgetter(slots.setdefault(t.name, len(slots)))
    if isinstance(t, Const):
        c = ops.zero if t.value == 0 else ops.one
        return lambda env: c
    if isinstance(t, Neg):
        f, neg = _compile_term(t.arg, ops, slots), ops.neg
        return lambda env: neg(f(env))
    name = _CONNECTIVES.get(type(t))
    if name is None:
        raise TypeError(f"not a term: {t!r}")
    op = getattr(ops, name)
    f, g = _compile_term(t.left, ops, slots), _compile_term(t.right, ops, slots)
    return lambda env: op(f(env), g(env))


def evaluate(t: Term, v: Valuation) -> MvElement:
    """Evaluate t under v; → is read as ¬x ⊕ y, ⊖ as x ⊙ ¬y."""
    A = v.algebra
    slots: dict[str, int] = {}
    ops = payload_ops(A)
    f = _compile_term(t, ops, slots)
    env = []
    for name in slots:
        try:
            x = v.bindings[name]
        except KeyError:
            raise EvaluationError(f"variable {name!r} is not bound") from None
        if x.algebra != A:
            raise StructuralError(f"binding for {name!r} inhabits {x.algebra!r}, not {A!r}")
        env.append(x.payload)
    ops.checked(*env)
    return MvElement(A, f(env))


def _law(name: str, e: Equation, ops: PayloadOps) -> tuple:
    """The law e on payloads; slot i holds the i-th of e's variables in sorted order."""
    slots = {v: i for i, v in enumerate(sorted(e.variables()))}
    lhs, rhs = _compile_term(e.lhs, ops, slots), _compile_term(e.rhs, ops, slots)
    return name, len(slots), lambda *env: lhs(env) == rhs(env)


def _bindings(A: MvAlgebra, names, env) -> dict[str, MvElement]:
    return {name: MvElement(A, p) for name, p in zip(names, env)}


def _valuation_witness(e: Equation, A: MvAlgebra, env) -> dict:
    """The valuation env of a tautology e (lhs = 1) and the value it gives lhs."""
    valuation = _bindings(A, sorted(e.variables()), env)
    return {"valuation": valuation, "value": evaluate(e.lhs, Valuation(A, valuation))}


def check_equation_finite(e: Equation, A: MvAlgebra) -> CheckReport:
    """Exhaustive equation check over all valuations of a finite algebra."""
    return _check_equation(e, A, None)


def default_chang_bound(e: Equation) -> int:
    """Heuristic refutation bound: twice the equation's operation-symbol count."""
    return max(1, 2 * (operation_count(e.lhs) + operation_count(e.rhs)))


def check_equation_bounded(e: Equation, A: MvAlgebra, bound: int) -> CheckReport:
    """Refutation-only check over the bound-limited fragment of A.

    A counterexample is definitive; a clean run is reported as valid up to the
    bound, which is not a completeness claim.
    """
    return _check_equation(e, A, bound)


def _check_equation(e: Equation, A: MvAlgebra, bound: int | None) -> CheckReport:
    """Every valuation in canonical order; the first counterexample wins."""
    return check_laws([_law("equation", e, payload_ops(A))], payload_tuples(A, bound)).shaped(
        lambda _, env: _bindings(A, sorted(e.variables()), env))


def check_equation_chang(e: Equation, bound: int | None = None) -> CheckReport:
    """Bounded refutation check over Chang's algebra, the generator of V(C)."""
    if bound is None:
        bound = default_chang_bound(e)
    return check_equation_bounded(e, CHANG, bound)


def tautology_check(t: Term, A: MvAlgebra) -> CheckReport:
    """Valid iff the term evaluates to 1 under every valuation of a finite algebra."""
    e = Equation(t, CONST1)
    return check_laws([_law("tautology", e, payload_ops(A))], payload_tuples(A)).shaped(
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


def axiom_suite(A: MvAlgebra, *, samples: int | None = None, seed: int = 0,
                bound: int = 12) -> CheckReport:
    """Check that the four axioms are tautologies and modus ponens is sound.

    Exhaustive on finite algebras; with ``samples`` set, seeded random
    valuations from the bound-limited fragment are used instead (required for
    infinite carriers).
    """
    tuples = payload_tuples(A, None if samples is None else bound, samples, seed)
    ops = payload_ops(A)
    axioms = {name: Equation(axiom, CONST1) for name, axiom in LUKASIEWICZ_AXIOMS}
    laws = [_law(name, e, ops) for name, e in axioms.items()]
    top, implies = ops.one, ops.implies
    # Modus ponens soundness: whenever x → y and x take the value 1, so does y.
    laws.append(("modus_ponens", 2,
                 lambda x, y: not (implies(x, y) == top and x == top) or y == top))

    def witness(name, env):
        if name == "modus_ponens":
            return {"axiom": name, "valuation": _bindings(A, ("x", "y"), env)}
        return {"axiom": name, **_valuation_witness(axioms[name], A, env)}
    return check_laws(laws, tuples).shaped(witness)
