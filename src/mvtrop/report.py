"""Verification outcomes shared by all checkers, the one engine that checks laws,
and ``Law``, an equational law as data, compiled on the record a check walks."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable

from .terms import Equation, compile_term
from .value import Value, replace, set_field

VALID = "valid"
VALID_UP_TO_BOUND = "valid_up_to_bound"
COUNTEREXAMPLE = "counterexample"


class CheckReport(Value):
    """Outcome of an exhaustive, bounded, or sampled verification.

    ``verdict`` is one of ``valid``, ``valid_up_to_bound``, ``counterexample``.
    ``witness`` is only present for counterexamples and names the failing
    instance (axiom plus elements, or a valuation).  ``checked`` counts the
    instances actually evaluated.  ``details`` defaults to a new empty dict.
    """

    def __init__(self, verdict: str, checked: int, witness: Any = None,
                 mode: str = "exhaustive", details: dict | None = None):
        set_field(self, "verdict", verdict)
        set_field(self, "checked", checked)
        set_field(self, "witness", witness)
        set_field(self, "mode", mode)
        set_field(self, "details", {} if details is None else details)

    @property
    def ok(self) -> bool:
        return self.verdict != COUNTEREXAMPLE

    def shaped(self, shape: Callable) -> CheckReport:
        """This report, its ``(law, instance)`` witness replaced by ``shape(law, instance)``."""
        return self if self.ok else replace(self, witness=shape(*self.witness))


class Instances(Value):
    """The instances of a check, with the mode and bound to report.

    ``tuples(arity)`` yields the instances of a law of that arity; a source
    made for a single law may ignore the arity.  ``size`` is the pool of a
    source that walks every tuple of a fixed list (``over``), and None for a
    draw-based one, so ``count(arity)`` knows a walk's length before it starts.
    """

    def __init__(self, tuples: Callable[[int], Iterable[tuple]], mode: str = "exhaustive",
                 bound: int | None = None, size: int | None = None):
        set_field(self, "tuples", tuples)
        set_field(self, "mode", mode)
        set_field(self, "bound", bound)
        set_field(self, "size", size)

    @classmethod
    def over(cls, pool: Iterable, mode: str = "exhaustive", bound: int | None = None):
        """All tuples of the elements of pool, in canonical order."""
        pool = list(pool)
        return cls(lambda arity: itertools.product(pool, repeat=arity), mode, bound, len(pool))

    def count(self, arity: int) -> int | None:
        """How many instances ``tuples(arity)`` yields, or None for a draw-based source."""
        return None if self.size is None else self.size ** arity

    def clean(self, checked: int) -> CheckReport:
        """The report of a run over this source that found no counterexample.

        A bounded run is valid up to its bound, any other run is valid.
        """
        if self.mode == "bounded":
            return CheckReport(VALID_UP_TO_BOUND, checked, mode="bounded",
                               details={"bound": self.bound})
        return CheckReport(VALID, checked, mode=self.mode)


def axiom_witness(name: str, instance) -> dict:
    return {"axiom": name, "elements": list(instance)}


def check_laws(laws: Iterable[tuple], source: Instances) -> CheckReport:
    """Check each law ``(name, arity, holds)`` on every instance; the first failure wins.

    Laws run in order, each over ``source.tuples(arity)``, an arity-0 law once;
    ``holds`` gets the elements of an instance as its arguments.  A
    counterexample's witness is ``(law name, instance)``, for the caller to
    shape; a clean bounded run is valid up to its bound.
    """
    checked = 0
    for name, arity, holds in laws:
        for instance in source.tuples(arity) if arity else [()]:
            checked += 1
            if not holds(*instance):
                return CheckReport(COUNTEREXAMPLE, checked, (name, instance), source.mode)
    return source.clean(checked)


class Law(Value, eq=False):
    """A Horn sentence over equations: ``conclusion`` holds wherever all of
    ``premises`` do (an identity has none).  Its slots, fixed when it is built,
    are its sorted variables, bound in that order; a law hashes by identity."""

    def __init__(self, name: str, conclusion: Equation, premises: tuple[Equation, ...] = ()):
        names = set().union(*[e.variables() for e in (conclusion, *premises)])
        set_field(self, "name", name)
        set_field(self, "conclusion", conclusion)
        set_field(self, "premises", premises)
        set_field(self, "slots", {v: i for i, v in enumerate(sorted(names))})

    def on(self, ops) -> tuple:
        """The ``(name, arity, holds)`` of ``check_laws``, compiled on the record
        ``ops``; ``holds`` tests the premises only when the conclusion fails."""
        (lhs, rhs), *premises = [[compile_term(t, ops, self.slots) for t in (e.lhs, e.rhs)]
                                 for e in (self.conclusion, *self.premises)]
        return self.name, len(self.slots), lambda *env: lhs(env) == rhs(env) or not all(
            p(env) == q(env) for p, q in premises)
