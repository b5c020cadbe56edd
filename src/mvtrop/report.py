"""Verification outcomes shared by all checkers, the one engine that checks laws,
and ``Law``, an equational law as data, compiled on the record a check walks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from .terms import Equation, compile_term

VALID = "valid"
VALID_UP_TO_BOUND = "valid_up_to_bound"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive, bounded, or sampled verification.

    ``verdict`` is one of ``valid``, ``valid_up_to_bound``, ``counterexample``.
    ``witness`` is only present for counterexamples and names the failing
    instance (axiom plus elements, or a valuation).  ``checked`` counts the
    instances actually evaluated.
    """

    verdict: str
    checked: int
    witness: Any = None
    mode: str = "exhaustive"
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict != COUNTEREXAMPLE

    def shaped(self, shape: Callable) -> CheckReport:
        """This report, its ``(law, instance)`` witness replaced by ``shape(law, instance)``."""
        return self if self.ok else replace(self, witness=shape(*self.witness))


@dataclass(frozen=True)
class Instances:
    """The instances of a check, with the mode and bound to report.

    ``tuples(arity)`` yields the instances of a law of that arity; a source
    made for a single law may ignore the arity.  ``size`` is the pool of a
    source that walks every tuple of a fixed list (``over``), and None for a
    draw-based one, so ``count(arity)`` knows a walk's length before it starts.
    """

    tuples: Callable[[int], Iterable[tuple]]
    mode: str = "exhaustive"
    bound: int | None = None
    size: int | None = None

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


@dataclass(frozen=True, eq=False)
class Law:
    """A Horn sentence over equations: ``conclusion`` holds wherever all of
    ``premises`` do (an identity has none).  Its slots, fixed when it is built,
    are its sorted variables, bound in that order; a law hashes by identity."""

    name: str
    conclusion: Equation
    premises: tuple[Equation, ...] = ()
    slots: dict = field(init=False, repr=False)

    def __post_init__(self):
        names = set().union(*[e.variables() for e in (self.conclusion, *self.premises)])
        object.__setattr__(self, "slots", {v: i for i, v in enumerate(sorted(names))})

    def on(self, ops) -> tuple:
        """The ``(name, arity, holds)`` of ``check_laws``, compiled on the record
        ``ops``; ``holds`` tests the premises only when the conclusion fails."""
        (lhs, rhs), *premises = [[compile_term(t, ops, self.slots) for t in (e.lhs, e.rhs)]
                                 for e in (self.conclusion, *self.premises)]
        return self.name, len(self.slots), lambda *env: lhs(env) == rhs(env) or not all(
            p(env) == q(env) for p, q in premises)
