"""Verification outcomes shared by all checkers, and the one engine that checks laws."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

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
    made for a single law may ignore the arity.
    """

    tuples: Callable[[int], Iterable[tuple]]
    mode: str = "exhaustive"
    bound: int | None = None

    @classmethod
    def over(cls, pool: Iterable, mode: str = "exhaustive", bound: int | None = None):
        """All tuples of the elements of pool, in canonical order."""
        pool = list(pool)
        return cls(lambda arity: itertools.product(pool, repeat=arity), mode, bound)


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
    if source.mode == "bounded":
        return CheckReport(VALID_UP_TO_BOUND, checked, mode="bounded",
                           details={"bound": source.bound})
    return CheckReport(VALID, checked, mode=source.mode)
