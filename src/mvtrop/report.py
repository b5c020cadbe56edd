"""Verification outcomes shared by all checkers, and the one engine that checks
laws: ``check_laws`` streams each law's instances through a pipeline of
iterators and stops at the first failure.  A law is a ``Law``, an equational
law as data whose terms fold (``terms.stream``) into ``map`` pipelines on the
record a check runs on, or a predicate on the elements of an instance, mapped
over them (``starmap``) in the same pipeline; ``check_over`` runs a table of
Laws on explicit operations and elements.

Nothing is evaluated past the first failure and nothing is held per instance:
every variable occurrence reads its own copy of one ``tee`` of the instances,
in step with the others, and the failures are ``compress``ed out of the
numbered instances (the Volcano iterator model: G. Graefe, IEEE TKDE 6(1),
1994)."""

from __future__ import annotations

from itertools import compress, count, product, starmap, tee
from operator import eq, itemgetter, ne, not_
from typing import Any, Callable, Iterable, Iterator

from .terms import Equation, stream
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
    made for a single law may ignore the arity.  ``count(arity)`` is how many it
    yields, stated before any is: ``size ** arity`` for a source that walks
    every tuple of a pool (``over``), ``samples`` for a drawn one.
    """

    def __init__(self, tuples: Callable[[int], Iterable[tuple]], count: Callable[[int], int],
                 mode: str = "exhaustive", bound: int | None = None):
        set_field(self, "tuples", tuples)
        set_field(self, "count", count)
        set_field(self, "mode", mode)
        set_field(self, "bound", bound)

    @classmethod
    def over(cls, pool: Iterable, mode: str = "exhaustive", bound: int | None = None):
        """All tuples of the elements of pool, in canonical order."""
        pool = list(pool)
        return cls(lambda arity: product(pool, repeat=arity), len(pool).__pow__, mode, bound)

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


def _failing(instances: Iterator, fails: Iterator) -> Iterator:
    """The ``(number, instance)`` pairs, numbered from 1, at which the stream
    ``fails``, one truth value per instance, is true."""
    return compress(zip(count(1), instances), fails)


def _predicate(name: str, arity: int, holds: Callable) -> tuple:
    """A predicate law as ``check_laws`` runs it: ``holds`` mapped over a copy
    of the instances."""
    def failures(instances):
        instances, = tee(instances, 1)
        return _failing(instances, map(not_, starmap(holds, instances.__copy__())))
    return name, arity, failures


def check_laws(laws: Iterable, source: Instances, ops=None) -> CheckReport:
    """Check each law on every instance of source; the first failure wins.

    A law is a ``Law``, run on the record ``ops`` (``Law.on``), or, when ops
    is None, a predicate ``(name, arity, holds)`` whose ``holds`` gets the
    elements of an instance as its arguments.  Laws run in order, each over
    ``source.tuples(arity)``, an arity-0 law once, and a law that holds adds
    ``source.count(arity)`` to ``checked``.  A counterexample's witness is
    ``(law name, instance)``, for the caller to shape; a clean bounded run is
    valid up to its bound.
    """
    checked = 0
    for name, arity, failures in [law.on(ops) if ops is not None else _predicate(*law)
                                  for law in laws]:
        for number, instance in failures(source.tuples(arity) if arity else [()]):
            return CheckReport(COUNTEREXAMPLE, checked + number, (name, instance), source.mode)
        checked += source.count(arity) if arity else 1
    return source.clean(checked)


def _compare(equations: tuple, ops, read: Callable, same: Callable) -> Iterator:
    """Per instance, ``same(lhs, rhs)`` of equations' sides on the record ops,
    variable ``name`` read from ``read(name)``: ``eq`` is whether every one of
    them holds, ``ne`` whether one fails.  The tuples of the sides are compared
    when there is more than one equation."""
    sides = [[stream(t, ops, read) for t in (e.lhs, e.rhs)] for e in equations]
    if len(sides) == 1:
        return map(same, *sides[0])
    return map(same, *[zip(*side) for side in zip(*sides)])


class Law(Value, eq=False):
    """A Horn sentence over equations: ``conclusion``, one ``Equation`` or a tuple
    of them (their conjunction), holds wherever all of ``premises`` do (an
    identity has none).  A conjunction under shared premises is one Horn clause
    per conjunct, so a law holds on a product iff it holds on each factor
    (Birkhoff: quasivarieties are closed under products).  Its slots are its
    sorted variables, bound in that order; a law hashes by identity."""

    def __init__(self, name: str, conclusion: Equation | tuple, premises: tuple = ()):
        names = set().union(*[e.variables() for e in (*conclusion, *premises)])
        set_field(self, "name", name)
        set_field(self, "conclusion", conclusion)
        set_field(self, "premises", premises)
        set_field(self, "slots", {v: i for i, v in enumerate(sorted(names))})

    def on(self, ops) -> tuple:
        """The ``(name, arity, failures)`` of ``check_laws`` on the record ops:
        ``failures(instances)`` yields the ``(number, instance)`` pairs,
        numbered from 1, of the instances on which the law fails.

        Each variable occurrence of the conclusion reads its slot from its own
        copy of one ``tee`` of the instances, and the numbering reads the tee
        itself, so all advance together.  The premises read theirs from a tee
        of the conclusion's failures and run only on those instances."""
        conclusion, premises, slots = (*self.conclusion,), self.premises, self.slots

        def failures(instances):
            instances, = tee(instances, 1)
            failing = _failing(instances, _compare(conclusion, ops, lambda name: map(
                itemgetter(slots[name]), instances.__copy__()), ne))
            if not premises:
                return failing
            pairs, = tee(failing, 1)
            return compress(pairs, _compare(premises, ops, lambda name: map(
                itemgetter(slots[name]), map(itemgetter(1), pairs.__copy__())), eq))
        return self.name, len(slots), failures


def check_over(laws: Iterable[Law], ops, elements: Iterable, show: Callable = lambda p: p):
    """Each Law of laws, on the record ops, on every tuple of elements in
    canonical order; a failure's witness is its ``axiom_witness``, shown by ``show``."""
    return check_laws(laws, Instances.over(elements), ops).shaped(
        lambda name, instance: axiom_witness(name, [show(p) for p in instance]))
