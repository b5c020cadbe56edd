"""Verification outcomes shared by all checkers, the one engine that checks laws,
``Law``, an equational law as data, compiled on the record a full walk runs on
or evaluated a column at a time on drawn instances (``check_drawn``), and
``check_over``, which runs a table of Laws on explicit operations and elements."""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable, Iterable

from .terms import Equation, compile_term, fold
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
        """The ``(name, arity, holds)`` of ``check_laws``, compiled on the record
        ``ops``; ``holds`` tests the premises only when the conclusion fails.  A
        conjunction compares the tuples of its equations' sides."""
        sides = [[compile_term(t, ops, self.slots) for t in (e.lhs, e.rhs)]
                 for e in (*self.conclusion, *self.premises)]
        k = len(sides) - len(self.premises)  # the conclusion's equations come first
        lhs, rhs = sides[0] if k == 1 else [
            lambda env, fs=fs: tuple([f(env) for f in fs]) for fs in zip(*sides[:k])]
        premises = sides[k:]
        return self.name, len(self.slots), lambda *env: lhs(env) == rhs(env) or not all(
            p(env) == q(env) for p, q in premises)

    def first_failure(self, ops, columns: list, n: int) -> int | None:
        """The index of the first of n instances on which this law fails on the
        record ``ops``, or None; variable slot i reads its values from
        ``columns[i]``.  Each term node is one list of n values, its operation
        mapped over its children's lists.  The conclusion's sides are compared
        as lists, in C; only when they differ are the premises evaluated and
        the instances tested one by one."""
        one, zero, neg = ops.one, ops.zero, ops.neg

        def sides(equations):
            return [[fold(t, lambda name: columns[self.slots[name]],
                          lambda value: [one if value else zero] * n, lambda a: list(map(neg, a)),
                          lambda cls, a, b: list(map(getattr(ops, cls.op), a, b)))
                     for t in (e.lhs, e.rhs)] for e in equations]

        def agree(pairs):  # per instance, whether every pair of sides agrees
            each = [map(operator.eq, lhs, rhs) for lhs, rhs in pairs]
            return each[0] if len(each) == 1 else map(all, zip(*each))
        conclusion = sides(self.conclusion)
        if all([lhs == rhs for lhs, rhs in conclusion]):
            return None
        premised = agree(sides(self.premises)) if self.premises else itertools.repeat(True)
        sound = list(map(operator.le, premised, agree(conclusion)))  # premises imply conclusion
        return sound.index(False) if False in sound else None


# How many instances ``check_drawn`` draws and evaluates at a time: a sampled
# check holds O(SLICE · term size) values, whatever its number of samples.
SLICE = 512


def check_drawn(laws: Iterable[Law], ops, draw: Callable[[int], list],
                samples: int) -> CheckReport:
    """Each Law of laws on ``samples`` drawn instances, an arity-0 law on one
    instance and no draws; the first failure wins.  A law of k variables takes
    k·SLICE values at a time from ``draw(m)``, the next m draws, and instance j
    of a slice is the values j·k to j·k + k − 1 of it: its variable slot i is the
    column ``flat[i::k]``.  These are the instances, and the ``checked`` count,
    of a walk that draws each instance's values in turn and checks it; a
    counterexample's witness is ``(law name, instance)``, for the caller to
    shape and decode."""
    checked = 0
    for law in laws:
        k = len(law.slots)
        total = samples if k else 1
        for start in range(0, total, SLICE):
            n = min(SLICE, total - start)
            flat = draw(n * k)
            i = law.first_failure(ops, [flat[slot::k] for slot in range(k)], n)
            if i is not None:
                return CheckReport(COUNTEREXAMPLE, checked + start + i + 1,
                                   (law.name, tuple(flat[i * k:i * k + k])), "sampled")
        checked += total
    return CheckReport(VALID, checked, mode="sampled")


def check_over(laws: Iterable[Law], ops, elements: Iterable, show: Callable = lambda p: p):
    """Each Law of laws, compiled on the record ops, on every tuple of elements in
    canonical order; a failure's witness is its ``axiom_witness``, shown by ``show``."""
    return check_laws([law.on(ops) for law in laws], Instances.over(elements)).shaped(
        lambda name, instance: axiom_witness(name, [show(p) for p in instance]))
