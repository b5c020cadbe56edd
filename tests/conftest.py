"""Shared test helpers: independent oracles and random generators."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from mvtrop.terms import (CONST0, CONST1, Const, Implies, Join, Meet, Neg, Odot,
                          Ominus, Oplus, Var)

# -- independent Lukasiewicz arithmetic on [0, 1], used as an oracle ---------

def luk_oplus(x: Fraction, y: Fraction) -> Fraction:
    return min(Fraction(1), x + y)


def luk_neg(x: Fraction) -> Fraction:
    return Fraction(1) - x


def luk_odot(x: Fraction, y: Fraction) -> Fraction:
    return max(Fraction(0), x + y - 1)


# -- independent Chang arithmetic on Z lex Z pairs ---------------------------
# Python tuples compare lexicographically, which is exactly the order of
# Z lex Z, so these few lines are a genuinely separate evaluation route.

CHANG_UNIT = (1, 0)


def chang_oplus(x: tuple, y: tuple) -> tuple:
    s = (x[0] + y[0], x[1] + y[1])
    return min(s, CHANG_UNIT)


def chang_neg(x: tuple) -> tuple:
    return (CHANG_UNIT[0] - x[0], CHANG_UNIT[1] - x[1])


def chang_fragment(bound: int) -> list[tuple]:
    return [(0, n) for n in range(bound + 1)] + [(1, -m) for m in range(bound, -1, -1)]


# -- independent membership in a subgroup of Q, by factoring -------------------
# chi is given as a plain dict {prime: exponent} with a default exponent; the
# exponent inf is float("inf").

def prime_exponents(n: int) -> dict[int, int]:
    """{p: v_p(n)} for n >= 1, by trial division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def in_q_subgroup(exponents: dict, default, q: Fraction) -> bool:
    """q lies in {q : v_p(q) >= -chi(p) for all p}."""
    return all(v <= exponents.get(p, default)
               for p, v in prime_exponents(q.denominator).items())


# -- random term generation ---------------------------------------------------

_BINARY_NODES = (Oplus, Odot, Ominus, Implies, Meet, Join)


def random_term(rng: random.Random, depth: int, names=("x", "y", "z")):
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.6:
            return Var(rng.choice(names))
        return CONST0 if roll < 0.8 else CONST1
    if rng.random() < 0.25:
        return Neg(random_term(rng, depth - 1, names))
    cls = rng.choice(_BINARY_NODES)
    return cls(random_term(rng, depth - 1, names), random_term(rng, depth - 1, names))


# -- an independent scalar evaluator of terms and laws ------------------------
# A plain recursion over the term AST, one value of one instance at a time: the
# reference the law engine's pipelines are checked against.  It reads the AST
# alone, and names each connective's record operation itself.

_OPERATIONS = {Oplus: "oplus", Odot: "odot", Ominus: "ominus", Implies: "implies",
               Meet: "meet", Join: "join"}


def term_value(t, ops, env: dict):
    """t's value on the record ops, variable ``name`` bound to ``env[name]``."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return ops.one if t.value else ops.zero
    if isinstance(t, Neg):
        return ops.neg(term_value(t.arg, ops, env))
    return getattr(ops, _OPERATIONS[type(t)])(term_value(t.left, ops, env),
                                               term_value(t.right, ops, env))


def term_names(t) -> set:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Const):
        return set()
    if isinstance(t, Neg):
        return term_names(t.arg)
    return term_names(t.left) | term_names(t.right)


def law_names(law) -> list:
    """The sorted variables of a law's conclusion and premises, its instances' slots."""
    equations = [*law.conclusion, *law.premises]  # an Equation iterates as itself alone
    return sorted(set().union(*[term_names(e.lhs) | term_names(e.rhs) for e in equations]))


def law_holds(law, ops, instance) -> bool:
    """Whether the Horn law holds on instance, on the record ops: every equation
    of its conclusion, wherever all of its premises hold."""
    env = dict(zip(law_names(law), instance))

    def true(e):
        return term_value(e.lhs, ops, env) == term_value(e.rhs, ops, env)
    return all(map(true, law.conclusion)) or not all(map(true, law.premises))


def reference_report(laws, ops, tuples, mode="exhaustive", bound=None) -> dict:
    """The fields of a check's report, instance by instance: each law on the
    record ops over ``tuples(arity)`` in turn, an arity-0 law once, numbered
    from 1 across the laws; the first failure wins, with ``(law name,
    instance)`` its witness, and a clean bounded run is valid up to its bound."""
    checked = 0
    for law in laws:
        arity = len(law_names(law))
        for instance in tuples(arity) if arity else [()]:
            checked += 1
            if not law_holds(law, ops, instance):
                return dict(verdict="counterexample", checked=checked,
                            witness=(law.name, instance), mode=mode)
    if mode == "bounded":
        return dict(verdict="valid_up_to_bound", checked=checked, mode=mode,
                    details={"bound": bound})
    return dict(verdict="valid", checked=checked, mode=mode)


def reference_walk(laws, ops, pool, bound=None) -> dict:
    """``reference_report`` over every tuple of pool in canonical order,
    exhaustive or, with a bound, bounded."""
    return reference_report(laws, ops, lambda arity: itertools.product(pool, repeat=arity),
                            "exhaustive" if bound is None else "bounded", bound)


# -- reference draws for sampled checks ----------------------------------------

def reference_draws(pool: list, samples: int, seed: int):
    """The instances of a sampled check, drawn straight from a payload listing:
    ``tuples(arity)`` yields ``samples`` tuples of ``random.Random(seed).choice``s,
    one generator shared by every call, as the laws of one check share it."""
    rng = random.Random(seed)
    return lambda arity: (tuple(rng.choice(pool) for _ in range(arity))
                          for _ in range(samples))


# -- reference listings, built without the int record ------------------------

def reference_fragment(G, bound) -> list:
    """G's bounded fragment in ascending order, built without any scaled ints:
    [−bound, bound] on Z, [0] on the trivial group, the members n/d of a
    subgroup of Q with |n/d| <= bound and d <= bound, sorted as Fractions, and
    on Z lex G the pairs of [−bound, bound] and the tail's fragment."""
    if G.tag == "integers":
        return list(range(-bound, bound + 1))
    if G.tag == "trivial":
        return [0]
    if G.tag == "lex_zg":
        return [(a, t) for a in range(-bound, bound + 1)
                for t in reference_fragment(G.tail, bound)]
    cone = sorted({Fraction(n, d) for d in range(1, bound + 1)
                   if G.ops.contains(Fraction(1, d)) for n in range(bound * d + 1)})
    return [-q for q in cone[:0:-1]] + cone


def reference_listing(A, bound=None) -> list:
    """A's payload listing built without any int record: a finite chain's
    k/(n − 1) in order, the interval's Farey sequence of order ``bound``,
    Δ(G)'s (0, g) over its group's ``reference_fragment`` from 0 up, then
    (1, g) from its bottom up to 0, and a product's ``itertools.product`` of
    its factors' listings at any depth."""
    if A.tag == "product":
        return list(itertools.product(*(reference_listing(f, bound) for f in A.factors)))
    if A.tag == "finite_chain":
        return [Fraction(k, A.size - 1) for k in range(A.size)]
    if A.tag == "rational_interval":
        return sorted({Fraction(n, d) for d in range(1, bound + 1) for n in range(d + 1)})
    fragment = reference_fragment(A.group, bound)
    mid = len(fragment) // 2
    return [(0, g) for g in fragment[mid:]] + [(1, g) for g in fragment[:mid + 1]]


def reference_shape(A, bound=None) -> list:
    """The (weight, size) of each leaf (non-product factor, at any depth) of A,
    built without any int record: its size its ``reference_listing``'s length,
    its weight the product of the sizes of the leaves after it."""
    def leaves(B):
        return [f for g in B.factors for f in leaves(g)] if B.tag == "product" else [B]
    shape, weight = [], 1
    for leaf in reversed(leaves(A)):
        size = len(reference_listing(leaf, bound))
        shape.insert(0, (weight, size))
        weight *= size
    return shape
