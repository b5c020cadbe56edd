"""Shared test helpers: independent oracles and random generators."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from mvtrop.terms import (CONST0, CONST1, Implies, Join, Meet, Neg, Odot,
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


# -- reference draws for sampled checks ----------------------------------------

def reference_draws(pool: list, samples: int, seed: int):
    """The instances of a sampled check, drawn straight from a payload listing:
    ``tuples(arity)`` yields ``samples`` tuples of ``random.Random(seed).choice``s,
    one generator shared by every call, as the laws of one check share it."""
    rng = random.Random(seed)
    return lambda arity: (tuple(rng.choice(pool) for _ in range(arity))
                          for _ in range(samples))


# -- reference listings, built without the int record ------------------------

def reference_listing(A, bound=None) -> list:
    """A's payload listing built without any int record: a finite chain's
    k/(n − 1) in order, a product's ``itertools.product`` of its factors'
    listings at any depth, and the interval's and Δ(G)'s own ``enumerate``."""
    if A.tag == "product":
        return list(itertools.product(*(reference_listing(f, bound) for f in A.factors)))
    if A.tag == "finite_chain":
        return [Fraction(k, A.size - 1) for k in range(A.size)]
    return A.enumerate(bound)
