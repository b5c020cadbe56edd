"""Export against an independent in-test oracle.

The oracle knows each algebra as Γ(H, u), the unit interval of a totally
ordered group H: chains and the interval are Fractions in [0, 1] with u = 1,
and Δ(G) is Z lex G with u = (1, 0), written as nested tuples.  Python
compares tuples lexicographically and the oracle adds them componentwise, so
x ⊕ y = min(x + y, u), ¬x = u − x and x ⊙ y = max(x + y − u, 0) are a few
lines that share nothing with ``mvtrop.algebra``.  Listings are written out
from their definitions, and products are componentwise over the lexicographic
product of their factors' listings.  The expected tables index results that
lie in the listing and render the rest, and the expected Hasse diagram takes
its covers from the brute-force order relation.
"""

import gc
import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from mvtrop.algebra import (CHANG, DeltaOf, FiniteChain, RationalInterval,
                            carrier_size, enumerate_payloads, int_record,
                            payload_ops, product_algebra)
from mvtrop.export import hasse_dot, operation_tables
from mvtrop.groups import TRIVIAL, LexZG, Z
from mvtrop.jsonio import parse_algebra_shorthand


def _add(x, y):
    return tuple(map(_add, x, y)) if isinstance(x, tuple) else x + y


def _sub(x, y):
    return tuple(map(_sub, x, y)) if isinstance(x, tuple) else x - y


def _q(x) -> str:
    return str(Fraction(x))


class Gamma:
    """Γ(H, u) on an explicit listing of its elements, which is sorted here."""

    def __init__(self, elements, unit, render, infinitesimal):
        self.elements = sorted(elements)
        self.unit, self.zero = unit, _sub(unit, unit)
        self.render, self.infinitesimal = render, infinitesimal

    def oplus(self, x, y):
        return min(_add(x, y), self.unit)

    def odot(self, x, y):
        return max(_sub(_add(x, y), self.unit), self.zero)

    def neg(self, x):
        return _sub(self.unit, x)

    def leq(self, x, y):
        return x <= y

    def meet(self, x, y):
        return min(x, y)

    def join(self, x, y):
        return max(x, y)


class Prod:
    """Componentwise over the factors; elements in lexicographic order."""

    def __init__(self, *factors):
        self.factors = factors
        self.elements = list(itertools.product(*(f.elements for f in factors)))

    def _each(self, name, *xs):
        return [getattr(f, name)(*args) for f, *args in zip(self.factors, *xs)]

    def oplus(self, x, y):
        return tuple(self._each("oplus", x, y))

    def odot(self, x, y):
        return tuple(self._each("odot", x, y))

    def neg(self, x):
        return tuple(self._each("neg", x))

    def meet(self, x, y):
        return tuple(self._each("meet", x, y))

    def join(self, x, y):
        return tuple(self._each("join", x, y))

    def leq(self, x, y):
        return all(self._each("leq", x, y))

    def render(self, x):
        return self._each("render", x)

    def infinitesimal(self, x):
        return all(self._each("infinitesimal", x))


def chain(n):
    return Gamma([Fraction(k, n - 1) for k in range(n)], Fraction(1), _q, lambda x: x == 0)


def interval(bound):
    farey = {Fraction(p, q) for q in range(1, bound + 1) for p in range(q + 1)}
    return Gamma(farey, Fraction(1), _q, lambda x: x == 0)


def delta(group_fragment, zero_g, render_g):
    """Δ(G) on a fragment of G: (0, g) and (1, −g) for each g ≥ 0 listed."""
    cone = [g for g in group_fragment if g >= zero_g]
    elements = [(0, g) for g in cone] + [(1, _sub(zero_g, g)) for g in cone]
    return Gamma(elements, (1, zero_g), lambda x: [x[0], render_g(x[1])],
                 lambda x: x[0] == 0)


DELTA_TRIVIAL = delta([0], 0, _q)


def _tuple_text(data) -> str:
    if isinstance(data, list):
        return "(" + ",".join(map(_tuple_text, data)) + ")"
    return str(data)


def expected_tables(O, fragment):
    xs = O.elements
    index = {x: i for i, x in enumerate(xs)}

    def cell(v):
        return index[v] if v in index else O.render(v)

    return {
        "fragment": fragment,
        "elements": [O.render(x) for x in xs],
        "neg": [cell(O.neg(x)) for x in xs],
        "tables": {name: [[cell(getattr(O, name)(x, y)) for y in xs] for x in xs]
                   for name in ("oplus", "odot", "meet", "join")},
        "boolean": [i for i, x in enumerate(xs) if O.oplus(x, x) == x],
        "infinitesimal": [i for i, x in enumerate(xs) if O.infinitesimal(x)],
    }


def expected_dot(O):
    xs = O.elements
    n = len(xs)
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=ellipse];"]
    for i, x in enumerate(xs):
        attrs = [f'label="{_tuple_text(O.render(x))}"']
        if O.oplus(x, x) == x:
            attrs.append("peripheries=2")
        if O.infinitesimal(x):
            attrs.append("style=filled fillcolor=lightgray")
        lines.append(f"  n{i} [{' '.join(attrs)}];")
    below = [[O.leq(x, y) and x != y for y in xs] for x in xs]
    for i in range(n):
        for j in range(n):
            if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n)):
                lines.append(f"  n{i} -> n{j};")
    return "\n".join(lines + ["}"]) + "\n"


L = {n: FiniteChain(n) for n in range(2, 13)}
DT = DeltaOf(TRIVIAL)

# (descriptor, bound, oracle); a bound marks a fragment of an infinite carrier.
CASES = [(L[n], None, chain(n)) for n in range(2, 13)] + [
    (DT, None, DELTA_TRIVIAL),
    (product_algebra(L[2], L[3]), None, Prod(chain(2), chain(3))),
    (product_algebra(L[2], product_algebra(L[3], L[2])), None,
     Prod(chain(2), Prod(chain(3), chain(2)))),
    (product_algebra(DT, L[3]), None, Prod(DELTA_TRIVIAL, chain(3))),
    (product_algebra(L[3], DT, L[2]), None, Prod(chain(3), DELTA_TRIVIAL, chain(2))),
    (product_algebra(product_algebra(DT, L[4]), DT), None,
     Prod(Prod(DELTA_TRIVIAL, chain(4)), DELTA_TRIVIAL)),
    (CHANG, 3, delta(range(-3, 4), 0, _q)),
    (RationalInterval(), 5, interval(5)),
    (parse_algebra_shorthand("delta:Z[1/2]"), 2,
     delta({Fraction(k, d) for d in (1, 2) for k in range(-2 * d, 2 * d + 1)}, Fraction(0), _q)),
    (DeltaOf(LexZG(Z)), 1,
     delta(list(itertools.product(range(-1, 2), repeat=2)), (0, 0), lambda g: [g[0], _q(g[1])])),
    (parse_algebra_shorthand("prod:chang,chain:3"), 2,
     Prod(delta(range(-2, 3), 0, _q), chain(3))),
]
IDS = [repr(A) + ("" if bound is None else f"@{bound}") for A, bound, _ in CASES]


@pytest.mark.parametrize("A, bound, oracle", CASES, ids=IDS)
def test_operation_tables_match_the_oracle(A, bound, oracle):
    got = operation_tables(A, bound)
    assert got.pop("algebra")["kind"]
    assert got == expected_tables(oracle, fragment=bound is not None)


@pytest.mark.parametrize("A, bound, oracle", CASES, ids=IDS)
def test_hasse_dot_matches_the_oracle(A, bound, oracle):
    assert hasse_dot(A, bound) == expected_dot(oracle)


# -- the int record and the invariant the native covers rest on ----------------

def _products(factors):
    return st.lists(factors, min_size=1, max_size=3).map(lambda fs: product_algebra(*fs))


_LEAVES = st.sampled_from([FiniteChain(n) for n in range(2, 8)] + [DeltaOf(TRIVIAL)])
_FACTORS = _LEAVES | _products(_LEAVES | _products(_LEAVES))  # products nested twice
_FINITE = (_LEAVES | _products(_FACTORS)).filter(lambda A: carrier_size(A) <= 48)


@settings(max_examples=40, deadline=None)
@given(_FINITE)
def test_int_record_agrees_with_the_payload_record(A):
    elems = enumerate_payloads(A)
    record, ops = int_record(A), payload_ops(A)
    rec, values, decode = record.ops, record.values, record.decode
    assert [decode(a) for a in values] == elems
    assert (decode(rec.zero), decode(rec.one)) == (ops.zero, ops.one)
    for a, p in zip(values, elems):
        assert decode(rec.neg(a)) == ops.neg(p)
        for b, q in zip(values, elems):
            for name in ("oplus", "odot", "join", "meet"):
                assert decode(getattr(rec, name)(a, b)) == getattr(ops, name)(p, q)
            assert rec.leq(a, b) == ops.leq(p, q)


@pytest.mark.parametrize("export, text, bound", [
    (operation_tables, "delta:Z[1/2]", 3), (operation_tables, "interval", 5),
    (hasse_dot, "prod:chang,chain:3", 2), (hasse_dot, "prod:interval,chang,interval", 1)])
def test_an_export_lists_each_infinite_leaf_once(export, text, bound, monkeypatch):
    A = parse_algebra_shorthand(text)
    listed = []
    for kind in (RationalInterval, DeltaOf):
        def counted(self, b, build=kind.build_int_record):
            listed.append(self)
            return build(self, b)
        monkeypatch.setattr(kind, "build_int_record", counted)
    export(A, bound)  # a leaf that repeats is listed once too
    assert listed == list(dict.fromkeys(
        f for f in getattr(A, "factors", [A]) if carrier_size(f) is None))


def test_a_product_with_an_infinite_factor_has_an_int_record():
    A = product_algebra(FiniteChain(2), CHANG)
    record = int_record(A, 2)
    rec, values, decode = record.ops, record.values, record.decode
    T = 9 << 64  # Chang's (bit, g) as bit·T + g at bound 2
    assert [values[i] for i in range(6)] == [(0, 0), (0, 1), (0, 2), (0, T - 2), (0, T - 1),
                                             (0, T)]
    assert [decode(values[i]) for i in range(6)] == [
        (Fraction(0), p) for p in [(0, 0), (0, 1), (0, 2), (1, -2), (1, -1), (1, 0)]]
    assert [decode(v) for v in values] == enumerate_payloads(A, 2)
    assert decode(rec.oplus(values[1], values[-1])) == (Fraction(1), (1, 0))


@pytest.mark.parametrize("text, bound", [("chain:50", None), ("delta:Z[1/2]", 3),
                                         ("prod:chang,chain:3", 2)])
def test_an_export_leaves_nothing_for_the_garbage_collector(text, bound):
    A = parse_algebra_shorthand(text)
    operation_tables(A, bound)
    gc.collect()
    gc.disable()
    try:
        operation_tables(A, bound)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("A", [FiniteChain(2), FiniteChain(9), RationalInterval(), CHANG,
                               *(parse_algebra_shorthand("delta:" + g) for g in
                                 ("Z[1/2]", "Z[1/6]", "Q", "lex:Z", "trivial"))], ids=repr)
@pytest.mark.parametrize("bound", [1, 2, 5])
def test_each_kind_enumerates_in_strictly_ascending_order(A, bound):
    leq = payload_ops(A).leq
    elems = enumerate_payloads(A, bound)
    assert all(leq(p, q) and not leq(q, p) for p, q in zip(elems, elems[1:]))


@pytest.mark.parametrize("n", [2, 3, 10, 200])
def test_a_chain_has_one_cover_per_step(n):
    assert hasse_dot(FiniteChain(n)).count("->") == n - 1


@pytest.mark.parametrize("a, b", [(2, 2), (2, 5), (4, 3), (7, 7)])
def test_a_grid_has_one_cover_per_coordinate_step(a, b):
    assert hasse_dot(product_algebra(FiniteChain(a), FiniteChain(b))).count("->") == \
        a * (b - 1) + b * (a - 1)
