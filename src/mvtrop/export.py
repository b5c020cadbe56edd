"""Structure export: full operation tables as JSON and Hasse diagrams as DOT.

The tables, the negation map and the Boolean elements are computed on the
listing's int record (``algebra.int_record``): ints on a chain or a scaled
fragment, tuples of them on a product (payloads on any other Δ(G)).  Every result
is looked up in an index of the listing keyed on the record's values; on a
fragment of an infinite carrier a result can fall outside the listing, and
only such a result is decoded and rendered as a payload.  The listing itself,
the infinitesimal marks and the diagram's nodes are decoded to payloads once
per element.

The Hasse diagram needs no order tests.  Every kind that is not a product is
a chain enumerated in ascending order, so consecutive listed elements cover
each other; a product's listing is the lexicographic product of its leaves'
(its non-product factors') listings, and its covers move one coordinate one
step up.  So the covers of element i are i + w, for each (weight w, size s) of
``algebra.record_shape`` whose digit i // w % s is not yet s − 1.  Writing
a diagram costs O(n) for n listed elements, and the tables 4n² cells.

Both listings are bounded by ``MAX_EXPORT_CARRIER`` (``algebra.sized_record``): a
finite carrier's exact size is checked before its record is built, a fragment's
shape before it is listed.
"""

from __future__ import annotations

from itertools import repeat

from .algebra import MvAlgebra, MvElement, carrier_size, element_str, record_shape, sized_record
from .errors import DomainError

MAX_EXPORT_CARRIER = 10000


def operation_tables(A: MvAlgebra, bound: int | None = None) -> dict:
    """Full ⊕/⊙/∧/∨ tables plus the negation map, as index matrices.

    Finite carriers export completely; infinite descriptors export the bounded
    fragment, in which case operation results can escape the listed elements
    and are rendered as payloads instead of indices (flagged by "fragment").
    """
    ops, xs, decode, _ = _listing(A, bound)

    class Index(dict):  # a result outside the listing is rendered as its payload
        def __missing__(self, r):
            return A.payload_to_json(decode(r))

    cell = Index((x, i) for i, x in enumerate(xs)).__getitem__
    tables = {name: [list(map(cell, map(f, repeat(x), xs))) for x in xs]
              for name, f in (("oplus", ops.oplus), ("odot", ops.odot),
                              ("meet", ops.meet), ("join", ops.join))}
    elems = [decode(x) for x in xs]
    return {
        "algebra": A.to_json(),
        "fragment": carrier_size(A) is None,
        "elements": [A.payload_to_json(p) for p in elems],
        "neg": list(map(cell, map(ops.neg, xs))),
        "tables": tables,
        "boolean": [i for i, x in enumerate(xs) if ops.oplus(x, x) == x],
        "infinitesimal": [i for i, p in enumerate(elems) if A.is_infinitesimal(p)],
    }


def hasse_dot(A: MvAlgebra, bound: int | None = None) -> str:
    """DOT rendering of the natural order's Hasse diagram on the (bounded) carrier.

    Boolean elements are drawn with a double border, infinitesimals filled gray.
    """
    ops, xs, decode, shape = _listing(A, bound)
    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=ellipse];']
    for i, x in enumerate(xs):
        p = decode(x)
        attrs = [f'label="{element_str(MvElement(A, p))}"']
        if ops.oplus(x, x) == x:
            attrs.append("peripheries=2")
        if A.is_infinitesimal(p):
            attrs.append('style=filled fillcolor=lightgray')
        lines.append(f"  n{i} [{' '.join(attrs)}];")
    for i in range(len(xs)):  # lightest leaf first, so each i's covers ascend
        lines += [f"  n{i} -> n{i + w};" for w, s in shape[::-1] if i // w % s < s - 1]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _listing(A: MvAlgebra, bound: int | None) -> tuple:
    """``algebra.int_record(A, bound)``, its values listed once, and its
    ``record_shape``, refused past ``MAX_EXPORT_CARRIER`` as the module says."""
    record = sized_record(A, bound, MAX_EXPORT_CARRIER)
    if record is None:
        what = "carrier" if carrier_size(A) is not None else "fragment"
        raise DomainError(f"{what} of {A} exceeds {MAX_EXPORT_CARRIER} elements")
    ops, values, decode = record
    return ops, list(values), decode, record_shape(A, values)
