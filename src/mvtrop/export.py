"""Structure export: full operation tables as JSON and Hasse diagrams as DOT."""

from __future__ import annotations

from .algebra import (MvAlgebra, MvElement, carrier_size, element_str,
                      enumerate_payloads, is_infinitesimal_elem, payload_ops)
from .errors import DomainError
from .jsonio import algebra_to_json

MAX_EXPORT_CARRIER = 10000


def operation_tables(A: MvAlgebra, bound: int | None = None) -> dict:
    """Full ⊕/⊙/∧/∨ tables plus the negation map, as index matrices.

    Finite carriers export completely; infinite descriptors export the bounded
    fragment, in which case operation results can escape the listed elements
    and are rendered as payloads instead of indices (flagged by "fragment").
    """
    elems = _carrier(A, bound)
    fragment = carrier_size(A) is None
    ops = payload_ops(A)
    index = {p: i for i, p in enumerate(elems)}

    def cell(p):
        return index[p] if p in index else A.payload_to_json(p)

    tables = {name: [[cell(op(x, y)) for y in elems] for x in elems]
              for name, op in (("oplus", ops.oplus), ("odot", ops.odot),
                               ("meet", ops.meet), ("join", ops.join))}
    return {
        "algebra": algebra_to_json(A),
        "fragment": fragment,
        "elements": [A.payload_to_json(p) for p in elems],
        "neg": [cell(ops.neg(p)) for p in elems],
        "tables": tables,
        "boolean": [i for i, p in enumerate(elems) if ops.oplus(p, p) == p],
        "infinitesimal": [i for i, p in enumerate(elems)
                          if is_infinitesimal_elem(MvElement(A, p))],
    }


def hasse_dot(A: MvAlgebra, bound: int | None = None) -> str:
    """DOT rendering of the natural order's Hasse diagram on the (bounded) carrier.

    Boolean elements are drawn with a double border, infinitesimals filled gray.
    """
    elems = _carrier(A, bound)
    n = len(elems)
    ops = payload_ops(A)
    leq = [[ops.leq(p, q) for q in elems] for p in elems]
    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=ellipse];']
    for i, p in enumerate(elems):
        x = MvElement(A, p)
        attrs = [f'label="{element_str(x)}"']
        if ops.oplus(p, p) == p:
            attrs.append("peripheries=2")
        if is_infinitesimal_elem(x):
            attrs.append('style=filled fillcolor=lightgray')
        lines.append(f"  n{i} [{' '.join(attrs)}];")
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            covering = not any(k != i and k != j and leq[i][k] and leq[k][j]
                               and not leq[k][i] and not leq[j][k]
                               for k in range(n))
            if covering:
                lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _carrier(A: MvAlgebra, bound: int | None):
    size = carrier_size(A)
    if size is not None and size > MAX_EXPORT_CARRIER:
        raise DomainError(f"carrier of {A!r} exceeds {MAX_EXPORT_CARRIER} elements")
    elems = enumerate_payloads(A, bound)
    if len(elems) > MAX_EXPORT_CARRIER:
        raise DomainError(f"fragment of {A!r} exceeds {MAX_EXPORT_CARRIER} elements")
    return elems
