"""Canonical JSON encodings and command-line shorthand parsing.

This module is the registry of descriptor codecs: the "kind" tags of the JSON
form ({"kind": ..., params}) and the shorthand spellings, each encoder next to
its decoder.  Payloads belong to their kinds: elements render as
{"algebra": ..., "payload": A.payload_to_json(payload)}, and rationals as "p/q"
strings ("p" when the denominator is 1; see ``rationals``).  Every
encoder/decoder pair round-trips exactly, and ``dumps`` is deterministic
(sorted keys, no whitespace) so command output can be used as goldens.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .algebra import (CHANG, DeltaOf, FiniteChain, MvAlgebra, MvElement,
                      ProductAlgebra, RationalInterval, element)
from .bisemirings import TOP, TopCone, cone_elements
from .characteristics import (INF, Characteristic, characteristic,
                              group_label, parse_group_label)
from .errors import UsageError
from .groups import (Integers, LexZG, LGroup, QSubgroup, TrivialGroup,
                     TropOfGroup, qsubgroup)
from .rationals import parse_integer, parse_rational, rational_str
from .report import CheckReport


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


# -- characteristics --------------------------------------------------------

def chi_to_json(chi: Characteristic) -> dict:
    return {
        "default": "inf" if chi.default == INF else "0",
        "primes": {str(p): ("inf" if e == INF else str(int(e)))
                   for p, e in chi.primes},
    }


def chi_from_json(data: dict) -> Characteristic:
    try:
        default = data["default"]
        assignments = {parse_integer(p, "prime"):
                       (INF if e == "inf" else parse_integer(e, "exponent"))
                       for p, e in data.get("primes", {}).items()}
    except (KeyError, TypeError, ValueError, AttributeError):
        raise UsageError(f"malformed characteristic JSON: {data!r}") from None
    if default not in ("inf", "0") and not (default == 0 and type(default) is int):
        raise UsageError('characteristic default must be "inf" or "0", got '
                         + json.dumps(default, default=repr))
    return characteristic(assignments, INF if default == "inf" else 0)


# -- groups ------------------------------------------------------------------

def group_to_json(G: LGroup) -> dict:
    if isinstance(G, Integers):
        return {"kind": "integers"}
    if isinstance(G, TrivialGroup):
        return {"kind": "trivial"}
    if isinstance(G, QSubgroup):
        return {"kind": "q_subgroup", "chi": chi_to_json(G.chi)}
    return {"kind": "lex_zg", "tail": group_to_json(G.tail)}


def group_from_json(data: dict) -> LGroup:
    kind = data.get("kind")
    if kind == "integers":
        return Integers()
    if kind == "trivial":
        return TrivialGroup()
    if kind == "q_subgroup":
        return qsubgroup(chi_from_json(data.get("chi", {})))
    if kind == "lex_zg":
        return LexZG(group_from_json(data.get("tail", {})))
    raise UsageError(f"unknown group kind {kind!r}")


# -- MV algebras and elements -------------------------------------------------

def algebra_to_json(A: MvAlgebra) -> dict:
    if isinstance(A, FiniteChain):
        return {"kind": "finite_chain", "size": A.size}
    if isinstance(A, RationalInterval):
        return {"kind": "rational_interval"}
    if isinstance(A, DeltaOf):
        if A == CHANG:
            return {"kind": "chang"}
        return {"kind": "delta", "group": group_to_json(A.group)}
    return {"kind": "product", "factors": [algebra_to_json(f) for f in A.factors]}


def algebra_from_json(data: dict) -> MvAlgebra:
    kind = data.get("kind")
    if kind == "finite_chain":
        return FiniteChain(parse_integer(data["size"], "chain size"))
    if kind == "rational_interval":
        return RationalInterval()
    if kind == "chang":
        return CHANG
    if kind == "delta":
        return DeltaOf(group_from_json(data.get("group", {})))
    if kind == "product":
        return ProductAlgebra(tuple(algebra_from_json(f) for f in data.get("factors", [])))
    raise UsageError(f"unknown algebra kind {kind!r}")


def element_to_json(x: MvElement) -> dict:
    return {"algebra": algebra_to_json(x.algebra),
            "payload": x.algebra.payload_to_json(x.payload)}


def element_from_json(data: dict) -> MvElement:
    A = algebra_from_json(data.get("algebra", {}))
    return element(A, A.payload_from_json(data.get("payload")))


# -- semifields and cones ------------------------------------------------------

def semifield_to_json(S: TropOfGroup) -> dict:
    return {"kind": "trop", "group": group_to_json(S.group)}


def semifield_from_json(data: dict) -> TropOfGroup:
    if data.get("kind") != "trop":
        raise UsageError(f"unknown semifield kind {data.get('kind')!r}")
    return TropOfGroup(group_from_json(data.get("group", {})))


def cone_to_json(T: TopCone, bound: int) -> dict:
    elems = cone_elements(T, bound)
    return {"base_group": group_to_json(T.base_group),
            "elements": [("⊤" if x is TOP else T.base_group.payload_to_json(x))
                         for x in elems],
            "top": "⊤"}


# -- reports -------------------------------------------------------------------

def encode_value(v: Any) -> Any:
    """Best-effort JSON form for witnesses: payloads for elements, strings for
    rationals, and the repr of anything else (-inf and ⊤ among them)."""
    if isinstance(v, MvElement):
        return v.algebra.payload_to_json(v.payload)
    if isinstance(v, Fraction):
        return rational_str(v)
    if isinstance(v, dict):
        return {str(k): encode_value(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode_value(u) for u in v]
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return repr(v)


def report_to_json(r: CheckReport) -> dict:
    out: dict[str, Any] = {"verdict": r.verdict, "checked": r.checked, "mode": r.mode}
    if r.witness is not None:
        out["witness"] = encode_value(r.witness)
    if r.details:
        out["details"] = encode_value(r.details)
    return out


# -- command-line shorthand ------------------------------------------------------

def parse_group_shorthand(text: str) -> LGroup:
    """"Z", "Q", "Z[1/2]", "trivial", "lex:GROUP", or inline descriptor JSON."""
    text = text.strip()
    if text.startswith("{"):
        return _decoded(text, group_from_json, _load_json(text))
    if text == "trivial":
        return TrivialGroup()
    if text.startswith("lex:"):
        return LexZG(parse_group_shorthand(text[4:]))
    return qsubgroup(parse_group_label(text))


def group_shorthand(G: LGroup) -> str:
    """Compact spelling of a group where one exists, else its JSON."""
    if isinstance(G, Integers):
        return "Z"
    if isinstance(G, TrivialGroup):
        return "trivial"
    if isinstance(G, LexZG):
        return "lex:" + group_shorthand(G.tail)
    label = group_label(G.chi)
    return dumps(group_to_json(G)) if label is None else label


def parse_algebra_shorthand(text: str) -> MvAlgebra:
    """"chain:N", "interval", "chang", "delta:GROUP", "prod:A,B,...", or JSON."""
    text = text.strip()
    if text.startswith("{"):
        return _decoded(text, algebra_from_json, _load_json(text))
    if text == "interval":
        return RationalInterval()
    if text == "chang":
        return CHANG
    if text.startswith("chain:"):
        return FiniteChain(parse_integer(text[6:], "chain size"))
    if text.startswith("delta:"):
        return DeltaOf(parse_group_shorthand(text[6:]))
    if text.startswith("prod:"):
        parts = _split_commas(text[5:])
        for p in parts:
            if not p:
                raise UsageError(f"empty factor in product shorthand {text[5:]!r}")
            if p.startswith("prod:"):
                raise UsageError(f"factor {p!r} is a product; write a product inside prod: "
                                 'as descriptor JSON {"kind":"product","factors":[...]}')
        return ProductAlgebra(tuple(parse_algebra_shorthand(p) for p in parts))
    raise UsageError(f"unrecognized algebra shorthand {text!r}")


def algebra_shorthand(A: MvAlgebra) -> str:
    if isinstance(A, FiniteChain):
        return f"chain:{A.size}"
    if isinstance(A, RationalInterval):
        return "interval"
    if A == CHANG:
        return "chang"
    if isinstance(A, DeltaOf):
        return "delta:" + group_shorthand(A.group)
    return "prod:" + ",".join(dumps(algebra_to_json(f)) if isinstance(f, ProductAlgebra)
                              else algebra_shorthand(f) for f in A.factors)


def _split_commas(text: str) -> list[str]:
    """Split "chain:2,delta:Z[1/2,1/3]" or "1,(0,2)" on the commas outside
    (...), [...] and {...}; each piece is stripped."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text + ","):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    return parts


def parse_semifield_shorthand(text: str) -> TropOfGroup:
    text = text.strip()
    if text.startswith("{"):
        return _decoded(text, semifield_from_json, _load_json(text))
    if text.startswith("trop:"):
        return TropOfGroup(parse_group_shorthand(text[5:]))
    raise UsageError(f"unrecognized semifield shorthand {text!r}")


def parse_payload_shorthand(A: MvAlgebra, text: str):
    """Compact element syntax: rationals, or parenthesized tuples like (0,3)."""
    return _decoded(text, A.payload_from_json, _parse_tuple_tree(text))


def _parse_tuple_tree(text: str):
    """"(1,(0,2))" as the JSON payload form [1, [0, 2]], with rational leaves."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return [_parse_tuple_tree(p) for p in _split_commas(text[1:-1])]
    return parse_rational(text)


def parse_group_element_shorthand(G: LGroup, text: str):
    return _decoded(text, G.payload_from_json, _parse_tuple_tree(text))


def _decoded(text: str, decoder, *args):
    """Run a decoder on parsed command-line ``text``; malformed fields are usage errors."""
    try:
        return decoder(*args)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise UsageError(f"malformed input {text!r}: {exc}") from None


def _load_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError("expected a JSON object")
    return data
