"""Reading input: descriptor JSON and command-line shorthand, and the report JSON.

Each kind writes its own descriptor JSON ({"kind": tag, params}, ``to_json``),
shorthand (``str``) and payloads; this module reads them back, splitting on the
tag or the prefix, exactly.  Input nests at most ``MAX_NESTING`` descriptors or
payload tuples deep; deeper input is a usage error before anything recurses on
it.  ``dumps`` (from ``rationals``) is deterministic, so output can be a golden.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .algebra import (CHANG, DeltaOf, FiniteChain, MvAlgebra, MvElement,
                      ProductAlgebra, RationalInterval)
from .bisemirings import TOP, TopCone, cone_elements
from .characteristics import INF, Characteristic, characteristic, parse_group_label
from .errors import UsageError
from .groups import Integers, LexZG, LGroup, QSubgroup, TrivialGroup, TropOfGroup, qsubgroup
from .rationals import dumps, parse_integer, parse_rational, rational_str
from .report import CheckReport

MAX_NESTING = 32  # so nothing that recurses over an input runs out of stack
_TOO_DEEP = f"input nests deeper than {MAX_NESTING} levels"


def _deeper(depth: int) -> int:
    """The depth one level inside ``depth``, refused beyond ``MAX_NESTING``."""
    if depth >= MAX_NESTING:
        raise UsageError(_TOO_DEEP)
    return depth + 1


# -- characteristics --------------------------------------------------------

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
    return G.to_json()


def group_from_json(data: dict, depth: int = 0) -> LGroup:
    kind = data.get("kind")
    if kind == Integers.tag:
        return Integers()
    if kind == TrivialGroup.tag:
        return TrivialGroup()
    if kind == QSubgroup.tag:
        return qsubgroup(chi_from_json(data.get("chi", {})))
    if kind == LexZG.tag:
        return LexZG(group_from_json(data.get("tail", {}), _deeper(depth)))
    raise UsageError(f"unknown group kind {kind!r}")


# -- MV algebras -----------------------------------------------------------------

def algebra_from_json(data: dict, depth: int = 0) -> MvAlgebra:
    kind = data.get("kind")
    if kind == FiniteChain.tag:
        return FiniteChain(parse_integer(data["size"], "chain size"))
    if kind == RationalInterval.tag:
        return RationalInterval()
    if kind == "chang":
        return CHANG
    if kind == DeltaOf.tag:
        return DeltaOf(group_from_json(data.get("group", {}), _deeper(depth)))
    if kind == ProductAlgebra.tag:
        factors = data.get("factors", [])
        return ProductAlgebra(tuple(algebra_from_json(f, _deeper(depth)) for f in factors))
    raise UsageError(f"unknown algebra kind {kind!r}")


# -- semifields and cones ------------------------------------------------------

def semifield_from_json(data: dict) -> TropOfGroup:
    if data.get("kind") != TropOfGroup.tag:
        raise UsageError(f"unknown semifield kind {data.get('kind')!r}")
    return TropOfGroup(group_from_json(data.get("group", {}), _deeper(0)))


def cone_to_json(T: TopCone, bound: int) -> dict:
    elems = cone_elements(T, bound)
    return {"base_group": T.base_group.to_json(),
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

def parse_chi_shorthand(text: str) -> Characteristic:
    """A group label ("Z", "Q", "Z[1/2]", "Z[1/2,1/3]") or inline characteristic JSON."""
    text = text.strip()
    if text.startswith("{"):
        return chi_from_json(_load_json(text))
    return parse_group_label(text)


def parse_group_shorthand(text: str, depth: int = 0) -> LGroup:
    """"Z", "Q", "Z[1/2]", "trivial", "lex:GROUP", or inline descriptor JSON."""
    text = text.strip()
    if text.startswith("{"):
        return _decoded(text, group_from_json, _load_json(text), depth)
    if text == "trivial":
        return TrivialGroup()
    if text.startswith("lex:"):
        return LexZG(parse_group_shorthand(text[4:], _deeper(depth)))
    return qsubgroup(parse_group_label(text))


def parse_algebra_shorthand(text: str, depth: int = 0) -> MvAlgebra:
    """"chain:N", "interval", "chang", "delta:GROUP", "prod:A,B,...", or JSON."""
    text = text.strip()
    if text.startswith("{"):
        return _decoded(text, algebra_from_json, _load_json(text), depth)
    if text == "interval":
        return RationalInterval()
    if text == "chang":
        return CHANG
    if text.startswith("chain:"):
        return FiniteChain(parse_integer(text[6:], "chain size"))
    if text.startswith("delta:"):
        return DeltaOf(parse_group_shorthand(text[6:], _deeper(depth)))
    if text.startswith("prod:"):
        parts = _split_commas(text[5:])
        for p in parts:
            if not p:
                raise UsageError(f"empty factor in product shorthand {text[5:]!r}")
            if p.startswith("prod:"):
                raise UsageError(f"factor {p!r} is a product; inside prod: write it as JSON "
                                 '{"kind":"product","factors":[...]}')
        return ProductAlgebra(tuple(parse_algebra_shorthand(p, _deeper(depth)) for p in parts))
    raise UsageError(f"unrecognized algebra shorthand {text!r}")


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
        return TropOfGroup(parse_group_shorthand(text[5:], _deeper(0)))
    raise UsageError(f"unrecognized semifield shorthand {text!r}")


def parse_payload_shorthand(A: MvAlgebra | LGroup, text: str):
    """Compact element syntax of an MV-algebra or an ℓ-group: rationals, or
    parenthesized tuples like (0,3), read by the kind's ``payload_from_json``."""
    return _decoded(text, A.payload_from_json, _parse_tuple_tree(text))


def _parse_tuple_tree(text: str, depth: int = 0):
    """"(1,(0,2))" as the JSON payload form [1, [0, 2]], with rational leaves."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return [_parse_tuple_tree(p, _deeper(depth)) for p in _split_commas(text[1:-1])]
    return parse_rational(text)


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
    except RecursionError:
        raise UsageError(_TOO_DEEP) from None
    if not isinstance(data, dict):
        raise UsageError("expected a JSON object")
    return data
