"""Rationals as "p/q" strings ("p" when integral), strict parsing of rationals
and integers, and ``dumps``: the leaves of every JSON payload and shorthand,
and the one JSON writer the descriptor kinds and the command line share.
``shown`` writes a value, a payload among them, in a message or a Hasse label
as the command line reads it."""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import UsageError

_INTEGER = re.compile(r"[+-]?[0-9]+")


def dumps(obj) -> str:
    """Deterministic compact JSON (sorted keys, no whitespace), usable as a golden."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def rational_str(q) -> str:
    """An int or a Fraction as "p/q", or "p" when integral."""
    n, d = q.as_integer_ratio()
    return str(n) if d == 1 else f"{n}/{d}"


def shown(x) -> str:
    """A value as the command line reads it: a tuple or a list as (a,b), a
    Fraction as "p/q" ("p" when integral), anything else as its JSON."""
    if type(x) is int:  # not a bool, which JSON writes as true or false
        return str(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(map(shown, x)) + ")"
    return rational_str(x) if isinstance(x, Fraction) else json.dumps(x, default=repr)


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{text!r} is not a rational") from None


def parse_integer(data, what: str) -> int:
    """An integral input: a JSON int, a string that spells an integer, or a
    shorthand rational with denominator 1.  Anything else is a usage error;
    nothing is truncated."""
    if isinstance(data, Fraction) and data.denominator == 1:
        return data.numerator
    if isinstance(data, int) and not isinstance(data, bool):
        return data
    if isinstance(data, str) and _INTEGER.fullmatch(data.strip()):
        return int(data)
    raise UsageError(f"{what} must be an integer, got {shown(data)}")
