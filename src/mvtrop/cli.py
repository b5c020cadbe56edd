"""Command-line surface: construction, evaluation, checking, and export.

Exit codes: 0 success or valid, 1 counterexample found, 2 usage or parse
error or output that cannot be written, 3 domain error or out of memory.  Every
message is one stderr line of at most 120 characters; a longer one is cut in
the middle.  Output is deterministic compact JSON by default, human-readable
with --pretty, DOT with --dot (export).  The environment variable
MVTROP_DEFAULT_BOUND supplies the fragment bound when --bound is omitted.

Each verb is listed once, in ``_VERBS``: its handler, its help line and its
arguments as plain ``add_argument`` options.  ``build_parser``, the dispatch
table ``_HANDLERS`` and the plain reader ``_plain`` are all read off it.  A
plain command line, a verb followed by its positionals and its options each
given once by full name, with values that do not start with "-", is read off
``_VERBS`` into the namespace argparse would give, and argparse is not
imported.  Anything else, help, an error, an abbreviation, ``--opt=value``, a
repeat or a value starting with "-", goes to argparse, the only source of help,
usage and error text: a line that starts with a verb to that verb's own parser,
built alone on first use (``_parser(verb)``) with the same arguments, prog,
usage and messages as the verb's subparser in ``build_parser``, and a line
that names no verb (empty, ``-h`` or an unknown word) to the whole parser.
A token that is not a str, which only a caller in Python can pass, is refused
with exit 2 before either reads the line.  The checker verbs share
``_verdict`` for their exit code and the report's fields.
"""

from __future__ import annotations

import functools
import os
import re
import sys
import types
from typing import TYPE_CHECKING

from .algebra import carrier_size, element
from .errors import DomainError, MvtropError, TermSyntaxError, UsageError
from .functors import (delta, detrop, f_equiv, gamma, glue_boolean_perfect,
                       theta, theta_star, trop)
from .jsonio import (cone_to_json, dumps, parse_algebra_shorthand, parse_chi_shorthand,
                     parse_group_shorthand, parse_payload_shorthand,
                     parse_semifield_shorthand, rational_str, report_to_json)
from .logic import (Valuation, axiom_suite, check_equation_bounded,
                    default_chang_bound, evaluate, parse_equation,
                    tautology_check, vc_membership)
from .qpoints import (check_flatness, classify_regularity, frobenius_action,
                      gp_invariant, hom_exists, hom_obstruction, theta_pt)
from .terms import parse, print_term

if TYPE_CHECKING:  # argparse is imported only for a line that _plain leaves to it
    import argparse


def _default_bound(args, fallback: int) -> int:
    if args.bound is not None:
        return args.bound
    env = os.environ.get("MVTROP_DEFAULT_BOUND")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"MVTROP_DEFAULT_BOUND={env!r} is not an integer") from None
    return fallback


def _fragment_bound(args, A, fallback: int) -> int | None:
    """None on a finite carrier (walk all of it), else the fragment bound."""
    return None if carrier_size(A) is not None else _default_bound(args, fallback)


def _verdict(report, **head) -> tuple[int, dict]:
    """A checker verb's exit code (1 on a counterexample) and ``head`` with the report."""
    return (0 if report.ok else 1), {**head, **report_to_json(report)}


# -- verb handlers -----------------------------------------------------------

_VARIABLE = re.compile(r"[a-z][a-z0-9_]*")  # the term grammar's variable names


def _cmd_eval(args):
    A = parse_algebra_shorthand(args.algebra)
    term = parse(args.term)
    bindings = {}
    if args.assign:
        for piece in args.assign.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise UsageError(f"bad assignment {piece!r}; use name=payload")
            name, payload = piece.split("=", 1)
            name = name.strip()
            if not _VARIABLE.fullmatch(name):
                raise UsageError(f"{name!r} is not a variable name; use [a-z][a-z0-9_]*")
            if name in bindings:
                raise UsageError(f"variable {name!r} is assigned twice")
            bindings[name] = element(A, parse_payload_shorthand(A, payload))
    value = evaluate(term, Valuation(A, bindings))
    return 0, {"algebra": A.to_json(), "term": print_term(term),
               "value": A.payload_to_json(value.payload)}


def _cmd_check_eq(args):
    A = parse_algebra_shorthand(args.algebra)
    eq = parse_equation(args.equation)
    bound = None
    if carrier_size(A) is None:  # the fallback folds over eq: computed only when it is used
        bound = _default_bound(args, None)
        if bound is None:
            bound = default_chang_bound(eq)
    return _verdict(check_equation_bounded(eq, A, bound), algebra=A.to_json())


def _cmd_tautology(args):
    A = parse_algebra_shorthand(args.algebra)
    return _verdict(tautology_check(parse(args.term), A), algebra=A.to_json())


def _theta_listing(args, builder):
    A = parse_algebra_shorthand(args.algebra)
    bound = _fragment_bound(args, A, 10)
    return 0, {"algebra": A.to_json(), "bound": bound,
               "elements": [A.payload_to_json(p) for p in builder(A).payloads(bound)]}


def _cmd_theta(args):
    return _theta_listing(args, theta)


def _cmd_theta_star(args):
    return _theta_listing(args, theta_star)


def _cmd_gamma(args):
    G = parse_group_shorthand(args.group)
    return 0, {"algebra": gamma(G, parse_payload_shorthand(G, args.unit)).to_json()}


def _cmd_delta(args):
    return 0, {"algebra": delta(parse_group_shorthand(args.group)).to_json()}


def _cmd_trop(args):
    return 0, {"semifield": trop(parse_group_shorthand(args.group)).to_json()}


def _cmd_detrop(args):
    return 0, {"group": detrop(parse_semifield_shorthand(args.semifield)).to_json()}


def _cmd_f(args):
    S = parse_semifield_shorthand(args.semifield)
    return 0, cone_to_json(f_equiv(S), _default_bound(args, 10))


def _cmd_glue(args):
    B = parse_algebra_shorthand(args.boolean)
    P = parse_algebra_shorthand(args.perfect)
    return 0, {"algebra": glue_boolean_perfect(B, P).to_json()}


def _cmd_vc_member(args):
    A = parse_algebra_shorthand(args.algebra)
    report = vc_membership(A)
    return _verdict(report, algebra=A.to_json(), in_variety=report.ok)


def _cmd_gp(args):
    chi = parse_chi_shorthand(args.group)
    inv = gp_invariant(chi, args.prime)
    return 0, {"group": chi.to_json(), "prime": inv.prime, "value": inv.value}


def _cmd_classify(args):
    chi = parse_chi_shorthand(args.group)
    return 0, {"group": chi.to_json(), "classification": classify_regularity(chi)}


def _cmd_hom(args):
    src, dst = parse_chi_shorthand(args.src), parse_chi_shorthand(args.dst)
    r = hom_exists(src, dst)
    out = {"src": src.to_json(), "dst": dst.to_json(), "exists": r is not None}
    if r is not None:
        out["r"] = rational_str(r)
    else:
        out["certificate_prime"] = hom_obstruction(src, dst)
    return 0, out


def _cmd_flat_check(args):
    chi = parse_chi_shorthand(args.group)
    report = check_flatness(frobenius_action(chi), samples=args.samples, seed=args.seed)
    return _verdict(report, group=chi.to_json())


def _cmd_theta_pt(args):
    return 0, cone_to_json(theta_pt(parse_chi_shorthand(args.group)), _default_bound(args, 10))


def _cmd_axioms(args):
    A = parse_algebra_shorthand(args.algebra)
    if carrier_size(A) is not None and args.samples is None:
        report = axiom_suite(A)
    else:
        samples = 500 if args.samples is None else args.samples
        report = axiom_suite(A, samples=samples, seed=args.seed, bound=_default_bound(args, 12))
    return _verdict(report, algebra=A.to_json())


def _cmd_export(args):
    from .export import hasse_dot, operation_tables
    A = parse_algebra_shorthand(args.algebra)
    return 0, (hasse_dot if args.dot else operation_tables)(A, _fragment_bound(args, A, 10))


# -- the verb table -------------------------------------------------------------
# Each verb once: its handler, its help line and its arguments, as
# (name, add_argument options).  Every verb also takes _OUTPUT.

_ALGEBRA = ("--algebra", {"required": True,
                          "help": "chain:N | interval | chang | delta:GROUP | prod:A,B | JSON"})
_GROUP = ("--group", {"required": True, "help": 'Z | Q | "Z[1/2]" | trivial | lex:GROUP | JSON'})
_BOUND = ("--bound", {"type": int, "default": None,
                      "help": "fragment bound (default: MVTROP_DEFAULT_BOUND or verb default)"})
_SEED = ("--seed", {"type": int, "default": 0})
_SEMIFIELD = ("--semifield", {"required": True, "help": "trop:GROUP | JSON"})
_OUTPUT = (("--pretty", {"action": "store_true", "help": "human-readable output"}),
           ("--out", {"default": None, "metavar": "FILE", "help": "write output to FILE"}))

_VERBS = {
    "eval": (_cmd_eval, "evaluate a term under an assignment",
             [("term", {}), ("--assign", {"default": "", "help": 'bindings like "x=(0,3);y=1/2"'}),
              _ALGEBRA]),
    "check-eq": (_cmd_check_eq, "check an equation lhs = rhs",
                 [("equation", {}), _ALGEBRA, _BOUND]),
    "tautology": (_cmd_tautology, "check a term is constantly 1", [("term", {}), _ALGEBRA]),
    "theta": (_cmd_theta, "list the theta carrier (fragment)", [_ALGEBRA, _BOUND]),
    "theta-star": (_cmd_theta_star, "list the theta-star carrier (fragment)", [_ALGEBRA, _BOUND]),
    "gamma": (_cmd_gamma, "interval algebra of a group with strong unit",
              [("--unit", {"required": True, "help": 'e.g. 2 over Z, "(1,0)" over lex:Z'}),
               _GROUP]),
    "delta": (_cmd_delta, "perfect algebra of a group", [_GROUP]),
    "trop": (_cmd_trop, "tropical semifield of a group", [_GROUP]),
    "detrop": (_cmd_detrop, "group of a tropical semifield", [_SEMIFIELD]),
    "f": (_cmd_f, "cone with top of a semifield (theta∘delta∘detrop)", [_SEMIFIELD, _BOUND]),
    "glue": (_cmd_glue, "combine a Boolean algebra with a perfect one",
             [("--boolean", {"required": True, "help": "finite Boolean algebra shorthand"}),
              ("--perfect", {"required": True, "help": "chang | delta:GROUP"})]),
    "vc-member": (_cmd_vc_member, "membership in the variety of Chang's algebra", [_ALGEBRA]),
    "gp": (_cmd_gp, "congruence invariant of a subgroup of Q at a prime",
           [_GROUP, ("--prime", {"type": int, "required": True})]),
    "classify": (_cmd_classify, "regularly discrete or regularly dense", [_GROUP]),
    "hom": (_cmd_hom, "existence of an increasing homomorphism",
            [("--src", {"required": True}), ("--dst", {"required": True})]),
    "flat-check": (_cmd_flat_check, "flatness of the Frobenius action",
                   [_GROUP, _SEED, ("--samples", {"type": int, "default": 1000})]),
    "theta-pt": (_cmd_theta_pt, "cone with top attached to a point", [_GROUP, _BOUND]),
    "axioms": (_cmd_axioms, "the four Lukasiewicz axioms plus modus ponens",
               [_ALGEBRA, _BOUND, _SEED, ("--samples", {"type": int, "default": None})]),
    "export": (_cmd_export, "operation tables (JSON) or Hasse diagram (DOT)",
               [("--dot", {"action": "store_true", "help": "emit a DOT Hasse diagram"}),
                _ALGEBRA, _BOUND]),
}

# The table main dispatches through; kept a plain dict so a caller can patch a verb.
_HANDLERS = {verb: handler for verb, (handler, _, _) in _VERBS.items()}


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="mvtrop",
        description="Exact computer algebra for MV-algebras, ℓ-groups, and tropical semifields.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_text, _) in _VERBS.items():
        _arguments(sub.add_parser(verb, help=help_text), verb)
    parser.verbs = sub.choices
    return parser


def _arguments(p: argparse.ArgumentParser, verb: str) -> argparse.ArgumentParser:
    """p, given verb's arguments and the output options."""
    p.set_defaults(verb=verb)  # so that main can parse with p alone
    for name, options in (*_VERBS[verb][2], *_OUTPUT):
        p.add_argument(name, **options)
    return p


def _pretty(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            lines.append(pad + "  ".join(_scalar(v) for v in obj))
        else:
            for v in obj:
                lines.extend(_pretty(v, indent))
    else:
        lines.append(pad + _scalar(obj))
    return lines


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, list):
        return "[" + ",".join(_scalar(u) for u in v) + "]"
    return str(v)


@functools.cache  # parsing leaves no state behind in a parser, so one serves every call
def _parser(verb: str | None = None) -> argparse.ArgumentParser:
    """verb's own parser, named as ``build_parser`` names its subparser, or the
    whole parser when verb is None.  Only a line that ``_plain`` leaves to
    argparse reaches one: help, a usage error or an unusual form."""
    if verb is None:
        return build_parser()
    import argparse
    return _arguments(argparse.ArgumentParser(prog=f"mvtrop {verb}"), verb)


@functools.cache
def _table(verb: str) -> tuple:
    """verb's arguments as ``_plain`` reads them: (dest, store_true, type) by
    option name, the positionals' names, the required options' names, and the
    namespace argparse starts from, each default in place."""
    options, positionals, required, start = {}, [], set(), {"verb": verb}
    for name, spec in (*_VERBS[verb][2], *_OUTPUT):
        if not name.startswith("-"):
            positionals.append(name)
            start[name] = None
            continue
        dest, flag = name.lstrip("-").replace("-", "_"), spec.get("action") == "store_true"
        options[name] = (dest, flag, spec.get("type"))
        start[dest] = spec.get("default", False if flag else None)
        if spec.get("required"):
            required.add(name)
    return options, positionals, required, start


def _plain(verb: str, tokens) -> types.SimpleNamespace | None:
    """The namespace verb's parser gives for ``tokens`` (equal ``vars``), read off
    ``_VERBS``, or None for argparse to read.  Every token is a str (``main``
    refuses any other).  Read here: positionals, and verb's options, each once
    by its full name, with their values.  Left to argparse: a token that starts
    with "-" where a positional or a value stands, or that is any other option
    (help, an abbreviation, ``--opt=value``); a repeat; an int that does not
    convert; an argument missing or one too many."""
    options, positionals, required, defaults = _table(verb)
    found, given, free, rest = dict(defaults), set(), [], iter(tokens)
    for token in rest:
        if not token.startswith("-"):
            free.append(token)
            continue
        if token not in options or token in given:
            return None
        given.add(token)
        dest, flag, convert = options[token]
        if flag:
            found[dest] = True
            continue
        value = next(rest, "-")  # none left: argparse says the value is missing
        if value.startswith("-"):
            return None
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        found[dest] = value
    if len(free) != len(positionals) or not required <= given:
        return None
    found.update(zip(positionals, free))
    return types.SimpleNamespace(**found)


def _say(message: str) -> None:
    """Print a message as one stderr line of at most 120 characters; a longer one
    is cut in the middle, so its kind at the start and its reason at the end survive."""
    line = f"mvtrop: {message}"
    if len(line) > 120:
        line = line[:57] + " [...] " + line[-56:]  # 57 + 7 + 56 = 120
    print(line, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for i, token in enumerate(argv, 1):  # a shell gives strs; a caller in Python may not
        if not isinstance(token, str):
            _say(f"argument {i} is {type(token).__name__} {token!r}, not a str")
            return 2
    try:
        if argv and argv[0] in _VERBS:
            args = _plain(argv[0], argv[1:])
            if args is None:  # help, a usage error or an unusual form: argparse reads it
                args = _parser(argv[0]).parse_args(argv[1:])
        else:
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if getattr(args, "bound", None) is not None and args.bound < 1:  # on every carrier
            raise DomainError("bound must be >= 1")
        code, output = _HANDLERS[args.verb](args)
    except (TermSyntaxError, UsageError) as exc:
        _say(str(exc))
        return 2
    except MvtropError as exc:
        _say(str(exc))
        return 3
    except MemoryError:
        _say("out of memory")
        return 3
    if isinstance(output, str):
        text = output.rstrip("\n")
    elif args.pretty:
        text = "\n".join(_pretty(output))
    else:
        text = dumps(output)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text, flush=True)
    except OSError as exc:
        if not args.out:  # e.g. a closed pipe: the flush at exit then goes to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        _say(f"cannot write {args.out or 'stdout'}: {exc.strerror or exc}")
        return 2
    return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
