"""Command-line surface: construction, evaluation, checking, and export.

Exit codes: 0 success or valid, 1 counterexample found, 2 usage or parse
error, 3 domain error.  Output is deterministic compact JSON by default,
human-readable with --pretty, DOT with --dot (export).  The environment
variable MVTROP_DEFAULT_BOUND supplies the fragment bound when --bound is
omitted.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .algebra import carrier_size, element
from .characteristics import Characteristic, parse_group_label
from .errors import MvtropError, TermSyntaxError, UsageError
from .functors import (delta, detrop, f_equiv, gamma, glue_boolean_perfect,
                       theta, theta_star, trop)
from .jsonio import (algebra_to_json, chi_from_json, chi_to_json, cone_to_json,
                     dumps, group_to_json,
                     parse_algebra_shorthand, parse_group_element_shorthand,
                     parse_group_shorthand, parse_payload_shorthand,
                     parse_semifield_shorthand, rational_str, report_to_json,
                     semifield_to_json, _load_json)
from .logic import (Valuation, axiom_suite, check_equation_bounded,
                    default_chang_bound, evaluate, parse_equation,
                    tautology_check, vc_membership)
from .qpoints import (check_flatness, classify_regularity, frobenius_action,
                      gp_invariant, hom_exists, hom_obstruction, theta_pt)
from .terms import parse, print_term


def _parse_chi(text: str) -> Characteristic:
    text = text.strip()
    if text.startswith("{"):
        return chi_from_json(_load_json(text))
    return parse_group_label(text)


def _default_bound(args, fallback: int) -> int:
    if getattr(args, "bound", None) is not None:
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


def _report_exit(report) -> int:
    return 0 if report.ok else 1


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
    return 0, {"algebra": algebra_to_json(A), "term": print_term(term),
               "value": A.payload_to_json(value.payload)}


def _cmd_check_eq(args):
    A = parse_algebra_shorthand(args.algebra)
    eq = parse_equation(args.equation)
    report = check_equation_bounded(eq, A, _fragment_bound(args, A, default_chang_bound(eq)))
    out = {"algebra": algebra_to_json(A), **report_to_json(report)}
    return _report_exit(report), out


def _cmd_tautology(args):
    A = parse_algebra_shorthand(args.algebra)
    report = tautology_check(parse(args.term), A)
    return _report_exit(report), {"algebra": algebra_to_json(A), **report_to_json(report)}


def _theta_listing(args, builder):
    A = parse_algebra_shorthand(args.algebra)
    bound = _fragment_bound(args, A, 10)
    return 0, {"algebra": algebra_to_json(A), "bound": bound,
               "elements": [A.payload_to_json(x.payload) for x in builder(A).elements(bound)]}


def _cmd_theta(args):
    return _theta_listing(args, theta)


def _cmd_theta_star(args):
    return _theta_listing(args, theta_star)


def _cmd_gamma(args):
    G = parse_group_shorthand(args.group)
    u = parse_group_element_shorthand(G, args.unit)
    return 0, {"algebra": algebra_to_json(gamma(G, u))}


def _cmd_delta(args):
    G = parse_group_shorthand(args.group)
    return 0, {"algebra": algebra_to_json(delta(G))}


def _cmd_trop(args):
    G = parse_group_shorthand(args.group)
    return 0, {"semifield": semifield_to_json(trop(G))}


def _cmd_detrop(args):
    S = parse_semifield_shorthand(args.semifield)
    return 0, {"group": group_to_json(detrop(S))}


def _cmd_f(args):
    S = parse_semifield_shorthand(args.semifield)
    return 0, cone_to_json(f_equiv(S), _default_bound(args, 10))


def _cmd_glue(args):
    B = parse_algebra_shorthand(args.boolean)
    P = parse_algebra_shorthand(args.perfect)
    return 0, {"algebra": algebra_to_json(glue_boolean_perfect(B, P))}


def _cmd_vc_member(args):
    A = parse_algebra_shorthand(args.algebra)
    report = vc_membership(A)
    out = {"algebra": algebra_to_json(A), "in_variety": report.ok,
           **report_to_json(report)}
    return _report_exit(report), out


def _cmd_gp(args):
    chi = _parse_chi(args.group)
    inv = gp_invariant(chi, args.prime)
    return 0, {"group": chi_to_json(chi), "prime": inv.prime, "value": inv.value}


def _cmd_classify(args):
    chi = _parse_chi(args.group)
    return 0, {"group": chi_to_json(chi), "classification": classify_regularity(chi)}


def _cmd_hom(args):
    src, dst = _parse_chi(args.src), _parse_chi(args.dst)
    r = hom_exists(src, dst)
    out = {"src": chi_to_json(src), "dst": chi_to_json(dst), "exists": r is not None}
    if r is not None:
        out["r"] = rational_str(r)
    else:
        out["certificate_prime"] = hom_obstruction(src, dst)
    return 0, out


def _cmd_flat_check(args):
    chi = _parse_chi(args.group)
    report = check_flatness(frobenius_action(chi), samples=args.samples, seed=args.seed)
    return _report_exit(report), {"group": chi_to_json(chi), **report_to_json(report)}


def _cmd_theta_pt(args):
    chi = _parse_chi(args.group)
    return 0, cone_to_json(theta_pt(chi), _default_bound(args, 10))


def _cmd_axioms(args):
    A = parse_algebra_shorthand(args.algebra)
    if carrier_size(A) is not None and args.samples is None:
        report = axiom_suite(A)
    else:
        samples = 500 if args.samples is None else args.samples
        report = axiom_suite(A, samples=samples, seed=args.seed, bound=_default_bound(args, 12))
    return _report_exit(report), {"algebra": algebra_to_json(A), **report_to_json(report)}


def _cmd_export(args):
    from .export import hasse_dot, operation_tables
    A = parse_algebra_shorthand(args.algebra)
    bound = _fragment_bound(args, A, 10)
    if args.dot:
        return 0, hasse_dot(A, bound)
    return 0, operation_tables(A, bound)


_HANDLERS = {
    "eval": _cmd_eval,
    "check-eq": _cmd_check_eq,
    "tautology": _cmd_tautology,
    "theta": _cmd_theta,
    "theta-star": _cmd_theta_star,
    "gamma": _cmd_gamma,
    "delta": _cmd_delta,
    "trop": _cmd_trop,
    "detrop": _cmd_detrop,
    "f": _cmd_f,
    "glue": _cmd_glue,
    "vc-member": _cmd_vc_member,
    "gp": _cmd_gp,
    "classify": _cmd_classify,
    "hom": _cmd_hom,
    "flat-check": _cmd_flat_check,
    "theta-pt": _cmd_theta_pt,
    "axioms": _cmd_axioms,
    "export": _cmd_export,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvtrop",
        description="Exact computer algebra for MV-algebras, ℓ-groups, and tropical semifields.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, *, algebra=False, group=False, bound=False, seed=False,
               samples=False, prime=False):
        if algebra:
            p.add_argument("--algebra", required=True,
                           help="chain:N | interval | chang | delta:GROUP | prod:A,B | JSON")
        if group:
            p.add_argument("--group", required=True,
                           help='Z | Q | "Z[1/2]" | trivial | lex:GROUP | JSON')
        if bound:
            p.add_argument("--bound", type=int, default=None,
                           help="fragment bound (default: MVTROP_DEFAULT_BOUND or verb default)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if samples:
            p.add_argument("--samples", type=int, default=None)
        if prime:
            p.add_argument("--prime", type=int, required=True)
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        p.add_argument("--out", default=None, metavar="FILE", help="write output to FILE")

    p = sub.add_parser("eval", help="evaluate a term under an assignment")
    p.add_argument("term")
    p.add_argument("--assign", default="", help='bindings like "x=(0,3);y=1/2"')
    common(p, algebra=True)

    p = sub.add_parser("check-eq", help="check an equation lhs = rhs")
    p.add_argument("equation")
    common(p, algebra=True, bound=True)

    p = sub.add_parser("tautology", help="check a term is constantly 1")
    p.add_argument("term")
    common(p, algebra=True)

    for verb in ("theta", "theta-star"):
        p = sub.add_parser(verb, help=f"list the {verb} carrier (fragment)")
        common(p, algebra=True, bound=True)

    p = sub.add_parser("gamma", help="interval algebra of a group with strong unit")
    p.add_argument("--unit", required=True, help='e.g. 2 over Z, "(1,0)" over lex:Z')
    common(p, group=True)

    for verb, help_text in (("delta", "perfect algebra of a group"),
                            ("trop", "tropical semifield of a group")):
        p = sub.add_parser(verb, help=help_text)
        common(p, group=True)

    p = sub.add_parser("detrop", help="group of a tropical semifield")
    p.add_argument("--semifield", required=True, help="trop:GROUP | JSON")
    common(p)

    p = sub.add_parser("f", help="cone with top of a semifield (theta∘delta∘detrop)")
    p.add_argument("--semifield", required=True, help="trop:GROUP | JSON")
    common(p, bound=True)

    p = sub.add_parser("glue", help="combine a Boolean algebra with a perfect one")
    p.add_argument("--boolean", required=True, help="finite Boolean algebra shorthand")
    p.add_argument("--perfect", required=True, help="chang | delta:GROUP")
    common(p)

    p = sub.add_parser("vc-member", help="membership in the variety of Chang's algebra")
    common(p, algebra=True)

    p = sub.add_parser("gp", help="congruence invariant of a subgroup of Q at a prime")
    common(p, group=True, prime=True)

    p = sub.add_parser("classify", help="regularly discrete or regularly dense")
    common(p, group=True)

    p = sub.add_parser("hom", help="existence of an increasing homomorphism")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    common(p)

    p = sub.add_parser("flat-check", help="flatness of the Frobenius action")
    common(p, group=True, seed=True)
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("theta-pt", help="cone with top attached to a point")
    common(p, group=True, bound=True)

    p = sub.add_parser("axioms", help="the four Lukasiewicz axioms plus modus ponens")
    common(p, algebra=True, bound=True, seed=True, samples=True)

    p = sub.add_parser("export", help="operation tables (JSON) or Hasse diagram (DOT)")
    p.add_argument("--dot", action="store_true", help="emit a DOT Hasse diagram")
    common(p, algebra=True, bound=True)

    return parser


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


# Parsing leaves no state behind in the parser, so one serves every call.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code, output = _HANDLERS[args.verb](args)
    except (TermSyntaxError, UsageError) as exc:
        print(f"mvtrop: {exc}", file=sys.stderr)
        return 2
    except MvtropError as exc:
        print(f"mvtrop: {exc}", file=sys.stderr)
        return 3
    if isinstance(output, str):
        text = output.rstrip("\n")
    elif getattr(args, "pretty", False):
        text = "\n".join(_pretty(output))
    else:
        text = dumps(output)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"mvtrop: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
