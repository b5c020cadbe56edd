"""The command-line surface, written out by hand: every verb, its positionals,
and each option with its default, whether it is required, and its type or
action.  A change to the parser that moves any of these fails here."""

import argparse

import pytest

from mvtrop.cli import build_parser, main

TEXT = (None, True, "str")       # a required string option
BOUND = (None, False, "int")     # --bound and axioms' --samples
SEED = (0, False, "int")
PRETTY = (False, False, "store_true")
OUT = (None, False, "str")

SURFACE = {
    "eval": (["term"], {"--assign": ("", False, "str"), "--algebra": TEXT,
                        "--pretty": PRETTY, "--out": OUT}),
    "check-eq": (["equation"], {"--algebra": TEXT, "--bound": BOUND,
                                "--pretty": PRETTY, "--out": OUT}),
    "tautology": (["term"], {"--algebra": TEXT, "--pretty": PRETTY, "--out": OUT}),
    "theta": ([], {"--algebra": TEXT, "--bound": BOUND, "--pretty": PRETTY, "--out": OUT}),
    "theta-star": ([], {"--algebra": TEXT, "--bound": BOUND, "--pretty": PRETTY, "--out": OUT}),
    "gamma": ([], {"--unit": TEXT, "--group": TEXT, "--pretty": PRETTY, "--out": OUT}),
    "delta": ([], {"--group": TEXT, "--pretty": PRETTY, "--out": OUT}),
    "trop": ([], {"--group": TEXT, "--pretty": PRETTY, "--out": OUT}),
    "detrop": ([], {"--semifield": TEXT, "--pretty": PRETTY, "--out": OUT}),
    "f": ([], {"--semifield": TEXT, "--bound": BOUND, "--pretty": PRETTY, "--out": OUT}),
    "glue": ([], {"--boolean": TEXT, "--perfect": TEXT, "--pretty": PRETTY, "--out": OUT}),
    "vc-member": ([], {"--algebra": TEXT, "--pretty": PRETTY, "--out": OUT}),
    "gp": ([], {"--group": TEXT, "--prime": (None, True, "int"), "--pretty": PRETTY,
                "--out": OUT}),
    "classify": ([], {"--group": TEXT, "--pretty": PRETTY, "--out": OUT}),
    "hom": ([], {"--src": TEXT, "--dst": TEXT, "--pretty": PRETTY, "--out": OUT}),
    "flat-check": ([], {"--group": TEXT, "--seed": SEED, "--samples": (1000, False, "int"),
                        "--pretty": PRETTY, "--out": OUT}),
    "theta-pt": ([], {"--group": TEXT, "--bound": BOUND, "--pretty": PRETTY, "--out": OUT}),
    "axioms": ([], {"--algebra": TEXT, "--bound": BOUND, "--seed": SEED, "--samples": BOUND,
                    "--pretty": PRETTY, "--out": OUT}),
    "export": ([], {"--dot": PRETTY, "--algebra": TEXT, "--bound": BOUND,
                    "--pretty": PRETTY, "--out": OUT}),
}

HELP = """\
usage: mvtrop [-h]
              {eval,check-eq,tautology,theta,theta-star,gamma,delta,trop,detrop,f,glue,vc-member,gp,classify,hom,flat-check,theta-pt,axioms,export}
              ...

Exact computer algebra for MV-algebras, ℓ-groups, and tropical semifields.

positional arguments:
  {eval,check-eq,tautology,theta,theta-star,gamma,delta,trop,detrop,f,glue,vc-member,gp,classify,hom,flat-check,theta-pt,axioms,export}
    eval                evaluate a term under an assignment
    check-eq            check an equation lhs = rhs
    tautology           check a term is constantly 1
    theta               list the theta carrier (fragment)
    theta-star          list the theta-star carrier (fragment)
    gamma               interval algebra of a group with strong unit
    delta               perfect algebra of a group
    trop                tropical semifield of a group
    detrop              group of a tropical semifield
    f                   cone with top of a semifield (theta∘delta∘detrop)
    glue                combine a Boolean algebra with a perfect one
    vc-member           membership in the variety of Chang's algebra
    gp                  congruence invariant of a subgroup of Q at a prime
    classify            regularly discrete or regularly dense
    hom                 existence of an increasing homomorphism
    flat-check          flatness of the Frobenius action
    theta-pt            cone with top attached to a point
    axioms              the four Lukasiewicz axioms plus modus ponens
    export              operation tables (JSON) or Hasse diagram (DOT)

options:
  -h, --help            show this help message and exit
"""


def _kind(action) -> str:
    if isinstance(action, argparse._StoreTrueAction):
        return "store_true"
    return "str" if action.type is None else action.type.__name__


def _surface(parser) -> dict:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    out = {}
    for verb, p in sub.choices.items():
        positionals = [a.dest for a in p._actions if not a.option_strings]
        options = {a.option_strings[0]: (a.default, a.required, _kind(a))
                   for a in p._actions if a.option_strings and a.dest != "help"}
        for a in p._actions:
            assert len(a.option_strings) <= 1 or a.dest == "help", a.option_strings
        out[verb] = (positionals, options)
    return out


def test_every_verb_and_option_is_pinned():
    surface = _surface(build_parser())
    assert list(surface) == list(SURFACE)
    for verb, expected in SURFACE.items():
        assert surface[verb] == expected, verb


def test_top_level_help_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == HELP


# -- dispatch: a named verb's own parser reads the rest of the line --------------------

def _sample_argv(verb, optional):
    """The verb's positionals and required options, and with ``optional`` every
    other option too, each with a value of its kind."""
    positionals, options = SURFACE[verb]
    argv = [verb, *positionals]
    for option, (_, required, kind) in options.items():
        if required or optional:
            argv += [option] if kind == "store_true" else [option, "7" if kind == "int" else "v"]
    return argv


def test_a_verbs_own_parser_gives_the_top_level_namespace():
    parser = build_parser()
    for verb in SURFACE:
        for optional in (False, True):
            argv = _sample_argv(verb, optional)
            args = parser.verbs[verb].parse_args(argv[1:])
            assert args == parser.parse_args(argv) and args.verb == verb, argv


@pytest.mark.parametrize("argv, code", [
    ([], 2), (["-h"], 0), (["--help"], 0), (["bogus"], 2), (["--pretty"], 2),
    (["check-eq", "x = x"], 2),                                         # --algebra missing
    (["check-eq", "x = x", "--algebra", "chain:2", "--bogus"], 2),
    (["check-eq", "-h"], 0),
])
def test_exit_codes_of_parse_errors_and_help(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out != "") == (code == 0) and (err != "") == (code == 2)


def test_an_unrecognized_argument_names_the_verb(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["check-eq", "x = x", "--algebra", "chain:2", "--bogus"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: mvtrop check-eq [-h] --algebra ALGEBRA")
    assert err.splitlines()[-1] == "mvtrop check-eq: error: unrecognized arguments: --bogus"
