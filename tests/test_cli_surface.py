"""The command-line surface, written out by hand: every verb, its positionals,
and each option with its default, whether it is required, and its type or
action.  A change to the parser that moves any of these fails here.  Each
verb's help and its usage error for a missing argument are pinned, as printed
at 80 columns, in ``cli_verb_text.json``.  A plain line is read off the verb
table without argparse (``cli._plain``); a Hypothesis test holds that reader
to argparse's namespace, and ``main`` to argparse's output on every line the
reader leaves to it."""

import argparse
import contextlib
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrop import cli
from mvtrop.cli import build_parser, main
from test_cli import _readme_examples

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


VERB_TEXT = json.loads((Path(__file__).resolve().parent / "cli_verb_text.json")
                       .read_text(encoding="utf-8"))


@pytest.mark.parametrize("verb", SURFACE)
def test_a_verbs_own_parser_prints_the_pinned_help_and_usage_error(verb, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        lambda *args, **kwargs: pytest.fail("built the whole parser"))
    assert main([verb, "--help"]) == 0
    assert capsys.readouterr().out == VERB_TEXT[verb]["help"]
    assert main([verb]) == 2  # a required argument is missing
    assert capsys.readouterr().err == VERB_TEXT[verb]["error"]
    monkeypatch.undo()
    monkeypatch.setenv("COLUMNS", "80")
    assert build_parser().verbs[verb].format_help() == VERB_TEXT[verb]["help"]


# -- the plain reader: a plain line is read off the verb table, never by argparse ---------

OPTION_KEYS = {"required", "default", "type", "action", "help", "metavar"}


def test_every_argument_in_the_verb_table_is_one_the_plain_reader_reads():
    # a new option feature (choices, nargs, append, ...) must fail here, not diverge
    for verb, (_, _, arguments) in cli._VERBS.items():
        for name, spec in (*arguments, *cli._OUTPUT):
            if not name.startswith("-"):
                assert spec == {}, (verb, name)  # a positional: one plain string
                continue
            assert name.startswith("--") and "=" not in name, (verb, name)
            assert set(spec) <= OPTION_KEYS, (verb, name)
            assert spec.get("type", int) is int, (verb, name)
            assert spec.get("action", "store_true") == "store_true", (verb, name)


def _outcome(argv, plain=True):
    """main's exit code (or the exception it raised), stdout and stderr; with
    ``plain`` False every line goes to argparse, as before the plain reader."""
    out, err = io.StringIO(), io.StringIO()
    reader = cli._plain
    if not plain:
        cli._plain = lambda verb, tokens: None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # so that a difference shows as one
                code = (type(exc).__name__, str(exc))
    finally:
        cli._plain = reader
    return code, out.getvalue(), err.getvalue()


# values and positionals, (plain, unusual)
_TEXTS = (["v", "chain:3", "x = x", "x", "", " -x"], ["-1", "--", "-h", "--pretty", "-x", 5, None])
_INTS = (["7", "3", "0", " 7", "+7", "1_0", "٣"], ["-1", "x", "", "--", "-h", 7])
_ODD = st.sampled_from([5, None, b"x", 1.5, "--", "-", "-h", "--help", "--bogus", "-1", "x"])


@st.composite
def command_lines(draw):
    """A verb and its line, plain or, half of the time, with a few of: one
    positional too few or too many; an option left out, given twice,
    abbreviated or as ``--opt=value``; a value that starts with "-" or fails
    ``int``; a stray token, non-str ones among them, anywhere."""
    odd = draw(st.booleans())

    def pick(plain, unusual):  # in an odd line, unusual at one place in four
        return draw(st.sampled_from(unusual if odd and not draw(st.integers(0, 3)) else plain))

    verb = draw(st.sampled_from(list(SURFACE)))
    positionals, options = SURFACE[verb]
    pieces = [[pick(*_TEXTS)] for _ in range(len(positionals) + pick([0], [-1, 1]))]
    for option, (_, required, kind) in options.items():
        for _ in range(pick([1] if required else [0, 1], [0, 2])):
            name = pick([option], [option[:k] for k in range(3, len(option))])
            if kind == "store_true":
                pieces.append([name + pick([""], ["=1"])])
                continue
            value = pick(*_INTS) if kind == "int" else pick(*_TEXTS)
            pieces.append(pick([[name, value]], [[f"{name}={value}"]]))
    tokens = [token for piece in draw(st.permutations(pieces)) for token in piece]
    if odd and not draw(st.integers(0, 3)):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_ODD))
    return [verb, *tokens]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    """A working directory for the files that a drawn ``--out`` writes."""
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("out"))
    yield
    os.chdir(cwd)


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_the_plain_reader_agrees_with_argparse(out_dir, argv):
    verb, rest = argv[0], argv[1:]
    args = cli._plain(verb, rest) if all(isinstance(t, str) for t in rest) else None
    if args is not None:
        assert vars(args) == vars(cli._parser(verb).parse_args(rest)), argv
    assert _outcome(argv) == _outcome(argv, plain=False), argv


@pytest.mark.parametrize("rest", [
    ["x = x", "--algebra", "chain:3", "-h"], ["x = x", "--alg", "chain:3"],
    ["x = x", "--algebra=chain:3"], ["x = x", "--algebra", "a", "--algebra", "b"],
    ["x = x", "--algebra", "-1"], ["--", "x = x", "--algebra", "chain:3"],
    ["x = x", "--algebra", "chain:3", "--bound", "x"], ["x = x"], ["--algebra", "chain:3"],
    ["x = x", "y", "--algebra", "chain:3"], ["x = x", "--algebra", "chain:3", "--bound"]])
def test_the_plain_reader_leaves_unusual_lines_to_argparse(rest):
    assert cli._plain("check-eq", rest) is None


def test_the_plain_reader_fills_in_defaults_and_converts_ints():
    args = cli._plain("check-eq", ["--bound", "+7", "--algebra", "", "--pretty", "x = x"])
    assert vars(args) == {"verb": "check-eq", "equation": "x = x", "algebra": "", "bound": 7,
                          "pretty": True, "out": None}


_NESTED = ('{"kind":"product","factors":[{"kind":"finite_chain","size":4000},'
           '{"kind":"finite_chain","size":4000}]}')
CI_SMOKE = [
    ["axioms", "--algebra", "chang", "--samples", "0"],
    ["export", "--algebra", "chain:2000", "--dot"],
    ["export", "--algebra", "prod:chang,chang", "--bound", "30", "--dot"],
    ["export", "--algebra", "delta:Q"],
    ["export", "--algebra", "prod:interval,chain:3", "--bound", "4"],
    ["theta", "--algebra", "chain:2001"], ["theta-star", "--algebra", "chain:2001"],
    ["axioms", "--algebra", "chain:10000000", "--samples", "5"],
    ["axioms", "--algebra", "prod:chain:100000,chain:100000", "--samples", "5"],
    ["vc-member", "--algebra", "prod:chain:4000,chain:4000"],
    ["vc-member", "--algebra", "prod:chain:2," + _NESTED],
    ["tautology", "(x -> y) -> ((y -> z) -> (x -> z))", "--algebra", "prod:chain:30,chain:30"],
    ["eval", "x", "--algebra", "delta:Z[1/2]", "--assign", "x=(0,1/2305843009213693951)"],
    ["delta", "--group", "Z[1/2305843009213693951]"],
    ["gp", "--group", "Z", "--prime", "2305843009213693951"],
    ["gp", "--group", "Z", "--prime", "618970019642690137449562111"],
    ["delta", "--group", "Z[1/1000000016000000063]"],
    ["delta", "--group", "Z[1/618970019642690137449562111]"],
    ["delta", "--group", "lex:" * 1000 + "Z"],
    ["eval", "~" * 5000 + "x", "--algebra", "chain:2", "--assign", "x=1"],
]


def test_a_plain_line_builds_no_parser(monkeypatch):
    readme = [argv for argv, _, _ in _readme_examples()]
    assert len(readme) >= 9
    lines = ([_sample_argv(verb, optional) for verb in SURFACE for optional in (False, True)]
             + readme + CI_SMOKE)
    seen = []
    for verb in SURFACE:  # the handlers only record what they are given
        monkeypatch.setitem(cli._HANDLERS, verb, lambda args: (seen.append(args), (0, {}))[1])
    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda *args, **kwargs: pytest.fail("built a parser"))
    for argv in lines:
        assert main(argv) == 0, argv
    monkeypatch.undo()
    assert [vars(args) for args in seen] == [
        vars(cli._parser(argv[0]).parse_args(argv[1:])) for argv in lines]
