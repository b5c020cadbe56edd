"""Hypothesis fuzz of the command line: every input gets an answer or a clean error.

Verbs are drawn together with well-formed and malformed descriptor strings
(bad JSON, non-integral sizes, bounds <= 0, nested products).  Invariants:
the exit code is 0, 1, 2 or 3; exit 1 only comes with a counterexample
verdict; nothing escapes ``main`` as an exception, and stderr never holds a
traceback.  Sizes stay small so that every drawn call finishes quickly.
"""

import os
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvtrop.cli import main

GROUPS = ["Z", "Q", "Z[1/2]", "Z[1/6]", "Z[1/2,1/3]", "trivial", "lex:Z", "lex:Z[1/2]",
          "lex:lex:Z", "Z[1/0]", "Z[1/x]", "Z[", "R", "", '{"kind":"integers"}',
          '{"kind":"lex_zg","tail":{"kind":"q_subgroup","chi":{"default":"inf"}}}',
          '{"kind":"q_subgroup","chi":{"default":"0","primes":{"2":2.5}}}',
          '{"kind":"q_subgroup","chi":{"default":"0","primes":{"4":1}}}',
          '{"kind":"q_subgroup","chi":[]}', '{"kind":"lex_zg"}', "{", "[]", "{}"]
SIZES = ["-1", "0", "1", "2", "3", "4", "2.5", "x", "", "1e1", "+3", " 2"]
JSON_SIZES = ["2", "3", "2.5", '"3"', '"2.5"', "true", "null", "[]", "-4", '"x"']

groups = st.sampled_from(GROUPS)
malformed_algebras = st.sampled_from(["ring:3", "prod:", "prod:,", "{", "[1]", "{}", "delta:{}",
                                      "chain:", "delta:Z[1/2"])
chains = st.one_of(st.sampled_from(SIZES).map(lambda n: "chain:" + n),
                   st.sampled_from(JSON_SIZES).map(
                       lambda n: '{"kind":"finite_chain","size":%s}' % n))
leaf_algebras = st.one_of(st.sampled_from(["interval", "chang"]), chains, malformed_algebras,
                          groups.map(lambda g: "delta:" + g))
# Factors of products stay small: over a product of two Δ(Z[1/2]) or lex
# fragments a two-variable check runs for seconds to minutes, which is the
# missing work budget, not a failure this test looks for.
factors = st.one_of(st.sampled_from(["interval", "chang", "delta:trivial"]),
                    chains, malformed_algebras)


def _product(parts):
    return "prod:" + ",".join(parts)


def _json_product(parts):
    items = ",".join(('{"kind":"finite_chain","size":%s}' % p[6:])
                     if p.startswith("chain:") else '{"kind":"chang"}' for p in parts)
    return '{"kind":"product","factors":[%s]}' % items


small_chains = st.sampled_from(["chain:2", "chain:3", "chang"])
algebras = st.one_of(
    leaf_algebras,
    st.lists(factors, min_size=1, max_size=2).map(_product),
    st.lists(small_chains, min_size=0, max_size=2).map(_json_product),
    st.lists(small_chains, min_size=1, max_size=2).map(
        lambda ps: '{"kind":"product","factors":[%s]}' % _json_product(ps)),
    st.lists(small_chains, min_size=1, max_size=2).map(lambda ps: "prod:" + _product(ps)))
bounds = st.sampled_from(["-3", "0", "1", "2", "3", "x", "2.5"])
optional_bound = st.one_of(st.just([]), bounds.map(lambda b: ["--bound", b]))
terms = st.sampled_from(["x", "x (+) ~x", "x -> (y -> x)", "x \\/ ~x", "(x (.) y) /\\ 1",
                         "x (+", "", "~~", "x (-) (y (+) 0)"])
equations = st.sampled_from(["x = x (+) 0", "x (+) y = y (+) x", "x (.) x = x",
                             "(x(+)x)(.)(x(+)x) = (x(.)x)(+)(x(.)x)", "x =", "= x",
                             "x = y = x", "x"])
payloads = st.sampled_from(["0", "1", "1/2", "2", "-1", "(0,1)", "(1,0)", "(1/2,0)", "(0,-1)",
                            "(0,(1,0))", "(0,(1/2,0))", "(0,1/3)", "(1,(0,0))", "(2,0)",
                            "((0,1),1)", "x", "()", "(0,", "1/0"])
primes = st.sampled_from(["2", "3", "4", "0", "-2", "x"])
small_counts = st.sampled_from(["-1", "0", "1", "5", "x"])
seeds = st.sampled_from(["0", "7", "x"])


def _verb(name, *parts):
    return st.tuples(*parts).map(lambda xs: [name] + [a for x in xs for a in
                                                      (x if isinstance(x, list) else [x])])


def _flag(name, values):
    return values.map(lambda v: [name, v])


argvs = st.one_of(
    _verb("eval", terms, _flag("--algebra", algebras),
          st.tuples(payloads, payloads).map(lambda ps: ["--assign", f"x={ps[0]};y={ps[1]}"])),
    _verb("check-eq", equations, _flag("--algebra", algebras), optional_bound),
    _verb("tautology", terms, _flag("--algebra", algebras)),
    _verb("theta", _flag("--algebra", algebras), optional_bound),
    _verb("theta-star", _flag("--algebra", algebras), optional_bound),
    _verb("gamma", _flag("--group", groups), _flag("--unit", payloads)),
    _verb("delta", _flag("--group", groups)),
    _verb("trop", _flag("--group", groups)),
    _verb("detrop", _flag("--semifield", st.one_of(
        groups.map(lambda g: "trop:" + g),
        st.sampled_from(['{"kind":"trop","group":[]}', '{"kind":"trop"}', "trop", "{"])))),
    _verb("f", _flag("--semifield", groups.map(lambda g: "trop:" + g)), optional_bound),
    _verb("glue", _flag("--boolean", algebras), _flag("--perfect", algebras)),
    _verb("vc-member", _flag("--algebra", algebras)),
    _verb("gp", _flag("--group", groups), _flag("--prime", primes)),
    _verb("classify", _flag("--group", groups)),
    _verb("hom", _flag("--src", groups), _flag("--dst", groups)),
    _verb("flat-check", _flag("--group", groups), _flag("--samples", small_counts),
          _flag("--seed", seeds), optional_bound),
    _verb("theta-pt", _flag("--group", groups), optional_bound),
    _verb("axioms", _flag("--algebra", algebras), optional_bound,
          st.one_of(st.just([]), _flag("--samples", small_counts)), _flag("--seed", seeds)),
    # export writes every table cell, so it always gets a small (or malformed) bound.
    _verb("export", _flag("--algebra", algebras), _flag("--bound", bounds),
          st.sampled_from([[], ["--dot"]]), st.sampled_from([[], ["--pretty"]])),
)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(argv=argvs)
def test_cli_answers_or_fails_cleanly(argv, capsys):
    with mock.patch.dict(os.environ, clear=False) as env:
        env.pop("MVTROP_DEFAULT_BOUND", None)
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 1:
        assert '"verdict":"counterexample"' in out, (argv, out)
    assert "Traceback" not in err, (argv, err)
    if code in (2, 3):
        assert out == "", (argv, out)
