import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mvtrop
from mvtrop import algebra, cli
from mvtrop.algebra import FiniteChain, ProductAlgebra
from mvtrop.cli import main
from mvtrop.jsonio import MAX_NESTING
from mvtrop.terms import MAX_NESTING as TERM_NESTING

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv, capsys):
    """Run the CLI in process; every message of ours fits on a 120-character line
    (argparse's own "mvtrop: error:" lines, which echo the choices, are exempt)."""
    code = main(argv)
    out = capsys.readouterr()
    for line in out.err.splitlines():
        if line.startswith("mvtrop: ") and not line.startswith("mvtrop: error:"):
            assert len(line) <= 120, line
    return code, out.out, out.err


# -- behavior -------------------------------------------------------------------

def test_theta_listing(capsys):
    code, out, _ = run(["theta", "--algebra", "chang", "--bound", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["elements"] == [[0, "0"], [0, "1"], [0, "2"], [1, "0"]]


def test_theta_star_listing(capsys):
    code, out, _ = run(["theta-star", "--algebra", "chain:3"], capsys)
    data = json.loads(out)
    assert code == 0 and data["elements"] == ["0", "1"]


def test_check_eq_counterexample_exit_code(capsys):
    code, out, _ = run(["check-eq", "(x(+)x)(.)(x(+)x) = (x(.)x)(+)(x(.)x)",
                        "--algebra", "chain:3"], capsys)
    assert code == 1
    assert json.loads(out)["witness"] == {"x": "1/2"}


def test_check_eq_bounded_on_chang(capsys):
    code, out, _ = run(["check-eq", "(x(+)x)(.)(x(+)x) = (x(.)x)(+)(x(.)x)",
                        "--algebra", "chang", "--bound", "5"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "valid_up_to_bound"


def test_tautology(capsys):
    code, out, _ = run(["tautology", "x (+) ~x", "--algebra", "chain:3"], capsys)
    assert code == 0
    code, out, _ = run(["tautology", "x \\/ ~x", "--algebra", "chain:3"], capsys)
    assert code == 1
    assert json.loads(out)["witness"]["value"] == "1/2"


def test_functor_verbs(capsys):
    code, out, _ = run(["gamma", "--group", "Z", "--unit", "2"], capsys)
    assert json.loads(out)["algebra"] == {"kind": "finite_chain", "size": 3}
    code, out, _ = run(["gamma", "--group", "lex:Z", "--unit", "(1,0)"], capsys)
    assert json.loads(out)["algebra"] == {"kind": "chang"}
    code, out, _ = run(["delta", "--group", "Z"], capsys)
    assert json.loads(out)["algebra"] == {"kind": "chang"}
    code, out, _ = run(["trop", "--group", "Z[1/2]"], capsys)
    semifield = json.loads(out)["semifield"]
    assert semifield["kind"] == "trop"
    code, out, _ = run(["detrop", "--semifield", "trop:Z[1/2]"], capsys)
    assert json.loads(out)["group"]["kind"] == "q_subgroup"
    code, out, _ = run(["f", "--semifield", "trop:Z", "--bound", "3"], capsys)
    assert json.loads(out)["elements"] == ["0", "1", "2", "3", "⊤"]
    code, out, _ = run(["glue", "--boolean", "prod:chain:2,chain:2",
                        "--perfect", "chang"], capsys)
    assert json.loads(out)["algebra"] == {
        "kind": "product", "factors": [{"kind": "finite_chain", "size": 2},
                                       {"kind": "chang"}]}


def test_qpoint_verbs(capsys):
    code, out, _ = run(["gp", "--group", "Q", "--prime", "7"], capsys)
    assert code == 0 and json.loads(out)["value"] == 1
    code, out, _ = run(["classify", "--group", '{"default":"0","primes":{"3":"2"}}'], capsys)
    assert json.loads(out)["classification"] == "regularly_discrete"
    code, out, _ = run(["hom", "--src", "Z", "--dst", "Q"], capsys)
    assert json.loads(out) == {"dst": {"default": "inf", "primes": {}},
                               "exists": True, "r": "1",
                               "src": {"default": "0", "primes": {}}}
    code, out, _ = run(["theta-pt", "--group", "Z", "--bound", "2"], capsys)
    assert json.loads(out)["elements"] == ["0", "1", "2", "⊤"]


def test_axioms_verb(capsys):
    code, out, _ = run(["axioms", "--algebra", "chain:4"], capsys)
    assert code == 0 and json.loads(out)["verdict"] == "valid"
    code, out, _ = run(["axioms", "--algebra", "interval",
                        "--samples", "60", "--seed", "2"], capsys)
    assert code == 0 and json.loads(out)["mode"] == "sampled"


def test_axioms_samples_a_huge_chain_without_listing_it(monkeypatch, capsys):
    def refuse(self, bound):
        raise AssertionError(f"{self} was listed")
    argv = ["axioms", "--algebra", "chain:7", "--samples", "5", "--seed", "3"]
    expected = run(argv, capsys)
    monkeypatch.setattr(FiniteChain, "enumerate", refuse)
    assert run(argv, capsys) == expected
    code, out, err = run(["axioms", "--algebra", "chain:10000000", "--samples", "5"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["checked"] == 25


@pytest.mark.parametrize("samples", ["-1", "0"])
def test_axioms_rejects_a_sample_count_below_one(samples, capsys):
    # neither a vacuous valid verdict (-1) nor a silent fall back to the default count (0)
    code, out, err = run(["axioms", "--algebra", "chang", "--samples", samples], capsys)
    assert code == 3 and out == ""
    assert err == "mvtrop: samples must be >= 1\n"


def test_eval_verb(capsys):
    code, out, _ = run(["eval", "(x(+)x)(.)(x(+)x)", "--algebra", "chang",
                        "--assign", "x=(1,-3)"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == [1, "0"]


def test_export_json(capsys):
    code, out, _ = run(["export", "--algebra", "chain:3"], capsys)
    data = json.loads(out)
    assert data["elements"] == ["0", "1/2", "1"]
    assert data["tables"]["oplus"][1][1] == 2      # 1/2 ⊕ 1/2 = 1
    assert data["tables"]["odot"][1][1] == 0       # 1/2 ⊙ 1/2 = 0
    assert data["neg"] == [2, 1, 0]
    assert data["boolean"] == [0, 2]
    assert data["infinitesimal"] == [0]


def test_export_dot(capsys):
    code, out, _ = run(["export", "--algebra", "prod:chain:2,chain:2", "--dot"], capsys)
    assert code == 0
    assert out.startswith("digraph hasse")
    assert out.count("->") == 4                    # the Boolean diamond
    code, out, _ = run(["export", "--algebra", "chang", "--dot", "--bound", "2"], capsys)
    assert "peripheries=2" in out and "lightgray" in out


def test_export_too_large_is_domain_error(capsys):
    code, _, err = run(["export", "--algebra", "chain:20000"], capsys)
    assert code == 3 and "exceeds" in err


@pytest.mark.parametrize("text", ["chain:100000000000000000000",
                                  "prod:chain:100000000000000000000,chain:2"])
@pytest.mark.parametrize("dot", [[], ["--dot"]])
def test_export_sizes_a_chain_beyond_a_c_ssize_t(text, dot, capsys):
    # refused from the exact carrier size: no record is built on a leaf len() cannot size
    code, out, err = run(["export", "--algebra", text, *dot], capsys)
    assert code == 3 and out == ""
    assert err == f"mvtrop: carrier of {text} exceeds 10000 elements\n"


def test_export_refuses_a_large_product_before_listing_anything(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("listed")
    for kind in (FiniteChain, ProductAlgebra):
        monkeypatch.setattr(kind, "enumerate", refuse)
    monkeypatch.setattr(algebra._Tuples, "__iter__", refuse)
    code, out, err = run(["export", "--algebra", "prod:chain:1000,chain:1000"], capsys)
    assert code == 3 and out == ""
    assert err == "mvtrop: carrier of prod:chain:1000,chain:1000 exceeds 10000 elements\n"


_HUGE = ["--algebra", "prod:interval,interval,interval,interval,interval", "--bound", "300"]


@pytest.mark.parametrize("argv, doing", [(["check-eq", "x = x", *_HUGE], "check"),
                                         (["axioms", *_HUGE, "--samples", "3"], "draw from")])
def test_a_fragment_beyond_a_c_ssize_t_is_refused_before_any_check(argv, doing, monkeypatch,
                                                                     capsys):
    # 27,399 ** 5 tuples at bound 300: sized on the record, where len() would overflow
    monkeypatch.setattr(algebra, "check_laws", lambda *args: pytest.fail("checked"))
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert err == (f"mvtrop: cannot {doing} prod:interval,interval,interval,interval,interval: "
                   f"more than {sys.maxsize} elements\n")


def test_export_sizes_a_product_fragment_before_listing_it(capsys):
    # 642 ** 3 elements at the default bound: refused from the factors' pools
    start = time.perf_counter()
    code, out, err = run(["export", "--algebra", "prod:delta:Q,delta:Q,delta:Q", "--dot"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == "mvtrop: fragment of prod:delta:Q,delta:Q,delta:Q exceeds 10000 elements\n"


def test_a_large_prime_denominator_is_refused_without_factoring(capsys):
    # 2**61 - 1 is prime; membership in Z[1/2] must not trial-divide it
    start = time.perf_counter()
    code, out, err = run(["eval", "x", "--algebra", "delta:Z[1/2]",
                          "--assign", "x=(0,1/2305843009213693951)"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and _one_line_error(err)
    assert "2305843009213693951" in err


_P61 = "2305843009213693951"  # 2**61 - 1


@pytest.mark.parametrize("argv, expected", [
    (["gp", "--group", "Z", "--prime", _P61],
     '{"group":{"default":"0","primes":{}},"prime":%s,"value":%s}' % (_P61, _P61)),
    (["delta", "--group", f"Z[1/{_P61}]"],
     '{"algebra":{"group":{"chi":{"default":"0","primes":{"%s":"inf"}},"kind":"q_subgroup"},'
     '"kind":"delta"}}' % _P61),
])
def test_a_19_digit_prime_is_decided_without_trial_division(argv, expected, capsys):
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, expected + "\n", "")


def test_a_prime_beyond_the_exact_primality_test_is_refused(capsys):
    # 2**89 - 1 is prime, but the strong test is exact only below about 3.3e24
    code, out, err = run(["gp", "--group", "Z", "--prime", "618970019642690137449562111"], capsys)
    assert code == 3 and out == "" and _one_line_error(err)


@pytest.mark.parametrize("m", ["1000000016000000063", "618970019642690137449562111"])
def test_a_label_with_no_prime_factor_up_to_the_trial_limit_is_refused(m, capsys):
    # 1,000,000,007 · 1,000,000,009, and 2**89 - 1, a prime beyond the exact test
    start = time.perf_counter()
    code, out, err = run(["delta", "--group", f"Z[1/{m}]"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and _one_line_error(err) and m in err


def test_seed_reproducibility(capsys):
    args = ["flat-check", "--group", "Z[1/2]", "--samples", "200", "--seed", "9"]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2
    assert json.loads(out1)["verdict"] == "valid"


def test_pretty_output(capsys):
    code, out, _ = run(["gp", "--group", "Z", "--prime", "5", "--pretty"], capsys)
    assert code == 0
    assert "value: 5" in out and "{" not in out.splitlines()[-1]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "cone.json"
    code, out, _ = run(["theta-pt", "--group", "Z", "--bound", "2",
                        "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["elements"] == ["0", "1", "2", "⊤"]


def test_env_default_bound(monkeypatch, capsys):
    monkeypatch.setenv("MVTROP_DEFAULT_BOUND", "2")
    code, out, _ = run(["theta", "--algebra", "chang"], capsys)
    assert json.loads(out)["bound"] == 2


def test_usage_errors_exit_2(capsys):
    assert run(["frobnicate"], capsys)[0] == 2
    assert run(["theta"], capsys)[0] == 2
    assert run(["theta", "--algebra", "ring:3"], capsys)[0] == 2
    assert run(["check-eq", "x (+", "--algebra", "chain:2"], capsys)[0] == 2
    assert run(["eval", "x", "--algebra", "chain:2", "--assign", "x:1"], capsys)[0] == 2


def test_domain_errors_exit_3(capsys):
    assert run(["gamma", "--group", "Z", "--unit", "0"], capsys)[0] == 3
    assert run(["gp", "--group", "Z", "--prime", "6"], capsys)[0] == 3
    assert run(["glue", "--boolean", "chain:3", "--perfect", "chang"], capsys)[0] == 3
    assert run(["tautology", "x", "--algebra", "interval"], capsys)[0] == 3



def test_reused_parser_matches_a_fresh_one(capsys):
    calls = [["theta", "--algebra"], ["theta", "--algebra", "chain:5"], ["--help"]]
    reused = [run(argv, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv, capsys))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0]
    assert "usage:" in reused[0][2] and "usage:" in reused[2][1]


def _one_line_error(err):
    return err.startswith("mvtrop: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("algebra", ["prod:prod:chain:2,chain:3", "prod:chain:2,prod:chain:3"])
def test_bare_product_inside_a_product_is_usage_error(algebra, capsys):
    code, out, err = run(["vc-member", "--algebra", algebra], capsys)
    assert code == 2 and out == "" and _one_line_error(err)
    assert '{"kind":"product"' in err
    code, out, _ = run(["vc-member", "--algebra",
                        'prod:{"kind":"product","factors":[{"kind":"finite_chain","size":2}]},'
                        'chain:2'], capsys)
    assert code == 0


def test_messages_name_a_kind_by_its_shorthand(capsys):
    algebra = "prod:delta:Z[1/2],delta:lex:Z"
    code, out, err = run(["tautology", "x", "--algebra", algebra], capsys)
    assert code == 3 and out == ""
    assert err == f"mvtrop: {algebra} has an infinite carrier; use a bounded or sampled check\n"


def _nested(opening, leaf, closing, depth):
    return opening * depth + leaf + closing * depth


_CHAIN = '{"kind":"finite_chain","size":2}'
_PRODUCT = ('{"kind":"product","factors":[', "]}")
_LEX = ('{"kind":"lex_zg","tail":', "}")


@pytest.mark.parametrize("argv", [
    ["delta", "--group", "lex:" * 1000 + "Z"],
    ["delta", "--group", _nested(_LEX[0], '{"kind":"integers"}', _LEX[1], 1000)],
    ["check-eq", "x=x", "--algebra", _nested(_PRODUCT[0], _CHAIN, _PRODUCT[1], 300)],
    ["theta", "--algebra", '{"kind":' + "[" * 100000 + "]" * 100000 + "}"],
    ["eval", "x", "--algebra", "chain:2", "--assign", "x=" + _nested("(", "1", ")", 1000)],
    ["detrop", "--semifield", "trop:" + "lex:" * (MAX_NESTING + 1) + "Z"],
], ids=["lex-shorthand", "lex-json", "product-json", "json-arrays", "payload", "semifield"])
def test_deep_nesting_is_usage_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"mvtrop: input nests deeper than {MAX_NESTING} levels\n"


def test_nesting_at_the_limit_answers(capsys):
    code, out, _ = run(["delta", "--group", "lex:" * MAX_NESTING + "Z"], capsys)
    assert code == 0 and out.count("lex_zg") == MAX_NESTING
    algebra = _nested(_PRODUCT[0], _CHAIN, _PRODUCT[1], MAX_NESTING)
    code, out, _ = run(["check-eq", "x=x", "--algebra", algebra], capsys)
    assert code == 0 and json.loads(out)["verdict"] == "valid"
    code, out, _ = run(["eval", "x", "--algebra", algebra,
                        "--assign", "x=" + _nested("(", "1", ")", MAX_NESTING)], capsys)
    assert code == 0
    assert json.loads(out)["value"] == json.loads(_nested("[", '"1"', "]", MAX_NESTING))


# The four ways a term nests, each ``depth`` levels deep, and the answer at the limit.
_NESTED_TERMS = {
    "negations": (lambda depth: ["eval", "~" * depth + "x", "--algebra", "chain:2",
                                 "--assign", "x=1"], (0, "value", "1")),
    "parentheses": (lambda depth: ["eval", _nested("(", "x", ")", depth), "--algebra", "chain:2",
                                   "--assign", "x=1"], (0, "value", "1")),
    "right-operands": (lambda depth: ["check-eq", "x" + " -> x" * depth + " = 1",
                                      "--algebra", "chain:3"], (0, "verdict", "valid")),
    "left-spine": (lambda depth: ["check-eq", "x" + " (+) x" * depth + " = x",
                                  "--algebra", "chain:3"], (1, "verdict", "counterexample")),
}


@pytest.mark.parametrize("shape", _NESTED_TERMS)
def test_term_at_the_nesting_limit_answers(shape, capsys):
    argv, (expected_code, field, value) = _NESTED_TERMS[shape]
    code, out, err = run(argv(TERM_NESTING), capsys)
    assert (code, err) == (expected_code, "")
    assert json.loads(out)[field] == value


@pytest.mark.parametrize("depth", [TERM_NESTING + 1, 3000])
@pytest.mark.parametrize("shape", _NESTED_TERMS)
def test_term_past_the_nesting_limit_is_usage_error(shape, depth, capsys):
    code, out, err = run(_NESTED_TERMS[shape][0](depth), capsys)
    assert (code, out) == (2, "") and _one_line_error(err)
    assert err.startswith(f"mvtrop: term nests deeper than {TERM_NESTING} levels at position ")


@pytest.mark.parametrize("equation, message", [
    ("x (+) ? = y", "unexpected character '?' at position 6"),
    ("(x (+) y = y", "unbalanced parenthesis at position 9"),
    ("x (+) y = y ?", "unexpected character '?' at position 12"),
    ("x (+) y = y (+) (x", "unbalanced parenthesis at position 18"),
], ids=["left-character", "left-parenthesis", "right-character", "right-parenthesis"])
def test_equation_syntax_errors_are_placed_in_the_whole_equation(equation, message, capsys):
    code, out, err = run(["check-eq", equation, "--algebra", "chain:3"], capsys)
    assert (code, out) == (2, "") and _one_line_error(err)
    assert err.startswith(f"mvtrop: {message} (expected one of: ")


def test_unbound_variable_is_named_in_evaluation_order(capsys):
    code, out, err = run(["eval", "y (+) x", "--algebra", "chain:3"], capsys)
    assert (code, out, err) == (3, "", "mvtrop: variable 'y' is not bound\n")


_JSON_LIST = json.dumps(list(range(100)))


@pytest.mark.parametrize("argv, expected_code, kind", [
    (["theta", "--algebra", "x" * 300], 2, "unrecognized algebra shorthand"),
    (["theta", "--algebra", '{"kind":"finite_chain","size":' + _JSON_LIST + "}"], 2,
     "chain size must be an integer"),
    (["theta", "--algebra", '{"kind":"finite_chain","sizes":' + _JSON_LIST + "}"], 2,
     "malformed input"),
    (["eval", "x", "--algebra", "chain:3", "--assign", "x=" + "9" * 300], 3, "9999"),
    (["gp", "--group", "Z[1/" + "7" * 200 + "]", "--prime", "2"], 3, "cannot factor"),
    (["delta", "--group", "Z[1/1856910058928070412348686333]"], 3, "cannot factor"),
], ids=["algebra-shorthand", "size-json", "malformed-json", "payload", "label", "cofactor"])
def test_long_messages_are_cut_in_the_middle(argv, expected_code, kind, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (expected_code, "") and _one_line_error(err)
    assert len(err) == 121 and " [...] " in err  # 120 characters and the newline
    assert err.startswith("mvtrop: " + kind)


def test_out_of_memory_is_one_line_with_exit_3(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError
    monkeypatch.setitem(cli._HANDLERS, "check-eq", exhausted)
    code, out, err = run(["check-eq", "x = x", "--algebra", "chain:3"], capsys)
    assert (code, out, err) == (3, "", "mvtrop: out of memory\n")


def test_theta_malformed_algebra_json_is_usage_error(capsys):
    code, out, err = run(["theta", "--algebra", '{"kind":"finite_chain","size":"x"}'], capsys)
    assert code == 2 and out == "" and _one_line_error(err)


def test_detrop_malformed_semifield_json_is_usage_error(capsys):
    code, out, err = run(["detrop", "--semifield", '{"kind":"trop","group":[]}'], capsys)
    assert code == 2 and out == "" and _one_line_error(err)


def test_eval_unwritable_out_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the message echoes the path, so keep it short
    target = Path("missing-dir") / "f"
    code, out, err = run(["eval", "x", "--algebra", "chain:3", "--assign", "x=1/2",
                          "--out", str(target)], capsys)
    assert code == 2 and out == "" and _one_line_error(err)
    assert str(target) in err


def test_a_closed_stdout_is_a_usage_error_without_a_traceback():
    """A reader that stops after 10 of some 1.3 MB closes the pipe mid-write."""
    env = dict(os.environ, PYTHONPATH=str(Path(mvtrop.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "mvtrop.cli", "export", "--algebra", "chain:300"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert (head, proc.wait(timeout=60)) == (b'{"algebra"', 2)
    assert err == "mvtrop: cannot write stdout: Broken pipe\n"


# Every verb that takes --bound, with the arguments it needs besides it.
_BOUND_VERBS = {"check-eq": ["x = x (+) 0", "--algebra"], "theta": ["--algebra"],
                "theta-star": ["--algebra"], "axioms": ["--algebra"], "export": ["--algebra"],
                "f": ["--semifield", "trop:Z"], "theta-pt": ["--group", "Z"]}


def test_every_verb_with_a_bound_is_listed():
    assert sorted(_BOUND_VERBS) == sorted(
        verb for verb, (_, _, arguments) in cli._VERBS.items() if cli._BOUND in arguments)


def test_interval_bound_below_one_is_domain_error(monkeypatch, capsys):
    monkeypatch.setenv("MVTROP_DEFAULT_BOUND", "-5")
    code, out, err = run(["check-eq", "x = x (+) 0", "--algebra", "interval"], capsys)
    assert code == 3 and out == "" and "bound must be >= 1" in err
    # A --bound below 1 is refused before the verb runs, on finite carriers too,
    # where no bound is used.
    for verb in _BOUND_VERBS:
        monkeypatch.setitem(cli._HANDLERS, verb, lambda args: pytest.fail("the verb ran"))
    for verb, argv in _BOUND_VERBS.items():
        for algebra in ("chain:3", "prod:chain:2,chain:3", "chang"):
            for bound in ("0", "-3"):
                argv_of = [verb, *argv, *([algebra] if argv[-1] == "--algebra" else [])]
                code, out, err = run([*argv_of, "--bound", bound], capsys)
                assert (code, out, err) == (3, "", "mvtrop: bound must be >= 1\n"), argv_of


def test_non_integral_bit_is_usage_error(capsys):
    code, out, err = run(["eval", "x", "--algebra", "chang", "--assign", "x=(1/2,0)"], capsys)
    assert code == 2 and out == ""
    assert err == "mvtrop: bit must be an integer, got 1/2\n"


def test_non_integral_chain_size_is_usage_error(capsys):
    code, out, err = run(["theta", "--algebra", '{"kind":"finite_chain","size":2.5}'], capsys)
    assert code == 2 and out == ""
    assert err == "mvtrop: chain size must be an integer, got 2.5\n"
    code, out, _ = run(["theta", "--algebra", '{"kind":"finite_chain","size":"3"}'], capsys)
    assert code == 0 and json.loads(out)["elements"] == ["0", "1/2", "1"]


def test_non_integral_lex_head_is_usage_error(capsys):
    argv = ["eval", "x", "--algebra", "delta:lex:Z", "--assign", "x=(0,(1/2,0))"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == "mvtrop: lex head must be an integer, got 1/2\n"
    argv[-1] = "x=(0,(1,0))"
    code, out, _ = run(argv, capsys)
    assert code == 0 and json.loads(out)["value"] == [0, [1, "0"]]


@pytest.mark.parametrize("default,label", [
    ('"inf"', "regularly_dense"), ('"0"', "regularly_discrete"), ("0", "regularly_discrete"),
    ('"INF"', None), ('"7"', None), ("null", None), ("false", None), ("0.0", None)])
def test_characteristic_default_is_inf_or_0(default, label, capsys):
    argv = ["classify", "--group", f'{{"default":{default},"primes":{{}}}}']
    code, out, err = run(argv, capsys)
    if label is None:
        assert code == 2 and out == ""
        assert err == f'mvtrop: characteristic default must be "inf" or "0", got {default}\n'
    else:
        assert code == 0 and json.loads(out)["classification"] == label


def test_flat_check_has_no_bound_option(capsys):
    code, out, err = run(["flat-check", "--group", "Z", "--bound", "3"], capsys)
    assert code == 2 and out == "" and "unrecognized arguments: --bound 3" in err
    code, out, _ = run(["flat-check", "--group", "Z", "--samples", "5"], capsys)
    assert code == 0 and json.loads(out)["mode"] == "sampled"


def test_eval_rejects_a_variable_assigned_twice(capsys):
    argv = ["eval", "x", "--algebra", "chain:3", "--assign", "x=1/2; x =1"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == "mvtrop: variable 'x' is assigned twice\n"
    argv[-1] = "x=1/2;y=1"
    code, out, _ = run(argv, capsys)
    assert code == 0 and json.loads(out)["value"] == "1/2"
    for assign, name in (("=1;x=1/2", ""), ("x y=1", "x y"), ("X=1", "X"),
                         ("1x=0", "1x"), ("x-y=0", "x-y")):
        argv[-1] = assign
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"mvtrop: {name!r} is not a variable name; use [a-z][a-z0-9_]*\n"
    argv[-1] = "x=1/2; x_1 = 1"
    code, out, _ = run(argv, capsys)
    assert code == 0 and json.loads(out)["value"] == "1/2"


# -- README goldens ----------------------------------------------------------------

def _readme_examples():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```console\n(.*?)```", text, re.S)
    examples = []
    for block in blocks:
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            if lines[i].startswith("$ mvtrop "):
                argv = shlex.split(lines[i][len("$ mvtrop "):])
                i += 1
                expected, exit_code = [], 0
                while i < len(lines) and lines[i] and not lines[i].startswith("$"):
                    marker = re.fullmatch(r"\[exit (\d+)\]", lines[i])
                    if marker:
                        exit_code = int(marker.group(1))
                    else:
                        expected.append(lines[i])
                    i += 1
                examples.append((argv, "\n".join(expected), exit_code))
            else:
                i += 1
    return examples


def test_readme_has_examples():
    assert len(_readme_examples()) >= 8


@pytest.mark.parametrize("argv,expected,exit_code", _readme_examples(),
                         ids=lambda v: v[0] if isinstance(v, list) else None)
def test_readme_goldens(argv, expected, exit_code, capsys):
    code, out, _ = run(argv, capsys)
    assert code == exit_code
    assert out.rstrip("\n") == expected
