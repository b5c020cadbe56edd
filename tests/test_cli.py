import json
import re
import shlex
from pathlib import Path

import pytest

from mvtrop import cli
from mvtrop.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
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


def test_theta_malformed_algebra_json_is_usage_error(capsys):
    code, out, err = run(["theta", "--algebra", '{"kind":"finite_chain","size":"x"}'], capsys)
    assert code == 2 and out == "" and _one_line_error(err)


def test_detrop_malformed_semifield_json_is_usage_error(capsys):
    code, out, err = run(["detrop", "--semifield", '{"kind":"trop","group":[]}'], capsys)
    assert code == 2 and out == "" and _one_line_error(err)


def test_eval_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "f"
    code, out, err = run(["eval", "x", "--algebra", "chain:3", "--assign", "x=1/2",
                          "--out", str(target)], capsys)
    assert code == 2 and out == "" and _one_line_error(err)
    assert str(target) in err


def test_interval_bound_below_one_is_domain_error(monkeypatch, capsys):
    monkeypatch.setenv("MVTROP_DEFAULT_BOUND", "-5")
    code, out, err = run(["check-eq", "x = x (+) 0", "--algebra", "interval"], capsys)
    assert code == 3 and out == "" and "bound must be >= 1" in err


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
