import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_term
from mvtrop.errors import TermSyntaxError
from mvtrop.terms import (CONST0, CONST1, MAX_NESTING, Equation, Implies, Join,
                          Meet, Neg, Odot, Ominus, Oplus, Var, fold,
                          operation_count, parse, parse_equation, print_term,
                          substitute, variables)

x, y, z = Var("x"), Var("y"), Var("z")


def test_parse_examples():
    assert parse("x -> (y -> x)") == Implies(x, Implies(y, x))
    assert parse("~(x (+) y)") == Neg(Oplus(x, y))
    assert parse("x (+) y (.) z") == Oplus(x, Odot(y, z))


def test_precedence_and_associativity():
    assert parse("x (+) y (-) z") == Ominus(Oplus(x, y), z)
    assert parse("x (-) y (+) z") == Oplus(Ominus(x, y), z)
    assert parse("~x (.) y") == Odot(Neg(x), y)
    assert parse("x -> y -> z") == Implies(x, Implies(y, z))
    assert parse("x \\/ y /\\ z") == Join(x, Meet(y, z))
    assert parse("x /\\ y (+) z") == Meet(x, Oplus(y, z))
    assert parse("x \\/ y -> z") == Implies(Join(x, y), z)
    assert parse("~~x") == Neg(Neg(x))
    assert parse("~0") == Neg(CONST0)
    assert parse("x1_a (+) 1") == Oplus(Var("x1_a"), CONST1)


def test_parentheses_override():
    assert parse("(x (+) y) (.) z") == Odot(Oplus(x, y), z)
    assert parse("x (-) (y (+) z)") == Ominus(x, Oplus(y, z))
    assert parse("((x))") == x


def test_print_examples():
    assert print_term(Implies(x, Implies(y, x))) == "x -> y -> x"
    assert print_term(Neg(CONST0)) == "~0"
    assert print_term(Oplus(x, x)) == "x (+) x"
    assert print_term(Implies(Implies(x, y), z)) == "(x -> y) -> z"
    assert print_term(Odot(Oplus(x, y), z)) == "(x (+) y) (.) z"
    assert print_term(Oplus(x, Ominus(y, z))) == "x (+) (y (-) z)"
    assert print_term(Ominus(Oplus(x, y), z)) == "x (+) y (-) z"
    assert print_term(Neg(Oplus(x, y))) == "~(x (+) y)"


def test_parse_print_round_trip_seeded():
    rng = random.Random(42)
    for _ in range(2000):
        t = random_term(rng, rng.randrange(0, 8))
        assert parse(print_term(t)) == t


@st.composite
def term_strategy(draw, depth=0):
    if depth >= 5 or draw(st.booleans()):
        return draw(st.sampled_from([x, y, z, CONST0, CONST1]))
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return Neg(draw(term_strategy(depth=depth + 1)))
    cls = (Oplus, Odot, Ominus, Implies, Meet, Join)[kind - 1]
    return cls(draw(term_strategy(depth=depth + 1)), draw(term_strategy(depth=depth + 1)))


@settings(max_examples=300)
@given(term_strategy())
def test_parse_print_round_trip_property(t):
    assert parse(print_term(t)) == t


def test_syntax_errors_carry_position_and_expectations():
    with pytest.raises(TermSyntaxError) as err:
        parse("x (+) ")
    assert err.value.position == 6
    assert "variable" in err.value.expected

    with pytest.raises(TermSyntaxError) as err:
        parse("x ? y")
    assert err.value.position == 2

    with pytest.raises(TermSyntaxError) as err:
        parse("(x (+) y")
    assert ")" in err.value.expected

    with pytest.raises(TermSyntaxError) as err:
        parse("x y")
    assert err.value.position == 2

    with pytest.raises(TermSyntaxError):
        parse("X")  # variables are lower-case

    with pytest.raises(TermSyntaxError):
        parse("")


def test_variables_and_substitution():
    t = parse("x -> (y -> x)")
    assert variables(t) == {"x", "y"}
    s = substitute(t, "x", Oplus(z, z))
    assert s == Implies(Oplus(z, z), Implies(y, Oplus(z, z)))
    assert variables(s) == {"y", "z"}
    assert substitute(t, "w", z) == t


def test_substitution_reaches_under_negation():
    assert substitute(parse("~x (+) ~~x"), "x", y) == parse("~y (+) ~~y")


def test_fold_visits_the_left_subterm_first():
    seen = []
    fold(parse("(y -> ~x) (.) (1 \\/ z)"), seen.append, seen.append, lambda arg: None,
         lambda cls, left, right: seen.append(cls.symbol))
    assert seen == ["y", "x", "->", 1, "z", "\\/", "(.)"]
    with pytest.raises(TypeError, match="not a term"):
        fold(Oplus(x, "y"), str, str, str, lambda cls, left, right: left)


# The four ways a term nests, each ``depth`` levels deep: negations,
# parentheses, right operands of ->, and a left-associative spine of (+).
NESTED = {
    "negations": lambda depth: "~" * depth + "x",
    "parentheses": lambda depth: "(" * depth + "x" + ")" * depth,
    "right-operands": lambda depth: "x" + " -> x" * depth,
    "left-spine": lambda depth: "x" + " (+) x" * depth,
}


@pytest.mark.parametrize("shape", NESTED)
def test_nesting_limit(shape):
    text = NESTED[shape](MAX_NESTING)
    t = parse(text)
    assert parse(print_term(t)) == t
    with pytest.raises(TermSyntaxError, match=f"deeper than {MAX_NESTING} levels at position"):
        parse(NESTED[shape](MAX_NESTING + 1))


def test_nesting_counts_every_level_of_a_mixed_term():
    # a spine inside parentheses, continued outside them: 150 + 1 + 49 levels
    spine = "(x" + " (+) x" * 150 + ")"
    parse(spine + " (.) x" * 49)
    with pytest.raises(TermSyntaxError) as err:
        parse(spine + " (.) x" * 50)
    assert err.value.position == len(spine) + 50 * 6 - 5
    parse("~(" * 100 + "x" + ")" * 100)
    with pytest.raises(TermSyntaxError):
        parse("~(" * 100 + "~x" + ")" * 100)


def test_operation_count():
    assert operation_count(parse("x")) == 0
    assert operation_count(parse("~x")) == 1
    vc = parse("(x(+)x)(.)(x(+)x)")
    assert operation_count(vc) == 3


def test_parse_equation():
    eq = parse_equation("x (+) y = y (+) x")
    assert eq == Equation(Oplus(x, y), Oplus(y, x))
    assert eq.variables() == {"x", "y"}
    with pytest.raises(TermSyntaxError):
        parse_equation("x (+) y")
    with pytest.raises(TermSyntaxError):
        parse_equation("x = y = z")
