import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import in_q_subgroup

from mvtrop.characteristics import (CHI_Q, CHI_Z, INF, TRIAL_LIMIT,
                                    characteristic, contains_rational, factor,
                                    group_label, is_prime, parse_group_label)
from mvtrop.errors import DomainError, UsageError


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_small():
    primes = [n for n in range(40) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert all(is_prime(n) == _trial_division(n) for n in range(200_000))
    # strong pseudoprimes to every prime base up to 31, and up to 37
    # (399,165,290,221 · 798,330,580,441, which only the base 41 exposes)
    assert not is_prime(3_825_123_056_546_413_051)
    assert not is_prime(318_665_857_834_031_151_167_461)
    # a Carmichael number (211 · 421 · 631): every base's run of squares ends in 1,
    # so 1 must be accepted only before the first squaring
    assert not is_prime(56_052_361)
    assert is_prime(2**61 - 1)
    with pytest.raises(DomainError):
        is_prime(2**89 - 1)  # prime, but above the range where the test is exact


@settings(deadline=None)
@given(st.integers(1, 10**12 - 1))
def test_factor(n):
    assert factor(1) == ()
    assert factor(360) == ((2, 3), (3, 2), (5, 1))
    assert factor(97) == ((97, 1),)
    assert factor(5**40 * 43**20) == ((5, 40), (43, 20))  # cofactor 43**20 is above ψ13
    with pytest.raises(DomainError):
        factor(0)
    primes = [p for p, _ in factor(n)]
    assert primes == sorted(set(primes)) and all(map(is_prime, primes))
    assert math.prod(p ** e for p, e in factor(n)) == n


def test_factor_stops_trial_division_at_its_limit():
    assert TRIAL_LIMIT == 10**6
    p61 = 2**61 - 1  # a decided prime cofactor above the limit is kept
    assert factor(999_983 * p61) == ((999_983, 1), (p61, 1))
    # two primes above the limit, and a prime beyond the exact primality test
    for n in (1_000_000_007 * 1_000_000_009, 3 * (2**89 - 1)):
        with pytest.raises(DomainError, match=f"cannot factor {n}"):
            factor(n)


def test_factor_cache_is_bounded():
    info = factor.cache_info()
    assert info.maxsize is not None
    for n in range(2, info.maxsize + 50):
        factor(n)
    assert factor.cache_info().currsize <= info.maxsize
    assert factor(360) == ((2, 3), (3, 2), (5, 1))


def test_canonical_form_drops_default_entries():
    assert characteristic({2: 0, 3: 1}).primes == ((3, 1),)
    assert characteristic({2: INF}, default=INF) == CHI_Q
    assert characteristic({}) == CHI_Z


def test_characteristic_validation():
    with pytest.raises(DomainError):
        characteristic({4: 1})
    with pytest.raises(DomainError):
        characteristic({2: -1})
    with pytest.raises(DomainError):
        characteristic({}, default=3)


def test_exponent_lookup_and_cyclicity():
    chi = characteristic({2: INF, 3: 2})
    assert chi.exponent(2) == INF
    assert chi.exponent(3) == 2
    assert chi.exponent(5) == 0
    assert not chi.is_cyclic
    assert characteristic({3: 2}).is_cyclic
    assert characteristic({3: 2}).modulus() == 9
    assert not CHI_Q.is_cyclic
    with pytest.raises(DomainError):
        CHI_Q.modulus()


def test_contains_examples():
    assert contains_rational(CHI_Z, 3)
    assert not contains_rational(CHI_Z, Fraction(1, 2))
    assert contains_rational(characteristic({2: INF}), Fraction(3, 8))
    assert not contains_rational(characteristic({2: 1}), Fraction(5, 6))
    assert contains_rational(characteristic({2: 1}), Fraction(1, 2))
    assert not contains_rational(characteristic({2: 1}), Fraction(1, 4))
    assert contains_rational(CHI_Q, Fraction(-22, 7))
    assert contains_rational(CHI_Z, 0)
    assert contains_rational(characteristic({3: 2}), Fraction(5, 9))
    assert not contains_rational(characteristic({3: 2}), Fraction(1, 27))


def test_every_characteristic_contains_one_and_integers():
    for chi in (CHI_Z, CHI_Q, characteristic({2: INF}), characteristic({3: 2})):
        for n in range(-5, 6):
            assert contains_rational(chi, n)


def test_parse_group_label():
    assert parse_group_label("Z") == CHI_Z
    assert parse_group_label("Q") == CHI_Q
    assert parse_group_label("Z[1/2]") == characteristic({2: INF})
    assert parse_group_label("Z[1/6]") == characteristic({2: INF, 3: INF})
    assert parse_group_label("Z[1/2,1/3]") == characteristic({2: INF, 3: INF})
    with pytest.raises(UsageError):
        parse_group_label("R")
    with pytest.raises(UsageError):
        parse_group_label("Z[2]")
    with pytest.raises(UsageError):
        parse_group_label("Z[1/1]")


def test_group_label_round_trip():
    for text in ("Z", "Q", "Z[1/2]", "Z[1/2,1/3]"):
        assert group_label(parse_group_label(text)) == text
    assert group_label(characteristic({3: 2})) is None


SMALL_PRIMES = (2, 3, 5, 7, 11)


@given(st.dictionaries(st.sampled_from(SMALL_PRIMES),
                       st.one_of(st.integers(0, 3), st.just(INF)), max_size=4),
       st.sampled_from([0, INF]), st.integers(-10**6, 10**6),
       st.lists(st.integers(0, 5), min_size=5, max_size=5),
       st.sampled_from([1, 13, 97, 65537]))
def test_contains_rational_agrees_with_factoring(exponents, default, num, powers, cofactor):
    den = cofactor
    for p, k in zip(SMALL_PRIMES, powers):
        den *= p ** k
    q = Fraction(num, den)
    expected = in_q_subgroup(exponents, default, q)
    assert contains_rational(characteristic(exponents, default), q) == expected
