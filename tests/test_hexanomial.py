import itertools
import random

import pytest

from hexapn.field import NAMED_SPECS, make_field
from hexapn.hexanomial import (
    Coeffs,
    evaluate,
    function_table,
    monomial_exponents,
    scale_input_coeffs,
    to_univariate,
)


@pytest.fixture(scope="module")
def f4():
    return make_field(NAMED_SPECS["F4"])


@pytest.fixture(scope="module")
def f16():
    return make_field(NAMED_SPECS["F16"])


def test_evaluate_at_zero_and_one(f16):
    rng = random.Random(0)
    for _ in range(50):
        c = Coeffs(*(rng.randrange(16) for _ in range(5)))
        assert evaluate(f16, c, 0) == 0
        assert evaluate(f16, c, 1) == c.A ^ c.B ^ c.C ^ c.D ^ c.E ^ 1


def test_evaluate_f4_example(f4):
    # direct oracle with a^3 = 1: f(a) = a*a^2*a + a*a^4*a^2 + a^6 = a + 1 + ... = 1
    c = Coeffs(2, 0, 0, 0, 2)
    assert evaluate(f4, c, 2) == 1


def test_univariate_agrees_with_evaluate_exhaustive_q2(f4):
    for tup in itertools.product(range(4), repeat=5):
        c = Coeffs(*tup)
        uni = to_univariate(f4, c)
        for x in range(4):
            assert uni.evaluate(f4, x) == evaluate(f4, c, x)


def test_univariate_agrees_with_evaluate_sampled_q4(f16):
    rng = random.Random(1)
    for _ in range(200):
        c = Coeffs(*(rng.randrange(16) for _ in range(5)))
        uni = to_univariate(f16, c)
        for x in range(16):
            assert uni.evaluate(f16, x) == evaluate(f16, c, x)


def test_collision_table():
    assert monomial_exponents(2) == [3, 3, 5, 4, 6, 6]  # q+1=3, 2q+2=3q=6
    for q in (4, 8, 16):
        assert len(set(monomial_exponents(q))) == 6


def test_leading_coefficient_when_collision_free(f16):
    rng = random.Random(2)
    for _ in range(20):
        c = Coeffs(*(rng.randrange(16) for _ in range(5)))
        terms = dict(to_univariate(f16, c).terms)
        assert terms[12] == 1


def test_table_row_f4(f4):
    c = Coeffs(2, 0, 0, 0, 2)
    uni = to_univariate(f4, c)
    # the paper's row: a^2 x^6 + a x^3, with E + 1 = a + 1 = a^2
    assert uni.terms == [(3, f4.parse_elem("a")), (6, f4.parse_elem("a^2"))]
    assert uni.format(f4) == "a x^3 + (a + 1) x^6"


def test_table_row_f16(f16):
    c = Coeffs(2, 0, 0, 2, 0)
    uni = to_univariate(f16, c)
    # the paper's row: x^12 + a x^6 + a x^3
    a = f16.parse_elem("a")
    assert uni.terms == [(3, a), (6, a), (12, 1)]
    assert uni.format(f16) == "a x^3 + a x^6 + x^12"


def test_merged_row_q2(f4):
    # A + B = a + 1, D = 1, E + 1 = 0, C = 0
    uni = to_univariate(f4, Coeffs(1, 2, 0, 1, 1))
    assert uni.terms == [(3, 3), (4, 1)]
    assert uni.format(f4) == "(a + 1) x^3 + x^4"


def test_scale_input_coeffs_matches_table_permutation(f16):
    rng = random.Random(4)
    for _ in range(30):
        c = Coeffs(*(rng.randrange(16) for _ in range(5)))
        lam = rng.randrange(1, 16)
        scaled = scale_input_coeffs(f16, c, lam)
        lead = f16.pow(lam, 3 * f16.q)
        base = function_table(f16, c)
        for x in range(16):
            lhs = evaluate(f16, scaled, x)
            assert f16.mul(lead, lhs) == base[f16.mul(lam, x)]
    with pytest.raises(ValueError):
        scale_input_coeffs(f16, Coeffs(1, 0, 0, 0, 0), 0)
