import random
from collections import Counter

import pytest

from hexapn.field import NAMED_SPECS, make_field
from hexapn.hexanomial import Coeffs, function_table, scale_input_coeffs
from hexapn.invariants import fingerprint
from hexapn.walsh import extended_walsh_spectrum_table

from oracles import walsh_coefficient


@pytest.fixture(scope="module")
def f4():
    return make_field(NAMED_SPECS["F4"])


@pytest.fixture(scope="module")
def f16():
    return make_field(NAMED_SPECS["F16"])


def fast_spectrum(ctx, c):
    return extended_walsh_spectrum_table(ctx, function_table(ctx, c))


def direct_spectrum(ctx, c):
    out = Counter()
    for b in range(1, ctx.size):
        for a in range(ctx.size):
            out[abs(walsh_coefficient(ctx, c, a, b))] += 1
    return tuple(sorted(out.items()))


def test_trivial_coefficients(f16):
    rng = random.Random(0)
    n = f16.size
    for _ in range(5):
        c = Coeffs(*(rng.randrange(n) for _ in range(5)))
        assert walsh_coefficient(f16, c, 0, 0) == n
        for a in (1, 2, 7):
            assert walsh_coefficient(f16, c, a, 0) == 0


def test_parseval_exact(f16):
    rng = random.Random(1)
    n = f16.size
    for _ in range(5):
        c = Coeffs(*(rng.randrange(n) for _ in range(5)))
        for b in range(1, n):
            assert sum(walsh_coefficient(f16, c, a, b) ** 2 for a in range(n)) == n * n


def test_fast_spectrum_matches_direct(f4, f16):
    rng = random.Random(2)
    f64 = make_field(NAMED_SPECS["F64"])
    for ctx, trials in ((f4, 30), (f16, 6), (f64, 2)):
        for _ in range(trials):
            c = Coeffs(*(rng.randrange(ctx.size) for _ in range(5)))
            assert fast_spectrum(ctx, c) == direct_spectrum(ctx, c), c


def test_spectrum_cardinality(f16):
    rng = random.Random(3)
    n = f16.size
    for _ in range(10):
        c = Coeffs(*(rng.randrange(n) for _ in range(5)))
        spec = fast_spectrum(f16, c)
        assert sum(k for _, k in spec) == n * (n - 1)


def test_invariance_under_input_and_output_scaling(f16):
    rng = random.Random(4)
    n = f16.size
    for _ in range(15):
        c = Coeffs(*(rng.randrange(n) for _ in range(5)))
        base = fast_spectrum(f16, c)
        lam = rng.randrange(1, n)
        mu = rng.randrange(1, n)
        assert fast_spectrum(f16, scale_input_coeffs(f16, c, lam)) == base
        table = [f16.mul(mu, v) for v in function_table(f16, c)]
        assert extended_walsh_spectrum_table(f16, table) == base


def test_spectrum_serialization(f4):
    c = Coeffs(2, 0, 0, 0, 2)
    assert fast_spectrum(f4, c) == ((0, 3), (2, 8), (4, 1))
    assert fingerprint(f4, c).to_json()["walsh_spectrum"] == [[0, 3], [2, 8], [4, 1]]
