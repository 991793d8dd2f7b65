import itertools
import random
from collections import Counter

import numpy as np
import pytest

from hexapn.field import NAMED_SPECS, make_field
from hexapn.hexanomial import Coeffs, function_table
from hexapn.diffanalysis import (
    BatchTables,
    apn_mask_batch,
    ddt,
    ddt_csv,
    differential_profile,
    is_apn_ddt,
    is_apn_equation,
    is_permutation,
)

from oracles import f4_closed_form_apn


@pytest.fixture(scope="module")
def f4():
    return make_field(NAMED_SPECS["F4"])


@pytest.fixture(scope="module")
def f16():
    return make_field(NAMED_SPECS["F16"])


def test_ddt_structure(f16):
    rng = random.Random(0)
    n = f16.size
    for _ in range(10):
        c = Coeffs(*(rng.randrange(n) for _ in range(5)))
        table = ddt(f16, c)
        assert table[0][0] == n and sum(table[0]) == n
        for a in range(1, n):
            assert sum(table[a]) == n
            assert all(v % 2 == 0 for v in table[a])


def test_ddt_zero_column(f16):
    # DDT[a][0] counts solutions of f(x+a) = f(x); always >= 2 when one exists
    rng = random.Random(1)
    n = f16.size
    for _ in range(10):
        c = Coeffs(*(rng.randrange(n) for _ in range(5)))
        f = function_table(f16, c)
        table = ddt(f16, c)
        for a in range(1, n):
            has = any(f[x ^ a] == f[x] for x in range(n))
            assert (table[a][0] >= 2) == has


def test_profile_matches_full_ddt(f4, f16):
    # the profile's spectrum and uniformity are a Counter over rows 1.. of the DDT
    rng = random.Random(5)
    f64 = make_field(NAMED_SPECS["F64"])
    for ctx, trials in ((f4, 60), (f16, 30), (f64, 6)):
        for _ in range(trials):
            c = Coeffs(*(rng.randrange(ctx.size) for _ in range(5)))
            rows = ddt(ctx, c)[1:]
            prof = differential_profile(ctx, c)
            spectrum = Counter(v for row in rows for v in row)
            assert prof.spectrum == tuple(sorted(spectrum.items())), c
            assert prof.uniformity == max(max(row) for row in rows), c


def test_known_apn_representative(f4):
    c = Coeffs(2, 0, 0, 0, 2)
    table = ddt(f4, c)
    assert max(max(row) for row in table[1:]) == 2
    prof = differential_profile(f4, c)
    assert prof.is_apn and prof.uniformity == 2 and not prof.is_permutation
    assert sum(v * k for v, k in prof.spectrum) == (f4.size - 1) * f4.size
    assert sum(k for _, k in prof.spectrum) == (f4.size - 1) * f4.size


def test_f64_representative():
    ctx = make_field(NAMED_SPECS["F64"])
    c = Coeffs(*(ctx.pow(2, k) for k in (23, 23, 47, 25, 29)))
    assert is_apn_ddt(ctx, c)
    assert not is_permutation(ctx, c)


def test_early_abort_equals_full(f4, f16):
    rng = random.Random(2)
    f64 = make_field(NAMED_SPECS["F64"])
    for ctx in (f4, f16, f64):
        n = ctx.size
        for _ in range(1000):
            c = Coeffs(*(rng.randrange(n) for _ in range(5)))
            assert is_apn_ddt(ctx, c, early_abort=True) == is_apn_ddt(ctx, c, early_abort=False)


def test_ddt_vs_equation_exhaustive_f4(f4):
    for tup in itertools.product(range(4), repeat=5):
        c = Coeffs(*tup)
        assert is_apn_ddt(f4, c) == is_apn_equation(f4, c), c


def test_ddt_vs_equation_random_f16(f16):
    rng = random.Random(3)
    for _ in range(10_000):
        c = Coeffs(*(rng.randrange(16) for _ in range(5)))
        assert is_apn_ddt(f16, c) == is_apn_equation(f16, c), c


def test_permutation_flags(f4):
    # f = x^(3q) = x^6 maps every nonzero element of F4 to 1
    c = Coeffs(0, 0, 0, 0, 0)
    assert set(function_table(f4, c)) == {0, 1}
    assert not is_permutation(f4, c)
    found = False
    for tup in itertools.product(range(4), repeat=5):
        if is_permutation(f4, Coeffs(*tup)):
            found = True
            break
    assert found  # permutations exist in the family, just never APN ones


def test_batch_kernel_matches_scalar(f16):
    rng = random.Random(4)
    n = f16.size
    tuples = [Coeffs(*(rng.randrange(n) for _ in range(5))) for _ in range(3000)]
    bt = BatchTables(f16)
    arr = np.array(tuples, dtype=np.uint16)
    mask = apn_mask_batch(bt, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4])
    for c, m in zip(tuples, mask):
        assert bool(m) == is_apn_ddt(f16, c), c


def test_apn_tests_match_f4_closed_form(f4):
    # On GF(4) the family collapses to (A+B+E+1)x^3 + Cx^2 + Dx
    tuples = [Coeffs(*t) for t in itertools.product(range(4), repeat=5)]
    arr = np.array(tuples, dtype=np.uint16)
    mask = apn_mask_batch(BatchTables(f4), *arr.T)
    for c, m in zip(tuples, mask):
        expected = f4_closed_form_apn(c)
        assert is_apn_ddt(f4, c) == expected, c
        assert is_apn_equation(f4, c) == expected, c
        assert bool(m) == expected, c
    assert sum(map(f4_closed_form_apn, tuples)) == 768


def test_ddt_csv(f4):
    text = ddt_csv(f4, Coeffs(2, 0, 0, 0, 2))
    rows = [r.split(",") for r in text.strip().splitlines()]
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)
    assert rows[0][0] == "4"
