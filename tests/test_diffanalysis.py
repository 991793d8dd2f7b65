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
    apn_planes,
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


def _blocks(n, blocks, rows=None):
    """(A, B, C) blocks and their (D, E) tuples as uint16 columns, on the D
    rows given (every row by default)."""
    blocks = np.array(blocks, dtype=np.uint16)
    rows = np.arange(n) if rows is None else np.asarray(rows)
    d, e = np.meshgrid(rows, np.arange(n), indexing="ij")
    cols = [np.repeat(z, d.size) for z in blocks.T]
    cols += [np.tile(z.ravel(), len(blocks)).astype(np.uint16) for z in (d, e)]
    return blocks.T, rows, cols


def _assert_planes_match(bt, blocks, rows=None):
    abc, rows, cols = _blocks(bt.ctx.size, blocks, rows)
    planes = apn_planes(bt, *abc)
    assert np.array_equal(planes[:, rows].ravel(), apn_mask_batch(bt, *cols))
    return planes


def test_flat_tables():
    # one canonical basis per 2-dim subspace; the flat sums are those of the
    # scalar function tables; m_E = 0 exactly on the subspaces v = lu with l
    # in GF(q), and m_D is nonzero there
    for name, lines, rows in (("F4", 1, 0), ("F16", 30, 5), ("F64", 588, 63)):
        ctx = make_field(NAMED_SPECS[name])
        fl = BatchTables(ctx).flats()
        n = ctx.size
        u, v = fl.basis.T.astype(int)
        assert len(fl.basis) == (n - 1) * (n - 2) // 6 == lines + rows
        assert (0 < u).all() and (u < v).all() and (v < u ^ v).all()
        assert len(set(map(tuple, fl.basis.tolist()))) == len(fl.basis)
        x3q = np.array(function_table(ctx, Coeffs(0, 0, 0, 0, 0)))
        for k in range(6):
            t = x3q if k == 5 else x3q ^ function_table(ctx, Coeffs(*np.eye(5, dtype=int)[k]))
            assert np.array_equal(fl.sums[k], t[u] ^ t[v] ^ t[u ^ v]), (name, k)
        ratio = [ctx.div(b, a) for a, b in zip(u.tolist(), v.tolist())]
        assert np.array_equal(fl.sums[4] == 0, [ctx.frob_q(r) == r for r in ratio])
        assert (len(fl.lines), len(fl.rows)) == (lines, rows)
        assert (fl.sums[3, fl.rows] != 0).all()


def test_apn_planes_match_kernel(f4, f16):
    # the 2-flat sieve equals the early-abort DDT kernel, which is exact
    rng = np.random.default_rng(11)
    f64 = make_field(NAMED_SPECS["F64"])
    f256 = make_field(NAMED_SPECS["F256"])
    _assert_planes_match(BatchTables(f4), list(itertools.product(range(4), repeat=3)))
    bt16 = BatchTables(f16)
    blocks16 = rng.integers(0, 16, (256, 3))
    _assert_planes_match(bt16, blocks16)
    bt64 = BatchTables(f64)
    blocks64 = np.concatenate([rng.integers(0, 64, (16, 3)), [(1, 1, c) for c in range(64)]])
    planes64 = _assert_planes_match(bt64, blocks64)
    assert planes64[16:].sum() > 0  # the BC blocks hold APN tuples
    bt256 = BatchTables(f256)
    for c in (3, 5):  # (1, 1, c) holds 240 APN tuples, all on the row D = c^q
        rows = sorted({f256.frob_q(c), *rng.choice(256, 3, replace=False).tolist()})
        planes = _assert_planes_match(bt256, [(1, 1, c)], rows)
        assert planes.sum() == planes[0, f256.frob_q(c)].sum() == 240

    # the row branch (m_E = 0) matters: without it the sieve passes non-APN tuples
    for bt, blocks in ((bt16, blocks16), (bt64, blocks64)):
        abc, _, _ = _blocks(bt.ctx.size, blocks)
        no_rows = BatchTables(bt.ctx)
        fl = no_rows.flats()
        no_rows._flats = fl._replace(rows=fl.rows[:0], row_inv=fl.row_inv[:0])
        assert (apn_planes(no_rows, *abc) & ~apn_planes(bt, *abc)).any()

    # and the no-abort scalar DDT agrees on sampled APN and non-APN entries
    abc, _, _ = _blocks(64, blocks64)
    for flag in (True, False):
        k, d, e = np.nonzero(planes64 == flag)
        for i in rng.choice(len(k), 6, replace=False):
            c = Coeffs(*(int(z) for z in abc[:, k[i]]), int(d[i]), int(e[i]))
            assert is_apn_ddt(f64, c, early_abort=False) == flag, c
