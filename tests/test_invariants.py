import random

import pytest

from hexapn.field import NAMED_SPECS, make_field
from hexapn.hexanomial import Coeffs, function_table, scale_input_coeffs
from hexapn.invariants import (
    RankGateError,
    _delta_rank_table,
    fingerprint,
    gamma_rank_table,
    gf2_rank,
    partition_by_fingerprint,
    partition_csv,
)


@pytest.fixture(scope="module")
def f4():
    return make_field(NAMED_SPECS["F4"])


def dense_rank_oracle(rows, width):
    """Plain list-of-lists Gaussian elimination over GF(2)."""
    m = [[(r >> j) & 1 for j in range(width)] for r in rows]
    rank = 0
    col = 0
    nrows = len(m)
    while col < width and rank < nrows:
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(nrows):
            if i != rank and m[i][col]:
                m[i] = [x ^ y for x, y in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def test_gf2_rank_against_dense_oracle():
    rng = random.Random(0)
    for _ in range(50):
        rows = [rng.getrandbits(12) for _ in range(rng.randrange(1, 14))]
        assert gf2_rank(rows) == dense_rank_oracle(rows, 12)


def test_gamma_rank_zero_function(f4):
    assert gamma_rank_table(f4, [0, 0, 0, 0]) == 4


def test_gamma_rank_matches_dense_oracle(f4):
    c = Coeffs(2, 0, 0, 0, 2)
    table = function_table(f4, c)
    graph = [(x << 2) | fx for x, fx in enumerate(table)]
    rows = []
    for u in range(16):
        row = 0
        for g in graph:
            row |= 1 << (u ^ g)
        rows.append(row)
    assert gamma_rank_table(f4, table) == dense_rank_oracle(rows, 16)


def test_rank_scaling_invariance(f4):
    rng = random.Random(1)
    for _ in range(8):
        c = Coeffs(*(rng.randrange(4) for _ in range(5)))
        lam = rng.randrange(1, 4)
        scaled = scale_input_coeffs(f4, c, lam)
        for rank in (gamma_rank_table, _delta_rank_table):
            assert rank(f4, function_table(f4, c)) == rank(f4, function_table(f4, scaled))
        # output scaling f -> mu f, via explicit re-tabulation
        mu = rng.randrange(1, 4)
        table = [f4.mul(mu, v) for v in function_table(f4, c)]
        assert gamma_rank_table(f4, table) == gamma_rank_table(f4, function_table(f4, c))


def test_rank_gate(f4):
    ctx = make_field(NAMED_SPECS["F256"])
    table = function_table(ctx, Coeffs(2, 0, 0, 0, 2))
    for rank in (gamma_rank_table, _delta_rank_table):
        with pytest.raises(RankGateError):
            rank(ctx, table)


def test_fingerprint_roundtrip_and_hash(f4):
    c = Coeffs(2, 0, 0, 0, 2)
    fp1 = fingerprint(f4, c, with_ranks=True)
    fp2 = fingerprint(f4, c, with_ranks=True)
    assert fp1 == fp2 and fp1.hash == fp2.hash
    j = fp1.to_json()
    assert j["hash"] == fp1.hash
    assert j["gamma_rank"] is not None and j["delta_rank"] is not None
    bare = fingerprint(f4, c)
    assert bare.gamma_rank is None and bare.hash != fp1.hash


def test_partition_and_csv(f4):
    tuples = [Coeffs(2, 0, 0, 0, 2), Coeffs(3, 0, 0, 0, 3), Coeffs(0, 0, 0, 0, 0)]
    groups = partition_by_fingerprint(f4, tuples)
    assert sum(len(v) for v in groups.values()) == 3
    csv_text = partition_csv(groups, f4)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "group,size,representative"
    assert len(lines) == 1 + len(groups)


def test_partition_empty(f4):
    assert partition_by_fingerprint(f4, []) == {}


def test_fingerprints_separate_f64_representatives():
    ctx = make_field(NAMED_SPECS["F64"])
    reps = [
        Coeffs(*(ctx.pow(2, k) for k in (23, 23, 47, 25, 29))),
        Coeffs(*(ctx.pow(2, k) for k in (35, 46, 6, 20, 31))),
        Coeffs(ctx.pow(2, 37), 0, ctx.pow(2, 41), ctx.pow(2, 28), 0),
    ]
    # spectra alone coincide for all three representatives
    bare = [fingerprint(ctx, c) for c in reps]
    assert bare[0] == bare[1] == bare[2]
    # the graph-incidence rank separates them (1166 / 1146 / 1102)
    full = [fingerprint(ctx, c, with_ranks=True) for c in reps]
    gammas = [fp.gamma_rank for fp in full]
    assert gammas == [1166, 1146, 1102]
    assert len({fp.hash for fp in full}) == 3
