"""Difference distribution tables, differential uniformity and APN tests.

Two independent APN tests are provided: a DDT-based one (optionally with
early row abort at count 4, the smallest possible violation in
characteristic 2) and a direct test of the derivative equation in the
(a, x) form. A vectorized block kernel backs the exhaustive search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .field import FieldCtx
from .hexanomial import Coeffs, function_table


@dataclass(frozen=True)
class DiffProfile:
    uniformity: int
    spectrum: tuple[tuple[int, int], ...]  # DDT value -> count over (a != 0, b)
    is_apn: bool
    is_permutation: bool


def _ddt_rows(f: list[int]):
    """Rows a = 1..N-1 of the DDT of the function table f: the one full-DDT loop."""
    n = len(f)
    for a in range(1, n):
        row = [0] * n
        for x in range(n):
            row[f[x ^ a] ^ f[x]] += 1
        yield row


def ddt(ctx: FieldCtx, c: Coeffs) -> list[list[int]]:
    """Full N x N table; row a = 0 is the degenerate [N, 0, ..., 0]."""
    n = ctx.size
    return [[n] + [0] * (n - 1), *_ddt_rows(function_table(ctx, c))]


def ddt_csv(ctx: FieldCtx, c: Coeffs) -> str:
    return "\n".join(",".join(map(str, row)) for row in ddt(ctx, c)) + "\n"


def differential_profile(ctx: FieldCtx, c: Coeffs) -> DiffProfile:
    return differential_profile_table(ctx, function_table(ctx, c))


def differential_profile_table(ctx: FieldCtx, f: list[int]) -> DiffProfile:
    """The differential profile of an arbitrary function table."""
    spectrum: Counter[int] = Counter()
    uniformity = 0
    for row in _ddt_rows(f):
        spectrum.update(row)
        uniformity = max(uniformity, max(row))
    return DiffProfile(
        uniformity=uniformity,
        spectrum=tuple(sorted(spectrum.items())),
        is_apn=uniformity == 2,
        is_permutation=len(set(f)) == ctx.size,
    )


def is_apn_ddt(ctx: FieldCtx, c: Coeffs, early_abort: bool = True) -> bool:
    """True iff every DDT row (a != 0) has maximum 2.

    With early_abort, a row is abandoned as soon as any count reaches 4.
    """
    f = function_table(ctx, c)
    if not early_abort:
        return differential_profile_table(ctx, f).is_apn
    n = ctx.size
    for a in range(1, n):
        counts = [0] * n
        for x in range(n):
            b = f[x ^ a] ^ f[x]
            counts[b] += 1
            if counts[b] >= 4:
                return False
    return True


def is_apn_equation(ctx: FieldCtx, c: Coeffs) -> bool:
    """Direct test of the derivative-collision equation.

    Non-APN iff some a != 0 and x outside {0, a} satisfy
    (Aa + a^(2q)E + a^q D)x^2 + (a^2 A + a^(2q)C + a^q B)x
      + (a^2 E + aC + a^q)x^(2q) + (a^2 D + aB + a^(2q))x^q = 0.
    """
    mul = ctx.mul
    frob = ctx.frob_q
    A, B, C, D, E = c
    for a in range(1, ctx.size):
        a2 = mul(a, a)
        aq = frob(a)
        a2q = mul(aq, aq)
        k2 = mul(A, a) ^ mul(a2q, E) ^ mul(aq, D)
        k1 = mul(a2, A) ^ mul(a2q, C) ^ mul(aq, B)
        k2q = mul(a2, E) ^ mul(a, C) ^ aq
        kq = mul(a2, D) ^ mul(a, B) ^ a2q
        for x in range(1, ctx.size):
            if x == a:
                continue
            x2 = mul(x, x)
            xq = frob(x)
            x2q = mul(xq, xq)
            if mul(k2, x2) ^ mul(k1, x) ^ mul(k2q, x2q) ^ mul(kq, xq) == 0:
                return False
    return True


def is_permutation(ctx: FieldCtx, c: Coeffs) -> bool:
    return len(set(function_table(ctx, c))) == ctx.size


# -- batch kernel ------------------------------------------------------------


class BatchTables:
    """Per-field monomial tables reused across exhaustive blocks."""

    def __init__(self, ctx: FieldCtx):
        n = ctx.size
        mul = ctx.np_mul
        xs = np.arange(n, dtype=np.uint16)
        frob = ctx.np_frob
        x2 = mul[xs, xs]
        xq = frob[xs]
        x2q = mul[xq, xq]
        self.ctx = ctx
        self.mul = mul
        self.x3 = mul[x2, xs]
        self.xq1 = mul[xq, xs]
        self.x2q1 = mul[x2q, xs]
        self.xq2 = mul[xq, x2]
        self.x2q2 = mul[x2q, x2]
        self.x3q = mul[x2q, xq]


def function_tables_batch(bt: BatchTables, A, B, C, D, E) -> np.ndarray:
    """f-tables for equal-length coefficient arrays; shape (len, N) uint16."""
    mul = bt.mul
    f = mul[np.asarray(A, dtype=np.intp)[:, None], bt.x3[None, :].astype(np.intp)]
    f ^= mul[np.asarray(B, dtype=np.intp)[:, None], bt.xq1[None, :].astype(np.intp)]
    f ^= mul[np.asarray(C, dtype=np.intp)[:, None], bt.x2q1[None, :].astype(np.intp)]
    f ^= mul[np.asarray(D, dtype=np.intp)[:, None], bt.xq2[None, :].astype(np.intp)]
    f ^= mul[np.asarray(E, dtype=np.intp)[:, None], bt.x2q2[None, :].astype(np.intp)]
    f ^= bt.x3q[None, :]
    return f


def apn_mask_batch(bt: BatchTables, A, B, C, D, E) -> np.ndarray:
    """Early-abort DDT test vectorized over tuples given as equal-length arrays.

    Rows (tuples) whose DDT shows a count >= 4 are dropped from the working
    set after each difference a, which is the batched form of the early abort.
    """
    n = bt.ctx.size
    f = function_tables_batch(bt, A, B, C, D, E)
    ntup = f.shape[0]
    alive = np.arange(ntup, dtype=np.intp)
    mask = np.zeros(ntup, dtype=bool)
    xs = np.arange(n, dtype=np.intp)
    for a in range(1, n):
        d = f[:, xs ^ a] ^ f
        off = (np.arange(f.shape[0], dtype=np.int64) * n)[:, None]
        cnt = np.bincount((d.astype(np.int64) + off).ravel(), minlength=f.shape[0] * n)
        keep = cnt.reshape(f.shape[0], n).max(axis=1) <= 2
        if not keep.all():
            alive = alive[keep]
            f = f[keep]
            if alive.size == 0:
                return mask
    mask[alive] = True
    return mask
