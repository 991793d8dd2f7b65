"""Difference distribution tables, differential uniformity and APN tests.

Two independent APN tests are provided: a DDT-based one (optionally with
early row abort at count 4, the smallest possible violation in
characteristic 2) and a direct test of the derivative equation in the
(a, x) form. Vectorized, `apn_mask_batch` runs the early-abort DDT on any
tuples and `apn_planes`, the 2-flat sieve, gives whole (D, E) planes.
"""

from __future__ import annotations

from collections import Counter, namedtuple
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

    With early_abort, the rows stop at the first whose maximum exceeds 2
    (DDT entries are even, so that maximum is at least 4).
    """
    f = function_table(ctx, c)
    if not early_abort:
        return differential_profile_table(ctx, f).is_apn
    return all(max(row) <= 2 for row in _ddt_rows(f))


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


#: The 2-dim subspaces {0, u, v, u+v}, as apn_planes reads them. basis[s] =
#: (u, v), u < v < u^v; sums[k, s] = x_k(u) + x_k(v) + x_k(u+v) for the six
#: monomials in coefficient order. Subspace s strikes the line m_D D + m_E E =
#: gamma: E = gamma/m_E + line_d[i] (line_d[i, D] = (m_D/m_E) D, line_inv =
#: 1/m_E) where m_E != 0, and the row D = gamma/m_D (row_inv = 1/m_D) where
#: m_E = m_B^2 = (u^q v + u v^q)^2 = 0. That is v = lu with l in GF(q), so
#: m_D = u^(q+2)(l^2 + l) != 0 there.
Flats = namedtuple("Flats", "basis sums lines line_inv line_d rows row_inv")


class BatchTables:
    """Per-field monomial tables reused across exhaustive blocks; the 2-flat
    tables are built on first use of flats()."""

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
        self._flats = None

    def flats(self) -> Flats:
        if self._flats is None:
            zs = np.arange(self.ctx.size)
            u, v = np.nonzero((zs[:, None] > 0) & (zs[:, None] < zs) & (zs < zs[:, None] ^ zs))
            mons = np.stack([self.x3, self.xq1, self.x2q1, self.xq2, self.x2q2, self.x3q])
            m = mons[:, u] ^ mons[:, v] ^ mons[:, u ^ v]
            inv = np.array([0, *map(self.ctx.inv, zs[1:].tolist())], dtype=np.uint16)
            lines, rows = np.flatnonzero(m[4]), np.flatnonzero(m[4] == 0)
            line_inv = inv[m[4, lines]]
            line_d = self.mul[self.mul[m[3, lines], line_inv][:, None], zs]
            self._flats = Flats(np.stack([u, v], axis=1).astype(np.uint16), m, lines,
                                line_inv, line_d, rows, inv[m[3, rows]])
        return self._flats


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


def apn_planes(bt: BatchTables, A, B, C) -> np.ndarray:
    """Exact APN masks, indexed [block, D, E], of the (D, E) planes of the
    (A, B, C) blocks given as equal-length arrays.

    Every member is quadratic, so f is APN iff f(u) + f(v) + f(u+v) != 0 on
    each 2-dim subspace (Nyberg, EUROCRYPT 1993). That sum is gamma + m_D D
    + m_E E with gamma = m_A A + m_B B + m_C C + m_3q, one line of the plane
    per subspace (see Flats). Index arrays hold blocks x S x N entries.
    """
    mul = bt.mul
    n = bt.ctx.size
    fl = bt.flats()
    m = fl.sums
    A, B, C = (np.asarray(z, dtype=np.intp)[:, None] for z in (A, B, C))
    gamma = mul[A, m[0]] ^ mul[B, m[1]] ^ mul[C, m[2]] ^ m[5]
    k = np.arange(len(gamma))[:, None]
    plane = np.ones((len(gamma), n, n), dtype=bool)
    e = mul[gamma[:, fl.lines], fl.line_inv][:, :, None] ^ fl.line_d
    plane[k[:, :, None], np.arange(n), e] = False
    plane[k, mul[gamma[:, fl.rows], fl.row_inv]] = False
    return plane
