"""Walsh coefficients and the extended Walsh spectrum.

W(a, b) = sum over x of (-1)^(Tr2(b f(x) + a x)) with Tr2 the absolute trace
to GF(2) (the relative trace of the field module is a different map and is
never used here). The spectrum comes from a fast 2m-dimensional butterfly per
output mask b; the transform enumerates the dual basis of linear functionals,
which permutes the a-axis but leaves the (a, b) multiset unchanged.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx

Spectrum = tuple[tuple[int, int], ...]  # (|W|, count), sorted


def _wht_rows(signs: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard butterfly along the last axis."""
    out = signs.astype(np.int32)
    n = out.shape[-1]
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            x = out[..., start:start + h].copy()
            y = out[..., start + h:start + 2 * h].copy()
            out[..., start:start + h] = x + y
            out[..., start + h:start + 2 * h] = x - y
        h *= 2
    return out


def walsh_table(ctx: FieldCtx, table: list[int] | np.ndarray) -> np.ndarray:
    """|W| values, shape (N-1, N): rows b = 1..N-1, columns over the dual index."""
    n = ctx.size
    mul = ctx.np_mul
    tr = ctx.np_trace2
    f = np.asarray(table, dtype=np.uint16)
    bs = np.arange(1, n, dtype=np.intp)
    bits = tr[mul[bs[:, None], f[None, :].astype(np.intp)]]
    signs = 1 - 2 * bits.astype(np.int32)
    return _wht_rows(signs)


def extended_walsh_spectrum_table(ctx: FieldCtx, table) -> Spectrum:
    """Spectrum over all a and b != 0 for an arbitrary function table."""
    w = walsh_table(ctx, table)
    vals, counts = np.unique(np.abs(w), return_counts=True)
    return tuple((int(v), int(k)) for v, k in zip(vals, counts))
