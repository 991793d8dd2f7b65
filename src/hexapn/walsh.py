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
        pairs = out.reshape(*out.shape[:-1], n // (2 * h), 2, h)  # a view of out
        x = pairs[..., 0, :].copy()
        pairs[..., 0, :] += pairs[..., 1, :]
        pairs[..., 1, :] = x - pairs[..., 1, :]
        h *= 2
    return out


def extended_walsh_spectrum_table(ctx: FieldCtx, table) -> Spectrum:
    """Spectrum over all a and b != 0 for an arbitrary function table.

    Row b - 1 of the transform holds W(., b), b = 1..N-1, over the dual index.
    """
    f = np.asarray(table, dtype=np.intp)
    bs = np.arange(1, ctx.size, dtype=np.intp)
    bits = ctx.np_trace2[ctx.np_mul[bs[:, None], f[None, :]]]
    w = _wht_rows(1 - 2 * bits.astype(np.int32))
    vals, counts = np.unique(np.abs(w), return_counts=True)
    return tuple((int(v), int(k)) for v, k in zip(vals, counts))
