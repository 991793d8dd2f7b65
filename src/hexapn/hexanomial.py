"""The hexanomial family f(x) = x(Ax^2 + Bx^q + Cx^(2q)) + x^2(Dx^q + Ex^(2q)) + x^(3q).

A member is identified by the coefficient 5-tuple (A, B, C, D, E) over
GF(q^2); the x^(3q) coefficient is fixed to 1. At q = 2 several monomial
exponents coincide, so the univariate rendering merges coefficients; the
merge is computed generically by grouping equal exponents.
"""

from __future__ import annotations

from typing import NamedTuple

from .field import FieldCtx


class Coeffs(NamedTuple):
    A: int
    B: int
    C: int
    D: int
    E: int


def monomial_exponents(q: int) -> list[int]:
    """Exponents of the six monomials, in coefficient order (A..E, then 1)."""
    return [3, q + 1, 2 * q + 1, q + 2, 2 * q + 2, 3 * q]


def evaluate(ctx: FieldCtx, c: Coeffs, x: int) -> int:
    """Exact field value of f at x."""
    mul = ctx.mul
    x2 = mul(x, x)
    xq = ctx.frob_q(x)
    x2q = mul(xq, xq)
    inner = mul(c.A, x2) ^ mul(c.B, xq) ^ mul(c.C, x2q)
    out = mul(x, inner)
    out ^= mul(x2, mul(c.D, xq) ^ mul(c.E, x2q))
    out ^= mul(x2q, xq)  # x^(3q)
    return out


def function_table(ctx: FieldCtx, c: Coeffs) -> list[int]:
    """Lookup table [f(0), f(1), ..., f(N-1)]."""
    return [evaluate(ctx, c, x) for x in ctx.elements()]


class UnivariateForm:
    """Collision-merged univariate rendering: sorted (exponent, coefficient) pairs."""

    def __init__(self, terms: list[tuple[int, int]]):
        self.terms = sorted((e, z) for e, z in terms if z != 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, UnivariateForm) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(self.terms))

    def __repr__(self) -> str:
        return f"UnivariateForm({self.terms})"

    def evaluate(self, ctx: FieldCtx, x: int) -> int:
        acc = 0
        for e, z in self.terms:
            acc ^= ctx.mul(z, ctx.pow(x, e))
        return acc

    def format(self, ctx: FieldCtx) -> str:
        """Render as 'coef x^e + ...' by ascending exponent, with
        basis-polynomial coefficients like '(a^3 + a + 1)'."""
        if not self.terms:
            return "0"
        parts = []
        for e, z in self.terms:
            if z == 1:
                parts.append(f"x^{e}")
                continue
            txt = ctx.format_elem_poly(z)
            if " " in txt:
                txt = f"({txt})"
            parts.append(f"{txt} x^{e}")
        return " + ".join(parts)


def to_univariate(ctx: FieldCtx, c: Coeffs) -> UnivariateForm:
    """Merge the six monomials into distinct-exponent form (agrees with evaluate)."""
    merged: dict[int, int] = {}
    coeffs = [c.A, c.B, c.C, c.D, c.E, 1]
    for e, z in zip(monomial_exponents(ctx.q), coeffs):
        merged[e] = merged.get(e, 0) ^ z
    return UnivariateForm(list(merged.items()))


def scale_input_coeffs(ctx: FieldCtx, c: Coeffs, lam: int) -> Coeffs:
    """Coefficients of lam^(-3q) * f(lam * x), normalized back into the family.

    The substitution x -> lam*x scales the slot with exponent e by lam^e;
    dividing by the leading lam^(3q) keeps the x^(3q) coefficient at 1.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    q = ctx.q
    lead = ctx.pow(lam, 3 * q)
    exps = monomial_exponents(q)[:5]
    scaled = [
        ctx.div(ctx.mul(z, ctx.pow(lam, e)), lead)
        for z, e in zip([c.A, c.B, c.C, c.D, c.E], exps)
    ]
    return Coeffs(*scaled)
