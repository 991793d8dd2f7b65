"""Sparse multivariate polynomials over GF(q^2) and the collision variety.

Polynomials live in the four variables X0, X1, Z0, Z1. The module builds,
for a coefficient tuple (A..E), the pair (F1, F2) cutting out the variety
whose GF(q)-rational points (phi-fixed: X1 = X0^q, Z1 = Z0^q) encode
nontrivial derivative collisions of the hexanomial, the X1^2-free
combination G, and the X1-eliminated form Gbar together with its factor
data (a2, a1, a0, g1, g2, g3). All stated factorization identities are
verified at construction time.

F1 and F2 are transcribed verbatim from the paper. The displays of G, g1 and
g2 are not: each of their coefficients is a bracket of one
`theory._evaluate` (AE^q + E, AD^q + C, AC^q + D, AB^q + B, BC^q + B^qD,
sigma, BE^q + B^qE, C^qE + DE^q and the norms) or its Frobenius image, and
the X1 bracket of G is Z0 g1. So the identities that `build_variety_system`
verifies against F1 and F2 also check the brackets every theory filter, case
clause and verdict reads.

Bivariate gcds (for the a2/a0 common-factor criterion) use a primitive
pseudo-remainder sequence over GF(q^2)[Z1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldCtx
from .hexanomial import Coeffs
from .theory import _evaluate, cond_C1_C2

VARS = ("X0", "X1", "Z0", "Z1")
X0, X1, Z0, Z1 = 0, 1, 2, 3

#: Sample points a rational point scan returns besides its count.
SCAN_SAMPLES = 8


class DegenerateSystemError(ValueError):
    """The X1 coefficient of G vanishes identically (condition C1 or C2)."""

    def __init__(self, condition: str):
        self.condition = condition
        super().__init__(
            f"cannot eliminate X1: coefficient vanishes identically "
            f"(condition {condition} holds)"
        )


class ScanGateError(ValueError):
    """Point enumeration would exceed the configured gate."""


class MixedContextError(ValueError):
    """Operands bound to different field contexts."""


class MPoly:
    """Immutable sparse polynomial: exponent 4-vector -> nonzero coefficient."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms: dict[tuple[int, int, int, int], int] | None = None):
        self.ctx = ctx
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    # -- constructors --

    @classmethod
    def const(cls, ctx: FieldCtx, c: int) -> "MPoly":
        return cls(ctx, {(0, 0, 0, 0): c} if c else {})

    @classmethod
    def var(cls, ctx: FieldCtx, index: int, power: int = 1, coeff: int = 1) -> "MPoly":
        e = [0, 0, 0, 0]
        e[index] = power
        return cls(ctx, {tuple(e): coeff} if coeff else {})

    # -- ring operations --

    def _check(self, other: "MPoly"):
        if self.ctx is not other.ctx:
            raise MixedContextError("operands belong to different field contexts")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) ^ c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return MPoly(self.ctx, out)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        mul = self.ctx.mul
        out: dict[tuple[int, int, int, int], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                v = out.get(e, 0) ^ mul(c1, c2)
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return MPoly(self.ctx, out)

    def scale(self, c: int) -> "MPoly":
        mul = self.ctx.mul
        return MPoly(self.ctx, {e: mul(c, v) for e, v in self.terms.items()} if c else {})

    def square(self) -> "MPoly":
        # freshman's dream: square each term
        mul = self.ctx.mul
        return MPoly(
            self.ctx,
            {(2 * e[0], 2 * e[1], 2 * e[2], 2 * e[3]): mul(c, c) for e, c in self.terms.items()},
        )

    def pow(self, k: int) -> "MPoly":
        acc = MPoly.const(self.ctx, 1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # -- structure --

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.terms), default=-1)

    def homogeneous_part(self, i: int) -> "MPoly":
        return MPoly(self.ctx, {e: c for e, c in self.terms.items() if sum(e) == i})

    def coeff_in(self, var: int, power: int) -> "MPoly":
        """Coefficient of var^power, as a polynomial in the remaining variables."""
        out = {}
        for e, c in self.terms.items():
            if e[var] == power:
                e2 = list(e)
                e2[var] = 0
                out[tuple(e2)] = c
        return MPoly(self.ctx, out)

    def eval(self, point: tuple[int, int, int, int]) -> int:
        ctx = self.ctx
        acc = 0
        for e, c in self.terms.items():
            t = c
            for v, ev in zip(point, e):
                if ev:
                    t = ctx.mul(t, ctx.pow(v, ev))
            acc ^= t
        return acc

    # -- equality / rendering --

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    def dump(self) -> str:
        """One term per line: 'eX0 eX1 eZ0 eZ1 coeff-hex', sorted."""
        lines = [
            f"{e[0]} {e[1]} {e[2]} {e[3]} {c:#x}"
            for e, c in sorted(self.terms.items())
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"{VARS[i]}^{e[i]}" if e[i] > 1 else VARS[i]
                for i in range(4)
                if e[i]
            )
            cs = self.ctx.format_elem(c)
            parts.append(cs if not mono else (mono if c == 1 else f"{cs}*{mono}"))
        return " + ".join(parts)


# -- the variety system -------------------------------------------------------


@dataclass(frozen=True)
class VarietySystem:
    """F1/F2 system with the eliminated form and its verified factor data."""

    F1: MPoly
    F2: MPoly
    G: MPoly
    Gbar: MPoly
    a2: MPoly
    a1: MPoly
    a0: MPoly
    g1: MPoly
    g2: MPoly
    g3: MPoly


def _zpoly(ctx: FieldCtx, terms: dict[tuple[int, int], int]) -> MPoly:
    """Polynomial in Z0, Z1 from {(ez0, ez1): coeff}."""
    return MPoly(ctx, {(0, 0, e0, e1): c for (e0, e1), c in terms.items()})


def build_f1_f2(ctx: FieldCtx, c: Coeffs) -> tuple[MPoly, MPoly]:
    """The two defining quartics of the collision variety, transcribed verbatim."""
    frob = ctx.frob_q
    A, B, C, D, E = c
    Aq, Bq, Cq, Dq, Eq = frob(A), frob(B), frob(C), frob(D), frob(E)

    f1 = (
        MPoly.var(ctx, X0, 2) * _zpoly(ctx, {(1, 0): A, (0, 2): E, (0, 1): D})
        + MPoly.var(ctx, X0) * _zpoly(ctx, {(2, 0): A, (0, 2): C, (0, 1): B})
        + MPoly.var(ctx, X1, 2) * _zpoly(ctx, {(2, 0): E, (1, 0): C, (0, 1): 1})
        + MPoly.var(ctx, X1) * _zpoly(ctx, {(2, 0): D, (1, 0): B, (0, 2): 1})
    )
    f2 = (
        MPoly.var(ctx, X1, 2) * _zpoly(ctx, {(0, 1): Aq, (2, 0): Eq, (1, 0): Dq})
        + MPoly.var(ctx, X1) * _zpoly(ctx, {(0, 2): Aq, (2, 0): Cq, (1, 0): Bq})
        + MPoly.var(ctx, X0, 2) * _zpoly(ctx, {(0, 2): Eq, (0, 1): Cq, (1, 0): 1})
        + MPoly.var(ctx, X0) * _zpoly(ctx, {(0, 2): Dq, (0, 1): Bq, (2, 0): 1})
    )
    return f1, f2


def _displays(ctx: FieldCtx, c: Coeffs) -> tuple[MPoly, MPoly, MPoly, MPoly]:
    """The displayed brackets u (of X0^2) and v (of X0) of G and the factors
    g1, g2 of a0, from one `_evaluate` of the tuple: each coefficient is one
    of its brackets or a Frobenius image of one. The X1 bracket of G is Z0 g1."""
    s, fq = _evaluate(ctx, c), ctx.frob_q
    u = _zpoly(ctx, {
        (3, 0): s.ae, (2, 1): s.ce, (2, 0): s.adc, (1, 2): fq(s.ce),
        (1, 1): s.sig, (0, 3): fq(s.ae), (0, 2): fq(s.adc),
    })
    v = _zpoly(ctx, {
        (4, 0): s.ae, (3, 0): s.adc, (2, 2): fq(s.ce), (2, 1): s.nA ^ s.be ^ 1,
        (1, 1): fq(s.bcd), (0, 3): fq(s.acd), (0, 2): fq(s.ab),
    })
    g1 = _zpoly(ctx, {
        (3, 0): s.ce, (2, 0): s.be ^ s.nC ^ s.nD, (1, 2): fq(s.ae), (1, 1): fq(s.adc),
        (1, 0): fq(s.bcd), (0, 2): fq(s.acd), (0, 1): fq(s.ab),
    })
    g2 = _zpoly(ctx, {
        (4, 0): s.acd, (3, 0): s.ab, (2, 2): s.sig, (2, 1): s.bcd,
        (1, 2): fq(s.bcd), (0, 4): fq(s.acd), (0, 3): fq(s.ab),
    })
    return u, v, g1, g2


def _g_display_brackets(ctx: FieldCtx, c: Coeffs) -> tuple[MPoly, MPoly, MPoly]:
    """The three displayed brackets of G: coefficients of X0^2, X0 and X1."""
    u, v, g1, _ = _displays(ctx, c)
    return u, v, MPoly.var(ctx, Z0) * g1


def g_display(ctx: FieldCtx, c: Coeffs) -> MPoly:
    """G assembled from its displayed brackets."""
    u, v, w = _g_display_brackets(ctx, c)
    return (
        MPoly.var(ctx, X0, 2) * u
        + MPoly.var(ctx, X0) * v
        + MPoly.var(ctx, X1) * w
    )


def g1_g2_displays(ctx: FieldCtx, c: Coeffs) -> tuple[MPoly, MPoly]:
    """The two displayed factors of a0 (degree <= 3 first, degree 4 second)."""
    return _displays(ctx, c)[2:]


def build_g(ctx: FieldCtx, c: Coeffs) -> tuple[MPoly, MPoly, MPoly]:
    """(F1, F2, G) with G formed by the X1^2-cancelling combination."""
    frob = ctx.frob_q
    A, B, C, D, E = c
    f1, f2 = build_f1_f2(ctx, c)
    alpha = _zpoly(ctx, {(2, 0): frob(E), (1, 0): frob(D), (0, 1): frob(A)})
    mu = _zpoly(ctx, {(2, 0): E, (1, 0): C, (0, 1): 1})
    return f1, f2, alpha * f1 + mu * f2


def _detect_degeneration(ctx: FieldCtx, c: Coeffs) -> str:
    c1, c2 = cond_C1_C2(ctx, c)
    if c1:
        return "C1"
    if c2:
        return "C2"
    return "C1/C2-shaped"  # vanishing X1 coefficient outside A != 0 classification


def build_variety_system(ctx: FieldCtx, c: Coeffs) -> VarietySystem:
    """Build and verify the full eliminated system for one tuple.

    G = alpha F1 + mu F2, formed from the verbatim F1 and F2, must equal its
    display, whose X1 bracket is w = Z0 g1; Gbar must factor as stated. As
    the display's coefficients are `_evaluate`'s brackets, these identities
    also verify the brackets the theory's cases and verdicts read.

    Raises DegenerateSystemError when the X1 coefficient of G vanishes
    identically (exactly the C1/C2 degenerations), since X1 cannot then be
    eliminated.
    """
    f1, f2, g = build_g(ctx, c)
    u, v, g1, g2 = _displays(ctx, c)
    w = MPoly.var(ctx, Z0) * g1
    r = MPoly.var(ctx, X0, 2) * u + MPoly.var(ctx, X0) * v
    if g != r + MPoly.var(ctx, X1) * w:
        raise AssertionError("expanded display of G (X1 bracket Z0 * g1) does not match "
                             "its combination")
    if w.is_zero():
        raise DegenerateSystemError(_detect_degeneration(ctx, c))

    g3 = u
    a2 = g3.square()
    a1 = a2 * MPoly.var(ctx, Z0)
    a0 = g1 * g2

    # Substitute X1 <- (u X0^2 + v X0)/w into F2 and clear the denominator.
    alpha = f2.coeff_in(X1, 2).coeff_in(X0, 0)
    beta = f2.coeff_in(X1, 1).coeff_in(X0, 0)
    rho = f2.coeff_in(X1, 0)
    gbar = alpha * r * r + beta * r * w + rho * w * w

    expected = (
        alpha
        * MPoly.var(ctx, X0)
        * (MPoly.var(ctx, X0) + MPoly.var(ctx, Z0))
        * (MPoly.var(ctx, X0, 2) * a2 + MPoly.var(ctx, X0) * a1 + a0)
    )
    if gbar != expected:
        raise AssertionError("factorization of Gbar failed verification")
    return VarietySystem(F1=f1, F2=f2, G=g, Gbar=gbar, a2=a2, a1=a1, a0=a0,
                         g1=g1, g2=g2, g3=g3)


# -- bivariate gcd over GF(q^2) ------------------------------------------------
#
# Polynomials free of X0/X1 are viewed as univariate in Z0 with coefficients
# in GF(q^2)[Z1]; univariate coefficient polynomials are tuples of field
# elements, ascending, no trailing zeros.


def _u_trim(p: list[int]) -> tuple[int, ...]:
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _u_add(a, b):
    n = max(len(a), len(b))
    return _u_trim([(a[i] if i < len(a) else 0) ^ (b[i] if i < len(b) else 0) for i in range(n)])


def _u_mul(ctx, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    mul = ctx.mul
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] ^= mul(ca, cb)
    return _u_trim(out)


def _u_scale(ctx, a, c):
    mul = ctx.mul
    return _u_trim([mul(x, c) for x in a])


def _u_divmod(ctx, a, b):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = list(a)
    inv_lead = ctx.inv(b[-1])
    quo = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        f = ctx.mul(a[-1], inv_lead)
        quo[shift] = f
        for i, cb in enumerate(b):
            a[shift + i] ^= ctx.mul(f, cb)
        a.pop()
    return _u_trim(quo), _u_trim(a)


def _u_gcd(ctx, a, b):
    while b:
        a, b = b, _u_divmod(ctx, a, b)[1]
    if not a:
        return ()
    return _u_scale(ctx, a, ctx.inv(a[-1]))  # monic


def _to_zview(p: MPoly) -> list[tuple[int, ...]]:
    """Z0-univariate view of an X-free MPoly; index = Z0 power."""
    if p.degree_in(X0) > 0 or p.degree_in(X1) > 0:
        raise ValueError("gcd operands must be free of X0 and X1")
    d0 = max((e[Z0] for e in p.terms), default=0)
    cs: list[list[int]] = [[] for _ in range(d0 + 1)]
    for e, c in p.terms.items():
        col = cs[e[Z0]]
        while len(col) <= e[Z1]:
            col.append(0)
        col[e[Z1]] ^= c
    return [_u_trim(col) for col in cs]


def _from_zview(ctx, cs) -> MPoly:
    terms = {}
    for i, col in enumerate(cs):
        for j, c in enumerate(col):
            if c:
                terms[(0, 0, i, j)] = c
    return MPoly(ctx, terms)


def _zv_trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _zv_content(ctx, cs):
    g = ()
    for col in cs:
        g = _u_gcd(ctx, g, col)
    return g


def _zv_scale_down(ctx, cs, g):
    out = []
    for col in cs:
        if not col:
            out.append(())
            continue
        quo, rem = _u_divmod(ctx, col, g)
        if rem:
            raise AssertionError("content division left a remainder")
        out.append(quo)
    return out


def _zv_prem_step(ctx, a, b):
    """One step of the pseudo-remainder loop: lc(b)*a - lc(a)*Z0^d*b."""
    d = len(a) - len(b)
    lead_a, lead_b = a[-1], b[-1]
    out = [_u_mul(ctx, col, lead_b) for col in a]
    for i, col in enumerate(b):
        out[d + i] = _u_add(out[d + i], _u_mul(ctx, col, lead_a))
    return _zv_trim(out[:-1] if not out[-1] else out)


def gcd_bivariate(p: MPoly, r: MPoly) -> MPoly:
    """A gcd of two polynomials in Z0/Z1, with monic leading lex (Z0 > Z1) term.

    gcd(0, r) is the normalization of r; gcd(0, 0) is 0.
    """
    ctx = p.ctx
    p._check(r)
    if p.is_zero() and r.is_zero():
        return MPoly(ctx)
    if p.is_zero():
        return _lex_normalize(r)
    if r.is_zero():
        return _lex_normalize(p)

    a, b = _to_zview(p), _to_zview(r)
    cont = _u_gcd(ctx, _zv_content(ctx, a), _zv_content(ctx, b))
    a = _zv_scale_down(ctx, a, _zv_content(ctx, a))
    b = _zv_scale_down(ctx, b, _zv_content(ctx, b))
    if len(a) < len(b):
        a, b = b, a
    # primitive pseudo-remainder sequence in Z0
    while True:
        if not b:
            g = a
            break
        while len(a) >= len(b):
            a = _zv_prem_step(ctx, a, b)
            a = _zv_trim(a)
            if not a:
                break
        if not a:
            g = b
            break
        a = _zv_scale_down(ctx, a, _zv_content(ctx, a))
        a, b = b, a
    g = _zv_scale_down(ctx, g, _zv_content(ctx, g))
    result = _from_zview(ctx, g) * _from_zview(ctx, [cont] if cont else [])
    return _lex_normalize(result)


def _lex_normalize(p: MPoly) -> MPoly:
    if p.is_zero():
        return p
    lead = max(p.terms, key=lambda e: (e[Z0], e[Z1]))
    return p.scale(p.ctx.inv(p.terms[lead]))


# -- rational point scans --------------------------------------------------


def _phi_fixed_grid(ctx: FieldCtx):
    n = ctx.size
    z = np.arange(n, dtype=np.uint16)
    x0 = np.repeat(z, n)
    z0 = np.tile(z, n)
    frob = ctx.np_frob
    return x0, frob[x0], z0, frob[z0]


def _offplane_mask(grids) -> np.ndarray:
    """Points off the six hyperplanes X0, X1, Z0 = X0, Z1 = X1, Z0, Z1,
    whose points carry only trivial collisions."""
    x0, x1, z0, z1 = grids
    return (x0 != 0) & (x1 != 0) & (z0 != x0) & (z1 != x1) & (z0 != 0) & (z1 != 0)


def _eval_grid(poly: MPoly, grids) -> np.ndarray:
    ctx = poly.ctx
    mul = ctx.np_mul
    npts = grids[0].shape[0]
    maxdeg = [max((e[v] for e in poly.terms), default=0) for v in range(4)]
    pows = []
    for v in range(4):
        col = [np.ones(npts, dtype=np.uint16)]
        for _ in range(maxdeg[v]):
            col.append(mul[col[-1], grids[v]])
        pows.append(col)
    acc = np.zeros(npts, dtype=np.uint16)
    for e, c in poly.terms.items():
        t = np.full(npts, c, dtype=np.uint16)
        for v in range(4):
            if e[v]:
                t = mul[t, pows[v][e[v]]]
        acc ^= t
    return acc


def rational_point_scan(
    ctx: FieldCtx, system: list[MPoly], force: bool = False
) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Count phi-fixed points of the system off the trivial-collision hyperplanes.

    Enumerates (X0, Z0) over GF(q^2)^2 with X1 = X0^q, Z1 = Z0^q. Returns
    the off-plane solution count and up to SCAN_SAMPLES sample points.
    """
    if ctx.q > 4 and not force:
        raise ScanGateError(
            f"phi-fixed scan over {ctx.spec} enumerates {ctx.size**2} points; "
            f"pass force=True to run beyond q=4"
        )
    grids = _phi_fixed_grid(ctx)
    ok = _offplane_mask(grids)
    for poly in system:
        if poly.ctx is not ctx:
            raise MixedContextError("system polynomial bound to another context")
        ok &= _eval_grid(poly, grids) == 0
        if not ok.any():
            return 0, []
    idx = np.nonzero(ok)[0]
    samples = [
        (int(grids[0][i]), int(grids[1][i]), int(grids[2][i]), int(grids[3][i]))
        for i in idx[:SCAN_SAMPLES]
    ]
    return int(idx.size), samples


# -- the gcd of the regime census ---------------------------------------------


def regime_gcd(ctx: FieldCtx, c: Coeffs) -> MPoly:
    """gcd(g3, g1) * gcd(g3, g2), which stands in for gcd(a2, a0) = gcd(g3^2, g1 g2).

    A shared irreducible factor of g3^2 and g1 g2 divides g3 and one of g1,
    g2, so the product is constant exactly when gcd(a2, a0) = 1 and vanishes
    exactly where gcd(a2, a0) does. g3 = 0 gives g1 g2, never constant in the
    regime (the Z0 coefficient of g1 is (BC^q + B^qD)^q != 0).
    """
    g3, _, g1, g2 = _displays(ctx, c)
    return gcd_bivariate(g3, g1) * gcd_bivariate(g3, g2)
