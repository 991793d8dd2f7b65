"""Independent oracles for the census and reconciliation acceptance criteria.

Each oracle decides a quantity that the toolkit also computes, along a route
that shares no code with the toolkit's own computation of it:

- `f4_closed_form_apn`: at q = 2 the six monomials collapse on GF(4) to
  f(x) = (A+B+E+1)x^3 + Cx^2 + Dx. The part Cx^2 + Dx is additive and x^3
  is APN on GF(4), so f is APN iff A+B+E != 1. No DDT, no kernel.
- `gcd_nontrivial`: gcd(p, r) in GF(q^2)[Z0, Z1] is nontrivial iff the
  Z0-resultant vanishes identically or the Z1-contents share a factor
  (Gauss's lemma in GF(q^2)[Z1][Z0]). The resultant is the symbolic
  `resultant_z0` or, when the field has more elements than the resultant's
  Z1-degree allows roots, Sylvester determinants evaluated at every
  Z1 = z; the content gcd is a plain Euclid written here. Neither uses the
  pseudo-remainder sequence of `gcd_bivariate`.
- `offplane_zeros`: a scalar `MPoly.eval` count of the phi-fixed points
  (X1 = X0^q, Z1 = Z0^q) off the forbidden hyperplanes, in place of the
  vectorized grid of `rational_point_scan`.
- `divides`: multivariate division by one polynomial, which is a Groebner
  basis of the ideal it generates, in place of `gcd_bivariate`'s
  pseudo-remainders.
- `walsh_coefficient`: the direct O(N) sum of one Walsh coefficient, in
  place of the fast butterfly of `walsh`.
- `lowest_part_resultant_check`: Res_Z0 of the lowest homogeneous parts of
  g1 and g2 by `resultant_z0`, against the closed form (A^q B + B^q)^2 h1 Z1^3
  that the theory's h1 predicts.
- `match_scalar` and `verdict_scalar`: the summary cases and the verdict
  as short-circuit scalar code, one `if` per clause in the paper's reading
  order, in place of the branch-free `theory._cases` and `theory._rule`
  that run on ints and on arrays. Case 8 is read as printed, with the
  inverse of the Frobenius image of AE^q + E. Both share `_evaluate`, the
  root scan and p1/p2 with the toolkit; the clauses are what they check.
- `passes_filters_scalar`: `search.passes_filters` through those two.
- `reconcile_scalar`: `theory.reconcile` as a loop of `verdict_scalar`
  calls, one tuple at a time, in place of its chunked array form.

`resultant_z0` is a Sylvester determinant over GF(q^2)[Z1], expanded by
cofactors (n! terms; fine for the small matrices used here).
"""

from __future__ import annotations

from hexapn.field import FieldCtx
from hexapn.hexanomial import Coeffs, function_table
from hexapn.sympoly import X0, Z0, Z1, MPoly, g1_g2_displays, g_display
from hexapn.theory import (
    CASE9_CONGRUENCE,
    ReconcileReport,
    Verdict,
    _case9,
    _cd_cubic,
    _evaluate,
    _Shared,
    case7_cubic,
    cubic_predicates,
    p1_p2_values,
)


def f4_closed_form_apn(c: Coeffs) -> bool:
    """APN flag of a GF(4) tuple from the collapsed form (A+B+E+1)x^3 + Cx^2 + Dx."""
    return c.A ^ c.B ^ c.E != 1


# -- univariate arithmetic in GF(q^2)[Z1]: ascending lists, no trailing zeros --


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mod(ctx: FieldCtx, a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    inv_lead = ctx.inv(b[-1])
    while len(a) >= len(b):
        f = ctx.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        for i, cb in enumerate(b):
            a[shift + i] ^= ctx.mul(f, cb)
        _trim(a)
    return a


def _gcd(ctx: FieldCtx, a: list[int], b: list[int]) -> list[int]:
    while b:
        a, b = b, _mod(ctx, a, b)
    return a


def _z0_columns(p: MPoly) -> list[list[int]]:
    """Coefficients of Z0^0 .. Z0^d of an X-free p, each a polynomial in Z1."""
    cols = [[] for _ in range(p.degree_in(Z0) + 1)]
    for e, coef in p.terms.items():
        col = cols[e[Z0]]
        col.extend([0] * (e[Z1] + 1 - len(col)))
        col[e[Z1]] = coef
    return [_trim(col) for col in cols]


def z1_content(p: MPoly) -> list[int]:
    """A gcd of the Z0-coefficients of p (a polynomial in Z1)."""
    g: list[int] = []
    for col in _z0_columns(p):
        g = _gcd(p.ctx, g, col)
    return g


def _det(ctx: FieldCtx, m: list[list[int]]) -> int:
    """Determinant over GF(q^2) by elimination; row swaps are free in char 2."""
    m = [list(row) for row in m]
    det = 1
    for j in range(len(m)):
        piv = next((i for i in range(j, len(m)) if m[i][j]), None)
        if piv is None:
            return 0
        m[j], m[piv] = m[piv], m[j]
        inv = ctx.inv(m[j][j])
        det = ctx.mul(det, m[j][j])
        for i in range(j + 1, len(m)):
            f = ctx.mul(m[i][j], inv)
            if f:
                m[i] = [x ^ ctx.mul(f, y) for x, y in zip(m[i], m[j])]
    return det


def _eval_u(ctx: FieldCtx, a: list[int], z: int) -> int:
    acc = 0
    for coef in reversed(a):
        acc = ctx.mul(acc, z) ^ coef
    return acc


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return _trim([x ^ (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def _mul(ctx: FieldCtx, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= ctx.mul(x, y)
    return _trim(out)


def _det_upoly(ctx: FieldCtx, m: list[list[list[int]]]) -> list[int]:
    """Determinant over GF(q^2)[Z1] by cofactor expansion along the first row."""
    if not m:
        return [1]
    acc: list[int] = []
    for j, entry in enumerate(m[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            acc = _add(acc, _mul(ctx, entry, _det_upoly(ctx, minor)))
    return acc


def resultant_z0(p: MPoly, r: MPoly, deg_p: int | None = None, deg_r: int | None = None) -> MPoly:
    """Resultant in Z0 of two X-free polynomials via the Sylvester determinant.

    Formal degrees may be forced (leading coefficients allowed to vanish) so
    the result is the polynomial function of the displayed coefficients.
    """
    ctx = p.ctx
    a, b = _z0_columns(p) or [[]], _z0_columns(r) or [[]]  # a zero polynomial has one zero column
    dp = len(a) - 1 if deg_p is None else deg_p
    dr = len(b) - 1 if deg_r is None else deg_r
    size = dp + dr

    def coeff(cols, k):
        return cols[k] if 0 <= k < len(cols) else []

    # rows: dr shifts of p's coefficients, dp shifts of r's; columns by
    # descending Z0 power
    m = [[coeff(a, dp - (j - s)) for j in range(size)] for s in range(dr)]
    m += [[coeff(b, dr - (j - s)) for j in range(size)] for s in range(dp)]
    det = _det_upoly(ctx, m)
    return MPoly(ctx, {(0, 0, 0, j): v for j, v in enumerate(det) if v})


def resultant_vanishes_by_evaluation(p: MPoly, r: MPoly) -> bool:
    """Res_Z0(p, r) == 0, decided from its values at every Z1 in GF(q^2).

    The Sylvester determinant with the Z0-degrees of p and r as formal
    degrees commutes with Z1 = z. Its Z1-degree is at most
    deg(p) * deg(r) (total degrees), so a field with more elements than
    that cannot hold all its roots.
    """
    ctx = p.ctx
    if p.is_zero() or r.is_zero():
        return True
    bound = p.total_degree() * r.total_degree()
    if ctx.size <= bound:
        raise ValueError(f"{ctx.size} evaluation points cannot certify degree {bound}")
    pc, rc = _z0_columns(p), _z0_columns(r)
    dp, dr = len(pc) - 1, len(rc) - 1
    size = dp + dr
    for z in ctx.elements():
        pv = [_eval_u(ctx, col, z) for col in reversed(pc)]  # descending Z0 powers
        rv = [_eval_u(ctx, col, z) for col in reversed(rc)]
        rows = [[0] * s + pv + [0] * (size - s - dp - 1) for s in range(dr)]
        rows += [[0] * s + rv + [0] * (size - s - dr - 1) for s in range(dp)]
        if _det(ctx, rows) != 0:
            return False
    return True


def gcd_nontrivial(p: MPoly, r: MPoly) -> bool:
    """True iff p and r share a nonconstant factor; gcd(0, r) = r.

    The resultant is evaluated point-wise where the field is large enough
    to certify it, and taken from `resultant_z0` otherwise.
    """
    if p.is_zero() or r.is_zero():
        return (r if p.is_zero() else p).total_degree() != 0
    if p.ctx.size > p.total_degree() * r.total_degree():
        if resultant_vanishes_by_evaluation(p, r):
            return True
    elif resultant_z0(p, r).is_zero():
        return True
    return len(_gcd(p.ctx, z1_content(p), z1_content(r))) > 1


def g_factors(ctx: FieldCtx, c: Coeffs) -> tuple[MPoly, MPoly, MPoly]:
    """(g3, g1, g2) with a2 = g3^2 and a0 = g1 g2; g3 is the X0^2 bracket of G."""
    g1, g2 = g1_g2_displays(ctx, c)
    return g_display(ctx, c).coeff_in(X0, 2), g1, g2


def gcd_a2_a0_nontrivial(ctx: FieldCtx, c: Coeffs) -> bool:
    """gcd(a2, a0) != 1: a shared factor of g3^2 and g1 g2 is one of g3 and g1 or g2."""
    g3, g1, g2 = g_factors(ctx, c)
    return gcd_nontrivial(g3, g1) or gcd_nontrivial(g3, g2)


def offplane_zeros(ctx: FieldCtx, polys: list[MPoly]) -> int:
    """Common zeros (X0, X0^q, Z0, Z0^q) with X0, Z0, X0 + Z0 all nonzero."""
    frob = ctx.frob_q
    count = 0
    for x0 in range(1, ctx.size):
        for z0 in range(1, ctx.size):
            if z0 == x0:
                continue
            pt = (x0, frob(x0), z0, frob(z0))
            count += all(p.eval(pt) == 0 for p in polys)
    return count


def divides(d: MPoly, p: MPoly) -> bool:
    """d | p: division by d under lex order leaves no remainder.

    A single polynomial is a Groebner basis of the ideal it generates, so the
    remainder is zero exactly when p lies in (d). A leading term that the
    leading term of d does not divide would stay in the remainder.
    """
    if d.is_zero():
        return p.is_zero()
    ctx = p.ctx
    lead = max(d.terms)  # tuple order on (X0, X1, Z0, Z1) exponents is lex
    inv = ctx.inv(d.terms[lead])
    r = dict(p.terms)
    while r:
        e = max(r)
        if any(ei < li for ei, li in zip(e, lead)):
            return False
        f = ctx.mul(r[e], inv)
        for ed, cd in d.terms.items():
            m = tuple(ei - li + di for ei, li, di in zip(e, lead, ed))
            v = r.get(m, 0) ^ ctx.mul(f, cd)
            if v:
                r[m] = v
            else:
                r.pop(m, None)
    return True


def walsh_coefficient(ctx: FieldCtx, c: Coeffs, a: int, b: int) -> int:
    """W(a, b) = sum over x of (-1)^Tr2(b f(x) + a x), summed directly."""
    f = function_table(ctx, c)
    acc = 0
    for x in ctx.elements():
        acc += -1 if ctx.trace2_table[ctx.mul(b, f[x]) ^ ctx.mul(a, x)] else 1
    return acc


def lowest_parts(ctx: FieldCtx, c: Coeffs) -> tuple[MPoly, MPoly, MPoly]:
    """The fixed-degree lowest homogeneous parts of g1, g2, g3 (degrees 1, 3, 2)."""
    g3, g1, g2 = g_factors(ctx, c)
    return g1.homogeneous_part(1), g2.homogeneous_part(3), g3.homogeneous_part(2)


def lowest_part_resultant_check(ctx: FieldCtx, c: Coeffs):
    """Res_Z0(g1_low, g2_low) against (A^q B + B^q)^2 h1 Z1^3.

    Returns (g1_low, g2_low, g3_low, resultant, identity_holds).
    """
    g1l, g2l, g3l = lowest_parts(ctx, c)
    res = resultant_z0(g1l, g2l, deg_p=1, deg_r=3)
    e1 = ctx.mul(ctx.frob_q(c.A), c.B) ^ ctx.frob_q(c.B)
    scale = ctx.mul(ctx.mul(e1, e1), _evaluate(ctx, c).h1)
    expected = MPoly(ctx, {(0, 0, 0, 3): scale} if scale else {})
    return g1l, g2l, g3l, res, res == expected


# -- the scalar reference transcription of the summary cases and the verdict --


def match_scalar(ctx: FieldCtx, c: Coeffs, s: _Shared, cd=None, c7=None, p12=None) -> list[int]:
    """The matched case IDs. cd and c7 are the root scans of _cd_cubic and
    case7_cubic and p12 is p1_p2_values, when the caller has them already."""
    mul = ctx.mul
    A, B, C, D, E = c
    q = ctx.q
    be = mul(B, s.Eq) ^ mul(s.Bq, E)  # BE^q + B^q E
    matched = []

    if s.c1 and s.nA != 1:
        matched.append(1)

    if B == 0 and s.acd == 0 and s.ae != 0 and mul(s.nA ^ 1, s.nC ^ 1) == 0:
        matched.append(2)

    if B == 0 and E == 0 and s.acd != 0:
        if s.sig == 0 and ctx.pow(s.acd, q - 1) == ctx.pow(s.adc, 2 * (q - 1)):
            matched.append(3)
        if s.sig != 0 and s.adc != 0:
            p1, p2 = p12 or p1_p2_values(ctx, c)
            if mul(p1, p2) == 0:
                matched.append(4)

    if s.h1 == 0 and s.bcd != 0:
        # C^q = A^q B + A^q D + B^q with A^q B + B^q != 0, read through the
        # Frobenius as AD^q + C = AB^q + B != 0; and (B + D)^(q+1) = 1
        if s.adc == s.ab and s.ab != 0 and ctx.norm_rel(B ^ D) == 1:
            matched.append(5)
        if E == 0:
            matched.append(6)

    if s.h1 == 0 and s.bcd == 0 and s.ab == 0 and be != 0:
        has_root, _ = c7 or cubic_predicates(ctx, case7_cubic(ctx, c))
        if not has_root:
            matched.append(7)

    if (
        s.adc == 0
        and s.ab != 0
        and s.ae != 0
        and s.nD == 1
        and s.nA != 1
        and be == 0
        and mul(s.ae, ctx.inv(ctx.frob_q(s.ae))) == mul(D, ctx.sqrt(D))
    ):
        matched.append(8)

    if q % 3 == CASE9_CONGRUENCE and _case9(c, s):
        matched.append(9)

    if s.adc == 0 and s.nA == 1 and s.ae == 0 and s.ab != 0 and D != 0 and s.nD != 1:
        has_root, _ = cd or cubic_predicates(ctx, _cd_cubic(c))
        if not has_root:
            matched.append(10)

    if s.adc == 0 and s.nA == 1 and B != 0 and s.ae != 0 and s.ab == 0:
        has_root, _ = cd or cubic_predicates(ctx, _cd_cubic(c))
        if not has_root:
            matched.append(11)

    return matched


def verdict_scalar(ctx: FieldCtx, c: Coeffs, s: _Shared, matched: tuple[int, ...] | None = None) -> Verdict:
    """The verdict from one evaluation; the cases are matched here unless given."""
    if s.c1:
        if s.nA != 1:
            return Verdict("apn", (1,), "condition-C1")
        return Verdict("not-apn", (), "condition-C1")
    if s.c2:
        return Verdict("not-apn", (), "condition-C2")
    if matched is None:
        matched = tuple(match_scalar(ctx, c, s))

    # The C6-failure branch with AB^q + B != 0 and AE^q + E = 0 is decided
    # both ways: APN exactly when case 9 or 10 matches.
    if not s.c6 and s.ab != 0 and s.ae == 0:
        hit = tuple(i for i in matched if i in (9, 10))
        if hit:
            return Verdict("apn", hit, "c6-fails-iff")
        return Verdict("excluded", matched, "c6-fails-iff-complement")
    if matched:
        return Verdict("candidate", matched, "necessary-conditions")

    # No case matched: name the theorem family responsible.
    if c.B != 0:
        if s.h1 != 0:
            reason = "generic-obstruction" if s.c6 else "c6-fails-no-case"
        elif s.bcd != 0:
            reason = "gcd-regime-no-case"
        else:
            reason = "c7-degenerate-no-case"
    elif s.acd == 0:
        reason = "b0-collapsed-branch"
    elif c.E != 0:
        reason = "b0-nonzero-e"
    else:
        reason = "b0-trace-branch"
    return Verdict("excluded", (), reason)


def passes_filters_scalar(ctx: FieldCtx, c: Coeffs, filters) -> bool:
    """search.passes_filters, clause by clause on match_scalar and verdict_scalar."""
    s = _evaluate(ctx, c)
    if filters.require_a_nonzero and c.A == 0:
        return False
    if filters.exclude_c1c2 and (s.c1 or s.c2):
        return False
    if filters.exclude_obstruction and s.c6 and s.h1 != 0:
        return False
    matched = None
    if filters.cases:
        matched = tuple(match_scalar(ctx, c, s))
        if not filters.cases.intersection(matched):
            return False
    if filters.prioritized and verdict_scalar(ctx, c, s, matched).kind in ("excluded", "not-apn"):
        return False
    return True


def reconcile_scalar(ctx: FieldCtx, batch) -> ReconcileReport:
    """theory.reconcile, one scalar verdict per tuple."""
    rep = ReconcileReport()
    regime = {"size": 0, "apn": 0, "prop-reading-matches": 0, "summary-reading-matches": 0}
    prop_consistent = True
    summary_consistent = True

    for c, empirical in batch:
        rep.total += 1
        if empirical:
            rep.apn_total += 1
        s = _evaluate(ctx, c)
        v = verdict_scalar(ctx, c, s)
        if v.kind == "apn" and empirical:
            rep.confirmations += 1
        elif v.kind == "candidate" and empirical:
            rep.confirmations += 1
        elif v.kind == "excluded" and empirical:
            rep.exceptions_by_reason[v.reason] = rep.exceptions_by_reason.get(v.reason, 0) + 1
        if v.kind == "not-apn" and empirical:
            if v.reason == "condition-C1":
                rep.contradictions_c1 += 1
            else:
                rep.contradictions_c2 += 1
        if v.kind == "apn" and not empirical:
            if v.cases == (1,):
                rep.contradictions_c1 += 1
            if 9 in v.cases:
                rep.contradictions_case9 += 1
            if 10 in v.cases:
                rep.contradictions_case10 += 1

        if _case9(c, s):
            regime["size"] += 1
            if empirical:
                regime["apn"] += 1
            prop_says = ctx.q % 3 == CASE9_CONGRUENCE
            summary_says = ctx.q % 3 == 1
            if prop_says == empirical:
                regime["prop-reading-matches"] += 1
            else:
                prop_consistent = False
            if summary_says == empirical:
                regime["summary-reading-matches"] += 1
            else:
                summary_consistent = False

    rep.case9_regime = regime
    if regime["size"] == 0:
        rep.congruence_resolution = "no case-9-shaped tuples in batch"
    elif prop_consistent and not summary_consistent:
        rep.congruence_resolution = "data supports q = 2 (mod 3)"
    elif summary_consistent and not prop_consistent:
        rep.congruence_resolution = "data supports q = 1 (mod 3)"
    elif prop_consistent and summary_consistent:
        rep.congruence_resolution = "both readings consistent on this batch"
    else:
        rep.congruence_resolution = "neither reading fully consistent"
    return rep
