"""Closed-form coefficient conditions and the 11-case summary classifier.

Every predicate below is pure field arithmetic on a coefficient tuple. Case
numbering follows the summary classification; cases 1, 9 and 10 are
necessary-and-sufficient, everything else is necessary only. All verdicts
derived from the case analysis carry an 'asymptotic' caveat: the underlying
statements are proved for large q and are applied here at desk scale, where
exceptions are reported rather than treated as errors.

The exclusions are vanishing patterns of a few quantities, and one pass,
`_evaluate`, computes them once per tuple: the Frobenius images, the norms
of A, C and D, h1, the brackets AB^q + B, AE^q + E, AC^q + D, AD^q + C and
BC^q + B^qD, sigma = A^(q+1) + C^(q+1) + D^(q+1) + 1, and the conditions C1,
C2 and C6 read off them. `match_summary_cases`, `predict_verdict`,
`analyze`, `case9_shape`, `reconcile` and the search filters all read that
one evaluation; `cond_C1_C2`, `cond_C6` and `h1_value` are views of it.

Two known transcription discrepancies are resolved in favor of the source
propositions and evaluated both ways where relevant:
  - case 7's cubic is B^q T^3 + B^q C T^2 + B C^q T + B;
  - case 9's congruence is q = 2 (mod 3); the variant printed with
    q = 1 (mod 3) is tabulated separately by `reconcile`.

`_evaluate` has no branches, so it (and its three views) also accepts
coefficients given as numpy arrays that broadcast against each other, with
an `_ArrayField` context whose operations index numpy tables; the
exhaustive search builds its closed-form filter masks this way.

The case clauses and the verdict have an array form too: `_match_array` and
`_verdict_array` take 1-D coefficient arrays and the pass over them, and
compute p1/p2 and the two cubic root scans only on the index subset of
their branch. `reconcile` evaluates its batch in chunks this way, and the
exhaustive sweep applies `prioritized` and `cases=` with them. The scalar
`_match` and `_verdict` serve single tuples (`predict_verdict`, `analyze`,
`passes_filters` in random mode) and are the oracle the array form is
tested against.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .field import FieldCtx
from .hexanomial import Coeffs


#: One tuple's shared quantities: B^q, E^q, the norms nA = A^(q+1), nC and nD,
#: h1, the brackets ab = AB^q + B, ae = AE^q + E, acd = AC^q + D,
#: adc = AD^q + C and bcd = BC^q + B^qD, sig = nA + nC + nD + 1, and C1, C2, C6.
_Shared = namedtuple("_Shared", "Bq Eq nA nC nD h1 ab ae acd adc bcd sig c1 c2 c6")


class _ArrayField:
    """The FieldCtx operations the theory reads, on numpy index arrays.

    mul and frob_q index the context's numpy tables; pow, inv, sqrt and
    norm_rel index lookup tables (pow builds one per exponent on first use).
    inv(0) reads 0 here, so callers mask out zero arguments themselves.
    With q, trace_rel and in_subfield (true when every entry lies in GF(q)),
    p1_p2_values runs on arrays too. zs holds every field element.
    """

    def __init__(self, ctx: FieldCtx):
        n = ctx.size
        zs = np.arange(n, dtype=np.uint16)
        self.ctx = ctx
        self.q = ctx.q
        self.mul = lambda a, b: ctx.np_mul[a, b]
        self.frob_q = ctx.np_frob.__getitem__
        self.inv = np.array([0] + [ctx.inv(z) for z in range(1, n)], dtype=np.uint16).__getitem__
        self.sqrt = np.array(ctx.sqrt_table, dtype=np.uint16).__getitem__
        self.norm_rel = ctx.np_mul[zs, ctx.np_frob].__getitem__
        self.zs = zs
        self._pow: dict[int, np.ndarray] = {}

    def pow(self, z, e: int):
        t = self._pow.get(e)
        if t is None:
            t = self._pow[e] = np.array([self.ctx.pow(v, e) for v in range(self.ctx.size)],
                                        dtype=np.uint16)
        return t[z]

    def trace_rel(self, z):
        return z ^ self.frob_q(z)

    def in_subfield(self, z) -> bool:
        return bool((self.frob_q(z) == z).all())


def _evaluate(ctx: FieldCtx, c: Coeffs) -> _Shared:
    """One branch-free pass over the tuple's shared quantities."""
    mul, frob = ctx.mul, ctx.frob_q
    A, B, C, D, E = c
    Aq, Bq, Cq, Dq, Eq = frob(A), frob(B), frob(C), frob(D), frob(E)
    nA, nC, nD = mul(A, Aq), mul(C, Cq), mul(D, Dq)
    B2, B2q, nB = mul(B, B), mul(Bq, Bq), mul(B, Bq)
    h1 = (
        mul(nA, nB) ^ mul(A, B2q) ^ mul(Aq, B2) ^ mul(B2, mul(Cq, Dq))
        ^ mul(nB, nC) ^ mul(nB, nD) ^ nB ^ mul(B2q, mul(C, D))
    )
    ab = mul(A, Bq) ^ B
    ae = mul(A, Eq) ^ E
    acd = mul(A, Cq) ^ D
    adc = mul(A, Dq) ^ C
    bcd = mul(B, Cq) ^ mul(Bq, D)
    sig = nA ^ nC ^ nD ^ 1
    # C1 and C2 ask A^q B = B^q and A^q E = E^q, the Frobenius images of
    # ab = 0 and ae = 0; C2's D = AC^q is acd = 0
    common = (A != 0) & (ab == 0) & (ae == 0)
    c1 = common & (C == 0) & (D == 0)
    c2 = common & (C != 0) & (D != 0) & (nA == 1) & (acd == 0)
    c6 = (adc != 0) | (sig != 0)
    return _Shared(Bq, Eq, nA, nC, nD, h1, ab, ae, acd, adc, bcd, sig, c1, c2, c6)


def cond_C1_C2(ctx: FieldCtx, c: Coeffs) -> tuple[bool, bool]:
    """The two degenerations killing the X1 coefficient of G; mutually exclusive."""
    s = _evaluate(ctx, c)
    return s.c1, s.c2


def h1_value(ctx: FieldCtx, c: Coeffs) -> int:
    """The degree-one obstruction quantity for the B != 0 analysis."""
    return _evaluate(ctx, c).h1


def cond_C6(ctx: FieldCtx, c: Coeffs) -> bool:
    """(AD^q + C, A^(q+1) + C^(q+1) + D^(q+1) + 1) != (0, 0)."""
    return _evaluate(ctx, c).c6


def p1_p2_values(ctx: FieldCtx, c: Coeffs) -> tuple[int, int]:
    """The two B = E = 0 branch quantities; the trace block of p2 lands in GF(q)."""
    mul, frob, pw = ctx.mul, ctx.frob_q, ctx.pow
    A, _, C, D, _ = c
    q = ctx.q
    Aq, Cq, Dq = frob(A), frob(C), frob(D)
    Aq1, Cq1, Dq1 = mul(A, Aq), mul(C, Cq), mul(D, Dq)

    p1 = (
        mul(pw(A, q + 2), Cq)
        ^ mul(mul(A, A), mul(Dq, Dq))
        ^ mul(Aq1, D)
        ^ mul(A, pw(C, 2 * q + 1))
        ^ mul(A, mul(Cq, Dq1))
        ^ mul(A, Cq)
        ^ mul(C, C)
        ^ mul(Cq1, D)
        ^ pw(D, q + 2)
        ^ D
    )

    tr_arg = (
        mul(pw(A, q + 2), mul(C, mul(Dq, Dq)) ^ mul(Cq, Dq))
        ^ mul(mul(A, A), pw(D, 3 * q))
        ^ mul(
            A,
            mul(pw(C, 2 * q + 1), Dq)
            ^ pw(C, 3 * q)
            ^ mul(Cq, pw(D, 2 * q + 1))
            ^ mul(Cq, Dq),
        )
        ^ mul(mul(C, C), Dq)
    )
    trace_block = ctx.trace_rel(tr_arg)
    assert ctx.in_subfield(trace_block), "trace block left the subfield"

    p2 = (
        mul(mul(Aq1, Aq1), Cq1)
        ^ mul(Aq1, mul(Cq1, Dq1) ^ Cq1 ^ Dq1 ^ mul(Dq1, Dq1) ^ 1)
        ^ pw(mul(C, Cq), 3)  # C^(3q+3) = (C^(q+1))^3
        ^ mul(Cq1, Cq1)
        ^ mul(Cq1, Dq1)
        ^ pw(mul(D, Dq), 3)
        ^ mul(mul(Cq1, Cq1), Dq1)
        ^ mul(Cq1, mul(Dq1, Dq1))
        ^ trace_block
    )
    return p1, p2


def cubic_predicates(ctx: FieldCtx, coefs: list[int]) -> tuple[bool, bool]:
    """Root scan of c3 T^3 + c2 T^2 + c1 T + c0 over GF(q^2).

    Returns (has_root_in_field, has_unit_norm_root); a unit-norm root k
    satisfies k^(q+1) = 1.
    """
    if len(coefs) != 4:
        raise ValueError("expected degree-3 coefficient list [c3, c2, c1, c0]")
    c3, c2, c1, c0 = coefs
    mul = ctx.mul
    has_root = False
    has_unit = False
    for t in ctx.elements():
        t2 = mul(t, t)
        if mul(c3, mul(t2, t)) ^ mul(c2, t2) ^ mul(c1, t) ^ c0 == 0:
            has_root = True
            if ctx.norm_rel(t) == 1:
                has_unit = True
    return has_root, has_unit


# -- summary case predicates ---------------------------------------------------

#: q mod 3 under which case 9 holds: the source proposition says 2 (the
#: summary as printed says 1; `reconcile` tabulates both readings).
CASE9_CONGRUENCE = 2


def _case9(c: Coeffs, s: _Shared) -> bool:
    """Branch-free, like _evaluate: on ints and on arrays."""
    return (c.C == 0) & (c.D == 0) & (c.A != 1) & (s.nA == 1) & (s.ae == 0) & (s.ab != 0)


def case9_shape(ctx: FieldCtx, c: Coeffs) -> bool:
    """Case 9 without its congruence on q: C = D = 0, A^(q+1) = 1, A != 1,
    AE^q + E = 0 and AB^q + B != 0."""
    return _case9(c, _evaluate(ctx, c))


def case7_cubic(ctx: FieldCtx, c: Coeffs) -> list[int]:
    """B^q T^3 + B^q C T^2 + B C^q T + B, as [c3, c2, c1, c0]."""
    Bq = ctx.frob_q(c.B)
    return [Bq, ctx.mul(Bq, c.C), ctx.mul(c.B, ctx.frob_q(c.C)), c.B]


def _cd_cubic(c: Coeffs) -> list[int]:
    """T^3 + C T^2 + D T + A, as [c3, c2, c1, c0].

    It is the C6-failure cubic T^3 + AD^q T^2 + D T + A of cases 10 and 11
    where AD^q = C, and the B = 0 cubic T^3 + C T^2 + AC^q T + A where
    AC^q = D; each is only scanned on its own branch.
    """
    return [1, c.C, c.D, c.A]


def _match(ctx: FieldCtx, c: Coeffs, s: _Shared, cd=None, c7=None, p12=None) -> list[int]:
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


def match_summary_cases(ctx: FieldCtx, c: Coeffs) -> list[int]:
    """IDs (1..11) of the summary cases matched by the tuple."""
    return _match(ctx, c, _evaluate(ctx, c))


def _take(c: Coeffs, idx) -> Coeffs:
    return Coeffs(*(v[idx] for v in c))


def _has_root_array(actx: _ArrayField, coefs) -> np.ndarray:
    """Root flags of c3 T^3 + c2 T^2 + c1 T + c0 for coefficient arrays: one
    (tuples x N) evaluation at every T."""
    mul, t = actx.mul, actx.zs
    t2 = mul(t, t)
    c3, c2, c1, c0 = (v[:, None] if np.ndim(v) else v for v in coefs)
    val = mul(c3, mul(t2, t)) ^ mul(c2, t2) ^ mul(c1, t) ^ c0
    return (val == 0).any(axis=1)


def _match_array(actx: _ArrayField, c: Coeffs, s: _Shared) -> np.ndarray:
    """_match on 1-D coefficient arrays: row i - 1 is the mask of case i.

    The clauses transcribe _match's, which is the oracle tests hold this
    against. p1/p2 and the two cubic root scans run only on the index subset
    of their branch.
    """
    mul, q = actx.mul, actx.q
    A, B, C, D, E = c
    be = mul(B, s.Eq) ^ mul(s.Bq, E)  # BE^q + B^q E
    m = np.zeros((11, A.size), dtype=bool)

    m[0] = s.c1 & (s.nA != 1)
    m[1] = (B == 0) & (s.acd == 0) & (s.ae != 0) & (mul(s.nA ^ 1, s.nC ^ 1) == 0)

    b0e0 = (B == 0) & (E == 0) & (s.acd != 0)
    m[2] = b0e0 & (s.sig == 0) & (actx.pow(s.acd, q - 1) == actx.pow(s.adc, 2 * (q - 1)))
    i4 = np.flatnonzero(b0e0 & (s.sig != 0) & (s.adc != 0))
    p1, p2 = p1_p2_values(actx, _take(c, i4))
    m[3, i4] = mul(p1, p2) == 0

    gcd = (s.h1 == 0) & (s.bcd != 0)
    m[4] = gcd & (s.adc == s.ab) & (s.ab != 0) & (actx.norm_rel(B ^ D) == 1)
    m[5] = gcd & (E == 0)

    i7 = np.flatnonzero((s.h1 == 0) & (s.bcd == 0) & (s.ab == 0) & (be != 0))
    m[6, i7] = ~_has_root_array(actx, case7_cubic(actx, _take(c, i7)))

    m[7] = (
        (s.adc == 0) & (s.ab != 0) & (s.ae != 0) & (s.nD == 1) & (s.nA != 1) & (be == 0)
        & (mul(s.ae, actx.inv(actx.frob_q(s.ae))) == mul(D, actx.sqrt(D)))
    )

    if q % 3 == CASE9_CONGRUENCE:
        m[8] = _case9(c, s)

    r10 = (s.adc == 0) & (s.nA == 1) & (s.ae == 0) & (s.ab != 0) & (D != 0) & (s.nD != 1)
    r11 = (s.adc == 0) & (s.nA == 1) & (B != 0) & (s.ae != 0) & (s.ab == 0)
    icd = np.flatnonzero(r10 | r11)
    no_root = ~_has_root_array(actx, _cd_cubic(_take(c, icd)))
    m[9, icd] = r10[icd] & no_root
    m[10, icd] = r11[icd] & no_root
    return m


# -- verdicts -------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: str          # excluded | candidate | apn | not-apn
    cases: tuple[int, ...] = ()
    reason: str = ""
    asymptotic: bool = True

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "cases": list(self.cases),
            "reason": self.reason,
            "asymptotic": self.asymptotic,
        }


@dataclass(frozen=True)
class TheoryReport:
    c1: bool
    c2: bool
    c6: bool
    h1: int
    p1: int
    p2: int
    cubic_flags: dict[str, bool | None]
    matched_cases: tuple[int, ...]
    verdict: Verdict

    def to_json(self, ctx: FieldCtx) -> dict:
        return {
            "c1": self.c1,
            "c2": self.c2,
            "c6": self.c6,
            "h1": ctx.format_elem(self.h1),
            "p1": ctx.format_elem(self.p1),
            "p2": ctx.format_elem(self.p2),
            "cubic_flags": self.cubic_flags,
            "matched_cases": list(self.matched_cases),
            "verdict": self.verdict.to_json(),
        }


def _verdict(ctx: FieldCtx, c: Coeffs, s: _Shared, matched: tuple[int, ...] | None = None) -> Verdict:
    """The verdict from one evaluation; the cases are matched here unless given."""
    if s.c1:
        if s.nA != 1:
            return Verdict("apn", (1,), "condition-C1")
        return Verdict("not-apn", (), "condition-C1")
    if s.c2:
        return Verdict("not-apn", (), "condition-C2")
    if matched is None:
        matched = tuple(_match(ctx, c, s))

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


#: _verdict's reasons in the order it decides them, and its kinds; the
#: array form codes each verdict as (kind, reason) indices into these.
_REASONS = (
    "condition-C1", "condition-C2", "c6-fails-iff", "c6-fails-iff-complement",
    "necessary-conditions", "generic-obstruction", "c6-fails-no-case",
    "gcd-regime-no-case", "c7-degenerate-no-case", "b0-collapsed-branch",
    "b0-nonzero-e", "b0-trace-branch",
)
_KINDS = ("excluded", "candidate", "apn", "not-apn")
_EXCLUDED, _CANDIDATE, _APN, _NOT_APN = range(4)
_C1, _IFF, _NECESSARY = 0, 2, 4


def _verdict_array(c: Coeffs, s: _Shared, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_verdict on 1-D coefficient arrays, from _match_array's masks m, as
    (kind, reason) codes. The verdict's cases are m's for 'candidate' and
    'c6-fails-iff-complement', m's cases 9 and 10 for 'c6-fails-iff',
    (1,) for an 'apn' C1 verdict and () otherwise."""
    bn = c.B != 0
    iff = ~s.c6 & (s.ab != 0) & (s.ae == 0)
    obstructed = bn & (s.h1 != 0)
    reason = np.select(
        [s.c1, s.c2, iff & (m[8] | m[9]), iff, m.any(axis=0),
         obstructed & s.c6, obstructed, bn & (s.bcd != 0), bn, s.acd == 0, c.E != 0],
        range(11),
        len(_REASONS) - 1,
    )
    kind = np.select(
        [s.c1 & (s.nA != 1), s.c1 | s.c2, reason == _IFF, reason == _NECESSARY],
        [_APN, _NOT_APN, _APN, _CANDIDATE],
        _EXCLUDED,
    )
    return kind, reason


def predict_verdict(ctx: FieldCtx, c: Coeffs) -> Verdict:
    return _verdict(ctx, c, _evaluate(ctx, c))


def analyze(ctx: FieldCtx, c: Coeffs) -> TheoryReport:
    """Full predicate evaluation for one tuple."""
    s = _evaluate(ctx, c)
    p1, p2 = p1_p2_values(ctx, c)
    b0 = c.B == 0 and s.acd == 0
    c7_branch = s.h1 == 0 and s.bcd == 0 and c.B != 0
    # each cubic is scanned once, here, and _match reads the same scans
    cd = cubic_predicates(ctx, _cd_cubic(c)) if b0 or s.adc == 0 else None
    c7 = cubic_predicates(ctx, case7_cubic(ctx, c)) if c7_branch else None
    cubic_flags: dict[str, bool | None] = {
        "b0-part2-unit-norm-root": cd[1] if b0 else None,
        "c7-degenerate-has-root": c7[0] if c7_branch else None,
        "c6-fails-has-root": cd[0] if s.adc == 0 else None,
    }

    matched = tuple(_match(ctx, c, s, cd, c7, (p1, p2)))
    return TheoryReport(
        c1=s.c1,
        c2=s.c2,
        c6=s.c6,
        h1=s.h1,
        p1=p1,
        p2=p2,
        cubic_flags=cubic_flags,
        matched_cases=matched,
        verdict=_verdict(ctx, c, s, matched),
    )


# -- reconciliation -------------------------------------------------------------


@dataclass
class ReconcileReport:
    total: int = 0
    apn_total: int = 0
    confirmations: int = 0
    exceptions_by_reason: dict[str, int] = field(default_factory=dict)
    contradictions_c1: int = 0       # C1-derived iff verdict vs empirical
    contradictions_c2: int = 0       # C2 'not APN' vs empirical
    contradictions_case9: int = 0
    contradictions_case10: int = 0
    case9_regime: dict[str, int] = field(default_factory=dict)
    congruence_resolution: str = ""

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "apn_total": self.apn_total,
            "confirmations": self.confirmations,
            "exceptions_by_reason": dict(sorted(self.exceptions_by_reason.items())),
            "contradictions": {
                "c1": self.contradictions_c1,
                "c2": self.contradictions_c2,
                "case9": self.contradictions_case9,
                "case10": self.contradictions_case10,
            },
            "case9_regime": self.case9_regime,
            "congruence_resolution": self.congruence_resolution,
        }


#: Tuples reconcile stacks into one set of coefficient arrays.
_RECONCILE_CHUNK = 4096


def reconcile(ctx: FieldCtx, batch) -> ReconcileReport:
    """Compare theory verdicts with empirical APN flags.

    batch: iterable of (Coeffs, bool), consumed in chunks that are evaluated
    in array form. Also tabulates the case-9 regime under both congruence
    readings and states which one the data supports.
    """
    actx = _ArrayField(ctx)
    rep = ReconcileReport()
    regime = {"size": 0, "apn": 0, "prop-reading-matches": 0, "summary-reading-matches": 0}
    exceptions = np.zeros(len(_REASONS), dtype=np.int64)
    prop_says = ctx.q % 3 == CASE9_CONGRUENCE
    summary_says = ctx.q % 3 == 1
    prop_consistent = True
    summary_consistent = True

    def count(mask) -> int:
        return int(np.count_nonzero(mask))

    it = iter(batch)
    while chunk := list(islice(it, _RECONCILE_CHUNK)):
        tuples, flags = zip(*chunk)
        k = len(flags)
        c = Coeffs(*np.fromiter(chain.from_iterable(tuples), np.uint16, 5 * k).reshape(k, 5).T)
        emp = np.fromiter(flags, bool, k)
        s = _evaluate(actx, c)
        m = _match_array(actx, c, s)
        kind, reason = _verdict_array(c, s, m)
        rep.total += emp.size
        rep.apn_total += count(emp)
        rep.confirmations += count(emp & ((kind == _APN) | (kind == _CANDIDATE)))
        exceptions += np.bincount(reason[emp & (kind == _EXCLUDED)], minlength=len(_REASONS))
        c1 = reason == _C1
        not_apn = emp & (kind == _NOT_APN)
        false_apn = ~emp & (kind == _APN)
        rep.contradictions_c1 += count((not_apn | false_apn) & c1)
        rep.contradictions_c2 += count(not_apn & ~c1)
        # an 'apn' verdict cites case 1 (C1, where AB^q + B = 0) or those of
        # cases 9 and 10 that match (both need AB^q + B != 0)
        rep.contradictions_case9 += count(false_apn & m[8])
        rep.contradictions_case10 += count(false_apn & m[9])

        # case-9 regime tabulation under the two congruence readings
        r9 = _case9(c, s)
        regime["size"] += count(r9)
        regime["apn"] += count(r9 & emp)
        prop = count(r9 & (emp == prop_says))
        summary = count(r9 & (emp == summary_says))
        regime["prop-reading-matches"] += prop
        regime["summary-reading-matches"] += summary
        prop_consistent &= prop == count(r9)
        summary_consistent &= summary == count(r9)

    rep.exceptions_by_reason = {r: int(k) for r, k in zip(_REASONS, exceptions) if k}
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
