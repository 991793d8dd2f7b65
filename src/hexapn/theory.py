"""Closed-form coefficient conditions and the 11-case summary classifier.

Every predicate below is pure field arithmetic on a coefficient tuple. Case
numbering follows the summary classification; cases 1, 9 and 10 are
necessary-and-sufficient, everything else is necessary only. All verdicts
derived from the case analysis carry an 'asymptotic' caveat: the underlying
statements are proved for large q and are applied here at desk scale, where
exceptions are reported rather than treated as errors.

Two known transcription discrepancies are resolved in favor of the source
propositions and evaluated both ways where relevant:
  - case 7's cubic is B^q T^3 + B^q C T^2 + B C^q T + B;
  - case 9's congruence is q = 2 (mod 3); the variant printed with
    q = 1 (mod 3) is tabulated separately by `reconcile`.

cond_C1_C2, cond_C6 and h1_value have no branches, so they also accept
coefficients given as numpy arrays that broadcast against each other, with a
context whose mul and frob_q index numpy tables; the exhaustive search builds
its filter masks this way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .field import FieldCtx
from .hexanomial import Coeffs

NEC_SUF_CASES = frozenset({1, 9, 10})


def cond_C1_C2(ctx: FieldCtx, c: Coeffs) -> tuple[bool, bool]:
    """The two degenerations killing the X1 coefficient of G; mutually exclusive."""
    mul, frob = ctx.mul, ctx.frob_q
    A, B, C, D, E = c
    Aq = frob(A)
    common = (A != 0) & (mul(Aq, B) == frob(B)) & (mul(Aq, E) == frob(E))
    c1 = common & (C == 0) & (D == 0)
    c2 = common & (C != 0) & (D != 0) & (mul(A, Aq) == 1) & (D == mul(A, frob(C)))
    return c1, c2


def h1_value(ctx: FieldCtx, c: Coeffs) -> int:
    """The degree-one obstruction quantity for the B != 0 analysis."""
    mul, frob = ctx.mul, ctx.frob_q
    A, B, C, D, _ = c
    Aq, Bq, Cq, Dq = frob(A), frob(B), frob(C), frob(D)
    B2, B2q, Bq1 = mul(B, B), mul(Bq, Bq), mul(B, Bq)
    return (
        mul(mul(A, Aq), Bq1)
        ^ mul(A, B2q)
        ^ mul(Aq, B2)
        ^ mul(B2, mul(Cq, Dq))
        ^ mul(Bq1, mul(C, Cq))
        ^ mul(Bq1, mul(D, Dq))
        ^ Bq1
        ^ mul(B2q, mul(C, D))
    )


def cond_C6(ctx: FieldCtx, c: Coeffs) -> bool:
    """(AD^q + C, A^(q+1) + C^(q+1) + D^(q+1) + 1) != (0, 0)."""
    mul, frob = ctx.mul, ctx.frob_q
    A, _, C, D, _ = c
    first = mul(A, frob(D)) ^ C
    second = mul(A, frob(A)) ^ mul(C, frob(C)) ^ mul(D, frob(D)) ^ 1
    return (first != 0) | (second != 0)


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


def case9_shape(ctx: FieldCtx, c: Coeffs) -> bool:
    """Case 9 without its congruence on q: C = D = 0, A^(q+1) = 1, A != 1,
    AE^q + E = 0 and AB^q + B != 0."""
    mul, frob = ctx.mul, ctx.frob_q
    A, B, C, D, E = c
    return (
        C == 0
        and D == 0
        and A != 1
        and ctx.norm_rel(A) == 1
        and mul(A, frob(E)) == E
        and mul(A, frob(B)) != B
    )


def case7_cubic(ctx: FieldCtx, c: Coeffs) -> list[int]:
    """B^q T^3 + B^q C T^2 + B C^q T + B, as [c3, c2, c1, c0]."""
    Bq = ctx.frob_q(c.B)
    return [Bq, ctx.mul(Bq, c.C), ctx.mul(c.B, ctx.frob_q(c.C)), c.B]


def c6_fails_cubic(ctx: FieldCtx, c: Coeffs) -> list[int]:
    """T^3 + AD^q T^2 + D T + A (cases 10 and 11), as [c3, c2, c1, c0]."""
    return [1, ctx.mul(c.A, ctx.frob_q(c.D)), c.D, c.A]


def match_summary_cases(ctx: FieldCtx, c: Coeffs) -> list[int]:
    """IDs (1..11) of the summary cases matched by the tuple."""
    mul, frob = ctx.mul, ctx.frob_q
    A, B, C, D, E = c
    q = ctx.q
    Aq, Bq, Cq, Dq, Eq = frob(A), frob(B), frob(C), frob(D), frob(E)
    nA, nC, nD = ctx.norm_rel(A), ctx.norm_rel(C), ctx.norm_rel(D)
    h1 = h1_value(ctx, c)
    bcd = mul(B, Cq) ^ mul(Bq, D)       # BC^q + B^q D
    ae = mul(A, Eq) ^ E                 # AE^q + E
    ab = mul(A, Bq) ^ B                 # AB^q + B
    acd = mul(A, Cq) ^ D                # AC^q + D
    adc = mul(A, Dq) ^ C                # AD^q + C
    sig = nA ^ nC ^ nD ^ 1              # A^(q+1)+C^(q+1)+D^(q+1)+1

    matched = []

    # C1 implies C = D = 0; testing that first skips most cond_C1_C2 calls
    if C == 0 and D == 0 and nA != 1 and cond_C1_C2(ctx, c)[0]:
        matched.append(1)

    if B == 0 and acd == 0 and ae != 0 and mul(nA ^ 1, nC ^ 1) == 0:
        matched.append(2)

    if B == 0 and E == 0 and acd != 0:
        if sig == 0 and ctx.pow(acd, q - 1) == ctx.pow(adc, 2 * (q - 1)):
            matched.append(3)
        if sig != 0 and adc != 0:
            p1, p2 = p1_p2_values(ctx, c)
            if mul(p1, p2) == 0:
                matched.append(4)

    if h1 == 0 and bcd != 0:
        e1 = mul(Aq, B) ^ Bq
        if (
            Cq == mul(Aq, B) ^ mul(Aq, D) ^ Bq
            and e1 != 0
            and ctx.norm_rel(B) ^ ctx.norm_rel(D) ^ mul(B, Dq) ^ mul(Bq, D) ^ 1 == 0
        ):
            matched.append(5)
        if E == 0:
            matched.append(6)

    if h1 == 0 and bcd == 0 and B == mul(Bq, A) and (mul(B, Eq) ^ mul(Bq, E)) != 0:
        has_root, _ = cubic_predicates(ctx, case7_cubic(ctx, c))
        if not has_root:
            matched.append(7)

    if (
        adc == 0
        and mul(ab, ae) != 0
        and nD == 1
        and nA != 1
        and mul(B, Eq) == mul(Bq, E)
        and ctx.mul(ae, ctx.inv(frob(ae))) == mul(D, ctx.sqrt(D))
    ):
        matched.append(8)

    if q % 3 == CASE9_CONGRUENCE and case9_shape(ctx, c):
        matched.append(9)

    if (
        C == mul(A, Dq)
        and nA == 1
        and ae == 0
        and ab != 0
        and D != 0
        and nD != 1
    ):
        has_root, _ = cubic_predicates(ctx, c6_fails_cubic(ctx, c))
        if not has_root:
            matched.append(10)

    if nA == 1 and mul(A, Dq) == C and B != 0 and ae != 0 and ab == 0:
        has_root, _ = cubic_predicates(ctx, c6_fails_cubic(ctx, c))
        if not has_root:
            matched.append(11)

    return matched


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


def _exclusion_reason(ctx: FieldCtx, c: Coeffs) -> str:
    """Name the theorem family responsible when no summary case matches."""
    mul, frob = ctx.mul, ctx.frob_q
    h1 = h1_value(ctx, c)
    if c.B != 0:
        if h1 != 0:
            if cond_C6(ctx, c):
                return "generic-obstruction"
            return "c6-fails-no-case"
        if mul(c.B, frob(c.C)) ^ mul(frob(c.B), c.D) != 0:
            return "gcd-regime-no-case"
        return "c7-degenerate-no-case"
    acd = mul(c.A, frob(c.C)) ^ c.D
    if acd == 0:
        return "b0-collapsed-branch"
    if c.E != 0:
        return "b0-nonzero-e"
    return "b0-trace-branch"


def predict_verdict(ctx: FieldCtx, c: Coeffs) -> Verdict:
    mul, frob = ctx.mul, ctx.frob_q
    c1, c2 = cond_C1_C2(ctx, c)
    if c1:
        if ctx.norm_rel(c.A) != 1:
            return Verdict("apn", (1,), "condition-C1")
        return Verdict("not-apn", (), "condition-C1")
    if c2:
        return Verdict("not-apn", (), "condition-C2")

    matched = tuple(match_summary_cases(ctx, c))

    # The C6-failure branch with AB^q + B != 0 and AE^q + E = 0 is decided
    # both ways: APN exactly when case 9 or 10 matches.
    adc = mul(c.A, frob(c.D)) ^ c.C
    sig = ctx.norm_rel(c.A) ^ ctx.norm_rel(c.C) ^ ctx.norm_rel(c.D) ^ 1
    ab = mul(c.A, frob(c.B)) ^ c.B
    ae = mul(c.A, frob(c.E)) ^ c.E
    if adc == 0 and sig == 0 and ab != 0 and ae == 0:
        hit = tuple(i for i in matched if i in (9, 10))
        if hit:
            return Verdict("apn", hit, "c6-fails-iff")
        return Verdict("excluded", matched, "c6-fails-iff-complement")

    if matched:
        return Verdict("candidate", matched, "necessary-conditions")
    return Verdict("excluded", (), _exclusion_reason(ctx, c))


def analyze(ctx: FieldCtx, c: Coeffs) -> TheoryReport:
    """Full predicate evaluation for one tuple."""
    mul, frob = ctx.mul, ctx.frob_q
    c1, c2 = cond_C1_C2(ctx, c)
    p1, p2 = p1_p2_values(ctx, c)
    h1 = h1_value(ctx, c)
    bcd = mul(c.B, frob(c.C)) ^ mul(frob(c.B), c.D)

    cubic_flags: dict[str, bool | None] = {
        "b0-part2-unit-norm-root": None,
        "c7-degenerate-has-root": None,
        "c6-fails-has-root": None,
    }
    if c.B == 0 and (mul(c.A, frob(c.C)) ^ c.D) == 0:
        _, unit = cubic_predicates(ctx, [1, c.C, mul(c.A, frob(c.C)), c.A])
        cubic_flags["b0-part2-unit-norm-root"] = unit
    if h1 == 0 and bcd == 0 and c.B != 0:
        has_root, _ = cubic_predicates(ctx, case7_cubic(ctx, c))
        cubic_flags["c7-degenerate-has-root"] = has_root
    if (mul(c.A, frob(c.D)) ^ c.C) == 0:
        has_root, _ = cubic_predicates(ctx, c6_fails_cubic(ctx, c))
        cubic_flags["c6-fails-has-root"] = has_root

    return TheoryReport(
        c1=c1,
        c2=c2,
        c6=cond_C6(ctx, c),
        h1=h1,
        p1=p1,
        p2=p2,
        cubic_flags=cubic_flags,
        matched_cases=tuple(match_summary_cases(ctx, c)),
        verdict=predict_verdict(ctx, c),
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


def reconcile(ctx: FieldCtx, batch) -> ReconcileReport:
    """Compare theory verdicts with empirical APN flags.

    batch: iterable of (Coeffs, bool). Also tabulates the case-9 regime under
    both congruence readings and states which one the data supports.
    """
    rep = ReconcileReport()
    regime = {"size": 0, "apn": 0, "prop-reading-matches": 0, "summary-reading-matches": 0}
    prop_consistent = True
    summary_consistent = True

    for c, empirical in batch:
        rep.total += 1
        if empirical:
            rep.apn_total += 1
        v = predict_verdict(ctx, c)
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

        # case-9 regime tabulation under the two congruence readings
        if case9_shape(ctx, c):
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
