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
`analyze`, `reconcile` and the search filters all read that one evaluation;
`cond_C1_C2` is a view of it.

Two known transcription discrepancies are resolved in favor of the source
propositions and evaluated both ways where relevant:
  - case 7's cubic is B^q T^3 + B^q C T^2 + B C^q T + B;
  - case 9's congruence is q = 2 (mod 3); the variant printed with
    q = 1 (mod 3) is tabulated separately by `reconcile`.

The case clauses (`_cases`) and the verdict's ordered rule list (`_rule`)
are written once, branch-free like `_evaluate`. The same code runs on ints
through a FieldCtx and on 1-D coefficient arrays through an `_ArrayField`,
whose operations index numpy tables; `_evaluate` also takes coefficient
arrays that broadcast against each other, which the exhaustive search's
closed-form filter masks use. p1/p2 and the two cubic root scans run
through `_where`: a plain conditional on ints, and on arrays an evaluation
on the index subset of their branch only. `predict_verdict`, `analyze`,
hit records and `passes_filters` read the clauses on ints; `reconcile` and
both search modes read them on arrays. Tests hold both against the scalar
reference transcription kept in tests/oracles.py.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, islice
from operator import or_

import numpy as np

from .field import FieldCtx
from .hexanomial import Coeffs


#: One tuple's shared quantities: B^q, E^q, the norms nA = A^(q+1), nC and nD,
#: h1, the brackets ab = AB^q + B, ae = AE^q + E, acd = AC^q + D,
#: adc = AD^q + C and bcd = BC^q + B^qD, sig = nA + nC + nD + 1, and C1, C2, C6.
_Shared = namedtuple("_Shared", "Bq Eq nA nC nD h1 ab ae acd adc bcd sig c1 c2 c6")


class _ArrayField:
    """The FieldCtx operations the theory reads, on numpy index arrays.

    mul and frob_q index the context's numpy tables; pow, sqrt and norm_rel
    index lookup tables (pow builds one per exponent on first use). With q,
    trace_rel and in_subfield (true when every entry lies in GF(q)),
    p1_p2_values runs on arrays too; size, np_mul and np_frob serve the
    root scan as they do on a FieldCtx.
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.q, self.size = ctx.q, ctx.size
        self.np_mul, self.np_frob = ctx.np_mul, ctx.np_frob
        self.mul = lambda a, b: ctx.np_mul[a, b]
        self.frob_q = ctx.np_frob.__getitem__
        self.sqrt = np.array(ctx.sqrt_table, dtype=np.uint16).__getitem__
        self.norm_rel = ctx.np_mul[np.arange(ctx.size), ctx.np_frob].__getitem__
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

    Returns (has_root_in_field, has_unit_norm_root) as numpy bools; a
    unit-norm root k satisfies k^(q+1) = 1. The coefficients are ints, or
    1-D arrays scanned as one (tuples x N) evaluation at every T.
    """
    if len(coefs) != 4:
        raise ValueError("expected degree-3 coefficient list [c3, c2, c1, c0]")
    tab = ctx.np_mul
    t = np.arange(ctx.size)
    t2 = tab[t, t]
    c3, c2, c1, c0 = (np.asarray(v)[..., None] for v in coefs)
    root = (tab[c3, tab[t2, t]] ^ tab[c2, t2] ^ tab[c1, t] ^ c0) == 0
    return root.any(axis=-1), (root & (tab[t, ctx.np_frob] == 1)).any(axis=-1)


# -- summary case predicates ---------------------------------------------------

#: q mod 3 under which case 9 holds: the source proposition says 2 (the
#: summary as printed says 1; `reconcile` tabulates both readings).
CASE9_CONGRUENCE = 2


def _case9(c: Coeffs, s: _Shared) -> bool:
    """Branch-free, like _evaluate: on ints and on arrays."""
    return (c.C == 0) & (c.D == 0) & (c.A != 1) & (s.nA == 1) & (s.ae == 0) & (s.ab != 0)


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


def _take(c: Coeffs, idx) -> Coeffs:
    return Coeffs(*(v[idx] for v in c))


def _where(ctx: FieldCtx, mask, c: Coeffs, test):
    """test(ctx, c) where mask holds, False elsewhere. On ints this is a plain
    conditional; on 1-D arrays test runs on the index subset of mask only."""
    if not isinstance(mask, np.ndarray):
        return bool(mask and test(ctx, c))
    idx = np.flatnonzero(mask)
    out = np.zeros(mask.shape, dtype=bool)
    out[idx] = test(ctx, _take(c, idx))
    return out


def _cases(ctx: FieldCtx, c: Coeffs, s: _Shared, cd=None, c7=None, p12=None) -> list:
    """The masks of summary cases 1..11 in order: bools on ints, bool arrays
    on 1-D coefficient arrays. On ints, cd and c7 are the root scans of
    _cd_cubic and case7_cubic and p12 is p1_p2_values, when the caller has
    them already."""
    mul, q = ctx.mul, ctx.q
    A, B, C, D, E = c
    be = mul(B, s.Eq) ^ mul(s.Bq, E)  # BE^q + B^q E

    def p12_zero(ctx, c):
        p1, p2 = p12 or p1_p2_values(ctx, c)
        return ctx.mul(p1, p2) == 0

    def no_root(cubic, scan):
        return lambda ctx, c: ~(scan or cubic_predicates(ctx, cubic(ctx, c)))[0]

    no_cd_root = no_root(lambda _, c: _cd_cubic(c), cd)
    b0e0 = (B == 0) & (E == 0) & (s.acd != 0)
    gcd = (s.h1 == 0) & (s.bcd != 0)
    c6_branch = (s.adc == 0) & (s.nA == 1)
    return [
        s.c1 & (s.nA != 1),
        (B == 0) & (s.acd == 0) & (s.ae != 0) & (mul(s.nA ^ 1, s.nC ^ 1) == 0),
        b0e0 & (s.sig == 0) & (ctx.pow(s.acd, q - 1) == ctx.pow(s.adc, 2 * (q - 1))),
        _where(ctx, b0e0 & (s.sig != 0) & (s.adc != 0), c, p12_zero),
        # C^q = A^q B + A^q D + B^q with A^q B + B^q != 0, read through the
        # Frobenius as AD^q + C = AB^q + B != 0; and (B + D)^(q+1) = 1
        gcd & (s.adc == s.ab) & (s.ab != 0) & (ctx.norm_rel(B ^ D) == 1),
        gcd & (E == 0),
        _where(ctx, (s.h1 == 0) & (s.bcd == 0) & (s.ab == 0) & (be != 0), c,
               no_root(case7_cubic, c7)),
        # (AE^q + E) / (AE^q + E)^q = D sqrt(D), multiplied out; the two
        # agree where AE^q + E != 0, and this form needs no inverse
        (s.adc == 0) & (s.ab != 0) & (s.ae != 0) & (s.nD == 1) & (s.nA != 1) & (be == 0)
        & (s.ae == mul(ctx.frob_q(s.ae), mul(D, ctx.sqrt(D)))),
        (q % 3 == CASE9_CONGRUENCE) & _case9(c, s),
        _where(ctx, c6_branch & (s.ae == 0) & (s.ab != 0) & (D != 0) & (s.nD != 1), c, no_cd_root),
        _where(ctx, c6_branch & (B != 0) & (s.ae != 0) & (s.ab == 0), c, no_cd_root),
    ]


def _matched(cases) -> tuple[int, ...]:
    """The IDs of the cases that hold, from _cases on ints."""
    return tuple(i for i, hold in enumerate(cases, 1) if hold)


def match_summary_cases(ctx: FieldCtx, c: Coeffs) -> list[int]:
    """IDs (1..11) of the summary cases matched by the tuple."""
    return list(_matched(_cases(ctx, c, _evaluate(ctx, c))))


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


#: The verdict's rules as (kind, reason, cites), in the order _rule decides
#: them. cites names the cases a verdict of the rule cites: 'c1' case 1,
#: 'iff' the matched ones of cases 9 and 10, 'matched' every matched case,
#: None none.
_RULES = (
    ("apn", "condition-C1", "c1"),
    ("not-apn", "condition-C1", None),
    ("not-apn", "condition-C2", None),
    ("apn", "c6-fails-iff", "iff"),
    ("excluded", "c6-fails-iff-complement", "matched"),
    ("candidate", "necessary-conditions", "matched"),
    ("excluded", "generic-obstruction", None),
    ("excluded", "c6-fails-no-case", None),
    ("excluded", "gcd-regime-no-case", None),
    ("excluded", "c7-degenerate-no-case", None),
    ("excluded", "b0-collapsed-branch", None),
    ("excluded", "b0-nonzero-e", None),
    ("excluded", "b0-trace-branch", None),
)
#: The rules reconcile counts by index.
_C1_APN, _C1, _C2, _IFF = range(4)
#: True for the rules of kind 'apn' or 'candidate', indexed by rule.
_PROMISING = np.array([kind in ("apn", "candidate") for kind, _, _ in _RULES])


def _rule(c: Coeffs, s: _Shared, cases: list):
    """The index into _RULES of the verdict: the first rule whose condition
    holds, the last when none does. An int on ints (cases from _cases), an
    index array on 1-D coefficient arrays."""
    bn = c.B != 0
    obstructed = bn & (s.h1 != 0)
    # the C6-failure branch with AB^q + B != 0 and AE^q + E = 0 is decided
    # both ways: APN exactly when case 9 or 10 matches
    iff = (s.adc == 0) & (s.sig == 0) & (s.ab != 0) & (s.ae == 0)
    conds = [
        s.c1 & (s.nA != 1), s.c1, s.c2, iff & (cases[8] | cases[9]), iff, reduce(or_, cases),
        # no case matched: name the theorem family responsible
        obstructed & s.c6, obstructed, bn & (s.bcd != 0), bn, s.acd == 0, c.E != 0,
    ]
    if isinstance(bn, np.ndarray):
        return np.select(conds, range(len(conds)), len(conds))
    return next((i for i, hold in enumerate(conds) if hold), len(conds))


def _verdict_of(rule: int, matched: tuple[int, ...]) -> Verdict:
    """The Verdict of one tuple's rule, citing the cases its rule reads."""
    kind, reason, cites = _RULES[rule]
    cited = {
        "c1": (1,),
        "iff": tuple(i for i in matched if i in (9, 10)),
        "matched": matched,
    }.get(cites, ())
    return Verdict(kind, cited, reason)


def predict_verdict(ctx: FieldCtx, c: Coeffs) -> Verdict:
    s = _evaluate(ctx, c)
    cases = _cases(ctx, c, s)
    return _verdict_of(_rule(c, s, cases), _matched(cases))


def analyze(ctx: FieldCtx, c: Coeffs) -> TheoryReport:
    """Full predicate evaluation for one tuple."""
    s = _evaluate(ctx, c)
    p1, p2 = p1_p2_values(ctx, c)
    b0 = c.B == 0 and s.acd == 0
    c7_branch = s.h1 == 0 and s.bcd == 0 and c.B != 0
    # each cubic is scanned once, here, and _cases reads the same scans
    cd = cubic_predicates(ctx, _cd_cubic(c)) if b0 or s.adc == 0 else None
    c7 = cubic_predicates(ctx, case7_cubic(ctx, c)) if c7_branch else None
    cubic_flags: dict[str, bool | None] = {
        "b0-part2-unit-norm-root": bool(cd[1]) if b0 else None,
        "c7-degenerate-has-root": bool(c7[0]) if c7_branch else None,
        "c6-fails-has-root": bool(cd[0]) if s.adc == 0 else None,
    }

    cases = _cases(ctx, c, s, cd, c7, (p1, p2))
    matched = _matched(cases)
    return TheoryReport(
        c1=s.c1,
        c2=s.c2,
        c6=s.c6,
        h1=s.h1,
        p1=p1,
        p2=p2,
        cubic_flags=cubic_flags,
        matched_cases=matched,
        verdict=_verdict_of(_rule(c, s, cases), matched),
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
    emp_rules = np.zeros(len(_RULES), dtype=np.int64)  # APN tuples by verdict rule
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
        cases = _cases(actx, c, s)
        rule = _rule(c, s, cases)
        rep.total += emp.size
        rep.apn_total += count(emp)
        emp_rules += np.bincount(rule[emp], minlength=len(_RULES))
        rep.contradictions_c1 += count(~emp & (rule == _C1_APN))
        # the 'c6-fails-iff' verdict cites those of cases 9 and 10 that match
        false_iff = ~emp & (rule == _IFF)
        rep.contradictions_case9 += count(false_iff & cases[8])
        rep.contradictions_case10 += count(false_iff & cases[9])

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

    rep.confirmations = int(emp_rules[_PROMISING].sum())
    rep.contradictions_c1 += int(emp_rules[_C1])
    rep.contradictions_c2 = int(emp_rules[_C2])
    rep.exceptions_by_reason = {
        reason: int(k) for (kind, reason, _), k in zip(_RULES, emp_rules) if kind == "excluded" and k
    }
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
