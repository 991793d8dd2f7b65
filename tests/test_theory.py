import hashlib
import itertools
import random

import numpy as np
import pytest

from hexapn import theory
from hexapn.field import NAMED_SPECS, make_field
from hexapn.hexanomial import Coeffs
from hexapn.diffanalysis import is_apn_ddt
from hexapn.search import _ArrayField
from hexapn.theory import (
    CASE9_CONGRUENCE,
    _RULES,
    _case9,
    _cases,
    _evaluate,
    _matched,
    _rule,
    _verdict_of,
    analyze,
    cond_C1_C2,
    cubic_predicates,
    match_summary_cases,
    p1_p2_values,
    predict_verdict,
    reconcile,
)
from oracles import f4_closed_form_apn, match_scalar, reconcile_scalar, verdict_scalar


@pytest.fixture(scope="module")
def f4():
    return make_field(NAMED_SPECS["F4"])


@pytest.fixture(scope="module")
def f16():
    return make_field(NAMED_SPECS["F16"])


# -- independent oracles -------------------------------------------------------


def h1_oracle(ctx, c):
    """Term-by-term via generic pow, independently of _evaluate's arrangement."""
    q = ctx.q
    mul, pw = ctx.mul, ctx.pow
    A, B, C, D, _ = c
    terms = [
        mul(pw(A, q + 1), pw(B, q + 1)),
        mul(A, pw(B, 2 * q)),
        mul(pw(A, q), mul(B, B)),
        mul(mul(B, B), mul(pw(C, q), pw(D, q))),
        mul(pw(B, q + 1), pw(C, q + 1)),
        mul(pw(B, q + 1), pw(D, q + 1)),
        pw(B, q + 1),
        mul(pw(B, 2 * q), mul(C, D)),
    ]
    acc = 0
    for t in terms:
        acc ^= t
    return acc


def p1_p2_oracle(ctx, c):
    """Naively ordered re-evaluation of both displayed expressions."""
    q = ctx.q
    mul, pw = ctx.mul, ctx.pow
    A, _, C, D, _ = c
    p1 = 0
    for t in (
        mul(pw(A, q + 2), pw(C, q)),
        mul(pw(A, 2), pw(D, 2 * q)),
        mul(pw(A, q + 1), D),
        mul(A, pw(C, 2 * q + 1)),
        mul(A, mul(pw(C, q), pw(D, q + 1))),
        mul(A, pw(C, q)),
        pw(C, 2),
        mul(pw(C, q + 1), D),
        pw(D, q + 2),
        D,
    ):
        p1 ^= t
    tr = (
        mul(pw(A, q + 2), mul(C, pw(D, 2 * q)) ^ mul(pw(C, q), pw(D, q)))
        ^ mul(pw(A, 2), pw(D, 3 * q))
        ^ mul(A, mul(pw(C, 2 * q + 1), pw(D, q)))
        ^ mul(A, pw(C, 3 * q))
        ^ mul(A, mul(pw(C, q), pw(D, 2 * q + 1)))
        ^ mul(A, mul(pw(C, q), pw(D, q)))
        ^ mul(pw(C, 2), pw(D, q))
    )
    p2 = 0
    for t in (
        mul(pw(A, 2 * q + 2), pw(C, q + 1)),
        mul(pw(A, q + 1), pw(C, q + 1) ^ mul(pw(C, q + 1), pw(D, q + 1)) ^ pw(D, q + 1) ^ pw(D, 2 * q + 2) ^ 1),
        pw(C, 3 * q + 3),
        pw(C, 2 * q + 2),
        mul(pw(C, q + 1), pw(D, q + 1)),
        pw(D, 3 * q + 3),
        mul(pw(C, 2 * q + 2), pw(D, q + 1)),
        mul(pw(C, q + 1), pw(D, 2 * q + 2)),
        tr ^ ctx.frob_q(tr),
    ):
        p2 ^= t
    return p1, p2


def cubic_oracle(ctx, coefs):
    c3, c2, c1, c0 = coefs
    roots = [
        t for t in ctx.elements()
        if ctx.mul(c3, ctx.pow(t, 3)) ^ ctx.mul(c2, ctx.mul(t, t)) ^ ctx.mul(c1, t) ^ c0 == 0
    ]
    return bool(roots), any(ctx.norm_rel(t) == 1 for t in roots)


# -- tests ----------------------------------------------------------------------


def test_c1_c2_examples(f4):
    assert cond_C1_C2(f4, Coeffs(2, 0, 0, 0, 0)) == (True, False)
    assert cond_C1_C2(f4, Coeffs(2, 0, 0, 0, 2)) == (False, False)
    for tup in itertools.product(range(4), repeat=4):
        assert cond_C1_C2(f4, Coeffs(0, *tup)) == (False, False)


def test_c1_c2_mutually_exclusive(f4, f16):
    for ctx in (f4, f16):
        rng = random.Random(0)
        pool = (
            itertools.product(range(4), repeat=5)
            if ctx is f4
            else ([rng.randrange(16) for _ in range(5)] for _ in range(20000))
        )
        for tup in pool:
            c1, c2 = cond_C1_C2(ctx, Coeffs(*tup))
            assert not (c1 and c2)


def test_h1_zero_when_b_zero(f4, f16):
    for ctx in (f4, f16):
        for a, c, d, e in itertools.product(range(0, ctx.size, 3), repeat=4):
            assert _evaluate(ctx, Coeffs(a, 0, c, d, e)).h1 == 0


def test_h1_examples_and_oracle(f4, f16):
    assert _evaluate(f4, Coeffs(1, 2, 0, 1, 1)).h1 == 0
    # a tuple with nonzero h1, value confirmed by the independent oracle
    c = Coeffs(2, 2, 0, 0, 0)
    assert _evaluate(f4, c).h1 == h1_oracle(f4, c) == 1
    rng = random.Random(1)
    for ctx in (f4, f16):
        for _ in range(500):
            c = Coeffs(*(rng.randrange(ctx.size) for _ in range(5)))
            assert _evaluate(ctx, c).h1 == h1_oracle(ctx, c)


def test_c6_examples(f4):
    # (a, *, 0, 0, *): AD^q + C = 0 and A^3 + 1 = 0
    assert not _evaluate(f4, Coeffs(2, 1, 0, 0, 1)).c6
    # (1, *, 1, 1, *) at q=2: both coordinates vanish
    assert not _evaluate(f4, Coeffs(1, 2, 1, 1, 0)).c6
    # C != AD^q forces the first coordinate nonzero
    assert _evaluate(f4, Coeffs(2, 0, 1, 0, 0)).c6


def test_p1_p2_double_evaluation(f4, f16):
    rng = random.Random(2)
    for ctx in (f4, f16):
        for _ in range(300):
            c = Coeffs(*(rng.randrange(ctx.size) for _ in range(5)))
            assert p1_p2_values(ctx, c) == p1_p2_oracle(ctx, c)


def test_p2_lies_in_subfield_for_b_e_zero(f16):
    # p2 is built from norms and a trace, all GF(q)-valued
    rng = random.Random(3)
    for _ in range(200):
        c = Coeffs(rng.randrange(16), 0, rng.randrange(16), rng.randrange(16), 0)
        _, p2 = p1_p2_values(f16, c)
        assert f16.in_subfield(p2)


def test_cubic_predicates(f4):
    assert cubic_predicates(f4, [1, 0, 0, 2]) == (False, False)   # T^3 + a
    assert cubic_predicates(f4, [1, 0, 0, 1]) == (True, True)     # T^3 + 1
    assert cubic_predicates(f4, [1, 0, 0, 0]) == (True, False)    # T^3
    with pytest.raises(ValueError):
        cubic_predicates(f4, [1, 0, 0])


def test_cubic_predicates_oracle(f4, f16):
    rng = random.Random(4)
    for ctx in (f4, f16):
        for _ in range(1000):
            coefs = [rng.randrange(ctx.size) for _ in range(4)]
            assert cubic_predicates(ctx, coefs) == cubic_oracle(ctx, coefs)


def test_match_cases_examples(f4, f16):
    assert match_summary_cases(f4, Coeffs(2, 0, 0, 0, 2)) == [2]
    assert match_summary_cases(f4, Coeffs(2, 0, 0, 0, 0)) == []
    v = predict_verdict(f4, Coeffs(2, 0, 0, 0, 0))
    assert v.kind == "not-apn" and v.reason == "condition-C1"
    # C1 with nontrivial norm exists at q=4: A with A^5 != 1 forces B = E = 0
    A = 2
    assert f16.norm_rel(A) != 1
    v = predict_verdict(f16, Coeffs(A, 0, 0, 0, 0))
    assert v.kind == "apn" and v.cases == (1,)
    assert is_apn_ddt(f16, Coeffs(A, 0, 0, 0, 0))


def test_c2_verdict(f4):
    # A = 1, C = 1 -> D = 1, B, E in {0, A^q} = {0, 1}
    c = Coeffs(1, 0, 1, 1, 0)
    assert cond_C1_C2(f4, c) == (False, True)
    v = predict_verdict(f4, c)
    assert v.kind == "not-apn" and v.reason == "condition-C2"


def test_case9_congruence_variants(f4, f16):
    # the proposition reads case 9 with q = 2 (mod 3), the printed summary
    # with q = 1 (mod 3); the data side with the proposition at q = 2 and 4
    assert CASE9_CONGRUENCE == 2
    c = Coeffs(2, 1, 0, 0, f4.inv(2))
    assert _case9(c, _evaluate(f4, c)) and f4.q % 3 == 2
    assert 9 in match_summary_cases(f4, c)
    assert is_apn_ddt(f4, c)
    c = Coeffs(f16.pow(2, 3), 1, 0, 0, 0)  # A^(q+1) = a^15 = 1
    assert _case9(c, _evaluate(f16, c)) and f16.q % 3 == 1
    assert 9 not in match_summary_cases(f16, c)
    assert not is_apn_ddt(f16, c)


def test_case_predicates_require_their_regimes(f16):
    rng = random.Random(5)
    for _ in range(300):
        c = Coeffs(*(rng.randrange(16) for _ in range(5)))
        matched = set(match_summary_cases(f16, c))
        mul, frob = f16.mul, f16.frob_q
        if {5, 6} & matched:
            assert _evaluate(f16, c).h1 == 0
            assert mul(c.B, frob(c.C)) ^ mul(frob(c.B), c.D) != 0
        if {9, 10, 11} & matched:
            assert mul(c.A, frob(c.D)) ^ c.C == 0


def test_analyze_report_shape(f16):
    rep = analyze(f16, Coeffs(2, 0, 0, 2, 0))
    j = rep.to_json(f16)
    assert set(j) == {"c1", "c2", "c6", "h1", "p1", "p2", "cubic_flags",
                      "matched_cases", "verdict"}
    assert j["h1"] == "0"
    assert j["verdict"]["asymptotic"] is True


def test_reconcile_small_batch(f4):
    batch = []
    for tup in itertools.product(range(4), repeat=5):
        c = Coeffs(*tup)
        batch.append((c, is_apn_ddt(f4, c)))
    rep = reconcile(f4, batch)
    assert rep.total == 1024 and rep.apn_total == 768
    assert rep.congruence_resolution == "data supports q = 2 (mod 3)"
    assert rep.case9_regime["size"] == 8 and rep.case9_regime["apn"] == 8
    # known small-q exceptions to the asymptotic C1/C2 claims at q = 2
    assert rep.contradictions_c1 == 6
    assert rep.contradictions_c2 == 18
    assert rep.contradictions_case9 == rep.contradictions_case10 == 0
    total_excep = sum(rep.exceptions_by_reason.values())
    assert rep.apn_total == rep.confirmations + total_excep + rep.contradictions_c1 + rep.contradictions_c2


# -- per-tuple pins of the shared evaluation --------------------------------------


def shaped_tuples(ctx, rng, count):
    """Random tuples, each pushed at random into the shapes the cases single
    out: A of norm 1, B = 0, E = 0, C = D = 0, D = AC^q or C = AD^q."""
    n = ctx.size
    unit = [z for z in range(1, n) if ctx.norm_rel(z) == 1]
    for _ in range(count):
        A, B, C, D, E = (rng.randrange(n) for _ in range(5))
        if rng.random() < 0.3:
            A = rng.choice(unit)
        if rng.random() < 0.3:
            B = 0
        if rng.random() < 0.3:
            E = 0
        if rng.random() < 0.25:
            C = D = 0
        r = rng.random()
        if r < 0.2:
            D = ctx.mul(A, ctx.frob_q(C))
        elif r < 0.4:
            C = ctx.mul(A, ctx.frob_q(D))
        yield Coeffs(A, B, C, D, E)


#: sha256 of the per-tuple (cases, verdict kind, verdict cases, reason) lines
#: below, as computed before the shared evaluation replaced the separate
#: transcriptions of each quantity.
THEORY_DIGEST = "be1e913b20dbc7f055ad37bd8ffce9ea7113c6c93b3f14c037298b169de3e550"


def test_per_tuple_theory_output_pinned(f4, f16):
    f64 = make_field(NAMED_SPECS["F64"])
    rng = random.Random(16)
    tuples = [(f4, Coeffs(*t)) for t in itertools.product(range(4), repeat=5)]
    tuples += [(ctx, c) for ctx in (f16, f64) for c in shaped_tuples(ctx, rng, 1500)]
    digest = hashlib.sha256()
    cases, reasons = set(), set()
    for ctx, c in tuples:
        matched = match_summary_cases(ctx, c)
        v = predict_verdict(ctx, c)
        rep = analyze(ctx, c)
        assert rep.matched_cases == tuple(matched), c
        assert rep.verdict == v, c
        line = (str(ctx.spec), tuple(c), matched, v.kind, v.cases, v.reason)
        digest.update(repr(line).encode() + b"\n")
        cases.update(matched)
        reasons.add(v.reason)
    assert cases == set(range(1, 12))  # every case and every verdict reason
    assert len(reasons) == 12
    assert digest.hexdigest() == THEORY_DIGEST


def test_analyze_scans_each_cubic_once(f4, f16, monkeypatch):
    # analyze's cubic flags and _match's cases 7, 10 and 11 share one root
    # scan of each cubic, and p1, p2 are computed once
    scans, p12 = [], []

    def scan(ctx, coefs):
        scans.append(coefs)
        return cubic_predicates(ctx, coefs)

    def p1_p2(ctx, c):
        p12.append(c)
        return p1_p2_values(ctx, c)

    monkeypatch.setattr(theory, "cubic_predicates", scan)
    monkeypatch.setattr(theory, "p1_p2_values", p1_p2)
    rng = random.Random(18)
    tuples = [(f4, Coeffs(*t)) for t in itertools.product(range(4), repeat=5)]
    tuples += [(f16, c) for c in shaped_tuples(f16, rng, 1500)]
    seen = set()
    for ctx, c in tuples:
        scans.clear()
        p12.clear()
        rep = analyze(ctx, c)
        flags = rep.cubic_flags
        b0, c7, c6 = (flags[k] is not None for k in (
            "b0-part2-unit-norm-root", "c7-degenerate-has-root", "c6-fails-has-root"))
        assert len(scans) == (b0 or c6) + c7, c
        assert len(p12) == 1, c
        if b0 and c6:
            seen.add("b0+c6")
        seen.update(i for i in rep.matched_cases if i in (7, 10, 11))
    assert {"b0+c6", 7, 10, 11} <= seen  # every path that shares a scan ran


def test_shared_pass_scalar_matches_array():
    # the exhaustive sweep evaluates the pass on arrays through _ArrayField:
    # whole columns of tuples, and (A, B, C) blocks with D a column, E a row
    rng = random.Random(17)
    for name in ("F4", "F16", "F64", "F256"):
        ctx = make_field(NAMED_SPECS[name])
        actx = _ArrayField(ctx)
        tuples = list(shaped_tuples(ctx, rng, 400))
        cols = [np.array(col, dtype=np.uint16) for col in zip(*tuples)]
        arr = _evaluate(actx, Coeffs(*cols))
        for i, c in enumerate(tuples):
            assert [int(v[i]) for v in arr] == [int(v) for v in _evaluate(ctx, c)], (name, c)
        if ctx.size > 64:
            continue
        zs = np.arange(ctx.size, dtype=np.uint16)
        for A, B, C, _, _ in tuples[:2]:
            arr = _evaluate(actx, Coeffs(A, B, C, zs[:, None], zs[None, :]))
            full = [np.broadcast_to(v, (ctx.size, ctx.size)) for v in arr]
            for d, e in itertools.product(range(ctx.size), repeat=2):
                s = _evaluate(ctx, Coeffs(A, B, C, d, e))
                assert [int(v[d, e]) for v in full] == [int(v) for v in s], (name, A, B, C, d, e)


# -- the one transcription against the scalar reference ---------------------------


def _array_verdicts(ctx, tuples):
    """Per tuple (matched cases, Verdict) from _cases and _rule, evaluated on
    all tuples at once as coefficient columns."""
    c = Coeffs(*(np.array(col, dtype=np.uint16) for col in zip(*tuples)))
    actx = _ArrayField(ctx)
    s = _evaluate(actx, c)
    cases = _cases(actx, c, s)
    rule = _rule(c, s, cases)
    out = []
    for i in range(len(tuples)):
        matched = _matched(m[i] for m in cases)
        out.append((matched, _verdict_of(int(rule[i]), matched)))
    return out


def test_array_cases_and_verdicts_match_scalar():
    # the case clauses and the verdict, on ints and on arrays, equal the
    # scalar reference match_scalar/verdict_scalar: all of F4, and shaped
    # samples at F16, F64 and F256
    rng = random.Random(19)
    cases, reasons = set(), set()
    for name, count in (("F4", 0), ("F16", 3000), ("F64", 3000), ("F256", 2000)):
        ctx = make_field(NAMED_SPECS[name])
        if name == "F4":
            tuples = [Coeffs(*t) for t in itertools.product(range(4), repeat=5)]
        else:
            tuples = list(shaped_tuples(ctx, rng, count))
        for c, (matched, verdict) in zip(tuples, _array_verdicts(ctx, tuples)):
            s = _evaluate(ctx, c)
            want_cases = tuple(match_scalar(ctx, c, s))
            want = verdict_scalar(ctx, c, s)
            assert matched == _matched(_cases(ctx, c, s)) == want_cases, (name, c)
            assert verdict == predict_verdict(ctx, c) == want, (name, c)
            cases.update(matched)
            reasons.add(want.reason)
    assert cases == set(range(1, 12))
    assert reasons == {reason for _, reason, _ in _RULES}


def test_reconcile_matches_scalar_reference(f4, f16, monkeypatch):
    # the chunked array form against a scalar loop over the same batch: the
    # F4 universe with true APN flags, and seeded random flags on the F4
    # universe and on shaped F16 and F64 tuples, which make every
    # contradiction counter and both case-9 readings disagree somewhere
    f64 = make_field(NAMED_SPECS["F64"])
    rng = random.Random(20)
    universe = [Coeffs(*t) for t in itertools.product(range(4), repeat=5)]
    batches = [(f4, [(c, f4_closed_form_apn(c)) for c in universe])]
    batches.append((f4, [(c, rng.random() < 0.5) for c in universe]))
    for ctx in (f16, f64):
        batches.append((ctx, [(c, rng.random() < 0.5) for c in shaped_tuples(ctx, rng, 6000)]))
    seen = set()
    for ctx, batch in batches:
        want = reconcile_scalar(ctx, batch).to_json()
        assert reconcile(ctx, iter(batch)).to_json() == want
        monkeypatch.setattr(theory, "_RECONCILE_CHUNK", 97)
        assert reconcile(ctx, batch).to_json() == want
        monkeypatch.undo()
        seen.update(k for k, v in want["contradictions"].items() if v)
        seen.update(r for r, v in want["exceptions_by_reason"].items() if v)
        regime = want["case9_regime"]
        if regime["prop-reading-matches"] < regime["size"]:
            seen.add("prop-reading-mismatch")
        if regime["summary-reading-matches"] < regime["size"]:
            seen.add("summary-reading-mismatch")
    excluded = {reason for kind, reason, _ in _RULES if kind == "excluded"}
    assert {"c1", "c2", "case9", "case10",
            "prop-reading-mismatch", "summary-reading-mismatch", *excluded} <= seen
