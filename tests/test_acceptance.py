"""Acceptance criteria, one test per criterion.

Each test prints 'ACCEPTANCE <n> <clause>: PASS|FAIL (detail)' lines for its
clauses before asserting, so a red criterion still reports every measured
value. Where a previously reported census or table value is refuted, the
clause asserts the value of an oracle outside the code path under test
(see tests/oracles.py) and its line still prints the figure as
'reported: ...'. The README's "Reference errata" section lists each refuted
value with the argument against it.
"""

import itertools
import random
import time

import pytest

from hexapn.field import NAMED_SPECS, make_field
from hexapn.hexanomial import Coeffs
from hexapn.diffanalysis import (
    differential_profile,
    is_apn_ddt,
    is_apn_equation,
    is_permutation,
)
from hexapn.theory import cond_C1_C2, reconcile
from hexapn.invariants import partition_by_fingerprint
from hexapn.sympoly import (
    DegenerateSystemError,
    MPoly,
    Z0,
    build_f1_f2,
    build_variety_system,
    g_display,
    gcd_bivariate,
    rational_point_scan,
)
from hexapn.search import (
    NO_FILTERS,
    PLAIN_FILTERS,
    SearchJob,
    gcd_regime_census,
    index_tuple,
    regime_tuples,
    run_exhaustive,
    tuple_index,
)

from oracles import (
    f4_closed_form_apn,
    gcd_a2_a0_nontrivial,
    lowest_part_resultant_check,
    offplane_zeros,
)


def _clause(crit, name, ok, detail):
    print(f"ACCEPTANCE {crit} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok, f"{name}: {detail}"


def _finish(crit, clauses):
    bad = [msg for ok, msg in clauses if not ok]
    assert not bad, f"criterion {crit}: " + " | ".join(bad)


@pytest.fixture(scope="session")
def q2_theory():
    return run_exhaustive(SearchJob(NAMED_SPECS["F4"], "exhaustive"))


@pytest.fixture(scope="session")
def q4_theory():
    return run_exhaustive(SearchJob(NAMED_SPECS["F16"], "exhaustive"))


@pytest.fixture(scope="session")
def q2_unfiltered():
    return run_exhaustive(
        SearchJob(NAMED_SPECS["F4"], "exhaustive", filters=NO_FILTERS), verify=False
    )


@pytest.fixture(scope="session")
def q4_unfiltered():
    return run_exhaustive(
        SearchJob(NAMED_SPECS["F16"], "exhaustive", filters=NO_FILTERS), verify=False
    )


def test_criterion_1_exhaustive_q2(q2_theory):
    t0 = time.time()
    plain = run_exhaustive(SearchJob(NAMED_SPECS["F4"], "exhaustive", filters=PLAIN_FILTERS))
    c = []
    c.append(_clause(1, "apn-count", q2_theory.counters["apn"] == 390,
                     f"theory filter -> {q2_theory.counters['apn']} (expected 390); "
                     f"plain A!=0/no-C1C2 filter -> {plain.counters['apn']}"))
    c.append(_clause(1, "permutations", q2_theory.counters["permutations"] == 0,
                     f"{q2_theory.counters['permutations']}"))
    c.append(_clause(1, "accounting",
                     q2_theory.counters["tested"] + q2_theory.counters["skipped_by_filter"] == 4 ** 5,
                     f"tested {q2_theory.counters['tested']} + skipped {q2_theory.counters['skipped_by_filter']}"))
    print(f"ACCEPTANCE 1 runtime: {time.time() - t0 + q2_theory.manifest['wall_time_s']:.1f}s")
    _finish(1, c)


def test_criterion_2_exhaustive_q4(q4_theory):
    c = []
    c.append(_clause(2, "apn-count", q4_theory.counters["apn"] == 28170,
                     f"theory filter -> {q4_theory.counters['apn']} (expected 28170)"))
    c.append(_clause(2, "permutations", q4_theory.counters["permutations"] == 0,
                     f"{q4_theory.counters['permutations']}"))
    c.append(_clause(2, "accounting",
                     q4_theory.counters["tested"] + q4_theory.counters["skipped_by_filter"] == 16 ** 5,
                     "tested + skipped = universe"))
    print(f"ACCEPTANCE 2 runtime: {q4_theory.manifest['wall_time_s']:.1f}s")
    _finish(2, c)


def test_criterion_3_census_q2():
    t0 = time.time()
    ctx = make_field(NAMED_SPECS["F4"])
    rep = gcd_regime_census(NAMED_SPECS["F4"], full_scan=True)
    # Oracles: the GF(4) closed form for APN, resultant + Z1-content for the
    # gcd, a scalar scan of G = l = 0 for the exceptional/generic split.
    tuples = regime_tuples(ctx)
    apn = [f4_closed_form_apn(t) for t in tuples]
    nontrivial = [gcd_a2_a0_nontrivial(ctx, t) for t in tuples]
    split = {(kind, flag): 0 for kind in ("exceptional", "generic") for flag in (True, False)}
    exceptional_apn_c = set()
    for t, is_apn, nt in zip(tuples, apn, nontrivial):
        if not nt:
            continue
        vs = build_variety_system(ctx, t)
        ell = gcd_bivariate(vs.a2, vs.a0)
        kind = "exceptional" if offplane_zeros(ctx, [vs.G, ell]) == 0 else "generic"
        split[kind, is_apn] += 1
        if kind == "exceptional" and is_apn:
            exceptional_apn_c.add(t.C)
    n_trivial = nontrivial.count(False)
    n_trivial_apn = sum(a and not nt for a, nt in zip(apn, nontrivial))
    c = []
    c.append(_clause(3, "regime-size", rep.regime_size == 288, f"{rep.regime_size}"))
    c.append(_clause(3, "apn-total", rep.apn_total == sum(apn),
                     f"measured {rep.apn_total} APN in regime, closed form "
                     f"A+B+E != 1 gives {sum(apn)} (reported: 16); h1 and "
                     f"BC^q+B^qD do not involve E"))
    c.append(_clause(3, "gcd-trivial", rep.gcd_trivial == n_trivial,
                     f"measured {rep.gcd_trivial}, resultant + content {n_trivial} "
                     f"(reported: 28)"))
    c.append(_clause(3, "gcd-trivial-apn", rep.gcd_trivial_apn == n_trivial_apn,
                     f"measured {rep.gcd_trivial_apn} APN among gcd-trivial, "
                     f"oracles {n_trivial_apn} (reported: 0)"))
    c.append(_clause(3, "generic",
                     rep.gcd_nontrivial == len(tuples) - n_trivial
                     and rep.generic_apn == split["generic", True]
                     and rep.generic_nonapn == split["generic", False],
                     f"measured gcd-nontrivial {rep.gcd_nontrivial}, oracles "
                     f"{len(tuples) - n_trivial} (reported: 244 generic + 16 "
                     f"exceptional); APN among generic {rep.generic_apn}, scalar "
                     f"scan {split['generic', True]} (reported: 0); non-APN "
                     f"generic {rep.generic_nonapn}, scalar scan {split['generic', False]}"))
    c.append(_clause(3, "exceptional",
                     rep.exceptional_apn == split["exceptional", True]
                     and rep.exceptional_nonapn == split["exceptional", False]
                     and rep.exceptional_apn_all_c_zero == (exceptional_apn_c <= {0}),
                     f"measured {rep.exceptional_apn} exceptional APN, scalar scan "
                     f"{split['exceptional', True]} (reported: 16); all C=0: "
                     f"{rep.exceptional_apn_all_c_zero}, scan finds C in "
                     f"{sorted(exceptional_apn_c)} (reported: all C=0); non-APN "
                     f"exceptional {rep.exceptional_nonapn}, scan {split['exceptional', False]}"))
    print(f"ACCEPTANCE 3 runtime: {time.time() - t0:.1f}s")
    _finish(3, c)


def test_criterion_4_census_q4():
    t0 = time.time()
    ctx = make_field(NAMED_SPECS["F16"])
    rep = gcd_regime_census(NAMED_SPECS["F16"])
    # Oracles: the equation-form APN test on every regime tuple, then the
    # resultant (evaluated at every Z1 in GF(16)) + Z1-content on every APN
    # one.
    tuples = regime_tuples(ctx)
    apn = [t for t in tuples if is_apn_equation(ctx, t)]
    nontrivial_apn = [t for t in apn if gcd_a2_a0_nontrivial(ctx, t)]
    c = []
    c.append(_clause(4, "regime-size", rep.regime_size == 268800, f"{rep.regime_size}"))
    c.append(_clause(4, "apn-total", rep.apn_total == len(apn),
                     f"measured {rep.apn_total}, equation test on every regime "
                     f"tuple {len(apn)}"))
    c.append(_clause(4, "nontrivial-gcd-apn",
                     rep.gcd_nontrivial_apn == len(nontrivial_apn),
                     f"measured {rep.gcd_nontrivial_apn} APN with nontrivial gcd, "
                     f"resultant + content on all {len(apn)} APN regime tuples "
                     f"{len(nontrivial_apn)} (reported: 9120); gcd split "
                     f"{rep.gcd_trivial}/{rep.gcd_nontrivial}; first oracle-"
                     f"nontrivial: {[tuple(t) for t in nontrivial_apn[:5]]}"))
    c.append(_clause(4, "all-exceptional",
                     rep.exceptional_apn == rep.gcd_nontrivial_apn,
                     f"exceptional {rep.exceptional_apn} of {rep.gcd_nontrivial_apn}"))
    print(f"ACCEPTANCE 4 runtime: {time.time() - t0:.1f}s")
    _finish(4, c)


def test_criterion_5_table_representatives():
    t0 = time.time()
    rows = [
        ("F4", ("a", "0", "0", "0", "a")),
        ("F16", ("a", "0", "0", "a", "0")),
        ("F64", ("a^23", "a^23", "a^47", "a^25", "a^29")),
        ("F64", ("a^35", "a^46", "a^6", "a^20", "a^31")),
        ("F64", ("a^37", "0", "a^41", "a^28", "0")),
        ("F256", ("a^210", "a^34", "a^125", "a^170", "a^207")),
    ]
    c = []
    for fname, texts in rows:
        ctx = make_field(NAMED_SPECS[fname])
        tup = Coeffs(*(ctx.parse_elem(t) for t in texts))
        apn = is_apn_ddt(ctx, tup)
        perm = is_permutation(ctx, tup)
        c.append(_clause(5, f"{fname}:{','.join(texts)}", apn and not perm,
                         f"APN={apn} permutation={perm}"))
    # Erratum: the reported F256 row a^25,a^51,a^34,a^68,a^17. Any GF(256)
    # modulus maps isomorphically onto this field, taking its 'a' to some
    # nonzero element, and isomorphisms preserve APN; so the row is APN
    # under some modulus iff it is APN for some nonzero choice of a here.
    ctx = make_field(NAMED_SPECS["F256"])
    exps = (25, 51, 34, 68, 17)
    per_a = [Coeffs(*(ctx.pow(g, k) for k in exps)) for g in range(1, ctx.size)]
    apn_for = [t for t in per_a if is_apn_ddt(ctx, t) or is_apn_equation(ctx, t)]
    tup = Coeffs(*(ctx.pow(ctx.generator, k) for k in exps))
    c.append(_clause(5, "erratum F256:a^25,a^51,a^34,a^68,a^17", not apn_for,
                     f"APN for {len(apn_for)} of {ctx.size - 1} nonzero choices of a "
                     f"under either oracle; uniformity "
                     f"{differential_profile(ctx, tup).uniformity} at the "
                     f"{NAMED_SPECS['F256'].modulus:#x} generator (reported: APN, "
                     f"not a permutation)"))
    print(f"ACCEPTANCE 5 runtime: {time.time() - t0:.1f}s")
    _finish(5, c)


def test_criterion_6_symbolic_identities():
    t0 = time.time()
    checked = {}
    for fname in ("F4", "F16", "F64"):
        ctx = make_field(NAMED_SPECS[fname])
        rng = random.Random(608 + ctx.q)
        n_ok = 0
        while n_ok < 1000:
            tup = Coeffs(*(rng.randrange(ctx.size) for _ in range(5)))
            c1, c2 = cond_C1_C2(ctx, tup)
            if c1 or c2:
                continue
            try:
                vs = build_variety_system(ctx, tup)  # verifies Gbar factorization
            except DegenerateSystemError:
                continue
            assert vs.a1 == vs.a2 * MPoly.var(ctx, Z0)
            assert vs.a2 == vs.g3.square()
            assert vs.a0 == vs.g1 * vs.g2
            assert vs.G == g_display(ctx, tup)
            n_ok += 1
        checked[fname] = n_ok
    c = [_clause(6, "identities", all(v == 1000 for v in checked.values()),
                 f"1000 random tuples per field verified: {checked}")]
    print(f"ACCEPTANCE 6 runtime: {time.time() - t0:.1f}s")
    _finish(6, c)


def test_criterion_7_resultant_identity():
    t0 = time.time()
    f4 = make_field(NAMED_SPECS["F4"])
    fails = 0
    total = 0
    for tup in itertools.product(range(4), repeat=5):
        if tup[1] == 0:
            continue
        total += 1
        *_, ok = lowest_part_resultant_check(f4, Coeffs(*tup))
        fails += not ok
    c = [_clause(7, "exhaustive-F4", fails == 0, f"{total} tuples with B != 0, {fails} failures")]
    for fname in ("F16", "F64"):
        ctx = make_field(NAMED_SPECS[fname])
        rng = random.Random(7)
        fails = 0
        for _ in range(1000):
            tup = Coeffs(*(rng.randrange(ctx.size) for _ in range(5)))
            *_, ok = lowest_part_resultant_check(ctx, tup)
            fails += not ok
        c.append(_clause(7, f"random-{fname}", fails == 0, f"1000 tuples, {fails} failures"))
    print(f"ACCEPTANCE 7 runtime: {time.time() - t0:.1f}s")
    _finish(7, c)


def test_criterion_8_geometric_oracle():
    t0 = time.time()
    ctx = make_field(NAMED_SPECS["F4"])
    mismatches = 0
    for tup in itertools.product(range(4), repeat=5):
        c = Coeffs(*tup)
        f1, f2 = build_f1_f2(ctx, c)
        count, _ = rational_point_scan(ctx, [f1, f2])
        if (count == 0) != is_apn_ddt(ctx, c):
            mismatches += 1
    cl = [_clause(8, "apn-iff-empty-scan", mismatches == 0,
                  f"1024 tuples, {mismatches} mismatches")]
    print(f"ACCEPTANCE 8 runtime: {time.time() - t0:.1f}s")
    _finish(8, cl)


def test_criterion_9_fingerprint_coherence(q2_theory, q4_theory):
    t0 = time.time()
    c = []
    ctx = make_field(NAMED_SPECS["F4"])
    groups = partition_by_fingerprint(ctx, q2_theory.apn_hits)
    c.append(_clause(9, "q2-one-class", len(groups) == 1,
                     f"{len(q2_theory.apn_hits)} hits -> {len(groups)} fingerprint(s)"))
    ctx = make_field(NAMED_SPECS["F16"])
    groups4 = partition_by_fingerprint(ctx, q4_theory.apn_hits)
    c.append(_clause(9, "q4-one-class", len(groups4) == 1,
                     f"{len(q4_theory.apn_hits)} hits -> {len(groups4)} fingerprint(s)"))
    print(f"ACCEPTANCE 9 runtime: {time.time() - t0:.1f}s")
    _finish(9, c)


def _f4_iff_contradictions(ctx):
    """(C1, C2) verdict contradictions at q = 2 predicted by the closed form.

    The C1 verdict is APN iff A^(q+1) != 1 and the C2 verdict is not-APN;
    both are asymptotic. Every A in GF(4)* has A^3 = 1, so each C1 or C2
    tuple with A+B+E != 1 contradicts its verdict.
    """
    c1_bad = c2_bad = 0
    for t in itertools.product(range(ctx.size), repeat=5):
        tup = Coeffs(*t)
        c1, c2 = cond_C1_C2(ctx, tup)
        apn = f4_closed_form_apn(tup)
        c1_bad += c1 and apn != (ctx.norm_rel(tup.A) != 1)
        c2_bad += c2 and apn
    return c1_bad, c2_bad


def test_criterion_10_reconciliation(q2_unfiltered, q4_unfiltered):
    t0 = time.time()
    c = []
    resolutions = {}
    for fname, res in (("F4", q2_unfiltered), ("F16", q4_unfiltered)):
        ctx = make_field(NAMED_SPECS[fname])
        n = ctx.size
        hits = {tuple_index(c, n) for c in res.apn_hits}
        batch = ((index_tuple(i, n), i in hits) for i in range(n ** 5))
        rep = reconcile(ctx, batch)
        resolutions[fname] = rep.congruence_resolution
        expected, why = (0, 0), ""
        if fname == "F4":
            expected = _f4_iff_contradictions(ctx)
            why = (f"; closed form A+B+E != 1 predicts C1: {expected[0]}, "
                   f"C2: {expected[1]}")
        c.append(_clause(10, f"{fname}-iff-contradictions",
                         (rep.contradictions_c1, rep.contradictions_c2) == expected,
                         f"C1: {rep.contradictions_c1}, C2: {rep.contradictions_c2} "
                         f"(reported: 0){why}; exceptions by reason: "
                         f"{rep.exceptions_by_reason}"))
        c.append(_clause(10, f"{fname}-case-9-10",
                         rep.contradictions_case9 == 0 and rep.contradictions_case10 == 0,
                         f"case9 {rep.contradictions_case9}, case10 {rep.contradictions_case10}"))
    ok_res = all(r == "data supports q = 2 (mod 3)" for r in resolutions.values())
    c.append(_clause(10, "congruence-resolution", ok_res, str(resolutions)))
    print(f"ACCEPTANCE 10 runtime: {time.time() - t0:.1f}s")
    _finish(10, c)
