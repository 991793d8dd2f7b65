import itertools
import random

import pytest

from hexapn.field import NAMED_SPECS, make_field
from hexapn.hexanomial import Coeffs, evaluate
from hexapn.diffanalysis import is_apn_ddt
from hexapn.theory import _evaluate, cond_C1_C2
from hexapn.sympoly import (
    MPoly,
    DegenerateSystemError,
    MixedContextError,
    ScanGateError,
    X0, Z0, Z1,
    _zpoly,
    build_f1_f2,
    build_g,
    build_variety_system,
    gcd_bivariate,
    rational_point_scan,
    regime_gcd,
)
from hexapn.search import regime_tuples

from oracles import (
    divides,
    g_factors,
    gcd_a2_a0_nontrivial,
    gcd_nontrivial,
    lowest_part_resultant_check,
    resultant_vanishes_by_evaluation,
    resultant_z0,
)


@pytest.fixture(scope="module")
def f4():
    return make_field(NAMED_SPECS["F4"])


@pytest.fixture(scope="module")
def f16():
    return make_field(NAMED_SPECS["F16"])


def rand_tuple(ctx, rng):
    return Coeffs(*(rng.randrange(ctx.size) for _ in range(5)))


def nondegenerate(ctx, c):
    c1, c2 = cond_C1_C2(ctx, c)
    return not (c1 or c2) and c.A != 0


# -- arithmetic -----------------------------------------------------------------


def test_char2_square(f4):
    p = MPoly.var(f4, Z0) + MPoly.var(f4, Z1)
    sq = p * p
    assert sq == MPoly(f4, {(0, 0, 2, 0): 1, (0, 0, 0, 2): 1})
    assert sq == p.square()


def test_lowest_and_homogeneous_parts(f4):
    p = MPoly(f4, {(0, 0, 3, 0): 1, (0, 0, 1, 1): 2})
    assert p.homogeneous_part(2) == MPoly(f4, {(0, 0, 1, 1): 2})
    total = MPoly(f4)
    for i in range(p.total_degree() + 1):
        total = total + p.homogeneous_part(i)
    assert total == p
    assert MPoly(f4).homogeneous_part(0).is_zero()


def test_eval_matches_naive(f16):
    rng = random.Random(0)
    for _ in range(30):
        terms = {
            tuple(rng.randrange(3) for _ in range(4)): rng.randrange(1, 16)
            for _ in range(5)
        }
        p = MPoly(f16, terms)
        pt = tuple(rng.randrange(16) for _ in range(4))
        naive = 0
        for e, coef in terms.items():
            t = coef
            for v, ev in zip(pt, e):
                for _ in range(ev):
                    t = f16.mul(t, v)
            naive ^= t
        # terms dict may collapse duplicate keys before MPoly sees them
        assert p.eval(pt) == naive


def test_mixed_context_error(f4, f16):
    with pytest.raises(MixedContextError):
        MPoly.var(f4, Z0) + MPoly.var(f16, Z0)


def test_dump_format(f4):
    p = MPoly(f4, {(1, 0, 2, 0): 3, (0, 0, 0, 1): 1})
    assert p.dump() == "0 0 0 1 0x1\n1 0 2 0 0x3"


# -- the variety system ----------------------------------------------------------


def test_builder_verifies_all_invariants_exhaustive_f4(f4):
    built = 0
    for tup in itertools.product(range(4), repeat=5):
        c = Coeffs(*tup)
        try:
            vs = build_variety_system(f4, c)
        except DegenerateSystemError:
            continue
        built += 1
        assert vs.a1 == vs.a2 * MPoly.var(f4, Z0)
        assert vs.a2 == vs.g3.square()
        assert vs.a0 == vs.g1 * vs.g2
    assert built > 900


def test_builder_random_fields():
    rng = random.Random(1)
    for name in ("F16", "F64", "F256"):
        ctx = make_field(NAMED_SPECS[name])
        built = 0
        while built < 100:
            c = rand_tuple(ctx, rng)
            try:
                build_variety_system(ctx, c)
                built += 1
            except DegenerateSystemError:
                pass


def test_degeneration_refusal_names_condition(f4):
    with pytest.raises(DegenerateSystemError) as exc:
        build_variety_system(f4, Coeffs(2, 0, 0, 0, 0))
    assert exc.value.condition == "C1"
    with pytest.raises(DegenerateSystemError) as exc:
        build_variety_system(f4, Coeffs(1, 0, 1, 1, 0))
    assert exc.value.condition == "C2"


def test_c1_specialization_display(f16):
    # under C1 with nontrivial norm, G collapses to (A^(q+1)+1) Z0 Z1 X0 (X0 + Z0)
    A = 2
    assert f16.norm_rel(A) != 1
    c = Coeffs(A, 0, 0, 0, 0)
    _, _, g = build_g(f16, c)
    scalar = f16.norm_rel(A) ^ 1
    expected = (
        MPoly.const(f16, scalar)
        * MPoly.var(f16, Z0)
        * MPoly.var(f16, Z1)
        * MPoly.var(f16, X0)
        * (MPoly.var(f16, X0) + MPoly.var(f16, Z0))
    )
    assert g == expected


def b2_display_b0_branch(ctx, c):
    """The squared bracket of the B = 0, D = AC^q specialization."""
    mul, frob = ctx.mul, ctx.frob_q
    A, _, C, _, E = c
    nA = ctx.norm_rel(A)
    nC = ctx.norm_rel(C)
    ae = mul(A, frob(E)) ^ E
    aqe = mul(frob(A), E) ^ frob(E)
    inner = _zpoly(ctx, {
        (1, 1): mul(nA ^ 1, nC ^ 1),
        (2, 0): mul(C, nA ^ 1),
        (0, 2): mul(frob(C), nA ^ 1),
        (2, 1): mul(frob(C), ae),
        (1, 2): mul(C, aqe),
        (3, 0): ae,
        (0, 3): aqe,
    })
    return inner.square()


def test_b0_branch_b2_display(f16):
    # B = 0, D = AC^q tuples avoiding C1/C2: derived a2 equals the display
    rng = random.Random(2)
    checked = 0
    while checked < 40:
        A = rng.randrange(1, 16)
        C = rng.randrange(16)
        E = rng.randrange(16)
        c = Coeffs(A, 0, C, f16.mul(A, f16.frob_q(C)), E)
        if not nondegenerate(f16, c):
            continue
        try:
            vs = build_variety_system(f16, c)
        except DegenerateSystemError:
            continue
        assert vs.a2 == b2_display_b0_branch(f16, c)
        checked += 1


def test_b0_e0_branch_displays(f16):
    # B = E = 0, AC^q + D != 0: both displayed b2/b0 shapes match a2/a0
    mul, frob = f16.mul, f16.frob_q
    rng = random.Random(3)
    checked = 0
    while checked < 40:
        A = rng.randrange(1, 16)
        C = rng.randrange(16)
        D = rng.randrange(16)
        c = Coeffs(A, 0, C, D, 0)
        if mul(A, frob(C)) ^ D == 0 or not nondegenerate(f16, c):
            continue
        vs = build_variety_system(f16, c)
        nA, nC, nD = (f16.norm_rel(z) for z in (A, C, D))
        sig = nA ^ nC ^ nD ^ 1
        b2 = _zpoly(f16, {
            (1, 1): sig,
            (2, 0): mul(A, frob(D)) ^ C,
            (0, 2): mul(frob(A), D) ^ frob(C),
        }).square()
        b0 = _zpoly(f16, {
            (0, 2): mul(frob(A), C) ^ frob(D),
            (1, 1): mul(frob(A), D) ^ frob(C),
            (2, 0): nC ^ nD,
        }) * _zpoly(f16, {
            (2, 2): sig,
            (4, 0): mul(A, frob(C)) ^ D,
            (0, 4): mul(frob(A), C) ^ frob(D),
        })
        assert vs.a2 == b2 and vs.a0 == b0
        checked += 1


# -- gcd ------------------------------------------------------------------------


def test_gcd_monomials(f4):
    g = gcd_bivariate(MPoly(f4, {(0, 0, 2, 1): 1}), MPoly(f4, {(0, 0, 1, 2): 1}))
    assert g == MPoly(f4, {(0, 0, 1, 1): 1})
    assert gcd_bivariate(MPoly(f4, {(0, 0, 2, 1): 2}), MPoly.const(f4, 1)) == MPoly.const(f4, 1)
    assert gcd_bivariate(MPoly(f4), MPoly(f4)).is_zero()
    p = MPoly(f4, {(0, 0, 1, 0): 2, (0, 0, 0, 1): 1})
    assert gcd_bivariate(MPoly(f4), p) == p.scale(f4.inv(2))


def test_gcd_properties_random(f16):
    rng = random.Random(4)
    def rand_z(maxdeg, nterms):
        return MPoly(f16, {
            (0, 0, rng.randrange(maxdeg + 1), rng.randrange(maxdeg + 1)): rng.randrange(1, 16)
            for _ in range(nterms)
        })
    for _ in range(150):
        p, r, t = rand_z(2, 3), rand_z(2, 3), rand_z(2, 2)
        if p.is_zero() or r.is_zero() or t.is_zero():
            continue
        g = gcd_bivariate(p * t, r * t)
        assert divides(g, p * t) and divides(g, r * t)
        assert divides(t, g)  # the planted common factor lands in the gcd


def test_gcd_regime_example(f4):
    # a regime tuple whose a2/a0 share a nontrivial factor; checked by division
    c = Coeffs(1, 2, 1, 1, 1)
    assert _evaluate(f4, c).h1 == 0
    vs = build_variety_system(f4, c)
    ell = gcd_bivariate(vs.a2, vs.a0)
    assert ell.total_degree() >= 1
    assert divides(ell, vs.a2) and divides(ell, vs.a0)


def test_gcd_triviality_matches_resultant_oracle_q2_regime(f4):
    # resultant_z0 plus the Z1-content decide gcd triviality without the
    # pseudo-remainder sequence; gcd(0, g) = g counts as nontrivial
    tuples = regime_tuples(f4)
    assert len(tuples) == 288
    g3_zero = 0
    for c in tuples:
        g3, g1, g2 = g_factors(f4, c)
        g3_zero += g3.is_zero()
        for g in (g1, g2):
            assert (gcd_bivariate(g3, g).total_degree() > 0) == gcd_nontrivial(g3, g), c
        # the census's gcd, against gcd(a2, a0) = gcd(g3^2, g1 g2)
        assert (regime_gcd(f4, c).total_degree() <= 0) == (not gcd_a2_a0_nontrivial(f4, c)), c
    assert g3_zero == 36


def _scans_agree(ctx, tuples):
    # regime_gcd and gcd(a2, a0) of the verified system cut out the same
    # points on G = 0; returns the scan counts
    counts = []
    for c in tuples:
        vs = build_variety_system(ctx, c)
        ref, _ = rational_point_scan(ctx, [vs.G, gcd_bivariate(vs.a2, vs.a0)], force=True)
        got, _ = rational_point_scan(ctx, [build_g(ctx, c)[2], regime_gcd(ctx, c)], force=True)
        assert got == ref, c
        counts.append(ref)
    return counts


def test_regime_gcd_scan_matches_a2_a0_gcd(f4, f16):
    nontrivial = [c for c in regime_tuples(f4) if gcd_a2_a0_nontrivial(f4, c)]
    assert len(nontrivial) == 240
    counts = _scans_agree(f4, nontrivial)
    assert 0 in counts and max(counts) > 0  # exceptional and generic both met
    rng = random.Random(11)
    sample = [c for c in rng.sample(regime_tuples(f16), 400) if gcd_a2_a0_nontrivial(f16, c)]
    assert len(sample) >= 100
    _scans_agree(f16, sample[:120])


def test_evaluated_resultant_matches_symbolic_q4(f16):
    # the evaluated resultant behind the q=4 census criterion agrees with
    # resultant_z0, and the gcd oracle built on it with gcd_bivariate
    rng = random.Random(7)
    vanishes, nontrivial = [], []
    for c in rng.sample(regime_tuples(f16), 150):
        g3, g1, g2 = g_factors(f16, c)
        for g in (g1, g2):
            v = resultant_vanishes_by_evaluation(g3, g)
            assert v == resultant_z0(g3, g).is_zero(), c
            nt = gcd_bivariate(g3, g).total_degree() > 0
            assert gcd_nontrivial(g3, g) == nt, c
            vanishes.append(v)
            nontrivial.append(nt)
    for flags in (vanishes, nontrivial):
        assert 0 < sum(flags) < len(flags)  # both verdicts exercised


# -- resultants -------------------------------------------------------------------


def test_resultant_identity_examples(f4, f16):
    rng = random.Random(5)
    for ctx in (f4, f16):
        for _ in range(200):
            c = rand_tuple(ctx, rng)
            *_, ok = lowest_part_resultant_check(ctx, c)
            assert ok
    # B = 0 collapses the identity to 0 = 0
    g1l, g2l, _, res, ok = lowest_part_resultant_check(f4, Coeffs(2, 0, 1, 1, 0))
    assert ok and res.is_zero() and g1l.is_zero()


def test_impossible_combination_never_occurs(f4):
    # (A^q B + B^q, B D^q + B^q C) = (0, 0) forces h1 = 0
    mul, frob = f4.mul, f4.frob_q
    for tup in itertools.product(range(4), repeat=5):
        c = Coeffs(*tup)
        e1 = mul(frob(c.A), c.B) ^ frob(c.B)
        e2 = mul(c.B, frob(c.D)) ^ mul(frob(c.B), c.C)
        if e1 == 0 and e2 == 0:
            assert _evaluate(f4, c).h1 == 0


def test_resultant_of_known_factors(f4):
    # a shared linear factor makes the Z0-resultant vanish; none keeps it alive
    p = _zpoly(f4, {(1, 0): 1, (0, 1): 1}) * _zpoly(f4, {(1, 0): 1, (0, 1): 2})
    r = _zpoly(f4, {(1, 0): 1, (0, 1): 1}) * _zpoly(f4, {(1, 0): 1, (0, 1): 3})
    assert resultant_z0(p, r).is_zero()
    r2 = _zpoly(f4, {(1, 0): 1, (0, 1): 3}) * _zpoly(f4, {(0, 1): 1})
    assert not resultant_z0(p, r2).is_zero()


# -- rational point scans ----------------------------------------------------------


def test_scan_empty_system(f4):
    n = f4.size
    count, samples = rational_point_scan(f4, [])
    assert count == (n - 1) * (n - 2) == 6
    assert len(samples) == 6  # fewer points than the sample cap


def test_scan_apn_iff_no_offplane_points(f4):
    rng = random.Random(6)
    for _ in range(200):
        c = rand_tuple(f4, rng)
        f1, f2 = build_f1_f2(f4, c)
        count, samples = rational_point_scan(f4, [f1, f2])
        assert (count == 0) == is_apn_ddt(f4, c)
        # every sample maps back to a nontrivial differential collision
        for x0, x1, z0, z1 in samples:
            assert x1 == f4.frob_q(x0) and z1 == f4.frob_q(z0)
            x, a = x0, z0
            assert a != 0 and x not in (0, a)
            d = evaluate(f4, c, x ^ a) ^ evaluate(f4, c, x)
            assert d == evaluate(f4, c, a) ^ evaluate(f4, c, 0)


def test_scan_gate():
    ctx = make_field(NAMED_SPECS["F64"])
    f1, f2 = build_f1_f2(ctx, Coeffs(1, 0, 0, 0, 0))
    with pytest.raises(ScanGateError):
        rational_point_scan(ctx, [f1, f2])
    count, _ = rational_point_scan(ctx, [f1, f2], force=True)
    assert count >= 0
