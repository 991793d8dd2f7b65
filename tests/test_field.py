import itertools
import random

import pytest

from hexapn.field import (
    FieldSpec,
    NAMED_SPECS,
    ReducibleModulusError,
    make_field,
    parse_field_spec,
    poly_str,
)


@pytest.fixture(scope="module")
def fields():
    return {name: make_field(spec) for name, spec in NAMED_SPECS.items()}


def test_named_constructions(fields):
    for name, ctx in fields.items():
        assert ctx.size == int(name[1:])
        assert ctx.x_is_generator, name
        assert sorted(ctx.exp[:ctx.size - 1]) == list(range(1, ctx.size))


def test_reducible_modulus_names_factor():
    with pytest.raises(ReducibleModulusError) as exc:
        make_field(FieldSpec(1, 0x5))  # x^2 + 1 = (x + 1)^2
    assert exc.value.factor == 0x3
    assert "0x3" in str(exc.value)


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(2, 0x7)  # degree mismatch
    with pytest.raises(ReducibleModulusError):
        FieldSpec(1, 0x6)  # constant term missing -> divisible by x
    with pytest.raises(ValueError, match="beyond GF"):
        FieldSpec(9, (1 << 18) | (1 << 7) | 1)  # x^18 + x^7 + 1, past the degree-10 cap
    with pytest.raises(ValueError, match="beyond GF"):
        parse_field_spec("gf2:12:0x1053")


def test_gf4_forced_multiplication(fields):
    ctx = fields["F4"]
    a = 2
    assert ctx.mul(a, a) == 3          # a^2 = a + 1
    assert ctx.mul(a, a ^ 1) == 1      # a(a + 1) = 1
    assert ctx.inv(1) == 1
    assert ctx.inv(a) == 3
    assert ctx.mul(ctx.inv(a), a) == 1


def test_parse_field_spec_forms():
    assert parse_field_spec("F64") == NAMED_SPECS["F64"]
    assert parse_field_spec("gf2:4:0x13") == NAMED_SPECS["F16"]
    assert str(NAMED_SPECS["F256"]) == "gf2:8:0x11d"
    for bad in ("gf:4:0x13", "gf2:3:0x13", "gf2:4:zz", "F8"):
        with pytest.raises(ValueError):
            parse_field_spec(bad)


def test_field_axioms_small(fields):
    ctx = fields["F16"]
    els = range(ctx.size)
    for x, y in itertools.product(els, repeat=2):
        assert ctx.mul(x, y) == ctx.mul(y, x)
        if x:
            assert ctx.mul(x, ctx.inv(x)) == 1
    for x, y, z in itertools.product(range(0, ctx.size, 3), repeat=3):
        assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
        assert ctx.mul(x, y ^ z) == ctx.mul(x, y) ^ ctx.mul(x, z)


def test_field_axioms_sampled_f256(fields):
    ctx = fields["F256"]
    rng = random.Random(0)
    for _ in range(2000):
        x, y, z = (rng.randrange(ctx.size) for _ in range(3))
        assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
        assert ctx.mul(x, y ^ z) == ctx.mul(x, y) ^ ctx.mul(x, z)
        if x:
            assert ctx.mul(x, ctx.inv(x)) == 1


def test_freshmans_dream_exhaustive(fields):
    for name in ("F4", "F16", "F64", "F256"):
        ctx = fields[name]
        for x in range(ctx.size):
            x2 = ctx.mul(x, x)
            for y in range(ctx.size):
                assert ctx.mul(x ^ y, x ^ y) == x2 ^ ctx.mul(y, y)


def test_frobenius_is_automorphism(fields):
    for ctx in fields.values():
        rng = random.Random(1)
        for _ in range(500):
            x, y = rng.randrange(ctx.size), rng.randrange(ctx.size)
            assert ctx.frob_q(ctx.mul(x, y)) == ctx.mul(ctx.frob_q(x), ctx.frob_q(y))
            assert ctx.frob_q(x ^ y) == ctx.frob_q(x) ^ ctx.frob_q(y)
            assert ctx.frob_q(ctx.frob_q(x)) == x


def test_subfield_has_q_elements(fields):
    for ctx in fields.values():
        sub = [z for z in ctx.elements() if ctx.in_subfield(z)]
        assert len(sub) == ctx.q
        for z in sub:
            assert ctx.trace_rel(z) == 0


def test_sqrt_squares_back(fields):
    for ctx in fields.values():
        for z in ctx.elements():
            s = ctx.sqrt(z)
            assert ctx.mul(s, s) == z
    ctx = fields["F4"]
    assert ctx.sqrt(0) == 0 and ctx.sqrt(1) == 1 and ctx.sqrt(3) == 2


def test_frobenius_examples(fields):
    assert fields["F4"].frob_q(2) == 3       # a^2 = a + 1
    assert fields["F16"].frob_q(2) == 3      # a^4 = a + 1
    for ctx in fields.values():
        assert ctx.frob_q(1) == 1


def test_trace_norm_examples(fields):
    ctx = fields["F4"]
    assert ctx.trace_rel(2) == 1 and ctx.norm_rel(2) == 1
    for c in fields.values():
        assert c.trace_rel(1) == 0


def test_mult_order(fields):
    # a = x has order exactly 2^(2m) - 1: no proper divisor d of it gives a^d = 1
    for ctx in fields.values():
        n1 = ctx.size - 1
        assert ctx.pow(2, n1) == 1
        assert all(ctx.pow(2, d) != 1 for d in range(1, n1) if n1 % d == 0)
        assert ctx.pow(1, 7) == 1
        with pytest.raises(ZeroDivisionError):
            ctx.pow(0, -1)
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)


def test_element_text_roundtrip(fields):
    ctx = fields["F64"]
    for z in ctx.elements():
        assert ctx.parse_elem(ctx.format_elem(z)) == z
        assert ctx.parse_elem(f"{z:#x}") == z
    assert ctx.parse_elem("a") == 2
    assert ctx.parse_elem("a^0") == 1
    with pytest.raises(ValueError):
        ctx.parse_elem("b^2")
    with pytest.raises(ValueError):
        fields["F4"].parse_elem("0x10")


def test_poly_str():
    assert poly_str(0x7) == "x^2 + x + 1"
    assert poly_str(0x5B) == "x^6 + x^4 + x^3 + x + 1"

