"""GF(2^(2m)) arithmetic in polynomial basis.

An element is an int in [0, 2^(2m)): bit i holds the coefficient of x^i,
where x is the class of the indeterminate modulo the field polynomial.
Every context builds log/antilog tables and a full numpy multiplication
table at construction, so field specs stop at degree 10 (q <= 32).

Named field specs (modulus bits, little-endian coefficient encoding):

    F4    x^2 + x + 1               0x7
    F16   x^4 + x + 1               0x13
    F64   x^6 + x^4 + x^3 + x + 1   0x5B
    F256  x^8 + x^4 + x^3 + x^2 + 1 0x11D

The class of x generates the multiplicative group for all four; this is
verified at construction, not assumed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

MAX_DEGREE = 10  # full numpy multiplication table: at most 1024 x 1024


class ReducibleModulusError(ValueError):
    """Raised when a field modulus has a nontrivial factor."""

    def __init__(self, modulus: int, factor: int):
        self.modulus = modulus
        self.factor = factor
        super().__init__(
            f"modulus {modulus:#x} is reducible: divisible by {factor:#x} "
            f"({poly_str(factor)})"
        )


def poly_deg(p: int) -> int:
    return p.bit_length() - 1


def poly_str(p: int) -> str:
    """Render a GF(2)[x] polynomial encoded as an int, e.g. 0x7 -> 'x^2 + x + 1'."""
    if p == 0:
        return "0"
    parts = []
    for i in range(poly_deg(p), -1, -1):
        if (p >> i) & 1:
            parts.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return " + ".join(parts)


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) product of two bit-encoded polynomials."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of bit-encoded GF(2)[x] polynomials."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = poly_deg(b)
    quo = 0
    while a and poly_deg(a) >= db:
        shift = poly_deg(a) - db
        quo ^= 1 << shift
        a ^= b << shift
    return quo, a


def find_nontrivial_factor(modulus: int) -> int | None:
    """Trial-divide by every polynomial of degree 1..deg/2; None if irreducible."""
    deg = poly_deg(modulus)
    for cand in range(2, 1 << (deg // 2 + 1)):
        if poly_divmod(modulus, cand)[1] == 0:
            return cand
    return None


@dataclass(frozen=True)
class FieldSpec:
    """Degree-2m binary field modulus: q = 2^m, field GF(q^2)."""

    m: int
    modulus: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        deg = poly_deg(self.modulus)
        if deg != 2 * self.m:
            raise ValueError(
                f"modulus degree {deg} does not match 2m = {2 * self.m}"
            )
        if deg > MAX_DEGREE:
            raise ValueError(f"fields beyond GF(2^{MAX_DEGREE}) are unsupported")
        if not self.modulus & 1:
            raise ReducibleModulusError(self.modulus, 0x2)  # divisible by x

    @property
    def degree(self) -> int:
        return 2 * self.m

    @property
    def size(self) -> int:
        return 1 << (2 * self.m)

    def __str__(self) -> str:
        return f"gf2:{self.degree}:{self.modulus:#x}"


NAMED_SPECS = {
    "F4": FieldSpec(1, 0x7),
    "F16": FieldSpec(2, 0x13),
    "F64": FieldSpec(3, 0x5B),
    "F256": FieldSpec(4, 0x11D),
}


def parse_field_spec(text: str) -> FieldSpec:
    """Parse 'gf2:<2m>:<modulus-hex>' or a named alias (F4, F16, F64, F256)."""
    name = text.strip()
    if name.upper() in NAMED_SPECS:
        return NAMED_SPECS[name.upper()]
    parts = name.split(":")
    if len(parts) != 3 or parts[0] != "gf2":
        raise ValueError(
            f"bad field spec {text!r}: expected 'gf2:<2m>:<modulus-hex>' "
            f"or one of {sorted(NAMED_SPECS)}"
        )
    try:
        degree = int(parts[1])
        modulus = int(parts[2], 16)
    except ValueError as exc:
        raise ValueError(f"bad field spec {text!r}: {exc}") from None
    if degree % 2 != 0:
        raise ValueError(f"bad field spec {text!r}: degree {degree} is odd")
    return FieldSpec(degree // 2, modulus)


class FieldCtx:
    """Immutable GF(2^(2m)) context; all operations are pure.

    Safe to share across threads/processes once constructed.
    """

    def __init__(self, spec: FieldSpec):
        factor = find_nontrivial_factor(spec.modulus)
        if factor is not None:
            raise ReducibleModulusError(spec.modulus, factor)
        self.spec = spec
        self.m = spec.m
        self.q = 1 << spec.m
        self.n = 2 * spec.m
        self.size = spec.size
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Shift-and-reduce product, independent of the log tables."""
        return poly_divmod(clmul(a, b), self.spec.modulus)[1]

    def _order_raw(self, z: int) -> int:
        t = self.size - 1
        for p in _prime_factors(self.size - 1):
            while t % p == 0 and _pow_raw(self, z, t // p) == 1:
                t //= p
        return t

    def _build_tables(self):
        n1 = self.size - 1
        self.x_is_generator = self._order_raw(2) == n1
        gen = 2
        if not self.x_is_generator:
            gen = next(z for z in range(3, self.size) if self._order_raw(z) == n1)
            log.info(
                "class of x is not primitive for %s; using generator %#x",
                self.spec, gen,
            )
        self.generator = gen
        exp = [0] * (2 * n1)
        logt = [-1] * self.size
        cur = 1
        for i in range(n1):
            exp[i] = cur
            exp[i + n1] = cur
            logt[cur] = i
            cur = self._mul_raw(cur, gen)
        self.exp = exp
        self.log = logt
        # derived tables: squares, square roots, q-power Frobenius, absolute trace
        sq = [self.mul(z, z) for z in range(self.size)]
        self.sqrt_table = [0] * self.size
        for z, s in enumerate(sq):
            self.sqrt_table[s] = z
        frob = list(range(self.size))
        for _ in range(self.m):
            frob = [sq[z] for z in frob]
        self.frob_table = frob
        tr = []
        for z in range(self.size):
            t, cur = 0, z
            for _ in range(self.n):
                t ^= cur
                cur = sq[cur]
            tr.append(t)
        if any(t not in (0, 1) for t in tr):
            raise AssertionError("absolute trace left GF(2)")
        self.trace2_table = tr
        # numpy views for the batch kernels. Plain attributes, set here: a
        # cached_property would write through __dict__, and under CPython 3.11
        # touching an instance's __dict__ slows every later attribute lookup.
        self.np_frob = np.array(frob, dtype=np.uint16)
        self.np_trace2 = np.array(tr, dtype=np.int8)
        lg = np.array(logt[1:], dtype=np.intp)
        t = np.zeros((self.size, self.size), dtype=np.uint16)
        t[1:, 1:] = np.array(exp, dtype=np.uint16)[lg[:, None] + lg[None, :]]
        self.np_mul = t

    # -- arithmetic ----------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        n1 = self.size - 1
        return self.exp[(n1 - self.log[a]) % n1]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, z: int, e: int) -> int:
        if z == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("0 has no negative powers")
        n1 = self.size - 1
        e %= n1
        return self.exp[(self.log[z] * e) % n1]

    def frob_q(self, z: int) -> int:
        """Relative Frobenius z -> z^q (q = 2^m)."""
        return self.frob_table[z]

    def sqrt(self, z: int) -> int:
        """The unique square root in characteristic 2 (z^(2^(2m-1)))."""
        return self.sqrt_table[z]

    def trace_rel(self, z: int) -> int:
        """Relative trace to the subfield GF(q): z + z^q."""
        return z ^ self.frob_q(z)

    def norm_rel(self, z: int) -> int:
        """Relative norm to GF(q): z * z^q."""
        return self.mul(z, self.frob_q(z))

    def in_subfield(self, z: int) -> bool:
        """True iff z lies in GF(q), i.e. z^q = z."""
        return self.frob_q(z) == z

    # -- element text --------------------------------------------------------

    def format_elem(self, z: int) -> str:
        """Power notation on the verified generator: '0', '1', 'a', 'a^k'."""
        if z == 0:
            return "0"
        if z == 1:
            return "1"
        k = self.log[z]
        return "a" if k == 1 else f"a^{k}"

    def format_elem_poly(self, z: int) -> str:
        """Basis-polynomial notation: bits of z as powers of a, high to low."""
        if z == 0:
            return "0"
        parts = []
        for i in range(z.bit_length() - 1, -1, -1):
            if (z >> i) & 1:
                parts.append("1" if i == 0 else ("a" if i == 1 else f"a^{i}"))
        return " + ".join(parts)

    def parse_elem(self, text: str) -> int:
        """Accepts '0', '1', 'a', 'a^k' (generator powers) and 0x-hex."""
        t = text.strip()
        if t == "0":
            return 0
        if t == "1":
            return 1
        if t.lower().startswith("0x"):
            z = int(t, 16)
        elif t == "a":
            z = self.generator
        elif t.startswith("a^"):
            z = self.pow(self.generator, int(t[2:]))
        else:
            raise ValueError(f"cannot parse field element {text!r}")
        if not 0 <= z < self.size:
            raise ValueError(f"element {text!r} out of range for {self.spec}")
        return z

    def elements(self) -> range:
        return range(self.size)

    def __repr__(self) -> str:
        prim = "a primitive" if self.x_is_generator else "a not primitive"
        return f"FieldCtx({self.spec}, {prim})"


def make_field(spec: FieldSpec) -> FieldCtx:
    """Construct a verified field context; raises ReducibleModulusError."""
    return FieldCtx(spec)


def _pow_raw(ctx: FieldCtx, z: int, e: int) -> int:
    acc = 1
    base = z
    while e:
        if e & 1:
            acc = ctx._mul_raw(acc, base)
        base = ctx._mul_raw(base, base)
        e >>= 1
    return acc


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
