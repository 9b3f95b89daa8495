"""Exact arithmetic in the cyclotomic fields Q(zeta_r).

An element is a residue mod the r-th cyclotomic polynomial Phi_r, stored as
a dense vector of phi(r) rational coefficients (phi = Euler totient), i.e.
a polynomial of degree < phi(r) in zeta_r.  Working mod Phi_r rather than
mod x^r - 1 matters: x^r - 1 has zero divisors, while Q[x]/Phi_r is a
field, so every nonzero element -- in particular every 1 - zeta^b -- is
invertible.

The residue does not pin down which primitive r-th root zeta_r denotes;
any consistent choice gives the same rational answers downstream.  The
float embedding (:meth:`CyclotomicElement.embed`) fixes zeta_r =
exp(2*pi*i/r).

The Dedekind sums themselves do not need this field: they are an integer
cyclic convolution (see :mod:`orbcalc.dedekind`).  This module is the
independent exact oracle for them, :func:`dedekind_sum_cyclotomic`, which
only the tests call.  It imports :mod:`orbcalc.dedekind` for the input
type; no production module imports this one, so ``import orbcalc`` and
the CLI never load it.  Multiplication clears denominators, convolves the
integer vectors in exact big-int arithmetic, then reduces with the
residues x^(phi+t) mod Phi_r, read off the power table because x^r = 1
mod Phi_r; the per-order tables cost O(r^2 * phi(r)), so keep r small.
All values are immutable and all operations are pure functions; the
per-order caches are ``functools.lru_cache``-backed and safe to share
between threads.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .dedekind import DedekindInput, _admissible_roots


class NotRationalError(ArithmeticError):
    """Raised when a cyclotomic element with nonzero zeta-part is read as a rational."""


def euler_phi(r: int) -> int:
    """Euler's totient, by trial-division factorization (r stays desk-sized here)."""
    if r < 1:
        raise ValueError("totient argument must be positive")
    result = r
    n = r
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def _poly_mul(a: list, b: list) -> list:
    """Product of two coefficient lists, of ints or Fractions alike."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """Coefficients of Phi_r (ascending, monic), by recursive exact division.

    Phi_r = (x^r - 1) / prod_{d | r, d < r} Phi_d.  Degree is phi(r).
    Recursion depth and cost are negligible at the orders used here, so the
    Moebius-formula shortcut is not worth its complexity.
    """
    if r < 1:
        raise ValueError("cyclotomic polynomial order must be positive")
    num = [-1] + [0] * (r - 1) + [1]
    den = [Fraction(1)]  # a Fraction divisor keeps the long division exact
    for d in range(1, r):
        if r % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    quot, rem = _frac_poly_divmod(num, den)
    assert not rem, f"x^{r} - 1 not divisible by its proper cyclotomic factors"
    assert len(quot) - 1 == euler_phi(r)
    return tuple(int(c) for c in quot)


class _Field:
    """Per-order tables shared by all elements of Q(zeta_r)."""

    def __init__(self, r: int):
        self.r = r
        self.phi = euler_phi(r)
        self.poly = cyclotomic_polynomial(r)
        # x^phi mod Phi_r, which is all one multiplication by x needs
        self._x_phi = [-c for c in self.poly[:-1]]
        # x^e mod Phi_r for e = 0..r-1, integer vectors, built once
        powers = [[1] + [0] * (self.phi - 1)]
        for _ in range(r - 1):
            powers.append(self._shift_reduce(powers[-1]))
        self.powers = [tuple(p) for p in powers]
        # red_rows[t] = x^(phi+t) mod Phi_r, t = 0..phi-2; x^r = 1 mod Phi_r
        self.red_rows = [self.powers[(self.phi + t) % r] for t in range(self.phi - 1)]
        self._one_minus_inv: list[tuple[int, ...]] | None = None

    def _shift_reduce(self, a: list[int]) -> list[int]:
        out = [0] + a[:-1]
        top = a[-1]
        if top:
            out = [s + top * r0 for s, r0 in zip(out, self._x_phi)]
        return out

    def reduce_ints(self, conv: list[int]) -> list[int]:
        """Reduce an integer coefficient vector of degree <= 2*phi-2 mod Phi_r."""
        phi = self.phi
        if len(conv) <= phi:
            return list(conv) + [0] * (phi - len(conv))
        head = list(conv[:phi])
        for t, c in enumerate(conv[phi:]):
            if c:
                row = self.red_rows[t]
                for i in range(phi):
                    head[i] += c * row[i]
        return head

    def mul_ints(self, a: list[int], b: list[int]) -> list[int]:
        return self.reduce_ints(_poly_mul(a, b))

    def one_minus_root_inverses(self) -> list[tuple[int, ...]]:
        """Numerators of 1/(1 - zeta^s) for s = 1..r-1; the denominator is r.

        For any r-th root of unity x != 1, sum_{k=0}^{r-1} k x^k = r/(x - 1),
        hence 1/(1 - x) = -(1/r) sum_k k x^k.  This builds every denominator
        inverse the Dedekind sum needs from the power table alone, instead of
        one extended-Euclid inversion per root.
        """
        if self._one_minus_inv is None:
            r = self.r
            ks = range(r)
            table = []
            for s in range(1, r):
                rows = [self.powers[(s * k) % r] for k in ks]
                table.append(tuple(-sum(map(mul, ks, col)) for col in zip(*rows)))
            self._one_minus_inv = table
        return self._one_minus_inv


@functools.lru_cache(maxsize=None)
def _field(r: int) -> _Field:
    return _Field(r)


def _common_denominator(coeffs: tuple[Fraction, ...]) -> int:
    return math.lcm(*(c.denominator for c in coeffs))


@dataclass(frozen=True)
class CyclotomicElement:
    """An element of Q(zeta_r): phi(r) rational coefficients mod Phi_r."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        phi = _field(self.order).phi
        if len(self.coeffs) != phi:
            raise ValueError(
                f"Q(zeta_{self.order}) elements need exactly {phi} coefficients, "
                f"got {len(self.coeffs)}"
            )
        if not all(type(c) is Fraction for c in self.coeffs):
            object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, r: int, value: int | Fraction) -> "CyclotomicElement":
        phi = _field(r).phi
        return cls(r, (Fraction(value),) + (Fraction(0),) * (phi - 1))

    @classmethod
    def zero(cls, r: int) -> "CyclotomicElement":
        return cls.from_rational(r, 0)

    @classmethod
    def one(cls, r: int) -> "CyclotomicElement":
        return cls.from_rational(r, 1)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Fraction:
        """The constant value of a rational element.

        Raises :class:`NotRationalError` if any zeta-coefficient survives
        reduction mod Phi_r.  Downstream (the Dedekind sum) this firing
        would indicate an arithmetic bug, never a valid outcome.
        """
        if not self.is_rational():
            raise NotRationalError(f"cyclotomic element not rational: {self}")
        return self.coeffs[0]

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "CyclotomicElement | None":
        if isinstance(other, CyclotomicElement):
            if other.order != self.order:
                raise ValueError(
                    "incompatible cyclotomic fields: "
                    f"Q(zeta_{self.order}) vs Q(zeta_{other.order})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.from_rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(
            self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fd = _field(self.order)
        if self.is_rational() or o.is_rational():
            a, b = (self, o) if self.is_rational() else (o, self)
            c = a.coeffs[0]
            return CyclotomicElement(self.order, tuple(c * x for x in b.coeffs))
        da = _common_denominator(self.coeffs)
        db = _common_denominator(o.coeffs)
        ia = [int(c * da) for c in self.coeffs]
        ib = [int(c * db) for c in o.coeffs]
        prod = fd.mul_ints(ia, ib)
        den = da * db
        return CyclotomicElement(self.order, tuple(Fraction(c, den) for c in prod))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        """Multiplicative inverse, by the extended Euclidean algorithm against Phi_r."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if self.is_rational():
            return CyclotomicElement.from_rational(self.order, 1 / self.coeffs[0])
        fd = _field(self.order)
        modulus = [Fraction(c) for c in fd.poly]
        u = _modular_inverse_poly([Fraction(c) for c in self.coeffs], modulus)
        u = u + [Fraction(0)] * (fd.phi - len(u))
        return CyclotomicElement(self.order, tuple(u[: fd.phi]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- float oracle ------------------------------------------------------

    def embed(self) -> complex:
        """Embed at zeta_r = exp(2*pi*i/r) in double precision (test oracle only)."""
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(float(c) * z**k for k, c in enumerate(self.coeffs))

    def __str__(self):
        sym = f"z{self.order}"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = str(c) if k == 0 else (f"{c}*{sym}" if k == 1 else f"{c}*{sym}^{k}")
            parts.append(term)
        return " + ".join(parts) if parts else "0"


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    while den and den[-1] == 0:
        den = den[:-1]
    dd = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dd, 0)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] / lead
        if c:
            quot[k - dd] = c
            for i, d in enumerate(den):
                num[k - dd + i] -= c * d
    rem = num[:dd]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _modular_inverse_poly(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    # returns u with u*a = 1 mod modulus; modulus irreducible, a nonzero
    r0, r1 = modulus, [c for c in a]
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while any(c != 0 for c in r1):
        q, rem = _frac_poly_divmod(r0, r1)
        r0, r1 = r1, rem
        qt1 = _poly_mul(q, t1)
        t0, t1 = t1, _frac_poly_sub(t0, qt1)
    # r0 is now a nonzero constant gcd
    g = r0[0]
    return [c / g for c in t0]


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    out = [x - y for x, y in zip(a, b)]
    while out and out[-1] == 0:
        out.pop()
    return out


def root_of_unity(r: int, e: int) -> CyclotomicElement:
    """zeta_r^e as a reduced residue; depends on e only through e mod r."""
    fd = _field(r)
    coeffs = fd.powers[e % r]
    return CyclotomicElement(r, tuple(Fraction(c) for c in coeffs))


def one_minus_root_inverse(r: int, s: int) -> CyclotomicElement:
    """The inverse of 1 - zeta_r^s, for s not divisible by r.

    Backed by a per-order table (see :meth:`_Field.one_minus_root_inverses`);
    agreement with the generic extended-Euclid inverse is property-tested.
    """
    s %= r
    if s == 0:
        raise ZeroDivisionError("division by zero in cyclotomic field: 1 - zeta^0 = 0")
    fd = _field(r)
    numer = fd.one_minus_root_inverses()[s - 1]
    return CyclotomicElement(r, tuple(Fraction(c, r) for c in numer))


def dedekind_sum_cyclotomic(inp: DedekindInput) -> Fraction:
    """The Dedekind root sum evaluated exactly in Q(zeta_r): a test oracle.

    Each term is the power vector of zeta^(index*j) multiplied by the scaled
    numerators r/(1 - zeta^(j*b_t)), so every factor carries denominator r
    and the whole sum shares the denominator r^(len(weights) + 1), divided
    out once at the end.  The field tables cost O(r^2 * phi(r)) in pure
    Python, so keep r small.
    """
    r = inp.r
    roots = _admissible_roots(inp)
    if not roots:
        return Fraction(0)
    field = _field(r)
    inverses = field.one_minus_root_inverses()
    acc = [0] * field.phi
    for j in roots:
        vec = list(field.powers[(inp.index * j) % r])
        for b in inp.weights:
            vec = field.mul_ints(vec, list(inverses[(j * b) % r - 1]))
        for t, c in enumerate(vec):
            acc[t] += c
    total = CyclotomicElement(r, tuple(Fraction(c) for c in acc))
    return total.to_rational() / r ** (len(inp.weights) + 1)
