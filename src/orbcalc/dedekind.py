"""Higher Dedekind sums, evaluated exactly by an integer cyclic convolution.

The i-th Dedekind sum of weight data (b_1, ..., b_m) at order r is

    sigma_i(1/r(b_1,...,b_m))
        = (1/r) * sum_{eps} eps^i / ((1 - eps^{b_1}) ... (1 - eps^{b_m})),

the sum running over the r-th roots of unity eps for which every factor in
the denominator is nonzero, i.e. eps^{b_t} != 1 for all t.  Writing
eps = zeta^j, root j is admissible iff j*b_t is not divisible by r for any
t; j = 0 is never admissible.

:func:`dedekind_sum` needs no field arithmetic.  This is the
Fourier-Dedekind lattice-count route of Beck, Diaz and Robins ("The
Frobenius problem, rational polytopes, and Fourier-Dedekind sums",
J. Number Theory 96 (2002); Beck and Robins, *Computing the Continuous
Discretely*, ch. 8).  For each weight b let g = gcd(b, r) and define the
integer vector of length r

    C_b[s] = (r - 1) * g * [g | s]  -  2 * sum_{0 <= k < r, b*k = s (mod r)} k.

Then

    sigma_i(1/r(b_1,...,b_m)) = (C_{b_1} * ... * C_{b_m})[-i mod r] / (2r)^m,

where * is cyclic convolution mod r.  Why: for a root x != 1,
1/(1 - x) = -(1/r) * sum_k k x^k.  Writing the admissibility indicator
1 - [r | j*b] as the character sum 1 - (g/r) * sum_{g | s} zeta^(j*s) makes
the j-th factor (1/2r) * sum_s C_b[s] zeta^(j*s) for every j, dead roots
and j = 0 included, since it vanishes exactly there.  Orthogonality of the
characters then collapses the sum over all j to one entry of the
convolution.  m <= 2 costs one O(r) dot product at the target entry.  For
m >= 3 the first m - 1 vectors are convolved pairwise, level by level,
before that dot product; each convolution is one big-integer product
(:func:`_convolve`), which CPython multiplies in C by Karatsuba's method.
Memory is O(m * r) words, and the value's denominator (2r)^m grows with
every weight.

A weight divisible by r gives C_b = 0, so the sum is empty and the value
is 0 by convention; callers that need the geometric coprimality
conditions enforce them at their own layer.

Two independent routes serve as oracles and nothing else:
:func:`dedekind_sum_float_oracle` runs the root sum in complex doubles
(``orbcalc dedekind --oracle``) and refuses sums it cannot hold to 1e-9,
and the test suite's ``tests/cyclotomic_oracle.py`` runs it exactly in
Q(zeta_r); the package does not ship it.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul

FLOAT_ORACLE_MAX_ORDER = 10**4
FLOAT_ORACLE_MAX_ERROR = 1e-9

# Refuse sums whose estimated work (r for m <= 2, (m - 2) * r^2 for m >= 3)
# exceeds this: the largest accepted input, two coprime weights at r = 10^6,
# takes about 0.6 s and 80 MB peak RSS on a 2-core x86-64 host under
# CPython 3.11.7; three weights at r = 1000 take about 3 ms.
MAX_WORK = 10**6

# Refuse sums with B = m * (2r).bit_length() over this too: the denominator
# (2r)^m is below 2^B and the numerator, a convolution entry of m vectors with
# |C_b[s]| < r, below r^(2m - 1) < 2^(2B), so both print in under 4216 digits
# (CPython 3.11+ allows 4300).  m <= 4 within MAX_WORK has B <= 42; the
# slowest sums both limits accept, 1042 to 1166 weights at r = 28 to 31, take
# about 0.13 s on the host above.
MAX_BITS = 7000


@dataclass(frozen=True)
class DedekindInput:
    """Order r, weights reduced into [0, r), and the index i reduced mod r."""

    r: int
    weights: tuple[int, ...]
    index: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("Dedekind sum order r must be >= 1")
        if len(self.weights) < 1:
            raise ValueError("Dedekind sum needs at least one weight")
        object.__setattr__(self, "weights", tuple(b % self.r for b in self.weights))
        object.__setattr__(self, "index", self.index % self.r)


def _weight_vector(b: int, r: int) -> array:
    """C_b as an int64 array (|C_b[s]| <= r): 8 bytes an entry, a list takes ~36.

    With q = r/g and u the inverse of b/g mod q, the k solving b*k = g*s
    (mod r) are k0 + q*t for t < g, where k0 = s*u mod q; summing them
    turns the defining formula into C_b[g*s] = g * (q - 1 - 2*k0).
    """
    g = math.gcd(b, r)
    q = r // g
    vec = array("q", bytes(8 * r))
    if q > 1:
        u = pow(b // g, -1, q)
        vec[::g] = array("q", [g * (q - 1 - 2 * (s * u % q)) for s in range(q)])
    return vec


def _cyclic_entry(a, c, t: int) -> int:
    """(a * c)[t] = sum_s a[s] * c[(t - s) mod r], as one C-level dot product."""
    return sum(map(mul, a, chain(c[t::-1], c[:t:-1])))


def _convolve(a, c) -> list[int]:
    """Every entry of the cyclic convolution a * c, by one big-integer product.

    Kronecker substitution: at w bytes a slot, a vector v of length r packs
    into the integer sum_s v[s] * 2^(8ws).  A slot holds every input entry
    and every output entry (at most r * max|a| * max|c|) with a sign bit.
    The product of the two packed integers holds the linear convolution;
    since 2^(8wr) = 1 modulo M = 2^(8wr) - 1, reducing it modulo M folds slot
    t + r onto slot t.  A vector whose slots all lie strictly inside the sign
    bit packs to an integer of absolute value below M / 2, so the packed
    cyclic convolution is the residue nearest 0.  Biasing each slot by
    2^(8w - 1) makes it non-negative, so the residue's bytes are its slots.
    """
    r = len(a)
    top_a, top_c = max(map(abs, a)), max(map(abs, c))
    w = max(top_a, top_c, r * top_a * top_c).bit_length() // 8 + 1
    bias = 1 << (8 * w - 1)
    biases = int.from_bytes((bytes(w - 1) + b"\x80") * r, "little")

    def pack(v) -> int:
        slots = b"".join((x + bias).to_bytes(w, "little") for x in v)
        return int.from_bytes(slots, "little") - biases

    n = 8 * w * r
    modulus = (1 << n) - 1
    folded = pack(a) * pack(c)
    # |product| < 2^(2n) / 4, so two folds bring it into [-1, modulus + 1]
    for _ in range(2):
        folded = (folded & modulus) + (folded >> n)
    if folded > modulus >> 1:
        folded -= modulus
    raw = (folded + biases).to_bytes(w * r, "little")
    return [int.from_bytes(raw[k : k + w], "little") - bias for k in range(0, w * r, w)]


def _product(vectors: list) -> list:
    """Cyclic convolution of all the vectors, pairing neighbours level by level.

    Each level halves the count, so every product multiplies two operands of
    about the same width; folding left to right would instead pack each small
    vector at the accumulator's growing width.
    """
    while len(vectors) > 1:
        pairs = [_convolve(a, c) for a, c in zip(vectors[::2], vectors[1::2])]
        vectors = vectors[2 * len(pairs) :] + pairs
    return vectors[0]


def dedekind_sum(inp: DedekindInput) -> Fraction:
    """Exact value of sigma_index(1/r(weights)); 0 when no root is admissible.

    Raises ValueError, before allocating anything, when the estimated work
    exceeds :data:`MAX_WORK` or m * (2r).bit_length() exceeds :data:`MAX_BITS`.
    """
    r, m = inp.r, len(inp.weights)
    work = r if m <= 2 else (m - 2) * r * r
    bits = m * (2 * r).bit_length()
    for name, need, limit in (("work", work, MAX_WORK), ("bits", bits, MAX_BITS)):
        if need > limit:
            raise ValueError(
                f"Dedekind sum at r={r} with {m} weights needs {name} {need}, "
                f"over the limit {limit}"
            )
    vectors = [_weight_vector(b, r) for b in inp.weights]
    target = -inp.index % r
    if m == 1:
        numer = vectors[0][target]
    else:
        numer = _cyclic_entry(_product(vectors[:-1]), vectors[-1], target)
    return Fraction(numer, (2 * r) ** m)


def sigma(r: int, weights: tuple[int, ...] | list[int], index: int) -> Fraction:
    """Convenience wrapper: sigma_index(1/r(weights))."""
    return dedekind_sum(DedekindInput(r, tuple(weights), index))


def dedekind_sum_float_oracle(inp: DedekindInput) -> float:
    """The same sum in complex double precision, refused unless within 1e-9.

    Independent verification path for the exact evaluator.  Angles are
    reduced modulo r in integers, and each factor is written as
    1 - zeta^k = -2i * sin(pi*k/r) * exp(i*pi*k/r) with k in (-r/2, r/2], so
    it keeps full relative precision where 1 - zeta^k itself would cancel.

    Error bound, in units u = 2^-53, for m weights: an angle pi*k/r carries
    relative error at most 2.35u (pi, one product, one quotient); a unit
    root exp(i*theta), at most 10.3u; a factor, 12u, and dividing by it 5u
    more.  A term thus carries relative error at most 17(m + 3)u, and
    math.fsum adds one rounding, so the value is within 9(m + 3) * 2^-52 *
    S / r of the exact sum, S being the sum of the terms' moduli.  The oracle
    refuses, with ValueError, when 16(m + 3) * 2^-52 * S / r (a factor 1.8
    for a libm or complex division less exact than assumed) exceeds
    :data:`FLOAT_ORACLE_MAX_ERROR` or a term is not finite (dividing by the
    factors overflows), and refuses orders past
    :data:`FLOAT_ORACLE_MAX_ORDER`, which bounds its O(m * r) time.
    """
    r, m = inp.r, len(inp.weights)
    if r > FLOAT_ORACLE_MAX_ORDER:
        raise ValueError(
            f"float oracle limited to r <= {FLOAT_ORACLE_MAX_ORDER} (got r={r})"
        )

    def angle(k: int) -> float:
        """pi * k / r, with k reduced into (-r/2, r/2]."""
        k %= r
        return math.pi * (k - r if 2 * k > r else k) / r

    terms = []
    size = 0.0
    for j in range(1, r):
        if all(j * b % r for b in inp.weights):
            term = cmath.exp(2j * angle(j * inp.index))
            for b in inp.weights:
                half = angle(j * b)
                term /= -2j * math.sin(half) * cmath.exp(1j * half)
            terms.append(term)
            size += abs(term)
    bound = 16 * (m + 3) * 2.0**-52 * size / r if math.isfinite(size) else math.inf
    if bound > FLOAT_ORACLE_MAX_ERROR:
        raise ValueError(
            f"float oracle limited to error bound <= {FLOAT_ORACLE_MAX_ERROR:g} "
            f"(got {bound:.3g} at r={r} with {m} weights)"
        )
    imag = math.fsum(t.imag for t in terms) / r
    if abs(imag) >= FLOAT_ORACLE_MAX_ERROR:
        raise ArithmeticError(
            f"float Dedekind sum has non-negligible imaginary part {imag:g}"
        )
    return math.fsum(t.real for t in terms) / r
