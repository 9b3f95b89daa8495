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
convolution.  m <= 2 costs one O(r) dot product at the target entry,
m >= 3 costs (m - 2) full O(r^2) convolutions first; memory is O(m * r),
and the value's denominator (2r)^m grows with every weight.

A weight divisible by r gives C_b = 0, so the sum is empty and the value
is 0 by convention; callers that need the geometric coprimality
conditions enforce them at their own layer.

Two independent routes serve as oracles and nothing else:
:func:`dedekind_sum_float_oracle` runs the root sum in complex doubles
(``orbcalc dedekind --oracle``), and the test suite's
``tests/cyclotomic_oracle.py`` runs it exactly in Q(zeta_r); the package
does not ship it.
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

# Refuse sums whose estimated work (r for m <= 2, (m - 2) * r^2 for m >= 3)
# exceeds this: the largest accepted input, two coprime weights at r = 10^6,
# takes about 0.6 s and 80 MB peak RSS on a 2-core x86-64 host under
# CPython 3.11.7; three weights at r = 1000 take about 0.1 s.
MAX_WORK = 10**6

# Refuse sums with B = m * (2r).bit_length() over this too: the denominator
# (2r)^m is below 2^B and the numerator, a convolution entry of m vectors with
# |C_b[s]| < r, below r^(2m - 1) < 2^(2B), so both print in under 4216 digits
# (CPython 3.11+ allows 4300).  m <= 4 within MAX_WORK has B <= 42; 1042 weights
# at r = 31, the slowest sum both limits accept, take 0.4-0.7 s.
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
    """Every entry of the cyclic convolution a * c.

    Lists, not arrays: an array read boxes a fresh int per element, which
    makes this O(r^2) loop about 45% slower.
    """
    a, c = list(a), list(c)
    return [_cyclic_entry(a, c, t) for t in range(len(c))]


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
    acc = vectors[0]
    for c in vectors[1:-1]:
        acc = _convolve(acc, c)
    target = -inp.index % r
    numer = acc[target] if m == 1 else _cyclic_entry(acc, vectors[-1], target)
    return Fraction(numer, (2 * r) ** m)


def sigma(r: int, weights: tuple[int, ...] | list[int], index: int) -> Fraction:
    """Convenience wrapper: sigma_index(1/r(weights))."""
    return dedekind_sum(DedekindInput(r, tuple(weights), index))


def dedekind_sum_float_oracle(inp: DedekindInput) -> float:
    """The same sum in complex double precision at zeta = exp(2*pi*i/r).

    Independent verification path for the exact evaluator; refuses orders
    past 10^4 where float drift would make the 1e-9 imaginary-part budget
    meaningless.
    """
    if inp.r > FLOAT_ORACLE_MAX_ORDER:
        raise ValueError(
            f"float oracle limited to r <= {FLOAT_ORACLE_MAX_ORDER} (got r={inp.r})"
        )
    r = inp.r
    roots = [j for j in range(r) if all(j * b % r for b in inp.weights)]
    if not roots:
        return 0.0
    total = 0j
    for j in roots:
        eps = cmath.exp(2j * cmath.pi * j / r)
        denom = 1 + 0j
        for b in inp.weights:
            denom *= 1 - cmath.exp(2j * cmath.pi * ((j * b) % r) / r)
        total += eps ** inp.index / denom
    total /= r
    if abs(total.imag) >= 1e-9:
        raise ArithmeticError(
            f"float Dedekind sum has non-negligible imaginary part {total.imag:g}"
        )
    return total.real
