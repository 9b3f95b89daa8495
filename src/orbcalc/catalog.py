"""Registry of surface quotient singularities and their exact invariants.

Two kinds of types are supported:

* ``CyclicQuotient(r, b1, b2)`` -- the cyclic quotient C^2/(Z/r) acting by
  (z1, z2) -> (zeta^b1 z1, zeta^b2 z2), weights coprime to r (isolated
  singularity).  Weights are reduced mod r and stored sorted ascending, so
  equal types compare equal under weight permutation.
* ``ADE(family, index)`` -- the canonical (du Val) classes A_k, D_k
  (k >= 4), E_6, E_7, E_8.

For each type the registry knows the order n of the local fundamental
group, the Hirzebruch-Riemann-Roch correction term mu for the
anticanonical bundle (and for K^2 on the canonical types), and the Milnor
number.  Anticanonical corrections come from two independent routes that
the test suite plays against each other:

* closed forms for the canonical types: 12*mu(A_k) = (k+1) - 1/(k+1) and
  12*mu(D_4) = 39/8;
* the Dedekind-sum rule for cyclic quotients: mu = sigma_{r+k} with
  k = -(b1 + b2), indices mod r.

Deliberately, ``CyclicQuotient(k+1, 1, k)`` is *not* collapsed to ``A_k``:
keeping the two derivation paths distinct is what makes the cross-check
meaningful.

Anticanonical corrections for D_k (k > 4) and the E series are not
tabulated in our sources; asking for them raises
:class:`NotTabulatedError` rather than extrapolating.  The Milnor number
of a quotient type is derived from the per-point ledger identity
12*mu(K^-1) = (1 - 1/n) + nu, which reproduces the classical integers
(A_k -> k, D_4 -> 4) on the canonical types.  :func:`ledger_row` derives
each type's row (1 - 1/n, nu, 12*mu(K^-1)) once, as integer numerators
over the row's least common denominator, and caches it; it is the only
place nu is computed.  :func:`scaled_ledger_rows` puts several distinct
types' rows over one common denominator, so that ledger sums and energy
budgets become integer dot products; :func:`ledger_terms` gives one row as
Fractions.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .dedekind import sigma


class NotTabulatedError(LookupError):
    """An invariant the sources do not provide; we refuse to fabricate it."""


class SingularityParseError(ValueError):
    """Malformed singularity notation; carries the offending token and byte offset."""

    def __init__(self, token: str, offset: int):
        self.token = token
        self.offset = offset
        super().__init__(f"cannot parse singularity {token!r} at byte offset {offset}")


@dataclass(frozen=True)
class ADE:
    family: str  # "A" | "D" | "E"
    index: int

    def __post_init__(self):
        if self.family not in ("A", "D", "E"):
            raise ValueError(f"unknown ADE family {self.family!r}")
        if self.family == "A" and self.index < 1:
            raise ValueError("A_k requires k >= 1")
        if self.family == "D" and self.index < 4:
            raise ValueError("D_k requires k >= 4")
        if self.family == "E" and self.index not in (6, 7, 8):
            raise ValueError("E_k requires k in {6, 7, 8}")


@dataclass(frozen=True)
class CyclicQuotient:
    r: int
    b1: int
    b2: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("cyclic quotient order r must be >= 2")
        w = sorted((self.b1 % self.r, self.b2 % self.r))
        if any(math.gcd(b, self.r) != 1 for b in w):
            raise ValueError(
                f"weights of 1/{self.r}({self.b1},{self.b2}) must be coprime to {self.r}"
            )
        object.__setattr__(self, "b1", w[0])
        object.__setattr__(self, "b2", w[1])


SingularityType = Union[ADE, CyclicQuotient]


def group_order(s: SingularityType) -> int:
    """Order of the local fundamental group: r for 1/r(b1,b2); |binary group| for ADE."""
    if isinstance(s, CyclicQuotient):
        return s.r
    if s.family == "A":
        return s.index + 1
    if s.family == "D":
        return 4 * (s.index - 2)
    return {6: 24, 7: 48, 8: 120}[s.index]


@functools.cache
def mu_anticanonical(s: SingularityType) -> Fraction:
    """HRR correction term mu(K^-1) at the singularity, exact.

    Canonical types use the tabulated closed forms; cyclic quotients go
    through the Dedekind-sum rule mu = sigma_{r+k}(1/r(b1,b2)) with
    k = -(b1+b2).
    """
    if isinstance(s, CyclicQuotient):
        k = (-(s.b1 + s.b2)) % s.r
        return sigma(s.r, (s.b1, s.b2), s.r + k)
    if s.family == "A":
        n = s.index + 1
        return (Fraction(n) - Fraction(1, n)) / 12
    if s.family == "D" and s.index == 4:
        return Fraction(39, 8) / 12
    raise NotTabulatedError(
        f"anticanonical correction term not tabulated in source for {format_singularity(s)}"
    )


def mu_canonical_square(s: SingularityType) -> Fraction:
    """HRR correction term mu(K^2), tabulated for the canonical (ADE) types only."""
    if isinstance(s, CyclicQuotient):
        raise NotTabulatedError(
            "K^2 correction not given in source for non-canonical types"
        )
    n = s.index
    if s.family == "A":
        twelve = Fraction(n + 1) - Fraction(1, n + 1)
    elif s.family == "D":
        twelve = Fraction(n + 1) - Fraction(1, 4 * (n - 2))
    else:
        twelve = {
            6: Fraction(7) - Fraction(1, 24),
            7: Fraction(8) - Fraction(1, 48),
            8: Fraction(9) - Fraction(1, 120),
        }[n]
    return twelve / 12


@functools.cache
def ledger_row(s: SingularityType) -> tuple[int, int, int, int]:
    """One type's row of the Milnor ledger in integers: ``(D, o, nu, t)``.

    ``o/D = 1 - 1/n``, ``nu/D`` is the Milnor number and ``t/D = 12*mu(K^-1)``,
    with ``D`` the least common denominator of the three.  nu comes from the
    per-point identity nu = 12*mu(K^-1) - (1 - 1/n).  Types with no
    tabulated anticanonical correction raise :class:`NotTabulatedError`.
    """
    twelve_mu = 12 * mu_anticanonical(s)
    n = group_order(s)
    den = math.lcm(n, twelve_mu.denominator)
    one_minus = (n - 1) * (den // n)
    twelve = twelve_mu.numerator * (den // twelve_mu.denominator)
    return den, one_minus, twelve - one_minus, twelve


@functools.lru_cache(maxsize=1024)
def scaled_ledger_rows(
    types: tuple[SingularityType, ...],
) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The types' :func:`ledger_row` rows over one denominator: ``(L, ((o, nu, t), ...))``.

    ``L`` is the least common multiple of the rows' denominators (1 for no
    types); each row's numerators are rescaled to it, in input order.
    Cached by the tuple of distinct types, of which a degree's search meets
    at most a few hundred.
    """
    rows = [ledger_row(s) for s in types]
    scale = math.lcm(*(row[0] for row in rows))
    scaled = []
    for den, one_minus, nu, twelve in rows:
        factor = scale // den
        scaled.append((one_minus * factor, nu * factor, twelve * factor))
    return scale, tuple(scaled)


def ledger_terms(s: SingularityType) -> tuple[Fraction, Fraction, Fraction]:
    """One type's :func:`ledger_row` as Fractions: ``(1 - 1/n, nu, 12*mu(K^-1))``."""
    den, one_minus, nu, twelve = ledger_row(s)
    return Fraction(one_minus, den), Fraction(nu, den), Fraction(twelve, den)


def milnor_number(s: SingularityType) -> Fraction:
    """Milnor number nu, read from the type's :func:`ledger_terms` row."""
    return ledger_terms(s)[1]


def sort_key(s: SingularityType):
    """Canonical ordering: A_k, D_k, E_k ascending, then cyclic by (r, b1, b2)."""
    if isinstance(s, ADE):
        return (0, "ADE".index(s.family), s.index, 0)
    return (1, s.r, s.b1, s.b2)


def format_singularity(s: SingularityType) -> str:
    if isinstance(s, ADE):
        return f"{s.family}{s.index}"
    return f"1/{s.r}({s.b1},{s.b2})"


#: most points one singularity list may name; every configuration inside a
#: degree's energy budget has at most 14
MAX_POINTS = 1000

_ADE_RE = re.compile(r"^([ADE])(\d+)$")
_CYCLIC_RE = re.compile(r"^1/(\d+)\((-?\d+),(-?\d+)\)$")
_MULT_RE = re.compile(r"^(\d+)[xX](.*)$")


def parse_singularity(text: str, offset: int = 0) -> SingularityType:
    """Parse one type: ``"A3"``, ``"D4"``, ``"E7"`` or ``"1/8(1,3)"``."""
    token = "".join(text.split())
    m = _ADE_RE.match(token)
    try:
        if m:
            return ADE(m.group(1), int(m.group(2)))
        m = _CYCLIC_RE.match(token)
        if m:
            return CyclicQuotient(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    except ValueError:
        raise SingularityParseError(text.strip(), offset) from None
    raise SingularityParseError(text.strip(), offset)


def _split_top_level(text: str) -> list[tuple[str, int]]:
    # split on commas outside parentheses, keeping each piece's byte offset

    def unbalanced(segment: str, start: int) -> SingularityParseError:
        pad = len(segment) - len(segment.lstrip())
        return SingularityParseError(segment.strip(), start + pad)

    items: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise unbalanced(text[start : i + 1], start)
        elif ch == "," and depth == 0:
            items.append((text[start:i], start))
            start = i + 1
    if depth != 0:
        raise unbalanced(text[start:], start)
    items.append((text[start:], start))
    return items


def parse_singularity_list(text: str) -> tuple[SingularityType, ...]:
    """Parse a comma-separated multiset like ``"A8, 2x 1/9(1,2)"``.

    Each item is ``[Nx ]TYPE``; whitespace is insignificant and blank
    segments are skipped.  Returns the multiset with multiplicities
    expanded, in canonical order.  A list naming more than
    :data:`MAX_POINTS` points raises ``ValueError`` before it is expanded.
    """
    out: list[SingularityType] = []
    for raw, offset in _split_top_level(text):
        item = "".join(raw.split())
        if not item:
            continue
        offset += len(raw) - len(raw.lstrip())
        count = 1
        m = _MULT_RE.match(item)
        if m:
            count = int(m.group(1))
            rest = m.group(2)
            if count < 1 or not rest:
                raise SingularityParseError(raw.strip(), offset)
            item = rest
        s = parse_singularity(item, offset)
        if len(out) + count > MAX_POINTS:
            raise ValueError(f"singularity list names more than {MAX_POINTS} points")
        out.extend([s] * count)
    return tuple(sorted(out, key=sort_key))


def format_counts(counts: Mapping[SingularityType, int]) -> str:
    """``"Nx TYPE"`` notation for a type -> count map with keys in :func:`sort_key` order."""
    return ", ".join(
        format_singularity(s) if c == 1 else f"{c}x {format_singularity(s)}"
        for s, c in counts.items()
    )


def format_singularity_list(sings) -> str:
    """Inverse of :func:`parse_singularity_list`, grouping repeats as ``"Nx TYPE"``."""
    counts = Counter(sings)
    return format_counts({s: counts[s] for s in sorted(counts, key=sort_key)})
