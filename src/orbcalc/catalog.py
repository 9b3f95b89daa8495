"""Registry of surface quotient singularities and their exact invariants.

Two kinds of types are supported:

* ``CyclicQuotient(r, b1, b2)`` -- the cyclic quotient C^2/(Z/r) acting by
  (z1, z2) -> (zeta^b1 z1, zeta^b2 z2), weights coprime to r (isolated
  singularity).  Each type is stored in the normal form 1/r(1, q) with
  q = b2 * b1^-1 mod r replaced by min(q, q*), where q * q* = 1 mod r:
  two cyclic quotients are isomorphic exactly when their q agree up to
  q <-> q* (Riemenschneider, Math. Ann. 209 (1974)), so isomorphic types
  compare equal, whatever weights name them.
* ``ADE(family, index)`` -- the canonical (du Val) classes A_k, D_k
  (k >= 4), E_6, E_7, E_8.

For each type the registry knows the order n of the local fundamental
group, the Hirzebruch-Riemann-Roch correction term mu for the
anticanonical bundle (and for K^2 on the canonical types), and the Milnor
number.  Anticanonical corrections come from two independent routes that
the test suite plays against each other:

* one closed form for the canonical types, 12*mu = k + 1 - 1/|G| (index k,
  group order |G|): K^2 for every ADE type, K^-1 for A_k and D_4 only;
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
place nu is computed.  ``invariants.TypeTable`` puts several distinct
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
from .rationals import MAX_DIGITS


class NotTabulatedError(LookupError):
    """An invariant the sources do not provide; we refuse to fabricate it."""


class SingularityParseError(ValueError):
    """Malformed singularity notation; carries the offending token and UTF-8 byte offset."""

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
        r = self.r
        if r < 2:
            raise ValueError("cyclic quotient order r must be >= 2")
        if math.gcd(self.b1, r) != 1 or math.gcd(self.b2, r) != 1:
            raise ValueError(f"weights of 1/{r}({self.b1},{self.b2}) must be coprime to {r}")
        # 1/r(b1,b2) is 1/r(1,q) with q = b2/b1 mod r, and 1/r(1,q) is 1/r(1,q*)
        q = self.b2 * pow(self.b1, -1, r) % r
        object.__setattr__(self, "b1", 1)
        object.__setattr__(self, "b2", min(q, pow(q, -1, r)))


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

    A_k and D_4 take the canonical types' closed form, the value of
    :func:`mu_canonical_square`; cyclic quotients go through the
    Dedekind-sum rule mu = sigma_{r+k}(1/r(b1,b2)) with k = -(b1+b2).
    """
    if isinstance(s, CyclicQuotient):
        k = (-(s.b1 + s.b2)) % s.r
        return sigma(s.r, (s.b1, s.b2), s.r + k)
    if s.family == "A" or (s.family == "D" and s.index == 4):
        return mu_canonical_square(s)
    raise NotTabulatedError(
        f"anticanonical correction term not tabulated in source for {format_singularity(s)}"
    )


def mu_canonical_square(s: SingularityType) -> Fraction:
    """HRR correction term mu(K^2), for the canonical (ADE) types only: 12*mu = k + 1 - 1/|G|."""
    if isinstance(s, CyclicQuotient):
        raise NotTabulatedError(
            "K^2 correction not given in source for non-canonical types"
        )
    return (s.index + 1 - Fraction(1, group_order(s))) / 12


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

#: most digits the group orders of a list's distinct types may total.  Their
#: product P is a common denominator of the list's sums; a printed numerator is
#: a few terms, each at most a literal or order (MAX_DIGITS + 1 digits) times
#: the point count (4 digits) times P: under 4 * MAX_DIGITS + 7 < 4300 digits.
MAX_ORDER_DIGITS = 3 * MAX_DIGITS

_NUMBER = rf"\d{{1,{MAX_DIGITS}}}"
_ADE_RE = re.compile(rf"^([ADE])({_NUMBER})$")
_CYCLIC_RE = re.compile(rf"^1/({_NUMBER})\((-?{_NUMBER}),(-?{_NUMBER})\)$")
_MULT_RE = re.compile(r"^(\d+)[xX](.*)$")


def parse_singularity(text: str, offset: int = 0) -> SingularityType:
    """Parse one type: ``"A3"``, ``"D4"``, ``"E7"`` or ``"1/8(1,3)"``.

    A number of more than :data:`~orbcalc.rationals.MAX_DIGITS` digits does
    not parse.
    """
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


def _utf8_len(text: str) -> int:
    # undecodable argv bytes arrive as U+DC80..U+DCFF and count one byte each
    return len(text.encode("utf-8", "surrogateescape"))


def _split_top_level(text: str) -> list[tuple[str, int]]:
    # split on commas outside parentheses, keeping the UTF-8 byte offset of
    # each piece's first non-blank character

    def piece(segment: str, start: int) -> tuple[str, int]:
        return segment, start + _utf8_len(segment) - _utf8_len(segment.lstrip())

    def unbalanced(segment: str, start: int) -> SingularityParseError:
        return SingularityParseError(segment.strip(), piece(segment, start)[1])

    items: list[tuple[str, int]] = []
    depth = 0
    start = start_byte = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise unbalanced(text[start : i + 1], start_byte)
        elif ch == "," and depth == 0:
            items.append(piece(text[start:i], start_byte))
            start_byte += _utf8_len(text[start:i]) + 1
            start = i + 1
    if depth != 0:
        raise unbalanced(text[start:], start_byte)
    items.append(piece(text[start:], start_byte))
    return items


def parse_singularity_list(text: str) -> tuple[SingularityType, ...]:
    """Parse a comma-separated multiset like ``"A8, 2x 1/9(1,2)"``.

    Each item is ``[Nx ]TYPE``; whitespace is insignificant and blank
    segments are skipped.  Returns the multiset with multiplicities
    expanded, in canonical order.  A list naming more than
    :data:`MAX_POINTS` points raises ``ValueError`` before it is expanded; so
    does one whose distinct group orders total over :data:`MAX_ORDER_DIGITS` digits.
    """
    out: list[SingularityType] = []
    for raw, offset in _split_top_level(text):
        item = "".join(raw.split())
        if not item:
            continue
        count = 1
        m = _MULT_RE.match(item)
        if m:
            digits = m.group(1).lstrip("0") or "0"
            # more digits than MAX_POINTS is more points, and may be too many for int()
            count = int(digits) if len(digits) <= len(str(MAX_POINTS)) else MAX_POINTS + 1
            rest = m.group(2)
            if count < 1 or not rest:
                raise SingularityParseError(raw.strip(), offset)
            item = rest
        s = parse_singularity(item, offset)
        if len(out) + count > MAX_POINTS:
            raise ValueError(f"singularity list names more than {MAX_POINTS} points")
        out.extend([s] * count)
    if sum(len(str(group_order(s))) for s in set(out)) > MAX_ORDER_DIGITS:
        raise ValueError(
            f"singularity list's group orders total more than {MAX_ORDER_DIGITS} digits"
        )
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
