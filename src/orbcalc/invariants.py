"""Orbifold Euler bookkeeping and the quantization-identity checks.

Everything here is exact rational arithmetic.  Curvature energies are
carried in units of 8*pi^2 throughout -- the Gauss-Bonnet pairing
chi = (1/8pi^2) * integral |Rm|^2 makes every tracked quantity rational
and keeps pi out of the ledger entirely.  In those units the orbifold
Euler number satisfies

    chi_orb = chi - sum_p (1 - 1/n_p),       n_p = local group order,

the limit Euler number of a degenerating family satisfies

    chi_limit = chi_orb + 12 * sum_p mu_p    (anticanonical bundle for the
                                              positive-scalar-curvature
                                              branch, K^2 for the negative),

and a smooth degree-d Del Pezzo has chi = 12 - d and Picard rank 10 - d.
The minimum curvature energy of a Ricci-flat ALE bubble is 3/4 in these
units (6*pi^2), which is the quantum used for bubble counting.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import catalog
from .catalog import SingularityType
from .rationals import as_rational, format_rational, rational_to_json

ANTICANONICAL = "anticanonical"
CANONICAL_SQUARE = "canonical_square"
BUNDLES = (ANTICANONICAL, CANONICAL_SQUARE)

#: minimum ALE bubble curvature energy, in units of 8*pi^2
MIN_BUBBLE_ENERGY_UNITS = Fraction(3, 4)


@dataclass(frozen=True, slots=True)
class OrbifoldConfig:
    """A degree plus a multiset of singularities, with optional topology data."""

    degree: Optional[int]
    singularities: tuple[SingularityType, ...]
    euler_topological: Optional[int] = None
    picard_rank: Optional[int] = None
    # the same multiset as type -> count, keys in catalog.sort_key order
    counts: Counter = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ordered = tuple(sorted(self.singularities, key=catalog.sort_key))
        object.__setattr__(self, "singularities", ordered)
        object.__setattr__(self, "counts", Counter(ordered))
        self._validate()

    def _validate(self) -> None:
        if self.degree is not None and not 1 <= self.degree <= 4:
            raise ValueError("Del Pezzo degeneration degree must be in 1..4")
        if self.picard_rank is not None and self.picard_rank < 1:
            raise ValueError("Picard rank must be positive")

    @classmethod
    def from_counts(
        cls,
        degree: Optional[int],
        types: Sequence[SingularityType],
        vector: Sequence[int],
    ) -> "OrbifoldConfig":
        """The configuration with ``vector[i]`` points of type ``types[i]``.

        ``types`` must be distinct and in :func:`catalog.sort_key` order, as
        each degree's type table is; the multiset is then already sorted, so
        it is expanded and counted once, with no sort.  The result equals
        ``OrbifoldConfig(degree, singularities=...)`` of the same multiset.
        """
        # the Counter Counter(mapping) builds, filled by dict.update without
        # Counter.__init__ and Counter.update's Mapping ABC check
        counts = Counter.__new__(Counter)
        dict.update(counts, [(t, c) for t, c in zip(types, vector) if c])
        self = cls.__new__(cls)
        set_field = object.__setattr__
        set_field(self, "degree", degree)
        set_field(self, "singularities", tuple(counts.elements()))
        set_field(self, "euler_topological", None)
        set_field(self, "picard_rank", None)
        set_field(self, "counts", counts)
        self._validate()
        return self

    def notation(self) -> str:
        return catalog.format_counts(self.counts)


def _mu(s: SingularityType, bundle: str) -> Fraction:
    if bundle == ANTICANONICAL:
        return catalog.mu_anticanonical(s)
    if bundle == CANONICAL_SQUARE:
        return catalog.mu_canonical_square(s)
    raise ValueError(f"unknown bundle {bundle!r}; expected one of {BUNDLES}")


def chi_orb_from_chi(chi: int | Fraction, sings: Iterable[SingularityType]) -> Fraction:
    """chi_orb = chi - sum_p (1 - 1/n_p)."""
    return Fraction(chi) - sum(
        (1 - Fraction(1, catalog.group_order(s)) for s in sings), Fraction(0)
    )


def bubble_energy_from_mu(
    sings: Iterable[SingularityType], bundle: str = ANTICANONICAL
) -> Fraction:
    """Total bubble curvature energy in 8*pi^2 units: 12 * sum_p mu_p(bundle)."""
    return 12 * sum((_mu(s, bundle) for s in sings), Fraction(0))


def chi_limit(config: OrbifoldConfig, bundle: str = ANTICANONICAL) -> Fraction:
    """lim chi of the degenerating family: chi_orb + 12*sum mu.

    Requires the topological Euler number of the limit space.  For a
    degree-d Del Pezzo degeneration this must come out to 12 - d; that is
    a check for the caller, not an assumption made here.
    """
    if config.euler_topological is None:
        raise ValueError("chi_limit needs the topological Euler number chi(M)")
    return (
        chi_orb_from_chi(config.euler_topological, config.singularities)
        + bubble_energy_from_mu(config.singularities, bundle)
    )


def genus_weighted_plane_curve(
    weights: tuple[int, int, int], degree: int
) -> Fraction:
    """Genus of a non-singular degree-d curve in the weighted plane P(a0,a1,a2).

    g = (1/2) ( d^2/(a0 a1 a2) - d * sum_{i<j} gcd(a_i,a_j)/(a_i a_j)
                + sum_i gcd(a_i, d)/a_i - 1 )

    Returned as an exact rational: the formula is only an integer for
    honestly non-singular curves, and policing non-singularity is the
    caller's business.
    """
    a0, a1, a2 = weights
    if min(weights) < 1 or degree < 1:
        raise ValueError("weights and degree must be positive")
    d = Fraction(degree)
    cross = (
        Fraction(math.gcd(a0, a1), a0 * a1)
        + Fraction(math.gcd(a0, a2), a0 * a2)
        + Fraction(math.gcd(a1, a2), a1 * a2)
    )
    diag = sum(Fraction(math.gcd(a, degree), a) for a in weights)
    return (d * d / (a0 * a1 * a2) - d * cross + diag - 1) / 2


def euler_double_cover(chi_base: int, chi_branch: int) -> int:
    """Euler number of a double cover: 2*chi(base) - chi(branch locus)."""
    return 2 * chi_base - chi_branch


@dataclass(frozen=True, slots=True)
class IdentityCheck:
    """Both sides of one exact identity, so reports can show their arithmetic."""

    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        # lhs == rhs, decided on the integers of two lowest-terms rationals
        # (ints or Fractions); Fraction.__eq__ goes through the numbers ABCs
        lhs, rhs = self.lhs, self.rhs
        return lhs is rhs or (
            lhs.numerator == rhs.numerator and lhs.denominator == rhs.denominator
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": rational_to_json(self.lhs),
            "rhs": rational_to_json(self.rhs),
            "holds": self.holds,
        }


@dataclass(frozen=True, slots=True)
class BubbleBounds:
    """How many ALE bubbles a given total energy allows."""

    min_count: int
    max_count: int
    exact_fit: bool
    violation: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "min": self.min_count,
            "max": self.max_count,
            "exact_fit": self.exact_fit,
        }
        if self.violation:
            out["violation"] = self.violation
        return out

    def window(self) -> str:
        """The window as text: ``min=1 max=2 exact_fit=true``."""
        return (
            f"min={self.min_count} max={self.max_count} "
            f"exact_fit={str(self.exact_fit).lower()}"
        )


def bubble_count_bounds(
    total_energy_units: Fraction,
    min_quantum_units: Fraction = MIN_BUBBLE_ENERGY_UNITS,
) -> BubbleBounds:
    """Bubble-count window for a total energy, given the per-bubble quantum.

    Every bubble carries at least the quantum, so at most
    floor(total/quantum) bubbles fit; any positive total admits a single
    bubble, so the minimum is 1 (0 only for zero total).  ``exact_fit``
    marks totals that are integer multiples of the quantum.  A positive
    total below one quantum cannot be realized at all and is reported as a
    violation rather than raised.
    """
    total = as_rational(total_energy_units)
    quantum = as_rational(min_quantum_units)
    if quantum.numerator <= 0:
        raise ValueError("bubble energy quantum must be positive")
    if total.numerator < 0:
        raise ValueError("total bubble energy cannot be negative")
    if total.numerator == 0:
        return BubbleBounds(0, 0, True)
    max_count, rest = divmod(
        total.numerator * quantum.denominator, quantum.numerator * total.denominator
    )
    if max_count == 0:
        return BubbleBounds(0, 0, False, violation="energy below one quantum")
    return BubbleBounds(1, max_count, rest == 0)


@dataclass(frozen=True, slots=True)
class HrrMilnorReport:
    """Fragment produced by :func:`hrr_milnor_check`."""

    milnor_ledger: IdentityCheck
    picard_noether: IdentityCheck
    picard_rank: Fraction
    picard_provided: bool
    twelve_sum_mu: Fraction  # 12 * sum_p mu_p(K^-1)

    @property
    def picard_ok(self) -> bool:
        rho = self.picard_rank
        return rho.denominator == 1 and rho.numerator >= 1 and self.picard_noether.holds


@functools.cache
def _picard_target(degree: int) -> Fraction:
    """10 - d, the Picard rank of a smooth degree-d Del Pezzo, built once per degree."""
    return Fraction(10 - degree)


def hrr_milnor_check(config: OrbifoldConfig) -> HrrMilnorReport:
    """Check the Milnor ledger and the Picard-rank identity for a configuration.

    First identity:   sum (1 - 1/n_p) + sum nu_p  =  12 sum mu_p(K^-1).
    Second identity:  rho + 12 sum mu - sum (1 - 1/n_p)  =  10 - d.

    When the Picard rank is not supplied it is solved for from the second
    identity, and the report says whether the solution is a positive
    integer (a necessary condition for the configuration to be realized).
    The three sums are integer dot products: each distinct type's cached
    row, put over the configuration's common denominator L by
    :func:`catalog.scaled_ledger_rows`, weighted by its count.  Only 12*sum mu
    and rho are new Fractions: ``10 - d`` is built once per degree, and a
    side whose integer sum equals the other side's is that same object.
    """
    if config.degree is None:
        raise ValueError("hrr_milnor_check needs the degeneration degree")
    counts = config.counts
    scale, rows = catalog.scaled_ledger_rows(tuple(counts))
    sum_one_minus = sum_milnor = twelve_mu = 0
    for count, (one_minus, nu, twelve) in zip(counts.values(), rows):
        sum_one_minus += count * one_minus
        sum_milnor += count * nu
        twelve_mu += count * twelve
    twelve_sum_mu = Fraction(twelve_mu, scale)
    ledger = sum_one_minus + sum_milnor
    first = IdentityCheck(
        "milnor_ledger",
        twelve_sum_mu if ledger == twelve_mu else Fraction(ledger, scale),
        twelve_sum_mu,
    )
    target = _picard_target(config.degree)
    target_units = (10 - config.degree) * scale
    provided = config.picard_rank is not None
    if provided:
        rho = config.picard_rank * scale
    else:
        rho = target_units - twelve_mu + sum_one_minus
    noether = rho + twelve_mu - sum_one_minus
    second = IdentityCheck(
        "picard_noether",
        target if noether == target_units else Fraction(noether, scale),
        target,
    )
    return HrrMilnorReport(first, second, Fraction(rho, scale), provided, twelve_sum_mu)


@dataclass(slots=True)
class ConstraintReport:
    """Per-configuration verdict: every identity with both sides exact."""

    config: OrbifoldConfig
    twelve_sum_mu: Fraction
    budget: Fraction  # 12 - d, strict upper bound
    hrr: HrrMilnorReport
    bubbles: BubbleBounds
    allowed_types_ok: bool
    chi_orb: Optional[Fraction] = None  # only when chi(M) was supplied
    chi_limit_check: Optional[IdentityCheck] = None  # lhs is chi_limit
    exclusions: dict = field(default_factory=dict)  # rule name -> passed

    @property
    def budget_ok(self) -> bool:
        # 0 < twelve_sum_mu < budget, cross-multiplied over positive denominators
        t, budget = self.twelve_sum_mu, self.budget
        return 0 < t.numerator and (
            t.numerator * budget.denominator < budget.numerator * t.denominator
        )

    @property
    def is_smooth(self) -> bool:
        return not self.config.singularities

    @property
    def admissible(self) -> bool:
        """Budget satisfied, integral positive Picard rank, no exclusion hit."""
        return self._admissible(self.budget_ok, self.hrr.picard_ok)

    def _admissible(self, budget_ok: bool, picard_ok: bool) -> bool:
        # the Milnor ledger is reported, not required
        return (
            budget_ok
            and picard_ok
            and self.allowed_types_ok
            and all(self.exclusions.values())
            and (self.chi_limit_check is None or self.chi_limit_check.holds)
        )

    def verdicts(self) -> dict:
        budget_ok, picard_ok = self.budget_ok, self.hrr.picard_ok
        out = {
            "budget_ok": budget_ok,
            "milnor_ledger_holds": self.hrr.milnor_ledger.holds,
            "picard_rank_is_positive_integer": picard_ok,
            "types_allowed_for_degree": self.allowed_types_ok,
        }
        if self.chi_limit_check is not None:
            out["chi_limit_matches_degree"] = self.chi_limit_check.holds
        for name, passed in self.exclusions.items():
            out[f"exclusion:{name}"] = passed
        out["admissible"] = self._admissible(budget_ok, picard_ok)
        return out

    def summary_json(self) -> dict:
        """The keys one configuration carries in an enumeration's JSON.

        ``EnumerationResult.to_json`` writes the same as text, without this
        dict (``enumerator._summary_json_text``); a change here goes there too.
        """
        return {
            "singularities": [
                catalog.format_singularity(s) for s in self.config.singularities
            ],
            "twelve_sum_mu": rational_to_json(self.twelve_sum_mu),
            "chi_orb_if_chi_known": (
                rational_to_json(self.chi_orb) if self.chi_orb is not None else None
            ),
            "derived_picard_rank": rational_to_json(self.hrr.picard_rank),
            "bubble_bounds": self.bubbles.to_json(),
            "verdicts": self.verdicts(),
        }

    def to_json(self) -> dict:
        out = self.summary_json()
        out["budget"] = rational_to_json(self.budget)
        out["degree"] = self.config.degree
        if self.chi_limit_check is not None:
            out["chi_limit"] = rational_to_json(self.chi_limit_check.lhs)
        out["identities"] = [
            self.hrr.milnor_ledger.to_json(),
            self.hrr.picard_noether.to_json(),
        ]
        if self.chi_limit_check is not None:
            out["identities"].append(self.chi_limit_check.to_json())
        return out

    def to_text(self) -> str:
        lines = []
        sings = self.config.notation() or "(none: smooth case)"
        lines.append(f"singularities: {sings}")
        lines.append(f"degree: {self.config.degree}")
        lines.append(f"12*sum(mu) = {format_rational(self.twelve_sum_mu)}")
        lines.append(
            f"budget: need 0 < {format_rational(self.twelve_sum_mu)} "
            f"< {format_rational(self.budget)} "
            f"-> {'ok' if self.budget_ok else 'VIOLATED'}"
        )
        for check in (self.hrr.milnor_ledger, self.hrr.picard_noether, self.chi_limit_check):
            if check is None:
                continue
            lines.append(
                f"{check.name}: {format_rational(check.lhs)} "
                f"{'=' if check.holds else '!='} {format_rational(check.rhs)}"
            )
        rho_kind = "given" if self.hrr.picard_provided else "derived"
        lines.append(
            f"picard rank ({rho_kind}): {format_rational(self.hrr.picard_rank)}"
            f" -> {'ok' if self.hrr.picard_ok else 'NOT a positive integer'}"
        )
        if self.chi_orb is not None:
            lines.append(f"chi_orb = {format_rational(self.chi_orb)}")
        if self.chi_limit_check is not None:
            lines.append(f"chi_limit = {format_rational(self.chi_limit_check.lhs)}")
        bub = f"bubbles: {self.bubbles.window()}"
        if self.bubbles.violation:
            bub += f" violation={self.bubbles.violation!r}"
        lines.append(bub)
        lines.append(
            f"types allowed for degree: {'yes' if self.allowed_types_ok else 'NO'}"
        )
        for name, passed in self.exclusions.items():
            lines.append(f"exclusion {name}: {'pass' if passed else 'EXCLUDED'}")
        if self.is_smooth:
            lines.append("verdict: smooth (non-degenerating)")
        else:
            lines.append(f"verdict: {'admissible' if self.admissible else 'rejected'}")
        return "\n".join(lines)
