"""Exhaustive search for admissible singularity configurations.

A non-collapsed limit of smooth Kähler-Einstein Del Pezzo surfaces of
degree d can only carry singularities from a short per-degree list, and
its total bubble energy is pinned between 0 and 12 - d:

    0  <  12 * sum_p mu_p(K^-1)  <  12 - d    (both bounds strict).

Since every type's energy is positive, the multisets satisfying the
inequality form a finite set which depth-first search enumerates exactly:
types in catalog order, multiplicity descending, pruning a branch the
moment its partial energy reaches the budget.  The search runs on
integers: each allowed type's energy 12*mu is scaled by L, the least
common multiple of the denominators of the degree's ledger rows (2520,
60, 6 and 2 for degrees 1-4), and so is the budget.  Every count vector
found becomes an ``OrbifoldConfig`` directly, with no re-sort, and gets
one full identity report (Milnor ledger, derived Picard rank,
bubble-count window, exclusion verdicts), built in a single pass; only
the values a report stores are Fractions.

Two modes.  ``inequality-only`` is precisely the energy inequality.
``with-exclusions`` additionally applies named exclusion rules that
encode the known classification of limits with only du Val singularities;
the sharper published multiplicity bounds (for instance, at most one
A4 point in degree 2) need those classifications, not just the budget.
Rules are data, not control flow: each has a name, a docstring, and can
be dropped or added by passing a custom rule list.  A rule's predicate
receives the configuration's ``config.counts`` (type -> count).
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import catalog, invariants
from .catalog import ADE, CyclicQuotient, NotTabulatedError, SingularityType
from .invariants import ConstraintReport, OrbifoldConfig
# rational_to_json is unused here but kept: perfbench/tracing.py wraps this attribute
from .rationals import format_rational, rational_to_json  # noqa: F401

INEQUALITY_ONLY = "inequality-only"
WITH_EXCLUSIONS = "with-exclusions"
MODES = (INEQUALITY_ONLY, WITH_EXCLUSIONS)

# each tuple is written in catalog.sort_key order, the order the search uses
_ALLOWED_TYPES: dict[int, tuple[SingularityType, ...]] = {
    4: (ADE("A", 1),),
    3: (ADE("A", 1), ADE("A", 2)),
    2: tuple(ADE("A", k) for k in range(1, 5)) + (CyclicQuotient(4, 1, 1),),
    1: tuple(ADE("A", k) for k in range(1, 9))
    + (
        ADE("D", 4),
        CyclicQuotient(4, 1, 1),
        CyclicQuotient(8, 1, 3),
        CyclicQuotient(9, 1, 2),
    ),
}


def _du_val_only(counts: Counter) -> bool:
    return all(isinstance(s, ADE) for s in counts)


@dataclass(frozen=True)
class ExclusionRule:
    """A named, documented predicate; True means the configuration survives.

    The predicate receives the configuration as a ``Counter`` multiset.
    """

    name: str
    degree: int
    description: str
    predicate: Callable[[Counter], bool]

    def passes(self, sings: Iterable[SingularityType]) -> bool:
        return self.predicate(Counter(sings))


def _rule_du_val_degree_4(counts: Counter) -> bool:
    if not counts or not _du_val_only(counts):
        return True
    return set(counts) == {ADE("A", 1)} and sum(counts.values()) in (2, 4)


def _rule_du_val_degree_3(counts: Counter) -> bool:
    if not counts or not _du_val_only(counts):
        return True
    if set(counts) == {ADE("A", 1)}:
        return True
    return counts == Counter({ADE("A", 2): 3})


def _rule_du_val_degree_2(counts: Counter) -> bool:
    if not counts or not _du_val_only(counts):
        return True
    if set(counts) <= {ADE("A", 1), ADE("A", 2)}:
        return True
    return counts == Counter({ADE("A", 3): 2})


def _rule_du_val_degree_1(counts: Counter) -> bool:
    if not counts or not _du_val_only(counts):
        return True
    if all(s.family == "A" and s.index <= 7 for s in counts):
        return True
    return counts == Counter({ADE("D", 4): 2})


EXCLUSION_RULES: tuple[ExclusionRule, ...] = (
    ExclusionRule(
        "du-val-classification-d4",
        4,
        "A degree-4 limit with only du Val points is known to have exactly "
        "two or exactly four A1 singularities.",
        _rule_du_val_degree_4,
    ),
    ExclusionRule(
        "du-val-classification-d3",
        3,
        "A degree-3 limit with only du Val points is a cubic surface whose "
        "singularities are all A1, or exactly three A2.",
        _rule_du_val_degree_3,
    ),
    ExclusionRule(
        "du-val-classification-d2",
        2,
        "A degree-2 limit with only du Val points has singularities drawn "
        "from {A1, A2} only, or exactly two A3; in particular A4 points "
        "require a non-du-Val companion.",
        _rule_du_val_degree_2,
    ),
    ExclusionRule(
        "du-val-classification-d1",
        1,
        "A degree-1 limit with only du Val points has only A_k points with "
        "k <= 7, or exactly two D4.",
        _rule_du_val_degree_1,
    ),
)


@dataclass(frozen=True)
class DegreeRules:
    """Search space for one degree: allowed types, budget, exclusion rules."""

    degree: int
    allowed_types: tuple[SingularityType, ...]
    budget: Fraction
    exclusion_rules: tuple[ExclusionRule, ...]


_DEFAULT_RULES = {
    degree: DegreeRules(
        degree,
        types,
        Fraction(12 - degree),
        tuple(r for r in EXCLUSION_RULES if r.degree == degree),
    )
    for degree, types in _ALLOWED_TYPES.items()
}
_ALLOWED_SETS = {degree: frozenset(types) for degree, types in _ALLOWED_TYPES.items()}


def rules_for_degree(
    degree: int, exclusion_rules: Optional[Sequence[ExclusionRule]] = None
) -> DegreeRules:
    if degree not in _DEFAULT_RULES:
        raise ValueError("Del Pezzo degeneration degree must be in 1..4")
    rules = _DEFAULT_RULES[degree]
    if exclusion_rules is None:
        return rules
    return replace(rules, exclusion_rules=tuple(exclusion_rules))


@functools.cache
def _energy_table(degree: int) -> tuple[tuple[int, ...], int]:
    """The degree's type energies 12*mu and budget 12 - d, all scaled by L.

    L is the lcm of the denominators of the allowed types' ledger rows, so
    every entry is an integer.
    """
    scale, rows = catalog.scaled_ledger_rows(_ALLOWED_TYPES[degree])
    return tuple(twelve for _, _, twelve in rows), (12 - degree) * scale


def check_pair_rule(degree: int, k: int, l: int) -> bool:
    """Whether {A_k, A_l} alone fits the degree-1 energy budget.

    Works out to k + l <= 9: the pair's energy is
    k + l + 2 - 1/(k+1) - 1/(l+1), which is < 11 exactly in that range.
    """
    if degree != 1:
        raise ValueError("the A_k/A_l pair rule is a degree-1 statement")
    energy = 12 * (
        catalog.mu_anticanonical(ADE("A", k)) + catalog.mu_anticanonical(ADE("A", l))
    )
    return energy < Fraction(11)


def _validated_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return mode


def check_config(
    config: OrbifoldConfig,
    mode: str = WITH_EXCLUSIONS,
    exclusion_rules: Optional[Sequence[ExclusionRule]] = None,
) -> ConstraintReport:
    """Full admissibility report for one configuration at its degree."""
    _validated_mode(mode)
    if config.degree is None:
        raise ValueError("check_config needs the degeneration degree")
    rules = _DEFAULT_RULES[config.degree]
    if exclusion_rules is None:
        exclusion_rules = rules.exclusion_rules
    try:
        hrr = invariants.hrr_milnor_check(config)
    except NotTabulatedError as exc:
        raise NotTabulatedError(
            f"type not admissible for this analysis: {exc}"
        ) from None
    twelve_mu = hrr.twelve_sum_mu
    if twelve_mu < 0:
        # a rejected configuration, not an error: budget_ok is False too
        bubbles = invariants.BubbleBounds(0, 0, False, violation="negative total energy")
    else:
        bubbles = invariants.bubble_count_bounds(twelve_mu)
    chi_orb = None
    chi_limit_check = None
    if config.euler_topological is not None:
        chi_orb = invariants.chi_orb_from_chi(config.euler_topological, config.singularities)
        chi_limit_check = invariants.IdentityCheck(
            "chi_limit_equals_12_minus_d", chi_orb + twelve_mu, rules.budget
        )
    exclusions = {}
    if mode == WITH_EXCLUSIONS:
        exclusions = {r.name: r.predicate(config.counts) for r in exclusion_rules}
    return ConstraintReport(
        config=config,
        twelve_sum_mu=twelve_mu,
        budget=rules.budget,
        hrr=hrr,
        bubbles=bubbles,
        chi_orb=chi_orb,
        chi_limit_check=chi_limit_check,
        exclusions=exclusions,
        allowed_types_ok=config.counts.keys() <= _ALLOWED_SETS[config.degree],
    )


def _descending_counts(energies: Sequence[int], budget: int) -> list[tuple[int, ...]]:
    """All count vectors with 0 < sum(c*e) < budget, in descending lex order.

    Energies and budget are integers, every energy positive.
    """
    n = len(energies)
    counts = [0] * n
    out: list[tuple[int, ...]] = []

    def rec(i: int, total: int) -> None:
        if i == n:
            if total > 0:
                out.append(tuple(counts))
            return
        energy = energies[i]
        # the largest c with total + c * energy strictly below the budget
        for c in range((budget - total - 1) // energy, -1, -1):
            counts[i] = c
            rec(i + 1, total + c * energy)
        counts[i] = 0

    rec(0, 0)
    return out


# The parts of one configuration's JSON text, as json.dumps(..., indent=2)
# lays them out inside an enumeration.  The caches are keyed by small values
# that recur across configurations, never by a whole configuration.


def _indented_json(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2)`` for a value nested one ``pad`` deep."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


@functools.lru_cache(maxsize=512)
def _singularity_lines(s: SingularityType, count: int) -> str:
    line = "        " + json.dumps(catalog.format_singularity(s))
    return ",\n".join([line] * count)


@functools.lru_cache(maxsize=256)
def _bubbles_json_text(bubbles: invariants.BubbleBounds) -> str:
    return _indented_json(bubbles.to_json(), "      ")


@functools.lru_cache(maxsize=256)
def _verdicts_json_text(verdicts: tuple[tuple[str, bool], ...]) -> str:
    return _indented_json(dict(verdicts), "      ")


def _rational_json_text(q: Optional[Fraction]) -> str:
    if q is None:
        return "null"
    return f'{{\n        "num": {q.numerator},\n        "den": {q.denominator}\n      }}'


def _summary_json_text(report: ConstraintReport) -> str:
    """``report.summary_json()`` as it sits in :meth:`EnumerationResult.to_json`."""
    sings = ",\n".join(
        _singularity_lines(s, c) for s, c in report.config.counts.items()
    )
    sings = f"[\n{sings}\n      ]" if sings else "[]"
    return (
        "    {\n"
        f'      "singularities": {sings},\n'
        f'      "twelve_sum_mu": {_rational_json_text(report.twelve_sum_mu)},\n'
        f'      "chi_orb_if_chi_known": {_rational_json_text(report.chi_orb)},\n'
        f'      "derived_picard_rank": {_rational_json_text(report.hrr.picard_rank)},\n'
        f'      "bubble_bounds": {_bubbles_json_text(report.bubbles)},\n'
        f'      "verdicts": {_verdicts_json_text(tuple(report.verdicts().items()))}\n'
        "    }"
    )


@dataclass
class EnumerationResult:
    """Everything the search found for one degree and mode."""

    degree: int
    mode: str
    reports: list[ConstraintReport]
    smooth: ConstraintReport
    rules: DegreeRules  # as resolved by the search, custom rule lists included

    def max_multiplicity(self) -> dict[str, int]:
        """Per-type maximum multiplicity over the surviving configurations."""
        best = {t: 0 for t in self.rules.allowed_types}
        for report in self.reports:
            for t, c in report.config.counts.items():
                if c > best.get(t, 0):
                    best[t] = c
        return {catalog.format_singularity(t): c for t, c in best.items()}

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "mode": self.mode,
            "configurations": [r.summary_json() for r in self.reports],
            "max_multiplicity": self.max_multiplicity(),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2)``, written straight from the reports.

        The same bytes, without building the dict and without ``json``'s
        pure-Python indenting encoder: each configuration fills one fixed
        template (:func:`_summary_json_text`).
        """
        configs = ",\n".join(map(_summary_json_text, self.reports))
        configs = f"[\n{configs}\n  ]" if configs else "[]"
        return (
            "{\n"
            f'  "degree": {json.dumps(self.degree)},\n'
            f'  "mode": {json.dumps(self.mode)},\n'
            f'  "configurations": {configs},\n'
            f'  "max_multiplicity": {_indented_json(self.max_multiplicity(), "  ")}\n'
            "}"
        )

    def to_text(self) -> str:
        lines = [
            f"degree {self.degree}, mode {self.mode}: "
            f"{len(self.reports)} configurations "
            f"(energy budget 12*sum(mu) < {format_rational(self.rules.budget)})",
            "",
            "max multiplicity per type:",
        ]
        for name, count in self.max_multiplicity().items():
            lines.append(f"  {name}: {count}")
        lines.append("")
        lines.append("smooth case: 12*sum(mu) = 0, non-degenerating, "
                      f"picard rank {format_rational(self.smooth.hrr.picard_rank)}")
        lines.append("")
        names = [r.config.notation() for r in self.reports]
        width = max(map(len, names), default=0)
        for name, r in zip(names, self.reports):
            rho = format_rational(r.hrr.picard_rank)
            flag = "" if r.hrr.picard_ok else "  [picard rank not positive integral]"
            lines.append(
                f"  {name:<{width}}  12*sum(mu) = "
                f"{format_rational(r.twelve_sum_mu):>6}  rho = {rho}{flag}"
            )
        return "\n".join(lines)


def enumerate_configurations(
    degree: int,
    mode: str = WITH_EXCLUSIONS,
    exclusion_rules: Optional[Sequence[ExclusionRule]] = None,
) -> EnumerationResult:
    """Enumerate every configuration satisfying the degree's constraints.

    One depth-first search over count vectors, in descending lexicographic
    order; each configuration gets one :func:`check_config` report, kept
    when every exclusion rule in it passed (always, in ``inequality-only``).
    """
    _validated_mode(mode)
    rules = rules_for_degree(degree, exclusion_rules)
    energies, budget = _energy_table(degree)
    reports = []
    for vec in _descending_counts(energies, budget):
        config = OrbifoldConfig.from_counts(degree, rules.allowed_types, vec)
        report = check_config(config, mode, rules.exclusion_rules)
        if all(report.exclusions.values()):
            reports.append(report)
    smooth = check_config(
        OrbifoldConfig(degree=degree, singularities=()), mode, rules.exclusion_rules
    )
    return EnumerationResult(degree, mode, reports, smooth, rules)
