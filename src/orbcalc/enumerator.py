"""Exhaustive search for admissible singularity configurations.

A non-collapsed limit of smooth Kähler-Einstein Del Pezzo surfaces of
degree d can only carry singularities from a short per-degree list, and
its total bubble energy is pinned between 0 and 12 - d:

    0  <  12 * sum_p mu_p(K^-1)  <  12 - d    (both bounds strict).

Since every type's energy is positive, the multisets satisfying the
inequality form a finite set which depth-first search enumerates exactly:
types in catalog order, multiplicity descending, pruning a branch the
moment its partial energy reaches the budget.  The search runs on one
integer ``TypeTable`` per degree, whose ledger rows are scaled by L, the
lcm of their denominators (2520, 60, 6 and 2 for degrees 1-4), and carries
the sums of ``1 - 1/n``, ``nu`` and ``12*mu`` down as integers.  Each count
vector's verdicts (budget, Milnor ledger, derived Picard rank, bubble
window) are decided on those integers, and the writers print straight
from them.  A configuration's full ``ConstraintReport`` is built by
:func:`check_config` only when ``result.reports`` is read.

Two modes.  ``inequality-only`` is precisely the energy inequality.
``with-exclusions`` additionally applies named exclusion rules that
encode the known classification of limits with only du Val singularities;
the sharper published multiplicity bounds (for instance, at most one
A4 point in degree 2) need those classifications, not just the budget.
Rules are data, not control flow: each degree's allowed types, budget and
one rule (named du Val types ``free``, multisets ``exact``) are one row of
``_DEGREE_RULES``.  The guard stays in :meth:`ExclusionRule.__call__`: a rule
judges only ``config.counts`` holding du Val points, and passes all others.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import catalog, invariants
from .catalog import ADE, CyclicQuotient, NotTabulatedError, SingularityType
from .invariants import ConstraintReport, OrbifoldConfig, TypeTable
# rational_to_json is unused here but kept: perfbench/tracing.py wraps this attribute
from .rationals import format_rational, rational_to_json  # noqa: F401

INEQUALITY_ONLY = "inequality-only"
WITH_EXCLUSIONS = "with-exclusions"
MODES = (INEQUALITY_ONLY, WITH_EXCLUSIONS)


@dataclass(frozen=True)
class ExclusionRule:
    """One degree's du Val classification, as data; True means the configuration survives.

    A configuration of du Val points, at least one, survives when its types lie
    in ``free`` or its multiset, as ``(type, count)`` pairs, is one of ``exact``.
    The guard in :meth:`__call__` lets every other configuration pass.
    """

    name: str
    degree: int
    description: str
    free: frozenset[ADE]
    exact: frozenset[frozenset[tuple[ADE, int]]]

    def __call__(self, counts: Counter) -> bool:
        if not counts or not all(isinstance(s, ADE) for s in counts):
            return True
        return counts.keys() <= self.free or frozenset(counts.items()) in self.exact

    def passes(self, sings: Iterable[SingularityType]) -> bool:
        return self(Counter(sings))


@dataclass(frozen=True)
class DegreeRules:
    """Search space for one degree: allowed types, budget, exclusion rules."""

    degree: int
    allowed_types: tuple[SingularityType, ...]
    budget: Fraction
    exclusion_rules: tuple[ExclusionRule, ...]


def _row(degree: int, types: tuple, free: tuple, exact: tuple, description: str) -> DegreeRules:
    """One degree's rules; each multiset in ``exact`` is given as a tuple of points."""
    multisets = frozenset(frozenset(Counter(points).items()) for points in exact)
    name = f"du-val-classification-d{degree}"
    rule = ExclusionRule(name, degree, description, frozenset(free), multisets)
    return DegreeRules(degree, types, Fraction(12 - degree), (rule,))


def _a(*indices: int) -> tuple[ADE, ...]:
    """One ``A_k`` point per index, repeats kept: ``_a(1, 1)`` is two A1 points."""
    return tuple(ADE("A", k) for k in indices)


# One row per degree: the types a limit may carry, in catalog.sort_key order
# (the order the search uses), and the classification of limits with only du
# Val points (Odaka, Spotti & Sun, J. Differential Geom. 102 (2016)).
_DEGREE_RULES: dict[int, DegreeRules] = {
    rules.degree: rules
    for rules in (
        _row(
            4, _a(1), free=(), exact=(_a(1, 1), _a(1, 1, 1, 1)),
            description="A degree-4 limit with only du Val points is known to have "
            "exactly two or exactly four A1 singularities.",
        ),
        _row(
            3, _a(1, 2), free=_a(1), exact=(_a(2, 2, 2),),
            description="A degree-3 limit with only du Val points is a cubic surface "
            "whose singularities are all A1, or exactly three A2.",
        ),
        _row(
            2, _a(1, 2, 3, 4) + (CyclicQuotient(4, 1, 1),), free=_a(1, 2), exact=(_a(3, 3),),
            description="A degree-2 limit with only du Val points has singularities drawn "
            "from {A1, A2} only, or exactly two A3; in particular A4 points "
            "require a non-du-Val companion.",
        ),
        _row(
            1,
            _a(*range(1, 9)) + (ADE("D", 4),)
            + (CyclicQuotient(4, 1, 1), CyclicQuotient(8, 1, 3), CyclicQuotient(9, 1, 2)),
            free=_a(*range(1, 8)),
            exact=((ADE("D", 4), ADE("D", 4)),),
            description="A degree-1 limit with only du Val points has only A_k points "
            "with k <= 7, or exactly two D4.",
        ),
    )
}

EXCLUSION_RULES: tuple[ExclusionRule, ...] = tuple(
    rule for rules in _DEGREE_RULES.values() for rule in rules.exclusion_rules
)


def rules_for_degree(degree: int) -> DegreeRules:
    if degree not in _DEGREE_RULES:
        raise ValueError("Del Pezzo degeneration degree must be in 1..4")
    return _DEGREE_RULES[degree]


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


def check_config(config: OrbifoldConfig, mode: str = WITH_EXCLUSIONS) -> ConstraintReport:
    """Full admissibility report for one configuration at its degree."""
    _validated_mode(mode)
    rules = _DEGREE_RULES[config.degree]
    try:
        hrr = invariants.hrr_milnor_check(config)
    except NotTabulatedError as exc:
        raise NotTabulatedError(
            f"type not admissible for this analysis: {exc}"
        ) from None
    twelve_mu = hrr.twelve_sum_mu
    if twelve_mu.numerator < 0:
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
        exclusions = {r.name: r(config.counts) for r in rules.exclusion_rules}
    return ConstraintReport(
        config=config,
        twelve_sum_mu=twelve_mu,
        budget=rules.budget,
        hrr=hrr,
        bubbles=bubbles,
        chi_orb=chi_orb,
        chi_limit_check=chi_limit_check,
        exclusions=exclusions,
        allowed_types_ok=config.counts.keys() <= set(rules.allowed_types),
    )


def _search(table: TypeTable) -> list[tuple[tuple[int, ...], int, int, int]]:
    """Every count vector with ``0 < 12*sum(mu) < 12 - d``, in descending lex order.

    Each row is ``(vector, o, nu, t)``: the vector and its ledger sums over
    :attr:`TypeTable.rows`, carried down the search as integers over ``L``.
    """
    rows, budget, n = table.rows, table.budget, len(table.rows)
    counts = [0] * n
    out: list[tuple[tuple[int, ...], int, int, int]] = []

    def rec(i: int, o: int, nu: int, t: int) -> None:
        if i == n:
            if t > 0:
                out.append((tuple(counts), o, nu, t))
            return
        row_o, row_nu, row_t = rows[i]
        # the largest c with t + c * row_t strictly below the budget
        for c in range((budget - t - 1) // row_t, -1, -1):
            counts[i] = c
            rec(i + 1, o + c * row_o, nu + c * row_nu, t + c * row_t)
        counts[i] = 0

    rec(0, 0, 0, 0)
    return out


def _piece(s: SingularityType, count: int) -> tuple[str, str]:
    """``count`` points of ``s`` as the writers print them: JSON lines, ``Nx TYPE``."""
    line = "        " + json.dumps(catalog.format_singularity(s))
    return ",\n".join([line] * count), catalog.format_counts({s: count})


@functools.cache
def _degree_table(degree: int) -> tuple[TypeTable, list[list[tuple[str, str]]]]:
    """The degree's :class:`TypeTable`, and ``pieces[i][c] = _piece(types[i], c)``.

    Pieces cover every count the search can reach.  Built on first use.
    """
    table = TypeTable(_DEGREE_RULES[degree].allowed_types, degree)
    pieces = [
        [_piece(s, c) for c in range(table.budget // t + 1)]
        for s, (_, _, t) in zip(table.types, table.rows)
    ]
    return table, pieces


# A writer row is what one configuration of a search prints, already decided:
#   (pieces, twelve_sum_mu, picard rank, bubble window, verdicts)
# with rationals as lowest-terms (num, den) pairs, the window as its
# (max, exact_fit) and verdicts as invariants.verdict_items pairs.  A search
# uses only allowed types and never knows chi (chi_orb is null); it keeps only
# 12*sum(mu) > 0, so no configuration is empty; and every allowed type carries
# at least one bubble quantum, so a window's min is 1 and it has no violation.


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


class _SearchReports(Sequence):
    """A search's reports, built on access: item ``i`` is ``check_config`` of
    ``OrbifoldConfig.from_counts`` of ``rows[i]``'s vector, kept once built.

    ``len()`` builds nothing, and :meth:`writer_rows` reads only ``rows``.
    """

    def __init__(self, degree: int, mode: str, rows: list) -> None:
        self.degree, self.mode, self.rows = degree, mode, rows
        self._built: list[Optional[ConstraintReport]] = [None] * len(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if self._built[i] is None:
            types = _DEGREE_RULES[self.degree].allowed_types
            config = OrbifoldConfig.from_counts(self.degree, types, self.rows[i][0])
            self._built[i] = check_config(config, self.mode)
        return self._built[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, _SearchReports)):
            return list(self) == list(other)
        return NotImplemented

    def writer_rows(self) -> list[tuple]:
        """Each row's writer row, decided on its integers ``(o, nu, t)`` over ``L``.

        ``12*sum(mu) = t/L`` and the derived Picard rank is ``(picard_target -
        t + o)/L``.  Every row kept passed each exclusion rule.
        """
        table, pieces = _degree_table(self.degree)
        scale, budget, target = table.scale, table.budget, table.picard_target
        quantum = invariants.MIN_BUBBLE_ENERGY_UNITS
        rules = _DEGREE_RULES[self.degree].exclusion_rules
        passed = {r.name: True for r in rules if self.mode == WITH_EXCLUSIONS}

        @functools.cache
        def verdicts(budget_ok: bool, ledger_ok: bool, picard_ok: bool) -> tuple:
            return invariants.verdict_items(budget_ok, ledger_ok, picard_ok, True, None, passed)

        out = []
        for vector, o, nu, t in self.rows:
            rho = target - t + o
            bubbles, rest = divmod(t * quantum.denominator, quantum.numerator * scale)
            out.append((
                [pieces[i][c] for i, c in enumerate(vector) if c],
                _reduced(t, scale),
                _reduced(rho, scale),
                (bubbles, rest == 0),
                verdicts(0 < t < budget, o + nu == t, rho > 0 and rho % scale == 0),
            ))
        return out


# The parts of one configuration's JSON text, as json.dumps(..., indent=2)
# lays them out inside an enumeration.  The verdicts' cache is keyed by a small
# value that recurs across configurations, never by a whole configuration.


def _indented_json(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2)`` for a value nested one ``pad`` deep."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


@functools.cache
def _verdicts_json_text(verdicts: tuple[tuple[str, bool], ...]) -> str:
    return _indented_json(dict(verdicts), "      ")


def _rational_json_text(q: tuple[int, int]) -> str:
    return f'{{\n        "num": {q[0]},\n        "den": {q[1]}\n      }}'


def _rational_text(q: tuple[int, int]) -> str:
    """:func:`format_rational` of a ``(num, den)`` pair."""
    return str(q[0]) if q[1] == 1 else f"{q[0]}/{q[1]}"


def _config_json_text(row: tuple) -> str:
    """One writer row as its ``summary_json()`` sits in :meth:`EnumerationResult.to_json`."""
    pieces, twelve, rho, (most, exact_fit), verdicts = row
    sings = ",\n".join([lines for lines, _ in pieces])
    return (
        "    {\n"
        f'      "singularities": [\n{sings}\n      ],\n'
        f'      "twelve_sum_mu": {_rational_json_text(twelve)},\n'
        '      "chi_orb_if_chi_known": null,\n'
        f'      "derived_picard_rank": {_rational_json_text(rho)},\n'
        '      "bubble_bounds": {\n'
        '        "min": 1,\n'
        f'        "max": {most},\n'
        f'        "exact_fit": {"true" if exact_fit else "false"}\n'
        "      },\n"
        f'      "verdicts": {_verdicts_json_text(verdicts)}\n'
        "    }"
    )


@dataclass
class EnumerationResult:
    """Everything the search found for one degree and mode.

    Built by :func:`enumerate_configurations`.  ``reports`` are built on
    access; the writers and :meth:`max_multiplicity` read the search's
    integers instead.
    """

    degree: int
    mode: str
    reports: _SearchReports
    smooth: ConstraintReport
    rules: DegreeRules

    def max_multiplicity(self) -> dict[str, int]:
        """Per-type maximum multiplicity over the surviving configurations."""
        return dict(self._max_multiplicity)

    @functools.cached_property
    def _max_multiplicity(self) -> dict[str, int]:
        # scanned once per result, on first use
        best = {t: 0 for t in self.rules.allowed_types}
        columns = zip(*(row[0] for row in self.reports.rows))
        best.update(zip(self.rules.allowed_types, map(max, columns)))
        return {catalog.format_singularity(t): c for t, c in best.items()}

    @functools.cached_property
    def _writer_rows(self) -> list[tuple]:
        return self.reports.writer_rows()

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "mode": self.mode,
            "configurations": [r.summary_json() for r in self.reports],
            "max_multiplicity": self.max_multiplicity(),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2)``, written straight from the rows.

        The same bytes, without building the dict, the reports or ``json``'s
        pure-Python indenting encoder: each configuration fills one fixed
        template (:func:`_config_json_text`).
        """
        configs = ",\n".join(map(_config_json_text, self._writer_rows))
        return (
            "{\n"
            f'  "degree": {json.dumps(self.degree)},\n'
            f'  "mode": {json.dumps(self.mode)},\n'
            f'  "configurations": [\n{configs}\n  ],\n'
            f'  "max_multiplicity": {_indented_json(self.max_multiplicity(), "  ")}\n'
            "}"
        )

    def to_text(self) -> str:
        rows = self._writer_rows
        lines = [
            f"degree {self.degree}, mode {self.mode}: "
            f"{len(rows)} configurations "
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
        names = [", ".join([note for _, note in row[0]]) for row in rows]
        width = max(map(len, names), default=0)
        for name, (_, twelve, rho, _, verdicts) in zip(names, rows):
            picard_ok = verdicts[invariants.PICARD_VERDICT][1]
            flag = "" if picard_ok else "  [picard rank not positive integral]"
            lines.append(
                f"  {name:<{width}}  12*sum(mu) = "
                f"{_rational_text(twelve):>6}  rho = {_rational_text(rho)}{flag}"
            )
        return "\n".join(lines)


def _counts(table: TypeTable, row: tuple) -> Counter:
    """The search row's multiset, as ``OrbifoldConfig.counts`` holds it."""
    return Counter({t: c for t, c in zip(table.types, row[0]) if c})


def enumerate_configurations(degree: int, mode: str = WITH_EXCLUSIONS) -> EnumerationResult:
    """Enumerate every configuration satisfying the degree's constraints.

    One depth-first search over count vectors, in descending lexicographic
    order, on the degree's :class:`TypeTable`; a vector is kept when every
    exclusion rule passes its counts (always, in ``inequality-only``).  The
    result's reports are built on access; only the smooth case's is built
    here, by :func:`check_config`.
    """
    _validated_mode(mode)
    rules = rules_for_degree(degree)
    table, _ = _degree_table(degree)
    rows = _search(table)
    if mode == WITH_EXCLUSIONS:
        rows = [
            row
            for row in rows
            if all(r(_counts(table, row)) for r in rules.exclusion_rules)
        ]
    smooth = check_config(OrbifoldConfig(degree=degree, singularities=()), mode)
    return EnumerationResult(degree, mode, _SearchReports(degree, mode, rows), smooth, rules)
