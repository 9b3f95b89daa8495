"""Exact quotient-singularity invariants and Del Pezzo degeneration bookkeeping.

The package computes, in exact rational arithmetic throughout:

- Dedekind sums of cyclic quotient singularities, evaluated as an
  integer cyclic convolution (:mod:`orbcalc.dedekind`);
- orbifold Riemann-Roch correction terms mu, local group orders and
  Milnor numbers for the singularity types arising in non-collapsed
  limits of Kähler-Einstein Del Pezzo surfaces (:mod:`orbcalc.catalog`);
- orbifold Euler numbers, limit Euler numbers, weighted-plane curve
  genera, and bubble-energy ledgers (:mod:`orbcalc.invariants`);
- the exhaustive list of singularity configurations allowed by the
  energy budget 0 < 12*sum(mu) < 12 - d (:mod:`orbcalc.enumerator`).

The ``orbcalc`` command line exposes all of it (:mod:`orbcalc.cli`).
Exact Q(zeta_r) arithmetic, an independent oracle for the Dedekind sums
that only the tests use, lives in :mod:`orbcalc.cyclotomic`; importing
the package does not load it.
"""

from .catalog import (
    ADE,
    CyclicQuotient,
    NotTabulatedError,
    SingularityParseError,
    SingularityType,
    format_singularity,
    format_singularity_list,
    group_order,
    milnor_number,
    mu_anticanonical,
    mu_canonical_square,
    parse_singularity,
    parse_singularity_list,
)
from .dedekind import (
    DedekindInput,
    dedekind_sum,
    dedekind_sum_float_oracle,
    sigma,
)
from .enumerator import (
    EXCLUSION_RULES,
    INEQUALITY_ONLY,
    MODES,
    WITH_EXCLUSIONS,
    DegreeRules,
    EnumerationResult,
    ExclusionRule,
    check_config,
    check_pair_rule,
    enumerate_configurations,
    rules_for_degree,
)
from .invariants import (
    ANTICANONICAL,
    CANONICAL_SQUARE,
    MIN_BUBBLE_ENERGY_UNITS,
    BubbleBounds,
    ConstraintReport,
    EnergyLedger,
    HrrMilnorReport,
    IdentityCheck,
    OrbifoldConfig,
    bubble_count_bounds,
    bubble_energy_from_mu,
    chi_limit,
    chi_orb_from_chi,
    energy_ledger,
    euler_double_cover,
    genus_weighted_plane_curve,
    hrr_milnor_check,
)
from .rationals import (
    Rational,
    as_rational,
    format_rational,
    parse_rational,
    rational_from_json,
    rational_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "ADE",
    "ANTICANONICAL",
    "BubbleBounds",
    "CANONICAL_SQUARE",
    "ConstraintReport",
    "CyclicQuotient",
    "DedekindInput",
    "DegreeRules",
    "EXCLUSION_RULES",
    "EnergyLedger",
    "EnumerationResult",
    "ExclusionRule",
    "HrrMilnorReport",
    "INEQUALITY_ONLY",
    "IdentityCheck",
    "MIN_BUBBLE_ENERGY_UNITS",
    "MODES",
    "NotTabulatedError",
    "OrbifoldConfig",
    "Rational",
    "SingularityParseError",
    "SingularityType",
    "WITH_EXCLUSIONS",
    "as_rational",
    "bubble_count_bounds",
    "bubble_energy_from_mu",
    "check_config",
    "check_pair_rule",
    "chi_limit",
    "chi_orb_from_chi",
    "dedekind_sum",
    "dedekind_sum_float_oracle",
    "energy_ledger",
    "enumerate_configurations",
    "euler_double_cover",
    "format_rational",
    "format_singularity",
    "format_singularity_list",
    "genus_weighted_plane_curve",
    "group_order",
    "hrr_milnor_check",
    "milnor_number",
    "mu_anticanonical",
    "mu_canonical_square",
    "parse_rational",
    "parse_singularity",
    "parse_singularity_list",
    "rational_from_json",
    "rational_to_json",
    "rules_for_degree",
    "sigma",
]
