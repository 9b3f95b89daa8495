import itertools
import json
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import pytest

from orbcalc import enumerator
from orbcalc.catalog import (
    ADE,
    CyclicQuotient,
    NotTabulatedError,
    format_singularity_list,
    mu_anticanonical,
    sort_key,
)
from orbcalc.enumerator import (
    EXCLUSION_RULES,
    INEQUALITY_ONLY,
    MODES,
    WITH_EXCLUSIONS,
    EnumerationResult,
    ExclusionRule,
    check_config,
    check_pair_rule,
    enumerate_configurations,
    rules_for_degree,
)
from orbcalc.invariants import MIN_BUBBLE_ENERGY_UNITS, OrbifoldConfig

A = lambda k: ADE("A", k)
D = lambda k: ADE("D", k)
Q = CyclicQuotient


def brute_force_multisets(degree):
    """Reference enumeration: filter the full bounded multiplicity box.

    Every valid configuration has each type's multiplicity at most
    floor(budget / 12mu).  The degree-1 box has ~2*10^7 corners, so the
    box is split in half and the halves are joined on the energy bound;
    the search space is identical, only the iteration order differs.
    """
    rules = rules_for_degree(degree)
    energies = [12 * mu_anticanonical(t) for t in rules.allowed_types]
    budget = rules.budget
    caps = [int(budget / e) for e in energies]

    def boxed(start, stop):
        vectors = []
        for combo in itertools.product(*(range(c + 1) for c in caps[start:stop])):
            energy = sum(
                (c * e for c, e in zip(combo, energies[start:stop])), Fraction(0)
            )
            if energy < budget:
                vectors.append((combo, energy))
        return vectors

    half = len(caps) // 2
    left = boxed(0, half)
    right = boxed(half, len(caps))
    right.sort(key=lambda item: item[1])
    right_energies = [energy for _, energy in right]

    found = set()
    for left_combo, left_energy in left:
        cutoff = bisect_left(right_energies, budget - left_energy)
        for right_combo, right_energy in right[:cutoff]:
            if left_energy + right_energy > 0:
                found.add(left_combo + right_combo)
    return found


@pytest.mark.parametrize("degree", [4, 3, 2, 1])
def test_dfs_matches_brute_force_oracle(degree):
    result = enumerate_configurations(degree, INEQUALITY_ONLY)
    rules = rules_for_degree(degree)
    listed = {
        tuple(Counter(r.config.singularities)[t] for t in rules.allowed_types)
        for r in result.reports
    }
    assert listed == brute_force_multisets(degree)
    assert len(listed) == len(result.reports)  # no duplicates


def test_budget_is_strict_on_both_sides():
    for degree in (4, 3, 2, 1):
        for mode in MODES:
            result = enumerate_configurations(degree, mode)
            budget = rules_for_degree(degree).budget
            for report in result.reports:
                assert 0 < report.twelve_sum_mu < budget
                assert report.budget_ok


def test_reports_come_in_descending_count_vector_order():
    rules = rules_for_degree(2)
    result = enumerate_configurations(2, INEQUALITY_ONLY)
    vectors = [
        tuple(Counter(r.config.singularities)[t] for t in rules.allowed_types)
        for r in result.reports
    ]
    assert vectors == sorted(vectors, reverse=True)


def test_energy_table_is_exact_integer_scaling():
    # L, the lcm of the degree's ledger-row denominators
    for degree, scale in ((1, 2520), (2, 60), (3, 6), (4, 2)):
        energies, budget = enumerator._energy_table(degree)
        assert budget == (12 - degree) * scale
        types = rules_for_degree(degree).allowed_types
        assert [Fraction(e, scale) for e in energies] == [
            12 * mu_anticanonical(t) for t in types
        ]
        assert all(type(e) is int and e > 0 for e in energies)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_from_counts_equals_public_constructor(degree):
    types = rules_for_degree(degree).allowed_types
    vectors = enumerator._descending_counts(*enumerator._energy_table(degree))
    rng = random.Random(degree)
    for vec in vectors:
        multiset = [t for t, c in zip(types, vec) for _ in range(c)]
        rng.shuffle(multiset)
        expected = OrbifoldConfig(degree=degree, singularities=tuple(multiset))
        config = OrbifoldConfig.from_counts(degree, types, vec)
        assert config == expected
        assert hash(config) == hash(expected)
        assert config.singularities == expected.singularities
        assert list(config.counts.items()) == list(expected.counts.items())
        assert type(config.counts) is Counter
        assert config.notation() == format_singularity_list(multiset)


def test_degree_rules_shapes():
    assert rules_for_degree(4).allowed_types == (A(1),)
    assert rules_for_degree(3).allowed_types == (A(1), A(2))
    assert rules_for_degree(2).allowed_types == (A(1), A(2), A(3), A(4), Q(4, 1, 1))
    assert rules_for_degree(1).allowed_types == tuple(
        A(k) for k in range(1, 9)
    ) + (D(4), Q(4, 1, 1), Q(8, 1, 3), Q(9, 1, 2))
    for degree in (1, 2, 3, 4):
        assert rules_for_degree(degree).budget == 12 - degree
        allowed = rules_for_degree(degree).allowed_types
        assert list(allowed) == sorted(allowed, key=sort_key)
    with pytest.raises(ValueError):
        rules_for_degree(5)
    with pytest.raises(ValueError):
        enumerate_configurations(0)
    with pytest.raises(ValueError):
        enumerate_configurations(1, "loose")


def test_published_max_multiplicities():
    assert enumerate_configurations(3, WITH_EXCLUSIONS).max_multiplicity()["A1"] == 5
    assert enumerate_configurations(3, INEQUALITY_ONLY).max_multiplicity()["A1"] == 5

    degree2_strict = enumerate_configurations(2, WITH_EXCLUSIONS).max_multiplicity()
    assert degree2_strict["A1"] == 6
    assert degree2_strict["A2"] == 3
    assert degree2_strict["A3"] == 2
    assert degree2_strict["A4"] == 1
    degree2_loose = enumerate_configurations(2, INEQUALITY_ONLY).max_multiplicity()
    assert degree2_loose["A4"] == 2

    degree1 = enumerate_configurations(1, INEQUALITY_ONLY).max_multiplicity()
    assert [degree1[f"A{k}"] for k in range(1, 9)] == [7, 4, 2, 2, 1, 1, 1, 1]
    assert degree1["D4"] == 2
    assert degree1["1/8(1,3)"] == 5


def test_max_multiplicity_scans_once_and_returns_a_fresh_dict(monkeypatch):
    result = enumerate_configurations(2, INEQUALITY_ONLY)
    first = result.max_multiplicity()
    # a second call must not read the reports again
    monkeypatch.setattr(result, "reports", None)
    first["A4"] = 99
    assert result.max_multiplicity()["A4"] == 2
    assert result.max_multiplicity() is not result.max_multiplicity()


def test_degree1_configuration_count_is_frozen():
    # regression pin for the full budget-only search; cross-checked against
    # the brute-force oracle above
    assert len(enumerate_configurations(1, INEQUALITY_ONLY).reports) == 1897


def test_pair_rule_matches_index_sum_threshold():
    for k in range(1, 9):
        for l in range(k, 9):
            assert check_pair_rule(1, k, l) == (k + l <= 9)
    with pytest.raises(ValueError):
        check_pair_rule(2, 1, 1)


def test_two_d4_companion_rule():
    # any surviving configuration with two D4 points can only add a single
    # 1/4(1,1) or a single 1/9(1,2)
    companions = set()
    for mode in MODES:
        for report in enumerate_configurations(1, mode).reports:
            counts = Counter(report.config.singularities)
            if counts[D(4)] != 2:
                continue
            extra = {t: c for t, c in counts.items() if t != D(4)}
            assert sum(extra.values()) <= 1
            assert set(extra) <= {Q(4, 1, 1), Q(9, 1, 2)}
            companions.add(frozenset(extra.items()))
    # all three possibilities are actually realized in the search
    assert companions == {
        frozenset(),
        frozenset({(Q(4, 1, 1), 1)}),
        frozenset({(Q(9, 1, 2), 1)}),
    }


def test_check_config_published_examples():
    admissible = check_config(
        OrbifoldConfig(degree=1, singularities=(D(4), D(4), Q(4, 1, 1)))
    )
    assert admissible.admissible
    over_budget = check_config(
        OrbifoldConfig(degree=1, singularities=(D(4), D(4), A(1)))
    )
    assert not over_budget.budget_ok
    assert over_budget.twelve_sum_mu == Fraction(45, 4)
    smooth = check_config(OrbifoldConfig(degree=4, singularities=()))
    assert smooth.is_smooth
    assert smooth.twelve_sum_mu == 0
    assert not smooth.admissible  # non-degenerating, not an admissible limit
    assert smooth.hrr.picard_rank == 6


def test_check_config_rejects_untabulated_types():
    with pytest.raises(NotTabulatedError, match="type not admissible for this analysis"):
        check_config(OrbifoldConfig(degree=1, singularities=(ADE("E", 6),)))


def test_check_config_flags_types_outside_degree_list():
    report = check_config(OrbifoldConfig(degree=3, singularities=(A(3),)))
    assert report.allowed_types_ok is False
    assert not report.admissible
    assert report.verdicts()["types_allowed_for_degree"] is False


def test_exclusion_rules_are_data():
    assert all(isinstance(rule, ExclusionRule) for rule in EXCLUSION_RULES)
    assert {rule.degree for rule in EXCLUSION_RULES} == {1, 2, 3, 4}
    assert all(rule.description for rule in EXCLUSION_RULES)
    # dropping every rule turns with-exclusions into the pure inequality
    bare = enumerate_configurations(2, WITH_EXCLUSIONS, exclusion_rules=())
    loose = enumerate_configurations(2, INEQUALITY_ONLY)
    assert [r.config.singularities for r in bare.reports] == [
        r.config.singularities for r in loose.reports
    ]
    assert bare.max_multiplicity()["A4"] == 2
    assert bare.rules.exclusion_rules == ()


def test_custom_exclusion_rule_injection():
    no_a1 = ExclusionRule(
        "ban-A1", 2, "demo rule: no A1 at all", lambda sings: A(1) not in sings
    )
    result = enumerate_configurations(2, WITH_EXCLUSIONS, exclusion_rules=(no_a1,))
    assert result.rules.exclusion_rules == (no_a1,)
    assert result.max_multiplicity()["A1"] == 0
    for report in result.reports:
        assert A(1) not in report.config.singularities
        assert report.exclusions == {"ban-A1": True}


def test_du_val_classification_rules():
    d2_rule = next(r for r in EXCLUSION_RULES if r.degree == 2)
    assert d2_rule.passes(())  # smooth case is not the rule's business
    assert d2_rule.passes((A(1), A(2)))
    assert d2_rule.passes((A(3), A(3)))
    assert not d2_rule.passes((A(3),))
    assert not d2_rule.passes((A(4), A(4)))
    assert d2_rule.passes((A(4), Q(4, 1, 1)))  # non-du-Val companion allowed

    d1_rule = next(r for r in EXCLUSION_RULES if r.degree == 1)
    assert d1_rule.passes(tuple(A(1) for _ in range(7)))
    assert d1_rule.passes((D(4), D(4)))
    assert not d1_rule.passes((D(4),))
    assert not d1_rule.passes((A(8),))
    assert not d1_rule.passes((D(4), D(4), A(1)))
    assert d1_rule.passes((A(8), Q(9, 1, 2)))

    d4_rule = next(r for r in EXCLUSION_RULES if r.degree == 4)
    assert d4_rule.passes((A(1), A(1)))
    assert not d4_rule.passes((A(1), A(1), A(1)))

    d3_rule = next(r for r in EXCLUSION_RULES if r.degree == 3)
    assert d3_rule.passes((A(1), A(1), A(1)))
    assert d3_rule.passes((A(2), A(2), A(2)))
    assert not d3_rule.passes((A(2), A(2)))
    assert not d3_rule.passes((A(1), A(2)))


def test_smooth_case_reported_separately():
    result = enumerate_configurations(3)
    assert result.smooth.is_smooth
    assert result.smooth.hrr.picard_rank == 7
    assert all(r.config.singularities for r in result.reports)
    assert "smooth" in result.smooth.to_text()


def test_milnor_ledger_holds_on_every_enumerated_configuration():
    for degree in (1, 2, 3, 4):
        for report in enumerate_configurations(degree, INEQUALITY_ONLY).reports:
            assert report.hrr.milnor_ledger.holds


def test_repeated_runs_are_byte_identical():
    for degree in (1, 2):
        first = enumerate_configurations(degree, INEQUALITY_ONLY)
        again = enumerate_configurations(degree, INEQUALITY_ONLY)
        assert first.to_json() == again.to_json()


def test_json_schema_keys():
    blob = enumerate_configurations(3, WITH_EXCLUSIONS).to_json_dict()
    assert list(blob) == ["degree", "mode", "configurations", "max_multiplicity"]
    entry = blob["configurations"][0]
    assert list(entry) == [
        "singularities",
        "twelve_sum_mu",
        "chi_orb_if_chi_known",
        "derived_picard_rank",
        "bubble_bounds",
        "verdicts",
    ]
    assert entry["chi_orb_if_chi_known"] is None
    assert set(entry["bubble_bounds"]) == {"min", "max", "exact_fit"}
    assert set(entry["twelve_sum_mu"]) == {"num", "den"}


def assert_writer_matches_dict(result):
    assert result.to_json() == json.dumps(result.to_json_dict(), indent=2)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_to_json_writes_the_bytes_of_the_dict_encoding(degree, mode):
    assert_writer_matches_dict(enumerate_configurations(degree, mode))


def test_to_json_escapes_rule_names_like_json_dumps():
    names = (
        'quote "q"',
        "back\\slash",
        "d\u00e9j\u00e0 vu \u2028 \U0001d54f",
        "tab\tnew\nline",
    )
    rules = [ExclusionRule(name, 2, "", lambda counts: True) for name in names]
    result = enumerate_configurations(2, WITH_EXCLUSIONS, exclusion_rules=rules)
    assert list(result.reports[0].exclusions) == list(names)
    assert_writer_matches_dict(result)
    no_rules = enumerate_configurations(2, WITH_EXCLUSIONS, exclusion_rules=())
    assert_writer_matches_dict(no_rules)


def test_to_json_with_no_surviving_configuration():
    reject_all = ExclusionRule("reject-all", 3, "", lambda counts: False)
    result = enumerate_configurations(3, WITH_EXCLUSIONS, exclusion_rules=(reject_all,))
    assert result.reports == []
    assert '"configurations": [],' in result.to_json()
    assert_writer_matches_dict(result)


def test_to_json_writes_every_field_a_report_can_carry():
    # a search never builds a bubble violation: every allowed type carries at
    # least one quantum of energy, so every non-empty configuration does too
    for degree in (1, 2, 3, 4):
        for t in rules_for_degree(degree).allowed_types:
            assert 12 * mu_anticanonical(t) >= MIN_BUBBLE_ENERGY_UNITS
    # so reports the search cannot produce are put in by hand: a violation,
    # a known chi (chi_orb and a chi_limit verdict) and no singularities
    negative = check_config(
        OrbifoldConfig(degree=1, singularities=(Q(5, 1, 2),), euler_topological=3)
    )
    assert negative.bubbles.violation == "negative total energy"
    known_chi = check_config(
        OrbifoldConfig(
            degree=1, singularities=(A(8), Q(9, 1, 2), Q(9, 1, 2)), euler_topological=3
        )
    )
    smooth = check_config(OrbifoldConfig(degree=1, singularities=()))
    result = EnumerationResult(
        1, WITH_EXCLUSIONS, [negative, known_chi, smooth], smooth, rules_for_degree(1)
    )
    assert_writer_matches_dict(result)
