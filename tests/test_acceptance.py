"""Acceptance gate: the seven headline guarantees, one test and one line each.

Each test prints a single PASS line to the terminal (bypassing capture)
after its assertions hold, so a green run shows the seven guarantees at a
glance.  Timed criteria clear the arithmetic caches first and measure
wall-clock time from scratch.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from orbcalc import catalog, enumerator
from orbcalc.catalog import ADE, CyclicQuotient, mu_anticanonical
from orbcalc.dedekind import DedekindInput, dedekind_sum, dedekind_sum_float_oracle, sigma
from orbcalc.enumerator import (
    INEQUALITY_ONLY,
    WITH_EXCLUSIONS,
    check_config,
    check_pair_rule,
    enumerate_configurations,
    rules_for_degree,
)
from orbcalc.invariants import (
    OrbifoldConfig,
    bubble_count_bounds,
    chi_limit,
    chi_orb_from_chi,
    euler_double_cover,
    genus_weighted_plane_curve,
    hrr_milnor_check,
)

import cyclotomic_oracle as cyclotomic
from cyclotomic_oracle import CyclotomicElement, root_of_unity
from test_enumerator import brute_force_multisets

A = lambda k: ADE("A", k)
D = lambda k: ADE("D", k)
Q = CyclicQuotient


def _clear_arithmetic_caches():
    cyclotomic.cyclotomic_polynomial.cache_clear()
    cyclotomic._field.cache_clear()
    catalog.mu_anticanonical.cache_clear()
    catalog.ledger_row.cache_clear()
    enumerator._degree_table.cache_clear()


def _report(capsys, slot, name, detail):
    with capsys.disabled():
        print(f"\n[acceptance {slot}/7] PASS {name}: {detail}")


def test_criterion_1_dedekind_regression(capsys):
    _clear_arithmetic_caches()
    start = time.perf_counter()
    values = {
        (4, (1, 1), 2): sigma(4, (1, 1), 2),
        (4, (1, 1), 0): sigma(4, (1, 1), 0),
        (8, (1, 3), 4): sigma(8, (1, 3), 4),
        (8, (1, 3), 0): sigma(8, (1, 3), 0),
        (9, (1, 2), 6): sigma(9, (1, 2), 6),
        (9, (1, 2), 0): sigma(9, (1, 2), 0),
    }
    elapsed = time.perf_counter() - start
    assert values[(4, (1, 1), 2)] == values[(4, (1, 1), 0)] == Fraction(1, 16)
    assert values[(8, (1, 3), 4)] == values[(8, (1, 3), 0)] == Fraction(5, 32)
    assert values[(9, (1, 2), 6)] == values[(9, (1, 2), 0)] == Fraction(2, 27)
    assert elapsed < 1.0
    _report(
        capsys, 1, "Dedekind regression",
        f"1/16, 5/32, 2/27 at both index routes, exact, in {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_mu_catalog_two_path(capsys):
    for k in range(1, 9):
        expected = Fraction(k + 1) - Fraction(1, k + 1)
        closed = 12 * mu_anticanonical(A(k))
        through_sigma = 12 * mu_anticanonical(Q(k + 1, 1, k))
        assert closed == expected
        assert through_sigma == expected
    assert 12 * mu_anticanonical(D(4)) == Fraction(39, 8)
    assert 12 * mu_anticanonical(Q(4, 1, 1)) == Fraction(3, 4)
    assert 12 * mu_anticanonical(Q(8, 1, 3)) == Fraction(15, 8)
    assert 12 * mu_anticanonical(Q(9, 1, 2)) == Fraction(8, 9)
    _report(
        capsys, 2, "correction-term catalog",
        "A1..A8 closed forms equal the Dedekind route; D4 = 39/8; "
        "cyclic types 3/4, 15/8, 8/9",
    )


def test_criterion_3_example_replay(capsys):
    genus = genus_weighted_plane_curve((1, 1, 4), 8)
    assert genus == 3
    chi_cover = euler_double_cover(3, 2 - 2 * genus)
    assert chi_cover == 10
    two_quarters = (Q(4, 1, 1), Q(4, 1, 1))
    assert chi_orb_from_chi(chi_cover, two_quarters) == Fraction(17, 2)
    degree1_sings = (A(8), Q(9, 1, 2), Q(9, 1, 2))
    assert chi_orb_from_chi(3, degree1_sings) == Fraction(1, 3)
    assert chi_limit(
        OrbifoldConfig(degree=2, singularities=two_quarters, euler_topological=10)
    ) == 10
    assert chi_limit(
        OrbifoldConfig(degree=1, singularities=degree1_sings, euler_topological=3)
    ) == 11
    _report(
        capsys, 3, "worked-example replay",
        "genus 3, chi 10, chi_orb 17/2 and 1/3, chi_limit 10 and 11, all exact",
    )


def test_criterion_4_multiplicity_bounds(capsys):
    _clear_arithmetic_caches()
    start = time.perf_counter()
    degree1 = enumerate_configurations(1, INEQUALITY_ONLY)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0

    assert enumerate_configurations(3, WITH_EXCLUSIONS).max_multiplicity()["A1"] == 5

    d2_strict = enumerate_configurations(2, WITH_EXCLUSIONS).max_multiplicity()
    d2_loose = enumerate_configurations(2, INEQUALITY_ONLY).max_multiplicity()
    assert (d2_strict["A1"], d2_strict["A2"], d2_strict["A3"]) == (6, 3, 2)
    assert d2_loose["A4"] == 2 and d2_strict["A4"] == 1

    maxes = degree1.max_multiplicity()
    assert [maxes[f"A{k}"] for k in range(1, 9)] == [7, 4, 2, 2, 1, 1, 1, 1]
    assert maxes["D4"] == 2
    assert maxes["1/8(1,3)"] == 5

    for k in range(1, 9):
        for l in range(k, 9):
            assert check_pair_rule(1, k, l) == (k + l <= 9)
    for report in degree1.reports:
        counts = Counter(report.config.singularities)
        ak_present = [t.index for t in counts if isinstance(t, ADE) and t.family == "A"]
        for k, l in itertools.combinations_with_replacement(sorted(ak_present), 2):
            if k == l and counts[A(k)] < 2:
                continue
            assert k + l <= 9
        if counts[D(4)] == 2:
            extra = {t: c for t, c in counts.items() if t != D(4)}
            assert sum(extra.values()) <= 1 and set(extra) <= {Q(4, 1, 1), Q(9, 1, 2)}
    _report(
        capsys, 4, "multiplicity bounds",
        f"d=3/2/1 maxima, A4 refinement 2->1, pair rule, D4 companion rule; "
        f"full d=1 search ({len(degree1.reports)} configurations) in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_5_hrr_milnor(capsys):
    checked = 0
    for degree in (1, 2, 3, 4):
        for report in enumerate_configurations(degree, INEQUALITY_ONLY).reports:
            assert report.hrr.milnor_ledger.holds
            checked += 1
    example = OrbifoldConfig(
        degree=1, singularities=(A(8), Q(9, 1, 2), Q(9, 1, 2))
    )
    assert check_config(example).hrr.picard_rank == 1
    for degree in (1, 2, 3, 4):
        smooth = hrr_milnor_check(OrbifoldConfig(degree=degree, singularities=()))
        assert smooth.picard_rank == 10 - degree
    _report(
        capsys, 5, "ledger identities",
        f"Milnor ledger exact on all {checked} enumerated configurations; "
        "derived rank 1 on the degree-1 quotient example; smooth rank 10-d",
    )


def test_criterion_6_bubble_ledger(capsys):
    bounds = bubble_count_bounds(Fraction(3, 2))
    assert bounds.exact_fit
    assert bounds.max_count == 2
    assert bounds.min_count == 1
    _report(
        capsys, 6, "bubble ledger",
        "total 3/2 at quantum 3/4: exact fit at 2 bubbles",
    )


def _random_element(rng, r):
    phi = cyclotomic.euler_phi(r)
    return CyclotomicElement(
        r,
        tuple(
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(phi)
        ),
    )


def test_criterion_7a_sigma_periodicity(capsys):
    rng = random.Random(101)
    cases = 0
    while cases < 500:
        r = rng.randrange(2, 80)
        weights = tuple(rng.randrange(0, r) for _ in range(rng.choice((1, 2, 3))))
        index = rng.randrange(0, 3 * r)
        assert sigma(r, weights, index) == sigma(r, weights, index + r)
        cases += 1
    _report(
        capsys, 7, "properties (a): index periodicity",
        f"sigma_i = sigma_(i+r) on {cases} random inputs",
    )


def test_criterion_7b_exact_vs_float_oracle(capsys):
    rng = random.Random(202)
    cases = 0
    while cases < 500:
        r = rng.randrange(2, 201)
        weights = tuple(
            rng.randrange(1, r) for _ in range(rng.choice((1, 1, 2, 2, 2, 3)))
        )
        index = rng.randrange(0, r)
        inp = DedekindInput(r, weights, index)
        exact = dedekind_sum(inp)
        approx = dedekind_sum_float_oracle(inp)
        assert abs(approx - float(exact)) < 1e-9
        cases += 1
    _report(
        capsys, 7, "properties (b): float oracle",
        f"exact and complex-double evaluations within 1e-9 on {cases} inputs, r <= 200",
    )


def test_criterion_7c_field_laws(capsys):
    rng = random.Random(303)
    orders = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16]
    law_checks = 0
    for _ in range(60):
        r = rng.choice(orders)
        a, b, c = (_random_element(rng, r) for _ in range(3))
        one = CyclotomicElement.one(r)
        zero = CyclotomicElement.zero(r)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a - a == zero
        if not a.is_zero():
            assert a * a.inverse() == one
        law_checks += 1
    for r in range(2, 30):
        for e in range(1, r):
            assert root_of_unity(r, e) * root_of_unity(r, r - e) == CyclotomicElement.one(r)
    _report(
        capsys, 7, "properties (c): field laws",
        f"ring axioms and exact inverses on {law_checks} random triples "
        "plus all root-of-unity pairings for r < 30",
    )


def test_criterion_7d_dfs_vs_brute_force(capsys):
    total = 0
    for degree in (4, 3, 2, 1):
        rules = rules_for_degree(degree)
        listed = {
            tuple(Counter(r.config.singularities)[t] for t in rules.allowed_types)
            for r in enumerate_configurations(degree, INEQUALITY_ONLY).reports
        }
        assert listed == brute_force_multisets(degree)
        total += len(listed)
    _report(
        capsys, 7, "properties (d): search completeness",
        f"DFS equals the bounded brute-force oracle on all four degrees "
        f"({total} configurations)",
    )


def test_criterion_7e_deterministic_output(capsys):
    runs = []
    for _ in range(2):
        runs.append(enumerate_configurations(1, INEQUALITY_ONLY).to_json())
    assert len(set(runs)) == 1
    _report(
        capsys, 7, "properties (e): determinism",
        "repeated degree-1 runs emit byte-identical JSON",
    )
