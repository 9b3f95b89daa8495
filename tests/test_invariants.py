import dataclasses
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbcalc.catalog import (
    ADE,
    CyclicQuotient,
    group_order,
    ledger_terms,
    mu_anticanonical,
    sort_key,
)
from orbcalc.enumerator import check_config
from orbcalc.invariants import (
    ANTICANONICAL,
    CANONICAL_SQUARE,
    MIN_BUBBLE_ENERGY_UNITS,
    PICARD_VERDICT,
    BubbleBounds,
    ConstraintReport,
    HrrMilnorReport,
    IdentityCheck,
    OrbifoldConfig,
    bubble_count_bounds,
    bubble_energy_from_mu,
    chi_limit,
    chi_orb_from_chi,
    euler_double_cover,
    genus_weighted_plane_curve,
    hrr_milnor_check,
    verdict_items,
)

A = lambda k: ADE("A", k)
D = lambda k: ADE("D", k)
Q = CyclicQuotient

TWO_QUARTER_POINTS = (Q(4, 1, 1), Q(4, 1, 1))
DEGREE2_EXAMPLE = OrbifoldConfig(
    degree=2, singularities=TWO_QUARTER_POINTS, euler_topological=10
)
DEGREE1_SINGS = (A(8), Q(9, 1, 2), Q(9, 1, 2))
DEGREE1_EXAMPLE = OrbifoldConfig(
    degree=1, singularities=DEGREE1_SINGS, euler_topological=3
)


def test_chi_orb_published_values():
    assert chi_orb_from_chi(10, TWO_QUARTER_POINTS) == Fraction(17, 2)
    assert chi_orb_from_chi(3, DEGREE1_SINGS) == Fraction(1, 3)
    assert chi_orb_from_chi(12, ()) == 12


def test_bubble_energy_both_bundles():
    assert bubble_energy_from_mu(TWO_QUARTER_POINTS) == Fraction(3, 2)
    assert bubble_energy_from_mu(DEGREE1_SINGS) == Fraction(32, 3)
    assert bubble_energy_from_mu((D(4),), CANONICAL_SQUARE) == Fraction(39, 8)
    assert bubble_energy_from_mu((), ANTICANONICAL) == 0
    with pytest.raises(ValueError):
        bubble_energy_from_mu((A(1),), "adjoint")


def test_chi_limit_published_values():
    assert chi_limit(DEGREE2_EXAMPLE) == 10
    assert chi_limit(DEGREE1_EXAMPLE) == 11


def test_chi_limit_needs_chi():
    with pytest.raises(ValueError):
        chi_limit(OrbifoldConfig(degree=2, singularities=TWO_QUARTER_POINTS))


def test_genus_weighted_plane_curve():
    assert genus_weighted_plane_curve((1, 1, 4), 8) == 3
    # the projective plane: degree-d plane curves have genus (d-1)(d-2)/2
    for d in range(1, 10):
        expected = Fraction((d - 1) * (d - 2), 2)
        assert genus_weighted_plane_curve((1, 1, 1), d) == expected
    with pytest.raises(ValueError):
        genus_weighted_plane_curve((1, 0, 4), 8)
    with pytest.raises(ValueError):
        genus_weighted_plane_curve((1, 1, 4), 0)


def test_euler_double_cover():
    genus = genus_weighted_plane_curve((1, 1, 4), 8)
    assert genus == 3
    chi_branch = 2 - 2 * genus
    assert euler_double_cover(3, chi_branch) == 10
    assert euler_double_cover(3, 3) == 3


def test_bubble_count_bounds_windows():
    exact = bubble_count_bounds(Fraction(3, 2))
    assert (exact.min_count, exact.max_count, exact.exact_fit) == (1, 2, True)
    assert exact.violation is None

    loose = bubble_count_bounds(Fraction(2))
    assert (loose.min_count, loose.max_count, loose.exact_fit) == (1, 2, False)

    single = bubble_count_bounds(Fraction(8, 9))
    assert (single.min_count, single.max_count, single.exact_fit) == (1, 1, False)

    zero = bubble_count_bounds(Fraction(0))
    assert (zero.min_count, zero.max_count, zero.exact_fit) == (0, 0, True)

    below = bubble_count_bounds(Fraction(1, 2))
    assert (below.min_count, below.max_count) == (0, 0)
    assert below.violation == "energy below one quantum"

    custom = bubble_count_bounds(Fraction(3), Fraction(1, 2))
    assert (custom.min_count, custom.max_count, custom.exact_fit) == (1, 6, True)


def _reference_bubble_bounds(total, quantum):
    if total == 0:
        return BubbleBounds(0, 0, True)
    if total < quantum:
        return BubbleBounds(0, 0, False, violation="energy below one quantum")
    max_count, rest = divmod(total, quantum)
    return BubbleBounds(1, max_count, rest == 0)


@st.composite
def _bubble_inputs(draw):
    quantum = draw(st.fractions(min_value=Fraction(1, 1000), max_value=100, max_denominator=1000))
    kind = draw(st.sampled_from(("zero", "below", "multiple", "any")))
    if kind == "zero":
        total = Fraction(0)
    elif kind == "below":
        share = draw(st.fractions(min_value=0, max_value=1, max_denominator=1000))
        total = quantum * share if 0 < share < 1 else quantum / 2
    elif kind == "multiple":
        total = quantum * draw(st.integers(min_value=1, max_value=200))
    else:
        total = draw(st.fractions(min_value=0, max_value=1000, max_denominator=10**6))
    return total, quantum


@given(_bubble_inputs())
@settings(max_examples=300, deadline=None)
def test_bubble_count_bounds_matches_fraction_divmod(case):
    total, quantum = case
    bounds = bubble_count_bounds(total, quantum)
    assert bounds == _reference_bubble_bounds(total, quantum)
    assert type(bounds.max_count) is int
    default = bubble_count_bounds(total)
    assert default == _reference_bubble_bounds(total, MIN_BUBBLE_ENERGY_UNITS)


def test_bubble_count_bounds_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bubble_count_bounds(Fraction(-1))
    with pytest.raises(ValueError):
        bubble_count_bounds(Fraction(1), Fraction(0))
    assert MIN_BUBBLE_ENERGY_UNITS == Fraction(3, 4)


def test_hrr_milnor_derived_picard_rank():
    report = hrr_milnor_check(DEGREE1_EXAMPLE)
    assert report.milnor_ledger.holds
    assert report.picard_rank == 1
    assert not report.picard_provided
    assert report.picard_ok


def test_hrr_milnor_smooth_case():
    for degree in (1, 2, 3, 4):
        report = hrr_milnor_check(OrbifoldConfig(degree=degree, singularities=()))
        assert report.picard_rank == 10 - degree
        assert report.picard_ok
        assert report.milnor_ledger.holds


def test_hrr_milnor_with_provided_rank():
    good = hrr_milnor_check(
        OrbifoldConfig(degree=1, singularities=DEGREE1_SINGS, picard_rank=1)
    )
    assert good.picard_provided and good.picard_noether.holds
    bad = hrr_milnor_check(
        OrbifoldConfig(degree=1, singularities=DEGREE1_SINGS, picard_rank=2)
    )
    assert bad.picard_provided and not bad.picard_noether.holds
    assert not bad.picard_ok


def test_hrr_milnor_ledger_holds_per_type():
    # the per-point identity 12*mu = (1 - 1/n) + nu, summed over any multiset
    types = [A(k) for k in range(1, 9)] + [D(4), Q(4, 1, 1), Q(8, 1, 3), Q(9, 1, 2)]
    for t in types:
        report = hrr_milnor_check(OrbifoldConfig(degree=1, singularities=(t, t)))
        assert report.milnor_ledger.holds


# the degree-1 table, two cyclic types with negative mu, and A_k up to k = 20,
# whose rows have denominators the degree tables never combine
_LEDGER_TYPES = (
    [A(k) for k in range(1, 21)]
    + [D(4), Q(4, 1, 1), Q(8, 1, 3), Q(9, 1, 2), Q(5, 1, 2), Q(7, 1, 3)]
)


@pytest.mark.parametrize("with_rank", [False, True])
@given(
    st.lists(st.sampled_from(_LEDGER_TYPES), max_size=14),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_hrr_milnor_check_equals_fraction_ledger_sum(with_rank, sings, degree, rank):
    picard = rank if with_rank else None
    sum_one_minus = sum_milnor = twelve_mu = Fraction(0)
    for s in sings:
        one_minus, nu, twelve = ledger_terms(s)
        assert one_minus == 1 - Fraction(1, group_order(s))
        assert twelve == 12 * mu_anticanonical(s)
        sum_one_minus += one_minus
        sum_milnor += nu
        twelve_mu += twelve
    target = Fraction(10 - degree)
    rho = Fraction(picard) if with_rank else target - twelve_mu + sum_one_minus
    expected = HrrMilnorReport(
        IdentityCheck("milnor_ledger", sum_one_minus + sum_milnor, twelve_mu),
        IdentityCheck("picard_noether", rho + twelve_mu - sum_one_minus, target),
        rho,
        with_rank,
        twelve_mu,
    )
    report = hrr_milnor_check(
        OrbifoldConfig(degree=degree, singularities=tuple(sings), picard_rank=picard)
    )
    assert report == expected
    assert report.picard_ok == expected.picard_ok
    for value in (
        report.picard_rank,
        report.twelve_sum_mu,
        report.milnor_ledger.lhs,
        report.milnor_ledger.rhs,
        report.picard_noether.lhs,
        report.picard_noether.rhs,
    ):
        assert type(value) is Fraction


def test_hrr_milnor_needs_degree():
    with pytest.raises(ValueError):
        hrr_milnor_check(OrbifoldConfig(degree=None, singularities=(A(1),)))


def test_identity_check_shape():
    check = IdentityCheck("demo", Fraction(1, 2), Fraction(1, 2))
    assert check.holds
    blob = check.to_json()
    assert blob["lhs"] == {"num": 1, "den": 2} and blob["holds"]
    assert not IdentityCheck("demo", Fraction(1), Fraction(2)).holds


def test_orbifold_config_normalizes_and_validates():
    config = OrbifoldConfig(degree=1, singularities=(Q(9, 1, 2), A(8), Q(9, 1, 2)))
    assert config.singularities == DEGREE1_SINGS
    assert config.notation() == "A8, 2x 1/9(1,2)"
    assert config.counts == Counter(config.singularities)
    assert list(config.counts) == sorted(config.counts, key=sort_key)
    with pytest.raises(ValueError):
        OrbifoldConfig(degree=5, singularities=())
    with pytest.raises(ValueError):
        OrbifoldConfig(degree=1, singularities=(), picard_rank=0)


# Values for the integer-decided verdicts: negative, zero, integral and
# non-integral, as Fractions or as plain ints.
_RATIONALS = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30).map(Fraction),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
)


@st.composite
def _rational_pairs(draw):
    """Two rationals, often equal in value or sharing a numerator or denominator."""
    a = draw(_RATIONALS)
    num, den = a.numerator, a.denominator
    other = draw(st.integers(min_value=-30, max_value=30))
    kind = draw(
        st.sampled_from(
            ("free", "same object", "equal copy", "same numerator", "same denominator")
        )
    )
    if kind == "free":
        return a, draw(_RATIONALS)
    if kind == "same object":
        return a, a
    if kind == "equal copy":
        return a, (num if den == 1 and draw(st.booleans()) else Fraction(num, den))
    if kind == "same numerator":
        return a, Fraction(num, draw(st.integers(min_value=1, max_value=40)))
    return a, Fraction(other, den)


def _report_with(twelve_sum_mu, budget, rho, noether_lhs, noether_rhs):
    config = OrbifoldConfig(degree=1, singularities=())
    hrr = HrrMilnorReport(
        IdentityCheck("milnor_ledger", twelve_sum_mu, twelve_sum_mu),
        IdentityCheck("picard_noether", noether_lhs, noether_rhs),
        rho,
        False,
        twelve_sum_mu,
    )
    return ConstraintReport(
        config, twelve_sum_mu, budget, hrr, BubbleBounds(0, 0, True), True
    )


@given(_rational_pairs(), _rational_pairs(), _rational_pairs())
@settings(max_examples=400, deadline=None)
def test_integer_verdicts_equal_the_fraction_expressions(energy, rho_pair, noether):
    t, budget = energy
    rho = rho_pair[0]
    lhs, rhs = noether
    report = _report_with(t, budget, rho, lhs, rhs)
    holds = lhs == rhs
    assert report.hrr.picard_noether.holds is holds
    assert report.budget_ok is (0 < t < budget)
    assert report.hrr.picard_ok is (rho.denominator == 1 and rho >= 1 and holds)


_REPORT_CLASSES = (OrbifoldConfig, IdentityCheck, BubbleBounds, HrrMilnorReport, ConstraintReport)


def _compared_fields(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj) if f.compare)


def test_report_classes_are_slotted_with_dataclass_eq_and_hash():
    report = hrr_milnor_check(DEGREE1_EXAMPLE)
    constraint = check_config(DEGREE1_EXAMPLE)
    samples = (DEGREE1_EXAMPLE, report.milnor_ledger, constraint.bubbles, report, constraint)
    for cls, obj in zip(_REPORT_CLASSES, samples):
        assert type(obj) is cls
        assert "__slots__" in cls.__dict__
        assert not hasattr(obj, "__dict__")
        twin = dataclasses.replace(obj)
        assert twin == obj and twin is not obj
        if cls is ConstraintReport:
            assert cls.__hash__ is None  # mutable, so unhashable, as before
        else:
            assert hash(twin) == hash(obj) == hash(_compared_fields(obj))
    assert DEGREE1_EXAMPLE != dataclasses.replace(DEGREE1_EXAMPLE, picard_rank=1)
    assert report.milnor_ledger != dataclasses.replace(report.milnor_ledger, name="other")
    assert constraint != dataclasses.replace(constraint, allowed_types_ok=False)
    # counts is derived, so it takes no part in == or hash
    assert "counts" not in [f.name for f in dataclasses.fields(OrbifoldConfig) if f.compare]


_VERDICT_HEAD = (
    "budget_ok",
    "milnor_ledger_holds",
    "picard_rank_is_positive_integer",
    "types_allowed_for_degree",
)


def test_verdict_items_truth_table():
    bools = (False, True)
    exclusion_sets = [{}] + [
        dict(zip(("rule-a", "rule-b")[:n], passed))
        for n in (1, 2)
        for passed in itertools.product(bools, repeat=n)
    ]
    for budget, ledger, picard, types in itertools.product(bools, repeat=4):
        for chi in (None, False, True):
            for exclusions in exclusion_sets:
                items = verdict_items(budget, ledger, picard, types, chi, exclusions)
                names = [name for name, _ in items]
                expected = list(_VERDICT_HEAD)
                if chi is not None:
                    expected.append("chi_limit_matches_degree")
                expected += [f"exclusion:{name}" for name in exclusions]
                assert names == expected + ["admissible"]
                assert [v for _, v in items[:4]] == [budget, ledger, picard, types]
                assert items[PICARD_VERDICT] == ("picard_rank_is_positive_integer", picard)
                admissible = (
                    budget and picard and types and chi is not False
                    and all(exclusions.values())
                )
                assert items[-1] == ("admissible", admissible)
                assert all(type(v) is bool for _, v in items)
    # the Milnor ledger is reported, not required
    ledger_false = verdict_items(True, False, True, True, None, {"rule-a": True})
    assert dict(ledger_false)["admissible"] is True
