from collections import Counter
from fractions import Fraction

import pytest

from orbcalc.catalog import ADE, CyclicQuotient, sort_key
from orbcalc.invariants import (
    ANTICANONICAL,
    CANONICAL_SQUARE,
    MIN_BUBBLE_ENERGY_UNITS,
    IdentityCheck,
    OrbifoldConfig,
    bubble_count_bounds,
    bubble_energy_from_mu,
    chi_limit,
    chi_orb_from_chi,
    euler_double_cover,
    genus_weighted_plane_curve,
    hrr_milnor_check,
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
