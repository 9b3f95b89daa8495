import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbcalc.cyclotomic import CyclotomicElement, dedekind_sum_cyclotomic, root_of_unity
from orbcalc.dedekind import (
    FLOAT_ORACLE_MAX_ORDER,
    MAX_WORK,
    DedekindInput,
    _weight_vector,
    dedekind_sum,
    dedekind_sum_float_oracle,
    sigma,
)

REGRESSION_VALUES = [
    (4, (1, 1), 2, Fraction(1, 16)),
    (4, (1, 1), 0, Fraction(1, 16)),
    (8, (1, 3), 4, Fraction(5, 32)),
    (8, (1, 3), 0, Fraction(5, 32)),
    (9, (1, 2), 6, Fraction(2, 27)),
    (9, (1, 2), 0, Fraction(2, 27)),
]


@pytest.mark.parametrize("r, weights, index, expected", REGRESSION_VALUES)
def test_published_values(r, weights, index, expected):
    assert sigma(r, weights, index) == expected


def test_single_weight_closed_form():
    # sum over j of 1/(1 - zeta^j) = (r-1)/2, so sigma_0(1/r(1)) = (r-1)/(2r)
    for r in range(2, 25):
        assert sigma(r, (1,), 0) == Fraction(r - 1, 2 * r)


def test_a_series_through_the_sigma_rule():
    # A_k is the cyclic quotient 1/(k+1)(1, k); index -(b1+b2) = 0 mod r
    for k in range(1, 9):
        n = k + 1
        assert 12 * sigma(n, (1, k), 0) == Fraction(n) - Fraction(1, n)


def test_empty_sum_conventions():
    assert sigma(1, (0,), 0) == 0
    assert sigma(5, (0,), 3) == 0
    assert sigma(6, (2, 3), 1) == 0  # no j avoids both dead weights
    assert dedekind_sum(DedekindInput(4, (2, 1), 0)) == sigma(4, (2, 1), 0)


def test_input_normalization():
    inp = DedekindInput(9, (10, -7), 11)
    assert inp.weights == (1, 2)
    assert inp.index == 2
    with pytest.raises(ValueError):
        DedekindInput(0, (1,), 0)
    with pytest.raises(ValueError):
        DedekindInput(5, (), 0)


@given(
    st.integers(min_value=2, max_value=60),
    st.lists(st.integers(min_value=1, max_value=59), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=200),
)
@settings(max_examples=80, deadline=None)
def test_periodicity_in_the_index(r, weights, index):
    assert sigma(r, weights, index) == sigma(r, weights, index + r)
    assert sigma(r, weights, index) == sigma(r, weights, index - r)


@given(
    st.integers(min_value=2, max_value=40),
    st.lists(st.integers(min_value=1, max_value=39), min_size=2, max_size=3),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_weight_permutation_symmetry(r, weights, index):
    shuffled = list(weights)
    random.Random(0).shuffle(shuffled)
    assert sigma(r, weights, index) == sigma(r, shuffled, index)


@given(
    st.integers(min_value=2, max_value=40),
    st.lists(st.integers(min_value=-80, max_value=80), min_size=1, max_size=2),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_weights_reduce_mod_r(r, weights, index):
    shifted = [b + r for b in weights]
    assert sigma(r, weights, index) == sigma(r, shifted, index)


def test_float_oracle_agrees_on_regression_values():
    for r, weights, index, expected in REGRESSION_VALUES:
        approx = dedekind_sum_float_oracle(DedekindInput(r, weights, index))
        assert abs(approx - float(expected)) < 1e-12


def test_float_oracle_random_agreement():
    rng = random.Random(20260815)
    for _ in range(60):
        r = rng.randrange(2, 80)
        weights = tuple(rng.randrange(1, r) for _ in range(rng.choice((1, 2, 3))))
        index = rng.randrange(0, 2 * r)
        inp = DedekindInput(r, weights, index)
        assert abs(dedekind_sum_float_oracle(inp) - float(dedekind_sum(inp))) < 1e-9


def test_float_oracle_order_guard():
    with pytest.raises(ValueError):
        dedekind_sum_float_oracle(DedekindInput(FLOAT_ORACLE_MAX_ORDER + 1, (1,), 0))


def test_terms_match_manual_cyclotomic_assembly():
    # assemble sigma_1(1/5(1,2)) by hand in Q(zeta_5) and compare
    r = 5
    total = CyclotomicElement.zero(r)
    for j in range(1, r):
        term = root_of_unity(r, j)
        for b in (1, 2):
            term = term * (CyclotomicElement.one(r) - root_of_unity(r, (j * b) % r)).inverse()
        total = total + term
    assert total.to_rational() / r == sigma(5, (1, 2), 1)


def test_values_live_in_expected_denominator_lattice():
    # r * sigma is an algebraic integer combination that lands in (1/r)Z here
    for r in (4, 8, 9, 12):
        for index in range(r):
            value = sigma(r, (1, r - 1), index)
            assert (value * r * r).denominator == 1


def test_weight_vector_closed_form_matches_its_definition():
    # C_b[s] = (r-1)*g*[g | s] - 2 * sum of the k in [0, r) with b*k = s (mod r)
    for r in range(1, 31):
        for b in range(r):
            g = math.gcd(b, r)
            expected = [(r - 1) * g if s % g == 0 else 0 for s in range(r)]
            for k in range(r):
                expected[b * k % r] -= 2 * k
            assert list(_weight_vector(b, r)) == expected, (b, r)


def _inputs(max_r):
    # weights in [-3r, 3r] hit 0 mod r and non-coprime residues; indices may be
    # negative or far outside [0, r)
    return st.integers(min_value=1, max_value=max_r).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(
                st.integers(min_value=-3 * r, max_value=3 * r), min_size=1, max_size=4
            ),
            st.one_of(
                st.integers(min_value=-5 * r, max_value=5 * r),
                st.integers(min_value=-(10**30), max_value=10**30),
            ),
        )
    )


@given(_inputs(40))
@settings(max_examples=150, deadline=None)
def test_convolution_equals_cyclotomic_oracle(case):
    inp = DedekindInput(*case)
    assert dedekind_sum(inp) == dedekind_sum_cyclotomic(inp)


@given(_inputs(200))
@settings(max_examples=150, deadline=None)
def test_convolution_matches_float_oracle(case):
    inp = DedekindInput(*case)
    assert abs(dedekind_sum_float_oracle(inp) - float(dedekind_sum(inp))) < 1e-9


def test_three_routes_on_edge_cases():
    cases = [
        (1, (0,), 0),
        (1, (5, -3, 7, 0), -9),
        (7, (0,), 3),
        (7, (14, 3), 1),
        (12, (4, 6), 5),
        (12, (2, 3, 4, 6), -10**20),
        (30, (6, 10, 15), 10**15 + 7),
        (36, (9, 12, 24, 27), -71),
    ]
    for r, weights, index in cases:
        inp = DedekindInput(r, weights, index)
        exact = dedekind_sum(inp)
        assert exact == dedekind_sum_cyclotomic(inp)
        assert abs(dedekind_sum_float_oracle(inp) - float(exact)) < 1e-9


def test_work_limit_refuses_before_allocating():
    # m <= 2 costs r, m >= 3 costs (m - 2) * r^2
    assert sigma(MAX_WORK, (1,), 0) == Fraction(MAX_WORK - 1, 2 * MAX_WORK)
    side = math.isqrt(MAX_WORK)
    sigma(side, (1, 1, 1), 0)
    for r, weights in (
        (MAX_WORK + 1, (1,)),
        (MAX_WORK + 1, (1, 2)),
        (side + 1, (1, 1, 1)),
        (math.isqrt(MAX_WORK // 2) + 1, (1, 1, 1, 1)),
        (10**9, (1, 2, 3)),
        (10**100, (1,)),
    ):
        with pytest.raises(ValueError, match="over the limit"):
            sigma(r, weights, 0)


# A second route for two-weight sums, with no roots of unity: the classical
# Dedekind sum s(q, r) through the Hirzebruch-Jung continued fraction and
# through reciprocity, tied to sigma_0(1/r(1, q)) = -s(q, r) + (r - 1)/(4r).
# Grounding: Hirzebruch & Zagier (1974); Rademacher & Grosswald (1972).


def _hj_fraction(r, q):
    """r/q = b_1 - 1/(b_2 - 1/(... - 1/b_k)), every b_i >= 2."""
    entries = []
    while q:
        b = -(-r // q)  # ceil(r / q)
        entries.append(b)
        r, q = q, b * q - r
    return entries


def _dedekind_s_hj(q, r):
    """12 s(q, r) = (q + q*)/r + sum (b_i - 3), with q q* = 1 mod r."""
    q_star = pow(q, -1, r) if r > 1 else 0
    return (Fraction(q + q_star, r) + sum(b - 3 for b in _hj_fraction(r, q))) / 12


def _dedekind_s_reciprocity(q, r):
    """s(q, r) + s(r mod q, q) = -1/4 + (q/r + r/q + 1/(qr))/12, down to s(0, 1) = 0."""
    if r == 1:
        return Fraction(0)
    main_term = Fraction(q, r) + Fraction(r, q) + Fraction(1, q * r)
    return Fraction(-1, 4) + main_term / 12 - _dedekind_s_reciprocity(r % q, q)


_COPRIME_PAIRS = [(q, r) for r in range(2, 60) for q in range(1, r) if math.gcd(q, r) == 1]


def test_hirzebruch_jung_fraction_shape():
    assert _hj_fraction(5, 2) == [3, 2]
    assert _hj_fraction(9, 2) == [5, 2]
    assert _hj_fraction(8, 3) == [3, 3]
    assert _hj_fraction(7, 6) == [2] * 6  # A_6
    for q, r in _COPRIME_PAIRS:
        entries = _hj_fraction(r, q)
        assert min(entries) >= 2
        value = Fraction(entries[-1])
        for b in reversed(entries[:-1]):
            value = b - 1 / value
        assert value == Fraction(r, q)


def test_two_weight_sigma_by_continued_fractions_and_reciprocity():
    assert len(_COPRIME_PAIRS) == 1085
    for q, r in _COPRIME_PAIRS:
        s = _dedekind_s_hj(q, r)
        assert _dedekind_s_reciprocity(q, r) == s, (q, r)
        assert sigma(r, (1, q), 0) == -s + Fraction(r - 1, 4 * r), (q, r)
