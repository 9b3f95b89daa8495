import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbcalc.dedekind import (
    FLOAT_ORACLE_MAX_ERROR,
    FLOAT_ORACLE_MAX_ORDER,
    MAX_BITS,
    MAX_WORK,
    DedekindInput,
    _weight_vector,
    dedekind_sum,
    dedekind_sum_float_oracle,
    sigma,
)

from cyclotomic_oracle import CyclotomicElement, dedekind_sum_cyclotomic, root_of_unity

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


@pytest.mark.parametrize("r", [2, 3, 7, 12, 101, 1000])
def test_unit_weight_closed_forms(r):
    # up to the MAX_WORK edge for three weights, r = 1000
    assert r * sigma(r, (1, 1), 0) == Fraction(-(r - 1) * (r - 5), 12)
    assert r * sigma(r, (1, 1, 1), 0) == Fraction(-(r - 1) * (r - 3), 8)


def test_a_series_through_the_sigma_rule():
    # A_k is the cyclic quotient 1/(k+1)(1, k); index -(b1+b2) = 0 mod r
    for k in range(1, 9):
        n = k + 1
        assert 12 * sigma(n, (1, k), 0) == Fraction(n) - Fraction(1, n)


def test_empty_sum_conventions():
    assert sigma(1, (0,), 0) == 0
    assert sigma(5, (0,), 3) == 0
    assert sigma(6, (2, 3), 1) == 0  # no j avoids both dead weights
    assert sigma(199, (199, 1, 2), 5) == 0  # a dead weight among three, at r >= 128
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


def _term_moduli_sum(inp):
    """S = sum over admissible j of prod_t 1 / |1 - zeta^(j b_t)|, by 2 sin(pi k / r)."""
    r = inp.r
    return math.fsum(
        math.prod(1 / abs(2 * math.sin(math.pi * (j * b % r) / r)) for b in inp.weights)
        for j in range(1, r)
        if all(j * b % r for b in inp.weights)
    )


def _oracle_domain_cases():
    rng = random.Random(20261019)
    cases = [(101, (1,) * 6, 1), (31, (1,) * 9, 0), (31, (1,) * 8, 3), (199, (1,) * 4, 0)]
    cases += [(r, (1, 1), 0) for r in (1000, 10**4)] + [(1000, (1, 1, 1), 1), (300, (1,) * 4, 7)]
    for _ in range(30):
        r = rng.randrange(2, 400)
        m = rng.randrange(1, 9)
        weights = tuple(rng.choice((1, -1, rng.randrange(r))) for _ in range(m))
        cases.append((r, weights, rng.randrange(-2 * r, 2 * r)))
    return cases


@pytest.mark.parametrize("r, weights, index", _oracle_domain_cases())
def test_float_oracle_keeps_its_error_bound(r, weights, index):
    # each term carries relative error <= 17(m + 3) 2^-53 and math.fsum one more
    # rounding, so the value is within 9(m + 3) 2^-52 S / r of the exact sum (plus
    # half that for rounding the exact value to a float); the oracle refuses when
    # 16(m + 3) 2^-52 S / r exceeds FLOAT_ORACLE_MAX_ERROR
    inp = DedekindInput(r, weights, index)
    m, scale = len(inp.weights), _term_moduli_sum(inp) / r * 2.0**-52
    if 16 * (m + 3) * scale > FLOAT_ORACLE_MAX_ERROR:
        with pytest.raises(ValueError, match="float oracle limited to error bound <= 1e-09"):
            dedekind_sum_float_oracle(inp)
    else:
        error = abs(dedekind_sum_float_oracle(inp) - float(dedekind_sum(inp)))
        assert error <= (9 * (m + 3) + 0.5) * scale


def test_float_oracle_refuses_past_its_domain():
    # with 6 and 9 unit weights the terms, up to (2 sin(pi/r))^-m, cancel down to a
    # value the 1e-9 budget cannot hold; with 600 a term overflows
    for weights, index, r in (((1,) * 6, 1, 101), ((1,) * 9, 0, 31), ((1,) * 600, 0, 31)):
        with pytest.raises(ValueError, match=f"float oracle limited to error bound .* at r={r}"):
            dedekind_sum_float_oracle(DedekindInput(r, weights, index))


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
        (7, (1, 2, 3, 4, 5), 3),
        (12, (1, 5, 7, 11, 2, 3), -4),
        (9, (1, 2, 4, 5, 7, 8, 3), 10),
        (10, (1, 3, 7, 9, 1, 3, 7, 9), 5),
        (11, (1, 2, 3, 4, 5, 6, 7, 8, 9), -1),
    ]
    for r, weights, index in cases:
        inp = DedekindInput(r, weights, index)
        exact = dedekind_sum(inp)
        assert exact == dedekind_sum_cyclotomic(inp)
        assert abs(dedekind_sum_float_oracle(inp) - float(exact)) < 1e-9


def test_work_limit_refuses_before_allocating():
    # m <= 2 costs r, m >= 3 costs (m - 2) * r^2; m weights at r take
    # m * (2r).bit_length() bits, which is 3m at r = 2
    assert sigma(MAX_WORK, (1,), 0) == Fraction(MAX_WORK - 1, 2 * MAX_WORK)
    side = math.isqrt(MAX_WORK)
    assert side * sigma(side, (1, 1, 1), 0) == Fraction(-(side - 1) * (side - 3), 8)
    m = MAX_BITS // 3
    assert sigma(2, (1,) * m, 0) == Fraction(1, 2 ** (m + 1))
    for r, weights in (
        (MAX_WORK + 1, (1,)),
        (MAX_WORK + 1, (1, 2)),
        (side + 1, (1, 1, 1)),
        (math.isqrt(MAX_WORK // 2) + 1, (1, 1, 1, 1)),
        (10**9, (1, 2, 3)),
        (10**100, (1,)),
        (2, (1,) * (m + 1)),
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
