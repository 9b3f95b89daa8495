from fractions import Fraction

import cmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotomic_oracle import (
    CyclotomicElement,
    NotRationalError,
    cyclotomic_polynomial,
    euler_phi,
    one_minus_root_inverse,
    root_of_unity,
)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_euler_phi_small_values():
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 9: 6, 12: 4, 105: 48}
    for r, phi in expected.items():
        assert euler_phi(r) == phi


@pytest.mark.parametrize(
    "r, coeffs",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (6, (1, -1, 1)),
        (9, (1, 0, 0, 1, 0, 0, 1)),
        (12, (1, 0, -1, 0, 1)),
    ],
)
def test_cyclotomic_polynomial_known_values(r, coeffs):
    assert cyclotomic_polynomial(r) == coeffs


def test_cyclotomic_polynomial_degree_is_phi():
    for r in range(1, 60):
        assert len(cyclotomic_polynomial(r)) == euler_phi(r) + 1


def test_cyclotomic_product_recovers_x_pow_r_minus_one():
    # prod over d | r of Phi_d(x) = x^r - 1, the defining recursion run forward
    for r in range(1, 40):
        product = [1]
        for d in range(1, r + 1):
            if r % d == 0:
                product = poly_mul(product, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (r - 1) + [1]
        assert product == expected


def test_cyclotomic_polynomial_105_has_coefficient_minus_two():
    # smallest order whose cyclotomic polynomial has a coefficient outside {-1,0,1}
    assert -2 in cyclotomic_polynomial(105)


def elements(r):
    coeff = st.integers(min_value=-9, max_value=9)
    den = st.integers(min_value=1, max_value=5)
    return st.lists(
        st.tuples(coeff, den), min_size=euler_phi(r), max_size=euler_phi(r)
    ).map(
        lambda pairs: CyclotomicElement(
            r, tuple(Fraction(n, d) for n, d in pairs)
        )
    )


@st.composite
def field_and_elements(draw, count):
    r = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]))
    return r, [draw(elements(r)) for _ in range(count)]


@given(field_and_elements(3))
@settings(max_examples=120, deadline=None)
def test_ring_laws(data):
    r, (a, b, c) = data
    zero = CyclotomicElement.zero(r)
    one = CyclotomicElement.one(r)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a - a == zero
    assert a * zero == zero


@given(field_and_elements(1))
@settings(max_examples=120, deadline=None)
def test_inverse_is_exact(data):
    r, (a,) = data
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == CyclotomicElement.one(r)
        assert a / a == CyclotomicElement.one(r)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        CyclotomicElement.zero(7).inverse()


def test_root_of_unity_has_exact_order():
    for r in range(1, 25):
        zeta = root_of_unity(r, 1)
        power = CyclotomicElement.one(r)
        for e in range(r):
            assert power == root_of_unity(r, e)
            power = power * zeta
        assert power == CyclotomicElement.one(r)


def test_root_inverse_pairs_multiply_to_one():
    for r in range(2, 20):
        for e in range(1, r):
            assert root_of_unity(r, e) * root_of_unity(r, r - e) == CyclotomicElement.one(r)


def test_one_minus_root_inverse_matches_generic_inverse():
    for r in range(2, 21):
        one = CyclotomicElement.one(r)
        for s in range(1, r):
            direct = one_minus_root_inverse(r, s)
            generic = (one - root_of_unity(r, s)).inverse()
            assert direct == generic
            assert direct * (one - root_of_unity(r, s)) == one


def test_one_minus_root_inverse_rejects_root_one():
    with pytest.raises(ZeroDivisionError):
        one_minus_root_inverse(8, 0)
    with pytest.raises(ZeroDivisionError):
        one_minus_root_inverse(8, 16)


def test_embedding_matches_unit_circle():
    for r in range(1, 65):
        for e in (0, 1, r // 2, r - 1):
            approx = root_of_unity(r, e).embed()
            exact = cmath.exp(2j * cmath.pi * (e % r) / r)
            assert abs(approx - exact) < 1e-9


def test_embedding_respects_multiplication():
    a = root_of_unity(12, 5) + CyclotomicElement.from_rational(12, Fraction(1, 3))
    b = root_of_unity(12, 7) - CyclotomicElement.one(12)
    assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-9


def test_rational_detection_and_extraction():
    half = CyclotomicElement.from_rational(20, Fraction(1, 2))
    assert half.is_rational()
    assert half.to_rational() == Fraction(1, 2)
    # zeta_2 = -1 is rational even though it is written as a root of unity
    assert root_of_unity(2, 1).to_rational() == -1
    assert root_of_unity(1, 0).to_rational() == 1
    zeta5 = root_of_unity(5, 1)
    assert not zeta5.is_rational()
    with pytest.raises(NotRationalError):
        zeta5.to_rational()


def test_galois_stable_combinations_are_rational():
    # sum of all primitive r-th roots = Mobius mu(r); product pairs collapse
    for r, mobius in ((5, -1), (6, 1), (8, 0), (9, 0), (12, 0)):
        total = CyclotomicElement.zero(r)
        for e in range(1, r + 1):
            from math import gcd

            if gcd(e, r) == 1:
                total = total + root_of_unity(r, e)
        assert total.to_rational() == mobius


def test_incompatible_orders_rejected():
    with pytest.raises(ValueError):
        root_of_unity(4, 1) + root_of_unity(5, 1)
    with pytest.raises(ValueError):
        root_of_unity(4, 1) * root_of_unity(8, 1)


def test_mixed_scalar_arithmetic():
    zeta = root_of_unity(8, 1)
    assert (zeta + 1) - 1 == zeta
    assert zeta * Fraction(3, 2) * Fraction(2, 3) == zeta
    assert (2 - zeta) + (zeta - 2) == CyclotomicElement.zero(8)
    assert (1 / zeta) * zeta == CyclotomicElement.one(8)


def test_str_rendering():
    assert str(CyclotomicElement.zero(5)) == "0"
    text = str(root_of_unity(8, 1) + CyclotomicElement.from_rational(8, 2))
    assert text == "2 + 1*z8"
