import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbcalc.catalog import (
    ADE,
    CyclicQuotient,
    NotTabulatedError,
    SingularityParseError,
    format_singularity,
    format_singularity_list,
    group_order,
    milnor_number,
    mu_anticanonical,
    mu_canonical_square,
    parse_singularity,
    parse_singularity_list,
    sort_key,
)
from orbcalc.dedekind import sigma
from orbcalc.enumerator import check_config
from orbcalc.invariants import OrbifoldConfig

A = lambda k: ADE("A", k)
D = lambda k: ADE("D", k)
E = lambda k: ADE("E", k)
Q = CyclicQuotient


def test_group_orders():
    assert [group_order(A(k)) for k in range(1, 9)] == list(range(2, 10))
    assert group_order(D(4)) == 8
    assert group_order(D(5)) == 12
    assert group_order(D(7)) == 20
    assert group_order(E(6)) == 24
    assert group_order(E(7)) == 48
    assert group_order(E(8)) == 120
    assert group_order(Q(4, 1, 1)) == 4
    assert group_order(Q(9, 1, 2)) == 9


def test_twelve_mu_anticanonical_table():
    for k in range(1, 9):
        assert 12 * mu_anticanonical(A(k)) == Fraction(k + 1) - Fraction(1, k + 1)
    assert 12 * mu_anticanonical(D(4)) == Fraction(39, 8)
    assert 12 * mu_anticanonical(Q(4, 1, 1)) == Fraction(3, 4)
    assert 12 * mu_anticanonical(Q(8, 1, 3)) == Fraction(15, 8)
    assert 12 * mu_anticanonical(Q(9, 1, 2)) == Fraction(8, 9)


def test_mu_anticanonical_two_paths_agree():
    # closed form for A_k against the Dedekind-sum route for 1/(k+1)(1,k)
    for k in range(1, 9):
        assert mu_anticanonical(A(k)) == mu_anticanonical(Q(k + 1, 1, k))


def test_mu_anticanonical_not_tabulated():
    for s in (D(5), D(6), E(6), E(7), E(8)):
        with pytest.raises(NotTabulatedError):
            mu_anticanonical(s)


def test_twelve_mu_canonical_square_table():
    for k in range(1, 9):
        assert 12 * mu_canonical_square(A(k)) == Fraction(k + 1) - Fraction(1, k + 1)
    for k in range(4, 9):
        assert 12 * mu_canonical_square(D(k)) == Fraction(k + 1) - Fraction(1, 4 * (k - 2))
    assert 12 * mu_canonical_square(E(6)) == Fraction(7) - Fraction(1, 24)
    assert 12 * mu_canonical_square(E(7)) == Fraction(8) - Fraction(1, 48)
    assert 12 * mu_canonical_square(E(8)) == Fraction(9) - Fraction(1, 120)
    # the anticanonical bundle takes the same closed form on D4
    assert mu_canonical_square(D(4)) == mu_anticanonical(D(4))


def test_mu_canonical_square_rejects_cyclic():
    with pytest.raises(NotTabulatedError):
        mu_canonical_square(Q(4, 1, 1))


def test_milnor_numbers():
    for k in range(1, 9):
        assert milnor_number(A(k)) == k
    assert milnor_number(D(4)) == 4
    assert milnor_number(Q(4, 1, 1)) == 0
    assert milnor_number(Q(8, 1, 3)) == 1
    assert milnor_number(Q(9, 1, 2)) == 0


def test_cyclic_weight_normalization():
    assert Q(4, 5, 1) == Q(4, 1, 1)
    assert Q(9, 2, 1) == Q(9, 1, 2)
    assert Q(8, -5, 1) == Q(8, 1, 3)
    assert Q(7, 6, 3) == Q(7, 3, 6)


def test_cyclic_types_are_equal_exactly_when_isomorphic():
    # 1/r(b1,b2) and 1/r(c1,c2) are one point exactly when (c1,c2) is a unit
    # multiple of (b1,b2) or of (b2,b1): the orbits, by brute force, must be
    # the classes of equal types, each named by its normal form 1/r(1,q), q <= q*
    for r in range(2, 30):
        units = [u for u in range(1, r) if math.gcd(u, r) == 1]
        classes = {}
        for b1, b2 in itertools.product(units, repeat=2):
            classes.setdefault(Q(r, b1, b2), set()).add((b1, b2))
        for s, members in classes.items():
            assert s.b1 == 1 and s.b2 <= pow(s.b2, -1, r), s
            b1, b2 = next(iter(members))
            orbit = {(u * b1 % r, u * b2 % r) for u in units}
            assert members == orbit | {(c2, c1) for c1, c2 in orbit}, s


@st.composite
def _cyclic_spelling(draw):
    r = draw(st.integers(min_value=2, max_value=200))
    units = st.sampled_from([b for b in range(-r, 2 * r) if math.gcd(b, r) == 1])
    return r, draw(units), draw(units), draw(units)


@given(_cyclic_spelling())
@settings(max_examples=200, deadline=None)
def test_unit_scaled_and_swapped_spellings_are_one_point(spelling):
    r, b1, b2, u = spelling
    points = [Q(r, b1, b2), Q(r, u * b1, u * b2), Q(r, b2, b1)]
    assert points[0] == points[1] == points[2]
    # mu of the raw spelling, by the Dedekind-sum rule before normalization
    assert mu_anticanonical(points[0]) == sigma(r, (b1, b2), r + (-(b1 + b2)) % r)
    verdicts = [check_config(OrbifoldConfig(1, (s,))).verdicts() for s in points]
    assert verdicts[0] == verdicts[1] == verdicts[2]


def test_type_validation():
    with pytest.raises(ValueError):
        Q(4, 2, 1)  # weight shares a factor with r
    with pytest.raises(ValueError):
        Q(1, 0, 0)
    with pytest.raises(ValueError):
        ADE("A", 0)
    with pytest.raises(ValueError):
        ADE("D", 3)
    with pytest.raises(ValueError):
        ADE("E", 5)
    with pytest.raises(ValueError):
        ADE("B", 2)


def test_parse_single_types():
    assert parse_singularity("A3") == A(3)
    assert parse_singularity(" D4 ") == D(4)
    assert parse_singularity("E8") == E(8)
    assert parse_singularity("1/4(1,1)") == Q(4, 1, 1)
    assert parse_singularity("1/9( 2 , 1 )") == Q(9, 1, 2)


def test_parse_list_with_multiplicities():
    assert parse_singularity_list("2x 1/4(1,1)") == (Q(4, 1, 1), Q(4, 1, 1))
    assert parse_singularity_list("A8, 2x 1/9(1,2)") == (
        A(8),
        Q(9, 1, 2),
        Q(9, 1, 2),
    )
    assert parse_singularity_list("D4,D4,1/4(1,1)") == (D(4), D(4), Q(4, 1, 1))
    assert parse_singularity_list("") == ()
    assert parse_singularity_list(" , ,A1, ") == (A(1),)
    assert parse_singularity_list("3X A2") == (A(2), A(2), A(2))


def test_parse_list_is_canonically_sorted():
    sings = parse_singularity_list("1/4(1,1), A2, D4, A1")
    assert sings == (A(1), A(2), D(4), Q(4, 1, 1))
    assert [sort_key(s) for s in sings] == sorted(sort_key(s) for s in sings)


def test_parse_errors_carry_token_and_offset():
    with pytest.raises(SingularityParseError) as info:
        parse_singularity_list("A8, bogus!")
    assert info.value.token == "bogus!"
    assert info.value.offset == 4
    with pytest.raises(SingularityParseError) as info:
        parse_singularity_list("A1, 1/4(1,1")
    assert info.value.offset == 4
    with pytest.raises(SingularityParseError) as info:
        parse_singularity_list("A1,\u3000B3")  # an ideographic space is 3 bytes
    assert info.value.token == "B3"
    assert info.value.offset == 6
    with pytest.raises(SingularityParseError):
        parse_singularity_list("A1))")
    with pytest.raises(SingularityParseError):
        parse_singularity_list("0x A1")
    with pytest.raises(SingularityParseError):
        parse_singularity_list("3x")
    with pytest.raises(SingularityParseError):
        parse_singularity_list("A0")
    with pytest.raises(SingularityParseError):
        parse_singularity_list("1/4(2,1)")


def test_parse_list_caps_the_number_of_points():
    assert parse_singularity_list("1000x A1") == (A(1),) * 1000
    assert parse_singularity_list("0001x A1") == (A(1),)
    # a 4301-digit count is longer than int() converts by default
    for text in ("1001x A1", "600x A1, 600x A2", "9" * 50 + "x A1", "9" * 4301 + "x A1"):
        with pytest.raises(ValueError) as info:
            parse_singularity_list(text)
        assert str(info.value) == "singularity list names more than 1000 points"


def test_parse_list_caps_the_digits_of_the_group_orders():
    # four distinct types whose group orders have 1000 digits each
    big = [f"A{10**999 + k}" for k in (1, 3, 5, 7)]
    # repeats count once: three distinct orders have 3000 digits
    assert len(parse_singularity_list(f"{big[0]}, 2x {big[1]}, {big[2]}, {big[0]}")) == 5
    for text in (", ".join(big), f"{big[0]}, {big[1]}, {big[2]}, A1"):
        with pytest.raises(ValueError) as info:
            parse_singularity_list(text)
        assert str(info.value) == "singularity list's group orders total more than 3000 digits"
    # an item that does not parse is reported first, wherever it stands
    with pytest.raises(SingularityParseError):
        parse_singularity_list(", ".join(big) + ", B2")


def test_format_round_trip():
    for s in (A(1), A(8), D(4), E(7), Q(4, 1, 1), Q(8, 1, 3), Q(9, 1, 2)):
        assert parse_singularity(format_singularity(s)) == s


def test_list_format_round_trip_random_multisets():
    pool = [A(k) for k in range(1, 9)] + [D(4), E(6), Q(4, 1, 1), Q(8, 1, 3), Q(9, 1, 2)]
    rng = random.Random(7)
    for _ in range(200):
        sings = tuple(
            sorted(
                (rng.choice(pool) for _ in range(rng.randrange(0, 8))), key=sort_key
            )
        )
        assert parse_singularity_list(format_singularity_list(sings)) == sings


def test_list_formatting_groups_repeats():
    sings = (A(1), A(1), A(3), Q(4, 1, 1), Q(4, 1, 1), Q(4, 1, 1))
    assert format_singularity_list(sings) == "2x A1, A3, 3x 1/4(1,1)"
    assert format_singularity_list(()) == ""


def test_sort_order_families_then_cyclic():
    ordering = [A(1), A(2), A(8), D(4), D(5), E(6), Q(4, 1, 1), Q(8, 1, 3), Q(9, 1, 2)]
    assert sorted(ordering[::-1], key=sort_key) == ordering
