from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_series
from raaggrowth.series import (
    NonIntegralCoefficient,
    PowerSeries,
    RationalFunction,
    euler_phi,
    neck,
    poly_add,
    poly_divide_exact,
    poly_gcd,
    poly_mul,
    poly_neg,
    poly_primitive,
    rho,
)


def rf(num, den=(1,)):
    return RationalFunction.make(num, den)


ONE_OVER_1MZ = rf([1], [1, -1])
ZZ = rf([1, 1], [1, -1])  # (1+z)/(1-z)


def test_expand_geometric():
    assert ONE_OVER_1MZ.expand(5).coefficients == (1, 1, 1, 1, 1, 1)


def test_expand_zz():
    assert ZZ.expand(5).coefficients == (1, 2, 2, 2, 2, 2)


def test_expand_h1_argument():
    # 2z(1+3z)/((1+z)(1-3z)); counts cross-checked against the H_1 automaton
    # in the acceptance suite
    f = rf([0, 2, 6], [1, -2, -3])
    assert f.expand(4).coefficients == (0, 2, 10, 26, 82)


def test_expand_requires_nonzero_constant():
    with pytest.raises(ZeroDivisionError):
        rf([1], [0, 1]).expand(3)


def test_expand_surfaces_non_integrality():
    with pytest.raises(NonIntegralCoefficient):
        rf([1], [2, -1]).expand(3)


def test_rational_reduction_and_equality():
    a = rf([1, 2, 1], [1, 0, -1])  # (1+z)^2 / (1-z^2) = (1+z)/(1-z)
    assert a.num == (1, 1) and a.den == (1, -1)
    assert a == ZZ
    assert a != ONE_OVER_1MZ


def test_rational_sign_normalization():
    a = rf([0, -2], [-1, 1])  # -2z/(z-1) = 2z/(1-z)
    assert a.den[0] == 1 and a.num == (0, 2)


nonzero_polynomials = st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(any)


@st.composite
def common_factors(draw):
    """A nonzero h with a content of either sign, possibly a power of z (h(0) = 0)."""
    content = draw(st.integers(1, 12)) * draw(st.sampled_from([1, -1]))
    return [0] * draw(st.integers(0, 2)) + [content * c for c in draw(nonzero_polynomials)]


@settings(max_examples=400, deadline=None)
@given(nonzero_polynomials, nonzero_polynomials, common_factors())
@example([1, 1], [1, -1], [-1])      # a sign alone
@example([1, 1], [1, -1], [6])       # a content alone
@example([1, 1], [1, -1], [0, 1, 1])  # a polynomial with h(0) = 0
def test_make_is_canonical_under_common_factors(p, q, h):
    # == on RationalFunction compares (num, den): it is equality of functions
    # only because make returns one reduced form per function
    assert rf(poly_mul(p, h), poly_mul(q, h)) == rf(p, q)


polynomials = st.one_of(
    st.just([]),                                           # zero
    st.lists(st.integers(-9, 9), min_size=1, max_size=1),  # constants, zero among them
    st.lists(st.integers(-9, 9), max_size=7),              # negative leading coefficients too
)


@settings(max_examples=400, deadline=None)
@given(polynomials, polynomials, polynomials)
def test_poly_gcd_matches_rational_euclid(p, q, common):
    a, b = poly_mul(p, common), poly_mul(q, common)
    g = poly_gcd(a, b)
    assert g == reference_series.poly_gcd(a, b)
    assert poly_gcd(b, a) == g
    assert g == [] or g[-1] > 0
    if g and any(common):
        poly_divide_exact(g, poly_primitive(common))  # the planted factor divides the gcd


@settings(max_examples=400, deadline=None)
@given(polynomials, polynomials, polynomials)
@example([1, 1], [1], [2, 2])  # exact over Q, quotient 1/2 not integral
def test_poly_divide_exact_matches_fraction_division(a, q, b):
    # exact multiples, with and without an integer quotient when b is not
    # primitive, and arbitrary pairs, which mostly leave a remainder
    for dividend in (poly_mul(q, b), a):
        try:
            expected = reference_series.poly_divide_exact(dividend, b)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                poly_divide_exact(dividend, b)
        except (ValueError, NonIntegralCoefficient):
            with pytest.raises(ValueError):
                poly_divide_exact(dividend, b)
        else:
            assert poly_divide_exact(dividend, b) == expected


def test_poly_gcd_zero_and_constant_operands():
    assert poly_gcd([], []) == []
    assert poly_gcd([0, 0], [-2, 0, -4]) == [1, 0, 2]
    assert poly_gcd([-6], [3, 3]) == [1]
    assert poly_gcd([2, -2], [-4, 4]) == [-1, 1]


def test_zz_squared_is_z2_growth():
    sq = ZZ * ZZ
    assert sq.expand(5).coefficients == (1, 4, 8, 12, 16, 20)


@pytest.mark.parametrize("value", [2.7, True, Fraction(5, 2)], ids=["float", "bool", "fraction"])
def test_from_list_rounds_nothing(value):
    with pytest.raises(ValueError, match="must be ints"):
        PowerSeries.from_list([0, value])
    assert PowerSeries.from_list([0, 2, 1]).coefficients == (0, 2, 1)


def test_mul_by_one_identity():
    f = rf([3, 1], [1, -2])
    assert f * rf([1]) == f


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
)
def test_add_commutes_with_expand(n1, n2):
    a = rf(n1, [1, -1])
    b = rf(n2, [1, -2])
    left = (a + b).expand(8)
    right_a = a.expand(8).coefficients
    right_b = b.expand(8).coefficients
    assert left.coefficients == tuple(x + y for x, y in zip(right_a, right_b))


@st.composite
def fraction_pairs(draw):
    """Two reduced fractions whose denominators share a factor h, each with a
    content of either sign.  Sometimes the second is r - first for a random r,
    so that the sum cancels what first's denominator has beyond r's."""
    h = draw(common_factors())
    first = rf(draw(common_factors()), poly_mul(h, draw(common_factors())))
    if draw(st.booleans()):
        r = rf(draw(polynomials), draw(common_factors()))
        return first, rf(poly_add(poly_mul(r.num, first.den), poly_neg(poly_mul(first.num, r.den))),
                         poly_mul(r.den, first.den))
    return first, rf(draw(polynomials), poly_mul(h, draw(common_factors())))


@settings(max_examples=400, deadline=None)
@given(fraction_pairs())
@example((rf([1], [1, -1]), rf([0, 1], [1, -1])))  # the difference cancels 1 - z
@example((rf([1], [2]), rf([1], [2])))               # the sum has content 2
@example((rf([0, 2], [1, -1]), rf([0, 2], [1, -1])))  # the difference is zero
@example((rf([1], [1, -1]), rf([1], [1, -2])))       # coprime denominators
def test_sum_matches_make_of_cross_products(pair):
    # Henrici's sum gives make's reduced form without the gcd of the product
    x, y = pair
    ad, cb = poly_mul(x.num, y.den), poly_mul(y.num, x.den)
    bd = poly_mul(x.den, y.den)
    assert x + y == rf(poly_add(ad, cb), bd)
    assert x - y == rf(poly_add(ad, poly_neg(cb)), bd)
    assert x - x == RationalFunction((0,), (1,))


def test_euler_phi_values():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert [euler_phi(k) for k in (2, 3, 4, 5, 12)] == [1, 2, 2, 4, 4]
    with pytest.raises(ValueError):
        euler_phi(0)


def test_totient_divisor_sum():
    for n in range(1, 101):
        assert sum(euler_phi(k) for k in range(1, n + 1) if n % k == 0) == n


def test_rho_fixed_point_on_reduced_words_of_z():
    f = rf([0, 2], [1, -1]).expand(12)
    assert rho(f).coefficients == f.coefficients


def test_rho_zero():
    assert rho(PowerSeries((0,) * 9)).coefficients == (0,) * 9


def test_rho_binary_necklaces():
    # a_m = 2^m counts binary strings; degree-3 rotation classes: 000, 111, 001, 011
    f = rf([0, 2], [1, -2]).expand(6)
    out = rho(f)
    assert out[3] == 4
    assert out[1] == 2 and out[2] == 3


def test_rho_requires_zero_constant():
    with pytest.raises(ValueError):
        rho(PowerSeries.from_list([1, 1, 1]))


def test_rho_surfaces_non_integrality():
    with pytest.raises(NonIntegralCoefficient):
        rho(PowerSeries.from_list([0, 0, 1]))  # one word of length 2, not rotation-closed


def _degree_lcm(n):
    lcm = 1
    for k in range(1, n + 1):
        lcm = lcm * k // gcd(lcm, k)
    return lcm


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=10))
def test_rho_additivity(coeffs):
    f = PowerSeries.from_list([0] + coeffs)
    g = PowerSeries.from_list([0] + list(reversed(coeffs)))
    # rho is linear; feed inputs whose rho is integral by clearing denominators
    lcm = _degree_lcm(f.max_degree)
    f = PowerSeries(tuple(lcm * c for c in f.coefficients))
    g = PowerSeries(tuple(lcm * c for c in g.coefficients))
    left = rho(f + g)
    assert left.coefficients == (rho(f) + rho(g)).coefficients


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=9))
def test_rho_matches_integral_form(coeffs):
    lcm = _degree_lcm(len(coeffs))
    f = PowerSeries.from_list([0] + [c * lcm for c in coeffs])
    assert rho(f).coefficients == reference_series.rho_integral_form(f).coefficients


def _rho_or_error(transform, f):
    try:
        return transform(f).coefficients
    except NonIntegralCoefficient as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-40, 40), max_size=40), st.sampled_from([1, 2, 6, 60]))
def test_rho_sieve_matches_divisor_scan(coeffs, scale):
    # the same coefficients, or the same non-integrality error at the same degree
    f = PowerSeries.from_list([0] + [scale * c for c in coeffs])
    assert _rho_or_error(rho, f) == _rho_or_error(reference_series.rho, f)


def test_rho_sieve_matches_divisor_scan_at_degree_400():
    f = rf([0, 3], [1, -3]).expand(400)  # ternary strings: rho counts ternary necklaces
    assert rho(f).coefficients == reference_series.rho(f).coefficients


def test_neck_zero():
    assert neck(PowerSeries((0,) * 7)).coefficients == (0,) * 7


def test_neck_of_z():
    out = neck(PowerSeries.from_list([0, 1] + [0] * 11))
    assert out.coefficients == (0,) + (1,) * 12


def test_neck_requires_zero_constant():
    with pytest.raises(ValueError):
        neck(PowerSeries.from_list([1, 0]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=14))
def test_neck_matches_double_sum_reference(coeffs):
    # any integer series with zero constant term, negative coefficients included:
    # both forms must be integral, so neither may raise
    f = PowerSeries.from_list([0] + coeffs)
    assert neck(f).coefficients == reference_series.neck(f).coefficients


def test_free_group_necklace_vs_rho_form():
    # sigma~(F_2) two ways: 1 + rho(cyclically reduced words series), and the
    # recursive splitting form (1+3z)/(1-z) + neck(4z^2/((1-z)(1-z)))
    degree = 12
    rivin = rf([1], [1, -3]) + ONE_OVER_1MZ + rf([2], [1, 0, -1]) + rf([-4])
    via_rho = rho(rivin.expand(degree)) + PowerSeries.one(degree)
    via_neck = rf([1, 3], [1, -1]).expand(degree) + neck(rf([0, 0, 4], [1, -2, 1]).expand(degree))
    assert via_rho.coefficients == via_neck.coefficients


def test_substitute_power():
    f = rf([0, 1], [1, -1]).expand(9)  # z/(1-z)
    g = reference_series.substitute_power(f, 2)
    assert g.coefficients == (0, 0, 1, 0, 1, 0, 1, 0, 1, 0)
    assert reference_series.substitute_power(f, 1).coefficients == f.coefficients
    with pytest.raises(ValueError):
        reference_series.substitute_power(f, 0)


def test_substitute_power_counts_squares():
    # counts of {w^2 : w in L} for an explicit finite language
    lang = {(0,), (1,), (0, 1)}
    counts = [0] * 7
    for w in lang:
        counts[len(w)] += 1
    f = PowerSeries.from_list(counts)
    squares = {w + w for w in lang}
    expected = [0] * 5
    for w in squares:
        expected[len(w)] += 1
    assert reference_series.substitute_power(f, 2).coefficients[:5] == tuple(expected)


def test_series_mul_truncates_to_min_degree():
    a = PowerSeries.from_list([1, 1, 1])
    b = PowerSeries.from_list([1, 2])
    assert (a * b).coefficients == (1, 3)


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=12),
    st.lists(st.integers(-50, 50), min_size=1, max_size=12),
)
def test_power_series_arithmetic_matches_definition(a, b):
    # every operation truncates at the smaller of the two degrees
    n = min(len(a), len(b))
    left, right = PowerSeries.from_list(a), PowerSeries.from_list(b)
    assert (left + right).coefficients == tuple(a[i] + b[i] for i in range(n))
    assert (left - right).coefficients == tuple(a[i] - b[i] for i in range(n))
    product = tuple(sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n))
    assert (left * right).coefficients == product
