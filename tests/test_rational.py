import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from causalbox.rational import (
    QuadExt,
    format_rational,
    isqrt_exact,
    parse_rational,
    sign3,
    sqrt_bounds,
)
from quad_helpers import quad, quad_sqrt, square_free_split


def test_parse_rational_accepts_common_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)
    assert parse_rational(12) == Fraction(12)
    assert parse_rational(0.1) == Fraction(1, 10)
    assert parse_rational("1.25") == Fraction(5, 4)
    assert parse_rational(Fraction(2, 3)) == Fraction(2, 3)


def test_parse_rational_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("three")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(TypeError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational(float("nan"))


def test_format_rational_roundtrip():
    for s in ["0", "-3", "22/7", "-5/8"]:
        assert format_rational(parse_rational(s)) == s


def test_isqrt_exact():
    assert isqrt_exact(49) == 7
    assert isqrt_exact(50) is None
    assert isqrt_exact(0) == 0
    assert isqrt_exact(-4) is None


def test_square_free_split():
    assert square_free_split(1) == (1, 1)
    assert square_free_split(8) == (2, 2)
    assert square_free_split(360) == (6, 10)
    assert square_free_split(49) == (7, 1)


@given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**4))
def test_sqrt_bounds_bracket(q):
    lo, hi = sqrt_bounds(q, bits=48)
    assert lo * lo <= q <= hi * hi
    assert 0 <= hi - lo
    assert hi - lo <= Fraction(1, 2**48)


def test_sqrt_bounds_exact_on_squares():
    lo, hi = sqrt_bounds(Fraction(9, 16), bits=8)
    assert lo == hi == Fraction(3, 4)


def test_quad_normalisation():
    assert quad(0, 1, 8) == QuadExt(Fraction(0), Fraction(2), 2)
    assert quad(1, 2, 9).is_rational()
    assert quad(1, 2, 9).as_fraction() == 7
    assert quad_sqrt(Fraction(4, 9)).as_fraction() == Fraction(2, 3)
    r8 = quad_sqrt(8)
    assert (r8.a, r8.b, r8.d) == (0, 2, 2)


def test_quad_arithmetic_identities():
    r2 = quad_sqrt(2)
    assert (r2 * r2).as_fraction() == 2
    assert ((r2 + 1) * (r2 - 1)).as_fraction() == 1
    assert (r2 + r2) == quad_sqrt(8)
    with pytest.raises(ValueError):
        _ = quad_sqrt(2) + quad_sqrt(3)  # mixed radicands have no sum form


def test_quad_sign_opposing_terms():
    # 7/5 < sqrt(2) < 3/2
    assert quad(Fraction(-7, 5), 1, 2).sign() == 1
    assert quad(Fraction(3, 2), -1, 2).sign() == 1
    assert quad(Fraction(-3, 2), 1, 2).sign() == -1
    assert quad(2, -1, 4).sign() == 0


def test_quad_cmp_across_radicands():
    assert quad(1, 1, 2) < quad(0, 1, 6)  # 2.414... < 2.449...
    assert quad_sqrt(8) == quad(0, 2, 2)
    assert quad_sqrt(3) > quad_sqrt(2)
    assert quad(10, -1, 2) > quad(0, 1, 6)


small = st.integers(min_value=-6, max_value=6)
radicand = st.integers(min_value=0, max_value=30)


@given(small, small, radicand)
def test_quad_sign_matches_numeric(a, b, d):
    val = quad(a, b, d)
    lo, hi = val.bounds(bits=80)
    if lo > 0:
        assert val.sign() == 1
    elif hi < 0:
        assert val.sign() == -1
    else:
        # The bracket is 2**-80 wide, so a straddle means an exact zero
        # for integer inputs this small.
        assert val.sign() == 0


@given(small, small, radicand, small, radicand)
def test_sign3_matches_rational_bracket(a, b, d1, c, d2):
    s = sign3(Fraction(a), Fraction(b), d1, Fraction(c), d2)
    lo1, hi1 = sqrt_bounds(Fraction(d1), 90)
    lo2, hi2 = sqrt_bounds(Fraction(d2), 90)
    lo = a + (b * lo1 if b >= 0 else b * hi1) + (c * lo2 if c >= 0 else c * hi2)
    hi = a + (b * hi1 if b >= 0 else b * lo1) + (c * hi2 if c >= 0 else c * lo2)
    if lo > 0:
        assert s == 1
    elif hi < 0:
        assert s == -1
    else:
        assert s == 0


def test_sign3_exact_cancellations():
    assert sign3(Fraction(0), Fraction(2), 2, Fraction(-1), 8) == 0
    assert sign3(Fraction(-2), Fraction(0), 5, Fraction(2), 1) == 0
    assert sign3(Fraction(-3), Fraction(1), 2, Fraction(1), 3) == 1  # ~0.146
    assert sign3(Fraction(-4), Fraction(1), 2, Fraction(1), 3) == -1


def test_sign3_needs_no_factoring():
    # Products of two large primes: trial division would not finish.
    p, q = 1000000007, 1000000009
    assert sign3(Fraction(0), Fraction(2), p * q, Fraction(-1), 4 * p * q) == 0
    assert sign3(Fraction(-p), Fraction(1), p * p + 1, Fraction(0), 0) == 1
    assert sign3(Fraction(1), Fraction(1), p * q, Fraction(-1), p * q + 1) == 1
    assert sign3(Fraction(3), Fraction(5), 9, Fraction(-2), p * p) == -1


def test_bounds_direction_respects_sign():
    v = quad(0, -3, 2)
    lo, hi = v.bounds(40)
    assert lo < hi < 0
    assert float(v) == pytest.approx(-3 * math.sqrt(2), rel=1e-9)
