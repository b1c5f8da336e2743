import random
from fractions import Fraction
from functools import lru_cache

import pytest

from symcurves.chebyshev import cheb_eval
from symcurves.exact import IntPoly


@lru_cache(maxsize=None)
def _cheb_coeffs(d: int) -> IntPoly:
    # Reference: the coefficient form of T_d by T_d = x*T_{d-1} - T_{d-2}.
    if d == 1:
        return IntPoly([0, 1])
    if d == 2:
        return IntPoly([-2, 0, 1])
    return IntPoly([0, 1]) * _cheb_coeffs(d - 1) - _cheb_coeffs(d - 2)


def special_values(d: int) -> dict[int, int]:
    """Reference: T_d on {0, +-1, +-2} for d not divisible by 3, from
    T_d(2 cos t) = 2 cos(d t) at t = 0, pi/3, pi/2, 2pi/3 and pi, without
    evaluating T_d.  Odd d acts as the identity on the set; even d sends +-1
    to -1, +-2 to 2, and 0 to -2 when d = 2 mod 4 or to 2 when d = 0 mod 4.
    """
    if d % 3 == 0:
        raise ValueError("values at +-1 differ when 3 | d; table not applicable")
    if d % 2 == 1:
        return {v: v for v in (0, 1, -1, 2, -2)}
    return {0: 2 if d % 4 == 0 else -2, 1: -1, -1: -1, 2: 2, -2: 2}


def test_first_polynomials():
    assert _cheb_coeffs(1) == IntPoly([0, 1])
    assert _cheb_coeffs(2) == IntPoly([-2, 0, 1])
    assert _cheb_coeffs(3) == IntPoly([0, -3, 0, 1])
    assert _cheb_coeffs(4) == IntPoly([2, 0, -4, 0, 1])
    assert _cheb_coeffs(5) == IntPoly([0, 5, 0, -5, 0, 1])
    rng = random.Random(5)
    for d in range(1, 30):
        x = Fraction(rng.randrange(-40, 41), rng.randrange(1, 9))
        assert _cheb_coeffs(d)(x) == cheb_eval(d, x), d


def test_d_zero_rejected():
    with pytest.raises(ValueError):
        cheb_eval(0, Fraction(1))


def test_characterization_oracle():
    # T_5(2 + 1/2) must be 2^5 + 2^-5 computed independently.
    value = cheb_eval(5, Fraction(5, 2))
    assert type(value) is Fraction and value == Fraction(2**10 + 1, 2**5)
    rng = random.Random(17)
    for _ in range(40):
        num = rng.randrange(1, 50)
        den = rng.randrange(1, 50)
        sign = rng.choice((1, -1))
        z = sign * Fraction(num, den)
        d = rng.randrange(1, 51)
        assert cheb_eval(d, z + 1 / z) == z**d + z**-d


def test_nesting():
    rng = random.Random(23)
    for _ in range(20):
        x = Fraction(rng.randrange(-30, 31), rng.randrange(1, 12))
        for n in (2, 3, 5, 7, 12):
            for m in (2, 3, 4, 11):
                assert cheb_eval(n * m, x) == cheb_eval(n, cheb_eval(m, x))


def test_parity():
    rng = random.Random(29)
    for d in range(1, 51):
        x = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        assert cheb_eval(d, -x) == (-1) ** d * cheb_eval(d, x)


def test_fixed_small_values():
    for d in range(1, 30):
        assert cheb_eval(d, Fraction(2)) == 2
        assert type(cheb_eval(d, 2)) is int and cheb_eval(d, 2) == 2
        assert type(cheb_eval(d, -1)) is int
    assert cheb_eval(7, Fraction(-1)) == -1
    assert cheb_eval(6, Fraction(0)) == -2


def test_monotone_growth():
    # |T_n(x)| >= |T_{n-1}(x)| for |x| >= 2.
    for x in (Fraction(2), Fraction(-2), Fraction(5, 2), Fraction(-7, 3),
              Fraction(3), Fraction(10)):
        prev = abs(cheb_eval(1, x))
        for n in range(2, 31):
            cur = abs(cheb_eval(n, x))
            assert cur >= prev
            prev = cur


def test_special_values_table():
    assert special_values(5) == {Fraction(v): Fraction(v)
                                 for v in (0, 1, -1, 2, -2)}
    assert special_values(4)[Fraction(0)] == 2
    assert special_values(4)[Fraction(2)] == 2
    assert special_values(4)[Fraction(1)] == -1
    assert special_values(10)[Fraction(0)] == -2
    assert special_values(10)[Fraction(-2)] == 2
    with pytest.raises(ValueError):
        special_values(9)


def test_special_values_match_evaluation():
    for d in range(1, 101):
        if d % 3 == 0:
            continue
        table = special_values(d)
        assert set(table) == {0, 1, -1, 2, -2}
        for v, img in table.items():
            assert type(v) is int and type(img) is int
            assert cheb_eval(d, v) == img


def test_growth_floor():
    # |T_d(x)| >= 7 for |x| >= 3 and d >= 2: the bound that confines the
    # integral points `dynamics._pullback_pairs` looks for to {0, +-1, +-2}.
    assert cheb_eval(2, Fraction(3)) == 7
    assert cheb_eval(5, Fraction(3)) == 123
    for d in range(2, 41):
        for x in range(3, 31):
            assert abs(cheb_eval(d, x)) >= 7 and abs(cheb_eval(d, -x)) >= 7, (d, x)


def test_large_degree_paths_agree():
    # The ladder against an independent three-term recurrence from T_0 = 2,
    # for every d up to 250 (primes > 64 included) at negative, integral and
    # non-integral points.
    xs = [Fraction(v) for v in (-40, -3, -1, 0, 2, 5, 37)] + \
        [Fraction(7, 3), Fraction(-7, 3), Fraction(-5, 2), Fraction(1, 7),
         Fraction(-11, 5), Fraction(3, 64)]
    for x in xs:
        prev, cur = Fraction(2), x  # T_0, T_1
        for d in range(1, 251):
            value = cheb_eval(d, x)
            assert type(value) is Fraction and value == cur, (d, x)
            if x.denominator == 1:
                value = cheb_eval(d, int(x))
                assert type(value) is int and value == cur, (d, x)
            prev, cur = cur, x * cur - prev


def _eval_recurrence(d, x):
    # Reference: T_d by the two-term recurrence from (T_1, T_2), linear in d.
    if d == 1:
        return x
    a, b = x, x * x - 2
    for _ in range(d - 2):
        a, b = b, x * b - a
    return b


def test_ladder_matches_recurrence_reference():
    # The ladder against the linear recurrence for every d <= 64, at random
    # integers and non-integral rationals.
    rng = random.Random(31)
    xs = [rng.randrange(-10**6, 10**6) for _ in range(8)]
    xs += [Fraction(rng.randrange(-500, 500), rng.randrange(2, 60))
           for _ in range(8)]
    for x in xs:
        for d in range(1, 65):
            value = cheb_eval(d, x)
            assert type(value) is type(x), (d, x)
            assert value == _eval_recurrence(d, x), (d, x)
