import math
from fractions import Fraction

import pytest

from soqrs import (
    EQUIVALENT_FLIP,
    IDENTICAL,
    QParam,
    SpectralParam,
    normalize_spectral,
)
from soqrs.qarith import vanishing_point
from oracles import bracket_vanishes

E = SpectralParam.exact


def test_qnum_basic_values():
    assert QParam(2.0).qnum(0) == 0.0
    assert QParam(4.0).qnum(2) == pytest.approx(2.5, abs=1e-14)
    assert QParam(1.0).qnum(5) == 5.0
    h = math.log(2.0)
    assert abs(QParam(2.0).qnum(2j * math.pi / h)) < 1e-12


def test_qnum_real_input_gives_real_output():
    p = QParam(2.0)
    for b in range(-5, 6):
        v = p.qnum(b)
        assert isinstance(v, float)
        assert v == pytest.approx(-p.qnum(-b), abs=1e-14)


def test_qnum_half_integer_value():
    # [1/2] at q=2 from the power form
    expected = (2 ** 0.25 - 2 ** -0.25) / (2 ** 0.5 - 2 ** -0.5)
    assert QParam(2.0).qnum(Fraction(1, 2)) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("q", [0.5, 2.0, 3.7])
def test_periodicity_grid(q):
    p = QParam(q)
    h = p.h
    zs = [0.3, -1.2 + 0.7j, 2.5 + 1j, -0.1 - 2.3j, 4 + 0.25j]
    for z in zs:
        z = complex(z)
        assert abs(p.qnum(z + 4j * math.pi / h) - p.qnum(z)) < 1e-12
        assert abs(p.qnum(z + 2j * math.pi / h) + p.qnum(z)) < 1e-12


def test_classical_continuity():
    p = QParam(1.0 + 1e-8)
    for b in range(1, 11):
        assert abs(p.qnum(b) - b) < 1e-6


def test_qparam_validation():
    with pytest.raises(ValueError):
        QParam(0.0)
    with pytest.raises(ValueError):
        QParam(-2.0)


def test_qnum_out_of_range_is_a_value_error():
    # sinh(h z / 2) overflows a float for z = 400 at q = 50
    for z in (400, -400, 400 + 1j):
        with pytest.raises(ValueError, match=r"\[.*400.*\].*q=50"):
            QParam(50.0).qnum(z)
    assert math.isfinite(QParam(50.0).qnum(300))


def test_vanishing_examples():
    # [lambda + c] = 0 exactly at c == -vanishing_point(lambda)
    assert vanishing_point(E(-3)) == -3
    assert vanishing_point(E(-3, 1)) is None  # Im lambda = pi/h
    assert vanishing_point(E(Fraction(3, 2))) is None
    # direct numeric oracle for the pi/h case: bracket value is i-cosh-like
    p = QParam(2.0)
    z = complex(0.0, math.pi / p.h)
    assert abs(p.qnum(z)) > 1.0


def test_vanishing_matches_numeric_oracle():
    p = QParam(2.0)
    for re in range(-3, 4):
        for im_t in range(0, 4):
            lam = E(re, im_t)
            val = lam.value(p)
            for c in range(-3, 4):
                exact = vanishing_point(lam) == -c
                numeric = abs(p.qnum(val + c)) < 1e-12
                assert exact == numeric, (re, im_t, c)


def test_vanishing_with_absolute_imag():
    assert vanishing_point(E(-3, 0, 2)) is None
    assert vanishing_point(E(-3, 0, 0)) == -3


def test_vanishing_point_matches_bracket_vanishes():
    """For integer c: [lambda + c] = 0 iff c == -L, [-lambda + c] = 0 iff c == L."""
    parts = [(re, t, y)
             for re in [Fraction(k, 4) for k in range(-12, 13)]
             for t in (0, 1, 2, 3, 4, -2, Fraction(1, 2), 6)
             for y in (0, Fraction(1, 3))]
    for re, t, y in parts:
        lam = E(re, t, y)
        L = vanishing_point(lam)
        assert (L is not None) == (re.denominator == 1 and y == 0
                                   and t in (0, 2, 4, -2, 6))
        for c in range(-16, 17):
            for sign in (1, -1):
                expected = L is not None and c == -sign * L
                assert bracket_vanishes(lam, c, sign) == expected, (re, t, y, c, sign)


def test_normalize_spectral():
    lam, tag = normalize_spectral(E(1, 4))
    assert (lam.re, lam.im_t) == (1, 0) and tag == IDENTICAL
    lam, tag = normalize_spectral(E(1, 2))
    assert (lam.re, lam.im_t) == (1, 0) and tag == EQUIVALENT_FLIP
    lam, tag = normalize_spectral(E(1))
    assert (lam.re, lam.im_t) == (1, 0) and tag == IDENTICAL
    lam, tag = normalize_spectral(E(0, Fraction(7, 2)))
    assert lam.im_t == Fraction(3, 2) and tag == EQUIVALENT_FLIP
    lam, tag = normalize_spectral(E(0, -1))
    assert lam.im_t == 1 and tag == EQUIVALENT_FLIP
    # a parameter already in [0, 2) comes back as itself
    for lam in (E(1), E(Fraction(1, 3), 1), E(2, Fraction(7, 4), 3)):
        assert normalize_spectral(lam) == (lam, IDENTICAL)
        assert normalize_spectral(lam)[0] is lam


def test_spectral_value_and_mirror():
    p = QParam(2.0)
    lam = E(3, 0, 2)
    assert lam.value(p) == pytest.approx(3 + 2j)
    lam2 = E(Fraction(1, 2), 1)
    v = lam2.value(p)
    assert v.real == pytest.approx(0.5)
    assert v.imag == pytest.approx(math.pi / p.h)
    mirrored = lam2.mirrored(7)
    assert mirrored.re == Fraction(9, 2) and mirrored.im_t == -1


def test_spectral_value_classical_restriction():
    with pytest.raises(ValueError):
        E(1, 1).value(QParam(1.0))
    assert E(1, 0, Fraction(1, 2)).value(QParam(1.0)) == 1 + 0.5j


def test_float_lambda_is_an_exact_parameter():
    # a float is an exact binary fraction: the parameter of its parts gives it back
    for z in (5e-324 + 1e-300j, 1.5e308 - 1e300j, -2.5 + 0.001j, 1 / 3 + 1j / 3,
              0.7 + 1.3j, -0.0 - 3.0j):
        lam = E(Fraction(z.real), 0, Fraction(z.imag))
        for q in (0.5, 1.0, 2.0):
            assert lam.value(QParam(q)) == z, (z, q)

