"""Exact and floating arithmetic for q-numbers and spectral parameters.

The deformed number [b] at deformation q > 0 is

    [b] = (q^{b/2} - q^{-b/2}) / (q^{1/2} - q^{-1/2}) = sinh(h b / 2) / sinh(h / 2),

with h = ln q.  The sinh form extends [.] to complex arguments and is the
one used everywhere; at q = 1 the limit value [b] = b applies.

Classification decisions (vanishing of brackets, period reductions, window
membership) must not depend on floating point, so a spectral parameter
keeps its real part and its imaginary part as exact rationals.  The
imaginary part is split into a multiple of pi/h (the natural period unit
of [.]) and an absolute rational remainder:

    lambda = re + i * (im_t * pi/h + im_y).

[z] vanishes exactly when z is an even multiple of 2*pi*i/h shifted by a
vanishing real part, which in these coordinates reads: re == 0, im_y == 0
and im_t an even integer.  A float needs no other representation: it is
an exact binary fraction, so SpectralParam(Fraction(z.real), 0,
Fraction(z.imag)).value(q) == z for every finite complex z.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from numbers import Rational

IDENTICAL = "identical"
EQUIVALENT_FLIP = "equivalent_flip"


class QParam:
    """Deformation parameter q > 0 with h = ln q and a = q^{1/2} + q^{-1/2}.

    q = 1 is allowed; q-number evaluation then uses the limit value [b] = b.
    Instances are immutable in use and safe to share between threads.
    """

    __slots__ = ("q", "h", "a")

    def __init__(self, q: float) -> None:
        q = float(q)
        if not (q > 0.0) or math.isinf(q):
            raise ValueError(f"q must be a positive real number, got {q!r}")
        self.q = q
        self.h = math.log(q)
        self.a = math.sqrt(q) + 1.0 / math.sqrt(q)

    @property
    def is_classical(self) -> bool:
        return self.q == 1.0

    def qnum(self, z):
        """Evaluate [z].  Real input gives a float, complex input a complex.

        A value beyond the floating-point range raises ValueError naming
        z and q.
        """
        if isinstance(z, complex):
            if self.is_classical:
                return z
            sinh = cmath.sinh
        else:
            z = float(z)
            if self.is_classical:
                return z
            sinh = math.sinh
        try:
            return sinh(0.5 * self.h * z) / math.sinh(0.5 * self.h)
        except OverflowError:
            raise ValueError(
                f"q-number [{z}] is out of floating-point range at q={self.q}"
            ) from None

    def __eq__(self, other) -> bool:
        return isinstance(other, QParam) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("QParam", self.q))

    def __repr__(self) -> str:
        return f"QParam(q={self.q!r})"


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational) or isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


class SpectralParam:
    """Spectral parameter lambda of a degenerate-series representation.

    It stores lambda = re + i*(im_t * pi/h + im_y) with re, im_t, im_y
    rational, so every decision on it is exact.  A float value z is the
    parameter SpectralParam(Fraction(z.real), 0, Fraction(z.imag)).
    """

    __slots__ = ("re", "im_t", "im_y")

    def __init__(self, re, im_t=0, im_y=0):
        self.re = _as_fraction(re)
        self.im_t = _as_fraction(im_t)
        self.im_y = _as_fraction(im_y)

    @classmethod
    def exact(cls, re, im_t=0, im_y=0) -> "SpectralParam":
        """The constructor under its older name, which perfbench and a CI step still call."""
        return cls(re, im_t, im_y)

    @property
    def is_integer(self) -> bool:
        return self.im_t == 0 and self.im_y == 0 and self.re.denominator == 1

    def value(self, p: QParam) -> complex:
        """Numeric value of lambda for the given deformation."""
        im = float(self.im_y)
        if self.im_t != 0:
            if p.is_classical:
                raise ValueError("imaginary part in pi/h units is undefined at q = 1")
            im += float(self.im_t) * math.pi / p.h
        return complex(float(self.re), im)

    def mirrored(self, rs_sum: int) -> "SpectralParam":
        """The equivalent parameter r+s-2-lambda."""
        return SpectralParam(rs_sum - 2 - self.re, -self.im_t, -self.im_y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralParam):
            return NotImplemented
        return (self.re, self.im_t, self.im_y) == (other.re, other.im_t, other.im_y)

    def __hash__(self) -> int:
        return hash(("SpectralParam", self.re, self.im_t, self.im_y))

    def __repr__(self) -> str:
        parts = [str(self.re)]
        if self.im_t:
            parts.append(f"({self.im_t})*pi/h*i")
        if self.im_y:
            parts.append(f"({self.im_y})*i")
        return f"SpectralParam({' + '.join(parts)})"


def vanishing_point(lam: SpectralParam) -> int | None:
    """The integer L at which the brackets of lambda with integer shifts vanish.

    For integer c, [lambda + c] = 0 iff c == -L and [-lambda + c] = 0 iff
    c == L.  None when no such bracket can vanish: im_y != 0, im_t not an
    even integer, or re not an integer.
    """
    t = lam.im_t
    if lam.im_y != 0 or t.denominator != 1 or t.numerator % 2 != 0:
        return None
    if lam.re.denominator != 1:
        return None
    return lam.re.numerator


def normalize_spectral(lam: SpectralParam):
    """Reduce im_t into [0, 2) using the period/sign-flip structure of [.].

    A shift by 4*pi*i/h leaves every bracket value unchanged; a shift by
    2*pi*i/h flips the sign of every bracket.  Returns the reduced
    parameter and a tag: IDENTICAL if only full periods were removed,
    EQUIVALENT_FLIP if an odd number of half periods was involved.  A
    parameter already in range is returned itself (SpectralParam has no
    mutators).
    """
    t = lam.im_t
    if 0 <= t.numerator < 2 * t.denominator:  # 0 <= im_t < 2 in int arithmetic
        return lam, IDENTICAL
    k = t // 2
    reduced = SpectralParam(lam.re, t - 2 * k, lam.im_y)
    tag = IDENTICAL if k % 2 == 0 else EQUIVALENT_FLIP
    return reduced, tag
