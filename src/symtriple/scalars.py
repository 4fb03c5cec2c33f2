"""Exact Gaussian-rational arithmetic.

``GaussianRational`` is the scalar type of the package: a complex number
``(a + b*i)/d`` with arbitrary-precision integer ``a``, ``b`` and ``d > 0``,
kept reduced so that ``gcd(a, b, d) == 1``.  Every operation is exact;
there is deliberately no float interop.

It is the value type at the edges of the package: parsing, single entries
read off a table, and the dense vectors that ``linalg.table_product``
takes and gives.  Matrix products, elimination and every structure-
constant table hold Gaussian-integer numerators over one denominator
instead (``linalg``), which build a ``GaussianRational`` only when read.
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction
from math import gcd as _gcd

__all__ = ["GaussianRational", "qi", "ZERO", "ONE", "I", "HALF"]

_HASH_MOD = sys.hash_info.modulus
_HASH_IMAG = sys.hash_info.imag
_HASH_INF = sys.hash_info.inf


class GaussianRational:
    """An element of Q(i), canonically reduced.

    Stored as integers ``a``, ``b``, ``d`` meaning ``(a + b*i)/d`` with
    ``d >= 1`` and ``gcd(a, b, d) == 1``.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int = 0, b: int = 0, d: int = 1):
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        g = _gcd(a, b, d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        self.a = a
        self.b = b
        self.d = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fractions(re: Fraction, im: Fraction = Fraction(0)) -> "GaussianRational":
        re = Fraction(re)
        im = Fraction(im)
        d = re.denominator * im.denominator // _gcd(re.denominator, im.denominator)
        return GaussianRational(
            re.numerator * (d // re.denominator),
            im.numerator * (d // im.denominator),
            d,
        )

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse strings like ``"3"``, ``"-1/2"``, ``"i"``, ``"3/4-2/5i"``;
        a zero denominator is malformed."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar string")
        m = _SCALAR_RE.fullmatch(s)
        if m is None:
            raise ValueError(f"malformed scalar {text!r}")
        re_part, im_part = m.group("re"), m.group("im")
        re_f = Fraction(re_part) if re_part else Fraction(0)
        if im_part is not None:
            body = im_part[:-1]  # strip trailing 'i'
            if body in ("", "+"):
                im_f = Fraction(1)
            elif body == "-":
                im_f = Fraction(-1)
            else:
                im_f = Fraction(body)
        else:
            im_f = Fraction(0)
        return GaussianRational.from_fractions(re_f, im_f)

    # -- views ---------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def conjugate(self) -> "GaussianRational":
        if not self.b:
            return self
        return _new(self.a, -self.b, self.d)

    @property
    def is_real(self) -> bool:
        return self.b == 0

    # -- arithmetic ----------------------------------------------------

    def __add__(s, o):
        if not isinstance(o, GaussianRational):
            o = _coerce(o)
            if o is NotImplemented:
                return o
        if not (o.a or o.b):
            return s
        if not (s.a or s.b):
            return o
        return GaussianRational(s.a * o.d + o.a * s.d, s.b * o.d + o.b * s.d, s.d * o.d)

    __radd__ = __add__

    def __sub__(s, o):
        if not isinstance(o, GaussianRational):
            o = _coerce(o)
            if o is NotImplemented:
                return o
        if not (o.a or o.b):
            return s
        return GaussianRational(s.a * o.d - o.a * s.d, s.b * o.d - o.b * s.d, s.d * o.d)

    def __rsub__(s, o):
        return (-s).__add__(o)

    def __neg__(s):
        if not (s.a or s.b):
            return s
        return _new(-s.a, -s.b, s.d)

    def __mul__(s, o):
        if not isinstance(o, GaussianRational):
            o = _coerce(o)
            if o is NotImplemented:
                return o
        if not (s.a or s.b) or not (o.a or o.b):
            return ZERO
        if s.b or o.b:
            return GaussianRational(
                s.a * o.a - s.b * o.b, s.a * o.b + s.b * o.a, s.d * o.d
            )
        return GaussianRational(s.a * o.a, 0, s.d * o.d)

    __rmul__ = __mul__

    def inverse(s) -> "GaussianRational":
        n = s.a * s.a + s.b * s.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(s.a * s.d, -s.b * s.d, n)

    def __truediv__(s, o):
        if not isinstance(o, GaussianRational):
            o = _coerce(o)
            if o is NotImplemented:
                return o
        return s * o.inverse()

    def __rtruediv__(s, o):
        return s.inverse() * o

    def __pow__(s, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return s.inverse() ** (-k)
        out = ONE
        base = s
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing -------------------------------------------

    def __eq__(s, o):
        if isinstance(o, GaussianRational):
            return s.a == o.a and s.b == o.b and s.d == o.d
        if isinstance(o, int):
            return s.b == 0 and s.d == 1 and s.a == o
        if isinstance(o, Fraction):
            return s.b == 0 and s.a == o.numerator and s.d == o.denominator
        return NotImplemented

    def __hash__(s):
        # Mirrors CPython's numeric hashing so QI(3) hashes like 3 and like
        # Fraction(3); pure-imaginary values follow the complex scheme.
        hre = _hash_fraction(s.a, s.d)
        if not s.b:
            return hre
        him = _hash_fraction(s.b, s.d)
        h = hre + _HASH_IMAG * him
        if h == -1:
            h = -2
        return h

    def __bool__(s):
        return bool(s.a or s.b)

    # -- formatting ------------------------------------------------------

    def __str__(s):
        if not s.b:
            return _frac_str(s.re)
        if not s.a:
            return _imag_str(s.im)
        im = _imag_str(s.im)
        if not im.startswith("-"):
            im = "+" + im
        return _frac_str(s.re) + im

    def __repr__(s):
        return f"qi('{s}')"


_object_new = object.__new__


def _new(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational (a + b*i)/d for a, b, d already in canonical form."""
    q = _object_new(GaussianRational)
    q.a = a
    q.b = b
    q.d = d
    return q


def _hash_fraction(num: int, den: int) -> int:
    # Same scheme as fractions.Fraction.__hash__.
    try:
        dinv = pow(den, -1, _HASH_MOD)
    except ValueError:
        return _HASH_INF if num >= 0 else -_HASH_INF
    h = hash(hash(abs(num)) * dinv)
    return h if num >= 0 else -h


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _imag_str(f: Fraction) -> str:
    if f == 1:
        return "i"
    if f == -1:
        return "-i"
    return _frac_str(f) + "i"


_SCALAR_RE = _re.compile(
    r"(?:(?P<re>[+-]?\d+(?:/\d*[1-9]\d*)?)(?=$|[+-]))?"
    r"(?P<im>[+-]?(?:\d+(?:/\d*[1-9]\d*)?)?i)?"
)


def qi(value) -> GaussianRational:
    """Coerce an int, Fraction, string or GaussianRational to GaussianRational.

    Raises ``TypeError`` for any other type (floats included).
    """
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot make an exact scalar from {type(value).__name__} {value!r}")
    return out


def _coerce(value):
    """``qi`` for the arithmetic operators: NotImplemented for unknown types."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        if value == 0:
            return ZERO
        if value == 1:
            return ONE
        return GaussianRational(value)
    if isinstance(value, Fraction):
        return GaussianRational(value.numerator, 0, value.denominator)
    if isinstance(value, str):
        return GaussianRational.parse(value)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF = GaussianRational(1, 0, 2)
