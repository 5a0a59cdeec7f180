"""Exact coefficient fields: the rationals and small real extensions Q(theta).

Rational scalars are plain ``fractions.Fraction``.  An extension scalar is
an ``AlgNum``: a tuple of integer numerators in the power basis 1, theta,
..., theta^(deg-1) over one positive integer denominator, kept in lowest
terms, so equal values have equal representations and zero is
``(0, ..., 0)/1``.  The minimal polynomials are monic with integer
coefficients, so theta^deg has integer coordinates; products are reduced
with them and never leave the integers, and inverses come from
fraction-free elimination on the same integers.  All arithmetic is exact.
Irreducibility of the catalogued minimal polynomials is asserted, not
computed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union


class Field:
    """Q (``degree == 1``) or Q(theta) with a monic integer minimal polynomial.

    ``min_poly`` is given low-to-high including the leading 1; a polynomial
    that is not monic or has a non-integral coefficient raises ValueError.
    ``embedding`` is a float locating which real root theta denotes; it is
    used only for documentation/positivity reporting, never for arithmetic.
    """

    def __init__(self, name: str, min_poly: Sequence[int] = (0, 1),
                 embedding: float = 0.0):
        coeffs = [Fraction(c) for c in min_poly]
        if coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        if any(c.denominator != 1 for c in coeffs):
            raise ValueError("minimal polynomial must have integer "
                             "coefficients")
        self.name = name
        self.min_poly = tuple(int(c) for c in coeffs)
        self.degree = len(coeffs) - 1
        self.embedding = embedding
        # integer coordinates of theta^degree
        self._top = tuple(-c for c in self.min_poly[:-1])
        self._zero = None
        self._one = None

    @property
    def zero(self) -> "Scalar":
        if self._zero is None:
            self._zero = self.scalar(0)
        return self._zero

    @property
    def one(self) -> "Scalar":
        if self._one is None:
            self._one = self.scalar(1)
        return self._one

    def __repr__(self):
        return f"Field({self.name})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def scalar(self, *coords) -> "Scalar":
        """Build a scalar from rational coordinates (padded with zeros).

        Q takes exactly one coordinate and Q(theta) at most its degree;
        any other count raises ValueError.
        """
        if self.degree == 1:
            if len(coords) != 1:
                raise ValueError("a scalar of Q has one coordinate, "
                                 f"got {len(coords)}")
            return Fraction(coords[0])
        if len(coords) > self.degree:
            raise ValueError(f"a scalar of {self.name} has at most "
                             f"{self.degree} coordinates, got {len(coords)}")
        cs = [Fraction(c) for c in coords]
        cs += [Fraction(0)] * (self.degree - len(cs))
        return AlgNum(self, *clear_denominators(cs))

    def coerce(self, x) -> "Scalar":
        if isinstance(x, AlgNum):
            if x.field != self:
                raise ValueError(f"a scalar of {x.field.name} is not in "
                                 f"{self.name}")
            return x
        if self.degree == 1:
            return Fraction(x)
        return self.scalar(Fraction(x))

    def coords(self, x) -> tuple:
        """Coordinates of a scalar in the power basis, length = degree."""
        if isinstance(x, AlgNum):
            return tuple(Fraction(n, x.den) for n in x.num)
        if self.degree == 1:
            return (Fraction(x),)
        return (Fraction(x),) + (Fraction(0),) * (self.degree - 1)

    def theta(self) -> "Scalar":
        if self.degree == 1:
            raise ValueError("Q has no generator theta")
        return self.scalar(0, 1)

    def approx(self, x) -> float:
        """Float value in the designated real embedding; InnerProduct
        reads the sign of a Gram minor from it."""
        cs = self.coords(x)
        return float(sum(float(c) * self.embedding ** i for i, c in enumerate(cs)))


QQ = Field("QQ")

# sqrt(5) > 0; houses H3, H4, I2(5) via 2cos(pi/5) = (1+theta)/2
QSQRT5 = Field("Q(sqrt5)", (-5, 0, 1), embedding=2.2360679774997896)

# theta = 2cos(pi/8), minimal polynomial t^4 - 4t^2 + 2
QCOSPI8 = Field("Q(2cos(pi/8))", (2, 0, -4, 0, 1), embedding=1.8477590650225735)

# theta = 2cos(pi/7), minimal polynomial t^3 - t^2 - 2t + 1
QCOSPI7 = Field("Q(2cos(pi/7))", (1, -2, -1, 1), embedding=1.8019377358048383)


class AlgNum:
    """Element ``num / den`` of a simple extension.

    ``num`` holds integer coordinates in the power basis and ``den`` is a
    positive integer; the constructor brings any integer input to lowest
    terms, ``gcd(*num, den) == 1``.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: Field, num: Sequence[int], den: int = 1):
        if den <= 0:
            if not den:
                raise ZeroDivisionError("zero denominator")
            num = [-n for n in num]
            den = -den
        g = gcd(*num, den)
        if g != 1:
            num = [n // g for n in num]
            den //= g
        self.field = field
        self.num = tuple(num)
        self.den = den

    @classmethod
    def _lowest(cls, field: Field, num: tuple, den: int) -> "AlgNum":
        """Build from a numerator tuple and ``den > 0`` already in lowest
        terms, skipping the gcd pass of the constructor."""
        x = object.__new__(cls)
        x.field = field
        x.num = num
        x.den = den
        return x

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, AlgNum):
            return (self.field == other.field and self.num == other.num
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator
                    and self.den == other.denominator
                    and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        if any(self.num[1:]):
            return hash((self.num, self.den))
        # a rational value hashes like the equal Fraction
        return hash(Fraction(self.num[0], self.den))

    def __repr__(self):
        cs = self.field.coords(self)
        return "(" + "+".join(f"{c}*t^{i}" if i else f"{c}"
                              for i, c in enumerate(cs) if c) + ")" \
            if any(cs) else "(0)"

    def __neg__(self):
        return AlgNum._lowest(self.field, tuple(-n for n in self.num),
                              self.den)

    def __add__(self, other):
        if isinstance(other, AlgNum):
            da, db = self.den, other.den
            if da == db:
                return AlgNum(self.field, [x + y for x, y in
                                           zip(self.num, other.num)], da)
            return AlgNum(self.field, [x * db + y * da for x, y in
                                       zip(self.num, other.num)], da * db)
        if isinstance(other, (int, Fraction)):
            q = other.denominator
            if q == 1:
                # gcd(n0 + k*den, n1, ..., den) = gcd(n0, n1, ..., den) = 1
                num = list(self.num)
                num[0] += other.numerator * self.den
                return AlgNum._lowest(self.field, tuple(num), self.den)
            num = [n * q for n in self.num]
            num[0] += other.numerator * self.den
            return AlgNum(self.field, num, self.den * q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, AlgNum):
            field = self.field
            d = field.degree
            if d == 2:
                # written out: every H3 and I2(5) scalar is quadratic
                (a0, a1), (b0, b1) = self.num, other.num
                r0, r1 = field._top
                hi = a1 * b1
                return AlgNum(field, (a0 * b0 + hi * r0,
                                      a0 * b1 + a1 * b0 + hi * r1),
                              self.den * other.den)
            num = [0] * d
            for bj, col in zip(other.num, self._columns()):
                if bj:
                    num = [x + bj * y for x, y in zip(num, col)]
            return AlgNum(field, num, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return AlgNum(self.field, [n * other.numerator for n in self.num],
                          self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _columns(self):
        """Integer coordinates of num * theta^j for j = 0 .. degree-1."""
        top = self.field._top
        cols = [self.num]
        for _ in range(len(top) - 1):
            c = cols[-1]
            cols.append(tuple(x + c[-1] * t
                              for x, t in zip((0,) + c[:-1], top)))
        return cols

    def inverse(self) -> "AlgNum":
        if not self:
            raise ZeroDivisionError("zero divisor")
        # Solve num * x = den for x on the integer matrix of multiplication
        # by num (column j = num * theta^j), augmented by the right-hand side.
        d = self.field.degree
        cols = self._columns()
        a = [[col[i] for col in cols] + [self.den if i == 0 else 0]
             for i in range(d)]
        pivot = bareiss_jordan(a, d)
        return AlgNum(self.field, [row[d] for row in a], pivot)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            # a zero divisor makes den zero, which the constructor rejects
            q = other.denominator
            return AlgNum(self.field, [n * q for n in self.num],
                          self.den * other.numerator)
        if isinstance(other, AlgNum):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other


Scalar = Union[Fraction, AlgNum]


def clear_denominators(values: Sequence) -> tuple[list, int]:
    """Integers ``nums`` and the least ``den > 0`` with ``values[i] ==
    nums[i] / den``, for rational values (``int`` or ``Fraction``)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def bareiss_jordan(a: list, n: int) -> int:
    """Fraction-free Gauss-Jordan, in place, on integer rows ``a``.

    Eliminates the first ``n`` columns of the ``n`` rows (any further
    columns are carried along).  Every row ends as zeros there except its
    diagonal entry, which is the returned last pivot, so the carried columns
    hold pivot times the solution.  Raises ValueError for singular input.
    """
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ValueError("matrix not invertible")
        a[k], a[piv] = a[piv], a[k]
        pk = a[k][k]
        for i in range(n):
            if i != k:
                aik = a[i][k]
                a[i] = [(pk * x - aik * y) // prev
                        for x, y in zip(a[i], a[k])]
        prev = pk
    return prev


def scalar_inverse(a: Scalar) -> Scalar:
    if isinstance(a, AlgNum):
        return a.inverse()
    return 1 / Fraction(a)
