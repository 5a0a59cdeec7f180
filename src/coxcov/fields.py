"""Exact coefficient fields: the rationals and small real extensions Q(theta).

Rational scalars are plain ``fractions.Fraction``.  An extension scalar is
an ``AlgNum``: a tuple of integer numerators in the power basis 1, theta,
..., theta^(deg-1) over one positive integer denominator, kept in lowest
terms, so equal values have equal representations and zero is
``(0, ..., 0)/1``.  The minimal polynomials are monic with integer
coefficients, so theta^deg has integer coordinates; products are reduced
with them and never leave the integers.  The package's one dense
elimination, ``fraction_free_jordan``, runs on these numerators: over Z
for ``AlgNum.inverse``, and over Z[theta] for ``linalg``.

The integer layer is shared with ``Poly``, which keeps whole polynomials
as numerators over one denominator: ``Field.mul_num`` multiplies two
numerators, ``Field.clear`` brings scalars over one denominator and
``Field.from_num`` builds the scalar back.  Over Q a numerator is a plain
``int``.

Each extension carries a rational isolating interval for theta, so the
sign of a scalar is decided exactly: the interval is bisected on the
minimal polynomial until interval arithmetic on the power basis fixes the
sign.  No float enters any of it.  Irreducibility of the catalogued
minimal polynomials, and that each interval holds a single root, are
asserted, not computed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import sub
from typing import Sequence, Union


class Field:
    """Q (``degree == 1``) or Q(theta) with a monic integer minimal polynomial.

    ``min_poly`` is given low-to-high including the leading 1; a polynomial
    that is not monic or has a non-integral coefficient raises ValueError.
    ``root_interval`` is a pair of positive rationals ``lo < hi`` with
    exactly one root of ``min_poly`` between them, which is the real theta
    the field denotes; ``sign`` reads it, and a field without one has no
    order.  ``min_poly`` must change sign across the interval (ValueError
    otherwise).
    """

    def __init__(self, name: str, min_poly: Sequence[int] = (0, 1),
                 root_interval=None):
        coeffs = [Fraction(c) for c in min_poly]
        if coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        if any(c.denominator != 1 for c in coeffs):
            raise ValueError("minimal polynomial must have integer "
                             "coefficients")
        self.name = name
        self.min_poly = tuple(int(c) for c in coeffs)
        self.degree = len(coeffs) - 1
        if root_interval is not None:
            lo, hi = map(Fraction, root_interval)
            if not (0 < lo < hi and _sign(_horner(self.min_poly, lo))
                    * _sign(_horner(self.min_poly, hi)) < 0):
                raise ValueError("root interval does not isolate a positive "
                                 "root of the minimal polynomial")
            root_interval = (lo, hi)
        self.root_interval = root_interval
        # integer coordinates of theta^degree
        self._top = tuple(-c for c in self.min_poly[:-1])
        self.mul_num = {1: int.__mul__, 2: self._mul_quadratic}.get(
            self.degree, self._mul_general)
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
        return AlgNum(self, *QQ.clear(cs))

    def coerce(self, x) -> "Scalar":
        if isinstance(x, AlgNum):
            if x.field != self:
                raise ValueError(f"a scalar of {x.field.name} is not in "
                                 f"{self.name}")
            return x
        if self.degree == 1:
            return x if type(x) is Fraction else Fraction(x)
        return self.scalar(Fraction(x))

    def coords(self, x) -> tuple:
        """Coordinates of a scalar in the power basis, length = degree."""
        if isinstance(x, AlgNum):
            return tuple(Fraction(n, x.den) for n in x.num)
        if self.degree == 1:
            return (Fraction(x),)
        return (Fraction(x),) + (Fraction(0),) * (self.degree - 1)

    # -- integer numerators ---------------------------------------------

    def from_num(self, num, den: int = 1) -> "Scalar":
        """The scalar num / den, for a numerator: an int over Q, a tuple of
        ints in the power basis over Q(theta)."""
        if self.degree == 1:
            return Fraction(num, den)
        return AlgNum(self, num, den)

    def clear(self, values: Sequence) -> tuple[list, int]:
        """Numerators ``nums`` and the least ``den > 0`` with ``values[i]
        == nums[i] / den``, for any scalars of the field."""
        xs = [self.coerce(v) for v in values]
        if self.degree == 1:
            den = lcm(*(x.denominator for x in xs))
            return [x.numerator * (den // x.denominator) for x in xs], den
        den = lcm(*(x.den for x in xs))
        return [tuple(n * (den // x.den) for n in x.num) for x in xs], den

    def _mul_quadratic(self, a: tuple, b: tuple) -> tuple:
        (a0, a1), (b0, b1) = a, b
        r0, r1 = self._top
        hi = a1 * b1
        return (a0 * b0 + hi * r0, a0 * b1 + a1 * b0 + hi * r1)

    def _mul_general(self, a: tuple, b: tuple) -> tuple:
        """Product of two numerator tuples: the convolution, then theta^k
        for k >= degree folded down by theta^degree = sum top_j theta^j."""
        d = self.degree
        c = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    c[i + j] += x * y
        top = self._top
        for k in range(2 * d - 2, d - 1, -1):
            h = c[k]
            if h:
                for j, t in enumerate(top, k - d):
                    c[j] += h * t
        return tuple(c[:d])

    def inverse_num(self, num) -> tuple:
        """(m, den) with 1 / num = m / den, den > 0 an int, for a nonzero
        numerator."""
        if self.degree == 1:
            return (1, num) if num > 0 else (-1, -num)
        q = AlgNum(self, num).inverse()
        return q.num, q.den

    # -- order --------------------------------------------------------------

    def sign(self, x) -> int:
        """Exact sign (-1, 0 or 1) of a scalar at the real theta.

        Over Q(theta) the isolating interval [lo, hi] of theta is bisected
        on the minimal polynomial until the value of num(t) = sum n_i t^i
        over the interval, bounded termwise (lo > 0, so t^i runs from lo^i
        to hi^i), excludes zero.  A nonzero scalar is nonzero at theta, so
        this ends.  ValueError for a field without a root interval.
        """
        if self.degree == 1:
            return _sign(Fraction(x))
        x = self.coerce(x)
        if not x:
            return 0
        if self.root_interval is None:
            raise ValueError(f"{self.name} has no real root interval")
        lo, hi = self.root_interval
        low_sign = _sign(_horner(self.min_poly, lo))
        while True:
            vlo = vhi = 0
            plo = phi = 1
            for n in x.num:
                a, b = n * plo, n * phi
                vlo += min(a, b)
                vhi += max(a, b)
                plo *= lo
                phi *= hi
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            mid = (lo + hi) / 2
            if _sign(_horner(self.min_poly, mid)) == low_sign:
                lo = mid
            else:
                hi = mid


def _sign(q) -> int:
    return (q > 0) - (q < 0)


def _horner(coeffs: Sequence[int], t: Fraction) -> Fraction:
    """The polynomial with low-to-high ``coeffs`` at t."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


QQ = Field("QQ")

# sqrt(5) > 0; houses H3, H4, I2(5) via 2cos(pi/5) = (1+theta)/2
QSQRT5 = Field("Q(sqrt5)", (-5, 0, 1), root_interval=(2, 3))

# theta = 2cos(pi/8) = 1.84..., minimal polynomial t^4 - 4t^2 + 2 (its
# other roots are -1.84..., +-0.76...)
QCOSPI8 = Field("Q(2cos(pi/8))", (2, 0, -4, 0, 1),
                root_interval=(Fraction(3, 2), 2))

# theta = 2cos(pi/7) = 1.80..., minimal polynomial t^3 - t^2 - 2t + 1 (its
# other roots are 2cos(3pi/7) = 0.44... and 2cos(5pi/7) = -1.24...)
QCOSPI7 = Field("Q(2cos(pi/7))", (1, -2, -1, 1),
                root_interval=(Fraction(3, 2), 2))


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
            return AlgNum(field, field.mul_num(self.num, other.num),
                          self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return AlgNum(self.field, [n * other.numerator for n in self.num],
                          self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "AlgNum":
        if not self:
            raise ZeroDivisionError("zero divisor")
        # Solve num * x = den for x on the integer matrix of multiplication
        # by num (column j = num * theta^j), augmented by the right-hand side.
        d, mul = self.field.degree, self.field.mul_num
        cols = [mul(self.num, (0,) * j + (1,) + (0,) * (d - 1 - j))
                for j in range(d)]
        a = [[col[i] for col in cols] + [self.den if i == 0 else 0]
             for i in range(d)]
        _, last, _ = fraction_free_jordan(a, d)
        return AlgNum(self.field, [row[d] for row in a], last)

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


def fraction_free_jordan(a: list, ncols: int, field: Field = QQ):
    """Fraction-free Gauss-Jordan (Bareiss), in place, on rows ``a`` of
    numerators: ints, or power-basis tuples over a Q(theta) ``field``.

    Eliminates the first ``ncols`` columns, carrying the rest along; a
    column with no nonzero entry in the rows left is skipped.  Returns
    (pivots, last, sign): the pivot columns, the last pivot and the sign of
    the row swaps.  Pivot row i ends as ``last`` at pivots[i], every other
    entry of those columns as 0.  Each entry stays a minor, in Z[theta] (a
    ring, as theta is an algebraic integer), so each step divides exactly
    by the previous pivot p: over Q(theta), by the product with m and the
    integer division by den, for 1 / p = m / den.
    """
    ring, mul = not field.is_rational, field.mul_num
    (prev,), _ = field.clear([1])
    inv, den, sign, pivots = prev, 1, 1, []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a))
                    if (any if ring else bool)(a[i][col])), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        if ring and r:
            inv, den = field.inverse_num(prev)
        c = mul(prow[col], inv)
        for i, row in enumerate(a):
            x = mul(row[col], inv)
            if i != r and ring and field.degree == 2:
                # c u - x v written out, so no product is a call
                (c0, c1), (x0, x1), (t0, t1) = c, x, field._top
                a[i] = [((c0 * u0 - x0 * v0 + (h := c1 * u1 - x1 * v1) * t0)
                         // den, (c0 * u1 + c1 * u0 - x0 * v1 - x1 * v0
                                  + h * t1) // den)
                        if u0 or u1 or v0 or v1 else (0, 0)
                        for (u0, u1), (v0, v1) in zip(row, prow)]
            elif i != r and ring:
                a[i] = [tuple(t // den for t in map(sub, mul(c, u),
                                                    mul(x, v)))
                        if any(u) or any(v) else u
                        for u, v in zip(row, prow)]
            elif i != r:
                a[i] = [(c * u - x * v) // prev for u, v in zip(row, prow)]
        pivots.append(col)
        prev = prow[col]
    return pivots, prev, sign


def scalar_inverse(a: Scalar) -> Scalar:
    return a.inverse() if isinstance(a, AlgNum) else 1 / Fraction(a)
