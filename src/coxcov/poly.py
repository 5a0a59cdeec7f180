"""Sparse multivariate polynomials over an exact field, on integers.

A polynomial keeps its coefficients as integer numerators over one
positive common denominator, the layout of FLINT's ``fmpq_mpoly``:
``num`` maps monomial keys to numerators, an ``int`` over Q and a tuple of
``field.degree`` ints in the power basis 1, theta, ... over Q(theta), and
``den`` is the denominator of all of them.  The form is canonical:
``den > 0``, the gcd of ``den`` and every numerator entry is 1, and no zero
numerator is stored, so equal polynomials have equal ``num`` and ``den``,
and ``==`` and ``hash`` are structural.

A monomial key is one non-negative int, the packed exponent vector of
Monagan and Pearce ("Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  The exponent of x_i sits in a field
of ``EXPONENT_BITS`` = 7 bits (read with ``EXPONENT_MASK``), variable 0 in
the most significant one, so that keys compare as their exponent tuples
do; below them a field of ``DEGREE_BITS`` = 8 bits holds the total degree,
so ``key & DEGREE_MASK`` reads it without unpacking.  ``pack`` and
``unpack`` convert, and ``key_layout(nv)`` gives each variable's shift and
the key of x_i.  So a product of monomials is one integer add, and d/dx_i
subtracts the key of x_i.  A key holds monomials of total degree at most
``MAX_DEGREE`` = 127, so no exponent can carry into the next variable's
field: ``pack`` raises ``CertificationError`` past it, and so does a
product, whose degree field (at most 127 + 127) then sets its top bit, the
guard, which one test per product reads.  This is a check that raises, not
an ``assert``, so it holds under ``python -O`` too.  Exponent tuples stay
at the boundaries: the constructor ``Poly(nv, field, {expo: scalar})``,
``monomial``, ``terms``, ``sorted_terms`` and ``monomials_of_degree`` take
or give them.

Products, sums, scaling and derivatives run on the integers alone (over
Q(theta) through ``Field.mul_num``), with one gcd at the end of each.  A
scalar coefficient (``Fraction`` or ``AlgNum``) is built only when a
consumer reads ``terms``, which makes a new dict on every read.  The
constructor takes ``int``, ``Fraction`` or ``AlgNum`` values.

Iteration order for printing and pivoting is graded reverse lexicographic
(grevlex).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, combinations_with_replacement
from math import factorial, gcd, lcm
from operator import add, or_

from .fields import QQ, Field, Scalar
from .reports import CertificationError

EXPONENT_BITS = 7
EXPONENT_MASK = (1 << EXPONENT_BITS) - 1    # key >> shift & EXPONENT_MASK
DEGREE_BITS = 8
_GUARD = 1 << (DEGREE_BITS - 1)     # set in a product past MAX_DEGREE
DEGREE_MASK = _GUARD - 1            # key & DEGREE_MASK: the total degree
MAX_DEGREE = DEGREE_MASK            # <= EXPONENT_MASK: every exponent fits


def pack(expo) -> int:
    """The key of an exponent tuple; CertificationError past MAX_DEGREE."""
    key = deg = 0
    for x in expo:
        if x < 0:
            raise ValueError(f"negative exponent in {tuple(expo)}")
        key = key << EXPONENT_BITS | x
        deg += x
    if deg > MAX_DEGREE:
        raise CertificationError(f"monomial {tuple(expo)} past degree "
                                 f"{MAX_DEGREE}")
    return key << DEGREE_BITS | deg


@lru_cache(maxsize=None)
def key_layout(nv: int) -> tuple:
    """(shift, key of x_i) per variable i: exponent i of key k is
    ``k >> shift & EXPONENT_MASK``."""
    return tuple((s, 1 << s | 1) for s in
                 range(DEGREE_BITS + EXPONENT_BITS * (nv - 1),
                       DEGREE_BITS - 1, -EXPONENT_BITS))


def unpack(key: int, nv: int) -> tuple:
    """The exponent tuple of a key in nv variables."""
    return tuple(key >> s & EXPONENT_MASK for s, _ in key_layout(nv))


@lru_cache(maxsize=None)
def key_factorial(key: int) -> int:
    """e! = prod_i e_i! for the exponent vector e of a key."""
    w = 1
    key >>= DEGREE_BITS
    while key:
        w *= factorial(key & EXPONENT_MASK)
        key >>= EXPONENT_BITS
    return w


def grevlex_key(expo: tuple) -> tuple:
    """Sort key so that sorted() lists monomials in decreasing grevlex order."""
    return (-sum(expo), tuple(expo[::-1]))


def monomials_of_degree(nv: int, d: int):
    """Exponent tuples of total degree d, decreasing grevlex order."""
    if d == 0:
        return [(0,) * nv]
    out = []
    for bars in combinations_with_replacement(range(nv), d):
        e = [0] * nv
        for i in bars:
            e[i] += 1
        out.append(tuple(e))
    out.sort(key=grevlex_key)
    return out


def _scale_num(v: tuple, k: int) -> tuple:
    return tuple(x * k for x in v)


class Poly:
    __slots__ = ("nv", "field", "num", "den")

    def __init__(self, nv: int, field: Field, terms: dict):
        """The polynomial sum_e terms[e] x^e, e exponent tuples of length
        nv."""
        if any(len(e) != nv for e in terms):
            raise ValueError(f"exponent tuple not of length {nv}")
        nums, den = field.clear(list(terms.values()))
        num = dict(zip(map(pack, terms), nums))
        self.nv = nv
        self.field = field
        # lowest-terms scalars over their least common denominator already
        # have gcd 1 with it; only zeros are left to drop
        self.num = {e: c for e, c in num.items()
                    if (c if field.degree == 1 else any(c))}
        self.den = den if self.num else 1

    @staticmethod
    def _of(nv: int, field: Field, num: dict, den: int) -> "Poly":
        """A Poly from numerators already in canonical form over den."""
        p = object.__new__(Poly)
        p.nv = nv
        p.field = field
        p.num = num
        p.den = den
        return p

    @staticmethod
    def from_num(nv: int, field: Field, num: dict, den: int) -> "Poly":
        """The Poly num / den, for nonzero numerators ``num`` and den > 0:
        one gcd brings it to canonical form."""
        if den != 1 and num:
            if field.degree == 1:
                g = gcd(den, *num.values())
                if g != 1:
                    num = {e: c // g for e, c in num.items()}
            else:
                g = gcd(den, *chain.from_iterable(num.values()))
                if g != 1:
                    num = {e: tuple(x // g for x in c) for e, c in num.items()}
            den //= g
        return Poly._of(nv, field, num, den if num else 1)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nv: int, field: Field = QQ) -> "Poly":
        return Poly._of(nv, field, {}, 1)

    @staticmethod
    def constant(c, nv: int, field: Field = QQ) -> "Poly":
        return Poly(nv, field, {(0,) * nv: c})

    @staticmethod
    def variable(i: int, nv: int, field: Field = QQ) -> "Poly":
        e = [0] * nv
        e[i] = 1
        return Poly(nv, field, {tuple(e): 1})

    @staticmethod
    def monomial(expo: tuple, c, field: Field = QQ) -> "Poly":
        return Poly(len(expo), field, {tuple(expo): c})

    @staticmethod
    def linear_form(coeffs, field: Field = QQ) -> "Poly":
        nv = len(coeffs)
        return Poly(nv, field, {tuple(int(j == i) for j in range(nv)): c
                                for i, c in enumerate(coeffs)})

    @staticmethod
    def combination(nv: int, field: Field, items, den: int = 1) -> "Poly":
        """sum of c * q / den over the (c, q) pairs of ``items``, c a
        numerator (an int, or a tuple over Q(theta)) and q a Poly."""
        items = list(items)
        big = lcm(*(q.den for _, q in items))
        out: dict = {}
        get = out.get
        if field.degree == 1:
            for c, q in items:
                c *= big // q.den
                for e, v in q.num.items():
                    out[e] = get(e, 0) + c * v
            out = {e: v for e, v in out.items() if v}
        else:
            mul = field.mul_num
            for c, q in items:
                if q.den != big:
                    c = _scale_num(c, big // q.den)
                for e, v in q.num.items():
                    t = mul(c, v)
                    s = get(e)
                    out[e] = t if s is None else tuple(map(add, s, t))
            out = {e: v for e, v in out.items() if any(v)}
        return Poly.from_num(nv, field, out, den * big)

    # -- basic queries -------------------------------------------------

    @property
    def terms(self) -> dict:
        """{exponent tuple: scalar}, a new dict on every read."""
        den, nv = self.den, self.nv
        to = self.field.from_num
        return {unpack(e, nv): to(c, den) for e, c in self.num.items()}

    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nv == other.nv
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.nv, self.den, frozenset(self.num.items())))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(e & DEGREE_MASK for e in self.num)

    def is_homogeneous(self) -> bool:
        degs = {e & DEGREE_MASK for e in self.num}
        return len(degs) <= 1

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]))

    def __repr__(self):
        if not self.num:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(e) if k)
            bits.append(f"({c})" + ("*" + mono if mono else ""))
        return " + ".join(bits)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if self.nv != other.nv:
            raise ValueError("mismatched variable count")
        if not other.num:
            return self
        if not self.num:
            return other
        if len(self.num) < len(other.num):
            self, other = other, self
        da, db = self.den, other.den
        den = da // gcd(da, db) * db
        fa, fb = den // da, den // db
        if self.field.degree == 1:
            out = dict(self.num) if fa == 1 else \
                {e: c * fa for e, c in self.num.items()}
            get = out.get
            for e, c in other.num.items():
                s = get(e)
                if s is None:
                    out[e] = c * fb
                else:
                    s += c * fb
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        else:
            out = dict(self.num) if fa == 1 else \
                {e: _scale_num(c, fa) for e, c in self.num.items()}
            get = out.get
            for e, c in other.num.items():
                if fb != 1:
                    c = _scale_num(c, fb)
                s = get(e)
                if s is None:
                    out[e] = c
                else:
                    s = tuple(map(add, s, c))
                    if any(s):
                        out[e] = s
                    else:
                        del out[e]
        return Poly.from_num(self.nv, self.field, out, den)

    def __neg__(self):
        if self.field.degree == 1:
            num = {e: -c for e, c in self.num.items()}
        else:
            num = {e: _scale_num(c, -1) for e, c in self.num.items()}
        return Poly._of(self.nv, self.field, num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        if self.nv != other.nv:
            raise ValueError("mismatched variable count")
        a, b = self.num, other.num
        if not a or not b:
            return Poly.zero(self.nv, self.field)
        if len(a) < len(b):
            a, b = b, a
        field = self.field
        out: dict = {}
        get = out.get
        if field.degree == 1:
            for e2, c2 in b.items():
                for e1, c1 in a.items():
                    e = e1 + e2
                    out[e] = get(e, 0) + c1 * c2
        elif field.degree == 2:
            # written out: every H3 and I2(5) coefficient is quadratic
            r0, r1 = field._top
            for e2, (b0, b1) in b.items():
                for e1, (a0, a1) in a.items():
                    e = e1 + e2
                    hi = a1 * b1
                    c0 = a0 * b0 + hi * r0
                    c1 = a0 * b1 + a1 * b0 + hi * r1
                    s = get(e)
                    out[e] = (c0, c1) if s is None else (s[0] + c0, s[1] + c1)
        else:
            mul = field.mul_num
            for e2, c2 in b.items():
                for e1, c1 in a.items():
                    e = e1 + e2
                    c = mul(c1, c2)
                    s = get(e)
                    out[e] = c if s is None else tuple(map(add, s, c))
        # before the zeros go: past MAX_DEGREE keys may have merged
        if reduce(or_, out, 0) & _GUARD:
            raise CertificationError(f"product past degree {MAX_DEGREE}")
        if field.degree == 1:
            out = {e: c for e, c in out.items() if c}
        else:
            out = {e: c for e, c in out.items() if any(c)}
        return Poly.from_num(self.nv, field, out, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        field = self.field
        if isinstance(c, (int, Fraction)):      # a rational c: n / d as is
            n, d = c.numerator, c.denominator
        else:
            (n,), d = field.clear([c])
            if field.degree != 1 and not any(n[1:]):
                n = n[0]
        if not n:
            return Poly.zero(self.nv, field)
        if field.degree == 1:
            num = {e: v * n for e, v in self.num.items()}
        elif isinstance(n, int):
            num = {e: _scale_num(v, n) for e, v in self.num.items()}
        else:
            mul = field.mul_num
            num = {e: mul(v, n) for e, v in self.num.items()}
        return Poly.from_num(self.nv, field, num, self.den * d)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponent")
        result = Poly.constant(1, self.nv, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # -- calculus ------------------------------------------------------

    def partial(self, i: int) -> "Poly":
        rational = self.field.degree == 1
        shift, one = key_layout(self.nv)[i]
        out = {}
        for e, c in self.num.items():
            k = e >> shift & EXPONENT_MASK
            if k:
                out[e - one] = c * k if rational else _scale_num(c, k)
        return Poly.from_num(self.nv, self.field, out, self.den)

    # -- structure -----------------------------------------------------

    def substitute(self, images: list) -> "Poly":
        """Substitute variable i by the polynomial images[i], exactly.

        The result lives in the images' variables.  Powers of each image
        are memoized per call.
        """
        if len(images) != self.nv:
            raise ValueError(f"{len(images)} images for {self.nv} variables")
        nv = images[0].nv if images else self.nv
        powers = [{} for _ in range(self.nv)]

        def img_pow(i, k):
            memo = powers[i]
            got = memo.get(k)
            if got is None:
                got = images[i] ** k
                memo[k] = got
            return got

        out = Poly.zero(nv, self.field)
        for e, c in self.terms.items():
            part = Poly.constant(c, nv, self.field)
            for i, k in enumerate(e):
                if k:
                    part = part * img_pow(i, k)
            out = out + part
        return out

    def content_normalized(self) -> "Poly":
        """Scale so coefficients are integral and primitive; sign fixed so
        the grevlex-leading coefficient (first coordinate) is positive."""
        if not self.num:
            return self
        rational = self.field.degree == 1
        flat = self.num.values() if rational else \
            chain.from_iterable(self.num.values())
        g = gcd(*flat)
        nv = self.nv
        lead = self.num[min(self.num,
                            key=lambda e: grevlex_key(unpack(e, nv)))]
        if (lead if rational else next(x for x in lead if x)) < 0:
            g = -g
        if rational:
            num = {e: c // g for e, c in self.num.items()}
        else:
            num = {e: tuple(x // g for x in c) for e, c in self.num.items()}
        return Poly._of(self.nv, self.field, num, 1)

    def eval_scalars(self, point: list) -> Scalar:
        """Evaluate at a point given as a list of scalars."""
        total = self.field.zero
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                for _ in range(k):
                    v = v * point[i]
            total = total + v
        return total
