"""Sparse multivariate polynomials over an exact field.

Terms map exponent tuples (length = num_vars, nonnegative ints) to nonzero
scalars.  Iteration order for printing and pivoting is graded reverse
lexicographic (grevlex).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import QQ, Field, Scalar


def grevlex_key(expo: tuple) -> tuple:
    """Sort key so that sorted() lists monomials in decreasing grevlex order."""
    return (-sum(expo), tuple(expo[::-1]))


class Poly:
    __slots__ = ("nv", "field", "terms")

    def __init__(self, nv: int, field: Field, terms: dict):
        self.nv = nv
        self.field = field
        self.terms = terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nv: int, field: Field = QQ) -> "Poly":
        return Poly(nv, field, {})

    @staticmethod
    def constant(c, nv: int, field: Field = QQ) -> "Poly":
        c = field.coerce(c)
        return Poly(nv, field, {(0,) * nv: c} if c else {})

    @staticmethod
    def variable(i: int, nv: int, field: Field = QQ) -> "Poly":
        e = [0] * nv
        e[i] = 1
        return Poly(nv, field, {tuple(e): field.one})

    @staticmethod
    def monomial(expo: tuple, c, field: Field = QQ) -> "Poly":
        c = field.coerce(c)
        return Poly(len(expo), field, {tuple(expo): c} if c else {})

    @staticmethod
    def linear_form(coeffs, field: Field = QQ) -> "Poly":
        nv = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = field.coerce(c)
            if c:
                e = [0] * nv
                e[i] = 1
                terms[tuple(e)] = c
        return Poly(nv, field, terms)

    # -- basic queries -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nv == other.nv
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nv, frozenset(self.terms.items())))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]))

    def __repr__(self):
        if not self.terms:
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
        if len(self.terms) < len(other.terms):
            self, other = other, self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly(self.nv, self.field, out)

    def __neg__(self):
        return Poly(self.nv, self.field, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.nv != other.nv:
                raise ValueError("mismatched variable count")
            if not self.terms or not other.terms:
                return Poly.zero(self.nv, self.field)
            out = {}
            a = self.terms
            b = other.terms
            if len(a) < len(b):
                a, b = b, a
            for e2, c2 in b.items():
                for e1, c1 in a.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    c = c1 * c2
                    s = out.get(e)
                    if s is None:
                        out[e] = c
                    else:
                        s = s + c
                        if s:
                            out[e] = s
                        else:
                            del out[e]
            return Poly(self.nv, self.field, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = self.field.coerce(c)
        if not c:
            return Poly.zero(self.nv, self.field)
        return Poly(self.nv, self.field,
                    {e: v * c for e, v in self.terms.items()})

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
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                e2 = list(e)
                e2[i] = k - 1
                out[tuple(e2)] = c * k
        return Poly(self.nv, self.field, out)

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
        if not self.terms:
            return self
        nums = []
        dens = []
        for c in self.terms.values():
            for q in self.field.coords(c):
                if q:
                    nums.append(abs(q.numerator))
                    dens.append(q.denominator)
        g = 0
        for n in nums:
            g = gcd(g, n)
        l = 1
        for d in dens:
            l = l * d // gcd(l, d)
        scalefac = Fraction(l, g if g else 1)
        out = self.scale(scalefac)
        lead = out.sorted_terms()[0][1]
        lc = self.field.coords(lead)
        first = next(c for c in lc if c)
        if first < 0:
            out = -out
        return out

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

