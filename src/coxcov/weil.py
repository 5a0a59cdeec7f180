"""Bigraded Weil-algebra elements: exterior monomials tensor polynomials.

Exterior indices are subsets of {0..r-1} stored as bitmasks (bit i set means
basis vector i occurs); the canonical orientation of a mask is increasing
index order.  Total degree of a homogeneous piece is
exterior degree + 2 * polynomial degree.
"""

from __future__ import annotations

from .fields import Field, QQ
from .poly import DEGREE_MASK, Poly

FULL_WEIL = "W"
B_QUOTIENT = "B"


def merge_sign(s: int, t: int) -> int:
    """Sign of concatenating increasing blocks s then t into one increasing
    block; 0 when the masks intersect."""
    if s & t:
        return 0
    sign = 1
    while t:
        low = t & (-t)
        # count members of s above this element of t
        above = s & ~(low | (low - 1))
        if bin(above).count("1") & 1:
            sign = -sign
        t ^= low
    return sign


# -- exterior algebra on mask -> coefficient dicts ---------------------------
#
# The coefficients are Polys for Weil elements and plain scalars for the
# exterior algebra of a Lie algebra; no stored coefficient is zero.

def add_terms(a: dict, b: dict) -> dict:
    """Sum of two exterior elements."""
    out = dict(a)
    for mask, c in b.items():
        cur = out.get(mask)
        if cur is None:
            out[mask] = c
        else:
            cur = cur + c
            if cur:
                out[mask] = cur
            else:
                del out[mask]
    return out


def wedge_terms(a: dict, b: dict) -> dict:
    """Graded-commutative product of two exterior elements."""
    out = {}
    for s, x in a.items():
        for t, y in b.items():
            sign = merge_sign(s, t)
            if sign == 0:
                continue
            prod = x * y
            if sign < 0:
                prod = -prod
            if not prod:
                continue
            mask = s | t
            cur = out.get(mask)
            if cur is None:
                out[mask] = prod
            else:
                cur = cur + prod
                if cur:
                    out[mask] = cur
                else:
                    del out[mask]
    return out


class Weil:
    __slots__ = ("r", "field", "ambient", "terms")

    def __init__(self, r: int, field: Field, terms: dict, ambient: str = FULL_WEIL):
        self.r = r
        self.field = field
        self.terms = terms
        self.ambient = ambient

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(r: int, field: Field = QQ, ambient: str = FULL_WEIL) -> "Weil":
        return Weil(r, field, {}, ambient)

    @staticmethod
    def from_poly(p: Poly, ambient: str = FULL_WEIL) -> "Weil":
        return Weil(p.nv, p.field, {0: p} if p else {}, ambient)

    @staticmethod
    def one(r: int, field: Field = QQ, ambient: str = FULL_WEIL) -> "Weil":
        return Weil.from_poly(Poly.constant(1, r, field), ambient)

    @staticmethod
    def vector(coeffs, field: Field = QQ, ambient: str = FULL_WEIL) -> "Weil":
        """Exterior-degree-1 element sum_i coeffs[i] (b_i tensor 1)."""
        r = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = field.coerce(c)
            if c:
                terms[1 << i] = Poly.constant(c, r, field)
        return Weil(r, field, terms, ambient)

    # -- queries ----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Weil) and self.r == other.r
                and self.ambient == other.ambient and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mask in sorted(self.terms):
            basis = "^".join(f"b{i}" for i in range(self.r) if mask & (1 << i))
            bits.append(f"[{basis or '1'}]({self.terms[mask]})")
        return " + ".join(bits)

    def bidegrees(self) -> set:
        """Set of (exterior degree, polynomial degree) pairs present."""
        out = set()
        for mask, p in self.terms.items():
            k = bin(mask).count("1")
            for e in p.num:
                out.add((k, e & DEGREE_MASK))
        return out

    def total_degrees(self) -> set:
        return {k + 2 * d for (k, d) in self.bidegrees()}

    def total_degree(self) -> int:
        """Total degree of a homogeneous element; -1 for zero."""
        degs = self.total_degrees()
        if not degs:
            return -1
        if len(degs) != 1:
            raise ValueError("element not homogeneous")
        return degs.pop()

    # -- arithmetic ---------------------------------------------------------

    def _assert_compatible(self, other: "Weil"):
        if self.r != other.r or self.ambient != other.ambient \
                or self.field != other.field:
            raise ValueError("mismatched ambient")

    def __add__(self, other: "Weil") -> "Weil":
        self._assert_compatible(other)
        return Weil(self.r, self.field, add_terms(self.terms, other.terms),
                    self.ambient)

    def __neg__(self):
        return Weil(self.r, self.field,
                    {m: -p for m, p in self.terms.items()}, self.ambient)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Weil":
        c = self.field.coerce(c)
        if not c:
            return Weil.zero(self.r, self.field, self.ambient)
        return Weil(self.r, self.field,
                    {m: p.scale(c) for m, p in self.terms.items()}, self.ambient)

    def scale_poly(self, q: Poly) -> "Weil":
        out = {}
        for m, p in self.terms.items():
            s = p * q
            if s:
                out[m] = s
        return Weil(self.r, self.field, out, self.ambient)


def wedge_mul(a: Weil, b: Weil) -> Weil:
    """Graded-commutative product; sign from merging index blocks."""
    a._assert_compatible(b)
    return Weil(a.r, a.field, wedge_terms(a.terms, b.terms), a.ambient)
