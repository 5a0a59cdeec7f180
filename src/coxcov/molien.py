"""Exact character-averaged graded multiplicity series in B = Lambda(V) (x) H.

For a character chi the series is

  (1/|W|) sum_w chi(w) det(1 + u w) prod_i (1 - u^{2 d_i}) / det(1 - u^2 w),

evaluated with exact polynomial division (each factor divides by
Springer's eigenvalue bound) and summed to a polynomial with nonnegative
integer coefficients.  The summand is a class function, so it is
evaluated once per conjugacy class, at the class representative, and
weighted by the class size.  Everything but chi is computed once per
group and kept on it (``ReflectionGroup.class_data``), so a series is a
weighted sum of those class factors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .fields import Field, scalar_inverse
from .groups import ClassFunction, ReflectionGroup
from .linalg import det
from .reports import certify


class GradedSeries:
    """Polynomial in one formal variable u with integer coefficients."""

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @staticmethod
    def zero() -> "GradedSeries":
        return GradedSeries([])

    @staticmethod
    def monomial(degree: int, coeff: int = 1) -> "GradedSeries":
        return GradedSeries([0] * degree + [coeff])

    def __getitem__(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, GradedSeries) and self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return GradedSeries([self[i] + other[i] for i in range(n)])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return GradedSeries([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return GradedSeries(out)

    def total(self) -> int:
        return sum(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*u^{i}" if i else str(c)
                          for i, c in enumerate(self.coeffs) if c)

    def as_list(self):
        return list(self.coeffs)


# -- dense scalar polynomials in u over the group field ----------------------

def _u_mul(a, b, field: Field):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def _u_divide_exact(num, den, field: Field):
    """Exact division of dense u-polynomials; raises on a remainder."""
    num = list(num)
    while num and not num[-1]:
        num.pop()
    dl = len(den) - 1
    while den and not den[-1]:
        den = den[:-1]
        dl -= 1
    inv = scalar_inverse(den[-1])
    q = [field.zero] * (len(num) - dl) if len(num) > dl else []
    for i in range(len(num) - 1, dl - 1, -1):
        c = num[i] * inv
        if c:
            q[i - dl] = c
            for j in range(dl + 1):
                num[i - dl + j] = num[i - dl + j] - c * den[j]
        num.pop()
    if any(num):
        raise ValueError("not a character: element factor fails to divide")
    return q


def _exterior_traces(w, field: Field):
    """tr Lambda^k w for k = 0..r, as sums of principal minors."""
    r = len(w)
    return [sum((det([[w[i][j] for j in rows] for i in rows], field)
                 for rows in combinations(range(r), k)), field.zero)
            for k in range(r + 1)]


def class_traces(group: ReflectionGroup):
    """tr Lambda^k w for k = 0..r at each class representative, in class
    order; computed once per group."""
    return group.class_data("exterior_traces", _class_traces)


def _class_traces(group: ReflectionGroup):
    return [_exterior_traces(group.elements[rep], group.field)
            for rep, _ in group.conjugacy_classes()]


def _class_factors(group: ReflectionGroup):
    """Per class, |class| det(1 + u w) prod_i (1 - u^{2 d_i}) /
    det(1 - u^2 w) at its representative w: the summand without chi,
    computed once per group."""
    return group.class_data("molien_factors", _molien_factors)


def _molien_factors(group: ReflectionGroup):
    field = group.field
    # prod_i (1 - u^{2 d_i})
    numer = [field.one]
    for d in group.degrees:
        fac = [field.zero] * (2 * d + 1)
        fac[0] = field.one
        fac[2 * d] = -field.one
        numer = _u_mul(numer, fac, field)
    out = []
    for (_, members), traces in zip(group.conjugacy_classes(),
                                    class_traces(group)):
        det_sq = [field.zero] * (2 * group.rank + 1)
        for k, t in enumerate(traces):            # det(1 - u^2 w)
            det_sq[2 * k] = t if k % 2 == 0 else -t
        q = _u_divide_exact(numer, det_sq, field)
        # traces are the coefficients of det(1 + u w)
        out.append([c * len(members) for c in _u_mul(traces, q, field)])
    return out


def graded_multiplicity_series(group: ReflectionGroup,
                               chi: ClassFunction) -> GradedSeries:
    """Multiplicity series of the chi-isotypic part of B; exact."""
    field = group.field
    top = 2 * group.n_reflections + group.rank
    acc = [field.zero] * (top + 1)
    for cw, factor in zip(chi.values, _class_factors(group)):
        if cw:
            for i, c in enumerate(factor):
                if c:
                    acc[i] = acc[i] + c * cw
    inv_order = Fraction(1, group.order)
    coeffs = []
    for c in acc:
        v = c * inv_order
        cs = field.coords(v)
        certify(all(x == 0 for x in cs[1:]),
                "not a character: irrational sum")
        x = cs[0]
        certify(x.denominator == 1 and x >= 0,
                "not a character: non-integer or negative multiplicity")
        coeffs.append(int(x))
    return GradedSeries(coeffs)


# -- closed product formulas -------------------------------------------------

def exterior_series(degrees) -> GradedSeries:
    """prod_i (1 + u^{2 d_i - 1}), the Poincare series of the exterior
    algebra on the p_i of the given degrees."""
    out = GradedSeries([1])
    for d in degrees:
        out = out * GradedSeries([1] + [0] * (2 * d - 2) + [1])
    return out


def invariants_series(group: ReflectionGroup) -> GradedSeries:
    """prod_i (1 + u^{2 d_i - 1}), the Poincare series of B^W."""
    return exterior_series(group.degrees)


def covariant_series_product_formula(group: ReflectionGroup) -> GradedSeries:
    """prod_{i<r} (1 + u^{2 d_i - 1}) * sum_i (u^{2 d_i - 3} + u^{2 d_i - 2})."""
    out = exterior_series(group.degrees[:-1])
    tail = GradedSeries.zero()
    for d in group.degrees:
        tail = tail + GradedSeries.monomial(2 * d - 3) \
            + GradedSeries.monomial(2 * d - 2)
    return out * tail
