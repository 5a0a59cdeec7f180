"""Coinvariant algebra H = A/J with exact per-degree normal forms.

Normal forms are computed through the inverse system of J for the apolar
pairing <p, q> = (p(d)q)(0), which is diagonal on monomials.  The key facts,
certified exactly at build time:

  * the product Xi of the root linear forms alpha^T x satisfies
    psi_i(d)Xi = 0 for every basic invariant, hence every partial derivative
    of Xi pairs to zero against J;
  * the derivatives of Xi of order |T| - d span a space whose dimension
    equals the coefficient of t^d in prod (1 - t^{d_i}) / (1 - t)^r, which
    is dim (J_d)-perp.

A degree-d table holds dim H_d selected derivatives ("harmonics"), the
greedily chosen standard monomials (grevlex pivot order), and the exact
inverse of their pairing matrix.  The normal form of p is then the unique
standard-monomial combination agreeing with p against every harmonic;
p minus its normal form lies in J_d.  Homogeneous polynomials of degree
above |T| reduce to zero outright.

Every harmonic is kept as the vector {e: c * e!}, with the apolar weight
multiplied in; in this form a derivative only shifts exponents, so every
entry of every harmonic is an entry of the weighted Xi.  Xi is
content-normalised, so the weighted Xi has integer coordinates (the build
raises ValueError if it does not), and the inverse of the pairing matrix
is kept as integer coordinates M over one denominator den, in lowest
terms.  The pairing matrix is block diagonal after permuting its rows and
columns (B4's 46 x 46 tables have blocks of at most 6), and each block of
its support is inverted on its own, by fraction-free elimination on its
numerators (ints over Q, power-basis tuples in Z[theta] over Q(theta));
den is the lcm of the blocks' dens.
The normal form is linear, so a basis memoises the column nf(x^e) of
each exponent e it meets: standard-monomial numerators over nf_den, the
lcm of the table dens, from the pairing vector of x^e and M times it
(integer sums; over Q(theta) products of numerator tuples), empty above
degree |T|.  A Poly already holds integer numerators c_e over one
denominator D (see ``poly``), so nf(p) is sum_e c_e column(e) over
nf_den * D, brought to lowest terms by one gcd: integers alone, one path
for every field.  Ideal membership (``in_j``) is a zero normal form.

The pivots come from one exact column echelon on the integer
``SparseSolver``: the degree-d monomials, in grevlex order, are columns
indexed by the candidate derivatives; a column that enlarges the span is a
standard monomial, and the pivot key of its row, the first candidate at
which its residual is nonzero, is its harmonic.  Eliminating a column
against the earlier pivot columns leaves the Schur complement that clearing
the pivot rows would, so this is the greedy row-and-column choice, with no
prime to be unlucky with.  The choice is certified by the exact
invertibility of the resulting pairing matrix.  A recorded layout (the
derivative multi-indices and standard monomials per degree, from the
group's cache file) skips that pass.  It is only a hint: the tables are
inverted on it block by block as in a cold build, the same certificates
run, and a layout that does not fit falls back to the pass.  Only this
module and ``cache`` know the layout format.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm
from operator import add

from .fields import Scalar
from .groups import ReflectionGroup
from .linalg import (SparseSolver, bareiss_jordan_inverse, inverse_defect,
                     support_blocks)
from .poly import Poly, grevlex_key, monomials_of_degree
from .reports import CertificationError
from .weil import B_QUOTIENT, FULL_WEIL, Weil


@lru_cache(maxsize=None)
def _weight(expo: tuple) -> int:
    w = 1
    for e in expo:
        w *= factorial(e)
    return w


def hilbert_coinvariants(degrees):
    """Coefficients of prod (1-t^{d_i})/(1-t)^r = prod [d_i]_t."""
    series = [1]
    for d in degrees:
        block = [1] * d
        new = [0] * (len(series) + d - 1)
        for i, a in enumerate(series):
            if a:
                for j, b in enumerate(block):
                    new[i + j] += a * b
        series = new
    return series


def _pairing(h: Poly, p: Poly) -> Scalar:
    """Apolar pairing of two homogeneous polynomials of the same degree."""
    small, big = (p, h) if len(p.num) <= len(h.num) else (h, p)
    total = h.field.zero
    bterms = big.terms
    for e, c in small.terms.items():
        other = bterms.get(e)
        if other is not None:
            total = total + c * other * _weight(e)
    return total


def _weighted(h: Poly) -> dict:
    """h as {e: c * e!}, so that <h, p> = sum_e p[e] * weighted[e], with
    integer coordinates (h is content-normalised); a non-integral one
    raises ValueError."""
    if h.den != 1:
        raise ValueError("harmonic with a non-integral coefficient")
    if h.field.is_rational:
        return {e: c * _weight(e) for e, c in h.num.items()}
    return {e: tuple(x * _weight(e) for x in c) for e, c in h.num.items()}


class _DegreeTable:
    __slots__ = ("monos", "weighted", "indices", "inv", "den")

    def __init__(self, monos, weighted, indices, inv, den):
        self.monos = monos          # standard monomials (expo tuples)
        self.weighted = weighted    # selected harmonics, in _weighted form
        self.indices = indices      # their derivative multi-indices
        self.inv = inv              # pairing matrix inverse is inv / den,
        self.den = den              # integer coordinates over one den

    def solve(self, v: list, field) -> dict:
        """Standard-monomial numerators, over ``den`` times the
        denominator of v, of the class whose pairing vector is v."""
        mul = None if field.is_rational else field.mul_num
        nz = [(i, vi) for i, vi in enumerate(v)
              if (vi if mul is None else any(vi))]
        out = {}
        for mono, row in zip(self.monos, self.inv):
            if mul is None:
                s = 0
                for i, vi in nz:
                    s += row[i] * vi
                if s:
                    out[mono] = s
            else:
                s = _sum_nums([mul(row[i], vi) for i, vi in nz], field)
                if any(s):
                    out[mono] = s
        return out


def _sum_nums(nums: list, field) -> tuple:
    """The sum of numerator tuples of Q(theta)."""
    return tuple(map(sum, zip(*nums))) if nums else (0,) * field.degree


class CoinvariantBasis:
    def __init__(self, group: ReflectionGroup, precomputed=None):
        self.group = group
        self.field = group.field
        self.rank = group.rank
        self.psis = group.basic_invariants()
        self.top = group.n_reflections
        self.h_dims = hilbert_coinvariants(group.degrees)
        if len(self.h_dims) != self.top + 1:
            raise CertificationError("sum (d_i - 1) != number of reflections")
        if sum(self.h_dims) != group.order:
            raise CertificationError("invariants not a regular sequence")
        if self.h_dims[self.top] != 1:
            raise CertificationError("top degree of H not one-dimensional")
        self.xi = group.root_form_product().content_normalized()
        self._certify_xi()
        self.tables: dict[int, _DegreeTable] = {}
        self._build_tables(precomputed)
        # nf(x^e) per exponent, over nf_den, filled by nf_poly on demand
        self.nf_den = lcm(*(t.den for t in self.tables.values()))
        self._columns: dict[tuple, tuple] = {}

    # -- certification ------------------------------------------------------

    def _certify_xi(self):
        """psi_i(d)Xi = 0, checked through the diagonal pairing on the
        integer numerators of psi_i and Xi (over Q(theta) products of
        numerator tuples): whether a sum is zero does not depend on the
        denominators."""
        xi = self.xi.num
        mul = None if self.field.is_rational else self.field.mul_num
        for psi in self.psis:
            d = psi.degree()
            if d > self.top:
                continue
            for m in monomials_of_degree(self.rank, self.top - d):
                total = 0 if mul is None else (0,) * self.field.degree
                for e, c in psi.num.items():
                    key = tuple(map(add, e, m))
                    v = xi.get(key)
                    if v is None:
                        continue
                    w = _weight(key)
                    if mul is None:
                        total += c * v * w
                    else:
                        total = tuple(a + x * w
                                      for a, x in zip(total, mul(c, v)))
                if total if mul is None else any(total):
                    raise CertificationError("root-form product is not "
                                             "annihilated by the invariants")

    # -- derivative bookkeeping ---------------------------------------------

    def _derivative(self, index: tuple) -> dict:
        """The derivative d^index Xi in _weighted form.

        d/dx_i (c x^e) = c e_i x^(e - 1_i) and e_i (e - 1_i)! = e!, so in
        _weighted form a derivative only shifts the exponents: every entry
        of every harmonic is an entry of the weighted Xi.
        """
        memo = self._deriv_memo
        got = memo.get(index)
        if got is None:
            i = next(k for k, v in enumerate(index) if v)
            parent = list(index)
            parent[i] -= 1
            got = {e[:i] + (e[i] - 1,) + e[i + 1:]: w
                   for e, w in self._derivative(tuple(parent)).items()
                   if e[i]}
            memo[index] = got
        return got

    # -- table construction ---------------------------------------------------

    def _build_tables(self, recorded=None):
        """Build every degree table, from the recorded layout if it fits,
        else by the exact column pass.  Sets ``from_layout``."""
        self._deriv_memo = {(0,) * self.rank: _weighted(self.xi)}
        self.from_layout = False
        if recorded:
            try:
                self._build_from_recorded(recorded)
                self.from_layout = True
            except (ValueError, KeyError):
                self.tables = {}    # a layout of another group, or stale
        if not self.from_layout:
            self._build_all()
        del self._deriv_memo        # the tables keep what they need

    def _build_all(self):
        n = self.top
        prev_indices = [(0,) * self.rank]
        for d in range(n, -1, -1):
            table = self._build_degree(d, self._candidates(prev_indices, n - d))
            self.tables[d] = table
            prev_indices = table.indices

    def _candidates(self, basis_indices, order):
        if order == 0:
            return [(0,) * self.rank]
        seen = {}
        for a in basis_indices:
            for j in range(self.rank):
                b = list(a)
                b[j] += 1
                tb = tuple(b)
                if tb not in seen:
                    seen[tb] = True
        return sorted(seen.keys(), key=grevlex_key)

    def _build_degree(self, d: int, cand_indices) -> _DegreeTable:
        """Degree-d table by the exact column pass of the module
        docstring, each column {candidate: entry} of the weighted
        derivatives; it stops at dim H_d, and a smaller span raises
        CertificationError."""
        k = self.h_dims[d]
        cands = [(a, wh) for a in cand_indices if (wh := self._derivative(a))]
        cols: dict = {}
        for i, (_, wh) in enumerate(cands):
            for e, w in wh.items():
                cols.setdefault(e, {})[i] = w
        solver = SparseSolver(self.field)
        rows, monos = [], []
        for m in monomials_of_degree(self.rank, d):
            if len(monos) == k:
                break
            if m in cols and solver.add(cols[m], 1):
                rows.append(solver.rows[-1][0])
                monos.append(m)
        if len(monos) != k:
            raise CertificationError(f"derivative span rank defect in degree "
                                     f"{d}: {len(monos)} < dim H_d = {k}")
        return self._table([cands[i] for i in rows], monos)

    def _table(self, chosen, monos) -> _DegreeTable:
        """Table of the chosen (index, weighted harmonic) pairs against
        the standard monomials, with the exact inverse of the pairing matrix
        P[i][j] = <h_i, m_j> as (M, den), P^{-1} = M / den with integer
        coordinates; ValueError if P is singular.

        P is split into the connected components of its support
        (``support_blocks``), a block diagonal after permuting rows and
        columns, and each block is inverted on its own numerators, in
        lowest terms, by ``bareiss_jordan_inverse``, which certifies it by
        its product.  M holds them all over one den, the lcm of theirs, so
        that M / den is P^{-1} in lowest terms.  With more than one block,
        P M = den I certifies M once more on the whole table; a single
        block is the whole table, whose product is then already checked.
        """
        weighted = [wh for _, wh in chosen]
        field = self.field
        zero = 0 if field.is_rational else (0,) * field.degree
        mat = [[wh.get(m, zero) for m in monos] for wh in weighted]
        parts = [(rows, cols, *bareiss_jordan_inverse(
                      [[mat[i][j] for j in cols] for i in rows], field))
                 for rows, cols in support_blocks(
                     mat, bool if field.is_rational else any)]
        den = lcm(*(bden for *_, bden in parts))
        inv = [[zero] * len(mat) for _ in mat]
        for rows, cols, binv, bden in parts:
            f = den // bden
            for j, brow in zip(cols, binv):
                for i, x in zip(rows, brow):
                    inv[j][i] = x * f if field.is_rational \
                        else tuple(c * f for c in x)
        if len(parts) > 1:
            bad = inverse_defect(mat, inv, den, field)
            if bad is not None:
                raise CertificationError(
                    f"inverse certification failed at {bad}")
        return _DegreeTable(monos, weighted, [a for a, _ in chosen], inv, den)

    def _build_from_recorded(self, recorded):
        """Rebuild tables from recorded (degree -> (indices, monos)) data,
        from a cache file; ValueError or KeyError if the layout does not
        fit this group.

        A layout that fits gives dim H_d derivatives of Xi of order
        |T| - d and as many monomials of degree d in every degree, and
        ``_table`` certifies that their pairing is invertible; together
        these make the table a correct one, whichever layout it came from.
        """
        def shaped(t, total):
            return (len(t) == self.rank
                    and all(type(x) is int and x >= 0 for x in t)
                    and sum(t) == total)

        for d in range(self.top, -1, -1):
            idxs, monos = recorded[d]
            idxs = [tuple(a) for a in idxs]
            monos = [tuple(m) for m in monos]
            if not (len(idxs) == len(monos) == self.h_dims[d]
                    and all(shaped(a, self.top - d) for a in idxs)
                    and all(shaped(m, d) for m in monos)):
                raise ValueError(f"recorded layout does not fit degree {d}")
            chosen = [(a, self._derivative(a)) for a in idxs]
            self.tables[d] = self._table(chosen, monos)

    # -- normal forms -----------------------------------------------------------

    def harmonic_class(self, d: int, v: list, den: int) -> Poly:
        """The degree-d class, on standard monomials, whose pairing
        vector against the degree-d harmonics is v / den (v numerators)."""
        t = self.tables[d]
        return Poly.from_num(self.rank, self.field, t.solve(v, self.field),
                             t.den * den)

    def _column(self, e: tuple):
        """The normal form of x^e as (standard monomial, numerator) pairs
        over ``nf_den``, memoised: from the table of its degree, the solve
        of its pairing vector against the harmonics; empty above top."""
        t = self.tables.get(sum(e))
        col = ()
        if t is not None:
            field = self.field
            zero = 0 if field.is_rational else (0,) * field.degree
            f = self.nf_den // t.den
            sol = t.solve([wh.get(e, zero) for wh in t.weighted], field)
            if field.is_rational:
                col = tuple((m, x * f) for m, x in sol.items())
            else:
                col = tuple((m, tuple(c * f for c in x))
                            for m, x in sol.items())
        self._columns[e] = col
        return col

    def nf_poly(self, p: Poly) -> Poly:
        """Normal form of p modulo J, supported on standard monomials: the
        combination of the columns of its monomials by its numerators,
        over nf_den times its denominator."""
        if p.is_zero():
            return p
        columns = self._columns
        out: dict = {}
        get = out.get
        if self.field.is_rational:
            for e, c in p.num.items():
                col = columns.get(e)
                for m, x in self._column(e) if col is None else col:
                    out[m] = get(m, 0) + c * x
            out = {m: v for m, v in out.items() if v}
        else:
            mul = self.field.mul_num
            for e, c in p.num.items():
                col = columns.get(e)
                for m, x in self._column(e) if col is None else col:
                    t = mul(c, x)
                    s = get(m)
                    out[m] = t if s is None else tuple(map(add, s, t))
            out = {m: v for m, v in out.items() if any(v)}
        return Poly.from_num(self.rank, self.field, out, self.nf_den * p.den)

    def in_j(self, p: Poly) -> bool:
        """Exact ideal membership: p lies in J iff its normal form is 0."""
        return not self.nf_poly(p)

    def nf_weil(self, w: Weil) -> Weil:
        out = {}
        for mask, p in w.terms.items():
            q = self.nf_poly(p)
            if q:
                out[mask] = q
        return Weil(w.r, w.field, out, B_QUOTIENT)

    @staticmethod
    def lift(w: Weil) -> Weil:
        """Standard-form representative of a B-class in the full Weil algebra."""
        return Weil(w.r, w.field, dict(w.terms), FULL_WEIL)

    def act_b(self, w_idx: int, a: Weil) -> Weil:
        """Group action on the quotient: act on a lift, re-reduce."""
        if a.ambient != B_QUOTIENT:
            raise ValueError("act_b acts on elements of B")
        return self.nf_weil(self.group.act_weil(w_idx, self.lift(a)))

    # -- harmonic polynomial bases ----------------------------------------------

    def plain_harmonics(self, d: int):
        """Basis of the inverse system of J in degree d (plain pairing)."""
        if d > self.top:
            return []
        to = self.field.from_num
        return [Poly(self.rank, self.field,
                     {e: to(c, _weight(e)) for e, c in wh.items()})
                for wh in self.tables[d].weighted]

    def invariant_harmonics(self, d: int):
        """Basis of classical W-harmonics: plain harmonics composed with G."""
        forms = [Poly.linear_form(self.group.gram[i], self.field)
                 for i in range(self.rank)]
        return [h.substitute(forms) for h in self.plain_harmonics(d)]
