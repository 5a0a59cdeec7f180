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
entry of every harmonic is an entry of the weighted Xi.  Over Q the whole
normal form runs on integers.  Xi is content-normalised, so the weighted
Xi is integral (the build raises ValueError if it is not), and the
pairing inverse is kept as integers M / den from fraction-free
elimination.  The input's coefficients are brought over one common
denominator D once, the pairing vector and M times it are integer sums,
and each output coefficient is one Fraction(num, den * D).  Over
Q(theta) the same loops run on AlgNum scalars with den = D = 1.

Pivot selection runs modulo a prime for speed; the choice is certified by
the exact invertibility of the resulting pairing matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial

from .fields import Scalar, clear_denominators
from .groups import ReflectionGroup
from .linalg import (SparseSolver, bareiss_jordan_inverse,
                     field_prime_and_root, inverse, modp_greedy_pivots,
                     scalar_mod)
from .poly import Poly, grevlex_key
from .reports import CertificationError
from .weil import B_QUOTIENT, FULL_WEIL, Weil


@lru_cache(maxsize=None)
def _weight(expo: tuple) -> int:
    w = 1
    for e in expo:
        w *= factorial(e)
    return w


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


def hilbert_coinvariants(degrees, rank):
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
    small, big = (p, h) if len(p.terms) <= len(h.terms) else (h, p)
    total = h.field.zero
    bterms = big.terms
    for e, c in small.terms.items():
        other = bterms.get(e)
        if other is not None:
            total = total + c * other * _weight(e)
    return total


def _weighted(h: Poly) -> dict:
    """h as {e: c * e!}, so that <h, p> = sum_e p[e] * weighted[e].

    Over Q the entries must be integers (Xi is content-normalised); a
    non-integral one raises ValueError.
    """
    out = {e: c * _weight(e) for e, c in h.terms.items()}
    if not h.field.is_rational:
        return out
    if any(c.denominator != 1 for c in out.values()):
        raise ValueError("harmonic with a non-integral coefficient")
    return {e: c.numerator for e, c in out.items()}


class _DegreeTable:
    __slots__ = ("monos", "weighted", "indices", "inv", "den", "rational")

    def __init__(self, monos, weighted, indices, inv, den, rational):
        self.monos = monos          # standard monomials (expo tuples)
        self.weighted = weighted    # selected harmonics, in _weighted form
        self.indices = indices      # their derivative multi-indices
        self.inv = inv              # pairing matrix inverse is inv / den:
        self.den = den              # integers over Q, den = 1 over Q(theta)
        self.rational = rational

    def cleared(self, terms: dict):
        """(integer terms, D) with terms = integer terms / D over Q;
        (terms, 1) over Q(theta)."""
        if not self.rational:
            return terms, 1
        nums, scale = clear_denominators(list(terms.values()))
        return dict(zip(terms, nums)), scale

    def pairing_vector(self, terms: dict) -> list:
        """<h_i, p> for every harmonic h_i, p given by its terms."""
        out = []
        for wh in self.weighted:
            s = 0
            if len(terms) <= len(wh):
                for e, c in terms.items():
                    w = wh.get(e)
                    if w is not None:
                        s += c * w
            else:
                for e, w in wh.items():
                    c = terms.get(e)
                    if c is not None:
                        s += c * w
            out.append(s)
        return out

    def solve(self, v: list, scale=1) -> dict:
        """Standard-monomial terms of the class whose pairing vector is
        v / scale (v integer and scale a positive int over Q)."""
        nz = [(i, vi) for i, vi in enumerate(v) if vi]
        div = self.den * scale
        out = {}
        for mono, row in zip(self.monos, self.inv):
            num = 0
            for i, vi in nz:
                num += row[i] * vi
            if num:
                out[mono] = Fraction(num, div) if self.rational else num
        return out


class CoinvariantBasis:
    def __init__(self, group: ReflectionGroup, precomputed=None):
        self.group = group
        self.field = group.field
        self.rank = group.rank
        self.psis = group.basic_invariants()
        self.top = group.n_reflections
        self.h_dims = hilbert_coinvariants(group.degrees, group.rank)
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

    # -- certification ------------------------------------------------------

    def _certify_xi(self):
        """psi_i(d)Xi = 0, checked through the diagonal pairing."""
        xi_terms = self.xi.terms
        for psi in self.psis:
            d = psi.degree()
            if d > self.top:
                continue
            for m in monomials_of_degree(self.rank, self.top - d):
                total = self.field.zero
                for e, c in psi.terms.items():
                    key = tuple(a + b for a, b in zip(e, m))
                    v = xi_terms.get(key)
                    if v is not None:
                        total = total + c * v * _weight(key)
                if total:
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
        """Build every degree table, from the recorded layout if given."""
        self._deriv_memo = {(0,) * self.rank: _weighted(self.xi)}
        if recorded:
            self._build_from_recorded(recorded)
        else:
            self._build_all()
        del self._deriv_memo        # the tables keep what they need

    def _build_all(self):
        n = self.top
        prime_root = field_prime_and_root(self.field)
        prev_indices = [(0,) * self.rank]
        for d in range(n, -1, -1):
            cand_indices = self._candidates(prev_indices, n - d)
            table = self._build_degree(d, cand_indices, prime_root)
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

    def _build_degree(self, d: int, cand_indices, prime_root) -> _DegreeTable:
        """Degree-d table, pivots preselected modulo the prime of
        ``prime_root`` = (p, root of min_poly mod p)."""
        import numpy as np      # build only: a warm load never needs it

        k = self.h_dims[d]
        monos = monomials_of_degree(self.rank, d)
        cands = [(a, self._derivative(a)) for a in cand_indices]
        cands = [(a, wh) for a, wh in cands if wh]
        mono_pos = {m: i for i, m in enumerate(monos)}
        p, root = prime_root
        tries = 0
        while True:
            mat = np.zeros((len(cands), len(monos)), dtype=np.int64)
            for i, (_, wh) in enumerate(cands):
                for e, c in wh.items():
                    mat[i, mono_pos[e]] = scalar_mod(c, p, root, self.field)
            rows, cols = modp_greedy_pivots(mat, p, k)
            if len(rows) == k:
                try:
                    return self._table([cands[i] for i in rows],
                                       [monos[j] for j in cols])
                except ValueError:
                    pass
            tries += 1
            if tries >= 3:
                return self._build_degree_exact(cands, monos, k)
            p, root = field_prime_and_root(self.field, p + 2)

    def _table(self, chosen, monos) -> _DegreeTable:
        """Table of the chosen (index, weighted harmonic) pairs against
        the standard monomials, with the exact inverse of the pairing matrix
        P[i][j] = <h_i, m_j> as (M, den), P^{-1} = M / den; ValueError if P
        is singular.

        Over Q, M and den are integers from fraction-free elimination; over
        Q(theta), M is the inverse itself and den = 1.
        """
        weighted = [wh for _, wh in chosen]
        rows = [[wh.get(m, 0) for m in monos] for wh in weighted]
        if self.field.is_rational:
            inv, den = bareiss_jordan_inverse(rows)
        else:
            inv, den = inverse(rows, self.field), 1
        return _DegreeTable(monos, weighted, [a for a, _ in chosen], inv, den,
                            self.field.is_rational)

    def _build_degree_exact(self, cands, monos, k) -> _DegreeTable:
        """Exact greedy fallback (used when mod-p selection is unlucky)."""
        solver = SparseSolver()
        chosen = []
        for cand in cands:
            if solver.add(cand[1]):
                chosen.append(cand)
            if len(chosen) == k:
                break
        if len(chosen) != k:
            raise CertificationError("derivative span rank defect")
        # greedy standard monomials against the chosen harmonics
        cols = []
        colsolver = SparseSolver()
        for m in monos:
            col = {i: wh[m] for i, (_, wh) in enumerate(chosen) if m in wh}
            if colsolver.add(col):
                cols.append(m)
            if len(cols) == k:
                break
        if len(cols) != k:
            raise CertificationError("standard monomial rank defect")
        return self._table(chosen, cols)

    def _build_from_recorded(self, recorded):
        """Rebuild tables from cached (degree -> (indices, monos)) data."""
        for d in range(self.top, -1, -1):
            idxs, monos = recorded[d]
            chosen = [(tuple(a), self._derivative(tuple(a))) for a in idxs]
            self.tables[d] = self._table(chosen, [tuple(m) for m in monos])

    def recorded_tables(self):
        return {d: (t.indices, t.monos) for d, t in self.tables.items()}

    # -- normal forms -----------------------------------------------------------

    def _parts(self, p: Poly):
        """(degree, terms) of the homogeneous parts of p of degree <= top,
        in increasing degree."""
        parts: dict[int, dict] = {}
        for e, c in p.terms.items():
            d = sum(e)
            if d <= self.top:
                parts.setdefault(d, {})[e] = c
        return sorted(parts.items())

    def nf_poly(self, p: Poly) -> Poly:
        """Normal form of p modulo J, supported on standard monomials."""
        if p.is_zero():
            return p
        out = Poly.zero(self.rank, self.field)
        for d, terms in self._parts(p):
            t = self.tables[d]
            terms, scale = t.cleared(terms)
            out = out + Poly(self.rank, self.field,
                             t.solve(t.pairing_vector(terms), scale))
        return out

    def in_j(self, p: Poly) -> bool:
        """Exact ideal membership through the harmonic pairing."""
        for d, terms in self._parts(p):
            t = self.tables[d]
            if any(t.pairing_vector(t.cleared(terms)[0])):
                return False
        return True

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
        return [Poly(self.rank, self.field,
                     {e: self.field.coerce(c) / _weight(e)
                      for e, c in wh.items()})
                for wh in self.tables[d].weighted]

    def invariant_harmonics(self, d: int):
        """Basis of classical W-harmonics: plain harmonics composed with G."""
        forms = [Poly.linear_form(self.group.gram[i], self.field)
                 for i in range(self.rank)]
        return [h.substitute(forms) for h in self.plain_harmonics(d)]
