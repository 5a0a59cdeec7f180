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

Pivot selection runs modulo a prime for speed; the choice is certified by
the exact invertibility of the resulting pairing matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial

import numpy as np

from .fields import Scalar
from .groups import ReflectionGroup
from .linalg import (SparseSolver, bareiss_jordan_inverse,
                     field_prime_and_root, inverse, modp_greedy_pivots,
                     scalar_mod)
from .poly import Poly, grevlex_key
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


class _DegreeTable:
    __slots__ = ("monos", "mono_pos", "harms", "indices", "inv", "den")

    def __init__(self, monos, harms, indices, inv, den):
        self.monos = monos          # standard monomials (expo tuples)
        self.mono_pos = {m: i for i, m in enumerate(monos)}
        self.harms = harms          # selected derivative polynomials
        self.indices = indices      # their derivative multi-indices
        self.inv = inv              # pairing matrix inverse is inv / den:
        self.den = den              # integers over Q, den = 1 over Q(theta)


class CoinvariantBasis:
    def __init__(self, group: ReflectionGroup, precomputed=None):
        self.group = group
        self.field = group.field
        self.rank = group.rank
        self.psis = group.basic_invariants()
        self.top = group.n_reflections
        self.h_dims = hilbert_coinvariants(group.degrees, group.rank)
        assert len(self.h_dims) == self.top + 1
        assert sum(self.h_dims) == group.order, \
            "invariants not a regular sequence"
        assert self.h_dims[self.top] == 1
        self.xi = group.root_form_product().content_normalized()
        self._certify_xi()
        self._deriv_memo = {(0,) * self.rank: self.xi}
        self.tables: dict[int, _DegreeTable] = {}
        self._prime, self._root = field_prime_and_root(self.field)
        if precomputed:
            self._build_from_recorded(precomputed)
        else:
            self._build_all()

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
                assert not total, \
                    "root-form product is not annihilated by the invariants"

    # -- derivative bookkeeping ---------------------------------------------

    def _derivative(self, index: tuple) -> Poly:
        memo = self._deriv_memo
        got = memo.get(index)
        if got is None:
            i = next(k for k, v in enumerate(index) if v)
            parent = list(index)
            parent[i] -= 1
            got = self._derivative(tuple(parent)).partial(i)
            memo[index] = got
        return got

    # -- table construction ---------------------------------------------------

    def _build_all(self):
        n = self.top
        prev_indices = [(0,) * self.rank]
        for d in range(n, -1, -1):
            cand_indices = self._candidates(prev_indices, n - d)
            table = self._build_degree(d, cand_indices)
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
        k = self.h_dims[d]
        monos = monomials_of_degree(self.rank, d)
        cands = [(a, self._derivative(a)) for a in cand_indices]
        cands = [(a, h) for a, h in cands if h]
        mono_pos = {m: i for i, m in enumerate(monos)}
        p, root = self._prime, self._root
        tries = 0
        while True:
            mat = np.zeros((len(cands), len(monos)), dtype=np.int64)
            for i, (_, h) in enumerate(cands):
                for e, c in h.terms.items():
                    mat[i, mono_pos[e]] = scalar_mod(c * _weight(e), p, root,
                                                     self.field)
            rows, cols = modp_greedy_pivots(mat, p, k)
            if len(rows) == k:
                sel_harms = [cands[i][1] for i in rows]
                sel_idx = [cands[i][0] for i in rows]
                sel_monos = [monos[j] for j in cols]
                try:
                    inv, den = self._invert_pairing(sel_harms, sel_monos)
                except ValueError:
                    inv = None
                if inv is not None:
                    return _DegreeTable(sel_monos, sel_harms, sel_idx, inv, den)
            tries += 1
            if tries >= 3:
                return self._build_degree_exact(d, cands, monos, k)
            p, root = field_prime_and_root(self.field, p + 2)

    def _invert_pairing(self, harms, monos):
        """Exact inverse of P[i][j] = <h_i, m_j> as (M, den), P^{-1} = M / den.

        Over Q, M and den are integers from fraction-free elimination; over
        Q(theta), M is the inverse itself and den = 1.
        """
        from math import gcd
        k = len(monos)
        field = self.field
        rows = [[harms[i].terms.get(m, field.zero) * _weight(m)
                 for m in monos] for i in range(k)]
        if field.is_rational:
            den_l = 1
            for row in rows:
                for v in row:
                    f = Fraction(v)
                    den_l = den_l * f.denominator // gcd(den_l, f.denominator)
            scaled = [[int(Fraction(v) * den_l) for v in row] for row in rows]
            inv, den = bareiss_jordan_inverse(scaled)
            # P = scaled/den_l, hence P^{-1} = den_l * inv / den
            if den_l != 1:
                inv = [[v * den_l for v in row] for row in inv]
            return (inv, den)
        return (inverse(rows, field), 1)

    def _build_degree_exact(self, d, cands, monos, k) -> _DegreeTable:
        """Exact greedy fallback (used when mod-p selection is unlucky)."""
        solver = SparseSolver()
        chosen = []
        for a, h in cands:
            vec = {e: c * _weight(e) for e, c in h.terms.items()}
            if solver.add(vec):
                chosen.append((a, h))
            if len(chosen) == k:
                break
        if len(chosen) != k:
            raise AssertionError("derivative span rank defect")
        sel_harms = [h for _, h in chosen]
        sel_idx = [a for a, _ in chosen]
        # greedy standard monomials against the chosen harmonics
        cols = []
        colsolver = SparseSolver()
        for j, m in enumerate(monos):
            col = {i: sel_harms[i].terms.get(m, self.field.zero) * _weight(m)
                   for i in range(k)}
            col = {i: v for i, v in col.items() if v}
            if colsolver.add(col):
                cols.append(m)
            if len(cols) == k:
                break
        assert len(cols) == k
        inv, den = self._invert_pairing(sel_harms, cols)
        return _DegreeTable(cols, sel_harms, sel_idx, inv, den)

    def _build_from_recorded(self, recorded):
        """Rebuild tables from cached (degree -> (indices, monos)) data."""
        for d in range(self.top, -1, -1):
            idxs, monos = recorded[d]
            idxs = [tuple(a) for a in idxs]
            monos = [tuple(m) for m in monos]
            harms = [self._derivative(a) for a in idxs]
            inv, den = self._invert_pairing(harms, monos)
            self.tables[d] = _DegreeTable(monos, harms, idxs, inv, den)

    def recorded_tables(self):
        return {d: (t.indices, t.monos) for d, t in self.tables.items()}

    # -- normal forms -----------------------------------------------------------

    def std_monomials(self, d: int):
        if d > self.top:
            return []
        return list(self.tables[d].monos)

    def dim_h(self, d: int) -> int:
        return self.h_dims[d] if 0 <= d <= self.top else 0

    def _nf_homogeneous(self, p: Poly, d: int) -> Poly:
        t = self.tables[d]
        k = len(t.monos)
        v = [_pairing(h, p) for h in t.harms]
        out = {}
        for j in range(k):
            num = 0
            for mij, vi in zip(t.inv[j], v):
                if vi:
                    num += mij * vi
            if num:
                out[t.monos[j]] = num / t.den
        return Poly(self.rank, self.field, out)

    def nf_poly(self, p: Poly) -> Poly:
        """Normal form of p modulo J, supported on standard monomials."""
        if p.is_zero():
            return p
        out = Poly.zero(self.rank, self.field)
        degs = sorted({sum(e) for e in p.terms})
        for d in degs:
            if d > self.top:
                continue
            out = out + self._nf_homogeneous(p.homogeneous_part(d), d)
        return out

    def in_j(self, p: Poly) -> bool:
        """Exact ideal membership through the harmonic pairing."""
        degs = sorted({sum(e) for e in p.terms})
        for d in degs:
            if d > self.top:
                continue
            part = p.homogeneous_part(d)
            for h in self.tables[d].harms:
                if _pairing(h, part):
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
        assert a.ambient == B_QUOTIENT
        return self.nf_weil(self.group.act_weil(w_idx, self.lift(a)))

    # -- harmonic polynomial bases ----------------------------------------------

    def plain_harmonics(self, d: int):
        """Basis of the inverse system of J in degree d (plain pairing)."""
        if d > self.top:
            return []
        return list(self.tables[d].harms)

    def invariant_harmonics(self, d: int):
        """Basis of classical W-harmonics: plain harmonics composed with G."""
        forms = [Poly.linear_form(self.group.gram[i], self.field)
                 for i in range(self.rank)]
        return [h.substitute(forms) for h in self.plain_harmonics(d)]
