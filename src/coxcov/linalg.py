"""Exact linear algebra helpers.

Sparse vectors are dicts keyed by hashable, comparable column labels.
Rational dense work goes through fraction-free (Bareiss-style) integer
elimination; small dense field work uses straightforward exact Gauss-Jordan.
A mod-p path (numpy) preselects pivots for the big rational eliminations;
every mod-p choice is certified exactly afterwards.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import AlgNum, Field, Scalar, bareiss_jordan, scalar_inverse


# ---------------------------------------------------------------------------
# sparse echelon over a field
# ---------------------------------------------------------------------------

class SparseSolver:
    """Incremental sparse echelon with combination tracking.

    Generators are added one at a time; ``solve`` expresses a target in the
    span or returns None.  Pivot columns are chosen as the minimal key of
    the residual, so behaviour is deterministic for comparable keys.
    """

    def __init__(self):
        self.rows = []          # list of (pivot_key, vec, comb)
        self.pivots = {}        # pivot_key -> row index
        self.n_generators = 0

    def _reduce(self, vec: dict, comb: dict):
        vec = dict(vec)
        comb = dict(comb)
        changed = True
        while changed:
            changed = False
            for key in list(vec.keys()):
                idx = self.pivots.get(key)
                if idx is not None and vec.get(key):
                    _, rvec, rcomb = self.rows[idx]
                    c = vec[key]
                    for k2, v2 in rvec.items():
                        s = vec.get(k2)
                        s = (-c * v2) if s is None else s - c * v2
                        if s:
                            vec[k2] = s
                        else:
                            vec.pop(k2, None)
                    for k2, v2 in rcomb.items():
                        s = comb.get(k2)
                        s = (-c * v2) if s is None else s - c * v2
                        if s:
                            comb[k2] = s
                        else:
                            comb.pop(k2, None)
                    changed = True
        return vec, comb

    def add(self, vec: dict) -> bool:
        """Add a generator; returns True when it enlarged the span."""
        idx = self.n_generators
        self.n_generators += 1
        vec, comb = self._reduce(vec, {idx: 1})
        if not vec:
            return False
        pivot = min(vec.keys())
        inv = scalar_inverse(vec[pivot])
        vec = {k: v * inv for k, v in vec.items()}
        comb = {k: v * inv for k, v in comb.items()}
        self.pivots[pivot] = len(self.rows)
        self.rows.append((pivot, vec, comb))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce_only(self, vec: dict) -> dict:
        res, _ = self._reduce(vec, {})
        return res

    def solve(self, target: dict):
        """Coefficients over generator indices with sum = target, or None."""
        res, comb = self._reduce(target, {})
        if res:
            return None
        return {k: -v for k, v in comb.items()}

    def contains(self, vec: dict) -> bool:
        return not self.reduce_only(vec)


def sparse_rank(vectors) -> int:
    s = SparseSolver()
    for v in vectors:
        s.add(v)
    return s.rank


# ---------------------------------------------------------------------------
# dense exact inverses
# ---------------------------------------------------------------------------

def invert_field_matrix(rows, field: Field):
    """Exact Gauss-Jordan inverse of a small dense matrix over a field."""
    n = len(rows)
    aug = [[field.coerce(rows[i][j]) for j in range(n)]
           + [field.one if j == i else field.zero for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ValueError("matrix not invertible")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = scalar_inverse(aug[col][col])
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                c = aug[i][col]
                aug[i] = [a - c * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def bareiss_jordan_inverse(mat):
    """Fraction-free Gauss-Jordan over the integers.

    Returns (M, den) with mat @ M == den * I, both integer; the result is
    verified exactly and a ValueError is raised for singular input.
    """
    n = len(mat)
    a = [list(map(int, row)) + [1 if j == i else 0 for j in range(n)]
         for i, row in enumerate(mat)]
    den = bareiss_jordan(a, n)
    for i in range(n):
        assert a[i][i] == den, "fraction-free elimination lost diagonal"
    inv = [row[n:] for row in a]
    # exact certification
    for i in range(n):
        mrow = mat[i]
        for j in range(n):
            s = sum(mrow[t] * inv[t][j] for t in range(n))
            assert s == (den if i == j else 0), "inverse certification failed"
    return inv, den


def det_int(mat) -> int:
    """Exact determinant of an integer matrix by forward Bareiss."""
    n = len(mat)
    a = [list(map(int, row)) for row in mat]
    prev = 1
    sign = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pk * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# mod-p preselection
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def field_prime_and_root(field: Field, start: int = 99991):
    """Deterministic prime p (and a root of min_poly mod p) for reduction."""
    p = start if start % 2 else start + 1
    while True:
        if _is_prime(p):
            if field.degree == 1:
                return p, 0
            for x in range(p):
                acc = 0
                for c in reversed(field.min_poly):
                    acc = (acc * x + c) % p
                if acc == 0:
                    return p, x
        p += 2


def scalar_mod(x: Scalar, p: int, root: int, field: Field) -> int:
    """Image of a scalar in Z/p under theta -> root."""
    if isinstance(x, AlgNum):
        acc = 0
        for c in reversed(x.num):
            acc = (acc * root + c) % p
        return acc * pow(x.den, -1, p) % p
    f = Fraction(x)
    return f.numerator % p * pow(f.denominator, -1, p) % p


def modp_greedy_pivots(matrix: np.ndarray, p: int, max_rank: int):
    """Greedy row/column pivot selection of an int64 matrix mod p.

    Columns are scanned left to right; the pivot row for each column is the
    first not-yet-used row with a nonzero entry.  Returns (row_idx, col_idx)
    lists of length = attained rank (stops at max_rank).
    """
    a = matrix % p
    nrows, ncols = a.shape
    used = np.zeros(nrows, dtype=bool)
    piv_rows, piv_cols = [], []
    for col in range(ncols):
        if len(piv_rows) >= max_rank:
            break
        colvec = a[:, col]
        cand = np.nonzero((colvec != 0) & (~used))[0]
        if cand.size == 0:
            continue
        i = int(cand[0])
        inv = pow(int(colvec[i]), -1, p)
        a[i] = a[i] * inv % p
        others = np.nonzero((a[:, col] != 0))[0]
        for j in others:
            if j != i:
                a[j] = (a[j] - int(a[j, col]) * a[i]) % p
        used[i] = True
        piv_rows.append(i)
        piv_cols.append(col)
    return piv_rows, piv_cols
