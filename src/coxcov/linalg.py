"""Exact linear algebra: three elimination kernels and a mod-p preselector.

* ``gauss_jordan`` (with ``det``, ``inverse`` and ``nullspace`` on top) is
  the dense elimination over a field, Q or Q(theta), for small matrices
  given as rows: Gram matrices and their minors, determinants of group
  elements, the Molien principal minors, the Lie-side form, the Q(theta)
  pairing tables and the nullspaces of the little-adjoint construction.
* ``bareiss_jordan_inverse`` over ``fields.bareiss_jordan`` is the
  fraction-free integer elimination, for integer matrices: the rational
  pairing tables of the coinvariant basis after clearing denominators
  (``fields`` runs the same core for ``AlgNum.inverse``).
* ``SparseSolver`` is the incremental echelon over dicts keyed by
  hashable, comparable column labels, for spans that grow one vector at a
  time: ranks, membership and solving in the span.

A mod-p path (numpy) preselects pivots for the big rational eliminations;
every mod-p choice is certified exactly afterwards.  numpy is imported
inside the mod-p functions only, so code that loads recorded tables never
loads it.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import AlgNum, Field, Scalar, bareiss_jordan, scalar_inverse
from .reports import CertificationError


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


# ---------------------------------------------------------------------------
# dense elimination: Gauss-Jordan over a field, Bareiss over the integers
# ---------------------------------------------------------------------------

def gauss_jordan(rows, field: Field, ncols: int | None = None):
    """Reduced row echelon form of a dense matrix over a field.

    Eliminates the first ``ncols`` columns (default: all), carrying any
    further columns along, with the pivot of each column in the first
    remaining row that is nonzero there.  Returns ``(rref, pivots, det)``:
    the reduced rows (pivot entries 1, the rest of a pivot column 0), the
    pivot columns in order, and, for square input, the determinant.
    """
    a = [[field.coerce(v) for v in row] for row in rows]
    if ncols is None:
        ncols = len(a[0]) if a else 0
    det = field.one
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            det = field.zero
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det = det * a[r][col]
        inv = scalar_inverse(a[r][col])
        prow = a[r] = [x * inv for x in a[r]]
        for i, row in enumerate(a):
            c = row[col]
            if c and i != r:
                a[i] = [x - c * y for x, y in zip(row, prow)]
        pivots.append(col)
    return a, pivots, det


def det(rows, field: Field):
    """Exact determinant of a square matrix over the field."""
    return gauss_jordan(rows, field)[2]


def inverse(rows, field: Field):
    """Exact inverse of a square matrix over the field; ValueError if
    singular."""
    n = len(rows)
    aug = [list(row) + [1 if j == i else 0 for j in range(n)]
           for i, row in enumerate(rows)]
    rref, pivots, _ = gauss_jordan(aug, field, n)
    if len(pivots) < n:
        raise ValueError("matrix not invertible")
    return [row[n:] for row in rref]


def nullspace(rows, ncols: int, field: Field):
    """Basis of {x : rows . x = 0}: one vector per non-pivot column, equal
    to 1 there and 0 on the other non-pivot columns."""
    rref, pivots, _ = gauss_jordan(rows, field, ncols)
    out = []
    for fj in sorted(set(range(ncols)) - set(pivots)):
        vec = [field.zero] * ncols
        vec[fj] = field.one
        for row, pj in zip(rref, pivots):
            vec[pj] = -row[fj]
        out.append(vec)
    return out


def bareiss_jordan_inverse(mat):
    """Fraction-free Gauss-Jordan over the integers.

    Returns (M, den) with mat @ M == den * I, both integer.  The result is
    certified exactly (CertificationError otherwise), and a ValueError is
    raised for singular input.
    """
    n = len(mat)
    a = [list(map(int, row)) + [1 if j == i else 0 for j in range(n)]
         for i, row in enumerate(mat)]
    den = bareiss_jordan(a, n)
    if any(a[i][i] != den for i in range(n)):
        raise CertificationError("fraction-free elimination lost diagonal")
    inv = [row[n:] for row in a]
    for i in range(n):
        mrow = mat[i]
        for j in range(n):
            s = sum(mrow[t] * inv[t][j] for t in range(n))
            if s != (den if i == j else 0):
                raise CertificationError(
                    f"inverse certification failed at ({i}, {j})")
    return inv, den


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


_ROOT_BLOCK = 1 << 12


def field_prime_and_root(field: Field, start: int = 99991):
    """Deterministic prime p (and a root of min_poly mod p) for reduction.

    p is the first prime >= start at which min_poly has a root mod p, and
    the root is the smallest one.  min_poly is evaluated at a block of
    consecutive x at once, by Horner's rule on int64 residues: each step
    stays below p^2 + |c|, far from 2^63 for the primes used here
    (p ~ 10^5).  Blocks of _ROOT_BLOCK values keep the arrays, and so the
    peak memory of the process, small.
    """
    import numpy as np

    p = start if start % 2 else start + 1
    while True:
        if _is_prime(p):
            if field.degree == 1:
                return p, 0
            for lo in range(0, p, _ROOT_BLOCK):
                xs = np.arange(lo, min(lo + _ROOT_BLOCK, p), dtype=np.int64)
                acc = np.zeros_like(xs)
                for c in reversed(field.min_poly):
                    acc = (acc * xs + c) % p
                roots = np.flatnonzero(acc == 0)
                if roots.size:
                    return p, lo + int(roots[0])
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


def modp_greedy_pivots(matrix, p: int, max_rank: int):
    """Greedy row/column pivot selection of an int64 matrix mod p.

    Columns are scanned left to right; the pivot row for each column is the
    first not-yet-used row with a nonzero entry.  Returns (row_idx, col_idx)
    lists of length = attained rank (stops at max_rank).
    """
    import numpy as np

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
