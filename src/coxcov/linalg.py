"""Exact linear algebra: one dense and one sparse elimination, and a mod-p
preselector.

* ``fields.fraction_free_jordan`` is the dense elimination, on rows of
  numerators (ints over Q, power-basis tuples in Z[theta] over Q(theta)).
  ``det``, ``inverse`` and ``nullspace`` clear each row of scalars and
  read their results off the eliminated rows.  ``bareiss_jordan_inverse``
  inverts a matrix of numerators, certified: each block of a pairing
  table of the coinvariant basis (``support_blocks`` splits a table into
  the connected components of its support), and the simple roots.
  ``inverse_defect`` is that certificate, mat @ M = den * I, which every
  pairing-table inverse passes once on the whole table: there when the
  table is one block, else after its blocks are put together.
* ``SparseSolver`` is the incremental echelon over dicts keyed by
  hashable, comparable column labels, for spans that grow one vector at a
  time: ranks, membership and solving in the span.  Its rows are integer
  numerators (numerator tuples over Q(theta)), reduced fraction-free by
  cross-multiplication; a vector comes in as scalars or as numerators
  over one denominator, and only what ``solve`` and ``reduce_only``
  return is scalars.

``modp_greedy_pivots`` preselects the pivots of a table build modulo a
prime, on sparse rows; every mod-p choice is certified exactly afterwards.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, prod
from operator import sub

from .fields import QQ, AlgNum, Field, fraction_free_jordan
from .reports import CertificationError


# ---------------------------------------------------------------------------
# sparse echelon on integer numerators
# ---------------------------------------------------------------------------

def _sub_int(dst: dict, x: int, src: dict):
    """dst -= x * src in place, on int entries; no zero is kept."""
    get = dst.get
    for k, v in src.items():
        s = get(k, 0) - x * v
        if s:
            dst[k] = s
        else:
            del dst[k]


def _sub_num(dst: dict, x: tuple, src: dict, mul):
    """dst -= x * src in place, on numerator tuples multiplied by ``mul``;
    no zero is kept."""
    get = dst.get
    for k, v in src.items():
        t = mul(x, v)
        s = get(k)
        s = tuple(-c for c in t) if s is None else tuple(map(sub, s, t))
        if any(s):
            dst[k] = s
        else:
            del dst[k]


def _scaled(vec: dict, f: int, divide: bool = False) -> dict:
    """vec times f, or divided exactly by f, entry by entry."""
    if divide:
        return {k: v // f if type(v) is int else tuple(c // f for c in v)
                for k, v in vec.items()}
    return {k: v * f if type(v) is int else tuple(c * f for c in v)
            for k, v in vec.items()}


class SparseSolver:
    """Incremental sparse echelon with combination tracking, on integers.

    Generators are added one at a time, as {key: scalar} dicts or, with
    ``den``, as {key: numerator} dicts over one denominator den > 0 (ints
    over Q, numerator tuples over Q(theta)); ``solve`` expresses a target
    in the span or returns None.  Pivot columns are chosen as the minimal
    key of the residual, so behaviour is deterministic for comparable keys.
    ``field`` left out is the field of the first scalars added.

    A row holds numerators with vec = sum_i comb[i] g_i over the
    generators g_i, content 1 and a positive integer p at its pivot (over
    Q(theta) the row is first multiplied by the numerator of the inverse
    of its pivot entry).  The entry x of a vector at that pivot is cleared
    by (p / g) vec - (x / g) row with g = gcd(p, x): the residual, zero at
    every pivot, is the one elimination over the field would give.
    """

    def __init__(self, field: Field | None = None):
        self.field = field
        self.rows = []          # list of (pivot_key, p, vec, comb)
        self.pivots = {}        # pivot_key -> row index
        self.n_generators = 0

    def _nums(self, vec: dict, den):
        """(numerators, den) of a vector of scalars (den None) or of
        numerators over den, in a new dict that reduction may change."""
        if not vec:
            return {}, den or 1
        if self.field is None:
            if den is not None and type(next(iter(vec.values()))) is not int:
                raise ValueError("numerator tuples need the solver's field")
            self.field = next((v.field for v in vec.values()
                               if isinstance(v, AlgNum)), QQ)
        if den is None:
            nums, den = self.field.clear(list(vec.values()))
            return dict(zip(vec, nums)), den
        return dict(vec), den

    def _reduce(self, vec: dict, comb: dict, a: int):
        """Clear every pivot key of vec, for vec = a t + sum_i comb[i] g_i
        and the vector t being reduced; returns the new (vec, comb, a)."""
        rows, pivots = self.rows, self.pivots
        rational = self.field is None or self.field.is_rational
        mul = None if rational else self.field.mul_num
        changed = True
        while changed:
            changed = False
            for key in list(vec):
                idx = pivots.get(key)
                x = vec.get(key)
                if idx is None or x is None:
                    continue
                _, p, rvec, rcomb = rows[idx]
                g = gcd(p, x) if rational else gcd(p, *x)
                if g != p:
                    f = p // g
                    vec, comb, a = _scaled(vec, f), _scaled(comb, f), a * f
                if rational:
                    x //= g
                    _sub_int(vec, x, rvec)
                    _sub_int(comb, x, rcomb)
                else:
                    x = tuple(c // g for c in x)
                    _sub_num(vec, x, rvec, mul)
                    _sub_num(comb, x, rcomb, mul)
                changed = True
        return vec, comb, a

    def add(self, vec: dict, den: int | None = None) -> bool:
        """Add a generator; returns True when it enlarged the span."""
        idx = self.n_generators
        self.n_generators += 1
        vec, den = self._nums(vec, den)
        field = self.field
        rational = field is None or field.is_rational
        start = den if rational else (den,) + (0,) * (field.degree - 1)
        vec, comb, _ = self._reduce(vec, {idx: start}, 1)
        if not vec:
            return False
        pivot = min(vec)
        if not rational:
            inv, _ = field.inverse_num(vec[pivot])
            vec = {k: field.mul_num(inv, v) for k, v in vec.items()}
            comb = {k: field.mul_num(inv, v) for k, v in comb.items()}
        flat = list(vec.values()) + list(comb.values())
        g = gcd(*(flat if rational else chain.from_iterable(flat)))
        p = vec[pivot] if rational else vec[pivot][0]
        if p < 0:
            g = -g
        vec, comb = _scaled(vec, g, True), _scaled(comb, g, True)
        self.pivots[pivot] = len(self.rows)
        self.rows.append((pivot, p // g, vec, comb))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce_only(self, vec: dict, den: int | None = None) -> dict:
        """The residual of a vector, as scalars: the vector minus the
        element of the span that agrees with it at every pivot key."""
        vec, den = self._nums(vec, den)
        res, _, a = self._reduce(vec, {}, den)
        return {k: self.field.from_num(v, a) for k, v in res.items()}

    def solve(self, target: dict, den: int | None = None):
        """Coefficients over generator indices with sum = target, or None;
        exact scalars."""
        target, den = self._nums(target, den)
        res, comb, a = self._reduce(target, {}, den)
        if res:
            return None
        return {k: self.field.from_num(v, -a) for k, v in comb.items()}


# ---------------------------------------------------------------------------
# dense elimination: fraction-free Gauss-Jordan on numerators
# ---------------------------------------------------------------------------

def det(rows, field: Field):
    """Exact determinant of a square matrix over the field: that of the
    numerator rows over the product of the dens d_i (``Field.clear`` makes
    row i n_i / d_i)."""
    cleared = [field.clear(row) for row in rows]
    a = [nums for nums, _ in cleared]
    pivots, last, sign = fraction_free_jordan(a, len(a), field)
    return field.from_num(last, sign * prod(d for _, d in cleared)) \
        if len(pivots) == len(a) else field.zero


def inverse(rows, field: Field):
    """Exact inverse of a square matrix over the field (ValueError if
    singular): that of the numerator rows, column i times d_i."""
    cleared = [field.clear(row) for row in rows]
    inv, den = bareiss_jordan_inverse([nums for nums, _ in cleared], field)
    return [[field.from_num(x, den) * d for x, (_, d) in zip(row, cleared)]
            for row in inv]


def nullspace(rows, ncols: int, field: Field):
    """Basis of {x : rows . x = 0}: one vector per non-pivot column, equal
    to 1 there and 0 on the other non-pivot columns."""
    a = [field.clear(row)[0] for row in rows]
    pivots, last, _ = fraction_free_jordan(a, ncols, field)
    m, den = field.inverse_num(last)
    out = []
    for fj in sorted(set(range(ncols)) - set(pivots)):
        vec = [field.zero] * ncols
        vec[fj] = field.one
        for row, pj in zip(a, pivots):
            vec[pj] = field.from_num(field.mul_num(row[fj], m), -den)
        out.append(vec)
    return out


def bareiss_jordan_inverse(mat, field: Field = QQ):
    """Inverse of a square matrix of numerators (ints, or power-basis
    tuples over a Q(theta)) by ``fraction_free_jordan``.

    Returns (M, den) in lowest terms, den > 0, with mat @ M == den * I.
    The result is certified exactly (CertificationError otherwise), and a
    ValueError is raised for singular input.
    """
    n, ring, mul = len(mat), not field.is_rational, field.mul_num
    (zero, one), _ = field.clear([0, 1])
    a = [list(row) + [one if j == i else zero for j in range(n)]
         for i, row in enumerate(mat)]
    pivots, last, _ = fraction_free_jordan(a, n, field)
    if len(pivots) < n:
        raise ValueError("matrix not invertible")
    if any(a[i][i] != last for i in range(n)):
        raise CertificationError("fraction-free elimination lost diagonal")
    m, den = field.inverse_num(last)
    inv = [[mul(x, m) for x in row[n:]] for row in a]
    flat = list(chain.from_iterable(inv))
    g = gcd(den, *(chain.from_iterable(flat) if ring else flat))
    inv = [[tuple(c // g for c in x) if ring else x // g for x in row]
           for row in inv]
    bad = inverse_defect(mat, inv, den // g, field)
    if bad is not None:
        raise CertificationError(f"inverse certification failed at {bad}")
    return inv, den // g


def support_blocks(mat, nonzero=bool):
    """The connected components of the support of a square matrix: the
    (rows, cols) pairs, each sorted, linked by entries with ``nonzero``
    true, in the order of their first row.  Permuting rows and columns by
    them makes mat block diagonal, so it is invertible exactly when every
    block is; a block that is not square raises ValueError (singular)."""
    row_cols = [[j for j, x in enumerate(row) if nonzero(x)] for row in mat]
    col_rows: dict = {}
    for i, cols in enumerate(row_cols):
        for j in cols:
            col_rows.setdefault(j, []).append(i)
    seen = set()
    blocks = []
    for start in range(len(mat)):
        if start in seen:
            continue
        seen.add(start)
        rows, cols = [start], set()
        for i in rows:                    # grows while it is walked
            for j in row_cols[i]:
                if j not in cols:
                    cols.add(j)
                    rows += [k for k in col_rows[j] if k not in seen]
                    seen.update(col_rows[j])
        if len(rows) != len(cols):
            raise ValueError("matrix not invertible: a support block of "
                             f"{len(rows)} rows has {len(cols)} columns")
        blocks.append((sorted(rows), sorted(cols)))
    return blocks


def inverse_defect(mat, inv, den, field: Field | None = None):
    """The first (i, j) at which mat @ inv differs from den * I, or None
    when inv / den is exactly the inverse of mat.

    Entries are ints, or, when the field of Q(theta) is given, numerator
    tuples in its power basis.  Row i of the product is accumulated as the
    combination of the rows of inv by the nonzero entries of row i of mat.
    """
    n = len(mat)
    if field is None or field.is_rational:
        for i, row in enumerate(mat):
            acc = [0] * n
            for c, irow in zip(row, inv):
                if c:
                    acc = [a + c * x for a, x in zip(acc, irow)]
            acc[i] -= den
            if any(acc):
                return i, next(j for j, a in enumerate(acc) if a)
        return None
    mul = field.mul_num
    for i, row in enumerate(mat):
        acc = [(0,) * field.degree] * n
        for c, irow in zip(row, inv):
            if any(c):
                acc = [tuple(map(int.__add__, a, mul(c, x)))
                       for a, x in zip(acc, irow)]
        acc[i] = (acc[i][0] - den,) + acc[i][1:]
        if any(map(any, acc)):
            return i, next(j for j, a in enumerate(acc) if any(a))
    return None


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


def _has_root_mod(field: Field, p: int) -> bool:
    """Whether min_poly has a root mod p: gcd(x^p - x, min_poly) over F_p
    is not constant.  x^p mod min_poly comes by square-and-multiply on
    numerator tuples (``Field.mul_num``), reduced mod p after each step."""
    x = acc = (0, 1) + (0,) * (field.degree - 2)
    for bit in bin(p)[3:]:
        acc = field.mul_num(acc, acc)
        if bit == "1":
            acc = field.mul_num(acc, x)
        acc = tuple(c % p for c in acc)
    a, b = list(field.min_poly), [acc[0], acc[1] - 1, *acc[2:]]
    while True:             # Euclid on coefficient lists, low to high
        b = [c % p for c in b]
        while b and not b[-1]:
            b.pop()
        if len(b) < 2:
            return not b
        inv, m = pow(b[-1], -1, p), len(b) - 1
        while len(a) > m:
            q = a.pop() * inv % p
            for j in range(m):
                a[j - m] = (a[j - m] - q * b[j]) % p
        a, b = b, a


def field_prime_and_root(field: Field, start: int = 99991):
    """Deterministic prime p (and a root of min_poly mod p) for reduction:
    the first prime >= start at which min_poly has a root mod p
    (``_has_root_mod``), and the smallest such root, by scanning upward."""
    p = start if start % 2 else start + 1
    while True:
        if _is_prime(p):
            if field.degree == 1:
                return p, 0
            if _has_root_mod(field, p):
                return p, next(x for x in range(p)
                               if not num_mod(field.min_poly, p, x))
        p += 2


def num_mod(num, p: int, root: int) -> int:
    """Image in Z/p, under theta -> root, of an integer numerator: an int,
    or a tuple of power-basis coordinates."""
    if isinstance(num, int):
        return num % p
    acc = 0
    for c in reversed(num):
        acc = (acc * root + c) % p
    return acc


def modp_greedy_pivots(rows, p: int, max_rank: int):
    """Greedy row/column pivot selection mod p of sparse rows {col: value}.

    Columns are scanned left to right; the pivot row for each column is the
    first not-yet-used row with a nonzero entry there, and that column is
    then cleared from the other unused rows (a used row never pivots
    again).  Returns (row_idx, col_idx) lists of length = attained rank
    (stops at max_rank).
    """
    rows = [{c: v % p for c, v in row.items() if v % p} for row in rows]
    holders = {}            # column -> the unused rows nonzero there
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    piv_rows, piv_cols = [], []
    for col in sorted(holders):
        if len(piv_rows) >= max_rank:
            break
        if not holders[col]:
            continue
        i = min(holders[col])
        prow = rows[i]
        for c in prow:
            holders[c].discard(i)
        inv = pow(prow[col], -1, p)
        for j in list(holders[col]):
            row = rows[j]
            f = row[col] * inv
            for c, v in prow.items():
                s = (row.get(c, 0) - f * v) % p
                if s:
                    row[c] = s
                    holders[c].add(j)
                else:
                    del row[c]
                    holders[c].discard(j)
        piv_rows.append(i)
        piv_cols.append(col)
    return piv_rows, piv_cols
