from itertools import combinations, product
from math import gcd

import pytest

from coxcov.covariants import CovariantStack
from coxcov.fields import Field, scalar_inverse
from coxcov.groups import build_group
from coxcov.linalg import SparseSolver
from coxcov.poly import Poly

_GROUPS = {}
_STACKS = {}


def get_group(code, allow_long=False):
    got = _GROUPS.get(code)
    if got is None:
        got = build_group(code, allow_long=allow_long)
        _GROUPS[code] = got
    return got


def get_stack(code):
    got = _STACKS.get(code)
    if got is None:
        got = CovariantStack(get_group(code))
        _STACKS[code] = got
    return got


@pytest.fixture(scope="session")
def group_of():
    return get_group


@pytest.fixture(scope="session")
def stack_of():
    return get_stack


# -- shared oracles -----------------------------------------------------------

def mat_mul(a, b, field):
    """The product of two square matrices over the field, on scalars: the
    route by which the group closure once built each element's matrix."""
    n = len(a)
    return tuple(tuple(sum((x * b[k][j] for k, x in enumerate(row) if x),
                           field.zero)
                       for j in range(n)) for row in a)


def mat_transpose(a):
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def gauss_jordan(rows, field, ncols=None):
    """Reduced row echelon form of a dense matrix over a field, on
    scalars: the dense elimination that the fraction-free kernel on
    numerators replaced, kept as its oracle.

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


def gauss_det(rows, field):
    return gauss_jordan(rows, field)[2]


def gauss_inverse(rows, field):
    """The inverse by Gauss-Jordan over the field; ValueError if
    singular."""
    n = len(rows)
    aug = [list(row) + [1 if j == i else 0 for j in range(n)]
           for i, row in enumerate(rows)]
    rref, pivots, _ = gauss_jordan(aug, field, n)
    if len(pivots) < n:
        raise ValueError("matrix not invertible")
    return [row[n:] for row in rref]


def gauss_nullspace(rows, ncols, field):
    """Nullspace basis by Gauss-Jordan over the field: one vector per
    non-pivot column, 1 there and 0 on the other non-pivot columns."""
    rref, pivots, _ = gauss_jordan(rows, field, ncols)
    out = []
    for fj in sorted(set(range(ncols)) - set(pivots)):
        vec = [field.zero] * ncols
        vec[fj] = field.one
        for row, pj in zip(rref, pivots):
            vec[pj] = -row[fj]
        out.append(vec)
    return out


def act_oracle(g, widx, p):
    """w.p = p(w^{-1} x) by substitution, each monomial expanded by hand
    through the matrix of w^{-1}: the route that the Taylor reflections
    along reduced words replaced."""
    winv = g.elements[g.inverse_idx[widx]]
    out = Poly.zero(g.rank, g.field)
    for e, c in p.terms.items():
        term = Poly.constant(c, g.rank, g.field)
        for i, k in enumerate(e):
            form = Poly.linear_form(winv[i], g.field)
            for _ in range(k):
                term = term * form
        out = out + term
    return out


def u_action_oracle(dec, widx):
    """Matrix of w on the little-adjoint module U (columns = images): each
    basis polynomial acted on by substitution and solved in the basis, the
    per-element solve that the product along a reduced word replaced."""
    group = dec.split.group
    n = len(dec.u_basis)
    solver = SparseSolver(group.field)
    for y in dec.u_basis:
        solver.add(y.num, y.den)
    cols = []
    for y in dec.u_basis:
        img = act_oracle(group, widx, y)
        sol = solver.solve(img.num, img.den)
        assert sol is not None, "U not W-stable"
        cols.append([sol.get(i, group.field.zero) for i in range(n)])
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def laplace_det(mat, field):
    """Determinant of a square matrix of Polys by Laplace expansion along
    the first row: the polynomial determinant that the wedge of the
    differentials (``groups.jacobian_minors``) replaced, kept as its
    oracle."""
    n = len(mat)
    nv = mat[0][0].nv

    def rec(rows, cols):
        if len(cols) == 1:
            return mat[rows[0]][cols[0]]
        total = Poly.zero(nv, field)
        r0 = rows[0]
        rest = rows[1:]
        for k, c in enumerate(cols):
            sub = rec(rest, cols[:k] + cols[k + 1:])
            term = mat[r0][c] * sub
            total = total + (term if k % 2 == 0 else -term)
        return total

    return rec(tuple(range(n)), tuple(range(n)))


def jacobian_minor_oracle(polys, rows, field):
    """The minor of the Jacobian of ``polys`` on the variables ``rows``
    (entry (i, j) the partial of polys[j] in x_rows[i]), by Laplace."""
    return laplace_det([[p.partial(i) for p in polys] for i in rows], field)


def matrix_reflections(g):
    """(reflections, reflection_classes, class_ell, class_p) of g with each
    reflection found by applying its matrix to every root, the path that
    conjugation along the root orbit replaced."""
    reflections = []
    for k, alpha in enumerate(g.positive_roots):
        perm = g._root_perm(g.reflection_matrix(alpha))
        assert perm[k] == k + g.n_reflections
        reflections.append((g.perm_index[perm], alpha))
    by_class = {}
    for k, (idx, _) in enumerate(reflections):
        by_class.setdefault(g.class_of_element(idx), []).append(k)
    classes = sorted(by_class.values())
    if len(classes) == 1:
        return reflections, classes, 0, None
    anchor = g.rank - 1 if g.code.startswith("B") else 0
    anchor_refl = g.roots.index(g.simple_roots[anchor]) % g.n_reflections
    ell = next(ci for ci, c in enumerate(classes) if anchor_refl in c)
    return reflections, classes, ell, 1 - ell


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


def dense_modp_pivots(matrix, p, max_rank):
    """(row_idx, col_idx) of the greedy pivot search mod p on a dense
    list-of-lists matrix, the oracle for ``modp_greedy_pivots`` on sparse
    rows: columns left to right, the pivot the first unused row nonzero
    there, that column cleared from every other row, stopping at
    max_rank."""
    a = [[x % p for x in row] for row in matrix]
    used = [False] * len(a)
    piv_rows, piv_cols = [], []
    for col in range(len(a[0]) if a else 0):
        if len(piv_rows) >= max_rank:
            break
        cand = [i for i, row in enumerate(a) if row[col] and not used[i]]
        if not cand:
            continue
        i = cand[0]
        inv = pow(a[i][col], -1, p)
        a[i] = [x * inv % p for x in a[i]]
        for j, row in enumerate(a):
            if j != i and row[col]:
                a[j] = [(x - row[col] * y) % p for x, y in zip(row, a[i])]
        used[i] = True
        piv_rows.append(i)
        piv_cols.append(col)
    return piv_rows, piv_cols


def homogeneous_part(p, d):
    """The terms of p of total degree d."""
    return Poly(p.nv, p.field,
                {e: c for e, c in p.terms.items() if sum(e) == d})


def divide_by_linear_form(p, alpha):
    """Exact quotient of p by the linear form sum_i alpha[i] x_i.

    Long division in the last nonzero alpha-coordinate; raises ValueError
    ("not divisible") when a remainder survives.
    """
    field = p.field
    alpha = [field.coerce(a) for a in alpha]
    if not any(alpha):
        raise ValueError("alpha must be nonzero")
    piv = max(i for i, a in enumerate(alpha) if a)
    apiv_inv = scalar_inverse(alpha[piv])
    rest = Poly.linear_form([0 if i == piv else a
                             for i, a in enumerate(alpha)], field)
    if not p.terms:
        return p
    # p as a polynomial in x_piv with Poly coefficients in the other variables
    by_deg = {}
    for e, c in p.terms.items():
        e2 = list(e)
        e2[piv] = 0
        by_deg.setdefault(e[piv], {})[tuple(e2)] = c
    carry = {k: Poly(p.nv, field, t) for k, t in by_deg.items()}
    quot_levels = {}
    for k in range(max(by_deg), 0, -1):
        ck = carry.pop(k, None)
        if ck is None or ck.is_zero():
            continue
        qk = ck.scale(apiv_inv)
        quot_levels[k - 1] = qk
        carry[k - 1] = carry.get(k - 1, Poly.zero(p.nv, field)) - qk * rest
    rem = carry.get(0)
    if rem is not None and not rem.is_zero():
        raise ValueError("not divisible")
    out = {}
    for k, q in quot_levels.items():
        for e, c in q.terms.items():
            e2 = list(e)
            e2[piv] += k
            out[tuple(e2)] = c
    return Poly(p.nv, field, out)


# -- scalar-dict oracles: the Fraction / AlgNum loops that the integer
# kernels of Poly, divided_difference and nf_poly replaced -------------------

def assert_canonical(p):
    """The canonical integer form of a Poly: den > 0, gcd 1 with every
    numerator entry, no zero numerator stored."""
    assert type(p.den) is int and p.den > 0
    entries = []
    for c in p.num.values():
        if p.field.is_rational:
            assert type(c) is int and c
            entries.append(c)
        else:
            assert type(c) is tuple and len(c) == p.field.degree
            assert all(type(x) is int for x in c) and any(c)
            entries.extend(c)
    assert gcd(p.den, *entries) == 1
    if not p.num:
        assert p.den == 1


def scalar_add(a, b):
    """{expo: scalar} of a + b, term by term on scalars."""
    out = dict(a.terms)
    for e, c in b.terms.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def scalar_mul(a, b):
    """{expo: scalar} of a * b, term by term on scalars."""
    out = {}
    for e2, c2 in b.terms.items():
        for e1, c1 in a.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e)
            out[e] = c1 * c2 if s is None else s + c1 * c2
    return {e: c for e, c in out.items() if c}


def scale_by_clear(p, c):
    """p scaled by c on the route ``Poly.scale`` takes for any scalar:
    ``Field.clear`` of c, then the numerators times c's numerator."""
    field = p.field
    (n,), d = field.clear([c])
    if not (n if field.is_rational else any(n)):
        return Poly.zero(p.nv, field)
    mul = int.__mul__ if field.is_rational else field.mul_num
    return Poly.from_num(p.nv, field, {e: mul(v, n) for e, v in p.num.items()},
                         p.den * d)


def scalar_divided_difference(group, alpha, p):
    """{expo: scalar} of (p - s.p)/(alpha, x): the Taylor sum of
    ``ReflectionGroup.divided_difference`` on scalar term dicts."""
    f = group.field
    form = [sum((g * a for g, a in zip(row, alpha)), f.zero)
            for row in group.gram]
    c = 2 * scalar_inverse(sum((a * g for a, g in zip(alpha, form)),
                               f.zero))
    taylor = [p.terms]
    while taylor[-1]:
        nxt = {}
        for e, v in taylor[-1].items():
            for i, a in enumerate(alpha):
                if a and e[i]:
                    e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                    t = v * a * c * e[i] / len(taylor)
                    nxt[e2] = nxt[e2] + t if e2 in nxt else t
        taylor.append({e: v for e, v in nxt.items() if v})
    acc = {}
    for u in reversed(taylor[1:]):
        nxt = dict(u)
        for e, v in acc.items():
            for i, g in enumerate(form):
                if g:
                    e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
                    nxt[e2] = nxt[e2] - v * g if e2 in nxt else -v * g
        acc = nxt
    return {e: v for e, v in acc.items() if v}


def scalar_nf(cb, p):
    """{expo: scalar} of the normal form of p: the pairing vector against
    the weighted harmonics and the solve on scalars, with the inverse of
    the pairing matrix from Gauss-Jordan over the field."""
    field = cb.field
    to = field.from_num
    parts = {}
    for e, c in p.terms.items():
        if sum(e) <= cb.top:
            parts.setdefault(sum(e), {})[e] = c
    out = {}
    for d, terms in parts.items():
        t = cb.tables[d]
        weighted = [{e: to(c) for e, c in wh.items()} for wh in t.weighted]
        inv = gauss_inverse([[wh.get(m, field.zero) for m in t.monos]
                       for wh in weighted], field)
        vals = []
        for wh in weighted:
            s = field.zero
            for e, c in terms.items():
                w = wh.get(e)
                if w is not None:
                    s = s + c * w
            vals.append(s)
        for mono, row in zip(t.monos, inv):
            s = field.zero
            for r, v in zip(row, vals):
                s = s + r * v
            if s:
                out[mono] = s
    return out


def pairing_route_nf(cb, p):
    """The normal form of p degree by degree, on scalars: the pairing
    vector of each homogeneous part against the weighted harmonics, times
    the table's inverse M / den.  This is the route that the per-monomial
    columns of ``nf_poly`` replaced, written out here so that it shares no
    code with them."""
    field = cb.field
    to = field.from_num
    parts = {}
    for e, c in p.terms.items():
        if sum(e) <= cb.top:
            parts.setdefault(sum(e), {})[e] = c
    out = {}
    for d, terms in parts.items():
        t = cb.tables[d]
        vals = []
        for wh in t.weighted:
            s = field.zero
            for e, c in terms.items():
                if e in wh:
                    s = s + c * to(wh[e])
            vals.append(s)
        for mono, row in zip(t.monos, t.inv):
            s = field.zero
            for x, v in zip(row, vals):
                s = s + to(x, t.den) * v
            if s:
                out[mono] = s
    return Poly(cb.rank, field, out)


def layout_of(cb):
    """{degree: (derivative multi-indices, standard monomials)} of the
    tables of cb, the layout a cache file records."""
    return {d: (t.indices, t.monos) for d, t in cb.tables.items()}


def seed_scan_oracle(nv, field, degrees, average, known=()):
    """The seed scan that three loops wrote out before
    ``groups.seed_invariants`` replaced them: per degree, the seed
    monomials in decreasing grevlex order (every exponent tuple of the
    degree, sorted by its reverse), keeping the first ones whose
    content-normalised average raises the rank of the Jacobian, tested by
    its Laplace minors.  None if a degree runs out of seeds."""
    found = []
    for d in sorted(set(degrees)):
        need = list(degrees).count(d)
        seeds = sorted((e for e in product(range(d + 1), repeat=nv)
                        if sum(e) == d), key=lambda e: e[::-1])
        for e in seeds:
            if not need:
                break
            cand = average(Poly.monomial(e, 1, field))
            if cand.is_zero():
                continue
            cand = cand.content_normalized()
            polys = [*known, *found, cand]
            if any(jacobian_minor_oracle(polys, rows, field)
                   for rows in combinations(range(nv), len(polys))):
                found.append(cand)
                need -= 1
        if need:
            return None
    return found


class FractionSparseSolver:
    """Incremental sparse echelon on scalars (``Fraction`` or ``AlgNum``),
    each row scaled to 1 at its pivot: the solver that the integer
    ``linalg.SparseSolver`` replaced, with the same pivot rule (the
    minimal key of the residual) and reduction order."""

    def __init__(self):
        self.rows = []          # list of (pivot_key, vec, comb)
        self.pivots = {}        # pivot_key -> row index
        self.n_generators = 0

    def _reduce(self, vec, comb):
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

    def add(self, vec):
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
    def rank(self):
        return len(self.rows)

    def reduce_only(self, vec):
        res, _ = self._reduce(vec, {})
        return res

    def solve(self, target):
        res, comb = self._reduce(target, {})
        if res:
            return None
        return {k: -v for k, v in comb.items()}
