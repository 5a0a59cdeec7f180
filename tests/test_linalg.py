import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from conftest import (FractionSparseSolver, _is_prime, dense_modp_pivots,
                      field_prime_and_root, gauss_det, gauss_inverse,
                      gauss_nullspace, num_mod)

from coxcov.fields import QCOSPI7, QCOSPI8, QQ, QSQRT5, Field
from coxcov.linalg import (SparseSolver, bareiss_jordan_inverse, det,
                           inverse, inverse_defect, modp_greedy_pivots,
                           nullspace, support_blocks)


def _rand_scalar(rng, field):
    c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 3))
    return c if field.is_rational else field.scalar(
        c, *(rng.randrange(-2, 3) for _ in range(field.degree - 1)))


def _rand_matrix(rng, field, n, m):
    return [[_rand_scalar(rng, field) for _ in range(m)] for _ in range(n)]


def _rank_deficient(rng, field, n, m, rank):
    """An n x m matrix of rank <= rank: products of random factors."""
    left = _rand_matrix(rng, field, n, rank)
    right = _rand_matrix(rng, field, rank, m)
    return [[sum((left[i][t] * right[t][j] for t in range(rank)), field.zero)
             for j in range(m)] for i in range(n)]


def _sparse_rank(rows):
    s = SparseSolver()
    for row in rows:
        s.add({j: v for j, v in enumerate(row) if v})
    return s.rank


def test_bareiss_inverse_vs_fraction_gauss():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 6)
        mat = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        if gauss_det(mat, QQ) == 0:
            with pytest.raises(ValueError):
                bareiss_jordan_inverse(mat)
            with pytest.raises(ValueError):
                inverse(mat, QQ)
            continue
        inv, den = bareiss_jordan_inverse(mat)
        oracle = gauss_inverse(mat, QQ)
        for i in range(n):
            for j in range(n):
                assert Fraction(inv[i][j], den) == oracle[i][j]


def test_planted_inverse_entry_raises_under_optimize():
    # the certificate is a raise, so python -O cannot strip it
    code = ("import sys\n"
            "from coxcov import linalg\n"
            "from coxcov.reports import CertificationError\n"
            "assert sys.flags.optimize\n"
            "solve = linalg.fraction_free_jordan\n"
            "def planted(a, n, field):\n"
            "    out = solve(a, n, field)\n"
            "    a[1][n] += 1\n"
            "    return out\n"
            "linalg.fraction_free_jordan = planted\n"
            "try:\n"
            "    linalg.bareiss_jordan_inverse([[2, 1], [1, 1]])\n"
            "except CertificationError as exc:\n"
            "    print(exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    got = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stdout.startswith("inverse certification failed at (0, 0)")


@pytest.mark.parametrize("field", [QQ, QSQRT5, QCOSPI7])
def test_inverse_defect_on_numerators(field):
    """The certificate on integer numerators: None for the cleared field
    inverse, the first wrong position once one entry of M is off."""
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        mat = _rand_matrix(rng, field, n, n)
        while not gauss_det(mat, field):
            mat = _rand_matrix(rng, field, n, n)
        nums, dm = field.clear([x for row in mat for x in row])
        inv = gauss_inverse(mat, field)
        m_nums, den = field.clear([x for row in inv for x in row])
        p_rows = [nums[i * n:(i + 1) * n] for i in range(n)]
        m_rows = [m_nums[i * n:(i + 1) * n] for i in range(n)]
        # P = nums / dm and P^{-1} = M / den, so nums M = dm den I
        den *= dm
        assert inverse_defect(p_rows, m_rows, den, field) is None
        i, j = rng.randrange(n), rng.randrange(n)
        x = m_rows[i][j]
        m_rows[i][j] = x + 1 if field.is_rational else (x[0] + 1,) + x[1:]
        bad = inverse_defect(p_rows, m_rows, den, field)
        assert bad is not None and bad[1] == j


def test_det_against_permutation_expansion():
    rng = random.Random(3)
    for field, n in product((QQ, QSQRT5, QCOSPI7, QCOSPI8), (1, 2, 3, 4)):
        for _ in range(10):
            mat = _rand_matrix(rng, field, n, n)
            if rng.random() < 0.3:        # a repeated row: determinant 0
                mat[-1] = list(mat[0])
            per = field.zero
            for sigma in permutations(range(n)):
                inversions = sum(sigma[i] > sigma[j] for i in range(n)
                                 for j in range(i + 1, n))
                term = field.one if inversions % 2 == 0 else -field.one
                for i in range(n):
                    term = term * mat[i][sigma[i]]
                per = per + term
            assert det(mat, field) == per


@pytest.mark.parametrize("field", [QQ, QSQRT5, QCOSPI7, QCOSPI8],
                         ids=["QQ", "sqrt5", "cospi7", "cospi8"])
def test_inverse_and_nullspace_fuzz(field):
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(1, 5)
        mat = _rand_matrix(rng, field, n, n)
        if det(mat, field):
            inv = inverse(mat, field)
            assert inv == gauss_inverse(mat, field)
            for i in range(n):
                for j in range(n):
                    s = sum((mat[i][t] * inv[t][j] for t in range(n)),
                            field.zero)
                    assert s == (field.one if i == j else field.zero)
        else:
            with pytest.raises(ValueError):
                inverse(mat, field)
        rows, ncols = rng.randrange(0, 5), rng.randrange(1, 6)
        a = _rank_deficient(rng, field, rows, ncols, rng.randrange(0, 4))
        solver = SparseSolver()
        for row in a:
            solver.add({j: v for j, v in enumerate(row) if v})
        null = nullspace(a, ncols, field)
        assert null == gauss_nullspace(a, ncols, field)
        assert len(null) == ncols - solver.rank
        # each vector ends at its own free (non-pivot) column with a 1 and
        # is 0 on the other free columns
        free = [max(j for j, v in enumerate(x) if v) for x in null]
        assert free == sorted(set(range(ncols)) - set(solver.pivots))
        for x, fj in zip(null, free):
            assert [x[j] for j in free] == \
                [field.one if j == fj else field.zero for j in free]
            for row in a:
                assert not sum((r * v for r, v in zip(row, x)), field.zero)


def test_sparse_solver_solve():
    s = SparseSolver()
    s.add({"a": Fraction(1), "b": Fraction(2)})
    s.add({"b": Fraction(1)})
    sol = s.solve({"a": Fraction(3), "b": Fraction(4)})
    assert sol is not None
    # reconstruct
    gens = [{"a": Fraction(1), "b": Fraction(2)}, {"b": Fraction(1)}]
    acc = {}
    for i, c in sol.items():
        for k, v in gens[i].items():
            acc[k] = acc.get(k, Fraction(0)) + c * v
    assert {k: v for k, v in acc.items() if v} == \
        {"a": Fraction(3), "b": Fraction(4)}
    assert s.solve({"c": Fraction(1)}) is None


def test_sparse_rank_fuzz():
    rng = random.Random(5)
    for _ in range(20):
        n, m = rng.randrange(1, 5), rng.randrange(1, 6)
        rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(m)]
                for _ in range(n)]
        # oracle: rank by plain elimination over Fractions
        dense = [list(r) for r in rows]
        rank = 0
        for col in range(m):
            piv = next((i for i in range(rank, n) if dense[i][col]), None)
            if piv is None:
                continue
            dense[rank], dense[piv] = dense[piv], dense[rank]
            for i in range(n):
                if i != rank and dense[i][col]:
                    c = dense[i][col] / dense[rank][col]
                    dense[i] = [a - c * b for a, b in
                                zip(dense[i], dense[rank])]
            rank += 1
        assert _sparse_rank(rows) == rank


def _sparse_rows(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def test_modp_pivots_match_exact_rank():
    rng = random.Random(11)
    for _ in range(20):
        n, m = rng.randrange(1, 6), rng.randrange(1, 8)
        rows = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
        p, _ = field_prime_and_root(QQ)
        mat = _sparse_rows(rows)
        piv_rows, piv_cols = modp_greedy_pivots(mat, p, min(n, m))
        assert len(piv_rows) == _sparse_rank([[Fraction(v) for v in row]
                                              for row in rows])


def _planted_matrix(rng, p):
    """A random matrix mod p with a zero column, a duplicate row and a row
    that is a combination of two others."""
    n, m = rng.randrange(3, 8), rng.randrange(2, 9)
    density = rng.choice([0.3, 0.6, 1.0])
    rows = [[rng.randrange(-p, p) if rng.random() < density else 0
             for _ in range(m)] for _ in range(n)]
    for row in rows:
        row[rng.randrange(m)] = 0
    a, b, c, d = (rng.randrange(n) for _ in range(4))
    rows[b] = list(rows[a])
    f = rng.randrange(1, p)
    rows[d] = [x + f * y for x, y in zip(rows[a], rows[c])]
    return rows


def test_modp_pivots_match_dense_oracle():
    # the pivots themselves, not just the rank, against the dense search
    rng = random.Random(23)
    cut_short = 0
    for _ in range(400):
        p = rng.choice([2, 3, 7, 99991])
        rows = _planted_matrix(rng, p)
        full = dense_modp_pivots(rows, p, len(rows))
        for k in range(len(full[0]) + 1):
            sparse = _sparse_rows(rows)
            got = modp_greedy_pivots(sparse, p, k)
            assert got == dense_modp_pivots(rows, p, k), (rows, p, k)
            assert sparse == _sparse_rows(rows)     # the input is kept
            assert got == (full[0][:k], full[1][:k])
            cut_short += k < len(full[0])
    assert cut_short
    # all-zero rows; proportional rows after a zero column
    assert modp_greedy_pivots([{}, {}], 5, 2) == ([], [])
    rows = [[0, 2, 4], [0, 1, 2], [0, 3, 6]]
    assert modp_greedy_pivots(_sparse_rows(rows), 7, 3) == ([0], [1])
    assert dense_modp_pivots(rows, 7, 3) == ([0], [1])


def loop_prime_and_root(field, start=99991):
    """Oracle: the first prime >= start with a root of min_poly mod p, and
    the smallest root, by evaluating at each x in turn."""
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


# test-only, reducible on purpose: two roots 5000 and 5003 in one block
# that does not start at 0, so the smallest root and its offset both count
TWO_ROOTS = Field("(t-5000)(t-5003)", (5000 * 5003, -10003, 1))


@pytest.mark.parametrize("field", [QQ, QSQRT5, QCOSPI7, QCOSPI8, TWO_ROOTS],
                         ids=lambda f: f.name)
def test_field_prime_and_root_matches_loop(field):
    for start in (99991, 99993):
        got = field_prime_and_root(field, start)
        assert got == loop_prime_and_root(field, start)
        assert all(isinstance(v, int) for v in got)


def test_scalar_mod_extension():
    p, root = field_prime_and_root(QSQRT5)
    # root^2 = 5 mod p
    assert root * root % p == 5 % p
    x = QSQRT5.scalar(Fraction(1, 2), Fraction(3, 4))
    # the image of num / den is that of the numerator over that of den
    got = num_mod(x.num, p, root) * pow(x.den, -1, p) % p
    want = (pow(2, -1, p) + 3 * pow(4, -1, p) * root) % p
    assert got == want


@pytest.mark.parametrize("field", [QQ, QSQRT5])
def test_support_blocks_of_a_permuted_block_diagonal(field):
    # blocks of 3, 1 and 2 rows, full inside, scattered by random row and
    # column permutations, come back as the components of the support
    rng = random.Random(13)
    zero = 0 if field.is_rational else (0, 0)
    nonzero = bool if field.is_rational else any
    for _ in range(10):
        rows, cols = list(range(6)), list(range(6))
        rng.shuffle(rows)
        rng.shuffle(cols)
        mat = [[zero] * 6 for _ in range(6)]
        want, start = [], 0
        for size in (3, 1, 2):
            r, c = rows[start:start + size], cols[start:start + size]
            for i in r:
                for j in c:
                    x = rng.choice([-2, -1, 1, 3])
                    mat[i][j] = x if field.is_rational else (0, x)
            want.append((sorted(r), sorted(c)))
            start += size
        assert support_blocks(mat, nonzero) == sorted(want)


def test_support_blocks_non_square_component_raises():
    # rows 0 and 1 meet column 0 alone; a zero row is a block of no column
    for mat in ([[1, 0, 0], [2, 0, 0], [0, 1, 1]],
                [[1, 2, 0], [0, 0, 0], [0, 0, 3]],
                [[1, 2, 3], [4, 0, 0], [0, 0, 0]]):
        with pytest.raises(ValueError, match="not invertible"):
            support_blocks(mat)
    assert support_blocks([[0, 2], [3, 0]]) == [([0], [1]), ([1], [0])]
    assert support_blocks([]) == []


def _random_generators(rng, field, keys):
    """Sparse vectors over the keys: random ones, and zero, duplicate and
    dependent (a combination of two earlier) generators among them."""
    gens = []
    for _ in range(rng.randrange(1, 10)):
        kind = rng.random()
        if kind < 0.1:
            gens.append({})
        elif kind < 0.2 and gens:
            gens.append(dict(rng.choice(gens)))
        elif kind < 0.4 and len(gens) >= 2:
            a, b = rng.sample(gens, 2)
            ca, cb = _rand_scalar(rng, field), _rand_scalar(rng, field)
            v = {k: ca * a.get(k, field.zero) + cb * b.get(k, field.zero)
                 for k in set(a) | set(b)}
            gens.append({k: x for k, x in v.items() if x})
        else:
            v = {k: _rand_scalar(rng, field)
                 for k in rng.sample(keys, rng.randrange(1, 6))}
            gens.append({k: x for k, x in v.items() if x})
    return gens


@pytest.mark.parametrize("field", [QQ, QSQRT5, QCOSPI7],
                         ids=lambda f: f.name)
def test_integer_solver_matches_fraction_oracle(field):
    rng = random.Random(f"solver-{field.name}")
    for trial in range(80):
        if trial % 2:
            keys = sorted({(rng.randrange(4), (rng.randrange(3),
                                               rng.randrange(3)))
                           for _ in range(10)})
        else:
            keys = list(range(8))
        gens = _random_generators(rng, field, keys)
        # scalar input (the field given, or read off the first scalars),
        # and numerators over one den
        solvers = [SparseSolver(field), SparseSolver(), SparseSolver(field)]
        oracle = FractionSparseSolver()

        def feed(i, solver, method, vec):
            if i < 2:
                return getattr(solver, method)(vec)
            nums, den = field.clear(list(vec.values())) if vec else ([], 1)
            given = dict(zip(vec, nums))
            got = getattr(solver, method)(given, den)
            assert given == dict(zip(vec, nums))    # the input is kept
            return got

        for v in gens:
            want = oracle.add(v)
            assert [feed(i, s, "add", v) for i, s in enumerate(solvers)] \
                == [want] * 3
        for s in solvers:
            assert s.rank == oracle.rank and s.pivots == oracle.pivots
        targets = gens + _random_generators(rng, field, keys) + [{}]
        for t in targets:
            want = oracle.solve(t)
            res = oracle.reduce_only(t)
            for i, s in enumerate(solvers):
                assert feed(i, s, "solve", t) == want, (trial, t)
                assert feed(i, s, "reduce_only", t) == res, (trial, t)


def test_solver_numerator_tuples_need_the_field():
    with pytest.raises(ValueError, match="field"):
        SparseSolver().add({"a": (1, 2)}, 3)
    with pytest.raises(ValueError):
        # a Q solver, fixed by rational scalars, refuses a Q(sqrt5) scalar
        s = SparseSolver()
        s.add({"a": Fraction(1, 2)})
        s.add({"b": QSQRT5.scalar(0, 1)})
