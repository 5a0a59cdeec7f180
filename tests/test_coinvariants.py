import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

import pytest

from conftest import (assert_canonical, field_prime_and_root,
                      homogeneous_part, layout_of, num_mod, pairing_route_nf,
                      scalar_nf)

from coxcov.cli import DEFAULT_GROUPS
from coxcov.coinvariants import (CoinvariantBasis, _weighted,
                                 hilbert_coinvariants, monomials_of_degree)
from coxcov.fields import QQ
from coxcov.linalg import (SparseSolver, bareiss_jordan_inverse, inverse,
                           modp_greedy_pivots)
from coxcov.poly import Poly
from coxcov.weil import B_QUOTIENT, Weil

# the rational groups the unit layer builds
RATIONAL_GROUPS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "G2"]


def j_span_solver(g, d):
    """Independent oracle: the degree-d piece of J as a row-reduced span of
    the products (monomial of degree d - d_i) * psi_i."""
    solver = SparseSolver()
    for psi in g.basic_invariants():
        rest = d - psi.degree()
        if rest < 0:
            continue
        for m in monomials_of_degree(g.rank, rest):
            solver.add(dict((psi * Poly.monomial(m, 1, g.field)).terms))
    return solver


def test_hilbert_series_examples():
    assert hilbert_coinvariants((2,)) == [1, 1]
    assert hilbert_coinvariants((2, 3)) == [1, 2, 2, 1]
    assert hilbert_coinvariants((2, 4)) == [1, 2, 2, 2, 1]


def test_dims_and_delta(stack_of):
    for code in ["A1", "A2", "B2", "G2", "A3", "B3", "I2(5)"]:
        st = stack_of(code)
        g, cb = st.group, st.cb
        assert sum(cb.h_dims) == g.order
        assert cb.h_dims[cb.top] == 1
        nf = cb.nf_poly(g.jacobian_delta())
        assert not nf.is_zero()
        assert nf.degree() == cb.top


def test_normal_form_vs_j_span_oracle(stack_of):
    for code in ["A1", "A2", "B2", "G2", "I2(5)"]:
        st = stack_of(code)
        g, cb = st.group, st.cb
        for d in range(cb.top + 1):
            solver = j_span_solver(g, d)
            monos = monomials_of_degree(g.rank, d)
            assert len(monos) - solver.rank == cb.h_dims[d]
            for m in monos[:8]:
                p = Poly.monomial(m, 1, g.field)
                nf = cb.nf_poly(p)
                diff = p - nf
                if diff:
                    assert not solver.reduce_only(dict(diff.terms)), \
                        (code, d, m)
            for m in cb.tables[d].monos:
                p = Poly.monomial(m, 1, g.field)
                assert cb.nf_poly(p) == p


def test_a1_examples(stack_of):
    cb = stack_of("A1").cb
    assert cb.nf_poly(Poly.monomial((2,), 1)).is_zero()
    one = Poly.constant(1, 1)
    assert cb.nf_poly(one) == one
    assert [len(cb.tables[d].monos) for d in (0, 1)] == [1, 1]


def test_b2_x4_reduction(stack_of):
    # with psi = (x^2+y^2, x^4+y^4):
    # x^4 = psi_2/2 + (x^2-y^2)/2 * psi_1, an explicit membership certificate
    st = stack_of("B2")
    cb = st.cb
    psis = st.group.basic_invariants()
    x4 = Poly.monomial((4, 0), 1)
    half_diff = (Poly.monomial((2, 0), Fraction(1, 2)) +
                 Poly.monomial((0, 2), Fraction(-1, 2)))
    assert x4 == psis[1].scale(Fraction(1, 2)) + half_diff * psis[0]
    assert cb.nf_poly(x4).is_zero()
    assert cb.in_j(x4)


def test_multiplicativity_modulo_j(stack_of):
    rng = random.Random(2)
    for code in ["A2", "B2"]:
        st = stack_of(code)
        cb = st.cb
        for _ in range(25):
            e1 = tuple(rng.randrange(3) for _ in range(2))
            e2 = tuple(rng.randrange(3) for _ in range(2))
            p = Poly.monomial(e1, Fraction(rng.randrange(1, 4)))
            q = Poly.monomial(e2, Fraction(rng.randrange(1, 4)))
            lhs = cb.nf_poly(p * q)
            rhs = cb.nf_poly(cb.nf_poly(p) * cb.nf_poly(q))
            assert lhs == rhs
        for psi in st.group.basic_invariants():
            assert cb.nf_poly(psi).is_zero()


def test_equivariance_of_pi(stack_of):
    rng = random.Random(8)
    for code in ["A2", "B2", "G2"]:
        st = stack_of(code)
        g, cb = st.group, st.cb
        for _ in range(100):
            w = rng.randrange(g.order)
            e = tuple(rng.randrange(3) for _ in range(g.rank))
            p = Poly.monomial(e, 1, g.field)
            assert cb.nf_poly(g.act_poly(w, p)) == \
                cb.nf_poly(g.act_poly(w, cb.nf_poly(p)))


def test_weil_normal_form(stack_of):
    st = stack_of("A1")
    cb = st.cb
    w = Weil(1, st.group.field, {0b1: Poly.monomial((2,), 1)})
    assert cb.nf_weil(w).is_zero()
    st2 = stack_of("B2")
    psi1 = st2.group.basic_invariants()[0]
    w2 = Weil(2, st2.group.field, {0b11: psi1})
    assert st2.cb.nf_weil(w2).is_zero()
    # identity on standard-form input
    std = Weil(2, st2.group.field,
               {0b01: Poly.monomial(st2.cb.tables[2].monos[0], 1)},
               B_QUOTIENT)
    lifted = CoinvariantBasis.lift(std)
    assert st2.cb.nf_weil(lifted) == std


def test_kernel_contains_j_multiples(stack_of):
    rng = random.Random(4)
    for code in ["A2", "B2"]:
        st = stack_of(code)
        g, cb = st.group, st.cb
        psis = g.basic_invariants()
        for _ in range(20):
            psi = psis[rng.randrange(len(psis))]
            e = tuple(rng.randrange(2) for _ in range(g.rank))
            mask = rng.randrange(1 << g.rank)
            w = Weil(g.rank, g.field,
                     {mask: psi * Poly.monomial(e, 1, g.field)})
            assert cb.nf_weil(w).is_zero()


def test_degree_above_top_reduces_to_zero(stack_of):
    st = stack_of("B2")
    p = Poly.monomial((3, 3), 1)       # degree 6 > |T| = 4
    assert st.cb.nf_poly(p).is_zero()


def test_harmonics_are_annihilated(stack_of):
    # every stored harmonic is an honest derivative of the root-form
    # product; check the defining property psi_i(d)h = 0 degreewise
    from coxcov.coinvariants import _pairing
    for code in ["A2", "B2"]:
        st = stack_of(code)
        g, cb = st.group, st.cb
        for d in range(1, cb.top + 1):
            for h in cb.plain_harmonics(d):
                for psi in g.basic_invariants():
                    rest = d - psi.degree()
                    if rest < 0:
                        continue
                    for m in monomials_of_degree(g.rank, rest):
                        q = psi * Poly.monomial(m, 1, g.field)
                        assert not _pairing(q, h)


# -- slow-path oracle: Fraction pairing and the inv / den solve ---------------

def oracle_pairing(h, p):
    """Apolar pairing on Fraction coefficients, <x^e, x^e> = e!."""
    total = Fraction(0)
    for e, c in p.terms.items():
        other = h.terms.get(e)
        if other is not None:
            w = 1
            for k in e:
                w *= factorial(k)
            total += c * other * w
    return total


def oracle_solve(table, vals):
    """Standard-monomial terms with pairing vector vals, through inv / den."""
    out = {}
    for j, mono in enumerate(table.monos):
        num = sum(table.inv[j][i] * v for i, v in enumerate(vals))
        if num:
            out[mono] = Fraction(num) / table.den
    return out


def oracle_nf(cb, p):
    out = Poly.zero(cb.rank, cb.field)
    for d in sorted({sum(e) for e in p.terms}):
        if d > cb.top:
            continue
        t = cb.tables[d]
        part = homogeneous_part(p, d)
        vals = [oracle_pairing(h, part) for h in cb.plain_harmonics(d)]
        out = out + Poly(cb.rank, cb.field, oracle_solve(t, vals))
    return out


def oracle_in_j(cb, p):
    for d in sorted({sum(e) for e in p.terms}):
        if d <= cb.top and any(oracle_pairing(h, homogeneous_part(p, d))
                               for h in cb.plain_harmonics(d)):
            return False
    return True


def _big_fraction(rng):
    num = 0
    while not num:
        num = rng.randrange(-10**6, 10**6 + 1)
    return Fraction(num, rng.randrange(1, 10**6 + 1))


def _random_poly(rng, cb, degrees, nterms):
    terms = {}
    for _ in range(nterms):
        d = rng.choice(degrees)
        terms[rng.choice(monomials_of_degree(cb.rank, d))] = \
            _big_fraction(rng)
    return Poly(cb.rank, QQ, terms)


@pytest.mark.parametrize("code", RATIONAL_GROUPS)
def test_integer_normal_form_matches_fraction_oracle(stack_of, code):
    rng = random.Random(code)
    st = stack_of(code)
    g, cb = st.group, st.cb
    top = cb.top
    psis = g.basic_invariants()
    for _ in range(12):
        # mixed degrees: 0, top, above top and a few in between
        degrees = [0, top, top + 1, top + 2] + \
            [rng.randrange(top + 1) for _ in range(3)]
        p = _random_poly(rng, cb, degrees, rng.randrange(1, 12))
        # an element of J, and the same element shifted by p
        j_elt = Poly.zero(g.rank, QQ)
        for psi in psis:
            rest = rng.randrange(max(top - psi.degree(), 0) + 2)
            j_elt = j_elt + psi * _random_poly(rng, cb, [rest], 3)
        for q, in_j in ((p, None), (j_elt, True), (j_elt + p, None)):
            got = cb.nf_poly(q)
            assert got == oracle_nf(cb, q), (code, q)
            assert all(isinstance(c, Fraction) for c in got.terms.values())
            assert cb.in_j(q) == oracle_in_j(cb, q)
            if in_j:
                assert got.is_zero() and cb.in_j(q)


def test_non_integral_harmonic_raises(group_of):
    cb = CoinvariantBasis(group_of("A1"))
    cb.xi = cb.xi.scale(Fraction(1, 2))
    with pytest.raises(ValueError, match="non-integral"):
        cb._build_tables()
    # a raise, unlike an assert, survives python -O
    code = ("from fractions import Fraction\n"
            "from coxcov.coinvariants import CoinvariantBasis\n"
            "from coxcov.groups import build_group\n"
            "cb = CoinvariantBasis(build_group('A1'))\n"
            "cb.xi = cb.xi.scale(Fraction(1, 2))\n"
            "try:\n"
            "    cb._build_tables()\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code],
                          env=env).returncode == 0


@pytest.mark.parametrize("code", ["A1", "A2"])
def test_phi_even_to_h_matches_oracle_solve(code):
    from coxcov.lie_bridge import (_ext_pairing, build_lie, phi_even_to_h,
                                   tau_map)
    rng = random.Random(31)
    L = build_lie(code)
    cb = L.cb
    even = [m for m in range(1 << L.dim) if bin(m).count("1") % 2 == 0]
    for _ in range(6):
        xi = {m: _big_fraction(rng)
              for m in rng.sample(even, min(len(even), 12))}
        want = Poly.zero(L.rank, QQ)
        by_deg = {}
        for mask, c in xi.items():
            by_deg.setdefault(bin(mask).count("1") // 2, {})[mask] = c
        for m, part in by_deg.items():
            if m > cb.top:
                continue
            vals = [_ext_pairing(L, tau_map(L, a), part)
                    for a in cb.invariant_harmonics(m)]
            want = want + Poly(L.rank, QQ, oracle_solve(cb.tables[m], vals))
        assert phi_even_to_h(L, xi) == want


@pytest.mark.parametrize("code", ["A2", "B2", "I2(5)"])
def test_exact_fallback_build(group_of, code):
    # the one exact column pass: every monomial's normal form is supported
    # on the standard monomials and differs from it by an element of J
    g = group_of(code)
    cb = CoinvariantBasis(g)
    for d in range(cb.top + 1):
        solver = j_span_solver(g, d)
        for m in monomials_of_degree(g.rank, d):
            p = Poly.monomial(m, 1, g.field)
            nf = cb.nf_poly(p)
            assert set(nf.terms) <= set(cb.tables[d].monos)
            diff = p - nf
            if diff:
                assert not solver.reduce_only(dict(diff.terms)), \
                    (code, d, m)


def modp_layout(cb):
    """{d: (indices, monos)} by the greedy pivot search modulo a prime,
    degree by degree from the top, each degree's candidates the first
    derivatives of the harmonics chosen one degree up: the search that the
    exact column pass replaced, kept as its oracle."""
    p, root = field_prime_and_root(cb.field)
    cb._deriv_memo = {(0,) * cb.rank: _weighted(cb.xi)}
    out, prev = {}, [(0,) * cb.rank]
    for d in range(cb.top, -1, -1):
        cands = [(a, wh) for a in cb._candidates(prev, cb.top - d)
                 if (wh := cb._derivative(a))]
        monos = monomials_of_degree(cb.rank, d)
        pos = {m: j for j, m in enumerate(monos)}
        mat = [{pos[e]: num_mod(c, p, root) for e, c in wh.items()}
               for _, wh in cands]
        rows, cols = modp_greedy_pivots(mat, p, cb.h_dims[d])
        out[d] = [cands[i][0] for i in rows], [monos[j] for j in cols]
        prev = out[d][0]
    del cb._deriv_memo
    return out


@pytest.mark.parametrize("code", DEFAULT_GROUPS + ["I2(4)", "I2(7)"])
def test_column_pass_layout_matches_modp_oracle(code, group_of):
    # the pivot rows and columns of every table, against the mod-p search
    cb = CoinvariantBasis(group_of(code))
    assert layout_of(cb) == modp_layout(cb)


def test_planted_candidate_loss_raises_optimized():
    """Under python -O, a degree whose candidates span less than dim H_d
    (all but the first first-order derivative of Xi dropped) stops the
    build with the rank-defect certificate."""
    child = (
        "from coxcov.coinvariants import CoinvariantBasis\n"
        "from coxcov.groups import build_group\n"
        "from coxcov.reports import CertificationError\n"
        "real = CoinvariantBasis._candidates\n"
        "def planted(self, basis, order):\n"
        "    return real(self, basis, order)[:1]\n"
        "CoinvariantBasis._candidates = planted\n"
        "try:\n"
        "    CoinvariantBasis(build_group('A2'))\n"
        "except CertificationError as err:\n"
        "    ok = str(err).startswith('derivative span rank defect')\n"
        "    raise SystemExit(3 if ok else 4)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    got = subprocess.run([sys.executable, "-O", "-c", child], env=env)
    assert got.returncode == 3


@pytest.mark.parametrize("code", ["A3", "B3", "H3", "I2(5)", "I2(8)"])
def test_nf_poly_matches_scalar_oracle(code, stack_of):
    # every degree table: the integer pairing vector and solve against the
    # scalar loops, with the pairing inverse from Gauss-Jordan
    st = stack_of(code)
    g, cb = st.group, st.cb
    rng = random.Random(cb.top)
    for d in range(cb.top + 2):
        monos = monomials_of_degree(g.rank, d)
        for _ in range(2):
            p = Poly(g.rank, g.field, {
                m: g.field.scalar(*[Fraction(rng.randrange(-9, 10),
                                             rng.randrange(1, 5))
                                    for _ in range(g.field.degree)])
                for m in rng.sample(monos, min(4, len(monos)))})
            p = p + Poly.monomial((0,) * (g.rank - 1) + (d - 1,),
                                  Fraction(1, 3), g.field) if d else p
            got = cb.nf_poly(p)
            assert_canonical(got)
            assert got.terms == scalar_nf(cb, p)
            assert cb.in_j(p - got)
    for t in cb.tables.values():
        assert type(t.den) is int and t.den > 0


def test_table_denominator_is_positive(stack_of):
    # fraction-free elimination can end on a negative pivot; the table keeps
    # den > 0 so that the normal forms built over it are canonical
    cb = stack_of("A1").cb
    t = cb._table([((0,), {(1,): -2})], [(1,)])
    assert t.den > 0 and Fraction(t.inv[0][0], t.den) == Fraction(-1, 2)
    cb = stack_of("I2(5)").cb
    t = cb._table([((0, 0), {(1, 0): (-2, 0)})], [(1, 0)])
    assert t.den > 0 and cb.field.from_num(t.inv[0][0], t.den) == \
        Fraction(-1, 2)


def _pairing_matrix(cb, t):
    zero = 0 if cb.field.is_rational else (0,) * cb.field.degree
    return [[wh.get(m, zero) for m in t.monos] for wh in t.weighted]


@pytest.mark.parametrize("code", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                  "G2", "I2(5)", "I2(8)", "H3"])
def test_block_inverse_matches_whole_matrix_inverse(code, stack_of):
    # every table's (M, den), inverted block by block, is the inverse of
    # the whole pairing matrix by one elimination, in lowest terms
    cb = stack_of(code).cb
    field = cb.field
    for t in cb.tables.values():
        mat = _pairing_matrix(cb, t)
        k = len(mat)
        if field.is_rational:
            inv, den = bareiss_jordan_inverse(mat)
            g = gcd(den, *(x for row in inv for x in row))
            g = g if den > 0 else -g
            want = [[x // g for x in row] for row in inv], den // g
        else:
            nums, den = field.clear([
                x for row in inverse([[field.from_num(x) for x in row]
                                      for row in mat], field)
                for x in row])
            want = [nums[i:i + k] for i in range(0, k * k, k)], den
        assert (t.inv, t.den) == want, (code, t.monos)


def test_singular_block_raises(stack_of):
    # P has the blocks [[1, 2], [2, 4]] (singular) and [[5]]
    cb = stack_of("A2").cb
    chosen = [((0, 0), {(2, 0): 1, (1, 1): 2}),
              ((0, 0), {(2, 0): 2, (1, 1): 4}),
              ((0, 0), {(0, 2): 5})]
    with pytest.raises(ValueError, match="not invertible"):
        cb._table(chosen, [(2, 0), (1, 1), (0, 2)])
    cb = stack_of("I2(5)").cb
    chosen = [((0, 0), {(2, 0): (1, 1), (1, 1): (2, 2)}),
              ((0, 0), {(2, 0): (1, 0), (1, 1): (2, 0)}),
              ((0, 0), {(0, 2): (0, 3)})]
    with pytest.raises(ValueError, match="not invertible"):
        cb._table(chosen, [(2, 0), (1, 1), (0, 2)])


def test_planted_block_inverse_entry_raises_under_optimize():
    # one wrong entry in the inverse of one block of a B3 table with four
    # blocks: the product certificate on the whole table turns it down,
    # and it is a raise, so python -O keeps it
    code = ("import sys\n"
            "from coxcov import coinvariants\n"
            "from coxcov.coinvariants import CoinvariantBasis\n"
            "from coxcov.groups import build_group\n"
            "from coxcov.linalg import support_blocks\n"
            "from coxcov.reports import CertificationError\n"
            "if not sys.flags.optimize:\n"
            "    raise SystemExit(5)\n"
            "cb = CoinvariantBasis(build_group('B3'))\n"
            "t = cb.tables[3]\n"
            "mat = [[wh.get(m, 0) for m in t.monos] for wh in t.weighted]\n"
            "n_blocks = len(support_blocks(mat))\n"
            "if n_blocks != 4:\n"
            "    raise SystemExit(6)\n"
            "real = coinvariants.bareiss_jordan_inverse\n"
            "calls = []\n"
            "def planted(block, field):\n"
            "    inv, den = real(block, field)\n"
            "    calls.append(block)\n"
            "    if len(calls) == 2:\n"
            "        inv[-1][0] += 1\n"
            "    return inv, den\n"
            "coinvariants.bareiss_jordan_inverse = planted\n"
            "try:\n"
            "    cb._table(list(zip(t.indices, t.weighted)), t.monos)\n"
            "except CertificationError as exc:\n"
            "    print(len(calls), exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    got = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stdout.startswith("4 inverse certification failed at")


def _random_field_poly(rng, g, degrees, nterms, integral=False):
    """A random Poly over the group's field with terms of the given
    degrees; integer coordinates if ``integral``."""
    field = g.field
    terms = {}
    for _ in range(nterms):
        m = rng.choice(monomials_of_degree(g.rank, rng.choice(degrees)))
        terms[m] = field.scalar(*[
            Fraction(rng.randrange(-9, 10),
                     1 if integral else rng.randrange(1, 7))
            for _ in range(field.degree)])
    return Poly(g.rank, field, terms)


@pytest.mark.parametrize("code", [c for c in DEFAULT_GROUPS if c != "F4"]
                         + ["I2(4)", "I2(7)"])
def test_memoised_nf_poly_matches_pairing_route(code, group_of):
    # a basis of its own, so its column memo starts empty
    g = group_of(code)
    cb = CoinvariantBasis(g)
    assert not cb._columns
    zero = Poly.zero(g.rank, g.field)
    assert cb.nf_poly(zero) == zero and not cb._columns
    rng = random.Random(f"memo-{code}")
    top = cb.top
    polys = []
    for _ in range(8):
        degrees = [0, top, top + 1, top + 3] + \
            [rng.randrange(top + 1) for _ in range(3)]
        polys.append(_random_field_poly(rng, g, degrees, rng.randrange(1, 9)))
    polys.append(polys[0] + polys[1])       # monomials of filled columns
    for p in polys:
        got = cb.nf_poly(p)
        assert_canonical(got)
        assert got == pairing_route_nf(cb, p), (code, p)
    filled = dict(cb._columns)
    assert any(sum(e) > top and col == () for e, col in filled.items())
    # every column is filled now: the second pass only reads them
    for p in polys:
        assert cb.nf_poly(p) == pairing_route_nf(cb, p), (code, p)
    assert cb._columns.keys() == filled.keys()
    assert all(cb._columns[e] is col for e, col in filled.items())


@pytest.mark.parametrize("code", ["A1", "A2", "B2"])
def test_lie_side_basis_keeps_columns_of_its_own(code, group_of):
    # the catalogue basis and the Lie-side basis of one Weyl group share
    # a layout but not their coordinates, so not their columns either
    from coxcov.lie_bridge import build_lie
    cat = CoinvariantBasis(group_of(code))
    lie = build_lie(code).cb
    assert layout_of(lie) == layout_of(cat)
    assert lie._columns is not cat._columns
    rng = random.Random(f"lie-{code}")
    polys = [_random_field_poly(rng, cat.group, list(range(cat.top + 2)), 6)
             for _ in range(6)]
    for p in polys:
        assert lie.nf_poly(p) == pairing_route_nf(lie, p)
    assert not cat._columns
    for p in polys:
        assert cat.nf_poly(p) == pairing_route_nf(cat, p)
    assert cat._columns.keys() == lie._columns.keys()
    if code == "B2":
        # the Lie side realizes B2 in other coordinates: some monomial has
        # two normal forms, so shared columns would give wrong ones
        assert any(cat._columns[e] != lie._columns[e] for e in cat._columns)


@pytest.mark.parametrize("code", ["B3", "H3", "I2(8)"])
def test_nf_poly_on_integers_builds_no_fraction(code, group_of, monkeypatch):
    g = group_of(code)
    cb = CoinvariantBasis(g)
    rng = random.Random(f"nofrac-{code}")
    polys = [_random_field_poly(rng, g, list(range(cb.top + 2)), 8,
                                integral=True) for _ in range(6)]
    assert all(p.den == 1 for p in polys)
    calls = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and calls         # the count does see a Fraction
    calls.clear()
    nfs = [cb.nf_poly(p) for p in polys]    # columns filled here
    nfs += [cb.nf_poly(p) for p in polys]   # and read here
    monkeypatch.undo()
    assert not calls
    assert nfs[:len(polys)] == nfs[len(polys):]
    assert nfs[:len(polys)] == [pairing_route_nf(cb, p) for p in polys]


@pytest.mark.parametrize("code", ["B2", "I2(5)"])
def test_planted_psi_fails_xi_certificate_under_optimize(code):
    # psi_1 + x_0^2 does not annihilate Xi: the certificate on integer
    # numerators turns it down, and it is a raise, so python -O keeps it
    child = ("import sys\n"
             "from coxcov.coinvariants import CoinvariantBasis\n"
             "from coxcov.groups import build_group\n"
             "from coxcov.poly import Poly\n"
             "from coxcov.reports import CertificationError\n"
             "if not sys.flags.optimize:\n"
             "    raise SystemExit(5)\n"
             f"g = build_group({code!r})\n"
             "CoinvariantBasis(g)\n"
             "psis = g.basic_invariants()\n"
             "x0 = (2,) + (0,) * (g.rank - 1)\n"
             "g._psis = [psis[0] + Poly.monomial(x0, 1, g.field)] + psis[1:]\n"
             "try:\n"
             "    CoinvariantBasis(g)\n"
             "except CertificationError as exc:\n"
             "    print(exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    got = subprocess.run([sys.executable, "-O", "-c", child],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == ("root-form product is not annihilated by "
                                  "the invariants")
