import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from conftest import homogeneous_part

from coxcov.coinvariants import (CoinvariantBasis, hilbert_coinvariants,
                                 monomials_of_degree)
from coxcov.fields import QQ
from coxcov.linalg import SparseSolver
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
    assert hilbert_coinvariants((2,), 1) == [1, 1]
    assert hilbert_coinvariants((2, 3), 2) == [1, 2, 2, 1]
    assert hilbert_coinvariants((2, 4), 2) == [1, 2, 2, 2, 1]


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
def test_exact_fallback_build(group_of, monkeypatch, code):
    # force the exact greedy build that runs when the mod-p selection fails
    import coxcov.coinvariants as coinvariants
    monkeypatch.setattr(coinvariants, "modp_greedy_pivots",
                        lambda mat, p, k: ([], []))
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
