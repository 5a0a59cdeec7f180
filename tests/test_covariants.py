from fractions import Fraction

import pytest

from conftest import CATALOGUE, standard_monomials

from coxcov.coinvariants import CoinvariantBasis
from coxcov.covariants import (constants_table, form_e, freeness_check,
                               j2_invariance_check, pr_structure_check,
                               solomon_check, weil_vec)
from coxcov.differentials import koszul_delta
from coxcov.linalg import SparseSolver
from coxcov.poly import Poly
from coxcov.weil import B_QUOTIENT, Weil, wedge_mul

SMALL = ["A1", "A2", "B2", "G2", "A3", "B3", "I2(5)"]


def test_degenerate_multiplicity_rejected(group_of):
    import pytest
    from coxcov.covariants import CovariantStack
    g = group_of("B2")
    with pytest.raises(ValueError, match="degenerate multiplicity"):
        CovariantStack(g, c_values=[1, -1])     # |T|_c = 2 - 2 = 0


def test_a1_chain(stack_of):
    st = stack_of("A1")
    f = st.group.field
    assert st.p(1) == Weil(1, f, {0b1: Poly.variable(0, 1).scale(2)},
                           B_QUOTIENT)
    assert st.f(1).comps == (Weil(1, f, {0: Poly.variable(0, 1).scale(2)},
                                  B_QUOTIENT),)
    assert st.u(1).comps == (Weil(1, f, {0b1: Poly.constant(2, 1)},
                                  B_QUOTIENT),)
    assert form_e(st.u(1), st.f(1)) == st.p(1).scale(2)
    # empty sums: p_1 f_1 = 0 and p_1 u_1 = 0
    assert st.f(1).mul_weil(st.p(1)).is_zero()
    assert st.u(1).mul_weil(st.p(1)).is_zero()


def test_degrees(stack_of):
    for code in SMALL:
        st = stack_of(code)
        for i, d in enumerate(st.group.degrees, start=1):
            assert st.p(i).total_degree() == 2 * d - 1
            assert st.f(i).total_degree() == 2 * d - 2
            assert st.u(i).total_degree() == 2 * d - 3
            assert st.p(i).bidegrees() == {(1, d - 1)}


def test_p_anticommute(stack_of):
    for code in ["A2", "B2", "B3"]:
        st = stack_of(code)
        for i in range(1, st.group.rank + 1):
            for j in range(1, st.group.rank + 1):
                pi = CoinvariantBasis.lift(st.p(i))
                pj = CoinvariantBasis.lift(st.p(j))
                lhs = st.cb.nf_weil(wedge_mul(pi, pj))
                rhs = st.cb.nf_weil(wedge_mul(pj, pi))
                assert lhs == -rhs


def test_p_invariant(stack_of):
    for code in ["A2", "B2", "G2"]:
        st = stack_of(code)
        for i in range(1, st.group.rank + 1):
            for widx in st.group.simple_indices:
                assert st.cb.act_b(widx, st.p(i)) == st.p(i)


def test_delta_intertwining(stack_of):
    for code in SMALL:
        st = stack_of(code)
        for i in range(1, st.group.rank + 1):
            du = tuple(koszul_delta(st.group, c, st.cb)
                       for c in st.u(i).comps)
            assert du == st.f(i).comps
            df = tuple(koszul_delta(st.group, c, st.cb)
                       for c in st.f(i).comps)
            assert all(x.is_zero() for x in df)


def test_equivariance(stack_of):
    for code in SMALL:
        st = stack_of(code)
        for i in range(1, st.group.rank + 1):
            assert st.f(i).is_equivariant()
            assert st.u(i).is_equivariant()


def test_e_graded_symmetry(stack_of):
    for code in ["A2", "B2"]:
        st = stack_of(code)
        for i in range(1, st.group.rank + 1):
            for j in range(1, st.group.rank + 1):
                a, b = st.u(i), st.f(j)
                lhs = form_e(a, b)
                rhs = form_e(b, a)
                sign = (-1) ** (a.total_degree() * b.total_degree())
                assert lhs == (rhs if sign > 0 else -rhs)


def test_solomon(stack_of):
    for code in SMALL:
        rec = solomon_check(stack_of(code))
        assert rec.status == "pass", rec.details
        assert rec.details["dim_bw"] == 2 ** stack_of(code).group.rank


def test_solomon_series_values(stack_of):
    rec = solomon_check(stack_of("A1"))
    assert rec.details["series"] == [1, 0, 0, 1]
    rec = solomon_check(stack_of("B2"))
    # (1+u^3)(1+u^7)
    assert rec.details["series"] == [1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1]


def test_constants(stack_of):
    for code in SMALL:
        st = stack_of(code)
        rec = constants_table(st)
        assert rec.status == "pass", rec.details
        degrees = st.group.degrees
        for i in range(1, st.group.rank + 1):
            for j in range(1, st.group.rank + 1):
                admissible = (degrees[i - 1] + degrees[j - 1] - 2) in degrees
                assert (rec.details["pattern"][f"{i},{j}"] != 0) == admissible
        assert rec.details["k11"] == "2" or rec.details["k11"][0] == "2"


def test_e_invariance(stack_of):
    # E of equivariant maps lands in the span of the p-products
    for code in ["A2", "B2"]:
        st = stack_of(code)
        for i in range(1, st.group.rank + 1):
            e = form_e(st.u(i), st.f(i))
            if e.is_zero():
                continue
            assert st.express_in_p_basis(e) is not None
            for widx in st.group.simple_indices:
                assert st.cb.act_b(widx, e) == e


def test_freeness(stack_of):
    for code in SMALL:
        st = stack_of(code)
        rec = freeness_check(st)
        assert rec.status == "pass", rec.details
        assert rec.details["ungraded"] == st.group.rank * 2 ** st.group.rank


def test_structure(stack_of):
    for code in SMALL:
        st = stack_of(code)
        rec = pr_structure_check(st)
        assert rec.status == "pass", rec.details


def test_j2_invariance(stack_of):
    for code in ["B2", "A3", "B3"]:
        rec = j2_invariance_check(stack_of(code), seed=12)
        assert rec.status == "pass", rec.details
        assert rec.details["perturbed"] >= 1
    # A2: perturbation degrees are vacuous (J^2 starts at degree 4)
    rec = j2_invariance_check(stack_of("A2"), seed=12)
    assert rec.status == "pass"
    assert rec.details["perturbed"] == 0


def test_top_product_formula(stack_of):
    from coxcov.linalg import det
    for code in ["A2", "B2", "G2"]:
        st = stack_of(code)
        g = st.group
        top = st.p_product((1 << g.rank) - 1)
        detginv = det(g.gram_inv, g.field)
        expected = Weil(g.rank, g.field,
                        {(1 << g.rank) - 1:
                         st.cb.nf_poly(g.jacobian_delta()).scale(detginv)},
                        B_QUOTIENT)
        assert top == expected


def test_bw_molien_oracle(stack_of):
    """Independent Molien oracle for B^W by explicit isotypic projection:
    dim of the invariant subspace of B_q equals the series coefficient."""
    from coxcov.molien import graded_multiplicity_series
    st = stack_of("B2")
    g, cb = st.group, st.cb
    series = graded_multiplicity_series(g, g.character("trivial"))
    for q in range(series.degree() + 1):
        # basis of B_q: (mask, std monomial) with |mask| + 2 deg = q
        basis = []
        for mask in range(1 << g.rank):
            k = bin(mask).count("1")
            if (q - k) % 2 or q - k < 0:
                continue
            d = (q - k) // 2
            for m in (standard_monomials(cb, d) if d <= cb.top else []):
                basis.append((mask, m))
        if not basis:
            assert series[q] == 0
            continue
        # average the action over the group, rank of the projector image
        solver = SparseSolver(g.field)
        rank = 0
        for mask, m in basis:
            w = Weil(g.rank, g.field, {mask: Poly.monomial(m, 1, g.field)},
                     B_QUOTIENT)
            acc = Weil.zero(g.rank, g.field, B_QUOTIENT)
            for widx in range(g.order):
                acc = acc + cb.act_b(widx, w)
            if not acc.is_zero() and solver.add(*weil_vec(acc)):
                rank += 1
        assert rank == series[q], (q, rank, series[q])


def _fresh_stack(stack_of, code):
    """A stack of its own, sharing the group and tables, to plant defects in."""
    from coxcov.covariants import CovariantStack
    st = stack_of(code)
    return CovariantStack(st.group, cb=st.cb)


@pytest.mark.parametrize("code", ["A2", "B3"])
def test_doubled_u1_fails_constants_and_structure(code, stack_of):
    st = _fresh_stack(stack_of, code)
    st._u[1] = st.u(1).scale(2).comps
    rec = constants_table(st)
    assert rec.status == "fail"
    assert "E(u_1,f_2) != E(u_2,f_1)" in rec.details["witness"]
    rec = pr_structure_check(st)
    assert rec.status == "fail"
    assert rec.details["witness"][0] == "constants table failed"
    assert any("relation residual nonzero" in w
               for w in rec.details["witness"])


def test_dropped_stack_is_freed_without_the_collector(stack_of):
    """A stack is not a reference cycle: with the cyclic collector off, the
    last reference to it going away frees it."""
    import gc
    import weakref
    st = _fresh_stack(stack_of, "B2")
    assert constants_table(st).status == "pass"
    assert pr_structure_check(st).status == "pass"     # fills times_p
    assert st.u(1).stack is st and st.f(2).stack is st
    ref = weakref.ref(st)
    gc.disable()
    try:
        del st
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("code", ["A2", "B3"])
def test_zeroed_generator_fails_freeness(code, stack_of):
    st = _fresh_stack(stack_of, code)
    st._u[1] = st.u(1).scale(0).comps
    rec = freeness_check(st)
    assert rec.status == "fail"
    assert "free-basis element p_0*u_1 vanished" in rec.details["witness"]
    assert rec.details["ungraded"] < st.group.rank * 2 ** st.group.rank


def _form_e_oracle(a, b):
    """E(a, b) with one normal form per nonzero Gram-inverse entry."""
    stack = a.stack
    ginv = a.space.gram_inv
    out = Weil.zero(stack.group.rank, stack.group.field, B_QUOTIENT)
    for j in range(a.space.dim):
        aj = CoinvariantBasis.lift(a.comps[j])
        for k in range(b.space.dim):
            bk = CoinvariantBasis.lift(b.comps[k])
            if ginv[j][k] and not aj.is_zero() and not bk.is_zero():
                out = out + stack.cb.nf_weil(
                    wedge_mul(aj, bk).scale(ginv[j][k]))
    return out


@pytest.mark.parametrize("code", ["A2", "B3", "G2", "H3"])
def test_form_e_matches_oracle_on_v(code, stack_of):
    st = stack_of(code)
    gens = [m(i) for m in (st.u, st.f) for i in range(1, st.group.rank + 1)]
    for a in gens:
        for b in gens:
            assert form_e(a, b) == _form_e_oracle(a, b), (a.name, b.name)


def test_form_e_matches_oracle_on_u(stack_of):
    from coxcov.little_adjoint import (make_g, make_v, split_group,
                                       subgroup_invariants, tilde_invariants,
                                       u_target_space, ubar_decomposition)
    st = stack_of("B3")
    split = split_group(st.group)
    dec = ubar_decomposition(split, subgroup_invariants(split))
    tilde = tilde_invariants(dec)
    uspace = u_target_space(st, dec)
    gs = [make_g(st, dec, tilde, uspace, i)
          for i in range(1, len(dec.u_basis) + 1)]
    gens = gs + [make_v(st, dec, g, uspace) for g in gs]
    for a in gens:
        for b in gens:
            assert form_e(a, b) == _form_e_oracle(a, b), (a.name, b.name)


@pytest.mark.parametrize("code", CATALOGUE)
def test_every_p_product_is_invariant(code, stack_of):
    # the oracle of solomon_check's invariance on the generators: all 2^r
    # products p_S, each fixed by every simple reflection
    st = stack_of(code)
    g = st.group
    for mask in range(1 << g.rank):
        prod = st.p_product(mask)
        for widx in g.simple_indices:
            assert st.cb.act_b(widx, prod) == prod, (code, mask, widx)


def test_planted_non_invariant_generator_fails_solomon_optimized():
    """Under python -O, a p_1 of B2 plus b_0 x_0, which the simple
    reflection s_1 (it swaps the coordinates) moves to b_1 x_1 and s_2
    fixes, fails the check with one witness, for s_1."""
    from pathlib import Path
    import os
    import subprocess
    import sys
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = (
        "import sys\n"
        "from coxcov.covariants import CovariantStack, solomon_check\n"
        "from coxcov.groups import build_group\n"
        "from coxcov.poly import Poly\n"
        "from coxcov.weil import Weil\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit(5)\n"
        "st = CovariantStack(build_group('B2'))\n"
        "bad = Weil(2, st.group.field, {0b01: Poly.variable(0, 2)})\n"
        "st._p[1] = st.p(1) + st.cb.nf_weil(bad)\n"
        "rec = solomon_check(st)\n"
        "print(rec.status)\n"
        "print(*[w for w in rec.details['witness'] if 'invariant' in w],\n"
        "      sep='\\n')\n")
    got = subprocess.run([sys.executable, "-O", "-c", child],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
    assert got.stdout.splitlines() == ["fail", "p_1 not invariant under s_1"]


@pytest.mark.parametrize("code", ["B3", "G2"])
def test_times_p_is_mul_weil_once(code, stack_of, monkeypatch):
    # gen p_S is gen.mul_weil(p_S); a product by one p_i is computed once
    # per generator and i, and the top-p check then makes no product
    from coxcov.covariants import CovariantMap
    st = _fresh_stack(stack_of, code)
    r = st.group.rank
    gens = [m(i) for m in (st.f, st.u) for i in range(1, r + 1)]
    for mask in range(1, 1 << r):
        for gen in gens:
            want = gen.mul_weil(st.p_product(mask)).comps
            assert st.times_p(gen, mask).comps == want
    calls = []
    real = CovariantMap.mul_weil
    monkeypatch.setattr(CovariantMap, "mul_weil",
                        lambda self, p: calls.append(1) or real(self, p))
    assert pr_structure_check(st).status == "pass"
    assert not calls
    # freeness over p_1 .. p_{r-1} multiplies again by two or more of them
    assert freeness_check(st).status == "pass"
    longer = [m for m in range(1 << (r - 1)) if m & (m - 1)]
    assert len(calls) == len(gens) * len(longer)
