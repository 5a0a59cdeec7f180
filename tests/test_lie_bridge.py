import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import layout_of

from coxcov.coinvariants import CoinvariantBasis
from coxcov.groups import build_group
from coxcov.linalg import SparseSolver
from coxcov.lie_bridge import (build_lie, hom_from_hwv, hwv_basis,
                               lie_covariant_series, module_model,
                               phi_injectivity_test, phi_map, reeder_record,
                               tau_closed_form,
                               tau_harmonic_injectivity, tau_map,
                               weyl_denominator_check)
from coxcov.poly import Poly
from coxcov.weil import add_terms, wedge_terms


# -- oracle: the dense-matrix construction of the models ----------------------

def _e(n, i, j):
    m = [[Fraction(0)] * n for _ in range(n)]
    m[i][j] = Fraction(1)
    return m


def _madd(a, b, c=1):
    return [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mscale(a, c):
    return [[x * c for x in row] for row in a]


def _mtrace_prod(a, b):
    n = len(a)
    return sum(a[i][k] * b[k][i] for i in range(n) for k in range(n))


def _mbracket(a, b):
    n = len(a)
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def _dense_model(code):
    """Basis matrices and (root coords, e index, f index) per positive root."""
    if code == "A1":
        t1 = _madd(_e(2, 0, 0), _e(2, 1, 1), -1)
        return [t1, _e(2, 0, 1), _e(2, 1, 0)], [((1,), 1, 2)]
    if code == "A2":
        t1 = _madd(_e(3, 0, 0), _e(3, 1, 1), -1)
        t2 = _madd(_e(3, 1, 1), _e(3, 2, 2), -1)
        return ([t1, t2, _e(3, 0, 1), _e(3, 1, 0), _e(3, 1, 2), _e(3, 2, 1),
                 _e(3, 0, 2), _e(3, 2, 0)],
                [((1, 0), 2, 3), ((0, 1), 4, 5), ((1, 1), 6, 7)])
    # sp4 with the symplectic form pairing coordinates (1,3) and (2,4)
    t1 = _mscale(_madd(_madd(_e(4, 0, 0), _e(4, 1, 1), -1),
                       _madd(_e(4, 3, 3), _e(4, 2, 2), -1), 1),
                 Fraction(1, 2))
    t2 = _madd(_e(4, 1, 1), _e(4, 3, 3), -1)
    mats = [t1, t2,
            _madd(_e(4, 0, 1), _e(4, 3, 2), -1),
            _madd(_e(4, 1, 0), _e(4, 2, 3), -1),
            _e(4, 1, 3), _e(4, 3, 1),
            _madd(_e(4, 0, 3), _e(4, 1, 2), 1),
            _madd(_e(4, 3, 0), _e(4, 2, 1), 1),
            _e(4, 0, 2), _e(4, 2, 0)]
    return mats, [((1, 0), 2, 3), ((0, 1), 4, 5), ((1, 1), 6, 7),
                  ((2, 1), 8, 9)]


def _dense_form_and_brackets(code):
    """The trace form and the dense bracket table (i, j) -> coordinate
    tuple of [x_i, x_j], after rescaling (e_beta, e_-beta) to 1."""
    mats, pos = _dense_model(code)
    for _, ei, fi in pos:
        c = _mtrace_prod(mats[ei], mats[fi])
        if c != 1:
            mats[fi] = _mscale(mats[fi], Fraction(1, c))
    dim, n = len(mats), len(mats[0])
    form = [[_mtrace_prod(a, b) for b in mats] for a in mats]

    def sparse(m):
        return {(i, j): m[i][j] for i in range(n) for j in range(n)
                if m[i][j]}

    solver = SparseSolver()
    for m in mats:
        solver.add(sparse(m))
    brackets = {}
    for i in range(dim):
        for j in range(dim):
            sol = solver.solve(sparse(_mbracket(mats[i], mats[j])))
            brackets[(i, j)] = tuple(sol.get(k, Fraction(0))
                                     for k in range(dim))
    return form, brackets


@pytest.mark.parametrize("code", ["A1", "A2", "B2"])
def test_sparse_model_matches_dense_oracle(code):
    L = build_lie(code)
    form, brackets = _dense_form_and_brackets(code)
    assert L.form == form
    assert {key: tuple(v.get(k, 0) for k in range(L.dim))
            for key, v in L.brackets.items()} == brackets
    assert all(all(v.values()) for v in L.brackets.values())


def test_planted_model_defect_raises_optimized():
    """Under python -O, a root vector that is not a weight vector still
    stops build_lie with a CertificationError."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import sys\n"
        "import coxcov.lie_bridge as lb\n"
        "from coxcov.reports import CertificationError\n"
        "lb._MODELS['A2'][2][2][(0, 2)] = 1\n"
        "try:\n"
        "    lb.build_lie('A2')\n"
        "except CertificationError as exc:\n"
        "    sys.exit(0 if 'weight basis' in str(exc) else 4)\n"
        "sys.exit(1)\n")
    got = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert got.returncode == 0, got.stderr


def _assert_same_tables(cb, oracle):
    assert layout_of(cb) == layout_of(oracle)
    for d, t in oracle.tables.items():
        assert (cb.tables[d].inv, cb.tables[d].den) == (t.inv, t.den)


def _catalogue_layout(code):
    return layout_of(CoinvariantBasis(build_group(code)))


@pytest.mark.parametrize("code", ["A1", "A2", "B2"])
def test_bridge_tables_from_catalogue_layout(code):
    """The catalogue group's layout fits the bridge realization of the same
    Weyl group (different Gram matrix); the tables it gives equal the
    fresh mod-p build, which is the oracle."""
    fresh = build_lie(code).cb
    assert not fresh.from_layout
    hinted = CoinvariantBasis(build_lie(code).weyl,
                              precomputed=_catalogue_layout(code))
    assert hinted.from_layout
    _assert_same_tables(hinted, fresh)


def _drop_degree(layout):
    return {d: t for d, t in layout.items() if d != 2}


def _drop_one_pair(layout):
    # square and invertible, but one harmonic and one monomial short
    out = dict(layout)
    idxs, monos = out[1]
    out[1] = (idxs[:-1], monos[:-1])
    return out


def _negative_index(layout):
    out = dict(layout)
    idxs, monos = out[1]
    out[1] = ([(-1,) + tuple(idxs[0][1:])] + list(idxs[1:]), monos)
    return out


@pytest.mark.parametrize("make", [
    lambda: _catalogue_layout("A2"),
    lambda: _drop_degree(_catalogue_layout("B2")),
    lambda: _drop_one_pair(_catalogue_layout("B2")),
    lambda: _negative_index(_catalogue_layout("B2")),
    lambda: {},
], ids=["foreign", "degree-dropped", "pair-dropped", "negative-index",
        "empty"])
def test_bridge_layout_that_does_not_fit_falls_back(make):
    hinted = CoinvariantBasis(build_lie("B2").weyl, precomputed=make())
    assert not hinted.from_layout
    _assert_same_tables(hinted, build_lie("B2").cb)


def test_build_dimensions():
    assert build_lie("A1").dim == 3
    assert build_lie("A2").dim == 8
    assert build_lie("B2").dim == 10
    assert build_lie("A1").n_pos == 1
    assert build_lie("A2").n_pos == 3
    assert build_lie("B2").n_pos == 4


def test_pairing_normalization():
    for code in ["A1", "A2", "B2"]:
        L = build_lie(code)
        for coords, ei, fi in L.pos_roots:
            assert L.form[ei][fi] == 1


def test_tau_t_alpha_a1():
    L = build_lie("A1")
    # tau(t_alpha) = (alpha, alpha) e ^ f with (alpha, alpha) = 2
    img = tau_map(L, L.weyl.geometric_form((1,)))
    _, ei, fi = L.pos_roots[0]
    assert img == {(1 << ei) | (1 << fi): Fraction(2)}


def test_tau_closed_form_all_roots():
    for code in ["A1", "A2", "B2"]:
        L = build_lie(code)
        for coords, _, _ in L.pos_roots:
            assert tau_map(L, L.weyl.geometric_form(coords)) == \
                tau_closed_form(L, coords)


def test_tau_one():
    L = build_lie("A2")
    assert tau_map(L, Poly.constant(1, 2)) == {0: Fraction(1)}


def test_tau_multiplicative_fuzz():
    rng = random.Random(3)
    L = build_lie("A2")
    for _ in range(15):
        p = Poly.monomial((rng.randrange(2), rng.randrange(2)),
                          rng.randrange(1, 4))
        q = Poly.monomial((rng.randrange(2), rng.randrange(2)),
                          rng.randrange(1, 4))
        assert tau_map(L, p * q) == wedge_terms(tau_map(L, p), tau_map(L, q))


def test_weyl_denominator():
    recs = {code: weyl_denominator_check(build_lie(code))
            for code in ["A1", "A2", "B2"]}
    for code, rec in recs.items():
        assert rec.status == "pass", rec.details
    # A2 permanent of [[2,-1,1],[-1,2,1],[1,1,2]] is 12, frozen by hand
    assert recs["A2"].details["permanent"] == "12"
    # equality at A1, strict beyond
    assert recs["A1"].details["bound_equality"] is True
    assert recs["A2"].details["bound_equality"] is False


def test_tau_injective_on_harmonics():
    for code in ["A1", "A2"]:
        rec = tau_harmonic_injectivity(build_lie(code))
        assert rec.status == "pass", rec.details
    # A2: dim A = 6 overall
    rec = tau_harmonic_injectivity(build_lie("A2"))
    assert sum(d for _, d, _ in
               [tuple(row) for row in rec.details["rank"]]) == 6


def test_phi_counit_and_top():
    L = build_lie("A1")
    one = phi_map(L, {0: Fraction(1)})
    assert list(one.terms.keys()) == [0]
    assert one.terms[0] == Poly.constant(1, 1)
    top = phi_map(L, {0b111: Fraction(1)})
    # nonzero multiple of x (x) xbar
    assert list(top.terms.keys()) == [0b1]
    p = top.terms[0b1]
    assert p.degree() == 1 and not p.is_zero()


def test_phi_linear_and_degree_preserving():
    rng = random.Random(7)
    L = build_lie("A2")
    for _ in range(10):
        m1 = rng.randrange(1 << L.dim)
        m2 = rng.randrange(1 << L.dim)
        a = {m1: Fraction(rng.randrange(1, 5))}
        b = {m2: Fraction(rng.randrange(1, 5))}
        lhs = phi_map(L, add_terms(a, b))
        rhs = phi_map(L, a) + phi_map(L, b)
        assert lhs == rhs
        w = phi_map(L, a)
        if not w.is_zero():
            assert w.total_degrees() == {bin(m1).count("1")}


def test_lie_series_examples():
    L1 = build_lie("A1")
    adj = module_model(L1, "adjoint")
    assert lie_covariant_series(L1, adj).as_list() == [0, 1, 1]
    # invariants of Lambda(sl2): trivial module series 1 + u^3
    triv_counts = [len(hwv_basis(L1, n, (Fraction(0),)))
                   for n in range(L1.dim + 1)]
    assert triv_counts == [1, 0, 0, 1]


def test_a2_adjoint_hom_dimension():
    L = build_lie("A2")
    adj = module_model(L, "adjoint")
    series = lie_covariant_series(L, adj)
    assert series.total() == 8
    assert series.as_list() == [0, 1, 1, 1, 2, 1, 1, 1]


def test_s3c3_model():
    L = build_lie("A2")
    mod = module_model(L, "s3c3")
    assert mod.dim == 10
    assert len(mod.zero_weight) == 1
    assert mod.zero_char == "sign"
    series = lie_covariant_series(L, mod)
    assert series.as_list() == [0, 0, 1, 1, 0, 1, 1]


def test_reeder_equalities():
    L1 = build_lie("A1")
    rec = reeder_record(L1, "adjoint")
    assert rec.status == "pass"
    assert rec.details["weyl_side"] == [0, 1, 1]
    L2 = build_lie("A2")
    for mod in ("adjoint", "s3c3"):
        rec = reeder_record(L2, mod)
        assert rec.status == "pass", rec.details


def test_hom_from_hwv_consistency():
    L = build_lie("A2")
    adj = module_model(L, "adjoint")
    hwvs = hwv_basis(L, 1, adj.hw_weight)
    assert len(hwvs) == 1
    images = hom_from_hwv(L, adj, hwvs[0])
    # degree-1 covariant: the identity map up to scale; images of the
    # zero-weight basis are Cartan one-vectors
    assert len(images) == L.rank
    for img in images:
        assert all(bin(m).count("1") == 1 for m in img)


def test_phi_injectivity_findings():
    L1 = build_lie("A1")
    rec = phi_injectivity_test(L1, "adjoint")
    assert rec.status == "finding"
    assert rec.details["injective"] is True
    assert rec.details["total_source"] == 2
    L2 = build_lie("A2")
    for mod, source in (("adjoint", 8), ("s3c3", 4)):
        rec = phi_injectivity_test(L2, mod)
        assert rec.status == "finding"
        assert rec.details["total_source"] == source
        assert rec.details["injective"] is True


def test_b2_opt_in_series():
    L = build_lie("B2")
    rec = reeder_record(L, "adjoint")
    assert rec.status == "pass", rec.details


def test_argument_contracts_raise_value_error():
    from coxcov.lie_bridge import phi_even_to_h
    L = build_lie("A1")
    with pytest.raises(ValueError, match="even part"):
        phi_even_to_h(L, {0b1: Fraction(1)})
    with pytest.raises(ValueError, match="sl3 module"):
        module_model(L, "s3c3")
