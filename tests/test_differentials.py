import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import act_oracle, divide_by_linear_form

import coxcov.differentials as differentials
from coxcov.cli import DEFAULT_GROUPS
from coxcov.coinvariants import CoinvariantBasis
from coxcov.differentials import (DunklParams, class_sums, de_rham,
                                  differential_identity_suite, dunkl,
                                  dunkl_squares, koszul_delta, nabla_s,
                                  random_class_function, random_weil)
from coxcov.fields import scalar_inverse
from coxcov.groups import mat_vec
from coxcov.poly import Poly
from coxcov.reports import CertificationError
from coxcov.weil import B_QUOTIENT, FULL_WEIL, Weil, wedge_mul


def dunkl_by_reflection(params, w):
    """Oracle: D_c(w) as the sum over single reflections of c(s) nabla_s(w),
    on the full ambient."""
    group = params.group
    total = Weil.zero(group.rank, group.field, FULL_WEIL)
    for c, cls in zip(params.values, group.reflection_classes):
        if c:
            for k in cls:
                total = total + nabla_s(group, k, w).scale(c)
    return total


def delta_d_apply(params, x):
    """delta D_c applied to 1 tensor x, returned as a polynomial."""
    group = params.group
    out = koszul_delta(group, dunkl(params, Weil.from_poly(x)))
    if set(out.terms) - {0}:
        raise ValueError("delta D_c left exterior degree nonzero")
    return out.terms.get(0, Poly.zero(group.rank, group.field))


def delta_d_eigenvalue(params, chi):
    """Oracle: the closed-form eigenvalue of delta D_c on a copy of the
    module with character chi inside the polynomial coefficients,
    sum over classes C of c_C |C| (1 - chi(s_C) / chi(1))."""
    group = params.group

    def at(idx):
        return chi[group.class_of_element(idx)]

    inv1 = scalar_inverse(at(group.identity_index))
    total = group.field.zero
    for ci, cls in enumerate(group.reflection_classes):
        rep_elt = group.reflections[cls[0]][0]
        total = total + params.values[ci] * len(cls) * \
            (group.field.one - at(rep_elt) * inv1)
    return total


def delta_d_check(params, chi, x):
    """Check delta D_c(x) = gamma x with the closed-form gamma; returns
    gamma.  Raises ValueError when the image is not proportional to x
    (input does not generate a chi-isotypic line)."""
    gamma = delta_d_eigenvalue(params, chi)
    if delta_d_apply(params, x) - x.scale(gamma):
        raise ValueError("input not isotypic-generating")
    return gamma


def test_de_rham_examples(stack_of):
    g = stack_of("A1").group
    d = de_rham(g, Weil.from_poly(Poly.monomial((2,), 1)))
    assert d == Weil(1, g.field, {0b1: Poly.monomial((1,), 2)})
    assert de_rham(g, Weil.from_poly(Poly.constant(5, 1))).is_zero()
    g2 = stack_of("B2").group
    dd = de_rham(g2, de_rham(g2, Weil.from_poly(Poly.monomial((1, 1), 1))))
    assert dd.is_zero()


def test_de_rham_rejects_quotient(stack_of):
    g = stack_of("A1").group
    w = Weil.one(1, g.field, B_QUOTIENT)
    with pytest.raises(ValueError):
        de_rham(g, w)


def test_koszul_examples(stack_of):
    g = stack_of("A1").group
    assert koszul_delta(g, Weil.vector([1])) == \
        Weil.from_poly(Poly.variable(0, 1))
    assert koszul_delta(g, Weil.from_poly(Poly.monomial((2,), 3))).is_zero()
    g2 = stack_of("B2").group
    got = koszul_delta(g2, Weil(2, g2.field, {0b11: Poly.constant(1, 2)}))
    want = Weil(2, g2.field, {0b10: Poly.variable(0, 2)}) - \
        Weil(2, g2.field, {0b01: Poly.variable(1, 2)})
    assert got == want


def test_koszul_descends(stack_of):
    rng = random.Random(31)
    for code in ["A2", "B2"]:
        st = stack_of(code)
        for _ in range(20):
            w = random_weil(st.group, rng)
            lhs = st.cb.nf_weil(koszul_delta(st.group, w))
            rhs = koszul_delta(st.group, st.cb.nf_weil(w), st.cb)
            assert lhs == rhs


def test_nabla_examples(stack_of):
    g = stack_of("A1").group
    n = nabla_s(g, 0, Weil.from_poly(Poly.variable(0, 1)))
    assert n == Weil(1, g.field, {0b1: Poly.constant(2, 1)})
    assert nabla_s(g, 0, Weil.vector([1])).is_zero()
    # kills invariants
    psi = g.basic_invariants()[0]
    assert nabla_s(g, 0, Weil.from_poly(psi)).is_zero()


def test_nabla_kills_invariant_weil(stack_of):
    for code in ["B2", "G2"]:
        st = stack_of(code)
        g = st.group
        psi = g.basic_invariants()[1]
        w = Weil.from_poly(psi)
        for k in range(len(g.reflections)):
            assert nabla_s(g, k, w).is_zero()


def nabla_along(group, alpha, w):
    """nabla_s on the full ambient with the root ``alpha`` of s in place of
    the stored one, from ``divided_difference``: (alpha wedge a) tensor
    (b - s.b)/(alpha, x)."""
    alpha = tuple(group.field.coerce(c) for c in alpha)
    front = Weil.vector(alpha, group.field)
    out = Weil.zero(group.rank, group.field, FULL_WEIL)
    for mask, p in w.terms.items():
        q = group.divided_difference(alpha, p)
        if q:
            out = out + wedge_mul(front, Weil(group.rank, group.field,
                                              {mask: q}))
    return out


def test_nabla_root_scaling_invariance(stack_of):
    rng = random.Random(41)
    for code in ["B2", "G2"]:
        st = stack_of(code)
        g = st.group
        for _ in range(15):
            w = random_weil(g, rng)
            k = rng.randrange(len(g.reflections))
            alpha = g.reflections[k][1]
            scaled = tuple(c * 3 for c in alpha)
            assert nabla_s(g, k, w) == nabla_along(g, scaled, w)


def nabla_by_substitution(group, refl_idx, w, alpha):
    """Oracle: nabla_s(a tensor b) = (alpha wedge s.a) tensor
    (1 - s)b/(alpha, x) on the full ambient, acting by substitution
    through the matrix of s and dividing by long division."""
    eidx = group.reflections[refl_idx][0]
    alpha = tuple(group.field.coerce(c) for c in alpha)
    form = mat_vec(group.gram, alpha, group.field)
    alpha_vec = Weil.vector(alpha, group.field)
    out = Weil.zero(group.rank, group.field, FULL_WEIL)
    for mask, p in w.terms.items():
        q = p - act_oracle(group, eidx, p)
        if q:
            front = wedge_mul(alpha_vec, group.ext_image(eidx, mask))
            out = out + front.scale_poly(divide_by_linear_form(q, form))
    return out


def test_nabla_matches_substitution_oracle(stack_of):
    # every reflection, both ambients, the stored root and two rescalings
    rng = random.Random(53)
    for code in ["A2", "B3", "G2", "I2(5)", "H3"]:
        st = stack_of(code)
        g = st.group
        for k, (_, alpha) in enumerate(g.reflections):
            w = random_weil(g, rng)
            wb = st.cb.nf_weil(random_weil(g, rng))
            lift = CoinvariantBasis.lift(wb)
            assert nabla_s(g, k, w) == nabla_by_substitution(g, k, w, alpha)
            for t in (3, Fraction(-1, 2)):
                scaled = tuple(c * t for c in alpha)
                assert nabla_along(g, scaled, w) == \
                    nabla_by_substitution(g, k, w, scaled)
                assert nabla_s(g, k, wb, st.cb) == \
                    st.cb.nf_weil(nabla_by_substitution(g, k, lift, scaled))


def test_nabla_twisted_leibniz(stack_of):
    # graded form of the twisted rule: with the alpha-wedge on the left,
    # nabla(ab) = nabla(a) b + (-1)^{ext a} (s a) nabla(b) on elements of
    # homogeneous exterior degree
    rng = random.Random(43)
    st = stack_of("B2")
    g = st.group
    for _ in range(30):
        ext_a = rng.randrange(3)
        mask_a = (1 << ext_a) - 1
        a = Weil(2, g.field, {mask_a: Poly.monomial(
            (rng.randrange(3), rng.randrange(3)), rng.randrange(1, 4))})
        b = random_weil(g, rng, max_poly_degree=2, n_terms=2)
        k = rng.randrange(len(g.reflections))
        eidx = g.reflections[k][0]
        lhs = nabla_s(g, k, wedge_mul(a, b))
        second = wedge_mul(g.act_weil(eidx, a), nabla_s(g, k, b))
        if ext_a % 2:
            second = -second
        rhs = wedge_mul(nabla_s(g, k, a), b) + second
        assert lhs == rhs


def test_dunkl_examples(stack_of):
    st = stack_of("A1")
    params = DunklParams.constant(st.group)
    d = dunkl(params, Weil.from_poly(Poly.variable(0, 1)))
    assert d == Weil(1, st.group.field, {0b1: Poly.constant(2, 1)})
    # D_c kills p_i (invariant in B)
    for code in ["A2", "B2"]:
        s2 = stack_of(code)
        params2 = DunklParams.constant(s2.group)
        for i in range(1, s2.group.rank + 1):
            assert dunkl(params2, s2.p(i), s2.cb).is_zero()


def test_dunkl_conjugation_invariance(stack_of):
    rng = random.Random(47)
    st = stack_of("B2")
    g = st.group
    params = DunklParams.constant(g)
    for _ in range(10):
        w = random_weil(g, rng)
        widx = rng.randrange(g.order)
        lhs = g.act_weil(g.inv(widx), dunkl(params, g.act_weil(widx, w)))
        assert lhs == dunkl(params, w)


def test_class_sums_match_reflection_sums(group_of):
    # the memoised path shares one images dict across the samples of a
    # group, as the identity suite does; the direct sum is the oracle
    rng = random.Random(59)
    for code in DEFAULT_GROUPS:
        g = group_of(code)
        images = {}
        for _ in range(1 if code == "F4" else 4):
            w = random_weil(g, rng)
            sums = class_sums(g, w)
            assert len(sums) == len(g.reflection_classes)
            for cls, got in zip(g.reflection_classes, sums):
                want = Weil.zero(g.rank, g.field, FULL_WEIL)
                for k in cls:
                    want = want + nabla_s(g, k, w)
                assert got == want
            assert class_sums(g, w, images=images) == sums
            for ci in range(len(sums)):
                assert class_sums(g, w, [ci]) == [sums[ci]]
                assert class_sums(g, w, [ci], images) == [sums[ci]]


def test_dunkl_squares_match_oracle(group_of):
    """The class-pair D_c^2 equals D_c(D_c w) computed reflection by
    reflection, exactly, for every configuration: one and two classes,
    over Q and over Q(theta)."""
    rng = random.Random(61)
    for code in DEFAULT_GROUPS:
        n_samples = {"G2": 4, "I2(5)": 4, "H3": 2, "F4": 1}.get(code, 3)
        g = group_of(code)
        params_list = [DunklParams.constant(g)] + \
            [random_class_function(g, rng) for _ in range(3)]
        # a c that vanishes on one class exercises the skipped terms
        params_list.append(DunklParams(
            g, (g.field.zero,) + params_list[1].values[1:]))
        images = {}
        for _ in range(n_samples):
            w = random_weil(g, rng)
            squares = dunkl_squares(g, w, params_list)
            assert len(squares) == len(params_list)
            assert dunkl_squares(g, w, params_list, images) == squares
            for params, got in zip(params_list, squares):
                once = dunkl_by_reflection(params, w)
                assert dunkl(params, w) == once
                assert dunkl(params, w, images=images) == once
                assert got == dunkl_by_reflection(params, once)
                assert got.is_zero()


def test_dunkl_class_subset_matches_oracle(stack_of):
    # the little-adjoint map v_i applies D_c restricted to one class
    rng = random.Random(67)
    st = stack_of("B2")
    g = st.group
    params = random_class_function(g, rng)
    images = {}
    for ci in range(len(g.reflection_classes)):
        only = DunklParams(g, tuple(v if i == ci else g.field.zero
                                    for i, v in enumerate(params.values)))
        for _ in range(3):
            wb = st.cb.nf_weil(random_weil(g, rng))
            want = st.cb.nf_weil(
                dunkl_by_reflection(only, CoinvariantBasis.lift(wb)))
            assert dunkl(params, wb, st.cb, classes=[ci]) == want
            assert dunkl(params, wb, st.cb, classes=[ci],
                         images=images) == want
        # the quotient D_c, which acts on the lift, on the memoised path
        wb = st.cb.nf_weil(random_weil(g, rng))
        want = st.cb.nf_weil(
            dunkl_by_reflection(params, CoinvariantBasis.lift(wb)))
        assert dunkl(params, wb, st.cb, images=images) == want


def test_quotient_needs_basis(stack_of):
    st = stack_of("A2")
    wb = st.cb.nf_weil(Weil.vector([1, 0]))
    params = DunklParams.constant(st.group)
    for call in (lambda: koszul_delta(st.group, wb),
                 lambda: nabla_s(st.group, 0, wb),
                 lambda: dunkl(params, wb)):
        with pytest.raises(ValueError, match="coinvariant basis"):
            call()


@pytest.mark.parametrize("code", ["A2", "B3", "H3"])
def test_square_zero_suite_catches_doubled_nabla(stack_of, monkeypatch,
                                                 code):
    # D_c with nabla_0 counted twice is no longer a class function of the
    # reflections, and its square is not zero
    st = stack_of(code)
    real = differentials.nabla_s

    def doubled(group, refl_idx, w, cb=None):
        out = real(group, refl_idx, w, cb)
        if refl_idx == 0 and w.ambient == FULL_WEIL:
            out = out + out
        return out

    monkeypatch.setattr(differentials, "nabla_s", doubled)
    with pytest.raises(CertificationError, match="D_c\\^2") as exc:
        differential_identity_suite(st.group, st.cb, seed=0)
    assert f"on {code}, seed 0, sample " in str(exc.value)


def test_square_zero_suite_reports_every_failing_sample(stack_of,
                                                        monkeypatch):
    # with d the identity, d^2 = 0 fails on every nonzero sample; the
    # suite keeps going and its one error lists each failure in order
    st = stack_of("A2")
    monkeypatch.setattr(differentials, "de_rham", lambda group, w: w)
    with pytest.raises(CertificationError) as exc:
        differential_identity_suite(st.group, st.cb, seed=0, n_samples=4)
    witnesses = str(exc.value).split("; ")
    assert witnesses[0].startswith("d^2 != 0 on A2, seed 0, sample ")
    samples = [int(w.rsplit(" ", 1)[1]) for w in witnesses]
    assert len(samples) > 1 and samples == sorted(set(samples))
    assert all(w.startswith("d^2 != 0 on A2, seed 0, sample ")
               for w in witnesses)


def test_square_zero_suite_catches_unsigned_koszul_optimized(tmp_path):
    """The verdict does not rest on assert: under python -O, a Koszul
    derivation without its sign still fails the CLI run with a witness."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import inspect, sys\n"
        "import coxcov.differentials as d\n"
        "from coxcov.cli import main\n"
        "orig = inspect.getsource(d.koszul_delta)\n"
        "mutant = orig.replace('if pos % 2 == 1:', 'if False:')\n"
        "if mutant == orig:\n"
        "    sys.exit(5)\n"
        "exec(compile(mutant, d.__file__, 'exec'), d.__dict__)\n"
        f"sys.exit(main(['verify', '--group', 'B2', '--checks',"
        f" 'differentials', '--samples', '3', '--emit', 'json',"
        f" '--cache-dir', {str(tmp_path)!r}]))\n")
    got = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert got.returncode == 1, got.stderr
    rec, = json.loads(got.stdout)["results"]
    assert rec["status"] == "fail"
    witness, = rec["details"]["witness"]
    assert witness.startswith("delta^2 != 0 on B2, seed 0, sample ")


def test_square_zero_suite(stack_of):
    for code in ["A1", "A2", "B2", "G2"]:
        st = stack_of(code)
        details = differential_identity_suite(st.group, st.cb, seed=5,
                                              n_samples=12, n_cfg=3)
        assert details["samples"] == 12


def test_delta_d_eigenvalues(stack_of):
    for code in ["A1", "B2", "G2"]:
        st = stack_of(code)
        g = st.group
        params = DunklParams.constant(g)
        assert delta_d_eigenvalue(params, g.character("trivial")) == 0
        assert delta_d_eigenvalue(params, g.character("sign")) == \
            2 * g.n_reflections
        assert delta_d_eigenvalue(params, g.character("reflection")) == \
            Fraction(2 * g.n_reflections, g.rank)


def test_delta_d_check_reflection(stack_of):
    st = stack_of("B2")
    g = st.group
    params = DunklParams.constant(g)
    gamma = delta_d_check(params, g.character("reflection"),
                          Poly.variable(0, 2))
    assert gamma == Fraction(2 * g.n_reflections, g.rank)
    # sign representation: generated by the Jacobian
    gamma2 = delta_d_check(params, g.character("sign"), g.jacobian_delta())
    assert gamma2 == 2 * g.n_reflections


def test_delta_d_check_rejects_non_isotypic(stack_of):
    st = stack_of("B2")
    params = DunklParams.constant(st.group)
    # x + x^2 is not isotypic-generating
    bad = Poly.variable(0, 2) + Poly.monomial((2, 0), 1)
    with pytest.raises(ValueError, match="isotypic"):
        delta_d_check(params, st.group.character("reflection"), bad)


def test_de_rham_basis_independence(stack_of):
    """B2 in standard coordinates vs the I2(4) Cartan-basis realization:
    d commutes with the change of coordinates."""
    from coxcov.weil import wedge_mul
    b2 = stack_of("B2").group
    i24 = stack_of("I2(4)").group
    # T: V_I24 -> V_B2, b1 -> e1, b2 -> e2 - e1 (checks Gram pullback)
    cols = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1))]
    for i in range(2):
        for j in range(2):
            dot = sum(cols[i][k] * cols[j][k] for k in range(2))
            assert dot == i24.gram[i][j]
    tinv = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]

    def push_poly(p):
        # (push p)(x) = p(T^{-1} x): substitute y_i by row i of T^{-1}
        forms = [Poly.linear_form(tinv[i]) for i in range(2)]
        return p.substitute(forms)

    def push_weil(w):
        # exterior image of b_j is T(b_j) in B2 coordinates
        out = Weil.zero(2, b2.field)
        for mask, p in w.terms.items():
            img = Weil.from_poly(push_poly(p))
            for i in range(2):
                if mask & (1 << i):
                    img = wedge_mul(img, Weil.vector(cols[i]))
            out = out + img
        return out

    rng = random.Random(53)
    for _ in range(10):
        w = random_weil(i24, rng, max_poly_degree=2, n_terms=2)
        lhs = push_weil(de_rham(i24, w))
        rhs = de_rham(b2, push_weil(w))
        assert lhs == rhs
