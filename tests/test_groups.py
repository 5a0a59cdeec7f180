import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (act_oracle, assert_canonical, divide_by_linear_form,
                      jacobian_minor_oracle, mat_mul, mat_transpose,
                      matrix_reflections, scalar_divided_difference,
                      seed_scan_oracle)

from coxcov.cli import DEFAULT_GROUPS
from coxcov.differentials import random_weil
from coxcov.fields import QQ, QSQRT5
from coxcov.groups import (CatalogueError, InnerProduct, build_custom_group,
                           build_group, canonical_code, jacobian_minors,
                           mat_vec)
from coxcov.poly import Poly

CATALOGUE = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "I2(4)", "I2(5)",
             "G2", "I2(7)", "I2(8)", "F4", "H3"]

DEGREE_TABLE = {
    "A1": (2,), "A2": (2, 3), "A3": (2, 3, 4), "A4": (2, 3, 4, 5),
    "B2": (2, 4), "B3": (2, 4, 6), "B4": (2, 4, 6, 8),
    "I2(4)": (2, 4), "I2(5)": (2, 5), "G2": (2, 6), "I2(7)": (2, 7),
    "I2(8)": (2, 8), "F4": (2, 6, 8, 12), "H3": (2, 6, 10),
}


@pytest.mark.parametrize("code", CATALOGUE)
def test_orders_and_reflections(code, group_of):
    g = group_of(code)
    order = 1
    for d in DEGREE_TABLE[code]:
        order *= d
    assert g.degrees == DEGREE_TABLE[code]
    assert g.order == order == len(g.elements)
    assert g.n_reflections == sum(d - 1 for d in g.degrees)
    assert len(g.positive_roots) == g.n_reflections


def test_a2_closure_oracle(group_of):
    g = group_of("A2")
    assert g.order == 6 and g.n_reflections == 3
    assert g.degrees == (2, 3)


def test_h3_f4_degrees(group_of):
    assert group_of("H3").degrees == (2, 6, 10)
    assert group_of("F4").degrees == (2, 6, 8, 12)


@pytest.mark.parametrize("code,sizes", [
    ("A2", (3,)), ("B2", (2, 2)), ("B3", (3, 6)), ("B4", (4, 12)),
    ("G2", (3, 3)), ("I2(8)", (4, 4)), ("F4", (12, 12)), ("H3", (15,)),
])
def test_reflection_class_sizes(code, sizes, group_of):
    g = group_of(code)
    got = tuple(sorted(len(c) for c in g.reflection_classes))
    assert got == tuple(sorted(sizes))


def test_reflection_classes_conjugation_oracle(group_of):
    # brute-force conjugation orbits over the full group
    for code in ["A2", "B2", "F4"]:
        g = group_of(code)
        refl_elts = {idx for idx, _ in g.reflections}
        refl_of = {idx: k for k, (idx, _) in enumerate(g.reflections)}
        seen = set()
        orbits = []
        for idx, _ in g.reflections:
            if idx in seen:
                continue
            orbit = set()
            for w in range(g.order):
                c = g.mul(g.mul(w, idx), g.inv(w))
                assert c in refl_elts
                orbit.add(c)
            seen |= orbit
            orbits.append(orbit)
        assert sorted(len(o) for o in orbits) == \
            sorted(len(c) for c in g.reflection_classes)


@pytest.mark.parametrize("code", CATALOGUE)
def test_elements_orthogonal(code, group_of):
    g = group_of(code)
    for w in g.elements[:25]:
        wt = mat_transpose(w)
        assert mat_mul(mat_mul(wt, g.gram, g.field), w, g.field) == g.gram


@pytest.mark.parametrize("code", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                  "G2", "I2(5)", "I2(8)", "H3", "F4"])
def test_reflections_by_conjugation_match_matrix_oracle(code, group_of):
    g = group_of(code)
    assert (g.reflections, g.reflection_classes, g.class_ell, g.class_p) \
        == matrix_reflections(g)


def test_reflections_negate_roots(group_of):
    for code in ["B3", "G2", "H3"]:
        g = group_of(code)
        for eidx, alpha in g.reflections:
            img = mat_vec(g.elements[eidx], alpha, g.field)
            assert img == tuple(-c for c in alpha)


def test_action_examples(group_of):
    g1 = group_of("A1")
    s = g1.simple_indices[0]
    x = Poly.variable(0, 1)
    assert g1.act_poly(s, x) == -x
    assert g1.act_poly(g1.identity_index, x * x) == x * x
    # B2: reflection in x - y swaps the coordinates
    g2 = group_of("B2")
    srefl = next(k for k, (idx, a) in enumerate(g2.reflections)
                 if a in ((Fraction(1), Fraction(-1)),
                          (Fraction(-1), Fraction(1))))
    eidx = g2.reflections[srefl][0]
    p = Poly.monomial((2, 1), 1)
    assert g2.act_poly(eidx, p) == Poly.monomial((1, 2), 1)


def test_action_is_group_action_fuzz(group_of):
    rng = random.Random(23)
    for code in DEFAULT_GROUPS:
        g = group_of(code)
        for _ in range(50):
            v = rng.randrange(g.order)
            w = rng.randrange(g.order)
            e = tuple(rng.randrange(3) for _ in range(g.rank))
            p = Poly.monomial(e, Fraction(rng.randrange(1, 5)), g.field)
            assert g.act_poly(g.mul(v, w), p) == \
                g.act_poly(v, g.act_poly(w, p))
            assert g.act_poly(w, p) == act_oracle(g, w, p)
        # every element against the substitution oracle; on F4 a fixed
        # sample with the longest element, whose reduced word is longest
        if g.order <= 400:
            elts = range(g.order)
        else:
            elts = random.Random(7).sample(range(g.order), 60) + \
                [max(range(g.order), key=g.length.__getitem__)]
        p = Poly.monomial((2,) + (1,) * (g.rank - 1), 3, g.field) + \
            Poly.monomial((0,) * (g.rank - 1) + (3,), -1, g.field)
        for w in elts:
            assert g.act_poly(w, p) == act_oracle(g, w, p)


@pytest.mark.parametrize("code", CATALOGUE)
def test_reflect_on_every_root(code, group_of):
    # s.p = p - (alpha, x) d_s p, and s.p by substitution through the
    # reflection's matrix, on every positive root, as stored and rescaled
    g = group_of(code)
    rng = random.Random(g.order + 1)
    inputs = [p for _ in range(2) for p in random_weil(
        g, rng, max_poly_degree=4, n_terms=3).terms.values()]
    for eidx, alpha in g.reflections:
        form = g.geometric_form(alpha)
        scaled = tuple(a * Fraction(-3, 2) for a in alpha)
        for p in inputs:
            got = g.reflect(alpha, p)
            assert_canonical(got)
            assert got == p - form * g.divided_difference(alpha, p)
            assert got == act_oracle(g, eidx, p) == g.reflect(scaled, p)


@pytest.mark.parametrize("code", CATALOGUE)
def test_lengths_are_coxeter_lengths(code, group_of):
    # right multiplication by a simple reflection changes the length by
    # one, and the one longest element has length |T|
    g = group_of(code)
    assert g.length[g.identity_index] == 0
    for w in range(g.order):
        for s in g.simple_indices:
            assert abs(g.length[g.mul(w, s)] - g.length[w]) == 1
    assert max(g.length) == g.n_reflections
    assert g.length.count(g.n_reflections) == 1


def test_positive_roots_are_not_the_simple_system(group_of):
    # the coordinate key keeps (1 - theta^2, -theta) of I2(8), a negative
    # combination of the simple roots (1, 0) and (0, 1)
    g = group_of("I2(8)")
    theta = g.field.scalar(0, 1)
    assert (1 - theta * theta, -theta) in g.positive_roots
    assert g.field.sign(1 - theta * theta) < 0 and g.field.sign(-theta) < 0


def test_basic_invariants_properties(group_of):
    for code in ["A1", "A2", "B2", "G2", "B3", "I2(5)", "H3"]:
        g = group_of(code)
        psis = g.basic_invariants()
        assert [p.degree() for p in psis] == list(g.degrees)
        assert psis[0] == g.gram_quadratic()
        for psi in psis:
            for widx in g.simple_indices:
                assert g.act_poly(widx, psi) == psi


def test_basic_invariant_examples(group_of):
    assert group_of("A1").basic_invariants()[0] == Poly.monomial((2,), 1)
    b2 = group_of("B2").basic_invariants()
    assert b2[0] == Poly.monomial((2, 0), 1) + Poly.monomial((0, 2), 1)
    assert b2[1] == Poly.monomial((4, 0), 1) + Poly.monomial((0, 4), 1)


def test_jacobian_delta(group_of):
    g = group_of("A1")
    assert g.jacobian_delta() == Poly.monomial((1,), 2)
    for code in ["B2", "A3", "G2", "H3"]:
        g = group_of(code)
        delta = g.jacobian_delta()
        assert delta.degree() == g.n_reflections
        for widx in g.simple_indices:
            det = g.det(widx)
            assert g.act_poly(widx, delta) == delta.scale(det)


@pytest.mark.parametrize("code", CATALOGUE)
def test_jacobian_minors_match_laplace_oracle(group_of, code):
    # every minor of the Jacobian of every prefix of the psi's, so Delta
    # and each full-rank answer, against the Laplace expansion
    g = group_of(code)
    psis, r, zero = g.basic_invariants(), g.rank, Poly.zero(g.rank, g.field)
    assert g.jacobian_delta() == jacobian_minor_oracle(psis, range(r),
                                                       g.field)
    for k in range(1, r + 1):
        minors = jacobian_minors(psis[:k], r)
        assert minors       # the psi's are algebraically independent
        for rows in combinations(range(r), k):
            want = jacobian_minor_oracle(psis[:k], rows, g.field)
            assert minors.get(sum(1 << i for i in rows), zero) == want
    # a dependent pair has no nonzero minor
    assert not jacobian_minors([psis[0], psis[0] * psis[0]], r)


def test_reynolds_examples(group_of):
    g1 = group_of("A1")
    assert g1.reynolds(Poly.variable(0, 1)).is_zero()
    x2 = Poly.monomial((2,), 1)
    assert g1.reynolds(x2) == x2
    g2 = group_of("B2")
    got = g2.reynolds(Poly.monomial((4, 0), 1))
    want = (Poly.monomial((4, 0), Fraction(1, 2)) +
            Poly.monomial((0, 4), Fraction(1, 2)))
    assert got == want


def test_reynolds_orbit_sum_oracle(group_of):
    g = group_of("B2")
    p = Poly.monomial((3, 1), 1)
    total = Poly.zero(2, g.field)
    for w in range(g.order):
        total = total + act_oracle(g, w, p)
    assert g.reynolds(p) == total.scale(Fraction(1, g.order))


def test_d4_rejected():
    with pytest.raises(CatalogueError, match="repeated degrees"):
        build_group("D4")


def test_h4_needs_allow_long():
    with pytest.raises(CatalogueError, match="opt-in"):
        build_group("H4")


def test_canonical_aliases():
    assert canonical_code("i2(6)") == "G2"
    assert canonical_code("I2(3)") == "A2"
    assert canonical_code("b3") == "B3"


def test_conjugacy_class_sizes(group_of):
    for code in ["A2", "B2", "G2"]:
        g = group_of(code)
        classes = g.conjugacy_classes()
        assert sum(len(members) for _, members in classes) == g.order


def test_characters(group_of):
    g = group_of("B2")
    triv = g.character("trivial")
    sgn = g.character("sign")
    refl = g.character("reflection")
    assert all(v == g.field.one for v in triv.values)
    assert refl.at(g.identity_index) == g.rank
    # sign is multiplicative on reflections
    for idx, _ in g.reflections:
        assert sgn.at(idx) == -g.field.one


# ---------------------------------------------------------------------------
# oracle: the matrix-keyed group layer that the root permutations replace
# ---------------------------------------------------------------------------

def _flat_key(values, field):
    out = []
    for v in values:
        out.extend(field.coords(v))
    return tuple(out)


class _MatrixOracle:
    """Elements as dense matrices: breadth-first closure over matrix
    products with each layer sorted by the flattened matrix, products and
    conjugates looked up by matrix, the Gram-formula inverse
    G^{-1} w^T G, and the reflection classes by an orbit search under
    conjugation by the simple reflections."""

    def __init__(self, g):
        f = g.field
        self.field = f
        gens = [g.reflection_matrix(a) for a in g.simple_roots]
        ident = tuple(tuple(f.one if i == j else f.zero
                            for j in range(g.rank)) for i in range(g.rank))
        seen = {ident: 0}
        elements = [ident]
        layer = [ident]
        while layer:
            nxt = []
            for w in layer:
                for s in gens:
                    m = mat_mul(w, s, f)
                    if m not in seen:
                        seen[m] = -1
                        nxt.append(m)
            nxt.sort(key=lambda m: _flat_key([v for row in m for v in row], f))
            for m in nxt:
                seen[m] = len(elements)
                elements.append(m)
            layer = nxt
        self.elements = elements
        self.index = seen
        self.simple_indices = [seen[s] for s in gens]
        self.inverse_idx = [
            seen[mat_mul(mat_mul(g.gram_inv, mat_transpose(w), f), g.gram, f)]
            for w in elements]
        roots = list(dict.fromkeys(g.simple_roots))
        found = set(roots)
        for v in roots:
            for s in gens:
                u = mat_vec(s, v, f)
                if u not in found:
                    found.add(u)
                    roots.append(u)
        pos = set()
        for v in roots:
            neg = tuple(-c for c in v)
            pos.add(v if _flat_key(v, f) > _flat_key(neg, f) else neg)
        self.positive_roots = sorted(pos, key=lambda v: _flat_key(v, f))
        self.reflections = [(seen[g.reflection_matrix(a)], a)
                            for a in self.positive_roots]
        # reflection classes: orbits of the reflections under conjugation
        refl_of_elt = {idx: k for k, (idx, _) in enumerate(self.reflections)}
        unassigned = set(range(len(self.reflections)))
        classes = []
        while unassigned:
            start = min(unassigned)
            orbit = {start}
            frontier = [start]
            while frontier:
                eidx = self.reflections[frontier.pop()][0]
                for s in self.simple_indices:
                    k2 = refl_of_elt[self.conjugate(s, eidx)]
                    if k2 not in orbit:
                        orbit.add(k2)
                        frontier.append(k2)
            classes.append(sorted(orbit))
            unassigned -= orbit
        self.reflection_classes = sorted(classes, key=lambda c: c[0])
        if len(classes) == 1:
            self.class_ell, self.class_p = 0, None
        else:
            anchor = g.simple_roots[g.rank - 1 if g.code.startswith("B")
                                    else 0]
            k = next(k for k, (_, a) in enumerate(self.reflections)
                     if a in (anchor, tuple(-c for c in anchor)))
            self.class_ell = next(ci for ci, cls in
                                  enumerate(self.reflection_classes)
                                  if k in cls)
            self.class_p = 1 - self.class_ell

    def mul(self, i, j):
        return self.index[mat_mul(self.elements[i], self.elements[j],
                                  self.field)]

    def conjugate(self, s, w):
        return self.mul(self.mul(s, w), self.inverse_idx[s])

    def conjugacy_classes(self):
        order = len(self.elements)
        class_of = [-1] * order
        classes = []
        for start in range(order):
            if class_of[start] >= 0:
                continue
            members = [start]
            class_of[start] = len(classes)
            frontier = [start]
            while frontier:
                w = frontier.pop()
                for s in self.simple_indices:
                    c = self.conjugate(s, w)
                    if class_of[c] < 0:
                        class_of[c] = len(classes)
                        members.append(c)
                        frontier.append(c)
            classes.append((start, sorted(members)))
        return classes


@pytest.mark.parametrize("code", CATALOGUE)
def test_root_permutations_match_matrix_oracle(code, group_of):
    g = group_of(code)
    o = _MatrixOracle(g)
    assert g.elements == o.elements
    assert g.inverse_idx == o.inverse_idx
    assert g.simple_indices == o.simple_indices
    assert g.positive_roots == o.positive_roots
    assert g.reflections == o.reflections
    assert g.reflection_classes == o.reflection_classes
    assert (g.class_ell, g.class_p) == (o.class_ell, o.class_p)
    assert g.conjugacy_classes() == o.conjugacy_classes()
    if g.order <= 48:
        pairs = [(i, j) for i in range(g.order) for j in range(g.order)]
    else:
        rng = random.Random(11)
        pairs = [(rng.randrange(g.order), rng.randrange(g.order))
                 for _ in range(2000)]
    for i, j in pairs:
        assert g.mul(i, j) == o.mul(i, j)


def test_root_permutations_act_on_roots(group_of):
    for code in ["B3", "G2", "I2(5)", "H3"]:
        g = group_of(code)
        for w, perm in zip(g.elements, g.root_perms):
            assert [mat_vec(w, a, g.field) for a in g.roots] == \
                [g.roots[k] for k in perm]


@pytest.mark.parametrize("code", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                  "G2", "I2(5)", "I2(8)", "H3", "F4"])
def test_divided_difference_matches_long_division(code, group_of):
    # oracle: p - s.p by substitution through the matrix of s, then long
    # division by (alpha, x); inputs are random polynomials and the partial
    # derivatives of the basic invariants, which CovariantStack.u feeds to
    # nabla_s
    g = group_of(code)
    rng = random.Random(len(code) + g.order)
    inputs = [p for _ in range(4) for p in random_weil(
        g, rng, max_poly_degree=6, n_terms=4).terms.values()]
    inputs += [psi.partial(i) for psi in g.basic_invariants()
               for i in range(g.rank)]
    for eidx, alpha in g.reflections:
        form = mat_vec(g.gram, alpha, g.field)
        for p in inputs:
            want = divide_by_linear_form(p - act_oracle(g, eidx, p), form)
            assert g.divided_difference(alpha, p) == want


@pytest.mark.parametrize("code", ["A3", "B3", "H3", "I2(5)", "I2(7)", "I2(8)"])
def test_divided_difference_matches_scalar_oracle(code, group_of):
    # the integer Taylor/Horner kernel against the same sums on scalars,
    # on every reflection, with the root as stored and rescaled
    g = group_of(code)
    rng = random.Random(g.order)
    inputs = [p for _ in range(3) for p in random_weil(
        g, rng, max_poly_degree=5, n_terms=4).terms.values()]
    inputs.append(g.basic_invariants()[-1].partial(0))
    for _, alpha in g.reflections:
        scaled = tuple(a * Fraction(-3, 2) for a in alpha)
        for root in (alpha, scaled):
            for p in inputs:
                got = g.divided_difference(root, p)
                assert_canonical(got)
                assert got.terms == scalar_divided_difference(g, root, p)


# ---------------------------------------------------------------------------
# build certificates
# ---------------------------------------------------------------------------

def test_infinite_realization_raises():
    # the reflections of this realization generate an infinite group
    with pytest.raises(CatalogueError, match="root orbit passed"):
        build_custom_group("X", QQ, [[3, -1], [-1, 3]], [(1, 0), (0, 1)],
                           (2, 3))


def test_closure_bounded_by_order():
    # the A3 realization with degrees of the same sum but product 20 < 24
    gram = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    simples = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(CatalogueError, match="closure passed 20 elements"):
        build_custom_group("X", QQ, gram, simples, (2, 2, 5))


def test_gram_certificates():
    with pytest.raises(CatalogueError, match="not positive definite"):
        InnerProduct([[1, 2], [2, 1]], QQ)
    with pytest.raises(CatalogueError, match="not symmetric"):
        InnerProduct([[2, 1], [0, 2]], QQ)


def test_gram_certificate_exact_over_extension():
    # F_78 sqrt5 - L_78 = -2 psi^78 < 0 (psi = (1 - sqrt5)/2), although it
    # rounds to a positive float: the certificate reads the exact sign
    fib, luc = [0, 1], [2, 1]
    for _ in range(78):
        fib.append(fib[-1] + fib[-2])
        luc.append(luc[-1] + luc[-2])
    tiny = QSQRT5.scalar(-luc[78], fib[78])
    with pytest.raises(CatalogueError, match="not positive definite"):
        InnerProduct([[tiny]], QSQRT5)
    assert InnerProduct([[-tiny]], QSQRT5).inverse == ((1 / -tiny,),)
    # [[1, -c], [-c, 1]] is positive definite exactly when c^2 < 1
    for c, ok in ((QSQRT5.scalar(Fraction(1, 4), Fraction(1, 4)), True),
                  (QSQRT5.scalar(Fraction(-1, 2), Fraction(1, 2)), True),
                  (QSQRT5.scalar(Fraction(1, 2), Fraction(1, 2)), False)):
        gram = [[1, -c], [-c, 1]]
        if ok:
            InnerProduct(gram, QSQRT5)
        else:
            with pytest.raises(CatalogueError, match="not positive definite"):
                InnerProduct(gram, QSQRT5)


def test_gram_certificate_survives_optimize():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("from coxcov.fields import QQ\n"
            "from coxcov.groups import CatalogueError, InnerProduct\n"
            "try:\n"
            "    InnerProduct([[1, 2], [2, 1]], QQ)\n"
            "except CatalogueError:\n"
            "    raise SystemExit(3)\n")
    got = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert got.returncode == 3


def test_planted_invariant_fails_certificate_optimized():
    """Under python -O, a homogeneous candidate invariant that is not
    W-invariant stops basic_invariants with a CertificationError."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "from coxcov.groups import ReflectionGroup, build_group\n"
        "from coxcov.poly import Poly\n"
        "from coxcov.reports import CertificationError\n"
        "real = ReflectionGroup._compute_invariants\n"
        "def planted(self):\n"
        "    ps = real(self)\n"
        "    return [ps[0], ps[1] + Poly.monomial((3, 1, 0), 1)] + ps[2:]\n"
        "ReflectionGroup._compute_invariants = planted\n"
        "try:\n"
        "    build_group('B3').basic_invariants()\n"
        "except CertificationError as err:\n"
        "    ok = str(err) == 'candidate invariant not W-invariant'\n"
        "    raise SystemExit(3 if ok else 4)\n")
    got = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert got.returncode == 3


@pytest.mark.parametrize("code", ["B2", "I2(5)"])
def test_planted_non_orthogonal_closure_raises_optimized(code):
    """Under python -O, generators conjugated by a root permutation that is
    no isometry (it swaps the first two positive roots and their
    negatives) close up to a group of the right order whose elements are
    not orthogonal: the certificate on integer numerators stops the build
    with a CatalogueError, over Q and over Q(theta)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    child = (
        "import sys\n"
        "from coxcov.groups import CatalogueError, ReflectionGroup\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit(5)\n"
        "real = ReflectionGroup._build_elements\n"
        "def planted(self, gen_perms):\n"
        "    n = len(self.positive_roots)\n"
        "    sigma = list(range(2 * n))\n"
        "    sigma[0], sigma[1], sigma[n], sigma[n + 1] = 1, 0, n + 1, n\n"
        "    real(self, [tuple(sigma[g[sigma[k]]] for k in range(2 * n))\n"
        "                for g in gen_perms])\n"
        "ReflectionGroup._build_elements = planted\n"
        "try:\n"
        f"    ReflectionGroup({code!r})\n"
        "except CatalogueError as err:\n"
        "    print(err)\n"
        "    raise SystemExit(3)\n")
    got = subprocess.run([sys.executable, "-O", "-c", child], env=env,
                         capture_output=True, text=True)
    assert got.returncode == 3, got.stderr
    assert got.stdout == f"{code}: element not orthogonal for the Gram form\n"


def test_reynolds_over_non_subgroup_raises_optimized():
    """Under python -O, the mean over e and the rotation by pi/2 of B2 (a
    set with no reflection), and over e and the two simple reflections (a
    set that is not closed), stop with a CertificationError instead of
    averaging over the elements given."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    child = (
        "import sys\n"
        "from coxcov.groups import build_group\n"
        "from coxcov.poly import Poly\n"
        "from coxcov.reports import CertificationError\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit(5)\n"
        "g = build_group('B2')\n"
        "s1, s2 = g.simple_indices\n"
        "rot = g.mul(s1, s2)\n"
        "if g.elements[rot] not in (((0, -1), (1, 0)), ((0, 1), (-1, 0))):\n"
        "    raise SystemExit(6)\n"
        "for elts in ([g.identity_index, rot], [g.identity_index, s1, s2]):\n"
        "    try:\n"
        "        g.reynolds(Poly.monomial((3, 1), 1), elts)\n"
        "    except CertificationError as err:\n"
        "        print(err)\n"
        "    else:\n"
        "        raise SystemExit(4)\n"
        "raise SystemExit(3)\n")
    got = subprocess.run([sys.executable, "-O", "-c", child], env=env,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 3, got.stderr
    assert got.stdout == 2 * "B2: Reynolds set is not a reflection subgroup\n"


@pytest.mark.parametrize("code", ["I2(4)", "I2(5)", "I2(7)", "I2(8)", "G2",
                                  "bridge-A2", "bridge-B2"])
def test_dihedral_invariants_match_seed_scan_oracle(code, group_of):
    # the second basic invariant of a dihedral group, the first seed of
    # its degree whose Reynolds average is independent of the quadric
    if code.startswith("bridge-"):
        from coxcov.lie_bridge import build_lie
        g = build_lie(code[len("bridge-"):]).weyl
    else:
        g = group_of(code)
    quadric = g.gram_quadratic()
    want = seed_scan_oracle(2, g.field, g.degrees[1:], g.reynolds, [quadric])
    assert g.basic_invariants() == [quadric] + want


def test_planted_zero_average_raises_optimized():
    """Under python -O, a scan whose every seed averages to zero stops
    with a CertificationError: on its own, for a dihedral group's
    invariants and for the invariants of a reflection subgroup."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    child = (
        "import sys\n"
        "from coxcov import groups\n"
        "from coxcov.fields import QQ\n"
        "from coxcov.little_adjoint import split_group, subgroup_invariants\n"
        "from coxcov.poly import Poly\n"
        "from coxcov.reports import CertificationError\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit(5)\n"
        "def zero(self, p, elt_indices=None):\n"
        "    return Poly.zero(p.nv, p.field)\n"
        "groups.ReflectionGroup.reynolds = zero\n"
        "runs = (lambda: groups.seed_invariants(\n"
        "            2, QQ, (2,), lambda p: Poly.zero(2, QQ)),\n"
        "        lambda: groups.build_group('I2(5)').basic_invariants(),\n"
        "        lambda: subgroup_invariants(split_group(\n"
        "            groups.build_group('B2'))))\n"
        "for run in runs:\n"
        "    try:\n"
        "        run()\n"
        "    except CertificationError as err:\n"
        "        print(err)\n"
        "    else:\n"
        "        raise SystemExit(4)\n"
        "raise SystemExit(3)\n")
    got = subprocess.run([sys.executable, "-O", "-c", child], env=env,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 3, got.stderr
    assert got.stdout.splitlines() == [
        "seeds exhausted in degree 2: 1 independent averaged invariant(s) "
        "missing",
        "seeds exhausted in degree 5: 1 independent averaged invariant(s) "
        "missing",
        "seeds exhausted in degree 2: 2 independent averaged invariant(s) "
        "missing"]


@pytest.mark.parametrize("code", DEFAULT_GROUPS)
def test_right_descent_is_a_recorded_step(code, group_of):
    # every w != e was first reached as v s_i one layer down, and act_poly
    # follows that step; e has none
    g = group_of(code)
    assert g.right_descent(g.identity_index) is None
    for w in range(g.order):
        if w != g.identity_index:
            i, v = g.right_descent(w)
            assert g.mul(v, g.simple_indices[i]) == w
            assert g.length[v] == g.length[w] - 1


def test_reynolds_walks_each_set_once(monkeypatch):
    # a second mean over one set, and a mean over the H that split_group
    # walked, multiply no group elements
    from coxcov.groups import ReflectionGroup
    from coxcov.little_adjoint import split_group
    g = build_group("B3")
    calls = []
    mul = ReflectionGroup.mul
    monkeypatch.setattr(ReflectionGroup, "mul",
                        lambda self, i, j: calls.append(1) or mul(self, i, j))
    p = Poly.monomial((4, 2, 0), 1)
    first = g.reynolds(p)
    assert len(calls) == g.order * g.n_reflections
    assert g.reynolds(p) == first and len(calls) == g.order * g.n_reflections
    split = split_group(g)
    calls.clear()
    g.reynolds(p, split.h_elements)
    assert not calls
