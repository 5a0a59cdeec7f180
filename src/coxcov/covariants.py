"""The covariant module machinery: the invariants p_i, the equivariant maps
f_i and u_i, the B^W-valued form E, and the verification suite around them
(Solomon basis, E-orthogonality and constants, graded freeness, top-degree
multiplication structure, J^2-independence).

Conventions (fixed here once):
  * a map V -> B is stored by its values at the realization basis vectors;
  * E contracts components with the inverse Gram matrix, reducing to the
    orthonormal-coordinate formula sum_j a_j b_j when G = 1;
  * p_i has bidegree (1, d_i - 1), f_i total degree 2 d_i - 2, u_i total
    degree 2 d_i - 3.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .coinvariants import CoinvariantBasis, monomials_of_degree
from .differentials import DunklParams, de_rham, dunkl
from .fields import scalar_inverse
from .groups import ReflectionGroup
from .linalg import SparseSolver, det
from .molien import (GradedSeries, covariant_series_product_formula,
                     graded_multiplicity_series, invariants_series)
from .poly import Poly
from .reports import FAIL, PASS, CheckRecord, scalar_str
from .weil import B_QUOTIENT, Weil, wedge_mul


def weil_vec(w: Weil) -> dict:
    """Sparse coordinate vector of a Weil element, keys (mask, exponent)."""
    out = {}
    for mask, p in w.terms.items():
        for e, c in p.terms.items():
            out[(mask, e)] = c
    return out


def map_vec(comps) -> dict:
    """Sparse coordinates of a tuple of Weil components."""
    out = {}
    for j, w in enumerate(comps):
        for mask, p in w.terms.items():
            for e, c in p.terms.items():
                out[(j, mask, e)] = c
    return out


class TargetSpace:
    """The space a covariant map lands its V-leg in: the reflection
    representation itself, or the little-adjoint module U."""

    def __init__(self, name, dim, gram, gram_inv, action):
        self.name = name
        self.dim = dim
        self.gram = gram
        self.gram_inv = gram_inv
        self.action = action      # elt_idx -> dim x dim matrix rows

    def character(self, group: ReflectionGroup):
        return group.character_from_action(self.action, name=f"chi_{self.name}")


@dataclass
class CovariantMap:
    stack: "CovariantStack"
    space: TargetSpace
    comps: tuple
    name: str = ""

    def total_degree(self) -> int:
        degs = set()
        for c in self.comps:
            degs |= c.total_degrees()
        assert len(degs) <= 1, "map not homogeneous"
        return degs.pop() if degs else -1

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __add__(self, other):
        return CovariantMap(self.stack, self.space,
                            tuple(a + b for a, b in zip(self.comps, other.comps)),
                            self.name)

    def __sub__(self, other):
        return CovariantMap(self.stack, self.space,
                            tuple(a - b for a, b in zip(self.comps, other.comps)),
                            self.name)

    def scale(self, c) -> "CovariantMap":
        return CovariantMap(self.stack, self.space,
                            tuple(w.scale(c) for w in self.comps), self.name)

    def mul_weil(self, p: Weil) -> "CovariantMap":
        """Left multiplication by an element of B (componentwise wedge)."""
        cb = self.stack.cb
        return CovariantMap(self.stack, self.space,
                            tuple(cb.nf_weil(wedge_mul(CoinvariantBasis.lift(p),
                                                       CoinvariantBasis.lift(c)))
                                  for c in self.comps), self.name)

    def is_equivariant(self) -> bool:
        stack = self.stack
        g = stack.group
        for widx in g.simple_indices:
            m = self.space.action(widx)
            for j in range(self.space.dim):
                lhs = Weil.zero(g.rank, g.field, B_QUOTIENT)
                for k in range(self.space.dim):
                    if m[k][j]:
                        lhs = lhs + self.comps[k].scale(m[k][j])
                rhs = stack.cb.act_b(widx, self.comps[j])
                if lhs != rhs:
                    return False
        return True


def form_e(a: CovariantMap, b: CovariantMap) -> Weil:
    """E(a, b) = sum_{jk} (G^{-1})_{jk} a_j wedge b_k, reduced in B."""
    assert a.space is b.space or a.space.name == b.space.name
    stack = a.stack
    cb = stack.cb
    ginv = a.space.gram_inv
    out = Weil.zero(stack.group.rank, stack.group.field, B_QUOTIENT)
    for j in range(a.space.dim):
        aj = CoinvariantBasis.lift(a.comps[j])
        if aj.is_zero():
            continue
        for k in range(b.space.dim):
            g = ginv[j][k]
            if not g:
                continue
            bk = CoinvariantBasis.lift(b.comps[k])
            if bk.is_zero():
                continue
            prod = wedge_mul(aj, bk).scale(g)
            out = out + cb.nf_weil(prod)
    return out


class CovariantStack:
    """Group, coinvariant tables, Dunkl parameters, and the derived
    generators p_i, f_i, u_i (all 1-indexed as in the grading d_1 <= ...)."""

    def __init__(self, group: ReflectionGroup, c_values=None,
                 cb: CoinvariantBasis | None = None):
        self.group = group
        self.cb = cb if cb is not None else CoinvariantBasis(group)
        if c_values is None:
            self.params = DunklParams.constant(group)
        else:
            vals = tuple(group.field.coerce(v) for v in c_values)
            assert len(vals) == len(group.reflection_classes)
            self.params = DunklParams(group, vals)
        if not self.params.t_c():
            raise ValueError("degenerate multiplicity: |T|_c = 0")
        self._p: dict[int, Weil] = {}
        self._f: dict[int, CovariantMap] = {}
        self._u: dict[int, CovariantMap] = {}
        self._p_products: dict[int, Weil] = {}
        self._vspace = None

    # -- the reflection representation as a target space -------------------

    @property
    def vspace(self) -> TargetSpace:
        if self._vspace is None:
            g = self.group
            self._vspace = TargetSpace(
                "V", g.rank, g.gram, g.gram_inv,
                lambda idx: g.elements[idx])
        return self._vspace

    # -- generators ---------------------------------------------------------

    def p(self, i: int) -> Weil:
        got = self._p.get(i)
        if got is None:
            psi = self.group.basic_invariants()[i - 1]
            got = self.cb.nf_weil(de_rham(self.group, Weil.from_poly(psi)))
            self._p[i] = got
        return got

    def p_product(self, mask: int) -> Weil:
        """Wedge of p_i over the 1-based indices i with bit (i-1) set."""
        got = self._p_products.get(mask)
        if got is None:
            g = self.group
            got = Weil.one(g.rank, g.field, B_QUOTIENT)
            for i in range(1, g.rank + 1):
                if mask & (1 << (i - 1)):
                    got = self.cb.nf_weil(
                        wedge_mul(CoinvariantBasis.lift(got),
                                  CoinvariantBasis.lift(self.p(i))))
            self._p_products[mask] = got
        return got

    def f(self, i: int) -> CovariantMap:
        got = self._f.get(i)
        if got is None:
            g = self.group
            psi = g.basic_invariants()[i - 1]
            comps = tuple(self.cb.nf_weil(Weil.from_poly(psi.partial(j)))
                          for j in range(g.rank))
            got = CovariantMap(self, self.vspace, comps, f"f_{i}")
            self._f[i] = got
        return got

    def u(self, i: int) -> CovariantMap:
        got = self._u.get(i)
        if got is None:
            g = self.group
            scale = g.field.coerce(Fraction(g.rank, 2)) * \
                scalar_inverse(self.params.t_c())
            f = self.f(i)
            comps = tuple(dunkl(self.params, c, self.cb).scale(scale)
                          for c in f.comps)
            got = CovariantMap(self, self.vspace, comps, f"u_{i}")
            self._u[i] = got
        return got

    # -- expressing invariants in the p-product basis -------------------------

    def express_in_p_basis(self, x: Weil):
        """Coefficients over subsets writing x in the p_S spanning B^W at the
        degree of x; None when x is not in that span."""
        if x.is_zero():
            return {}
        degree = x.total_degree()
        g = self.group
        solver = SparseSolver()
        masks = []
        for mask in range(1 << g.rank):
            d = sum(2 * g.degrees[i] - 1 for i in range(g.rank)
                    if mask & (1 << i))
            if d == degree:
                masks.append(mask)
                solver.add(weil_vec(self.p_product(mask)))
        sol = solver.solve(weil_vec(x))
        if sol is None:
            return None
        return {masks[i]: c for i, c in sol.items() if c}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def solomon_check(stack: CovariantStack) -> CheckRecord:
    t0 = time.time()
    g = stack.group
    r = g.rank
    details: dict = {}
    failures = []
    solver = SparseSolver()
    series = GradedSeries.zero()
    for mask in range(1 << r):
        prod = stack.p_product(mask)
        if prod.is_zero():
            failures.append(f"p-product {mask:b} vanished")
            continue
        if not solver.add(weil_vec(prod)):
            failures.append(f"p-product {mask:b} dependent")
        series = series + GradedSeries.monomial(prod.total_degree())
        for widx in g.simple_indices:
            if stack.cb.act_b(widx, prod) != prod:
                failures.append(f"p-product {mask:b} not invariant")
    if solver.rank != 2 ** r:
        failures.append(f"dim B^W basis rank {solver.rank} != 2^r")
    formula = invariants_series(g)
    if series != formula:
        failures.append("explicit basis series != product formula")
    molien = graded_multiplicity_series(g, g.character("trivial"))
    if molien != formula:
        failures.append("Molien series != product formula")
    # prod_j p_j = det(G^{-1}) (b_1^...^b_r tensor pi(Delta))
    top = stack.p_product((1 << r) - 1)
    detginv = det(g.gram_inv, g.field)
    delta_nf = stack.cb.nf_poly(g.jacobian_delta())
    expected = Weil(r, g.field, {(1 << r) - 1: delta_nf.scale(detginv)},
                    B_QUOTIENT)
    if top != expected:
        failures.append("product of all p_i != det(G^{-1}) top (x) Delta")
    details["series"] = formula.as_list()
    details["dim_bw"] = solver.rank
    if failures:
        details["witness"] = failures
    return CheckRecord("solomon", g.code, FAIL if failures else PASS,
                       details, time.time() - t0)


def constants_table(stack: CovariantStack) -> CheckRecord:
    t0 = time.time()
    g = stack.group
    r = g.rank
    degrees = g.degrees
    assert len(set(degrees)) == r, "repeated degrees unsupported"
    failures = []
    k_table = {}
    pattern = {}
    evals = {}
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            e = form_e(stack.u(i), stack.f(j))
            evals[(i, j)] = e
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            e = evals[(i, j)]
            if evals[(j, i)] != e:
                failures.append(f"E(u_{i},f_{j}) != E(u_{j},f_{i})")
            target = degrees[i - 1] + degrees[j - 1] - 2
            s = next((t + 1 for t, d in enumerate(degrees) if d == target),
                     None)
            if s is None:
                pattern[(i, j)] = 0
                if not e.is_zero():
                    failures.append(
                        f"E(u_{i},f_{j}) != 0 off the degree pattern")
                continue
            pattern[(i, j)] = s
            sol = stack.express_in_p_basis(e)
            if sol is None:
                failures.append(f"E(u_{i},f_{j}) not in the p-span")
                continue
            want = 1 << (s - 1)
            if set(sol.keys()) != {want}:
                failures.append(
                    f"E(u_{i},f_{j}) not proportional to p_{s}: {sol}")
                continue
            k = sol[want]
            if not k:
                failures.append(f"k_{i}{j} = 0 on the pattern")
            k_table[(i, j)] = k
    # orthogonality E(f,f) = E(u,u) = 0
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            if not form_e(stack.f(i), stack.f(j)).is_zero():
                failures.append(f"E(f_{i},f_{j}) != 0")
            if not form_e(stack.u(i), stack.u(j)).is_zero():
                failures.append(f"E(u_{i},u_{j}) != 0")
    details = {
        "pattern": {f"{i},{j}": s for (i, j), s in sorted(pattern.items())},
        "constants": {f"{i},{j}": scalar_str(k)
                      for (i, j), k in sorted(k_table.items())},
    }
    if (1, 1) in k_table:
        details["k11"] = scalar_str(k_table[(1, 1)])
    if failures:
        details["witness"] = failures
    rec = CheckRecord("constants", g.code, FAIL if failures else PASS,
                      details, time.time() - t0)
    rec.k_table = k_table
    rec.e_values = evals
    return rec


def freeness_check(stack: CovariantStack) -> CheckRecord:
    t0 = time.time()
    g = stack.group
    r = g.rank
    failures = []
    molien = graded_multiplicity_series(g, g.character("reflection"))
    formula = covariant_series_product_formula(g)
    if molien != formula:
        failures.append("Molien series != freeness product formula")
    by_degree: dict[int, list] = {}
    count = 0
    for mask in range(1 << (r - 1)):
        for i in range(1, r + 1):
            for gen in (stack.f(i), stack.u(i)):
                el = gen.mul_weil(stack.p_product(mask))
                if el.is_zero():
                    failures.append(
                        f"basis element p_{mask:b}*{gen.name} vanished")
                    continue
                d = el.total_degree()
                by_degree.setdefault(d, []).append(el)
                count += 1
    if count != r * 2 ** r:
        failures.append(f"ungraded count {count} != r 2^r")
    for d, els in sorted(by_degree.items()):
        solver = SparseSolver()
        for el in els:
            if not solver.add(map_vec(el.comps)):
                failures.append(f"rank defect in degree {d}")
                break
        if molien[d] != len(els):
            failures.append(
                f"degree {d}: {len(els)} basis elements vs Molien {molien[d]}")
    for d in range(molien.degree() + 1):
        if molien[d] and d not in by_degree:
            failures.append(f"degree {d}: Molien {molien[d]} but no elements")
    details = {"series": formula.as_list(), "ungraded": count}
    if failures:
        details["witness"] = failures
    return CheckRecord("freeness", g.code, FAIL if failures else PASS,
                       details, time.time() - t0)


def pr_structure_check(stack: CovariantStack,
                       constants_rec: CheckRecord | None = None) -> CheckRecord:
    t0 = time.time()
    g = stack.group
    r = g.rank
    failures = []
    if constants_rec is None or not hasattr(constants_rec, "k_table"):
        constants_rec = constants_table(stack)
        if constants_rec.status == FAIL:
            return CheckRecord("structure", g.code, FAIL,
                               {"witness": ["constants table failed"]},
                               time.time() - t0)
    k_table = constants_rec.k_table
    evals = constants_rec.e_values
    p_r = stack.p(r)
    # E(f_i, u_{r-i+1}) = k_i p_r
    for i in range(1, r + 1):
        k_i = k_table.get((r - i + 1, i))
        if k_i is None:
            failures.append(f"complementary constant k_{i} missing")
            continue
        lhs = evals[(r - i + 1, i)]
        if lhs != stack.p(r).scale(k_i):
            failures.append(f"E(f_{i},u_{r-i+1}) != k_i p_r")
    for i in range(1, r + 1):
        res_f = stack.f(i).mul_weil(p_r)
        res_u = stack.u(i).mul_weil(p_r)
        for j in range(1, r + 1):
            if j == i:
                continue
            k_j = k_table.get((j, r - j + 1))
            if k_j is None:
                continue
            coeff = evals[(r - j + 1, i)]     # E(f_i, u_{r-j+1})
            if coeff.is_zero():
                continue
            kinv = scalar_inverse(k_j)
            res_f = res_f + stack.f(j).mul_weil(coeff.scale(kinv))
            res_u = res_u + stack.u(j).mul_weil(coeff.scale(kinv))
        if not res_f.is_zero():
            failures.append(f"p_r f_{i} relation residual nonzero")
        if not res_u.is_zero():
            failures.append(f"p_r u_{i} relation residual nonzero")
    # self-adjointness of multiplication by p_r, with the graded sign
    for i in range(1, min(r, 2) + 1):
        for j in range(1, min(r, 2) + 1):
            a, b = stack.f(i), stack.u(j)
            lhs = form_e(a.mul_weil(p_r), b)
            rhs = form_e(a, b.mul_weil(p_r))
            sign = -1 if a.total_degree() % 2 else 1
            if lhs != (rhs.scale(sign)):
                failures.append(f"p_r not self adjoint on (f_{i},u_{j})")
    details = {}
    if failures:
        details["witness"] = failures
    return CheckRecord("structure", g.code, FAIL if failures else PASS,
                       details, time.time() - t0)


def j2_invariance_check(stack: CovariantStack, seed: int = 0) -> CheckRecord:
    """Perturb each psi_i by a random homogeneous element of J^2 of matching
    degree and check the p_i are unchanged."""
    t0 = time.time()
    g = stack.group
    rng = random.Random(seed)
    psis = g.basic_invariants()
    failures = []
    perturbed = 0
    for i in range(1, g.rank + 1):
        d = g.degrees[i - 1]
        z = Poly.zero(g.rank, g.field)
        for a in range(len(psis)):
            for b in range(a, len(psis)):
                rest = d - psis[a].degree() - psis[b].degree()
                if rest < 0:
                    continue
                monos = monomials_of_degree(g.rank, rest)
                m = monos[rng.randrange(len(monos))]
                c = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                if c:
                    z = z + (psis[a] * psis[b] *
                             Poly.monomial(m, c, g.field))
        if z.is_zero():
            continue
        perturbed += 1
        p_alt = stack.cb.nf_weil(
            de_rham(g, Weil.from_poly(psis[i - 1] + z)))
        if p_alt != stack.p(i):
            failures.append(f"p_{i} changed under a J^2 perturbation")
    details = {"perturbed": perturbed,
               "note": "vacuous degrees skipped" if perturbed < g.rank else ""}
    if failures:
        details["witness"] = failures
    return CheckRecord("j2-invariance", g.code, FAIL if failures else PASS,
                       details, time.time() - t0)
