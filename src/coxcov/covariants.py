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
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .coinvariants import CoinvariantBasis
from .differentials import DunklParams, de_rham, dunkl
from .fields import scalar_inverse
from .groups import ReflectionGroup
from .linalg import SparseSolver, det
from .molien import (GradedSeries, covariant_series_product_formula,
                     graded_multiplicity_series, invariants_series)
from .poly import Poly, monomials_of_degree
from .reports import CheckRecord, certify, scalar_str, verdict
from .weil import B_QUOTIENT, Weil, wedge_mul


def _numerators(parts) -> tuple[dict, int]:
    """(numerators, den) of the coordinates of (key prefix, Poly) pairs,
    keys prefix + (exponent,), all over den, the lcm of the Polys' dens."""
    parts = list(parts)
    den = lcm(*(p.den for _, p in parts))
    out = {}
    for pre, p in parts:
        f = den // p.den
        rational = p.field.is_rational
        for e, c in p.num.items():
            if f != 1:
                c = c * f if rational else tuple(x * f for x in c)
            out[pre + (e,)] = c
    return out, den


def weil_vec(w: Weil) -> tuple[dict, int]:
    """Sparse coordinates of a Weil element, keys (mask, exponent), as
    integer numerators over one den (a ``SparseSolver`` input)."""
    return _numerators(((mask,), p) for mask, p in w.terms.items())


def map_vec(comps) -> tuple[dict, int]:
    """Sparse coordinates of a tuple of Weil components, keys (index,
    mask, exponent), as integer numerators over one den."""
    return _numerators(((j, mask), p) for j, w in enumerate(comps)
                       for mask, p in w.terms.items())


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
        certify(len(degs) <= 1, f"map {self.name} not homogeneous")
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
    """E(a, b) = sum_{jk} (G^{-1})_{jk} a_j wedge b_k, reduced in B.

    The normal form is linear, so b is contracted with G^{-1} in the lifted
    algebra, b~_j = sum_k (G^{-1})_{jk} b_k, and sum_j a_j wedge b~_j is
    reduced once."""
    if not (a.space is b.space or a.space.name == b.space.name):
        raise ValueError("E(a, b) needs two maps into the same space")
    stack = a.stack
    ginv = a.space.gram_inv
    bs = [CoinvariantBasis.lift(c) for c in b.comps]
    total = Weil.zero(stack.group.rank, stack.group.field)
    for j in range(a.space.dim):
        aj = CoinvariantBasis.lift(a.comps[j])
        if aj.is_zero():
            continue
        bj = Weil.zero(stack.group.rank, stack.group.field)
        for k, bk in enumerate(bs):
            if ginv[j][k] and not bk.is_zero():
                bj = bj + bk.scale(ginv[j][k])
        if not bj.is_zero():
            total = total + wedge_mul(aj, bj)
    return stack.cb.nf_weil(total)


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
            if len(vals) != len(group.reflection_classes):
                raise ValueError("one multiplicity per reflection class")
            self.params = DunklParams(group, vals)
        if not self.params.t_c():
            raise ValueError("degenerate multiplicity: |T|_c = 0")
        self._p: dict[int, Weil] = {}
        # components only: a CovariantMap refers back to its stack, and
        # keeping one here would make every stack a reference cycle
        self._f: dict[int, tuple] = {}
        self._u: dict[int, tuple] = {}
        self._p_products: dict[int, Weil] = {}
        self._vspace = None
        self._constants = None

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
        comps = self._f.get(i)
        if comps is None:
            g = self.group
            psi = g.basic_invariants()[i - 1]
            comps = tuple(self.cb.nf_weil(Weil.from_poly(psi.partial(j)))
                          for j in range(g.rank))
            self._f[i] = comps
        return CovariantMap(self, self.vspace, comps, f"f_{i}")

    def u(self, i: int) -> CovariantMap:
        comps = self._u.get(i)
        if comps is None:
            g = self.group
            scale = g.field.coerce(Fraction(g.rank, 2)) * \
                scalar_inverse(self.params.t_c())
            comps = tuple(dunkl(self.params, c, self.cb).scale(scale)
                          for c in self.f(i).comps)
            self._u[i] = comps
        return CovariantMap(self, self.vspace, comps, f"u_{i}")

    def constants(self):
        """``pairing_constants`` of (u_i, f_i) with half-degrees d_i - 1,
        computed once."""
        if self._constants is None:
            r = self.group.rank
            self._constants = pairing_constants(
                self, [self.u(i) for i in range(1, r + 1)],
                [self.f(i) for i in range(1, r + 1)],
                [d - 1 for d in self.group.degrees])
        return self._constants

    # -- expressing invariants in the p-product basis -------------------------

    def express_in_p_basis(self, x: Weil):
        """Coefficients over subsets writing x in the p_S spanning B^W at the
        degree of x; None when x is not in that span."""
        if x.is_zero():
            return {}
        degree = x.total_degree()
        g = self.group
        solver = SparseSolver(g.field)
        masks = []
        for mask in range(1 << g.rank):
            d = sum(2 * g.degrees[i] - 1 for i in range(g.rank)
                    if mask & (1 << i))
            if d == degree:
                masks.append(mask)
                solver.add(*weil_vec(self.p_product(mask)))
        sol = solver.solve(*weil_vec(x))
        if sol is None:
            return None
        return {masks[i]: c for i, c in sol.items() if c}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def solomon_check(stack: CovariantStack) -> CheckRecord:
    g = stack.group
    r = g.rank
    failures = []
    solver = SparseSolver(g.field)
    series = GradedSeries.zero()
    for mask in range(1 << r):
        prod = stack.p_product(mask)
        if prod.is_zero():
            failures.append(f"p-product {mask:b} vanished")
            continue
        if not solver.add(*weil_vec(prod)):
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
    return verdict("solomon", g.code, failures,
                   {"series": formula.as_list(), "dim_bw": solver.rank})


def pairing_constants(stack: CovariantStack, odd, even, half):
    """The E-pattern of a generator family (odd_i, even_i), i = 1..n, with
    half-degrees h_i: E(odd_i, even_j) = E(odd_j, even_i) is a nonzero
    multiple k_ij of the p_s with d_s = h_i + h_j, and is zero when no
    degree is that sum; E vanishes on odd x odd and on even x even.

    Returns (evals, pattern, constants, failures): E(odd_i, even_j), the
    index s (0 off the pattern) and k_ij, each keyed by the 1-based (i, j),
    and the failure witnesses.
    """
    degrees = list(stack.group.degrees)
    if len(set(degrees)) != len(degrees):
        raise ValueError("repeated degrees unsupported")
    n = len(odd)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    evals = {(i, j): form_e(odd[i - 1], even[j - 1]) for i, j in pairs}
    pattern, constants, failures = {}, {}, []
    for i, j in pairs:
        e = evals[(i, j)]
        name = f"E({odd[i - 1].name},{even[j - 1].name})"
        if evals[(j, i)] != e:
            failures.append(
                f"{name} != E({odd[j - 1].name},{even[i - 1].name})")
        target = half[i - 1] + half[j - 1]
        s = degrees.index(target) + 1 if target in degrees else 0
        pattern[(i, j)] = s
        if not s:
            if not e.is_zero():
                failures.append(f"{name} != 0 off the degree pattern")
            continue
        # express_in_p_basis never returns a zero coefficient
        sol = stack.express_in_p_basis(e)
        want = 1 << (s - 1)
        if sol is None or set(sol) != {want}:
            failures.append(f"{name} not a nonzero multiple of p_{s}")
            continue
        constants[(i, j)] = sol[want]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for family in (even, odd):
                a, b = family[i - 1], family[j - 1]
                if not form_e(a, b).is_zero():
                    failures.append(f"E({a.name},{b.name}) != 0")
    return evals, pattern, constants, failures


def free_basis_failures(stack: CovariantStack, gens, subset, molien):
    """Graded freeness of the span of ``gens`` over the exterior algebra on
    the p_i, i in ``subset`` (1-based): in each degree the products
    p_S gen are nonzero and independent, and as many as the Molien
    coefficient says.  Returns (number of nonzero products, failures)."""
    failures = []
    by_degree: dict[int, list] = {}
    for nsub in range(1 << len(subset)):
        mask = sum(1 << (idx - 1) for t, idx in enumerate(subset)
                   if nsub & (1 << t))
        pprod = stack.p_product(mask) if mask else None
        for gen in gens:
            # p_0 = 1, and a generator is already in normal form
            el = gen.mul_weil(pprod) if mask else gen
            if el.is_zero():
                failures.append(
                    f"free-basis element p_{mask:b}*{gen.name} vanished")
                continue
            by_degree.setdefault(el.total_degree(), []).append(el)
    for d, els in sorted(by_degree.items()):
        solver = SparseSolver(stack.group.field)
        if not all(solver.add(*map_vec(el.comps)) for el in els):
            failures.append(f"rank defect in degree {d}")
        if molien[d] != len(els):
            failures.append(
                f"degree {d}: {len(els)} basis elements vs Molien {molien[d]}")
    for d in range(molien.degree() + 1):
        if molien[d] and d not in by_degree:
            failures.append(f"degree {d}: Molien {molien[d]} but no elements")
    return sum(len(els) for els in by_degree.values()), failures


def top_p_failures(stack: CovariantStack, odd, even, evals, consts):
    """The multiplication formulas for the top invariant p_r on a generator
    family (odd_i, even_i), i = 1..n, given its E-values and constants from
    ``pairing_constants``: E(odd_{n-i+1}, even_i) = k p_r, the relations
    p_r x_i = -sum_{j != i} E(odd_{n-j+1}, even_i) / k_j x_j for x = even
    and x = odd, and E(p_r a, b) = (-1)^|a| E(a, p_r b)."""
    n = len(odd)
    p_r = stack.p(stack.group.rank)
    failures = []
    for i in range(1, n + 1):
        k_i = consts.get((n - i + 1, i))
        if k_i is None:
            failures.append(f"complementary constant k_{i} missing")
        elif evals[(n - i + 1, i)] != p_r.scale(k_i):
            failures.append(
                f"E({odd[n - i].name},{even[i - 1].name}) != k_{i} p_r")
    pr_even = [x.mul_weil(p_r) for x in even]
    pr_odd = [x.mul_weil(p_r) for x in odd]
    for i in range(1, n + 1):
        res_even = pr_even[i - 1]
        res_odd = pr_odd[i - 1]
        for j in range(1, n + 1):
            k_j = consts.get((j, n - j + 1))
            if j == i or k_j is None:
                continue
            coeff = evals[(n - j + 1, i)]     # E(odd_{n-j+1}, even_i)
            if coeff.is_zero():
                continue
            coeff = coeff.scale(scalar_inverse(k_j))
            res_even = res_even + even[j - 1].mul_weil(coeff)
            res_odd = res_odd + odd[j - 1].mul_weil(coeff)
        for res, gen in ((res_even, even[i - 1]), (res_odd, odd[i - 1])):
            if not res.is_zero():
                failures.append(f"p_r {gen.name} relation residual nonzero")
    for a, pr_a in zip(even[:2], pr_even):
        for b, pr_b in zip(odd[:2], pr_odd):
            sign = -1 if a.total_degree() % 2 else 1
            rhs = form_e(a, pr_b).scale(sign)
            if form_e(pr_a, b) != rhs:
                failures.append(f"p_r not self adjoint on ({a.name},{b.name})")
    return failures


def constants_table(stack: CovariantStack) -> CheckRecord:
    _, pattern, consts, failures = stack.constants()
    details = {
        "pattern": {f"{i},{j}": s for (i, j), s in sorted(pattern.items())},
        "constants": {f"{i},{j}": scalar_str(k)
                      for (i, j), k in sorted(consts.items())},
    }
    if (1, 1) in consts:
        details["k11"] = scalar_str(consts[(1, 1)])
    return verdict("constants", stack.group.code, failures, details)


def freeness_check(stack: CovariantStack) -> CheckRecord:
    g = stack.group
    r = g.rank
    failures = []
    molien = graded_multiplicity_series(g, g.character("reflection"))
    formula = covariant_series_product_formula(g)
    if molien != formula:
        failures.append("Molien series != freeness product formula")
    gens = [gen for i in range(1, r + 1) for gen in (stack.f(i), stack.u(i))]
    count, basis_failures = free_basis_failures(stack, gens, range(1, r),
                                                molien)
    return verdict("freeness", g.code, failures + basis_failures,
                   {"series": formula.as_list(), "ungraded": count})


def pr_structure_check(stack: CovariantStack) -> CheckRecord:
    r = stack.group.rank
    evals, _, consts, const_failures = stack.constants()
    failures = top_p_failures(stack, [stack.u(i) for i in range(1, r + 1)],
                              [stack.f(i) for i in range(1, r + 1)],
                              evals, consts)
    if const_failures:
        failures.insert(0, "constants table failed")
    return verdict("structure", stack.group.code, failures, {})


def j2_invariance_check(stack: CovariantStack, seed: int = 0) -> CheckRecord:
    """Perturb each psi_i by a random homogeneous element of J^2 of matching
    degree and check the p_i are unchanged."""
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
    return verdict("j2-invariance", g.code, failures,
                   {"perturbed": perturbed,
                    "note": "vacuous degrees skipped" if perturbed < g.rank
                    else ""})
