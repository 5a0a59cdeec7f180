"""The two-reflection-class theory: semidirect splitting W = W_p x| H,
the module Vbar = (A^H)_+ / ((A^H)_+)^2, its summand U carrying the
reflection representation of W_p, the invariants phi_i of K[U], the maps
g_i and v_i, and the graded-freeness suite for Hom_W(U, B).

Orientation: ``use_class`` picks which reflection class generates the
normal subgroup H.  For the dihedral groups both orientations are run;
the roles are symmetric there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import prod
from time import perf_counter

from .coinvariants import _pairing, hilbert_coinvariants
from .covariants import (CovariantMap, CovariantStack, TargetSpace,
                         free_basis_failures, pairing_constants,
                         top_p_failures)
from .differentials import dunkl, koszul_delta
from .fields import Scalar
from .groups import ReflectionGroup, mat_vec, seed_invariants
from .linalg import SparseSolver, inverse, nullspace
from .molien import (GradedSeries, class_traces, exterior_series,
                     graded_multiplicity_series)
from .poly import Poly, monomials_of_degree
from .reports import CheckRecord, certify, scalar_str, verdict
from .weil import Weil


def twisted_pairing(group: ReflectionGroup, p: Poly, q: Poly) -> Scalar:
    """W-invariant apolar pairing <p, q>_G = plain pairing of p(G^{-1}x), q."""
    forms = [Poly.linear_form(group.gram_inv[i], group.field)
             for i in range(group.rank)]
    return _pairing(p.substitute(forms), q)


@dataclass
class SplitGroupData:
    group: ReflectionGroup
    use_class: int                 # reflection class generating H
    h_elements: list
    h_set: set
    wp_elements: list
    p_simple: list                 # positions of the simple roots of class p
    r_ell: int
    r_p: int
    quotient: list                 # elt_idx -> W_p representative elt_idx

    @property
    def p_class(self) -> int:
        return 1 - self.use_class


def _subgroup_closure(group: ReflectionGroup, gen_indices):
    out = [group.identity_index]
    seen = set(out)
    for w in out:                         # grows while it is walked
        for g in gen_indices:
            m = group.mul(w, g)
            if m not in seen:
                seen.add(m)
                out.append(m)
    return sorted(out)


def split_group(group: ReflectionGroup, use_class: int | None = None) -> SplitGroupData:
    if len(group.reflection_classes) != 2:
        raise ValueError("no length classes: group has a single reflection class")
    if use_class is None:
        use_class = group.class_ell
    other = 1 - use_class
    h_gens = [group.reflections[k][0]
              for k in group.reflection_classes[use_class]]
    h_elements = _subgroup_closure(group, h_gens)
    h_set = set(h_elements)
    refl_of_elt = {eidx: k for k, (eidx, _) in enumerate(group.reflections)}
    p_simple = [j for j, si in enumerate(group.simple_indices)
                if group.refl_class_of[refl_of_elt[si]] == other]
    wp_gens = [group.simple_indices[j] for j in p_simple]
    r_p = len(wp_gens)
    r_ell = group.rank - r_p
    wp_elements = _subgroup_closure(group, wp_gens)
    if len(h_elements) * len(wp_elements) != group.order:
        raise ValueError("order identity |W| = |H| |W_p| fails")
    # normality of H
    for g in group.simple_indices:
        for h in h_gens:
            if group.conjugate(g, h) not in h_set:
                raise ValueError("H not normal")
    # coset table: w = x h with x in W_p, h in H; filling all |W| entries
    # from |W_p| |H| products also shows that W_p and H meet trivially
    quotient = [None] * group.order
    for x in wp_elements:
        for h in h_elements:
            quotient[group.mul(x, h)] = x
    if None in quotient:
        raise ValueError("W != W_p H")
    return SplitGroupData(group, use_class, h_elements, h_set, wp_elements,
                          p_simple, r_ell, r_p, quotient)


def h_invariant_degrees(split: SplitGroupData):
    """Degrees of the generators of A^H, read off the Molien series
    (1/|H|) sum_{h in H} 1/det(1 - t h) = prod_i 1/(1 - t^{d_i}).

    H is normal, so it is a union of classes of W and the summand is a
    class function; the series is expanded to degree |H|, which bounds
    every d_i since prod_i d_i = |H|.
    """
    group = split.group
    field = group.field
    top = len(split.h_elements)
    series = [field.zero] * (top + 1)
    for (rep, members), traces in zip(group.conjugacy_classes(),
                                      class_traces(group)):
        if rep not in split.h_set:
            continue
        # 1/det(1 - t h) as a power series; det(1 - t h) has constant term 1
        den = [t if k % 2 == 0 else -t for k, t in enumerate(traces)]
        inv = [field.one]
        for k in range(1, top + 1):
            inv.append(-sum((den[j] * inv[k - j]
                             for j in range(1, min(k, group.rank) + 1)),
                            field.zero))
        series = [s + c * len(members) for s, c in zip(series, inv)]
    dims = [field.coords(c / top) for c in series]
    if any(any(q[1:]) or q[0].denominator != 1 for q in dims):
        raise ValueError("Molien series of H is not integral")
    dims = [int(q[0]) for q in dims]
    # peel off prod_i 1/(1 - t^{d_i}) degree by degree
    degrees = []
    have = [1] + [0] * top
    for d in range(1, top + 1):
        while have[d] < dims[d] and len(degrees) < group.rank:
            degrees.append(d)
            for k in range(d, top + 1):
                have[k] += have[k - d]
    if len(degrees) != group.rank or prod(degrees) != top:
        raise ValueError(f"H degrees {degrees}: prod d_i != |H| = {top}")
    return tuple(degrees)


def subgroup_invariants(split: SplitGroupData):
    """Homogeneous generators of A^H in increasing degree, Reynolds
    averages over H of seed monomials (``groups.seed_invariants``).  The
    scan's last Jacobian wedge is that of all of them, so it certifies
    that they are algebraically independent."""
    group = split.group
    return seed_invariants(
        group.rank, group.field, h_invariant_degrees(split),
        lambda seed: group.reynolds(seed, split.h_elements))


@dataclass
class UbarDecomposition:
    split: SplitGroupData
    psibars: list
    vbar_basis: list        # W-stable complement representatives, by degree
    u_basis: list           # basis of the W_p-reflection summand U
    inv_basis: list         # basis of Vbar^W
    u_degree: int           # common polynomial degree of U
    _matrices: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def u_action_matrix(self, w_idx: int):
        """Matrix of w on U in the chosen basis (columns = images), memoised:
        solved once per simple reflection s_i (which certifies U W-stable),
        else that of w' times that of s_i for a right descent w = w' s_i."""
        group, mats = self.split.group, self._matrices
        fld, n = group.field, len(self.u_basis)
        if group.identity_index not in mats:
            solver = SparseSolver(fld)
            for y in self.u_basis:
                solver.add(y.num, y.den)
            for s, alpha in zip(group.simple_indices, group.simple_roots):
                imgs = [group.reflect(alpha, y) for y in self.u_basis]
                sols = [solver.solve(img.num, img.den) for img in imgs]
                certify(None not in sols, "U not W-stable")
                mats[s] = tuple(tuple(sol.get(i, fld.zero) for sol in sols)
                                for i in range(n))
            mats[group.identity_index] = tuple(  # last: marks set-up done
                tuple(fld.one if i == j else fld.zero for j in range(n))
                for i in range(n))
        if w_idx not in mats:
            i, v = group.right_descent(w_idx)
            b = tuple(zip(*mats[group.simple_indices[i]]))
            mats[w_idx] = tuple(mat_vec(b, row, fld)
                                for row in self.u_action_matrix(v))
        return mats[w_idx]


def ubar_decomposition(split: SplitGroupData, psibars) -> UbarDecomposition:
    group = split.group
    field = group.field
    vbar = []
    for d in sorted(set(p.degree() for p in psibars)):
        gens_d = [p for p in psibars if p.degree() == d]
        # (J_H^2)_d: products of >= 2 positive-degree psibar monomials
        j2 = []
        for k in range(len(psibars)):
            for l in range(k, len(psibars)):
                rest = d - psibars[k].degree() - psibars[l].degree()
                if rest < 0:
                    continue
                for m in _psibar_monomials(psibars, rest):
                    j2.append(psibars[k] * psibars[l] * m)
        # orthogonal complement of (J_H^2)_d inside (A^H)_d w.r.t. the
        # invariant pairing, expressed in the span of {gens_d} + J^2
        space = gens_d + j2
        space_solver = SparseSolver(field)
        basis = []
        for q in space:
            if space_solver.add(q.num, q.den):
                basis.append(q)
        j2_reduced = []
        seen = SparseSolver(field)
        for q in j2:
            if seen.add(q.num, q.den):
                j2_reduced.append(q)
        certify(len(basis) - len(j2_reduced) == len(gens_d),
                "Vbar dimension mismatch")
        # solve <v, z>_G = 0 for v in span(basis), z in j2_reduced
        coeff_rows = []
        for z in j2_reduced:
            coeff_rows.append([twisted_pairing(group, b, z) for b in basis])
        null = nullspace(coeff_rows, len(basis), field)
        certify(len(null) == len(gens_d),
                "complement of (J_H^2)_d has the wrong dimension")
        for vec in null:
            v = Poly.zero(group.rank, field)
            for c, b in zip(vec, basis):
                if c:
                    v = v + b.scale(c)
            vbar.append(v.content_normalized())
    # split off invariants; U = kernel of the Reynolds projection.  Every
    # v is a polynomial in the psibars, so once these are certified
    # H-invariant, W = W_p H makes the mean over W the mean over W_p
    h_roots = [group.reflections[k][1]
               for k in group.reflection_classes[split.use_class]]
    certify(all(group.divided_difference(a, p).is_zero()
                for p in psibars for a in h_roots),
            "psibar not H-invariant")
    inv_basis = []
    u_basis = []
    inv_rank = SparseSolver(group.field)
    u_rank = SparseSolver(group.field)
    for v in vbar:
        av = group.reynolds(v, split.wp_elements)
        if not av.is_zero() and inv_rank.add(av.num, av.den):
            inv_basis.append(av.content_normalized())
        ker = v - av
        if not ker.is_zero() and u_rank.add(ker.num, ker.den):
            u_basis.append(ker.content_normalized())
    certify(len(inv_basis) + len(u_basis) == len(vbar), "Vbar split defect")
    u_degs = {y.degree() for y in u_basis}
    certify(len(u_degs) == 1, "U not homogeneous")
    return UbarDecomposition(split, psibars, vbar, u_basis, inv_basis,
                             u_degs.pop())


def _psibar_monomials(psibars, degree):
    """All psibar-monomials (as polynomials) of the given total degree."""
    out = []

    def rec(i, d, acc):
        if d == 0:
            out.append(acc)
            return
        if i == len(psibars):
            return
        rec(i + 1, d, acc)
        if psibars[i].degree() <= d:
            rec(i, d - psibars[i].degree(), acc * psibars[i])

    rec(0, degree, Poly.constant(1, psibars[0].nv, psibars[0].field))
    return out


# ---------------------------------------------------------------------------
# K[U], the invariants phi_i, and the maps g_i, v_i
# ---------------------------------------------------------------------------

@dataclass
class TildeInvariants:
    dec: UbarDecomposition
    phis_y: list            # invariants in the y-variables (K[U])
    phis: list              # the same, expanded into A


def tilde_invariants(dec: UbarDecomposition) -> TildeInvariants:
    group = dec.split.group
    field = group.field
    s = len(dec.u_basis)
    # induced action matrices of W_p on the y-variables (the image group)
    action_group = list(dict.fromkeys(
        dec.u_action_matrix(x) for x in dec.split.wp_elements))
    certify(len(action_group) == len(dec.split.wp_elements),
            "U action does not factor through W_p")
    # basic invariants of the induced reflection action on K[U], averaged
    # by y_j -> sum_i mat[i][j] y_i, the induced ring map of each matrix
    images = [[Poly.linear_form([mat[i][j] for i in range(s)], field)
               for j in range(s)] for mat in action_group]
    phis_y = seed_invariants(s, field, range(2, s + 2), lambda seed: sum(
        (seed.substitute(forms) for forms in images), Poly.zero(s, field)))
    phis = [p.substitute(dec.u_basis).content_normalized() for p in phis_y]
    return TildeInvariants(dec, phis_y, phis)


def u_target_space(stack: CovariantStack, dec: UbarDecomposition) -> TargetSpace:
    group = stack.group
    s = len(dec.u_basis)
    gram = [[twisted_pairing(group, a, b) for b in dec.u_basis]
            for a in dec.u_basis]
    gram_inv = inverse(gram, group.field)
    return TargetSpace("U", s, tuple(tuple(r) for r in gram),
                       tuple(tuple(r) for r in gram_inv), dec.u_action_matrix)


def make_g(stack: CovariantStack, dec: UbarDecomposition,
           tilde: TildeInvariants, uspace: TargetSpace, i: int) -> CovariantMap:
    """g_i(u) = pi(directional derivative of phi_i along u); the value at the
    basis vector y_k expands the direction through the invariant form, i.e.
    contracts the coordinate partials with the U-Gram matrix (identity when
    the basis is orthonormal)."""
    field = stack.group.field
    partials = [tilde.phis_y[i - 1].partial(j).substitute(dec.u_basis)
                for j in range(uspace.dim)]
    comps = []
    for k in range(uspace.dim):
        total = Poly.zero(stack.group.rank, field)
        for j in range(uspace.dim):
            gkj = uspace.gram[k][j]
            if gkj and partials[j]:
                total = total + partials[j].scale(gkj)
        comps.append(stack.cb.nf_weil(Weil.from_poly(total)))
    return CovariantMap(stack, uspace, tuple(comps), f"g_{i}")


def make_v(stack: CovariantStack, dec: UbarDecomposition, g: CovariantMap,
           uspace: TargetSpace) -> CovariantMap:
    group = stack.group
    p_class = dec.split.p_class
    t_p = len(group.reflection_classes[p_class])
    scale = group.field.coerce(Fraction(uspace.dim, 2 * t_p))
    params = stack.params
    comps = tuple(dunkl(params, c, stack.cb, classes=[p_class]).scale(scale)
                  for c in g.comps)
    return CovariantMap(stack, uspace, comps, g.name.replace("g", "v"))


# ---------------------------------------------------------------------------
# the verification suite
# ---------------------------------------------------------------------------

def _wp_reflection_character(split: SplitGroupData):
    """Character of the reflection representation of W_p pulled back to W."""
    group = split.group
    field = group.field
    basis = [group.simple_roots[j] for j in split.p_simple]
    solver = SparseSolver(field)
    for v in basis:
        solver.add({i: c for i, c in enumerate(v) if c})

    def matrix_at(widx):
        wp = split.quotient[widx]
        w = group.elements[wp]
        cols = []
        for v in basis:
            img = tuple(sum((w[i][j] * v[j] for j in range(group.rank)),
                            field.zero) for i in range(group.rank))
            sol = solver.solve({i: c for i, c in enumerate(img) if c})
            certify(sol is not None, "V_p not W_p-stable")
            cols.append([sol.get(t, field.zero) for t in range(len(basis))])
        return tuple(tuple(cols[j][i] for j in range(len(basis)))
                     for i in range(len(basis)))

    return group.character_from_action(matrix_at, name="refl_Wp"), matrix_at


def little_adjoint_suite(stack: CovariantStack,
                         use_class: int | None = None,
                         label: str = "little-adjoint") -> CheckRecord:
    t0 = perf_counter()
    group = stack.group
    cb = stack.cb
    field = group.field
    r = group.rank
    failures = []
    details: dict = {}
    if len(group.reflection_classes) != 2:
        return verdict(label, group.code, ["no length classes"], {}, t0)

    split = split_group(group, use_class)
    details["orientation"] = split.use_class
    details["orders"] = {"W": group.order, "H": len(split.h_elements),
                         "W_p": len(split.wp_elements)}
    details["r_ell"] = split.r_ell
    details["r_p"] = split.r_p

    psibars = subgroup_invariants(split)
    details["h_invariant_degrees"] = [p.degree() for p in psibars]

    dec = ubar_decomposition(split, psibars)
    s = len(dec.u_basis)
    if s != split.r_p:
        failures.append(f"dim U = {s} != r_p")
    if len(dec.inv_basis) != split.r_ell:
        failures.append(f"dim Vbar^W = {len(dec.inv_basis)} != r_ell")
    d_n = group.degrees[-1]
    q_poly = d_n // 2 - (split.r_p - 1) * split.r_ell
    if dec.u_degree != q_poly:
        failures.append(
            f"U degree {dec.u_degree} != d_n/2 - (r_p-1) r_ell = {q_poly}")
    details["u_degree"] = dec.u_degree

    # U carries the reflection representation of W_p: compare characters
    uspace = u_target_space(stack, dec)
    chi_u = uspace.character(group)
    chi_wp, _ = _wp_reflection_character(split)
    if chi_u.values != chi_wp.values:
        failures.append("character of U != reflection character of W_p")

    tilde = tilde_invariants(dec)
    phi_degrees = [p.degree() for p in tilde.phis]
    details["phi_degrees"] = phi_degrees
    for i, phi in enumerate(tilde.phis, start=1):
        if phi.degree() != (i + 1) * q_poly:
            failures.append(f"phi_{i} degree {phi.degree()} != (i+1)q")
        if not cb.in_j(phi):
            failures.append(f"phi_{i} not in J")
    if phi_degrees and phi_degrees[-1] != d_n:
        failures.append(
            f"top phi degree {phi_degrees[-1]} != d_n = {d_n} (doubled 2 d_n)")

    # each y-monomial of y-degree k, expanded into A once, and the rank of
    # the normal forms of these expansions in H; both checks below read them
    y_degs = tuple(i + 1 for i in range(1, s + 1))
    htilde = hilbert_coinvariants(y_degs, s)
    top_y = max(y_degs)
    expans, rank_h = [], []
    for k in range(max(top_y, len(htilde) - 1) + 1):
        expans.append([Poly.monomial(m, 1, field).substitute(dec.u_basis)
                       for m in monomials_of_degree(s, k)])
        rk_solver = SparseSolver(field)
        rank_h.append(sum(1 for q in expans[k]
                          if (nf := cb.nf_poly(q)) and
                          rk_solver.add(nf.num, nf.den)))

    # J-tilde = (phi_1, ..., phi_{r_p}) inside K[U], degree by degree
    for k in range(1, top_y + 1):
        dim_jcap = len(expans[k]) - rank_h[k]
        # the phi-ideal in y-coordinates
        ideal_solver = SparseSolver(field)
        dim_ideal = 0
        for i, phiy in enumerate(tilde.phis_y, start=1):
            rest = k - (i + 1)
            if rest < 0:
                continue
            for m in monomials_of_degree(s, rest):
                qy = phiy * Poly.monomial(m, 1, field)
                if ideal_solver.add(qy.num, qy.den):
                    dim_ideal += 1
        if dim_ideal != dim_jcap:
            failures.append(
                f"J-tilde mismatch in y-degree {k}: ideal {dim_ideal} vs "
                f"J cap A-tilde {dim_jcap}")
        # independence of the y-monomial expansions (K[U] is polynomial)
        ind = SparseSolver(field)
        for q in expans[k]:
            if not ind.add(q.num, q.den):
                failures.append(f"K[U] not free in y-degree {k}")
                break

    # H-tilde embeds in H with the correct graded dimensions
    for k, dim_k in enumerate(htilde):
        if rank_h[k] != dim_k:
            failures.append(
                f"H-tilde -> H rank {rank_h[k]} != dim {dim_k} in y-degree {k}")

    # the maps g_i, v_i
    gs = [make_g(stack, dec, tilde, uspace, i) for i in range(1, s + 1)]
    vs = [make_v(stack, dec, g, uspace) for g in gs]
    for i, (gmap, vmap) in enumerate(zip(gs, vs), start=1):
        if gmap.total_degree() != 2 * i * q_poly:
            failures.append(f"deg g_{i} != 2 i q")
        if not gmap.is_equivariant():
            failures.append(f"g_{i} not equivariant")
        if not vmap.is_equivariant():
            failures.append(f"v_{i} not equivariant")
        dv = tuple(koszul_delta(group, c, cb) for c in vmap.comps)
        if dv != gmap.comps:
            failures.append(f"delta v_{i} != g_{i}")
        dg = tuple(koszul_delta(group, c, cb) for c in gmap.comps)
        if not all(x.is_zero() for x in dg):
            failures.append(f"delta g_{i} != 0")

    # the E-pattern, graded freeness and the top-p formulas, as for V
    evals, _, m_table, pair_failures = pairing_constants(
        stack, vs, gs, [i * q_poly for i in range(1, s + 1)])
    failures += pair_failures
    details["m_constants"] = {f"{i},{j}": scalar_str(v)
                              for (i, j), v in sorted(m_table.items())}

    # graded freeness of Hom_W(U, B): find the exterior subalgebra
    molien = graded_multiplicity_series(group, chi_u)
    if molien.total() != split.r_p * 2 ** r:
        failures.append("ungraded dim Hom_W(U,B) != r_p 2^r")
    gen_series = GradedSeries.zero()
    for i in range(1, s + 1):
        gen_series = gen_series + GradedSeries.monomial(2 * i * q_poly) \
            + GradedSeries.monomial(2 * i * q_poly - 1)
    candidates = [tuple(range(1, r))] + [
        c for c in combinations(range(1, r + 1), r - 1)
        if c != tuple(range(1, r))]
    free_subset = next(
        (c for c in candidates
         if exterior_series([group.degrees[i - 1] for i in c])
         * gen_series == molien), None)
    if free_subset is None:
        failures.append("no (r-1)-subset of the p_i gives a free-basis series")
    else:
        failures += free_basis_failures(stack, gs + vs, free_subset, molien)[1]
        details["free_subalgebra"] = [f"p_{i}" for i in free_subset]

    failures += top_p_failures(stack, vs, gs, evals, m_table)
    return verdict(label, group.code, failures, details, t0)
