"""The four operators on the Weil algebra and its coinvariant quotient:
de Rham d, Koszul delta, the reflection operator nabla_s, and the Dunkl
differential D_c = sum_s c(s) nabla_s.

The catalogue realizations are not always orthonormal, so d and delta are
implemented in Gram-dual form: d contracts derivatives with G^{-1} and
delta sends a basis vector to its geometric linear form (alpha, x).  Both
reduce to the orthonormal-basis formulas when G is the identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .coinvariants import CoinvariantBasis
from .fields import Scalar, scalar_inverse
from .groups import ClassFunction, ReflectionGroup, mat_vec
from .poly import Poly, divide_by_linear_form
from .weil import B_QUOTIENT, FULL_WEIL, Weil, merge_sign, wedge_mul


@dataclass
class DunklParams:
    """Multiplicity function c: one value per reflection class."""
    group: ReflectionGroup
    values: tuple

    @staticmethod
    def constant(group: ReflectionGroup, value=1) -> "DunklParams":
        vals = tuple(group.field.coerce(value)
                     for _ in group.reflection_classes)
        return DunklParams(group, vals)

    def c(self, refl_idx: int) -> Scalar:
        return self.values[self.group.refl_class_of[refl_idx]]

    def t_c(self) -> Scalar:
        total = self.group.field.zero
        for ci, cls in enumerate(self.group.reflection_classes):
            total = total + self.values[ci] * len(cls)
        return total


def de_rham(group: ReflectionGroup, w: Weil) -> Weil:
    """d(q tensor k) = sum_i (b_i wedge q) tensor (derivative of k along the
    Gram-dual vector b^i); degree -1.  Defined on the full Weil algebra only."""
    if w.ambient != FULL_WEIL:
        raise ValueError("de Rham d does not descend to the quotient")
    r = group.rank
    ginv = group.gram_inv
    out = Weil.zero(r, group.field, FULL_WEIL)
    acc: dict = {}
    for mask, p in w.terms.items():
        partials = [p.partial(j) for j in range(r)]
        for i in range(r):
            if mask & (1 << i):
                continue
            dp = Poly.zero(r, group.field)
            for j in range(r):
                g = ginv[i][j]
                if g and partials[j]:
                    dp = dp + partials[j].scale(g)
            if dp.is_zero():
                continue
            sign = merge_sign(1 << i, mask)
            newmask = mask | (1 << i)
            add = dp if sign > 0 else -dp
            cur = acc.get(newmask)
            acc[newmask] = add if cur is None else cur + add
    out.terms.update({m: p for m, p in acc.items() if p})
    return out


def koszul_delta(group: ReflectionGroup, w: Weil,
                 cb: CoinvariantBasis | None = None) -> Weil:
    """Odd derivation with delta(b_i tensor 1) = 1 tensor (b_i, x); degree +1.
    Well defined on both ambients (the quotient handed back in normal form)."""
    r = group.rank
    forms = [Poly.linear_form(group.gram[i], group.field) for i in range(r)]
    acc: dict = {}
    for mask, p in w.terms.items():
        pos = 0
        for i in range(r):
            if not mask & (1 << i):
                continue
            q = forms[i] * p
            if pos % 2 == 1:
                q = -q
            newmask = mask & ~(1 << i)
            cur = acc.get(newmask)
            acc[newmask] = q if cur is None else cur + q
            pos += 1
    out = Weil(r, group.field, {m: p for m, p in acc.items() if p}, w.ambient)
    if w.ambient == B_QUOTIENT:
        assert cb is not None, "need a coinvariant basis to reduce"
        out = cb.nf_weil(CoinvariantBasis.lift(out))
    return out


def nabla_s(group: ReflectionGroup, refl_idx: int, w: Weil,
            cb: CoinvariantBasis | None = None, alpha=None) -> Weil:
    """nabla_s(a tensor b) = (alpha wedge s(a)) tensor (1-s)(b)/(alpha, x).

    Independent of the scaling of alpha; ``alpha`` overrides the stored
    root (same hyperplane required) so that invariance can be exercised.
    """
    if w.ambient == B_QUOTIENT:
        assert cb is not None
        return cb.nf_weil(nabla_s(group, refl_idx, CoinvariantBasis.lift(w),
                                  alpha=alpha))
    eidx, stored_alpha = group.reflections[refl_idx]
    if alpha is None:
        alpha = stored_alpha
        galpha = group.reflection_forms[refl_idx]
    else:
        alpha = tuple(group.field.coerce(c) for c in alpha)
        galpha = mat_vec(group.gram, alpha, group.field)
    alpha_vec = Weil.vector(alpha, group.field)
    out = Weil.zero(group.rank, group.field, FULL_WEIL)
    for mask, p in w.terms.items():
        q = p - group.act_poly(eidx, p)
        if q.is_zero():
            continue
        q = divide_by_linear_form(q, galpha)
        front = wedge_mul(alpha_vec, group.ext_image(eidx, mask))
        if front.is_zero():
            continue
        out = out + front.scale_poly(q)
    return out


def dunkl(params: DunklParams, w: Weil,
          cb: CoinvariantBasis | None = None,
          refl_subset=None) -> Weil:
    """D_c = sum over reflections of c(s) nabla_s; acts on both ambients."""
    group = params.group
    was_quotient = w.ambient == B_QUOTIENT
    if was_quotient:
        assert cb is not None
        w = CoinvariantBasis.lift(w)
    total = Weil.zero(group.rank, group.field, FULL_WEIL)
    indices = range(len(group.reflections)) if refl_subset is None \
        else refl_subset
    for k in indices:
        c = params.c(k)
        if not c:
            continue
        total = total + nabla_s(group, k, w).scale(c)
    if was_quotient:
        return cb.nf_weil(total)
    return total


def delta_d_eigenvalue(params: DunklParams, chi: ClassFunction) -> Scalar:
    """Closed-form eigenvalue of delta D_c on a copy of the module with
    character chi inside the polynomial coefficients."""
    group = params.group
    chi1 = chi.at_identity()
    inv1 = scalar_inverse(chi1)
    total = group.field.zero
    for ci, cls in enumerate(group.reflection_classes):
        rep_elt = group.reflections[cls[0]][0]
        term = params.values[ci] * len(cls) * \
            (group.field.one - chi.at(rep_elt) * inv1)
        total = total + term
    return total


def delta_d_apply(params: DunklParams, x: Poly,
                  cb: CoinvariantBasis | None = None) -> Poly:
    """delta D_c applied to 1 tensor x, returned as a polynomial."""
    group = params.group
    w = Weil.from_poly(x)
    out = koszul_delta(group, dunkl(params, w))
    poly = out.terms.get(0, Poly.zero(group.rank, group.field))
    for mask in out.terms:
        assert mask == 0, "delta D_c left exterior degree nonzero"
    if cb is not None:
        poly = cb.nf_poly(poly)
    return poly


def delta_d_check(params: DunklParams, chi: ClassFunction, x: Poly,
                  cb: CoinvariantBasis | None = None):
    """Assert delta D_c(x) = gamma x with the closed-form gamma; returns gamma.

    Raises ValueError when the image is not proportional to x (input does
    not generate a chi-isotypic line).
    """
    gamma = delta_d_eigenvalue(params, chi)
    img = delta_d_apply(params, x, cb=cb)
    target = x if cb is None else cb.nf_poly(x)
    if img - target.scale(gamma):
        raise ValueError("input not isotypic-generating")
    return gamma


# ---------------------------------------------------------------------------
# seeded random elements and the square-zero identity suite
# ---------------------------------------------------------------------------

def random_weil(group: ReflectionGroup, rng: random.Random,
                max_poly_degree: int = 3, n_terms: int = 3,
                ambient: str = FULL_WEIL) -> Weil:
    r = group.rank
    field = group.field
    out = Weil.zero(r, field, ambient)
    for _ in range(n_terms):
        mask = rng.randrange(1 << r)
        # total polynomial degree bounded by max_poly_degree
        expo = [0] * r
        for _ in range(rng.randrange(max_poly_degree + 1)):
            expo[rng.randrange(r)] += 1
        expo = tuple(expo)
        coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        if not coeff:
            continue
        if field.is_rational:
            c = Fraction(coeff)
        else:
            coords = [Fraction(0)] * field.degree
            coords[0] = coeff
            coords[1] = Fraction(rng.randrange(-2, 3))
            c = field.scalar(*coords)
        term = Weil(r, field, {mask: Poly.monomial(expo, c, field)}, ambient)
        out = out + term
    return out


def random_class_function(group: ReflectionGroup,
                          rng: random.Random) -> DunklParams:
    vals = []
    for _ in group.reflection_classes:
        v = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        vals.append(group.field.coerce(v))
    return DunklParams(group, tuple(vals))


def differential_identity_suite(group: ReflectionGroup, cb: CoinvariantBasis,
                                seed: int, n_samples: int = 50,
                                n_cfg: int = 5):
    """d^2 = 0, delta^2 = 0 and D_c^2 = 0 (c = 1 and random class functions)
    on seeded random Weil elements; returns a details dict, raising on any
    nonzero square."""
    rng = random.Random(seed)
    params_list = [DunklParams.constant(group)]
    for _ in range(n_cfg):
        params_list.append(random_class_function(group, rng))
    checked = 0
    for _ in range(n_samples):
        w = random_weil(group, rng)
        dd = de_rham(group, de_rham(group, w))
        assert dd.is_zero(), "d^2 != 0"
        ss = koszul_delta(group, koszul_delta(group, w))
        assert ss.is_zero(), "delta^2 != 0"
        wb = cb.nf_weil(w)
        ssb = koszul_delta(group, koszul_delta(group, wb, cb), cb)
        assert ssb.is_zero(), "delta^2 != 0 on the quotient"
        for params in params_list:
            dw = dunkl(params, w)
            assert dunkl(params, dw).is_zero(), "D_c^2 != 0"
        # D_c^2 = 0 on the quotient, first configuration only (cost)
        dwb = dunkl(params_list[0], wb, cb)
        assert dunkl(params_list[0], dwb, cb).is_zero(), \
            "D_c^2 != 0 on the quotient"
        checked += 1
    return {"samples": checked, "c_configurations": len(params_list)}
