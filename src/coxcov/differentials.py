"""The four operators on the Weil algebra and its coinvariant quotient:
de Rham d, Koszul delta, the reflection operator nabla_s, and the Dunkl
differential D_c = sum_s c(s) nabla_s.

The catalogue realizations are not always orthonormal, so d and delta are
implemented in Gram-dual form: d contracts derivatives with G^{-1} and
delta sends a basis vector to its geometric linear form (alpha, x).  Both
reduce to the orthonormal-basis formulas when G is the identity.  nabla_s
needs only the root of s: its polynomial part is the Taylor divided
difference ``ReflectionGroup.divided_difference``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .coinvariants import CoinvariantBasis
from .fields import Scalar, scalar_inverse
from .groups import ClassFunction, ReflectionGroup
from .poly import Poly
from .reports import CertificationError
from .weil import B_QUOTIENT, FULL_WEIL, Weil, merge_sign


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
        if cb is None:
            raise ValueError("need a coinvariant basis to reduce")
        out = cb.nf_weil(CoinvariantBasis.lift(out))
    return out


def nabla_s(group: ReflectionGroup, refl_idx: int, w: Weil,
            cb: CoinvariantBasis | None = None, alpha=None) -> Weil:
    """nabla_s(a tensor b) = (alpha wedge a) tensor d_s(b), where
    d_s(b) = (b - s.b)/(alpha, x) is ``ReflectionGroup.divided_difference``.

    This is Dunkl's (alpha wedge s.a) tensor (1 - s)b/(alpha, x): every
    vector v has s.v - v in Q alpha, so s.a - a is a sum of terms that each
    contain alpha and alpha wedge s.a = alpha wedge a.  Only the root is
    used, and the result does not depend on its scaling; ``alpha``
    replaces the stored root (same hyperplane required) so that invariance
    can be exercised.
    """
    if w.ambient == B_QUOTIENT:
        if cb is None:
            raise ValueError("need a coinvariant basis to reduce")
        return cb.nf_weil(nabla_s(group, refl_idx, CoinvariantBasis.lift(w),
                                  alpha=alpha))
    if alpha is None:
        alpha = group.reflections[refl_idx][1]
    else:
        alpha = tuple(group.field.coerce(c) for c in alpha)
    acc: dict = {}
    for mask, p in w.terms.items():
        q = group.divided_difference(alpha, p)
        if q.is_zero():
            continue
        for i, a in enumerate(alpha):
            if a and not mask & (1 << i):
                add = q.scale(a if merge_sign(1 << i, mask) > 0 else -a)
                newmask = mask | (1 << i)
                cur = acc.get(newmask)
                acc[newmask] = add if cur is None else cur + add
    return Weil(group.rank, group.field, {m: p for m, p in acc.items() if p})


def class_sums(group: ReflectionGroup, w: Weil, classes=None,
               images=None) -> list:
    """N_C(w) = sum over s in C of nabla_s(w) for each reflection class C
    (all classes, or the class indices ``classes``), on the full ambient.

    ``images`` is an optional dict owned by the caller.  When it is given,
    N_C is applied by linearity: each image N_C(b_mask tensor x^e) is
    computed once, by the direct sum, and kept there as its terms
    {mask: Poly} under (C, mask, e) for later calls.
    """
    if classes is None:
        classes = range(len(group.reflection_classes))
    r, field = group.rank, group.field
    zero = Weil.zero(r, field, FULL_WEIL)

    def direct(ci, x):
        return sum((nabla_s(group, k, x)
                    for k in group.reflection_classes[ci]), zero)

    if images is None:
        return [direct(ci, w) for ci in classes]
    # the input's coefficients as numerators over one denominator
    den = lcm(*(p.den for p in w.terms.values()))
    out = []
    for ci in classes:
        acc: dict = {}
        for mask, p in w.terms.items():
            k = den // p.den
            for e, c in p.num.items():
                img = images.get((ci, mask, e))
                if img is None:
                    basis = Weil(r, field,
                                 {mask: Poly(r, field, {e: 1})})
                    img = images[(ci, mask, e)] = direct(ci, basis).terms
                if k != 1:
                    c = c * k if field.is_rational else \
                        tuple(x * k for x in c)
                for m, q in img.items():
                    acc.setdefault(m, []).append((c, q))
        out.append(Weil(r, field, {
            m: q for m, items in acc.items()
            if (q := Poly.combination(r, field, items, den))}))
    return out


def dunkl(params: DunklParams, w: Weil,
          cb: CoinvariantBasis | None = None, classes=None,
          images=None) -> Weil:
    """D_c = sum over classes C of c_C N_C, over all reflection classes or
    the class indices ``classes``; acts on both ambients.  ``images`` is
    passed on to ``class_sums``."""
    group = params.group
    was_quotient = w.ambient == B_QUOTIENT
    if was_quotient:
        if cb is None:
            raise ValueError("need a coinvariant basis to reduce")
        w = CoinvariantBasis.lift(w)
    if classes is None:
        classes = range(len(group.reflection_classes))
    classes = [ci for ci in classes if params.values[ci]]
    total = sum((n.scale(params.values[ci]) for ci, n in
                 zip(classes, class_sums(group, w, classes, images))),
                Weil.zero(group.rank, group.field, FULL_WEIL))
    return cb.nf_weil(total) if was_quotient else total


def dunkl_squares(group: ReflectionGroup, w: Weil, params_list,
                  images=None) -> list:
    """D_c(D_c w) for every c in ``params_list`` (full ambient), from the
    class sums: D_c^2 = sum over class pairs of c_C c_C' N_C N_C', so the
    nabla images are computed once for all configurations.  ``images`` is
    passed on to ``class_sums``."""
    pairs = [(a, b, n) for a, f in enumerate(class_sums(group, w,
                                                        images=images))
             for b, n in enumerate(class_sums(group, f, images=images))]
    zero = Weil.zero(group.rank, group.field, FULL_WEIL)
    return [sum((n.scale(c.values[a] * c.values[b]) for a, b, n in pairs
                 if c.values[a] * c.values[b]), zero) for c in params_list]


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
    on seeded random Weil elements; returns a details dict.  Every sample
    is checked; if any square is nonzero, one CertificationError lists
    each failing identity with its witness, first failure first."""
    rng = random.Random(seed)
    params_list = [DunklParams.constant(group)]
    for _ in range(n_cfg):
        params_list.append(random_class_function(group, rng))
    images: dict = {}       # class-sum images of basis elements, this call
    failures = []

    def record(square: Weil, identity: str, sample: int, cfg=None):
        if not square.is_zero():
            where = "" if cfg is None else f", c configuration {cfg}"
            failures.append(f"{identity} != 0 on {group.code}, seed {seed}, "
                            f"sample {sample}{where}")

    for i in range(n_samples):
        w = random_weil(group, rng)
        record(de_rham(group, de_rham(group, w)), "d^2", i)
        record(koszul_delta(group, koszul_delta(group, w)), "delta^2", i)
        wb = cb.nf_weil(w)
        record(koszul_delta(group, koszul_delta(group, wb, cb), cb),
                "delta^2 on the quotient", i)
        for cfg, sq in enumerate(dunkl_squares(group, w, params_list,
                                               images)):
            record(sq, "D_c^2", i, cfg)
        # D_c^2 = 0 on the quotient, first configuration only (cost)
        dwb = dunkl(params_list[0], wb, cb, images=images)
        record(dunkl(params_list[0], dwb, cb, images=images),
                "D_c^2 on the quotient", i, 0)
    if failures:
        raise CertificationError("; ".join(failures))
    return {"samples": n_samples, "c_configurations": len(params_list)}
