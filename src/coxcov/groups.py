"""Catalogued finite real reflection groups.

Realizations:
  A_1           one coordinate, Gram (1)
  A_r (r<=4)    simple-root basis of the permutation realization restricted
                to the complement of (1,..,1); Gram = Cartan matrix
  B_r (r<=4)    standard coordinates, Gram = identity
  I2(m) m<=8    m=3 -> A_2 realization, m=4 Cartan basis, m=6 -> G2;
                m in {5,7,8} over Q(2cos(pi/m)) with Gram [[1,-c],[-c,1]]
  G2            hexagonal (Cartan-basis) realization over Q
  F4            standard 4-coordinate realization, Gram = identity
  H3, H4        standard geometric realization over Q(sqrt5); H4 is opt-in
  D4            rejected (repeated degrees; used only as a subgroup of F4)

Group elements are dense matrices over the catalogue field, enumerated
breadth-first from the simple reflections with a lexicographic tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .fields import QQ, QSQRT5, QCOSPI7, QCOSPI8, Field, Scalar, scalar_inverse
from .linalg import det, inverse
from .poly import Poly
from .weil import Weil, wedge_mul


class CatalogueError(ValueError):
    pass


def canonical_code(code: str) -> str:
    c = code.strip().upper().replace(" ", "").replace("_", "")
    if c == "I2(3)":
        return "A2"
    if c == "I2(6)":
        return "G2"
    return c


_GOLDEN = None


def _golden():
    global _GOLDEN
    if _GOLDEN is None:
        _GOLDEN = QSQRT5.scalar(Fraction(1, 2), Fraction(1, 2))  # (1+sqrt5)/2
    return _GOLDEN


def _catalogue_entry(code: str):
    """(rank, field, gram rows, simple roots, degrees, invariant strategy)."""
    F2 = Fraction(2)
    if code == "A1":
        return 1, QQ, [[1]], [(1,)], (2,), ("A", None)
    if code in ("A2", "A3", "A4"):
        r = int(code[1])
        gram = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                 for j in range(r)] for i in range(r)]
        simples = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
        return r, QQ, gram, simples, tuple(range(2, r + 2)), ("A", None)
    if code in ("B2", "B3", "B4"):
        r = int(code[1])
        gram = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        simples = [tuple((1 if j == i else (-1 if j == i + 1 else 0))
                         for j in range(r)) for i in range(r - 1)]
        simples.append(tuple(1 if j == r - 1 else 0 for j in range(r)))
        return r, QQ, gram, simples, tuple(2 * k for k in range(1, r + 1)), ("B", None)
    if code == "I2(4)":
        gram = [[1, -1], [-1, 2]]
        return 2, QQ, gram, [(1, 0), (0, 1)], (2, 4), ("I2", 4)
    if code == "G2":
        gram = [[2, -3], [-3, 6]]
        return 2, QQ, gram, [(1, 0), (0, 1)], (2, 6), ("I2", 6)
    if code in ("I2(5)", "I2(7)", "I2(8)"):
        m = int(code[3])
        if m == 5:
            field = QSQRT5
            c = field.scalar(Fraction(1, 4), Fraction(1, 4))  # cos(pi/5)
        elif m == 7:
            field = QCOSPI7
            c = field.scalar(0, Fraction(1, 2))
        else:
            field = QCOSPI8
            c = field.scalar(0, Fraction(1, 2))
        gram = [[field.one, -c], [-c, field.one]]
        return 2, field, gram, [(1, 0), (0, 1)], (2, m), ("I2", m)
    if code == "F4":
        gram = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        h = Fraction(1, 2)
        simples = [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (h, -h, -h, -h)]
        return 4, QQ, gram, simples, (2, 6, 8, 12), ("F4", None)
    if code in ("H3", "H4"):
        r = int(code[1])
        field = QSQRT5
        phi = _golden()
        gram = [[field.coerce(2) if i == j else field.zero
                 for j in range(r)] for i in range(r)]
        gram[0][1] = gram[1][0] = -phi
        for i in range(1, r - 1):
            gram[i][i + 1] = gram[i + 1][i] = field.coerce(-1)
        simples = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
        degrees = (2, 6, 10) if r == 3 else (2, 12, 20, 30)
        return r, field, gram, simples, degrees, ("H", None)
    if code == "D4":
        raise CatalogueError("repeated degrees unsupported")
    raise CatalogueError(f"unknown group code {code!r}")


# ---------------------------------------------------------------------------
# matrix helpers over the field
# ---------------------------------------------------------------------------

def mat_mul(a, b, field: Field):
    n = len(a)
    return tuple(tuple(reduce(lambda s, k: s + a[i][k] * b[k][j],
                              range(n), field.zero)
                       for j in range(n)) for i in range(n))


def mat_vec(a, v, field: Field):
    n = len(a)
    return tuple(reduce(lambda s, k: s + a[i][k] * v[k], range(n), field.zero)
                 for i in range(n))


def mat_transpose(a):
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def _flatten_key(mat, field: Field):
    out = []
    for row in mat:
        for v in row:
            out.extend(field.coords(v))
    return tuple(out)


def _vec_key(vec, field: Field):
    out = []
    for v in vec:
        out.extend(field.coords(v))
    return tuple(out)


class InnerProduct:
    """Symmetric positive definite Gram matrix with its exact inverse."""

    def __init__(self, rows, field: Field):
        self.field = field
        self.gram = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        n = len(rows)
        assert all(self.gram[i][j] == self.gram[j][i]
                   for i in range(n) for j in range(n)), "gram not symmetric"
        self.inverse = tuple(tuple(r) for r in inverse(self.gram, field))
        # positive definiteness via leading principal minors: exact over
        # the rationals, through the designated real embedding otherwise
        for k in range(1, n + 1):
            minor = det([row[:k] for row in self.gram[:k]], field)
            if field.is_rational:
                assert minor > 0, "gram not positive definite"
            else:
                assert field.approx(minor) > 0, "gram not positive definite"

    def pair(self, u, v) -> Scalar:
        f = self.field
        total = f.zero
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        total = total + ui * self.gram[i][j] * vj
        return total


# ---------------------------------------------------------------------------
# class functions
# ---------------------------------------------------------------------------

@dataclass
class ClassFunction:
    """Values on the conjugacy classes of a group (one scalar per class)."""
    group: "ReflectionGroup"
    values: tuple
    name: str = ""

    def at(self, elt_idx: int) -> Scalar:
        return self.values[self.group.class_of_element(elt_idx)]

    def at_identity(self) -> Scalar:
        return self.at(self.group.identity_index)


# ---------------------------------------------------------------------------
# the group itself
# ---------------------------------------------------------------------------

class ReflectionGroup:
    def __init__(self, code: str, allow_long: bool = False,
                 realization=None):
        if realization is None:
            code = canonical_code(code)
            rank, field, gram, simples, degrees, strategy = \
                _catalogue_entry(code)
            if code == "H4" and not allow_long:
                raise CatalogueError(
                    "H4 is an opt-in long run; pass allow_long=True / "
                    "--allow-long")
        else:
            rank, field, gram, simples, degrees, strategy = realization
        self.code = code
        self.rank = rank
        self.field = field
        self.inner = InnerProduct(gram, field)
        self.gram = self.inner.gram
        self.gram_inv = self.inner.inverse
        self.degrees = degrees
        self.order = 1
        for d in degrees:
            self.order *= d
        self.n_reflections = sum(d - 1 for d in degrees)
        self._strategy = strategy
        self.simple_roots = [tuple(field.coerce(c) for c in s) for s in simples]
        self._build_elements()
        self._build_roots_and_reflections()
        self._classify_reflections()
        self._psis = None
        self._delta = None
        self._conj_classes = None
        self._class_of = None
        self._act_forms: dict = {}
        self._act_vec_images: dict = {}
        self._act_pow_cache: dict = {}
        self._act_mono_cache: dict = {}

    # -- construction ---------------------------------------------------

    def reflection_matrix(self, alpha):
        f = self.field
        norm = self.inner.pair(alpha, alpha)
        ninv = scalar_inverse(norm)
        galpha = mat_vec(self.gram, alpha, f)
        cols = []
        for j in range(self.rank):
            coef = galpha[j] * 2 * ninv
            col = tuple((f.one if i == j else f.zero) - coef * alpha[i]
                        for i in range(self.rank))
            cols.append(col)
        return tuple(tuple(cols[j][i] for j in range(self.rank))
                     for i in range(self.rank))

    def _build_elements(self):
        f = self.field
        ident = tuple(tuple(f.one if i == j else f.zero
                            for j in range(self.rank)) for i in range(self.rank))
        gens = [self.reflection_matrix(a) for a in self.simple_roots]
        seen = {ident: 0}
        elements = [ident]
        layer = [ident]
        while layer:
            nxt = []
            for w in layer:
                for g in gens:
                    m = mat_mul(w, g, f)
                    if m not in seen:
                        seen[m] = -1
                        nxt.append(m)
            nxt.sort(key=lambda m: _flatten_key(m, f))
            for m in nxt:
                seen[m] = len(elements)
                elements.append(m)
            layer = nxt
        if len(elements) != self.order:
            raise CatalogueError(
                f"{self.code}: closure produced {len(elements)} elements, "
                f"expected {self.order}")
        self.elements = elements
        self.elt_index = seen
        self.identity_index = 0
        self.simple_indices = [seen[g] for g in gens]
        ginv = self.gram_inv
        gmat = self.gram
        self.inverse_idx = []
        for w in elements:
            winv = mat_mul(mat_mul(ginv, mat_transpose(w), f), gmat, f)
            self.inverse_idx.append(seen[winv])
        # exact orthogonality of every element
        for w in elements:
            wt = mat_transpose(w)
            assert mat_mul(mat_mul(wt, gmat, f), w, f) == gmat, \
                "element not orthogonal for the Gram form"

    def _build_roots_and_reflections(self):
        f = self.field
        seen = set()
        queue = list(self.simple_roots)
        gens = [self.reflection_matrix(a) for a in self.simple_roots]
        allroots = []
        for v in queue:
            if v not in seen:
                seen.add(v)
                allroots.append(v)
        i = 0
        while i < len(allroots):
            v = allroots[i]
            for g in gens:
                u = mat_vec(g, v, f)
                if u not in seen:
                    seen.add(u)
                    allroots.append(u)
            i += 1
        pos = {}
        for v in allroots:
            neg = tuple(-c for c in v)
            if neg in pos:
                continue
            if v in pos:
                continue
            kv, kn = _vec_key(v, f), _vec_key(neg, f)
            pos[v if kv > kn else neg] = True
        pos_roots = sorted(pos.keys(), key=lambda v: _vec_key(v, f))
        if len(pos_roots) != self.n_reflections:
            raise CatalogueError(
                f"{self.code}: got {len(pos_roots)} positive roots, expected "
                f"{self.n_reflections}")
        self.positive_roots = pos_roots
        self.reflections = []
        for alpha in pos_roots:
            s = self.reflection_matrix(alpha)
            idx = self.elt_index.get(s)
            assert idx is not None, "reflection escaped the group closure"
            assert mat_vec(s, alpha, f) == tuple(-c for c in alpha)
            self.reflections.append((idx, alpha))

    def _classify_reflections(self):
        refl_of_elt = {idx: k for k, (idx, _) in enumerate(self.reflections)}
        unassigned = set(range(len(self.reflections)))
        classes = []
        while unassigned:
            start = min(unassigned)
            orbit = {start}
            frontier = [start]
            while frontier:
                k = frontier.pop()
                eidx = self.reflections[k][0]
                for gi in self.simple_indices:
                    conj = self.conjugate(gi, eidx)
                    k2 = refl_of_elt[conj]
                    if k2 not in orbit:
                        orbit.add(k2)
                        frontier.append(k2)
            classes.append(sorted(orbit))
            unassigned -= orbit
        classes.sort(key=lambda cls: cls[0])
        if len(classes) > 2:
            raise CatalogueError("more than two reflection classes")
        self.reflection_classes = classes
        self.refl_class_of = {}
        for ci, cls in enumerate(classes):
            for k in cls:
                self.refl_class_of[k] = ci
        # canonical ell/p labels per catalogue type
        if len(classes) == 1:
            self.class_ell, self.class_p = 0, None
        else:
            code = self.code
            if code.startswith("B"):
                anchor = self.rank - 1      # reflection of e_r
            else:
                anchor = 0                  # reflection of the first simple root
            anchor_root = self.simple_roots[anchor]
            anchor_refl = next(k for k, (_, a) in enumerate(self.reflections)
                               if a == anchor_root or
                               a == tuple(-c for c in anchor_root))
            self.class_ell = self.refl_class_of[anchor_refl]
            self.class_p = 1 - self.class_ell

    # -- elementary queries ----------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.elt_index[mat_mul(self.elements[i], self.elements[j],
                                      self.field)]

    def inv(self, i: int) -> int:
        return self.inverse_idx[i]

    def conjugate(self, g: int, w: int) -> int:
        return self.mul(self.mul(g, w), self.inv(g))

    def det(self, i: int) -> Scalar:
        return det(self.elements[i], self.field)

    def trace(self, i: int) -> Scalar:
        w = self.elements[i]
        t = self.field.zero
        for k in range(self.rank):
            t = t + w[k][k]
        return t

    def geometric_form(self, alpha) -> Poly:
        """The linear polynomial (alpha, x) w.r.t. the Gram form."""
        galpha = mat_vec(self.gram, alpha, self.field)
        return Poly.linear_form(galpha, self.field)

    def gram_quadratic(self) -> Poly:
        xs = [Poly.variable(i, self.rank, self.field) for i in range(self.rank)]
        out = Poly.zero(self.rank, self.field)
        for i in range(self.rank):
            for j in range(self.rank):
                g = self.gram[i][j]
                if g:
                    out = out + (xs[i] * xs[j]).scale(g)
        return out

    # -- group action -----------------------------------------------------

    def _subst_forms(self, w_idx: int):
        forms = self._act_forms.get(w_idx)
        if forms is None:
            winv = self.elements[self.inverse_idx[w_idx]]
            forms = [Poly.linear_form(winv[i], self.field)
                     for i in range(self.rank)]
            self._act_forms[w_idx] = forms
        return forms

    def _act_var_power(self, w_idx: int, i: int, k: int) -> Poly:
        cache = self._act_pow_cache
        key = (w_idx, i, k)
        got = cache.get(key)
        if got is None:
            if k == 1:
                got = self._subst_forms(w_idx)[i]
            else:
                got = self._act_var_power(w_idx, i, k - 1) * \
                    self._subst_forms(w_idx)[i]
            cache[key] = got
        return got

    def act_monomial(self, w_idx: int, expo: tuple) -> Poly:
        cache = self._act_mono_cache
        key = (w_idx, expo)
        got = cache.get(key)
        if got is None:
            got = Poly.constant(1, self.rank, self.field)
            for i, k in enumerate(expo):
                if k:
                    got = got * self._act_var_power(w_idx, i, k)
            cache[key] = got
        return got

    def act_poly(self, w_idx: int, p: Poly) -> Poly:
        """Geometric action (w.p)(x) = p(w^{-1} x); monomial images are
        cached per element."""
        if w_idx == self.identity_index:
            return p
        out = Poly.zero(self.rank, self.field)
        for e, c in p.terms.items():
            out = out + self.act_monomial(w_idx, e).scale(c)
        return out

    def _vector_images(self, w_idx: int):
        imgs = self._act_vec_images.get(w_idx)
        if imgs is None:
            w = self.elements[w_idx]
            imgs = [Weil.vector([w[i][j] for i in range(self.rank)], self.field)
                    for j in range(self.rank)]
            self._act_vec_images[w_idx] = imgs
        return imgs

    def act_weil(self, w_idx: int, a: Weil) -> Weil:
        """Geometric action on a full-ambient Weil element."""
        if w_idx == self.identity_index:
            return a
        imgs = self._vector_images(w_idx)
        out = Weil.zero(self.rank, self.field, a.ambient)
        for mask, p in a.terms.items():
            wedge = Weil.one(self.rank, self.field, a.ambient)
            for i in range(self.rank):
                if mask & (1 << i):
                    img = imgs[i]
                    if img.ambient != a.ambient:
                        img = Weil(img.r, img.field, img.terms, a.ambient)
                    wedge = wedge_mul(wedge, img)
            out = out + wedge.scale_poly(self.act_poly(w_idx, p))
        return out

    def reynolds(self, p: Poly, elt_indices=None) -> Poly:
        idxs = range(self.order) if elt_indices is None else elt_indices
        total = Poly.zero(self.rank, self.field)
        count = 0
        for i in idxs:
            total = total + self.act_poly(i, p)
            count += 1
        return total.scale(Fraction(1, count))

    # -- conjugacy classes and characters ----------------------------------

    def conjugacy_classes(self):
        if self._conj_classes is None:
            class_of = [-1] * self.order
            classes = []
            for start in range(self.order):
                if class_of[start] >= 0:
                    continue
                cid = len(classes)
                members = [start]
                class_of[start] = cid
                frontier = [start]
                while frontier:
                    w = frontier.pop()
                    for g in self.simple_indices:
                        c = self.conjugate(g, w)
                        if class_of[c] < 0:
                            class_of[c] = cid
                            members.append(c)
                            frontier.append(c)
                classes.append((start, sorted(members)))
            self._conj_classes = classes
            self._class_of = class_of
        return self._conj_classes

    def class_of_element(self, idx: int) -> int:
        self.conjugacy_classes()
        return self._class_of[idx]

    def character(self, name: str) -> ClassFunction:
        classes = self.conjugacy_classes()
        if name == "trivial":
            vals = tuple(self.field.one for _ in classes)
        elif name == "sign":
            vals = tuple(self.det(rep) for rep, _ in classes)
        elif name == "reflection":
            vals = tuple(self.trace(rep) for rep, _ in classes)
        else:
            raise ValueError(f"unknown character {name!r}")
        return ClassFunction(self, vals, name)

    def character_from_action(self, matrices_at, name="") -> ClassFunction:
        """Character from a callable elt_idx -> square matrix over the field."""
        classes = self.conjugacy_classes()
        vals = []
        for rep, _ in classes:
            m = matrices_at(rep)
            t = self.field.zero
            for k in range(len(m)):
                t = t + m[k][k]
            vals.append(t)
        return ClassFunction(self, tuple(vals), name)

    # -- reflection class info ---------------------------------------------

    def reflection_class_sizes(self):
        return tuple(len(c) for c in self.reflection_classes)

    # -- basic invariants ---------------------------------------------------

    def basic_invariants(self):
        if self._psis is None:
            self._psis = self._compute_invariants()
            for psi, d in zip(self._psis, self.degrees):
                assert psi.is_homogeneous() and psi.degree() == d
                for gi in self.simple_indices:
                    assert self.act_poly(gi, psi) == psi, \
                        "candidate invariant not W-invariant"
            assert self._independence_certified(), \
                "invariants not independent"
        return self._psis

    def _independence_certified(self) -> bool:
        """Nonvanishing of the Jacobian determinant.  A nonzero value at a
        single rational point certifies it; the symbolic determinant is the
        fallback (it is the expensive path at H4 scale)."""
        psis = self._psis
        f = self.field
        for point in ((1, 2, 3, 5), (1, -1, 2, 7), (3, 1, 4, 2)):
            pt = [f.coerce(point[i]) for i in range(self.rank)]
            rows = [[psis[j].partial(i).eval_scalars(pt)
                     for j in range(self.rank)] for i in range(self.rank)]
            if det(rows, f):
                return True
        return not self.jacobian_delta().is_zero()

    def _compute_invariants(self):
        kind, mdata = self._strategy
        f = self.field
        r = self.rank
        psis = [self.gram_quadratic()]
        if kind == "A":
            if r == 1:
                return [Poly.monomial((2,), 1, f)]
            # embedding z_1 = x_1, z_j = x_j - x_{j-1}, z_{r+1} = -x_r
            zforms = []
            for j in range(r + 1):
                coeffs = [0] * r
                if j == 0:
                    coeffs[0] = 1
                elif j < r:
                    coeffs[j] = 1
                    coeffs[j - 1] = -1
                else:
                    coeffs[r - 1] = -1
                zforms.append(Poly.linear_form(coeffs, f))
            for k in range(3, r + 2):
                ps = Poly.zero(r, f)
                for z in zforms:
                    ps = ps + z ** k
                psis.append(ps.content_normalized())
            return psis
        if kind == "B":
            for k in range(2, r + 1):
                terms = {tuple(2 * k if j == i else 0 for j in range(r)): f.one
                         for i in range(r)}
                psis.append(Poly(r, f, terms))
            return psis
        if kind == "F4":
            shorts = [a for a in self.positive_roots
                      if self.inner.pair(a, a) == 1]
            assert len(shorts) == 12
            for k in (6, 8, 12):
                ps = Poly.zero(r, f)
                for a in shorts:
                    ps = ps + self.geometric_form(a) ** k
                psis.append(ps.content_normalized())
            return psis
        if kind == "H":
            for k in self.degrees[1:]:
                ps = Poly.zero(r, f)
                for a in self.positive_roots:
                    ps = ps + self.geometric_form(a) ** k
                psis.append(ps.content_normalized())
            return psis
        if kind == "I2":
            m = mdata
            # deterministic seed scan in grevlex order at degree m
            for a in range(m, -1, -1):
                seed = Poly.monomial((a, m - a), 1, f)
                cand = self.reynolds(seed)
                if cand.is_zero():
                    continue
                cand = cand.content_normalized()
                jac = _jacobian_det([psis[0], cand], f)
                if not jac.is_zero():
                    psis.append(cand)
                    return psis
            raise CatalogueError("Reynolds seeds exhausted")
        raise CatalogueError(f"no invariant strategy for {self.code}")

    def jacobian_delta(self) -> Poly:
        if self._delta is None:
            self._delta = _jacobian_det(self.basic_invariants(), self.field)
        return self._delta

    def root_form_product(self) -> Poly:
        """Product over reflections of the plain linear forms alpha^T x."""
        out = Poly.constant(1, self.rank, self.field)
        for _, alpha in self.reflections:
            out = out * Poly.linear_form(alpha, self.field)
        return out


def _jacobian_det(psis, field: Field) -> Poly:
    r = len(psis)
    mat = [[psis[j].partial(i) for j in range(r)] for i in range(r)]
    return _poly_det(mat, r, field)


def _poly_det(mat, n: int, field: Field) -> Poly:
    nv = mat[0][0].nv

    def rec(rows, cols):
        if len(cols) == 1:
            return mat[rows[0]][cols[0]]
        total = Poly.zero(nv, field)
        r0 = rows[0]
        rest = rows[1:]
        for k, c in enumerate(cols):
            sub = rec(rest, cols[:k] + cols[k + 1:])
            term = mat[r0][c] * sub
            total = total + (term if k % 2 == 0 else -term)
        return total

    return rec(tuple(range(n)), tuple(range(n)))


def build_group(code: str, allow_long: bool = False) -> ReflectionGroup:
    return ReflectionGroup(code, allow_long=allow_long)


def build_custom_group(code: str, field: Field, gram, simples,
                       degrees, strategy=("I2", None)) -> ReflectionGroup:
    """Reflection group from an explicit realization (used by the Lie
    bridge, whose Cartan coordinates fix their own Gram matrix)."""
    rank = len(simples[0])
    if strategy == ("I2", None):
        strategy = ("I2", degrees[-1])
    if rank == 1:
        strategy = ("A", None)
    realization = (rank, field, gram, simples, tuple(degrees), strategy)
    return ReflectionGroup(code, realization=realization)
