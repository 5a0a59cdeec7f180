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

A group element is identified by the permutation it induces on the 2|T|
roots (W acts faithfully on them), enumerated breadth-first from the simple
reflections with each layer sorted by the element's matrix over the
catalogue field.  That matrix, the action on V, is built once and kept in
``elements``; products, inverses, conjugates and classes are permutation
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import QQ, QSQRT5, QCOSPI7, QCOSPI8, Field, Scalar, scalar_inverse
from .linalg import det, inverse
from .poly import Poly
from .reports import certify
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
    return tuple(tuple(sum((x * b[k][j] for k, x in enumerate(row) if x),
                           field.zero)
                       for j in range(n)) for row in a)


def mat_vec(a, v, field: Field):
    return tuple(sum((row[k] * x for k, x in enumerate(v) if x), field.zero)
                 for row in a)


def mat_transpose(a):
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def _coords_key(scalars, field: Field) -> tuple:
    """Lexicographic sort key of a sequence of scalars (a vector, or the
    rows of a matrix flattened): their power-basis coordinates in turn."""
    return tuple(q for v in scalars for q in field.coords(v))


def _compose(p: tuple, q: tuple) -> tuple:
    """The permutation p o q (first q, then p)."""
    return tuple(map(p.__getitem__, q))


class InnerProduct:
    """Symmetric positive definite Gram matrix with its exact inverse."""

    def __init__(self, rows, field: Field):
        self.field = field
        self.gram = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        n = len(rows)
        if any(self.gram[i][j] != self.gram[j][i]
               for i in range(n) for j in range(n)):
            raise CatalogueError("gram not symmetric")
        # positive definiteness via leading principal minors: exact over
        # the rationals, through the designated real embedding otherwise
        for k in range(1, n + 1):
            minor = det([row[:k] for row in self.gram[:k]], field)
            if not (minor > 0 if field.is_rational
                    else field.approx(minor) > 0):
                raise CatalogueError("gram not positive definite")
        self.inverse = tuple(tuple(r) for r in inverse(self.gram, field))

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
        self._psis = None
        self._delta = None
        self._conj_classes = None
        self._class_of = None
        self._act_forms: dict = {}
        self._act_pow_cache: dict = {}
        self._act_mono_cache: dict = {}
        self._ext_images: dict = {}
        self._taylor_data: dict = {}
        gens = [self.reflection_matrix(a) for a in self.simple_roots]
        self._build_roots(gens)
        self._build_elements([self._root_perm(g) for g in gens])
        self._build_reflections()

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

    def _build_roots(self, gens):
        """The orbit of the simple roots under the simple reflections
        ``gens``: ``positive_roots`` (of each pair +-a the one with the
        larger coordinate key, sorted by that key), then ``roots`` (the
        positive roots, then their negatives in the same order)."""
        f = self.field
        orbit = list(dict.fromkeys(self.simple_roots))
        seen = set(orbit)
        for v in orbit:                   # grows while it is walked
            for g in gens:
                u = mat_vec(g, v, f)
                if u not in seen:
                    if len(orbit) == 2 * self.n_reflections:
                        raise CatalogueError(
                            f"{self.code}: root orbit passed "
                            f"{2 * self.n_reflections} roots")
                    seen.add(u)
                    orbit.append(u)
        negs = {v: tuple(-c for c in v) for v in orbit}
        pos = sorted((v for v in orbit if _coords_key(v, f) >
                      _coords_key(negs[v], f)),
                     key=lambda v: _coords_key(v, f))
        self.roots = pos + [negs[v] for v in pos]
        if len(pos) != self.n_reflections or set(self.roots) != seen:
            raise CatalogueError(
                f"{self.code}: got {len(pos)} positive roots, expected "
                f"{self.n_reflections}")
        self.positive_roots = pos
        self._root_index = {v: i for i, v in enumerate(self.roots)}

    def _root_perm(self, m) -> tuple:
        """The permutation of ``roots`` by the matrix m (None at a root
        whose image is not a root)."""
        return tuple(self._root_index.get(mat_vec(m, v, self.field))
                     for v in self.roots)

    def _build_elements(self, gen_perms):
        """Breadth-first closure over root permutations, bounded by the
        group order; elements new in a layer are sorted by their matrix.

        The matrix of w is [w a_1 .. w a_r] S^{-1}, read off the images of
        the simple roots a_i (S has them as columns), and w is orthogonal
        exactly when (w a_i, w a_j) = (a_i, a_j) for all i, j.
        """
        f = self.field
        r = self.rank
        spos = [self.roots.index(a) for a in self.simple_roots]
        s_inv = inverse(mat_transpose(self.simple_roots), f)

        def matrix(p):
            images = mat_transpose([self.roots[p[s]] for s in spos])
            return mat_mul(images, s_inv, f)

        groots = [mat_vec(self.gram, v, f) for v in self.roots]
        pairings: dict = {}

        def pair(a, b):
            if (a, b) not in pairings:
                pairings[a, b] = sum((x * y for x, y in
                                      zip(self.roots[a], groots[b]) if x),
                                     f.zero)
            return pairings[a, b]

        ident = tuple(range(len(self.roots)))
        index = {ident: 0}
        perms = [ident]
        elements = [matrix(ident)]
        layer = [ident]
        while layer:
            nxt = []
            for pw in layer:
                for pg in gen_perms:
                    p = _compose(pw, pg)
                    if p not in index:
                        if len(index) == self.order:
                            raise CatalogueError(
                                f"{self.code}: closure passed {self.order} "
                                f"elements")
                        index[p] = -1
                        nxt.append((p, matrix(p)))
            nxt.sort(key=lambda pm: _coords_key(
                (v for row in pm[1] for v in row), f))
            for p, m in nxt:
                index[p] = len(perms)
                perms.append(p)
                elements.append(m)
            layer = [p for p, _ in nxt]
        if len(elements) != self.order:
            raise CatalogueError(
                f"{self.code}: closure produced {len(elements)} elements, "
                f"expected {self.order}")
        for p in perms:
            if any(pair(p[spos[i]], p[spos[j]]) != pair(spos[i], spos[j])
                   for i in range(r) for j in range(i, r)):
                raise CatalogueError(
                    f"{self.code}: element not orthogonal for the Gram form")
        self.elements = elements
        self.root_perms = perms
        self.perm_index = index
        self.identity_index = 0
        self.simple_indices = [index[p] for p in gen_perms]
        # the inverse permutation lists the roots in the order of their images
        self.inverse_idx = [index[tuple(sorted(ident, key=p.__getitem__))]
                            for p in perms]

    def _build_reflections(self):
        """The reflection in each positive root, looked up by its root
        permutation, and the reflection classes."""
        self.reflections = []
        for k, alpha in enumerate(self.positive_roots):
            perm = self._root_perm(self.reflection_matrix(alpha))
            idx = self.perm_index.get(perm)
            if idx is None:
                raise CatalogueError(
                    f"{self.code}: reflection escaped the group closure")
            if perm[k] != k + self.n_reflections:
                raise CatalogueError(
                    f"{self.code}: reflection does not negate its root")
            self.reflections.append((idx, alpha))
        # the reflection classes are the conjugacy classes of reflections
        by_class: dict = {}
        for k, (idx, _) in enumerate(self.reflections):
            by_class.setdefault(self.class_of_element(idx), []).append(k)
        classes = sorted(by_class.values())
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
            # the reflection of e_r for B, else of the first simple root
            anchor = self.rank - 1 if self.code.startswith("B") else 0
            anchor_refl = self.roots.index(self.simple_roots[anchor]) \
                % self.n_reflections
            self.class_ell = self.refl_class_of[anchor_refl]
            self.class_p = 1 - self.class_ell

    # -- elementary queries ----------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.perm_index[_compose(self.root_perms[i],
                                        self.root_perms[j])]

    def inv(self, i: int) -> int:
        return self.inverse_idx[i]

    def conjugate(self, g: int, w: int) -> int:
        return self.mul(self.mul(g, w), self.inv(g))

    def det(self, i: int) -> Scalar:
        return det(self.elements[i], self.field)

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
    #
    # divided_difference needs only a reflection's root: it expands
    # (p - s.p)/(alpha, x) along alpha.  act_poly acts by any element w
    # through substitution, w.p = p(w^{-1} x), caching monomial images.

    def divided_difference(self, alpha: tuple, p: Poly) -> Poly:
        """The BGG/Demazure divided difference (p - s.p)/(alpha, x) of the
        reflection s in the root ``alpha`` (a tuple of field scalars).

        With l = (alpha, x) and c = 2/(alpha, alpha), s.p(x) = p(x - c l(x)
        alpha), so Taylor's formula along alpha gives the exact quotient
            (p - s.p)/l = sum_{k>=1} (-1)^{k+1} c^k l^{k-1} D_alpha^k p / k!,
        summed here by Horner's rule in l.  Scaling alpha by t scales the
        result by 1/t.  It is zero exactly when s.p = p.
        """
        data = self._taylor_data.get(alpha)
        if data is None:
            f = self.field
            form = mat_vec(self.gram, alpha, f)
            norm = sum((a * g for a, g in zip(alpha, form) if a), f.zero)
            data = ([(i, a) for i, a in enumerate(alpha) if a],
                    [(i, -g) for i, g in enumerate(form) if g],
                    2 * scalar_inverse(norm))
            self._taylor_data[alpha] = data
        direction, minus_form, c = data
        # u_k = c^k D_alpha^k p / k! = (c/k) D_alpha u_{k-1}, from u_0 = p
        taylor = [p.terms]
        while taylor[-1]:
            steps = [(i, a * c / len(taylor)) for i, a in direction]
            nxt: dict = {}
            for e, v in taylor[-1].items():
                for i, a in steps:
                    n = e[i]
                    if n:
                        e2 = e[:i] + (n - 1,) + e[i + 1:]
                        t = v * (a * n)
                        s = nxt.get(e2)
                        nxt[e2] = t if s is None else s + t
            taylor.append({e: v for e, v in nxt.items() if v})
        # Horner in -l: u_1 - l (u_2 - l (u_3 - ...))
        acc: dict = {}
        for u in reversed(taylor[1:]):
            nxt = dict(u)
            for e, v in acc.items():
                for i, g in minus_form:
                    e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
                    t = v * g
                    s = nxt.get(e2)
                    nxt[e2] = t if s is None else s + t
            acc = nxt
        return Poly(self.rank, self.field, {e: v for e, v in acc.items() if v})

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

    def ext_image(self, w_idx: int, mask: int) -> Weil:
        """Image under w of the exterior monomial ``mask``: the wedge of
        the columns of w it selects; cached per element and mask."""
        key = (w_idx, mask)
        got = self._ext_images.get(key)
        if got is None:
            w = self.elements[w_idx]
            got = Weil.one(self.rank, self.field)
            for j in range(self.rank):
                if mask & (1 << j):
                    col = [w[i][j] for i in range(self.rank)]
                    got = wedge_mul(got, Weil.vector(col, self.field))
            self._ext_images[key] = got
        return got

    def act_weil(self, w_idx: int, a: Weil) -> Weil:
        """Geometric action on a full-ambient Weil element."""
        if w_idx == self.identity_index:
            return a
        out = Weil.zero(self.rank, self.field, a.ambient)
        for mask, p in a.terms.items():
            ext = Weil(self.rank, self.field,
                       self.ext_image(w_idx, mask).terms, a.ambient)
            out = out + ext.scale_poly(self.act_poly(w_idx, p))
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
            return self.character_from_action(self.elements.__getitem__,
                                              name)
        else:
            raise ValueError(f"unknown character {name!r}")
        return ClassFunction(self, vals, name)

    def character_from_action(self, matrices_at, name="") -> ClassFunction:
        """Character from a callable elt_idx -> square matrix over the field."""
        vals = []
        for rep, _ in self.conjugacy_classes():
            m = matrices_at(rep)
            vals.append(sum((m[k][k] for k in range(len(m))), self.field.zero))
        return ClassFunction(self, tuple(vals), name)

    # -- basic invariants ---------------------------------------------------

    def basic_invariants(self):
        if self._psis is None:
            self._psis = self._compute_invariants()
            for psi, d in zip(self._psis, self.degrees):
                certify(psi.is_homogeneous() and psi.degree() == d,
                        f"candidate invariant not homogeneous of degree {d}")
                for alpha in self.simple_roots:
                    certify(self.divided_difference(alpha, psi).is_zero(),
                            "candidate invariant not W-invariant")
            certify(self._independence_certified(),
                    "invariants not independent")
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
            certify(len(shorts) == 12, f"F4 has {len(shorts)} short "
                    "positive roots, not 12")
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
