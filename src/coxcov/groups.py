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
from operator import add

from .fields import QQ, QSQRT5, QCOSPI7, QCOSPI8, Field, Scalar, scalar_inverse
from .linalg import bareiss_jordan_inverse, det, inverse
from .poly import Poly, monomials_of_degree
from .reports import certify
from .weil import Weil, wedge_mul, wedge_terms


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


def catalogue_entry(code: str, allow_long: bool = False):
    """(rank, field, gram rows, simple roots, degrees, invariant strategy);
    CatalogueError off the catalogue, and for H4 unless ``allow_long``."""
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
        if r == 4 and not allow_long:
            raise CatalogueError("H4 is an opt-in long run (exact linear "
                                 "algebra at degree ~58); pass "
                                 "allow_long=True / --allow-long")
        degrees = (2, 6, 10) if r == 3 else (2, 12, 20, 30)
        return r, field, gram, simples, degrees, ("H", None)
    if code == "D4":
        raise CatalogueError("repeated degrees unsupported")
    raise CatalogueError(f"unknown group code {code!r}")


# ---------------------------------------------------------------------------
# matrix helpers over the field
# ---------------------------------------------------------------------------

def mat_vec(a, v, field: Field):
    return tuple(sum((row[k] * x for k, x in enumerate(v) if x), field.zero)
                 for row in a)


def _coords_key(scalars, field: Field) -> tuple:
    """Lexicographic sort key of a vector of scalars: their power-basis
    coordinates in turn."""
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
        # positive definiteness via leading principal minors, with their
        # exact signs at the field's real theta
        for k in range(1, n + 1):
            minor = det([row[:k] for row in self.gram[:k]], field)
            if field.sign(minor) <= 0:
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
                catalogue_entry(code, allow_long)
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
        self._class_data: dict = {}
        self._ext_images: dict = {}
        self._taylor_data: dict = {}
        self._walks: dict = {}
        gens = [self.reflection_matrix(a) for a in self.simple_roots]
        parents = self._build_roots(gens)
        self._build_elements([self._root_perm(g) for g in gens])
        self._build_reflections(parents)

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
        positive roots, then their negatives in the same order).

        Not the positive system of ``simple_roots``: on I2(8) it lists
        (1 - theta^2, -theta) ~ (-2.41, -1.85).  The closure records descents.

        Returns {root u: (i, v)} for each root that is not simple, with
        u = gens[i] v for a root v reached before u, in the order reached.
        """
        f = self.field
        orbit = list(dict.fromkeys(self.simple_roots))
        seen = set(orbit)
        parents = {}
        for v in orbit:                   # grows while it is walked
            for i, g in enumerate(gens):
                u = mat_vec(g, v, f)
                if u not in seen:
                    if len(orbit) == 2 * self.n_reflections:
                        raise CatalogueError(
                            f"{self.code}: root orbit passed "
                            f"{2 * self.n_reflections} roots")
                    seen.add(u)
                    orbit.append(u)
                    parents[u] = (i, v)
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
        return parents

    def _root_perm(self, m) -> tuple:
        """The permutation of ``roots`` by the matrix m (None at a root
        whose image is not a root)."""
        return tuple(self._root_index.get(mat_vec(m, v, self.field))
                     for v in self.roots)

    def _build_elements(self, gen_perms):
        """Breadth-first closure over root permutations, bounded by the
        group order; elements new in a layer are sorted by their matrix.
        Each step multiplies on the right by a simple reflection, so the
        layer of w, kept in ``length``, is its Coxeter length, and the step
        (i, v) by which w = v s_i is first reached is a right descent of w.

        The matrix of w is [w a_1 .. w a_r] S^{-1}, read off the images of
        the simple roots a_i (S has them as columns), and w is orthogonal
        exactly when (w a_i, w a_j) = (a_i, a_j) for all i, j.  The roots
        are cleared of denominators once and S is inverted on their
        numerators, so every matrix is computed as integer numerators
        (tuples over Q(theta)) over one den > 0; sorting on them is
        sorting on the coordinates.  The pairings are compared the same
        way, as numerators over one den.
        """
        f = self.field
        r = self.rank
        spos = [self.roots.index(a) for a in self.simple_roots]
        root_nums, root_den = f.clear([c for v in self.roots for c in v])
        # S is N / root_den for the cleared simple roots N, so the matrix
        # of w is [w a_1 .. w a_r] (numerators) times N^{-1} = inv / den
        inv, den = bareiss_jordan_inverse(
            [[root_nums[s * r + i] for s in spos] for i in range(r)], f)
        mul, total = (int.__mul__, sum) if f.is_rational else \
            (f.mul_num, lambda terms: tuple(map(sum, zip(*terms))))

        def numerators(p):
            """The entries of p's matrix, row by row, over den."""
            imgs = [root_nums[p[s] * r:p[s] * r + r] for s in spos]
            return tuple(total([mul(img[i], inv[k][j])
                                for k, img in enumerate(imgs)])
                         for i in range(r) for j in range(r))

        def matrix(nums):
            return tuple(tuple(f.from_num(x, den) for x in nums[i:i + r])
                         for i in range(0, r * r, r))

        # pair(a, b) is the numerator of (root a, root b) over the one den
        # root_den^2 gram_den
        gram_nums, _ = f.clear([c for row in self.gram for c in row])
        rows = [root_nums[i:i + r] for i in range(0, len(root_nums), r)]
        groots = [[total([mul(gram_nums[k * r + j], v[j]) for j in range(r)])
                   for k in range(r)] for v in rows]
        pairings: dict = {}

        def pair(a, b):
            if (a, b) not in pairings:
                pairings[a, b] = total(list(map(mul, rows[a], groots[b])))
            return pairings[a, b]

        ident = tuple(range(len(self.roots)))
        index = {ident: 0}
        perms = [ident]
        elements = [matrix(numerators(ident))]
        length = [0]
        descents = [None]
        layer = [ident]
        while layer:
            nxt = []
            for pw in layer:
                for i, pg in enumerate(gen_perms):
                    p = _compose(pw, pg)
                    if p not in index:
                        if len(index) == self.order:
                            raise CatalogueError(
                                f"{self.code}: closure passed {self.order} "
                                f"elements")
                        index[p] = -1
                        nxt.append((p, numerators(p), (i, index[pw])))
            nxt.sort(key=lambda pm: pm[1])
            for p, nums, step in nxt:
                index[p] = len(perms)
                perms.append(p)
                elements.append(matrix(nums))
                descents.append(step)
            length += [length[-1] + 1] * len(nxt)
            layer = [p for p, _, _ in nxt]
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
        self.length = length
        self._descents = descents
        self.root_perms = perms
        self.perm_index = index
        self.identity_index = 0
        self.simple_indices = [index[p] for p in gen_perms]
        # the inverse permutation lists the roots in the order of their images
        self.inverse_idx = [index[tuple(sorted(ident, key=p.__getitem__))]
                            for p in perms]

    def _build_reflections(self, parents):
        """The reflection in each positive root, looked up by its root
        permutation, and the reflection classes.

        A root u = s_i v of ``parents`` (see ``_build_roots``) has the
        reflection s_i s_v s_i, so the root permutations of all the
        reflections are compositions of those of the simple ones, taken
        along the root orbit.
        """
        simple = [self.root_perms[i] for i in self.simple_indices]
        perms = dict(zip(self.simple_roots, simple))
        for u, (i, v) in parents.items():
            perms[u] = _compose(_compose(simple[i], perms[v]), simple[i])
        self.reflections = []
        for k, alpha in enumerate(self.positive_roots):
            perm = perms[alpha]
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
    # One Taylor expansion along a root gives s.p and the divided difference;
    # any other element acts by reflections along a reduced word.

    def _taylor(self, alpha: tuple, p: Poly, start: int) -> Poly:
        """sum_{k>=start} (-l)^(k-start) u_k by Horner's rule in l, with
        l = (alpha, x), c = 2/(alpha, alpha), u_k = c^k D_alpha^k p / k!
        for the root ``alpha``.  By Taylor's formula the reflection s in
        alpha maps p to p(x - c l alpha) = u_0 - l (u_1 - l (...)), so
        start 0 gives s.p and start 1 gives (p - s.p)/l.  It runs on p's
        integer numerators, with c alpha and -G alpha over one denominator
        each; the 1/k of each step and those denominators go into the
        step's denominator, and one gcd at the end makes it canonical."""
        f = self.field
        data = self._taylor_data.get(alpha)
        if data is None:
            form = mat_vec(self.gram, alpha, f)
            norm = sum((a * g for a, g in zip(alpha, form) if a), f.zero)
            c = 2 * scalar_inverse(norm)
            steps, step_den = f.clear([c * a for a in alpha])
            minus, minus_den = f.clear([-g for g in form])
            nonzero = bool if f.degree == 1 else any
            data = ([(i, a) for i, a in enumerate(steps) if nonzero(a)],
                    step_den,
                    [(i, g) for i, g in enumerate(minus) if nonzero(g)],
                    minus_den)
            self._taylor_data[alpha] = data
        steps, step_den, minus_form, minus_den = data
        rational = f.degree == 1
        mul = None if rational else f.mul_num
        # u_k = (c/k) D_alpha u_{k-1}, kept as (U_k, D_k) with u_k = U_k / D_k
        # and D_k = D_{k-1} k step_den, from (U_0, D_0) = (p.num, p.den)
        taylor = [(p.num, p.den)]
        u, den = p.num, p.den
        while True:
            nxt: dict = {}
            get = nxt.get
            for e, v in u.items():
                for i, a in steps:
                    n = e[i]
                    if n:
                        e2 = e[:i] + (n - 1,) + e[i + 1:]
                        if rational:
                            nxt[e2] = get(e2, 0) + a * n * v
                        else:
                            t = mul(a, v)
                            s = get(e2)
                            nxt[e2] = tuple(x * n for x in t) if s is None \
                                else tuple(y + x * n for x, y in zip(t, s))
            u = {e: v for e, v in nxt.items() if (v if rational else any(v))}
            if not u:
                break
            den *= len(taylor) * step_den
            taylor.append((u, den))
        del taylor[:start]
        if not taylor:
            return Poly.zero(self.rank, f)
        # Horner in -l: u_s - l (u_{s+1} - l (...)), over a denominator
        # that every D_k divides
        acc, den = taylor.pop()
        for u, dk in reversed(taylor):
            den *= minus_den
            k = den // dk
            nxt = {e: v * k for e, v in u.items()} if rational else \
                {e: tuple(x * k for x in v) for e, v in u.items()}
            get = nxt.get
            for e, v in acc.items():
                for i, g in minus_form:
                    e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
                    if rational:
                        nxt[e2] = get(e2, 0) + v * g
                    else:
                        t = mul(v, g)
                        s = get(e2)
                        nxt[e2] = t if s is None else tuple(map(add, s, t))
            acc = nxt
        return Poly.from_num(self.rank, f, {
            e: v for e, v in acc.items() if (v if rational else any(v))}, den)

    def divided_difference(self, alpha: tuple, p: Poly) -> Poly:
        """The BGG/Demazure divided difference (p - s.p)/(alpha, x); scaling
        alpha by t scales it by 1/t.  It is zero exactly when s.p = p."""
        return self._taylor(alpha, p, 1)

    def reflect(self, alpha: tuple, p: Poly) -> Poly:
        """s.p for the reflection s in the root ``alpha``, in one pass."""
        return self._taylor(alpha, p, 0)

    def right_descent(self, w_idx: int):
        """(i, w s_i) with l(w s_i) = l(w) - 1 at w != e: the step by which
        the closure first reached w (None at e)."""
        return self._descents[w_idx]

    def act_poly(self, w_idx: int, p: Poly) -> Poly:
        """(w.p)(x) = p(w^{-1} x) along a reduced word, one reflection per
        letter: w.p = (w s_i).(s_i.p) for a right descent s_i."""
        while w_idx != self.identity_index:
            i, w_idx = self.right_descent(w_idx)
            p = self.reflect(self.simple_roots[i], p)
        return p

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

    def walk(self, reflections) -> dict:
        """The subgroup generated by the reflections ``reflections``
        (element indices), breadth-first from e by left multiplication:
        {u: (v, alpha)} in the order reached, u = t v for the reflection t
        in alpha and an element v reached before u; e first, with None.
        Memoised per generating set."""
        key = frozenset(reflections)
        if key not in self._walks:
            refls = [(t, alpha) for t, alpha in self.reflections if t in key]
            walk, order = {self.identity_index: None}, [self.identity_index]
            for v in order:                   # grows while it is walked
                for t, alpha in refls:
                    u = self.mul(t, v)
                    if u not in walk:
                        walk[u] = (v, alpha)
                        order.append(u)
            self._walks[key] = walk
        return self._walks[key]

    def reynolds(self, p: Poly, elt_indices=None) -> Poly:
        """The mean of w.p over ``elt_indices`` (default W), along the
        ``walk`` of the reflections t in the set, t.(v.p) per element;
        CertificationError unless the walk yields the set (a reflection
        subgroup) exactly."""
        members = set(range(self.order) if elt_indices is None
                      else elt_indices)
        walk = self.walk(t for t, _ in self.reflections if t in members)
        certify(walk.keys() == members, f"{self.code}: Reynolds set is not "
                "a reflection subgroup")
        images = {}
        for u, step in walk.items():
            images[u] = self.reflect(step[1], images[step[0]]) if step else p
        return sum(images.values(), Poly.zero(p.nv, p.field)).scale(
            Fraction(1, len(members)))

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

    def class_data(self, name: str, compute):
        """``compute(self)`` on the first call for ``name``, kept on the
        group and returned as is after that: per-class data that several
        checks read, such as the exterior traces and Molien factors of
        ``molien``."""
        got = self._class_data.get(name)
        if got is None:
            got = self._class_data[name] = compute(self)
        return got

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
            return psis + seed_invariants(r, f, (mdata,), self.reynolds, psis)
        raise CatalogueError(f"no invariant strategy for {self.code}")

    def jacobian_delta(self) -> Poly:
        if self._delta is None:
            r = self.rank
            minors = jacobian_minors(self.basic_invariants(), r)
            self._delta = minors.get((1 << r) - 1, Poly.zero(r, self.field))
        return self._delta

    def root_form_product(self) -> Poly:
        """Product over reflections of the plain linear forms alpha^T x."""
        out = Poly.constant(1, self.rank, self.field)
        for _, alpha in self.reflections:
            out = out * Poly.linear_form(alpha, self.field)
        return out


def jacobian_minors(polys, nv: int) -> dict:
    """dp_1 ^ ... ^ dp_k, for k >= 1 polynomials in nv variables, in the
    exterior algebra on dx_0, ..., dx_{nv-1}, as {mask: Poly}, through
    ``wedge_terms``: the entry at a k-subset of the variables is the k x k
    minor of the Jacobian on those rows.  It is empty exactly when the
    Jacobian has rank below k."""
    out = None
    for p in polys:
        dp = {1 << i: q for i in range(nv) if (q := p.partial(i))}
        out = dp if out is None else wedge_terms(out, dp)
    return out


def seed_invariants(nv: int, field: Field, degrees, average, known=()):
    """Invariants of the given degrees, in increasing degree: per degree,
    the first grevlex seed monomials whose ``average``, content-normalised,
    is nonzero and keeps ``jacobian_minors(known + found + [cand])``
    nonempty; CertificationError if the seeds run out.  This averaging
    construction is certified by the Jacobian criterion (Humphreys,
    *Reflection Groups and Coxeter Groups*, 1990, ch. 3): the last wedge is
    that of ``known`` and the whole result, so it is their certificate of
    algebraic independence, and no later check is needed."""
    found = []
    for d in sorted(set(degrees)):
        need = degrees.count(d)
        for m in monomials_of_degree(nv, d):
            if not need:
                break
            cand = average(Poly.monomial(m, 1, field))
            if cand.is_zero():
                continue
            cand = cand.content_normalized()
            if jacobian_minors([*known, *found, cand], nv):
                found.append(cand)
                need -= 1
        certify(not need, f"seeds exhausted in degree {d}: {need} "
                "independent averaged invariant(s) missing")
    return found


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
