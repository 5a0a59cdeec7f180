"""Small-rank Lie side: matrix models of sl2, sl3 and sp4, the ring map
tau from polynomials on the Cartan into the even exterior algebra, the
Weyl-denominator permanent identity with its lower bound, the comparison
map Phi into Lambda(h) (x) H, and brute-force covariant series in
Lambda(g).

Basis layout: Cartan elements t_{alpha_i} first (simple coroot-type
vectors for the trace form), then root-vector pairs (e_beta, e_{-beta})
by height; the negative vectors are rescaled so that every pairing
(e_beta, e_{-beta}) equals 1.  The trace form restricted to the Cartan in
these coordinates is the Gram matrix of the bridge Weyl group realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from time import perf_counter

from .coinvariants import CoinvariantBasis
from .covariants import weil_vec
from .fields import QQ, clear_denominators
from .groups import ReflectionGroup, build_custom_group
from .linalg import SparseSolver, det, inverse
from .molien import GradedSeries, graded_multiplicity_series
from .poly import Poly
from .reports import FAIL, FINDING, PASS, CheckRecord, verdict
from .weil import B_QUOTIENT, Weil, add_terms, merge_sign, wedge_terms


# ---------------------------------------------------------------------------
# matrix models
# ---------------------------------------------------------------------------

def _e(n, i, j):
    m = [[Fraction(0)] * n for _ in range(n)]
    m[i][j] = Fraction(1)
    return m


def _madd(a, b, c=1):
    return [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mscale(a, c):
    return [[x * c for x in row] for row in a]


def _mtrace_prod(a, b):
    n = len(a)
    return sum(a[i][k] * b[k][i] for i in range(n) for k in range(n))


def _mbracket(a, b):
    n = len(a)
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def _model_a1():
    t1 = _madd(_e(2, 0, 0), _e(2, 1, 1), -1)
    basis = [("t1", t1), ("e1", _e(2, 0, 1)), ("f1", _e(2, 1, 0))]
    pos = [((1,), 1, 2)]          # root coords, e-index, f-index
    return basis, pos, 1


def _model_a2():
    t1 = _madd(_e(3, 0, 0), _e(3, 1, 1), -1)
    t2 = _madd(_e(3, 1, 1), _e(3, 2, 2), -1)
    basis = [("t1", t1), ("t2", t2),
             ("e[1,0]", _e(3, 0, 1)), ("f[1,0]", _e(3, 1, 0)),
             ("e[0,1]", _e(3, 1, 2)), ("f[0,1]", _e(3, 2, 1)),
             ("e[1,1]", _e(3, 0, 2)), ("f[1,1]", _e(3, 2, 0))]
    pos = [((1, 0), 2, 3), ((0, 1), 4, 5), ((1, 1), 6, 7)]
    return basis, pos, 2


def _model_b2():
    # sp4 with the symplectic form pairing coordinates (1,3) and (2,4);
    # t_alpha for the trace form: t_{eps1-eps2} is halved
    t1 = _mscale(_madd(_madd(_e(4, 0, 0), _e(4, 1, 1), -1),
                       _madd(_e(4, 3, 3), _e(4, 2, 2), -1), 1),
                 Fraction(1, 2))
    t2 = _madd(_e(4, 1, 1), _e(4, 3, 3), -1)
    e_s = _madd(_e(4, 0, 1), _e(4, 3, 2), -1)      # eps1 - eps2 (short)
    f_s = _madd(_e(4, 1, 0), _e(4, 2, 3), -1)
    e_l = _e(4, 1, 3)                              # 2 eps2 (long)
    f_l = _e(4, 3, 1)
    e_sl = _madd(_e(4, 0, 3), _e(4, 1, 2), 1)      # eps1 + eps2
    f_sl = _madd(_e(4, 3, 0), _e(4, 2, 1), 1)
    e_2sl = _e(4, 0, 2)                            # 2 eps1
    f_2sl = _e(4, 2, 0)
    basis = [("t1", t1), ("t2", t2),
             ("e[1,0]", e_s), ("f[1,0]", f_s),
             ("e[0,1]", e_l), ("f[0,1]", f_l),
             ("e[1,1]", e_sl), ("f[1,1]", f_sl),
             ("e[2,1]", e_2sl), ("f[2,1]", f_2sl)]
    pos = [((1, 0), 2, 3), ((0, 1), 4, 5), ((1, 1), 6, 7), ((2, 1), 8, 9)]
    return basis, pos, 2


_MODELS = {"A1": _model_a1, "A2": _model_a2, "B2": _model_b2}


@dataclass
class LieAlgebraData:
    code: str
    dim: int
    rank: int
    labels: list
    form: list                  # invariant form matrix on the basis
    form_inv: list
    brackets: dict              # (i, j) -> coordinate tuple of [x_i, x_j]
    pos_roots: list             # (root coords, e index, f index)
    root_weights: list          # weight vector of each basis element
    t_gram: list                # ((alpha_i, alpha_j)) on simple coroots
    weyl: ReflectionGroup       # bridge realization over the t-coordinates
    cb: CoinvariantBasis
    mats: list                  # defining-representation matrices of the basis

    @property
    def n_pos(self) -> int:
        return len(self.pos_roots)

    def bracket_vec(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for i, x in a.items():
            for j, y in b.items():
                if i == j:
                    continue
                coeff = x * y
                vec = self.brackets[(i, j)]
                for k, c in enumerate(vec):
                    if c:
                        cur = out.get(k, Fraction(0)) + coeff * c
                        if cur:
                            out[k] = cur
                        else:
                            out.pop(k, None)
        return out

    def t_vector(self, root_coords) -> tuple:
        """Coordinates of t_beta in the simple t_alpha basis = root coords."""
        return tuple(Fraction(c) for c in root_coords)

    def pair_roots(self, a_coords, b_coords) -> Fraction:
        total = Fraction(0)
        for i, x in enumerate(a_coords):
            for j, y in enumerate(b_coords):
                if x and y:
                    total += x * self.t_gram[i][j] * y
        return total


def build_lie(code: str) -> LieAlgebraData:
    code = code.upper()
    if code not in _MODELS:
        raise ValueError(f"no Lie model for {code!r} (A1, A2, B2)")
    basis_named, pos, rank = _MODELS[code]()
    labels = [n for n, _ in basis_named]
    mats = [m for _, m in basis_named]
    dim = len(mats)
    # rescale e_{-beta} so that (e_beta, e_{-beta}) = 1
    for coords, ei, fi in pos:
        c = _mtrace_prod(mats[ei], mats[fi])
        assert c != 0
        if c != 1:
            mats[fi] = _mscale(mats[fi], Fraction(1, c))
    form = [[_mtrace_prod(a, b) for b in mats] for a in mats]
    form_inv = inverse(form, QQ)
    # expansion of arbitrary matrices in the basis
    solver = SparseSolver()
    n = len(mats[0])
    for m in mats:
        solver.add({(i, j): m[i][j] for i in range(n) for j in range(n)
                    if m[i][j]})

    def expand(m):
        sol = solver.solve({(i, j): m[i][j] for i in range(n)
                            for j in range(n) if m[i][j]})
        assert sol is not None, "bracket escapes the basis span"
        return tuple(sol.get(k, Fraction(0)) for k in range(dim))

    brackets = {}
    for i in range(dim):
        for j in range(dim):
            brackets[(i, j)] = expand(_mbracket(mats[i], mats[j]))
    # Jacobi and form invariance on all basis triples
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                jac = [Fraction(0)] * dim
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = brackets[(b, c)]
                    for t, ct in enumerate(inner):
                        if ct:
                            vec = brackets[(a, t)]
                            for u, cu in enumerate(vec):
                                jac[u] += ct * cu
                assert not any(jac), "Jacobi identity fails"
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = sum(brackets[(i, j)][t] * form[t][k] for t in range(dim))
                rhs = sum(brackets[(i, k)][t] * form[j][t] for t in range(dim))
                assert lhs + rhs == 0, "form not invariant"
    # weights of the basis vectors: eigenvalues of ad(t_{alpha_i})
    weights = []
    for b in range(dim):
        wt = []
        for i in range(rank):
            vec = brackets[(i, b)]
            if b < rank:
                wt.append(Fraction(0))
            else:
                lam = vec[b]
                only = all((t == b) or not c for t, c in enumerate(vec))
                assert only, "basis not a weight basis"
                wt.append(lam)
        weights.append(tuple(wt))
    # (alpha_i, alpha_j) on the Cartan through the form
    t_gram = [[form[i][j] for j in range(rank)] for i in range(rank)]
    # weight convention check: weight of e_beta equals ((beta, alpha_i))_i
    for coords, ei, fi in pos:
        tvec = tuple(Fraction(c) for c in coords)
        expect = tuple(sum(tvec[a] * t_gram[a][i] for a in range(rank))
                       for i in range(rank))
        assert weights[ei] == expect, "root/weight normalization mismatch"
    simples = [tuple(1 if j == i else 0 for j in range(rank))
               for i in range(rank)]
    degrees = {"A1": (2,), "A2": (2, 3), "B2": (2, 4)}[code]
    weyl = build_custom_group(f"bridge-{code}", QQ, t_gram, simples, degrees)
    cb = CoinvariantBasis(weyl)
    L = LieAlgebraData(code, dim, rank, labels, form, form_inv, brackets,
                       pos, weights, t_gram, weyl, cb, mats)
    return L


# ---------------------------------------------------------------------------
# tau and the Weyl denominator
# ---------------------------------------------------------------------------

def _s_images(L: LieAlgebraData):
    """s(t_{alpha_i}) = 1/2 sum_a x_a wedge [x^a, t_{alpha_i}]."""
    out = []
    half = Fraction(1, 2)
    for i in range(L.rank):
        acc: dict = {}
        for a in range(L.dim):
            # x^a = sum_c forminv[c][a] x_c
            dual = {c: L.form_inv[c][a] for c in range(L.dim)
                    if L.form_inv[c][a]}
            br = L.bracket_vec(dual, {i: Fraction(1)})
            if not br:
                continue
            acc = add_terms(acc, wedge_terms(
                {1 << a: half}, {1 << k: c for k, c in br.items()}))
        out.append(acc)
    return out


def tau_map(L: LieAlgebraData, p: Poly) -> dict:
    """Ring map on polynomial functions of the Cartan: the coordinate x_i is
    identified with the Gram-dual vector of t_{alpha_i} before applying the
    bracket coproduct (so tau of the linear form (t_alpha, x) is s(t_alpha))."""
    simgs = _cached_s_images(L)
    ginv = L.weyl.gram_inv
    var_imgs = []
    for i in range(L.rank):
        acc: dict = {}
        for j in range(L.rank):
            c = ginv[i][j]
            if c:
                acc = add_terms(acc, {m: v * c for m, v in simgs[j].items()})
        var_imgs.append(acc)
    out: dict = {}
    for e, coeff in p.terms.items():
        term = {0: Fraction(coeff)}
        for i, k in enumerate(e):
            for _ in range(k):
                term = wedge_terms(term, var_imgs[i])
                if not term:
                    break
            if not term:
                break
        out = add_terms(out, term)
    return out


def _cached_s_images(L: LieAlgebraData):
    got = getattr(L, "_s_imgs", None)
    if got is None:
        got = _s_images(L)
        L._s_imgs = got
    return got


def t_alpha_form(L: LieAlgebraData, root_coords) -> Poly:
    """The linear polynomial (t_beta, x) in the bridge coordinates."""
    tvec = L.t_vector(root_coords)
    coeffs = [sum(tvec[j] * L.t_gram[j][i] for j in range(L.rank))
              for i in range(L.rank)]
    return Poly.linear_form(coeffs, QQ)


def tau_closed_form(L: LieAlgebraData, root_coords) -> dict:
    """sum over positive beta of (beta, alpha) e_beta wedge e_{-beta}."""
    acc: dict = {}
    for coords, ei, fi in L.pos_roots:
        c = L.pair_roots(coords, root_coords)
        if c:
            acc = add_terms(acc, {(1 << ei) | (1 << fi):
                                  merge_sign(1 << ei, 1 << fi) * c})
    return acc


def weyl_denominator_check(L: LieAlgebraData) -> CheckRecord:
    t0 = perf_counter()
    failures = []
    details: dict = {}
    # tau(t_alpha) against the closed form, every positive root
    for coords, _, _ in L.pos_roots:
        lhs = tau_map(L, t_alpha_form(L, coords))
        if lhs != tau_closed_form(L, coords):
            failures.append(f"tau(t_alpha) mismatch at {coords}")
    # tau of the Weyl denominator
    P = Poly.constant(1, L.rank, QQ)
    for coords, _, _ in L.pos_roots:
        P = P * t_alpha_form(L, coords)
    img = tau_map(L, P)
    blocks = {0: Fraction(1)}
    for coords, ei, fi in L.pos_roots:
        blocks = wedge_terms(blocks, {(1 << ei) | (1 << fi):
                                      Fraction(merge_sign(1 << ei, 1 << fi))})
    amat = [[L.pair_roots(a[0], b[0]) for b in L.pos_roots]
            for a in L.pos_roots]
    per = Fraction(0)
    n = len(amat)
    for sigma in permutations(range(n)):
        term = Fraction(1)
        for i in range(n):
            term *= amat[i][sigma[i]]
        per += term
    if img != wedge_terms({0: per}, blocks):
        failures.append("tau(P) != permanent * product of root planes")
    details["permanent"] = str(per)
    # lower bound N!/(rho,rho)^N * prod (alpha, rho)^2 <= per(A)
    rho = [Fraction(0)] * L.rank
    for coords, _, _ in L.pos_roots:
        for i, c in enumerate(L.t_vector(coords)):
            rho[i] += Fraction(c, 2)
    rr = L.pair_roots(rho, rho)
    bound = Fraction(1)
    for k in range(2, n + 1):
        bound *= k
    bound /= rr ** n
    for coords, _, _ in L.pos_roots:
        bound *= L.pair_roots(coords, rho) ** 2
    details["bound"] = str(bound)
    if not (per >= bound and per > 0):
        failures.append("permanent lower bound fails")
    details["bound_equality"] = per == bound
    return verdict("weyl-denominator", L.code, failures, details, t0)


def tau_harmonic_injectivity(L: LieAlgebraData) -> CheckRecord:
    t0 = perf_counter()
    failures = []
    dims = []
    for m in range(L.n_pos + 1):
        harms = L.cb.invariant_harmonics(m)
        solver = SparseSolver()
        rank = 0
        for h in harms:
            img = tau_map(L, h)
            if img and solver.add(img):
                rank += 1
        dims.append((m, len(harms), rank))
        if rank != len(harms):
            failures.append(f"tau rank {rank} < dim A_{m} = {len(harms)}")
    return verdict("tau-injectivity", L.code, failures,
                   {"rank": [[m, d, r] for m, d, r in dims]}, t0)


# ---------------------------------------------------------------------------
# the comparison map Phi
# ---------------------------------------------------------------------------

def _ext_pairing(L: LieAlgebraData, a: dict, b: dict) -> Fraction:
    """Form-induced pairing on Lambda(g): <x_S, y_T> = det((x_s, y_t))."""
    total = Fraction(0)
    for s, x in a.items():
        ks = [i for i in range(L.dim) if s & (1 << i)]
        for t, y in b.items():
            if bin(t).count("1") != len(ks):
                continue
            kt = [i for i in range(L.dim) if t & (1 << i)]
            sub = [[L.form[i][j] for j in kt] for i in ks]
            d = det(sub, QQ)
            if d:
                total += x * y * d
    return total


def phi_even_to_h(L: LieAlgebraData, xi: dict) -> Poly:
    """phi: Lambda^even g -> H, the dual of tau through A* ~ H."""
    by_deg: dict[int, dict] = {}
    for mask, c in xi.items():
        by_deg.setdefault(bin(mask).count("1"), {})[mask] = c
    terms = {}
    cb = L.cb
    for deg, part in by_deg.items():
        assert deg % 2 == 0, "phi applied off the even part"
        m = deg // 2
        if m > cb.top:
            continue
        harms = cb.invariant_harmonics(m)
        vals = [_ext_pairing(L, tau_map(L, a), part) for a in harms]
        terms.update(cb.tables[m].solve(*clear_denominators(vals)))
    return Poly(L.rank, QQ, terms)


def phi_map(L: LieAlgebraData, xi: dict) -> Weil:
    """Phi: Lambda g -> Lambda h (x) H via the shuffle coproduct, the even
    projection, the Cartan projection and phi."""
    cartan_mask = (1 << L.rank) - 1
    acc: dict[int, dict] = {}
    for mask, c in xi.items():
        sub = mask & ~cartan_mask
        cpart = mask & cartan_mask
        # splits mask = S u T with S inside the Cartan block (p kills the
        # rest); T picks up all root-vector indices plus the leftover
        # Cartan indices, and must be of even size
        s = cpart
        while True:
            tt = (cpart & ~s) | sub
            if bin(tt).count("1") % 2 == 0:
                sign = merge_sign(s, tt)
                if sign:
                    cur = acc.setdefault(s, {})
                    v = c * sign
                    got = cur.get(tt)
                    got = v if got is None else got + v
                    if got:
                        cur[tt] = got
                    else:
                        cur.pop(tt, None)
            if s == 0:
                break
            s = (s - 1) & cpart
    terms = {}
    for s_part, even_part in acc.items():
        if not even_part:
            continue
        p = phi_even_to_h(L, even_part)
        if p:
            terms[s_part] = p
    return Weil(L.rank, QQ, terms, B_QUOTIENT)


# ---------------------------------------------------------------------------
# modules, highest weight vectors, and the injectivity conjecture
# ---------------------------------------------------------------------------

def ext_act(L: LieAlgebraData, z_idx: int, xi: dict) -> dict:
    """Derivation action of the basis element z on Lambda(g)."""
    out: dict = {}
    for mask, c in xi.items():
        pos = 0
        for t in range(L.dim):
            if not mask & (1 << t):
                continue
            br = L.brackets[(z_idx, t)]
            rest = mask & ~(1 << t)
            sign = -1 if pos % 2 else 1
            one = {1 << k: cc for k, cc in enumerate(br) if cc}
            if one:
                out = add_terms(out, wedge_terms(
                    one, {rest: Fraction(c * sign)}))
            pos += 1
    return out


@dataclass
class ModuleModel:
    name: str
    dim: int
    acts: list                  # per g-basis index: dim x dim matrix
    hw_vec: dict                # model coordinates of a highest weight vector
    hw_weight: tuple
    zero_weight: list           # indices of a zero-weight basis
    zero_char: str              # W-side character name of the zero weight space

    def act_vec(self, z_idx: int, v: dict) -> dict:
        m = self.acts[z_idx]
        out: dict = {}
        for j, c in v.items():
            for i in range(self.dim):
                a = m[i][j]
                if a:
                    cur = out.get(i, Fraction(0)) + a * c
                    if cur:
                        out[i] = cur
                    else:
                        out.pop(i, None)
        return out


def module_model(L: LieAlgebraData, name: str) -> ModuleModel:
    if name == "adjoint":
        acts = []
        for z in range(L.dim):
            cols = [L.brackets[(z, j)] for j in range(L.dim)]
            acts.append([[cols[j][i] for j in range(L.dim)]
                         for i in range(L.dim)])
        hw_idx = L.pos_roots[-1][1]
        weights = L.root_weights
        zero = [i for i in range(L.dim) if not any(weights[i])]
        return ModuleModel("adjoint", L.dim, acts, {hw_idx: Fraction(1)},
                           weights[hw_idx], zero, "reflection")
    if name == "s3c3":
        assert L.code == "A2", "S^3(C^3) is an sl3 module"
        monos = []
        for a in range(3, -1, -1):
            for b in range(3 - a, -1, -1):
                monos.append((a, b, 3 - a - b))
        pos = {m: i for i, m in enumerate(monos)}
        acts = []
        for z in range(L.dim):
            m3 = L.mats[z]
            mat = [[Fraction(0)] * len(monos) for _ in range(len(monos))]
            for j, mono in enumerate(monos):
                # z acts as sum_{ik} m3[i][k] z_i d/d z_k
                for k in range(3):
                    if mono[k] == 0:
                        continue
                    for i in range(3):
                        c = m3[i][k]
                        if c:
                            tgt = list(mono)
                            tgt[k] -= 1
                            tgt[i] += 1
                            mat[pos[tuple(tgt)]][j] += c * mono[k]
            acts.append(mat)
        # weights from the Cartan actions (diagonal)
        weights = []
        for j in range(len(monos)):
            weights.append(tuple(acts[i][j][j] for i in range(L.rank)))
        hw = pos[(3, 0, 0)]
        zero = [j for j in range(len(monos)) if not any(weights[j])]
        return ModuleModel("s3c3", len(monos), acts, {hw: Fraction(1)},
                           weights[hw], zero, "sign")
    raise ValueError(f"unknown module {name!r}")


def _simple_raising_lowering(L: LieAlgebraData):
    raisings, lowerings = [], []
    for i in range(L.rank):
        unit = tuple(1 if j == i else 0 for j in range(L.rank))
        coords, ei, fi = next(p for p in L.pos_roots if p[0] == unit)
        raisings.append(ei)
        lowerings.append(fi)
    return raisings, lowerings


def _subset_weight(L: LieAlgebraData, mask: int) -> tuple:
    acc = [Fraction(0)] * L.rank
    for i in range(L.dim):
        if mask & (1 << i):
            for k, c in enumerate(L.root_weights[i]):
                acc[k] += c
    return tuple(acc)


def hwv_basis(L: LieAlgebraData, n: int, lam: tuple):
    """Highest weight vectors of weight lam in Lambda^n g, as exterior dicts.

    Kernel of the stacked simple-raising actions on the lam-weight subspace,
    computed by incremental elimination on the candidate images.
    """
    from itertools import combinations
    raisings, _ = _simple_raising_lowering(L)
    lam = tuple(Fraction(c) for c in lam)
    cands = []
    for subset in combinations(range(L.dim), n):
        mask = 0
        for i in subset:
            mask |= 1 << i
        if _subset_weight(L, mask) == lam:
            cands.append(mask)
    out = []
    img_solver = SparseSolver()
    stored = []                  # candidate index per stored generator
    for idx, mask in enumerate(cands):
        vec = {mask: Fraction(1)}
        image = {}
        for t, z in enumerate(raisings):
            for k, v in ext_act(L, z, vec).items():
                image[(t, k)] = v
        if not image:
            out.append(vec)
            continue
        sol = img_solver.solve(image)
        if sol is None:
            img_solver.add(image)
            stored.append(idx)
        else:
            hw = dict(vec)
            for gen_pos, coeff in sol.items():
                src = cands[stored[gen_pos]]
                cur = hw.get(src, Fraction(0)) - coeff
                if cur:
                    hw[src] = cur
                else:
                    hw.pop(src, None)
            out.append(hw)
    return out


def lie_covariant_series(L: LieAlgebraData, model: ModuleModel) -> GradedSeries:
    """Multiplicity of the module in each Lambda^n g, by exact highest
    weight vector counts."""
    coeffs = []
    for n in range(L.dim + 1):
        coeffs.append(len(hwv_basis(L, n, model.hw_weight)))
    return GradedSeries(coeffs)


def hom_from_hwv(L: LieAlgebraData, model: ModuleModel, hw: dict):
    """The equivariant map out of the model determined by hwv -> hw,
    returned as the list of images of the zero-weight basis vectors.

    Built by parallel lowering closure; consistency of dependent images is
    asserted, certifying well-definedness."""
    _, lowerings = _simple_raising_lowering(L)
    solver = SparseSolver()
    stored = []                  # (model_vec, lie_vec)

    def reduce_pair(mv, lv):
        sol = solver.solve(mv)
        if sol is None:
            solver.add(mv)
            stored.append((mv, lv))
            return True
        combo = {}
        for g, c in sol.items():
            for k, v in stored[g][1].items():
                cur = combo.get(k, Fraction(0)) + c * v
                if cur:
                    combo[k] = cur
                else:
                    combo.pop(k, None)
        assert combo == lv, "lowering closure inconsistent (not a hwv?)"
        return False

    reduce_pair(dict(model.hw_vec), dict(hw))
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            mv, lv = stored[idx]
            for z in lowerings:
                mv2 = model.act_vec(z, mv)
                lv2 = ext_act(L, z, lv)
                if not mv2:
                    assert not lv2, "lowering closure inconsistent"
                    continue
                before = len(stored)
                if reduce_pair(mv2, lv2):
                    nxt.append(before)
        frontier = nxt
    assert len(stored) == model.dim, "hwv does not generate a full copy"
    images = []
    for k in model.zero_weight:
        sol = solver.solve({k: Fraction(1)})
        assert sol is not None
        img = {}
        for g, c in sol.items():
            for key, v in stored[g][1].items():
                cur = img.get(key, Fraction(0)) + c * v
                if cur:
                    img[key] = cur
                else:
                    img.pop(key, None)
        images.append(img)
    return images


def phi_injectivity_test(L: LieAlgebraData, model_name: str) -> CheckRecord:
    """Rank report for Phi^V on Hom_g(V, Lambda g); a rank defect is a
    finding about the injectivity conjecture, not an engine failure."""
    t0 = perf_counter()
    model = module_model(L, model_name)
    failures = []
    per_degree = []
    total_rank = 0
    total_source = 0
    for n in range(L.dim + 1):
        hwvs = hwv_basis(L, n, model.hw_weight)
        if not hwvs:
            continue
        solver = SparseSolver()
        rank = 0
        for hw in hwvs:
            images = hom_from_hwv(L, model, hw)
            vec = {}
            for k, img in enumerate(images):
                w = phi_map(L, img)
                degs = w.total_degrees()
                if not degs <= {n}:
                    failures.append(f"Phi not degree preserving at n={n}")
                for key, c in weil_vec(w).items():
                    vec[(k,) + key] = c
            if vec and solver.add(vec):
                rank += 1
        per_degree.append([n, len(hwvs), rank])
        total_rank += rank
        total_source += len(hwvs)
    injective = total_rank == total_source
    details = {
        "module": model_name,
        "rank": per_degree,
        "total_source": total_source,
        "total_rank": total_rank,
        "injective": injective,
    }
    if failures:
        details["witness"] = failures
    return CheckRecord(f"phi-injectivity[{model_name}]", L.code,
                       FAIL if failures else FINDING, details,
                       perf_counter() - t0)


def reeder_record(L: LieAlgebraData, model_name: str) -> CheckRecord:
    """Exact equality of the Molien series of the zero-weight character and
    the brute-force Lambda(g) covariant series."""
    t0 = perf_counter()
    model = module_model(L, model_name)
    lie_side = lie_covariant_series(L, model)
    chi = L.weyl.character(model.zero_char)
    w_side = graded_multiplicity_series(L.weyl, chi)
    equal = w_side == lie_side
    details = {
        "module": model_name,
        "zero_weight_character": model.zero_char,
        "weyl_side": w_side.as_list(),
        "lie_side": lie_side.as_list(),
        "equal": equal,
    }
    return CheckRecord(f"reeder[{model_name}]", L.code,
                       PASS if equal else FINDING, details,
                       perf_counter() - t0)
