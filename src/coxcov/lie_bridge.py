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
from itertools import chain, combinations, permutations, product
from time import perf_counter

from .coinvariants import CoinvariantBasis
from .covariants import map_vec
from .fields import QQ
from .groups import ReflectionGroup, build_custom_group
from .linalg import SparseSolver, det, inverse
from .molien import GradedSeries, graded_multiplicity_series
from .poly import Poly
from .reports import FAIL, FINDING, PASS, CheckRecord, certify, verdict
from .weil import B_QUOTIENT, Weil, add_terms, merge_sign, wedge_terms


# ---------------------------------------------------------------------------
# matrix models
# ---------------------------------------------------------------------------

def _combine(pairs) -> dict:
    """sum_i c_i v_i over (c_i, v_i) pairs of sparse vectors {key: entry}."""
    out: dict = {}
    for c, v in pairs:
        if c:
            out = add_terms(out, {k: c * x for k, x in v.items()})
    return out


def _matmul_terms(a: dict, b: dict, sign: int = 1):
    """(entry, unit matrix) pairs whose combination is sign * ab."""
    return ((sign * x * y, {(i, j): 1})
            for (i, k), x in a.items() for (l, j), y in b.items() if k == l)


def _trace_prod(a: dict, b: dict) -> Fraction:
    return sum((x * b.get((k, i), 0) for (i, k), x in a.items()), Fraction(0))


# Per model: the positive roots in simple-root coordinates by height, the
# degrees of the Weyl group, and the defining-representation matrices
# {(row, col): entry} of the basis t_{alpha_1..alpha_r}, then
# (e_beta, e_{-beta}) for each positive root beta in the listed order.
_HALF = Fraction(1, 2)
_MODELS = {
    "A1": ([(1,)], (2,),
           [{(0, 0): 1, (1, 1): -1},
            {(0, 1): 1}, {(1, 0): 1}]),
    "A2": ([(1, 0), (0, 1), (1, 1)], (2, 3),
           [{(0, 0): 1, (1, 1): -1}, {(1, 1): 1, (2, 2): -1},
            {(0, 1): 1}, {(1, 0): 1},
            {(1, 2): 1}, {(2, 1): 1},
            {(0, 2): 1}, {(2, 0): 1}]),
    # sp4 with the symplectic form pairing coordinates (1,3) and (2,4);
    # t_alpha for the trace form: t_{eps1-eps2} is halved
    "B2": ([(1, 0), (0, 1), (1, 1), (2, 1)], (2, 4),
           [{(0, 0): _HALF, (1, 1): -_HALF, (3, 3): _HALF, (2, 2): -_HALF},
            {(1, 1): 1, (3, 3): -1},
            {(0, 1): 1, (3, 2): -1}, {(1, 0): 1, (2, 3): -1},  # eps1 - eps2
            {(1, 3): 1}, {(3, 1): 1},                          # 2 eps2
            {(0, 3): 1, (1, 2): 1}, {(3, 0): 1, (2, 1): 1},    # eps1 + eps2
            {(0, 2): 1}, {(2, 0): 1}]),                        # 2 eps1
}


@dataclass
class LieAlgebraData:
    code: str
    dim: int
    rank: int
    form: list                  # invariant form matrix on the basis
    brackets: dict              # (i, j) -> coordinates {k: c} of [x_i, x_j]
    pos_roots: list             # (root coords, e index, f index)
    root_weights: list          # weight vector of each basis element
    t_gram: list                # ((alpha_i, alpha_j)) on simple coroots
    weyl: ReflectionGroup       # bridge realization over the t-coordinates
    cb: CoinvariantBasis
    mats: list                  # defining-representation matrices of the basis
    tau_coords: list            # tau(x_i) for the Cartan coordinates x_i

    @property
    def n_pos(self) -> int:
        return len(self.pos_roots)

    def pair_roots(self, a_coords, b_coords) -> Fraction:
        total = Fraction(0)
        for i, x in enumerate(a_coords):
            for j, y in enumerate(b_coords):
                if x and y:
                    total += x * self.t_gram[i][j] * y
        return total


def build_lie(code: str, layout=None) -> LieAlgebraData:
    """The certified matrix model of the Lie algebra of type ``code`` and
    its bridge Weyl group with coinvariant tables.

    ``layout`` is an optional recorded table layout, {degree: (indices,
    monomials)}, such as the catalogue group's from the cache: the bridge
    group is the same W in another realization and has the same layout.
    It is a hint only.  It skips the exact column pass; every certificate
    of the tables still runs, and a layout that does not fit falls back to
    a fresh build, so it can cost time but cannot change a verdict.
    """
    code = code.upper()
    if code not in _MODELS:
        raise ValueError(f"no Lie model for {code!r} (A1, A2, B2)")
    roots, degrees, table = _MODELS[code]
    rank = len(roots[0])
    pos = [(coords, rank + 2 * k, rank + 2 * k + 1)
           for k, coords in enumerate(roots)]
    mats = [{key: Fraction(c) for key, c in m.items()} for m in table]
    dim = len(mats)
    # rescale e_{-beta} so that (e_beta, e_{-beta}) = 1
    for _, ei, fi in pos:
        c = _trace_prod(mats[ei], mats[fi])
        certify(c != 0, f"(e_beta, e_-beta) = 0 at basis index {ei}")
        mats[fi] = {key: x / c for key, x in mats[fi].items()}
    form = [[_trace_prod(a, b) for b in mats] for a in mats]
    solver = SparseSolver()
    for m in mats:
        solver.add(m)
    brackets = {}
    for i in range(dim):
        for j in range(dim):
            sol = solver.solve(_combine(chain(
                _matmul_terms(mats[i], mats[j]),
                _matmul_terms(mats[j], mats[i], -1))))
            certify(sol is not None, "bracket escapes the basis span")
            brackets[(i, j)] = sol
    # Jacobi and form invariance on all basis triples
    for i, j, k in product(range(dim), repeat=3):
        jac = _combine((ct, brackets[(a, t)])
                       for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                       for t, ct in brackets[(b, c)].items())
        certify(not jac, "Jacobi identity fails")
        lhs = sum(c * form[t][k] for t, c in brackets[(i, j)].items())
        rhs = sum(c * form[j][t] for t, c in brackets[(i, k)].items())
        certify(lhs + rhs == 0, "form not invariant")
    # weights of the basis vectors: eigenvalues of ad(t_{alpha_i})
    weights = [(Fraction(0),) * rank] * rank
    for b in range(rank, dim):
        cols = [brackets[(i, b)] for i in range(rank)]
        certify(all(set(v) <= {b} for v in cols), "basis not a weight basis")
        weights.append(tuple(v.get(b, Fraction(0)) for v in cols))
    # (alpha_i, alpha_j) on the Cartan through the form
    t_gram = [[form[i][j] for j in range(rank)] for i in range(rank)]
    # weight convention check: weight of e_beta equals ((beta, alpha_i))_i
    for coords, ei, _ in pos:
        expect = tuple(sum(c * t_gram[a][i] for a, c in enumerate(coords))
                       for i in range(rank))
        certify(weights[ei] == expect, "root/weight normalization mismatch")
    simples = [tuple(1 if j == i else 0 for j in range(rank))
               for i in range(rank)]
    weyl = build_custom_group(f"bridge-{code}", QQ, t_gram, simples, degrees)
    # s(t_{alpha_i}) = 1/2 sum_a x_a wedge [x^a, t_{alpha_i}], where
    # x^a = sum_c dual[c][a] x_c; the coordinate x_i is the Gram dual of
    # t_{alpha_i}
    dual = inverse(form, QQ)
    s_imgs = []
    for i in range(rank):
        terms = []
        for a in range(dim):
            br = _combine((dual[c][a], brackets[(c, i)])
                          for c in range(dim))
            terms.append((_HALF, wedge_terms(
                {1 << a: 1}, {1 << k: c for k, c in br.items()})))
        s_imgs.append(_combine(terms))
    tau_coords = [_combine((weyl.gram_inv[i][j], s_imgs[j])
                           for j in range(rank)) for i in range(rank)]
    return LieAlgebraData(code, dim, rank, form, brackets, pos, weights,
                          t_gram, weyl,
                          CoinvariantBasis(weyl, precomputed=layout), mats,
                          tau_coords)


# ---------------------------------------------------------------------------
# tau and the Weyl denominator
# ---------------------------------------------------------------------------

def tau_map(L: LieAlgebraData, p: Poly) -> dict:
    """Ring map on polynomial functions of the Cartan: the coordinate x_i is
    identified with the Gram-dual vector of t_{alpha_i} before applying the
    bracket coproduct (so tau of the linear form (t_alpha, x) is s(t_alpha))."""
    out: dict = {}
    for e, coeff in p.terms.items():
        term = {0: Fraction(coeff)}
        for i, k in enumerate(e):
            for _ in range(k):
                term = wedge_terms(term, L.tau_coords[i])
                if not term:
                    break
            if not term:
                break
        out = add_terms(out, term)
    return out


def t_alpha_form(L: LieAlgebraData, root_coords) -> Poly:
    """The linear polynomial (t_beta, x) in the bridge coordinates."""
    coeffs = [sum(c * L.t_gram[j][i] for j, c in enumerate(root_coords))
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
        for i, c in enumerate(coords):
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
    out = Poly.zero(L.rank, QQ)
    cb = L.cb
    for deg, part in by_deg.items():
        if deg % 2:
            raise ValueError("phi applied off the even part")
        m = deg // 2
        if m > cb.top:
            continue
        harms = cb.invariant_harmonics(m)
        vals = [_ext_pairing(L, tau_map(L, a), part) for a in harms]
        out = out + cb.harmonic_class(m, *QQ.clear(vals))
    return out


def phi_map(L: LieAlgebraData, xi: dict) -> Weil:
    """Phi: Lambda g -> Lambda h (x) H via the shuffle coproduct, the even
    projection, the Cartan projection and phi."""
    cartan_mask = (1 << L.rank) - 1
    acc: dict[int, dict] = {}
    for mask, c in xi.items():
        cpart = mask & cartan_mask
        # splits mask = S u T with S inside the Cartan block (p kills the
        # rest); T picks up all root-vector indices plus the leftover
        # Cartan indices, and must be of even size.  T = mask - S, so each
        # (S, T) comes from one mask and no two terms of xi meet here
        s = cpart
        while True:
            tt = mask & ~s
            if bin(tt).count("1") % 2 == 0:
                acc.setdefault(s, {})[tt] = c * merge_sign(s, tt)
            if s == 0:
                break
            s = (s - 1) & cpart
    terms = {}
    for s_part, even_part in acc.items():
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
            if br:
                out = add_terms(out, wedge_terms(
                    {1 << k: cc for k, cc in br.items()},
                    {mask & ~(1 << t): -c if pos % 2 else c}))
            pos += 1
    return out


@dataclass
class ModuleModel:
    name: str
    dim: int
    acts: list                  # per g-basis index: the sparse image {i: c}
                                # of each model basis vector
    hw_vec: dict                # model coordinates of a highest weight vector
    hw_weight: tuple
    zero_weight: list           # indices of a zero-weight basis
    zero_char: str              # W-side character name of the zero weight space

    def act_vec(self, z_idx: int, v: dict) -> dict:
        cols = self.acts[z_idx]
        return _combine((c, cols[j]) for j, c in v.items())


def module_model(L: LieAlgebraData, name: str) -> ModuleModel:
    if name == "adjoint":
        acts = [[L.brackets[(z, j)] for j in range(L.dim)]
                for z in range(L.dim)]
        hw_idx = L.pos_roots[-1][1]
        weights = L.root_weights
        zero = [i for i in range(L.dim) if not any(weights[i])]
        return ModuleModel("adjoint", L.dim, acts, {hw_idx: Fraction(1)},
                           weights[hw_idx], zero, "reflection")
    if name == "s3c3":
        if L.code != "A2":
            raise ValueError("S^3(C^3) is an sl3 module")
        monos = [(a, b, 3 - a - b)
                 for a in range(3, -1, -1) for b in range(3 - a, -1, -1)]
        pos = {m: i for i, m in enumerate(monos)}

        def column(m, mono):
            # z acts as sum_{ik} z[i, k] z_i d/d z_k
            terms = []
            for (i, k), c in m.items():
                if mono[k]:
                    tgt = list(mono)
                    tgt[k] -= 1
                    tgt[i] += 1
                    terms.append((c * mono[k], {pos[tuple(tgt)]: 1}))
            return _combine(terms)

        acts = [[column(m, mono) for mono in monos] for m in L.mats]
        # weights from the Cartan actions (diagonal)
        weights = [tuple(acts[i][j].get(j, Fraction(0))
                         for i in range(L.rank)) for j in range(len(monos))]
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
        image = {(t, k): v for t, z in enumerate(raisings)
                 for k, v in ext_act(L, z, vec).items()}
        if not image:
            out.append(vec)
            continue
        sol = img_solver.solve(image)
        if sol is None:
            img_solver.add(image)
            stored.append(idx)
        else:
            out.append(add_terms(vec, {cands[stored[g]]: -c
                                       for g, c in sol.items()}))
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
    certified, and so is well-definedness."""
    _, lowerings = _simple_raising_lowering(L)
    solver = SparseSolver()
    stored = []                  # (model_vec, lie_vec)

    def image(sol):
        return _combine((c, stored[g][1]) for g, c in sol.items())

    def reduce_pair(mv, lv):
        sol = solver.solve(mv)
        if sol is None:
            solver.add(mv)
            stored.append((mv, lv))
            return True
        certify(image(sol) == lv, "lowering closure inconsistent (not a hwv?)")
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
                    certify(not lv2, "lowering closure inconsistent")
                    continue
                before = len(stored)
                if reduce_pair(mv2, lv2):
                    nxt.append(before)
        frontier = nxt
    certify(len(stored) == model.dim, "hwv does not generate a full copy")
    return [image(solver.solve({k: Fraction(1)})) for k in model.zero_weight]


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
            ws = [phi_map(L, img) for img in hom_from_hwv(L, model, hw)]
            for w in ws:
                if not w.total_degrees() <= {n}:
                    failures.append(f"Phi not degree preserving at n={n}")
            vec, den = map_vec(ws)
            if vec and solver.add(vec, den):
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
