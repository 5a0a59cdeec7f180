import random
from fractions import Fraction

from coxcov.fields import QQ
from coxcov.poly import Poly
from coxcov.weil import Weil, merge_sign, wedge_mul


def _merge_sign_oracle(s_bits, t_bits):
    """Permutation-parity oracle for the block-merge sign."""
    if set(s_bits) & set(t_bits):
        return 0
    seq = list(s_bits) + list(t_bits)
    target = sorted(seq)
    # parity of the permutation sorting seq
    perm = [target.index(v) for v in seq]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_merge_sign_oracle():
    for s in range(16):
        for t in range(16):
            sb = [i for i in range(4) if s & (1 << i)]
            tb = [i for i in range(4) if t & (1 << i)]
            assert merge_sign(s, t) == _merge_sign_oracle(sb, tb), (s, t)


def test_wedge_antisymmetry():
    x = Weil.vector([1, 0])
    y = Weil.vector([0, 1])
    xy = wedge_mul(x, y)
    yx = wedge_mul(y, x)
    assert xy == Weil(2, QQ, {0b11: Poly.constant(1, 2)})
    assert yx == Weil(2, QQ, {0b11: Poly.constant(-1, 2)})


def test_wedge_square_zero():
    x = Weil.vector([1, 0])
    assert wedge_mul(x, x).is_zero()


def test_wedge_mixed_polynomial():
    # (1 (x) x) ^ (y (x) x) = y (x) x^2
    a = Weil.from_poly(Poly.variable(0, 2))
    b = Weil(2, QQ, {0b10: Poly.variable(0, 2)})
    got = wedge_mul(a, b)
    assert got == Weil(2, QQ, {0b10: Poly.monomial((2, 0), 1)})


def _random_weil(rng, r=4, maxdeg=2):
    terms = {}
    for _ in range(3):
        mask = rng.randrange(1 << r)
        if bin(mask).count("1") > 2:
            mask &= 0b11
        e = tuple(rng.randrange(maxdeg + 1) for _ in range(r))
        c = Fraction(rng.randrange(-4, 5) or 1, rng.randrange(1, 3))
        terms[mask] = terms.get(mask, Poly.zero(r)) + Poly.monomial(e, c)
    return Weil(r, QQ, {m: p for m, p in terms.items() if p})


def test_wedge_associativity_fuzz():
    rng = random.Random(13)
    for _ in range(40):
        a, b, c = (_random_weil(rng) for _ in range(3))
        assert wedge_mul(wedge_mul(a, b), c) == wedge_mul(a, wedge_mul(b, c))


def homogeneous_component(w, total):
    """The part of w of the given total degree."""
    out = {}
    for mask, p in w.terms.items():
        k = bin(mask).count("1")
        if total >= k and (total - k) % 2 == 0:
            part = p.homogeneous_part((total - k) // 2)
            if part:
                out[mask] = part
    return Weil(w.r, w.field, out, w.ambient)


def test_graded_commutativity():
    rng = random.Random(17)
    for _ in range(40):
        a, b = _random_weil(rng), _random_weil(rng)
        for da in sorted(a.total_degrees()):
            for db in sorted(b.total_degrees()):
                ah = homogeneous_component(a, da)
                bh = homogeneous_component(b, db)
                lhs = wedge_mul(ah, bh)
                rhs = wedge_mul(bh, ah)
                if (da * db) % 2:
                    rhs = -rhs
                assert lhs == rhs


def test_total_degree_additive():
    rng = random.Random(19)
    for _ in range(30):
        a, b = _random_weil(rng), _random_weil(rng)
        for da in sorted(a.total_degrees()):
            for db in sorted(b.total_degrees()):
                prod = wedge_mul(homogeneous_component(a, da),
                                 homogeneous_component(b, db))
                if not prod.is_zero():
                    assert prod.total_degree() == da + db


def test_ambient_mismatch():
    a = Weil.one(2, QQ, "W")
    b = Weil.one(2, QQ, "B")
    try:
        wedge_mul(a, b)
    except ValueError:
        pass
    else:
        raise AssertionError("ambient mismatch not detected")
