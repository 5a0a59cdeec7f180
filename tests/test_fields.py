import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from coxcov.fields import (QQ, QCOSPI7, QCOSPI8, QSQRT5, AlgNum, Field,
                           scalar_inverse)


# ---------------------------------------------------------------------------
# reference: Fraction coordinates reduced with a Fraction power table, and
# the inverse by extended Euclid over Q[t].  This is the arithmetic that the
# integer kernel of ``AlgNum`` replaced; it stays here as the oracle.
# ---------------------------------------------------------------------------

def ref_pow_table(min_poly):
    """Fraction coordinates of theta^k for k = degree .. 2*degree-2."""
    mp = [Fraction(c) for c in min_poly]
    d = len(mp) - 1
    cur = [-c for c in mp[:-1]]
    table = [tuple(cur)]
    for _ in range(d - 2):
        cur = [Fraction(0)] + list(cur)
        top = cur[d] if len(cur) > d else Fraction(0)
        cur = cur[:d]
        if top:
            red = table[0]
            cur = [cur[i] + top * red[i] for i in range(d)]
        table.append(tuple(cur))
    return table


def ref_reduce(min_poly, coeffs):
    """Reduce a coordinate list of length <= 2*degree-1 modulo min_poly."""
    d = len(min_poly) - 1
    out = list(coeffs[:d]) + [Fraction(0)] * max(0, d - len(coeffs))
    table = ref_pow_table(min_poly)
    for k in range(d, len(coeffs)):
        c = coeffs[k]
        if c:
            row = table[k - d]
            for i in range(d):
                out[i] += c * row[i]
    return tuple(out)


def ref_mul(min_poly, a, b):
    d = len(min_poly) - 1
    prod = [Fraction(0)] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return ref_reduce(min_poly, prod)


def ref_poly_divmod(num, den):
    """Divide rational coefficient lists (low-to-high), exact Euclid step."""
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    dl = len(den) - 1
    dlead = den[-1]
    for i in range(len(num) - 1, dl - 1, -1):
        c = num[i] / dlead
        q[i - dl] = c
        if c:
            for j in range(dl + 1):
                num[i - dl + j] -= c * den[j]
    while num and not num[-1]:
        num.pop()
    return q, num


def ref_inverse(min_poly, a):
    if not any(a):
        raise ZeroDivisionError("zero divisor")
    r0 = [Fraction(c) for c in min_poly]
    r1 = list(a)
    while r1 and not r1[-1]:
        r1.pop()
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, r = ref_poly_divmod(r0, r1)
        s = list(s0)
        s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s[i + j] -= qi * sj
        r0, r1 = r1, r
        s0, s1 = s1, s
    assert r1, "minimal polynomial not coprime with element"
    return ref_reduce(min_poly, [c / r1[0] for c in s1])


# theta = 2cos(pi/5), the golden ratio: a quadratic field whose theta^2 has
# a nonzero theta coordinate, unlike Q(sqrt5)
QPHI = Field("Q(phi)", (-1, -1, 1), root_interval=(Fraction(3, 2), 2))


def assert_canonical(x):
    d = x.field.degree
    assert len(x.num) == d
    assert all(type(n) is int for n in x.num)
    assert type(x.den) is int and x.den > 0
    assert gcd(*x.num, x.den) == 1
    if not x:
        assert x.num == (0,) * d and x.den == 1


# ---------------------------------------------------------------------------

def test_sqrt5_product():
    # (1 + theta)(1 - theta) = 1 - theta^2 = -4
    a = QSQRT5.scalar(1, 1)
    b = QSQRT5.scalar(1, -1)
    assert a * b == QSQRT5.scalar(-4)


def test_rational_sum():
    assert QQ.coerce(Fraction(2, 3)) + QQ.coerce(Fraction(1, 6)) == \
        Fraction(5, 6)
    assert QSQRT5.scalar(Fraction(2, 3)) + Fraction(1, 6) == Fraction(5, 6)


def test_theta_self_division():
    t = QSQRT5.scalar(0, 1)
    assert t / t == QSQRT5.one


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QSQRT5.one / QSQRT5.zero
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        QSQRT5.one / 0
    with pytest.raises(ZeroDivisionError):
        QSQRT5.scalar(0, 1) / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        1 / QSQRT5.zero
    with pytest.raises(ZeroDivisionError):
        QSQRT5.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        scalar_inverse(Fraction(0))


@pytest.mark.parametrize("field", [QSQRT5, QCOSPI7, QCOSPI8])
def test_field_axioms_fuzz(field):
    rng = random.Random(11)

    def rand():
        return field.scalar(*[Fraction(rng.randrange(-4, 5),
                                       rng.randrange(1, 4))
                              for _ in range(field.degree)])

    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == field.zero or not (a - a)
        if b:
            assert (a / b) * b == a
            assert b * scalar_inverse(b) == field.one


def _big_coords(rng, field):
    """Rational coordinates with large numerators and denominators; some
    coordinates (and some whole elements) are zero."""
    shape = rng.random()
    out = []
    for _ in range(field.degree):
        if shape < 0.1 or rng.random() < 0.2:
            out.append(Fraction(0))
        else:
            out.append(Fraction(rng.randrange(-10**30, 10**30),
                                rng.randrange(1, 10**20)))
    return out


def _big_rational(rng):
    return Fraction(rng.randrange(-10**25, 10**25), rng.randrange(1, 10**15))


@pytest.mark.parametrize("field", [QSQRT5, QPHI, QCOSPI7, QCOSPI8],
                         ids=["sqrt5", "phi", "cospi7", "cospi8"])
def test_integer_kernel_matches_fraction_oracle(field):
    rng = random.Random(2024)
    mp = field.min_poly
    zero = (Fraction(0),) * field.degree
    for _ in range(150):
        ca, cb = _big_coords(rng, field), _big_coords(rng, field)
        a, b = field.scalar(*ca), field.scalar(*cb)
        assert field.coords(a) == tuple(ca)
        cases = [
            (a + b, [x + y for x, y in zip(ca, cb)]),
            (a - b, [x - y for x, y in zip(ca, cb)]),
            (-a, [-x for x in ca]),
            (a * b, ref_mul(mp, ca, cb)),
        ]
        if any(cb):
            cases.append((b.inverse(), ref_inverse(mp, cb)))
            cases.append((a / b, ref_mul(mp, ca, ref_inverse(mp, cb))))
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
        for n in (rng.randrange(-10**20, 10**20), -3, -1, 0, 1,
                  _big_rational(rng), Fraction(-7, 3), Fraction(4)):
            shifted = [ca[0] + n] + list(ca[1:])
            cases += [
                (a + n, shifted),
                (n + a, shifted),
                (a - n, [ca[0] - n] + list(ca[1:])),
                (n - a, [n - ca[0]] + [-x for x in ca[1:]]),
                (a * n, [x * n for x in ca]),
                (n * a, [x * n for x in ca]),
            ]
            if n:
                cases.append((a / n, [x / n for x in ca]))
            if any(ca):
                cases.append((n / a, [x * n for x in ref_inverse(mp, ca)]))
        for got, want in cases:
            assert isinstance(got, AlgNum)
            assert_canonical(got)
            assert field.coords(got) == tuple(want)
            # equal values have equal representations
            assert got == field.scalar(*want)
            assert hash(got) == hash(field.scalar(*want))
        assert (a - a).num == (0,) * field.degree and (a - a).den == 1
        assert field.coords(a * 0) == zero and (a * 0) == field.zero


def test_canonical_form_of_constructor_input():
    x = AlgNum(QSQRT5, [6, -4], -10)
    assert (x.num, x.den) == ((-3, 2), 5)
    z = AlgNum(QCOSPI7, [0, 0, 0], -12)
    assert (z.num, z.den) == ((0, 0, 0), 1)
    assert z == QCOSPI7.zero and z == 0
    with pytest.raises(ZeroDivisionError):
        AlgNum(QSQRT5, [1, 0], 0)


def test_hash_agrees_with_equality():
    for value in (Fraction(3), Fraction(-3, 2), Fraction(0)):
        x = QSQRT5.scalar(value)
        assert x == value
        assert hash(x) == hash(value)
        assert len({x, value}) == 1
    assert len({QSQRT5.scalar(3), 3}) == 1
    assert QSQRT5.scalar(0, 1) != Fraction(1)


@pytest.mark.parametrize("min_poly", [(1, 0, 2), (Fraction(1, 2), 0, 1)])
def test_field_rejects_non_monic_or_non_integral(min_poly):
    with pytest.raises(ValueError):
        Field("bad", min_poly)


@pytest.mark.parametrize("field", [QSQRT5, QCOSPI7, QCOSPI8])
def test_exact_sign_is_multiplicative(field):
    # an order on the field: sign(ab) = sign(a) sign(b), sign(-a) = -sign(a),
    # and positives are closed under addition
    rng = random.Random(5)
    signs = set()
    for _ in range(40):
        a = field.scalar(*[Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                           for _ in range(field.degree)])
        b = field.scalar(*[rng.randrange(-3, 4) for _ in range(field.degree)])
        assert field.sign(a * b) == field.sign(a) * field.sign(b)
        assert field.sign(-a) == -field.sign(a)
        if field.sign(a) > 0 and field.sign(b) > 0:
            assert field.sign(a + b) == 1
        signs.add(field.sign(a))
    assert {-1, 1} <= signs


@pytest.mark.parametrize("field", [QSQRT5, QCOSPI7, QCOSPI8, QPHI])
def test_root_interval_isolates_theta(field):
    # every root is real and simple, so degree sign changes of min_poly on
    # a grid locate all of them; exactly one lies in the root interval
    lo, hi = field.root_interval
    grid = [Fraction(k, 64) for k in range(-3 * 64, 3 * 64 + 1)]

    def value(t):
        return sum(c * t ** i for i, c in enumerate(field.min_poly))

    changes = [(s, t) for s, t in zip(grid, grid[1:])
               if value(s) * value(t) < 0]
    assert all(value(t) for t in grid)
    assert len(changes) == field.degree
    assert sum(lo <= s and t <= hi for s, t in changes) == 1
    t = field.scalar(0, 1)
    assert field.sign(t - lo) == 1 and field.sign(t - hi) == -1
    assert field.sign(field.zero) == 0
    assert field.sign(Fraction(-1, 3)) == -1


def test_exact_sign_of_tiny_values():
    # F_n sqrt5 - L_n = -2 psi^n with psi = (1 - sqrt5)/2: |psi^78| ~ 5e-17,
    # far below float resolution at F_78 sqrt5 ~ 2e16
    fib, luc = [0, 1], [2, 1]
    for _ in range(80):
        fib.append(fib[-1] + fib[-2])
        luc.append(luc[-1] + luc[-2])
    for n in (77, 78, 79, 80):
        x = QSQRT5.scalar(-luc[n], fib[n])
        assert QSQRT5.sign(x) == (1 if n % 2 else -1)
    assert QQ.sign(Fraction(1, 10 ** 30)) == 1
    assert QQ.sign(0) == 0


def test_sign_needs_a_root_interval():
    bare = Field("Q(phi) without an order", (-1, -1, 1))
    with pytest.raises(ValueError, match="root interval"):
        bare.sign(bare.scalar(0, 1))
    assert bare.sign(bare.zero) == 0


@pytest.mark.parametrize("interval", [(2, 3), (0, 1), (-2, 2), (2, 1)])
def test_field_rejects_interval_without_one_sign_change(interval):
    with pytest.raises(ValueError, match="root interval"):
        Field("Q(phi)", (-1, -1, 1), root_interval=interval)


def test_minimal_polynomial_root():
    for field in (QSQRT5, QCOSPI7, QCOSPI8):
        t = field.scalar(0, 1)
        acc = field.zero
        power = field.one
        for c in field.min_poly:
            acc = acc + power * Fraction(c)
            power = power * t
        assert not acc


def test_canonical_zero():
    assert not QQ.zero
    assert not QSQRT5.scalar(0, 0)
    assert QSQRT5.scalar(0, 1)


def test_scalar_rejects_wrong_coordinate_count():
    for field, coords in ((QQ, (1, 2)), (QQ, ()), (QSQRT5, (1, 2, 3)),
                          (QCOSPI8, (1, 2, 3, 4, 5))):
        with pytest.raises(ValueError):
            field.scalar(*coords)
    assert QSQRT5.scalar(3) == 3
    assert QCOSPI8.scalar(1, 2, 3, 4) == \
        QCOSPI8.scalar(1) + QCOSPI8.scalar(0, 1) * QCOSPI8.scalar(2, 3, 4)
    # a raise, unlike an assert, survives python -O
    code = ("from coxcov.fields import QQ, QSQRT5\n"
            "for f, cs in ((QQ, (1, 2)), (QSQRT5, (1, 2, 3))):\n"
            "    try:\n"
            "        f.scalar(*cs)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(1)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code],
                          env=env).returncode == 0
