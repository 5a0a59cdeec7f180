import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (assert_canonical, divide_by_linear_form, scalar_add,
                      scalar_mul, scale_by_clear)

from coxcov.fields import QCOSPI7, QCOSPI8, QQ, QSQRT5
from coxcov.poly import Poly


def xvar(i, nv=2, field=QQ):
    return Poly.variable(i, nv, field)


def test_difference_of_squares():
    x, y = xvar(0), xvar(1)
    assert (x + y) * (x - y) == x * x - y * y


def test_add_zero_identity():
    p = xvar(0) * xvar(1) + Poly.constant(3, 2)
    assert p + Poly.zero(2) == p
    assert Poly.zero(2) + p == p


def test_monomial_product():
    assert Poly.monomial((2, 0), 1) * Poly.monomial((0, 2), 1) == \
        Poly.monomial((2, 2), 1)


def _derivative_oracle(p, v):
    """Independent term-by-term differentiation."""
    out = Poly.zero(p.nv, p.field)
    for e, c in p.terms.items():
        for i, k in enumerate(e):
            if k and v[i]:
                e2 = list(e)
                e2[i] -= 1
                out = out + Poly.monomial(tuple(e2), c * k * v[i], p.field)
    return out


def directional_derivative(p, v):
    """Derivative along the coordinate vector v, through Poly.partial."""
    out = Poly.zero(p.nv, p.field)
    for i, vi in enumerate(v):
        if vi:
            out = out + p.partial(i).scale(p.field.coerce(vi))
    return out


def test_directional_derivative_examples():
    x = xvar(0, 1)
    assert directional_derivative(x * x, [1]) == x.scale(2)
    assert directional_derivative(Poly.constant(7, 3), [1, 2, 3]).is_zero()
    # d_{(1,1)}(x^2 y) = 2xy + x^2
    p = Poly.monomial((2, 1), 1)
    expected = _derivative_oracle(p, [Fraction(1), Fraction(1)])
    assert directional_derivative(p, [1, 1]) == expected
    assert expected == Poly.monomial((1, 1), 2) + Poly.monomial((2, 0), 1)


def test_directional_derivative_fuzz_vs_oracle():
    rng = random.Random(3)
    for _ in range(50):
        terms = {tuple(rng.randrange(4) for _ in range(3)):
                 Fraction(rng.randrange(-5, 6) or 1) for _ in range(4)}
        p = Poly(3, QQ, {e: c for e, c in terms.items() if c})
        v = [Fraction(rng.randrange(-2, 3)) for _ in range(3)]
        assert directional_derivative(p, v) == _derivative_oracle(p, v)


def test_divide_by_linear_form_examples():
    x, y = xvar(0), xvar(1)
    assert divide_by_linear_form(x * x - y * y, [1, -1]) == x + y
    assert divide_by_linear_form(Poly.zero(2), [1, -1]).is_zero()
    p = (x.scale(2)) * (x - y) * (x - y)
    q = divide_by_linear_form(p, [1, -1])
    assert q * (x - y) == p


def test_divide_not_divisible():
    x, y = xvar(0), xvar(1)
    with pytest.raises(ValueError, match="not divisible"):
        divide_by_linear_form(x * x + y * y, [1, -1])


def test_divide_back_multiplication_fuzz():
    rng = random.Random(9)
    for _ in range(100):
        nv = rng.choice([2, 3])
        alpha = [Fraction(rng.randrange(-3, 4)) for _ in range(nv)]
        if not any(alpha):
            alpha[0] = Fraction(1)
        form = Poly.linear_form(alpha)
        q = Poly(nv, QQ, {tuple(rng.randrange(3) for _ in range(nv)):
                          Fraction(rng.randrange(-4, 5) or 2)
                          for _ in range(3)})
        p = q * form
        got = divide_by_linear_form(p, alpha)
        assert got * form == p


def test_distributivity_over_extension_fuzz():
    rng = random.Random(21)

    def rand_poly():
        terms = {}
        for _ in range(3):
            e = tuple(rng.randrange(3) for _ in range(2))
            c = QSQRT5.scalar(rng.randrange(-3, 4), rng.randrange(-2, 3))
            if c:
                terms[e] = c
        return Poly(2, QSQRT5, terms)

    for _ in range(40):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) * r == p * r + q * r


def test_mismatched_variables_error():
    for a, b in ((Poly.variable(0, 2), Poly.variable(0, 3)),
                 (Poly.zero(2), Poly.zero(3))):
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            b + a
        with pytest.raises(ValueError):
            a * b
    # a raise, unlike an assert, survives python -O
    code = ("from coxcov.poly import Poly\n"
            "try:\n"
            "    Poly.variable(0, 2) + Poly.variable(0, 3)\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code],
                          env=env).returncode == 0


def test_content_normalization():
    p = Poly(2, QQ, {(2, 0): Fraction(4, 3), (0, 2): Fraction(-2, 3)})
    q = p.content_normalized()
    assert q == Poly(2, QQ, {(2, 0): Fraction(2), (0, 2): Fraction(-1)})


def test_substitute_linear_forms():
    # x -> x + y, y -> y on x^2: (x+y)^2
    p = Poly.monomial((2, 0), 1)
    img = p.substitute([Poly.linear_form([1, 1]), Poly.linear_form([0, 1])])
    x, y = xvar(0), xvar(1)
    assert img == (x + y) * (x + y)


def test_substitute_into_other_variables():
    # y -> x0 + x2 maps K[y] into K[x0, x1, x2]
    img = Poly.monomial((2,), 3).substitute([Poly.linear_form([1, 0, 1])])
    x0, x2 = xvar(0, 3), xvar(2, 3)
    assert img.nv == 3
    assert img == ((x0 + x2) * (x0 + x2)).scale(3)
    with pytest.raises(ValueError, match="images"):
        Poly.monomial((1, 1), 1).substitute([x0])


# -- the integer kernels against the scalar-dict oracles ----------------------

FIELDS = [QQ, QSQRT5, QCOSPI8, QCOSPI7]


def _random_scalar(rng, field):
    return field.scalar(*[Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                          for _ in range(field.degree)])


def _random_poly(rng, field, nv=3, nterms=6, max_exp=3):
    return Poly(nv, field, {tuple(rng.randrange(max_exp + 1)
                                  for _ in range(nv)):
                            _random_scalar(rng, field)
                            for _ in range(nterms)})


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_integer_kernels_match_scalar_oracle(field):
    rng = random.Random(17 + field.degree)
    for _ in range(30):
        p, q = _random_poly(rng, field), _random_poly(rng, field)
        assert_canonical(p)
        assert_canonical(q)
        for got, want in ((p + q, scalar_add(p, q)),
                          (p - q, scalar_add(p, -q)),
                          (p * q, scalar_mul(p, q)),
                          (q * p, scalar_mul(p, q))):
            assert_canonical(got)
            assert got.terms == want
        # cancellation: the zero polynomial, and a sum that loses terms
        for zero in (p - p, p + (-p), p * Poly.zero(3, field)):
            assert_canonical(zero)
            assert zero.is_zero() and zero == Poly.zero(3, field)
        lead = Poly(3, field, dict(list(p.terms.items())[:1]))
        rest = p - lead
        assert_canonical(rest)
        assert rest.terms == scalar_add(p, -lead)
        assert len(rest.num) == len(p.num) - 1
        # scaling by 0, by a negative, by a non-integral rational and by
        # an irrational scalar (over Q a further rational)
        for c in (0, -3, Fraction(-6, 35), _random_scalar(rng, field)):
            got = p.scale(c)
            assert_canonical(got)
            c = field.coerce(c)
            assert got.terms == {e: v * c for e, v in p.terms.items() if c}
        for i in range(3):
            got = p.partial(i)
            assert_canonical(got)
            assert got.terms == {e[:i] + (e[i] - 1,) + e[i + 1:]: v * e[i]
                                 for e, v in p.terms.items() if e[i]}
        assert hash(p + q) == hash(q + p) and p + q == q + p


@pytest.mark.parametrize("field", [QQ, QSQRT5, QCOSPI8],
                         ids=lambda f: f.name)
def test_rational_scale_matches_clear_route(field, monkeypatch):
    # an int or a Fraction scales the numerators directly, without
    # building a Fraction; the route through Field.clear is the oracle,
    # with equal numerators and den
    rng = random.Random(23 + field.degree)
    polys = [_random_poly(rng, field) for _ in range(8)]
    polys.append(Poly.zero(3, field))
    rationals = [0, 1, -1, 7, -12, True, Fraction(0), Fraction(-6, 35),
                 Fraction(5, 4), Fraction(-1, 3)]
    scalars = rationals + [_random_scalar(rng, field) for _ in range(4)]
    for p in polys:
        for c in scalars:
            got, want = p.scale(c), scale_by_clear(p, c)
            assert_canonical(got)
            assert (got.num, got.den) == (want.num, want.den)
    calls = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and calls         # the count does see a Fraction
    calls.clear()
    cheap = [0, 3, -5] + rationals[6:]
    scaled = [p.scale(c) for p in polys for c in cheap]
    monkeypatch.undo()
    assert not calls
    assert scaled == [scale_by_clear(p, c) for p in polys for c in cheap]


def test_common_denominator_is_reduced():
    # 1/2 x + 1/2 x = x: the sum of two canonical forms needs the gcd
    half = Poly.monomial((1, 0), Fraction(1, 2))
    got = half + half
    assert_canonical(got)
    assert (got.num, got.den) == ({(1, 0): 1}, 1)
    # (2/3 x) (3/2 y) = xy, and 3/4 x - 1/4 x = 1/2 x
    got = Poly.monomial((1, 0), Fraction(2, 3)) * \
        Poly.monomial((0, 1), Fraction(3, 2))
    assert (got.num, got.den) == ({(1, 1): 1}, 1)
    got = Poly.monomial((1, 0), Fraction(3, 4)) - \
        Poly.monomial((1, 0), Fraction(1, 4))
    assert (got.num, got.den) == ({(1, 0): 1}, 2)
    # over Q(sqrt5): (1 + sqrt5)/2 x times (-1 + sqrt5)/2 y = xy
    a = QSQRT5.scalar(Fraction(1, 2), Fraction(1, 2))
    b = QSQRT5.scalar(Fraction(-1, 2), Fraction(1, 2))
    got = Poly.monomial((1, 0), a, QSQRT5) * Poly.monomial((0, 1), b, QSQRT5)
    assert (got.num, got.den) == ({(1, 1): (1, 0)}, 1)


def test_integer_coefficient_construction():
    # the form the benchmark kernels build: Poly(4, QQ, {m: int}), read back
    # through len(p.terms) and eval_scalars
    rng = random.Random(4)
    monos = sorted({tuple(rng.randrange(4) for _ in range(4))
                    for _ in range(40)})
    coeffs = [rng.randrange(-9, 10) or 1 for _ in monos]
    p = Poly(4, QQ, dict(zip(monos, coeffs)))
    assert_canonical(p)
    assert p.den == 1 and p.num == dict(zip(monos, coeffs))
    assert len(p.terms) == len(monos)
    assert all(type(c) is Fraction for c in p.terms.values())
    pt = [Fraction(1, 2), Fraction(-2), Fraction(3, 5), Fraction(1)]
    want = sum(c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2]
               * pt[3] ** e[3] for e, c in zip(monos, coeffs))
    assert p.eval_scalars(pt) == want
    # zero values are dropped, and an all-zero dict is the zero polynomial
    assert Poly(2, QQ, {(1, 0): 0, (0, 1): 2}).num == {(0, 1): 2}
    assert Poly(2, QSQRT5, {(1, 0): 0}) == Poly.zero(2, QSQRT5)
