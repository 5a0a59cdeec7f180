import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coxcov.fields import QQ, QSQRT5
from coxcov.poly import Poly, divide_by_linear_form


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
