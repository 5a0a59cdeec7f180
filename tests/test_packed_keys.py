"""Packed monomial keys (``coxcov.poly``): their order, their degree field,
the overflow certificate, and every kernel that runs on them against the
tuple-keyed oracles of ``conftest``, on random inputs for every catalogue
group but H4."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (CATALOGUE, assert_canonical, scalar_taylor, tuple_mul,
                      tuple_nf, tuple_num, tuple_partial)

from coxcov.poly import (DEGREE_MASK, EXPONENT_MASK, MAX_DEGREE, Poly,
                         key_layout, monomials_of_degree, pack, unpack)


def _random_expo(rng, nv, degree):
    """A random exponent tuple in nv variables of the given degree."""
    cuts = sorted(rng.randrange(degree + 1) for _ in range(nv - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


def test_packed_order_is_tuple_order():
    # keys compare as their exponent tuples, for the pivots that
    # SparseSolver takes as min(vec); pack and unpack are inverse, the
    # degree field is the total degree, and keys add as exponents do
    rng = random.Random(35)
    for nv in range(1, 6):
        expos = [_random_expo(rng, nv, rng.randrange(MAX_DEGREE + 1))
                 for _ in range(200)]
        expos += [(0,) * nv, (MAX_DEGREE,) + (0,) * (nv - 1),
                  (0,) * (nv - 1) + (MAX_DEGREE,)]
        for a in expos:
            assert unpack(pack(a), nv) == a
            assert pack(a) & DEGREE_MASK == sum(a)
        for _ in range(2000):
            a, b = rng.choice(expos), rng.choice(expos)
            assert (pack(a) < pack(b)) == (a < b)
            assert (pack(a) == pack(b)) == (a == b)
            if sum(a) + sum(b) <= MAX_DEGREE:
                assert pack(a) + pack(b) == \
                    pack(tuple(x + y for x, y in zip(a, b)))
        assert sorted(map(pack, expos)) == [pack(e) for e in sorted(expos)]
        assert min(map(pack, expos)) == pack(min(expos))
        for i, (shift, one) in enumerate(key_layout(nv)):
            unit = tuple(int(j == i) for j in range(nv))
            assert one == pack(unit)
            assert all(pack(e) >> shift & EXPONENT_MASK == e[i] for e in expos)


def _random_field_poly(rng, g, degrees, nterms):
    field = g.field
    terms = {}
    for _ in range(nterms):
        m = rng.choice(monomials_of_degree(g.rank, rng.choice(degrees)))
        terms[m] = field.scalar(*[Fraction(rng.randrange(-9, 10),
                                           rng.randrange(1, 7))
                                  for _ in range(field.degree)])
    return Poly(g.rank, field, terms)


@pytest.mark.parametrize("code", CATALOGUE)
def test_kernels_match_tuple_oracles(code, stack_of):
    # product, partial, reflect, divided difference and normal form on
    # packed keys, against the same kernels on exponent tuples
    st = stack_of(code)
    g, cb = st.group, st.cb
    rng = random.Random(f"packed-{code}")
    top = cb.top
    roots = [alpha for _, alpha in g.reflections]
    roots = g.simple_roots + rng.sample(roots, min(2, len(roots)))
    for _ in range(6):
        p = _random_field_poly(rng, g, [0, 1, 2, rng.randrange(top + 1)], 4)
        q = _random_field_poly(rng, g, [1, rng.randrange(1, min(top, 8) + 1)],
                               3)
        for got, want in ((p * q, tuple_mul(p, q)),
                          (q * p, tuple_mul(p, q)),
                          (p * p, tuple_mul(p, p))):
            assert_canonical(got)
            assert tuple_num(got) == want
        for i in range(g.rank):
            got = p.partial(i)
            assert_canonical(got)
            assert tuple_num(got) == tuple_partial(p, i)
        for alpha in roots:
            for start, kernel in ((0, g.reflect), (1, g.divided_difference)):
                got = kernel(alpha, q)
                assert_canonical(got)
                assert got.terms == scalar_taylor(g, alpha, q, start)
        r = p * q + _random_field_poly(rng, g, [top, top + 1], 2)
        for x in (p, q, r):
            got = cb.nf_poly(x)
            assert_canonical(got)
            assert tuple_num(got) == tuple_nf(cb, x)


def test_planted_overflow_raises_optimized():
    """Under python -O, a monomial past MAX_DEGREE raises a
    CertificationError where it would be made, by pack or by a product,
    over Q and over Q(sqrt5), and never carries into the next variable's
    field; up to MAX_DEGREE every exponent reads back whole."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = (
        "import sys\n"
        "from coxcov.fields import QQ, QSQRT5\n"
        "from coxcov.poly import MAX_DEGREE, Poly, pack\n"
        "from coxcov.reports import CertificationError\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit(5)\n"
        "x = Poly.monomial((100, 0), 1)\n"
        "if (x * Poly.monomial((27, 0), 1)).terms != {(127, 0): 1}:\n"
        "    raise SystemExit(6)\n"
        "if (Poly.monomial((0, 63), 1) * Poly.monomial((0, 64), 1)).terms \\\n"
        "        != {(0, 127): 1}:\n"
        "    raise SystemExit(7)\n"
        "runs = (lambda: x * Poly.monomial((28, 0), 1),\n"
        "        lambda: Poly.monomial((0, 64), 1, QSQRT5)\n"
        "        * Poly.monomial((0, 64), QSQRT5.scalar(1, 1), QSQRT5),\n"
        "        lambda: (Poly.variable(1, 2) + Poly.variable(0, 2)) ** 128,\n"
        "        lambda: pack((0, 128)),\n"
        "        lambda: Poly(2, QQ, {(64, 64): 1}))\n"
        "for run in runs:\n"
        "    try:\n"
        "        run()\n"
        "    except CertificationError as err:\n"
        "        print(err)\n"
        "    else:\n"
        "        raise SystemExit(4)\n"
        "raise SystemExit(3)\n")
    got = subprocess.run([sys.executable, "-O", "-c", child],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 3, got.stderr
    assert got.stdout.splitlines() == 3 * ["product past degree 127"] + [
        "monomial (0, 128) past degree 127",
        "monomial (64, 64) past degree 127"]


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ValueError, match="length 2"):
        Poly(2, Poly.zero(1).field, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        pack((1, -1))


def test_partial_reads_whole_exponents():
    # exponents past 63 use all 7 bits of their field
    p = Poly.monomial((100, 27), 1) + Poly.monomial((0, 127), 3)
    assert tuple_num(p.partial(0)) == tuple_partial(p, 0) == \
        ({(99, 27): 100}, 1)
    assert tuple_num(p.partial(1)) == tuple_partial(p, 1) == \
        ({(100, 26): 27, (0, 126): 381}, 1)
