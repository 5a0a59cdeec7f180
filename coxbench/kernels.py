"""Layer kernels: one public coxcov call timed on fixed seeded inputs.

    python3 coxbench/kernels.py --seed N KERNEL [KERNEL ...]

prints one JSON object ``{"metrics": {name: value}, "errors": [...]}``.
Every kernel checks its answer exactly, outside the timed calls, so that
it can never time a wrong result:

* poly.mul_q_ms, poly.mul_int_ms: product of two 84-term degree-6
  polynomials in 4 variables (Fraction, int coefficients), checked by
  evaluation at a seeded rational point;
* fields.algnum_mul_us: products in Q(sqrt5), checked by (a*b)*b^-1 == a;
* coinvariants.nf_poly_f4_d12_ms: F4 normal form of a degree-12
  polynomial, checked by nf(nf(p)) == nf(p) and p - nf(p) in J;
* groups.act_poly_f4_d12_ms: action of an F4 element with no zero matrix
  entry on a degree-12 polynomial, each call on a new element of a group
  whose action caches start empty, checked by (w.p)(x) == p(w^-1 x) at
  two seeded rational points.
  (The round trip act(w^-1, act(w, p)) == p would act on a dense
  455-term image and take over 10 s per element.)
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from fractions import Fraction


def _rational(rng, den=9):
    num = 0
    while not num:
        num = rng.randrange(-9, 10)
    return Fraction(num, rng.randrange(1, den + 1))


def _timed(fn, args_list):
    """Median seconds of fn(*args) over the argument list, and the results."""
    times, results = [], []
    for args in args_list:
        t = time.perf_counter()
        results.append(fn(*args))
        times.append(time.perf_counter() - t)
    return statistics.median(times), results


def _dense_poly(rng, nv, d, coeff):
    from coxcov.coinvariants import monomials_of_degree
    from coxcov.fields import QQ
    from coxcov.poly import Poly
    return Poly(nv, QQ, {m: coeff(rng) for m in monomials_of_degree(nv, d)})


def poly_mul(rng, coeff, reps):
    pairs = [(_dense_poly(rng, 4, 6, coeff), _dense_poly(rng, 4, 6, coeff))
             for _ in range(reps)]
    sec, prods = _timed(lambda a, b: a * b, pairs)
    errors = []
    if any(len(a.terms) != 84 for pair in pairs for a in pair):
        errors.append("kernel input is not 84 terms")
    for (a, b), ab in zip(pairs, prods):
        pt = [_rational(rng) for _ in range(4)]
        if ab.eval_scalars(pt) != a.eval_scalars(pt) * b.eval_scalars(pt):
            errors.append("poly product fails evaluation check")
    return sec * 1e3, errors


def algnum_mul(rng, batch=2000, reps=15):
    from coxcov.fields import QSQRT5
    pairs = [(QSQRT5.scalar(_rational(rng), _rational(rng)),
              QSQRT5.scalar(_rational(rng), _rational(rng)))
             for _ in range(batch)]

    def run_batch():
        return [a * b for a, b in pairs]

    sec, outs = _timed(run_batch, [()] * reps)
    errors = []
    for (a, b), ab in zip(pairs, outs[0]):
        if ab * b.inverse() != a:
            errors.append("AlgNum product fails (a*b)*b^-1 == a")
    return sec / batch * 1e6, errors


def _f4_inputs(rng, n):
    from coxcov.coinvariants import monomials_of_degree
    from coxcov.fields import QQ
    from coxcov.poly import Poly
    monos = monomials_of_degree(4, 12)
    return [Poly(4, QQ, {m: _rational(rng) for m in rng.sample(monos, 30)})
            for _ in range(n)]


def f4_kernels(rng, nf_reps=15, act_reps=5):
    from coxcov.coinvariants import CoinvariantBasis
    from coxcov.groups import build_group, mat_vec
    group = build_group("F4")
    cb = CoinvariantBasis(group)
    polys = _f4_inputs(rng, nf_reps)
    errors = []
    nf_sec, nfs = _timed(cb.nf_poly, [(p,) for p in polys])
    for p, q in zip(polys, nfs):
        if cb.nf_poly(q) != q or not cb.in_j(p - q):
            errors.append("nf_poly fails idempotence or p - nf(p) in J")
    # building the tables fills the action caches of `group` (the
    # invariants are Reynolds averages), so time the action on a new group;
    # signed permutations map monomials to monomials, so sample only the
    # elements whose matrices have no zero entry
    fresh = build_group("F4")
    dense = [i for i, m in enumerate(fresh.elements)
             if all(c for row in m for c in row)]
    elts = rng.sample(dense, act_reps)
    act_sec, imgs = _timed(fresh.act_poly, list(zip(elts, polys)))
    for w, p, img in zip(elts, polys, imgs):
        winv = fresh.elements[fresh.inv(w)]
        for _ in range(2):
            x = [_rational(rng) for _ in range(4)]
            if img.eval_scalars(x) != p.eval_scalars(
                    mat_vec(winv, x, fresh.field)):
                errors.append("(w.p)(x) != p(w^-1 x)")
    return {"coinvariants.nf_poly_f4_d12_ms": nf_sec * 1e3,
            "groups.act_poly_f4_d12_ms": act_sec * 1e3}, errors


def run(names, seed):
    rng = random.Random(seed)
    metrics, errors = {}, []
    for name in names:
        if name == "poly.mul_q_ms":
            metrics[name], errs = poly_mul(rng, _rational, 15)
        elif name == "poly.mul_int_ms":
            metrics[name], errs = poly_mul(
                rng, lambda r: _rational(r, den=1).numerator, 31)
        elif name == "fields.algnum_mul_us":
            metrics[name], errs = algnum_mul(rng)
        elif name == "f4":
            got, errs = f4_kernels(rng)
            metrics.update(got)
        else:
            raise SystemExit(f"unknown kernel {name!r}")
        errors += errs
    return metrics, errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("kernels", nargs="+")
    args = ap.parse_args()
    metrics, errors = run(args.kernels, args.seed)
    print(json.dumps({"metrics": metrics, "errors": errors}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
