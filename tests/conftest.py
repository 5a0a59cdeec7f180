import pytest

from coxcov.covariants import CovariantStack
from coxcov.fields import scalar_inverse
from coxcov.groups import build_group
from coxcov.poly import Poly

_GROUPS = {}
_STACKS = {}


def get_group(code, allow_long=False):
    got = _GROUPS.get(code)
    if got is None:
        got = build_group(code, allow_long=allow_long)
        _GROUPS[code] = got
    return got


def get_stack(code):
    got = _STACKS.get(code)
    if got is None:
        got = CovariantStack(get_group(code))
        _STACKS[code] = got
    return got


@pytest.fixture(scope="session")
def group_of():
    return get_group


@pytest.fixture(scope="session")
def stack_of():
    return get_stack


# -- shared oracles -----------------------------------------------------------

def homogeneous_part(p, d):
    """The terms of p of total degree d."""
    return Poly(p.nv, p.field,
                {e: c for e, c in p.terms.items() if sum(e) == d})


def divide_by_linear_form(p, alpha):
    """Exact quotient of p by the linear form sum_i alpha[i] x_i.

    Long division in the last nonzero alpha-coordinate; raises ValueError
    ("not divisible") when a remainder survives.
    """
    field = p.field
    alpha = [field.coerce(a) for a in alpha]
    if not any(alpha):
        raise ValueError("alpha must be nonzero")
    piv = max(i for i, a in enumerate(alpha) if a)
    apiv_inv = scalar_inverse(alpha[piv])
    rest = Poly.linear_form([0 if i == piv else a
                             for i, a in enumerate(alpha)], field)
    if not p.terms:
        return p
    # p as a polynomial in x_piv with Poly coefficients in the other variables
    by_deg = {}
    for e, c in p.terms.items():
        e2 = list(e)
        e2[piv] = 0
        by_deg.setdefault(e[piv], {})[tuple(e2)] = c
    carry = {k: Poly(p.nv, field, t) for k, t in by_deg.items()}
    quot_levels = {}
    for k in range(max(by_deg), 0, -1):
        ck = carry.pop(k, None)
        if ck is None or ck.is_zero():
            continue
        qk = ck.scale(apiv_inv)
        quot_levels[k - 1] = qk
        carry[k - 1] = carry.get(k - 1, Poly.zero(p.nv, field)) - qk * rest
    rem = carry.get(0)
    if rem is not None and not rem.is_zero():
        raise ValueError("not divisible")
    out = {}
    for k, q in quot_levels.items():
        for e, c in q.terms.items():
            e2 = list(e)
            e2[piv] += k
            out[tuple(e2)] = c
    return Poly(p.nv, field, out)
