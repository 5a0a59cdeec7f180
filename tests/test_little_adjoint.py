import json
import os
import subprocess
import sys

import random
from fractions import Fraction

import pytest

from conftest import (act_oracle, coxeter_lengths, seed_scan_oracle,
                      u_action_oracle)

from coxcov.covariants import form_e
from coxcov.differentials import koszul_delta
from coxcov.little_adjoint import (h_invariant_degrees, little_adjoint_suite,
                                   make_g, make_v, split_group,
                                   subgroup_invariants, tilde_invariants,
                                   twisted_pairing, u_target_space,
                                   ubar_decomposition)
from coxcov.poly import Poly

# Degrees of the generators of A^H, by hand: H is generated by one
# reflection class.  For B3 and B4 the class of the coordinate reflections
# gives H = (Z/2)^r and the other class gives H = D_r.
H_DEGREE_TABLE = {
    "B2": {0: (2, 2), 1: (2, 2)},
    "B3": {"coord": (2, 2, 2), "diag": (2, 3, 4)},
    "B4": {"coord": (2, 2, 2, 2), "diag": (2, 4, 4, 6)},
    "I2(4)": {0: (2, 2), 1: (2, 2)},
    "G2": {0: (2, 3), 1: (2, 3)},
    "I2(8)": {0: (2, 4), 1: (2, 4)},
    "F4": {0: (2, 4, 4, 6), 1: (2, 4, 4, 6)},
}


def test_split_orders(stack_of):
    expectations = {
        "B2": (4, 2), "B3": (8, 6), "B4": (16, 24), "G2": (6, 2),
    }
    for code, (h_order, wp_order) in expectations.items():
        g = stack_of(code).group
        split = split_group(g)
        assert len(split.h_elements) == h_order
        assert len(split.wp_elements) == wp_order
        assert len(split.h_elements) * len(split.wp_elements) == g.order


def test_split_requires_two_classes(stack_of):
    with pytest.raises(ValueError, match="length classes"):
        split_group(stack_of("A2").group)


def test_h_invariant_degrees(stack_of):
    split = split_group(stack_of("B2").group)
    psibars = subgroup_invariants(split)
    assert [p.degree() for p in psibars] == [2, 2]
    split_g2 = split_group(stack_of("G2").group)
    assert [p.degree() for p in subgroup_invariants(split_g2)] == [2, 3]


def test_b2_ubar(stack_of):
    st = stack_of("B2")
    split = split_group(st.group)
    dec = ubar_decomposition(split, subgroup_invariants(split))
    assert dec.u_degree == 2
    assert len(dec.u_basis) == 1
    assert len(dec.inv_basis) == 1
    # U spanned by x^2 - y^2 (up to the content normalization)
    y = dec.u_basis[0]
    want = Poly.monomial((2, 0), 1) + Poly.monomial((0, 2), -1)
    assert y == want or y == -want


def test_b2_phi_and_maps(stack_of):
    st = stack_of("B2")
    split = split_group(st.group)
    dec = ubar_decomposition(split, subgroup_invariants(split))
    tilde = tilde_invariants(dec)
    assert [p.degree() for p in tilde.phis] == [4]
    # phi_1 = (x^2-y^2)^2 up to scale
    y = dec.u_basis[0]
    assert tilde.phis[0] == (y * y).content_normalized()
    uspace = u_target_space(st, dec)
    g1 = make_g(st, dec, tilde, uspace, 1)
    v1 = make_v(st, dec, g1, uspace)
    assert g1.total_degree() == 4
    assert v1.total_degree() == 3
    dv = tuple(koszul_delta(st.group, c, st.cb) for c in v1.comps)
    assert dv == g1.comps
    e = form_e(v1, g1)
    sol = st.express_in_p_basis(e)
    assert sol is not None and set(sol.keys()) == {0b10}   # p_2
    assert sol[0b10] != 0


def test_twisted_pairing_invariance(stack_of):
    g = stack_of("G2").group
    p = Poly.monomial((2, 0), 1, g.field)
    q = Poly.monomial((1, 1), 1, g.field)
    for widx in g.simple_indices:
        assert twisted_pairing(g, g.act_poly(widx, p), g.act_poly(widx, q)) \
            == twisted_pairing(g, p, q)


@pytest.mark.parametrize("code", ["B2", "G2", "B3"])
def test_suite_passes(code, stack_of):
    rec = little_adjoint_suite(stack_of(code))
    assert rec.status == "pass", rec.details
    assert rec.details["free_subalgebra"] == \
        [f"p_{i}" for i in range(1, stack_of(code).group.rank)]


def test_suite_both_orientations_dihedral(stack_of):
    for code in ["B2", "G2"]:
        st = stack_of(code)
        for cls in (0, 1):
            rec = little_adjoint_suite(st, use_class=cls)
            assert rec.status == "pass", (code, cls, rec.details)


def test_ungraded_hom_dimension(stack_of):
    from coxcov.molien import graded_multiplicity_series
    for code in ["B2", "G2", "B3"]:
        st = stack_of(code)
        split = split_group(st.group)
        dec = ubar_decomposition(split, subgroup_invariants(split))
        chi = u_target_space(st, dec).character(st.group)
        series = graded_multiplicity_series(st.group, chi)
        assert series.total() == split.r_p * 2 ** st.group.rank


@pytest.mark.parametrize("code", sorted(H_DEGREE_TABLE))
def test_h_degrees_match_table(code, group_of):
    g = group_of(code)
    for use_class in (0, 1):
        split = split_group(g, use_class)
        table = H_DEGREE_TABLE[code]
        if code in ("B3", "B4"):
            size = len(g.reflection_classes[use_class])
            want = table["coord" if size == g.rank else "diag"]
        else:
            want = table[use_class]
        assert h_invariant_degrees(split) == want


@pytest.mark.parametrize("code", ["B2", "G2", "B3", "I2(8)"])
def test_coset_table_matches_scan(code, group_of):
    g = group_of(code)
    for use_class in (0, 1):
        split = split_group(g, use_class)
        for w in range(g.order):
            want = next(x for x in split.wp_elements
                        if g.mul(g.inv(x), w) in split.h_set)
            assert split.quotient[w] == want


@pytest.mark.parametrize("code,sizes", [("B4", [16, 24]), ("F4", [6, 192])])
def test_suite_walks_each_subgroup_once(code, sizes):
    # split_group walks H from its reflections and W_p from all of its
    # own, the walk that the Reynolds means over H and W_p then read
    from coxcov.covariants import CovariantStack
    from coxcov.groups import build_group
    stack = CovariantStack(build_group(code))
    assert little_adjoint_suite(stack).status == "pass"
    assert sorted(map(len, stack.group._walks.values())) == sizes


def test_split_rejects_overlapping_wp(group_of, monkeypatch):
    # a "W_p" of the right order that lies inside H passes the order and
    # normality checks, but its cosets cannot fill the table
    from coxcov.groups import ReflectionGroup
    walk = ReflectionGroup.walk
    found = []

    def inside_h(group, gens):
        out = sorted(walk(group, gens))
        found.append(out)
        return out if len(found) == 1 else found[0][:len(out)]

    monkeypatch.setattr(ReflectionGroup, "walk", inside_h)
    with pytest.raises(ValueError, match="W != W_p H"):
        split_group(group_of("B2"))


def _plant_in_v1(monkeypatch, factor):
    """Scale the map v_1 that little_adjoint_suite builds by ``factor``."""
    import coxcov.little_adjoint as la
    make = la.make_v

    def planted(stack, dec, g, uspace):
        v = make(stack, dec, g, uspace)
        return v.scale(factor) if v.name == "v_1" else v
    monkeypatch.setattr(la, "make_v", planted)


@pytest.mark.parametrize("code", ["B2", "B3"])
def test_doubled_v1_fails(code, stack_of, monkeypatch):
    _plant_in_v1(monkeypatch, 2)
    rec = little_adjoint_suite(stack_of(code))
    assert rec.status == "fail"
    witness = rec.details["witness"]
    assert "delta v_1 != g_1" in witness
    if code == "B3":            # two generators: the E-pattern breaks too
        assert "E(v_1,g_2) != E(v_2,g_1)" in witness


@pytest.mark.parametrize("code", ["B2", "B3"])
def test_zeroed_v1_fails_freeness(code, stack_of, monkeypatch):
    _plant_in_v1(monkeypatch, 0)
    rec = little_adjoint_suite(stack_of(code))
    assert rec.status == "fail"
    assert "free-basis element p_0*v_1 vanished" in rec.details["witness"]


@pytest.mark.parametrize("code,use_class", [
    ("B2", 0), ("B2", 1), ("B3", None), ("B4", None), ("G2", 0), ("G2", 1),
    ("I2(8)", 0), ("I2(8)", 1)])
def test_coset_reynolds_matches_full_average(code, use_class, stack_of):
    # oracle: the mean over all of W; on the H-invariant Vbar it equals the
    # mean over W_p that ubar_decomposition takes
    g = stack_of(code).group
    split = split_group(g, use_class)
    dec = ubar_decomposition(split, subgroup_invariants(split))
    for v in dec.vbar_basis:
        assert g.reynolds(v) == g.reynolds(v, split.wp_elements)


# every catalogue group with two reflection classes, in each orientation
# that split_group accepts
SPLITS = [("B2", 0), ("B2", 1), ("B3", None), ("B4", None), ("I2(4)", 0),
          ("I2(4)", 1), ("G2", 0), ("G2", 1), ("I2(8)", 0), ("I2(8)", 1),
          ("F4", 0), ("F4", 1)]


def _mean_oracle(g, p, elts):
    total = Poly.zero(g.rank, g.field)
    for w in elts:
        total = total + act_oracle(g, w, p)
    return total.scale(Fraction(1, len(elts)))


@pytest.mark.parametrize("code,use_class", SPLITS)
def test_reynolds_matches_substitution_mean(code, use_class, group_of):
    # the breadth-first walk by reflections against the mean of the
    # substitution oracle over W, H and W_p
    g = group_of(code)
    split = split_group(g, use_class)
    rng = random.Random(g.order)
    seeds = []
    for degree in (2, 3, 4):
        e = [0] * g.rank
        for _ in range(degree):
            e[rng.randrange(g.rank)] += 1
        seeds.append(Poly.monomial(tuple(e), rng.randrange(1, 5), g.field))
    for elts in (range(g.order), split.h_elements, split.wp_elements):
        arg = None if elts is range(g.order) else elts
        for p in seeds:
            assert g.reynolds(p, arg) == _mean_oracle(g, p, list(elts))


@pytest.mark.parametrize("code,use_class", SPLITS)
def test_u_action_matrix_matches_per_element_solve(code, use_class,
                                                   group_of):
    g = group_of(code)
    split = split_group(g, use_class)
    dec = ubar_decomposition(split, subgroup_invariants(split))
    if g.order <= 400:
        elts = range(g.order)
    else:
        elts = random.Random(3).sample(range(g.order), 40) + \
            [max(range(g.order), key=coxeter_lengths(g).__getitem__)]
    for w in elts:
        assert dec.u_action_matrix(w) == u_action_oracle(dec, w)


def test_planted_psibar_fails_through_cli_optimized(tmp_path):
    """Under python -O, an H-invariant generator that is not H-invariant
    stops the little-adjoint suite with a FAIL record and exit code 1."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import sys\n"
        "import coxcov.little_adjoint as la\n"
        "from coxcov.cli import main\n"
        "from coxcov.poly import Poly\n"
        "real = la.subgroup_invariants\n"
        "def planted(split):\n"
        "    ps = real(split)\n"
        "    return [ps[0] + Poly.monomial((2, 0), 1)"
        " + Poly.monomial((1, 1), 1)] + ps[1:]\n"
        "la.subgroup_invariants = planted\n"
        f"sys.exit(main(['verify', '--group', 'B2', '--checks',"
        f" 'little-adjoint', '--emit', 'json',"
        f" '--cache-dir', {str(tmp_path)!r}]))\n")
    got = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert got.returncode == 1, got.stderr
    recs = json.loads(got.stdout)["results"]
    assert [r["check"] for r in recs] == ["little-adjoint",
                                          "little-adjoint-swapped"]
    for rec in recs:
        assert rec["status"] == "fail"
        assert rec["details"]["witness"] == ["psibar not H-invariant"]


@pytest.mark.parametrize("code", ["B2", "B3", "B4", "G2", "I2(8)", "F4"])
def test_seed_scans_match_oracle(code, stack_of):
    # the invariants of H averaged over H, and those of the image of W_p
    # on K[U] averaged over its matrices (the mean, as the scan before
    # seed_invariants took it), against the scan oracle
    stack = stack_of(code)
    g = stack.group
    split = split_group(g)
    psibars = subgroup_invariants(split)
    assert psibars == seed_scan_oracle(
        g.rank, g.field, h_invariant_degrees(split),
        lambda p: g.reynolds(p, split.h_elements))
    dec = ubar_decomposition(split, psibars)
    s = len(dec.u_basis)
    mats = list(dict.fromkeys(u_action_oracle(dec, x)
                              for x in split.wp_elements))
    images = [[Poly.linear_form([mat[i][j] for i in range(s)], g.field)
               for j in range(s)] for mat in mats]

    def mean(seed):
        total = Poly.zero(s, g.field)
        for forms in images:
            total = total + seed.substitute(forms)
        return total.scale(Fraction(1, len(images)))

    want = seed_scan_oracle(s, g.field, range(2, s + 2), mean)
    assert want is not None
    assert tilde_invariants(dec).phis_y == want
