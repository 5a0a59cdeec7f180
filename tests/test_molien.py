from fractions import Fraction

import pytest

import coxcov.molien as molien
from coxcov.groups import ClassFunction, build_group
from coxcov.little_adjoint import h_invariant_degrees, split_group
from coxcov.molien import (GradedSeries, _exterior_traces, _u_divide_exact,
                           _u_mul, class_traces,
                           covariant_series_product_formula,
                           graded_multiplicity_series, invariants_series)
from coxcov.reports import CertificationError

# every group the unit layer builds (tests/test_groups.py)
UNIT_GROUPS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "I2(4)", "I2(5)",
               "G2", "I2(7)", "I2(8)", "F4", "H3"]


def test_a1_series(group_of):
    g = group_of("A1")
    assert graded_multiplicity_series(g, g.character("trivial")).as_list() \
        == [1, 0, 0, 1]
    assert graded_multiplicity_series(g, g.character("reflection")).as_list() \
        == [0, 1, 1]


def test_trivial_matches_product(group_of):
    for code in ["A1", "A2", "B2", "G2", "A3", "B3", "I2(5)", "H3"]:
        g = group_of(code)
        assert graded_multiplicity_series(g, g.character("trivial")) == \
            invariants_series(g)


def test_reflection_matches_product(group_of):
    for code in ["A1", "A2", "B2", "G2", "A3", "B3", "I2(5)"]:
        g = group_of(code)
        assert graded_multiplicity_series(g, g.character("reflection")) == \
            covariant_series_product_formula(g)


def test_b2_closed_forms(group_of):
    g = group_of("B2")
    inv = invariants_series(g)
    # (1+u^3)(1+u^7)
    assert inv.as_list() == [1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1]
    cov = covariant_series_product_formula(g)
    # (1+u^3)(u+u^2+u^5+u^6) expanded by hand
    oracle = GradedSeries([1, 0, 0, 1]) * GradedSeries([0, 1, 1, 0, 0, 1, 1])
    assert cov == oracle


def test_specialization_u1(group_of):
    for code in ["A2", "B2", "G2", "B3"]:
        g = group_of(code)
        triv = graded_multiplicity_series(g, g.character("trivial"))
        refl = graded_multiplicity_series(g, g.character("reflection"))
        assert triv.total() == 2 ** g.rank
        assert refl.total() == 2 ** g.rank * g.rank


def test_basis_independence(group_of):
    # B2 standard coordinates and the I2(4) Cartan realization agree
    b2 = group_of("B2")
    i24 = group_of("I2(4)")
    for char in ("trivial", "sign", "reflection"):
        assert graded_multiplicity_series(b2, b2.character(char)) == \
            graded_multiplicity_series(i24, i24.character(char))


def test_sign_series_symmetry(group_of):
    # top coefficient of the sign series sits at the top degree
    g = group_of("A2")
    s = graded_multiplicity_series(g, g.character("sign"))
    assert s.total() == 2 ** g.rank
    assert s.degree() <= 2 * g.n_reflections + g.rank


def test_non_character_rejected(group_of):
    from coxcov.groups import ClassFunction
    from fractions import Fraction
    g = group_of("A2")
    classes = g.conjugacy_classes()
    bad = ClassFunction(g, tuple(Fraction(1, 3) for _ in classes), "bad")
    with pytest.raises(CertificationError, match="not a character"):
        graded_multiplicity_series(g, bad)


def reeder_series_check(name, w_side, lie_side):
    """Exact coefficientwise comparison; a mismatch is a finding."""
    return {"name": name, "equal": w_side == lie_side,
            "weyl_side": w_side.as_list(), "lie_side": lie_side.as_list()}


def test_reeder_series_check_report():
    a = GradedSeries([0, 1, 1])
    b = GradedSeries([0, 1, 1])
    rep = reeder_series_check("demo", a, b)
    assert rep["equal"] is True
    rep2 = reeder_series_check("demo", a, GradedSeries([0, 1]))
    assert rep2["equal"] is False


def test_graded_series_arithmetic():
    a = GradedSeries([1, 2])
    b = GradedSeries([0, 1])
    assert (a + b).as_list() == [1, 3]
    assert (a * b).as_list() == [0, 1, 2]
    assert GradedSeries.monomial(3, 2).as_list() == [0, 0, 0, 2]
    assert GradedSeries([]).as_list() == []


def per_element_series(g, chis):
    """Oracle: the Molien sum over every element of W, one series per
    character; each element's summand is computed once."""
    field = g.field
    numer = [field.one]
    for d in g.degrees:
        fac = [field.zero] * (2 * d + 1)
        fac[0] = field.one
        fac[2 * d] = -field.one
        numer = _u_mul(numer, fac, field)
    top = 2 * g.n_reflections + g.rank
    accs = [[field.zero] * (top + 1) for _ in chis]
    for idx in range(g.order):
        traces = _exterior_traces(g.elements[idx], field)
        det_sq = [field.zero] * (2 * g.rank + 1)
        for k, t in enumerate(traces):
            det_sq[2 * k] = t if k % 2 == 0 else -t
        contrib = _u_mul(traces, _u_divide_exact(numer, det_sq, field), field)
        for chi, acc in zip(chis, accs):
            cw = chi.at(idx)
            for i, c in enumerate(contrib):
                acc[i] = acc[i] + c * cw
    out = []
    for acc in accs:
        coeffs = []
        for c in acc:
            cs = field.coords(c * Fraction(1, g.order))
            assert not any(cs[1:]) and cs[0].denominator == 1
            coeffs.append(int(cs[0]))
        out.append(GradedSeries(coeffs))
    return out


@pytest.mark.parametrize("code", UNIT_GROUPS)
def test_class_sum_matches_per_element_sum(group_of, code):
    """The series from the per-group class factors, for the characters of
    every exterior power of V (trivial, reflection and sign among them)
    and sign x reflection."""
    g = group_of(code)
    chis = [g.character(c) for c in ("trivial", "sign", "reflection")]
    chis += [ClassFunction(g, tuple(t[k] for t in class_traces(g)),
                           f"wedge{k}") for k in range(g.rank + 1)]
    chis.append(ClassFunction(g, tuple(
        a * b for a, b in zip(chis[1].values, chis[2].values)), "sign*refl"))
    want = per_element_series(g, chis)
    for chi, series in zip(chis, want):
        assert graded_multiplicity_series(g, chi) == series, chi.name


@pytest.mark.parametrize("code", ["B3", "I2(8)"])
def test_exterior_traces_once_per_class(code, monkeypatch):
    """Every series and the degrees of A^H read one set of traces."""
    seen = []
    real = molien._exterior_traces

    def counted(w, field):
        seen.append(w)
        return real(w, field)

    monkeypatch.setattr(molien, "_exterior_traces", counted)
    g = build_group(code)
    for name in ("trivial", "sign", "reflection", "trivial"):
        graded_multiplicity_series(g, g.character(name))
    for use_class in (0, 1):
        h_invariant_degrees(split_group(g, use_class))
    assert seen == [g.elements[rep] for rep, _ in g.conjugacy_classes()]
