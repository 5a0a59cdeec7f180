"""Acceptance criteria, one test per criterion, each printing a pass line.

Every comparison is exact (rational or algebraic-number equality); there
are no numeric tolerances anywhere.  The heavy case throughout is F4.
"""

import json

from conftest import get_stack

from coxcov.cli import main as cli_main
from coxcov.covariants import (constants_table, freeness_check,
                               j2_invariance_check, pr_structure_check,
                               solomon_check)
from coxcov.differentials import differential_identity_suite
from coxcov.lie_bridge import (build_lie, lie_covariant_series, module_model,
                               phi_injectivity_test, reeder_record,
                               tau_harmonic_injectivity,
                               weyl_denominator_check)
from coxcov.little_adjoint import little_adjoint_suite
from coxcov.molien import (covariant_series_product_formula,
                           graded_multiplicity_series, invariants_series)

SUITE = ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
         "I2(5)", "G2", "I2(8)", "F4", "H3"]


def _report(criterion, ok, note):
    line = f"ACCEPTANCE {criterion}: {'pass' if ok else 'FAIL'} - {note}"
    print(line)
    assert ok, line


def test_criterion_1_differential_identities():
    for code in SUITE:
        st = get_stack(code)
        details = differential_identity_suite(st.group, st.cb, seed=2024,
                                              n_samples=50, n_cfg=5)
        assert details["samples"] == 50
        assert details["c_configurations"] == 6
    _report(1, True, "d^2 = delta^2 = D_c^2 = 0 exactly, 50 seeded elements "
                     "x 6 multiplicity configurations, all 12 groups")


def test_criterion_2_solomon():
    for code in SUITE:
        st = get_stack(code)
        rec = solomon_check(st)
        assert rec.status == "pass", (code, rec.details)
        assert rec.details["dim_bw"] == 2 ** st.group.rank
        assert graded_multiplicity_series(
            st.group, st.group.character("trivial")) == \
            invariants_series(st.group)
    _report(2, True, "dim B^W = 2^r and Poincare series = "
                     "prod(1+u^{2d_i-1}), explicit basis and Molien agree")


def test_criterion_3_constants():
    for code in SUITE:
        st = get_stack(code)
        rec = constants_table(st)
        assert rec.status == "pass", (code, rec.details)
        k11 = rec.details["k11"]
        assert k11 == "2" or (isinstance(k11, list) and k11[0] == "2"
                              and all(c == "0" for c in k11[1:])), (code, k11)
    _report(3, True, "E(f,f) = E(u,u) = 0, k-pattern d_i+d_j-2 in degrees, "
                     "k_11 = 2 for every group")


def test_criterion_4_freeness_and_structure():
    for code in SUITE:
        st = get_stack(code)
        free = freeness_check(st)
        assert free.status == "pass", (code, free.details)
        assert graded_multiplicity_series(
            st.group, st.group.character("reflection")) == \
            covariant_series_product_formula(st.group)
        struct = pr_structure_check(st)
        assert struct.status == "pass", (code, struct.details)
    _report(4, True, "freeness ranks match the product formula in every "
                     "degree; p_r-multiplication residuals vanish exactly")


def test_criterion_5_j2_invariance():
    for code in ["B2", "A3", "B3"]:
        rec = j2_invariance_check(get_stack(code), seed=77)
        assert rec.status == "pass", (code, rec.details)
        assert rec.details["perturbed"] >= 1, code
    _report(5, True, "p_i unchanged under psi_i -> psi_i + J^2 "
                     "perturbations for B2, A3, B3")


def test_criterion_6_little_adjoint():
    expected_udeg = {"B2": 2, "B3": 2, "B4": 2, "G2": 3, "F4": 4}
    subalgebras = {}
    for code in ["B2", "B3", "B4", "G2", "F4"]:
        st = get_stack(code)
        rec = little_adjoint_suite(st)
        assert rec.status == "pass", (code, rec.details)
        assert rec.details["u_degree"] == expected_udeg[code]
        assert rec.details["phi_degrees"][-1] == st.group.degrees[-1]
        subalgebras[code] = rec.details["free_subalgebra"]
        assert rec.details["free_subalgebra"] == \
            [f"p_{i}" for i in range(1, st.group.rank)]
    # both orientations for the dihedral members
    for code in ["B2", "G2"]:
        st = get_stack(code)
        rec = little_adjoint_suite(st, use_class=1 - st.group.class_ell,
                                   label="little-adjoint-swapped")
        assert rec.status == "pass", (code, rec.details)
    _report(6, True, "splitting, Vbar = U + Vbar^W with degrees 2 (B_n) / "
                     f"4 (F4), J-tilde equality, delta v = g, m-pattern; "
                     f"free over the exterior algebra on p_1..p_(r-1): "
                     f"{subalgebras}")


def test_criterion_7_reeder_series():
    L1 = build_lie("A1")
    rec = reeder_record(L1, "adjoint")
    assert rec.status == "pass", rec.details
    assert rec.details["weyl_side"] == [0, 1, 1]     # u + u^2
    L2 = build_lie("A2")
    for mod in ("adjoint", "s3c3"):
        rec = reeder_record(L2, mod)
        assert rec.status == "pass", rec.details
    _report(7, True, "Molien series equal brute-force Lambda(g) series: "
                     "sl2 adjoint (u+u^2), sl3 adjoint, sl3 S^3(C^3)")


def test_criterion_8_final_section():
    notes = []
    for code in ("A1", "A2"):
        L = build_lie(code)
        wd = weyl_denominator_check(L)
        assert wd.status == "pass", (code, wd.details)
        if code == "A1":
            assert wd.details["bound_equality"] is True
        ti = tau_harmonic_injectivity(L)
        assert ti.status == "pass", (code, ti.details)
    L1, L2 = build_lie("A1"), build_lie("A2")
    for L, mod in ((L1, "adjoint"), (L2, "adjoint"), (L2, "s3c3")):
        rec = phi_injectivity_test(L, mod)
        assert rec.status == "finding"
        # graded source and target dimensions agree (small modules)
        model = module_model(L, mod)
        lie = lie_covariant_series(L, model)
        wside = graded_multiplicity_series(
            L.weyl, L.weyl.character(model.zero_char))
        assert lie == wside, (L.code, mod)
        notes.append(f"{L.code}/{mod}: rank {rec.details['total_rank']}"
                     f"/{rec.details['total_source']}")
    _report(8, True, "tau(t_alpha) identity, permanent identity and bound "
                     "(equality at A1), tau injective on harmonics; "
                     "Phi^V ranks (finding): " + "; ".join(notes))


def test_criterion_9_determinism(tmp_path, capsys):
    args = ["verify", "--group", "B2", "--group", "A2", "--checks",
            "solomon,constants,freeness,structure,j2-invariance,molien,"
            "differentials", "--seed", "123", "--samples", "5",
            "--emit", "json", "--cache-dir", str(tmp_path)]
    code1 = cli_main(list(args))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(args))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2 and out1.encode() == out2.encode()
    json.loads(out1)
    with capsys.disabled():
        _report(9, True, "identical config and seed give byte-identical "
                         "JSON reports")
