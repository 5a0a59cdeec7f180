"""coxcov: exact verification of coinvariant-algebra covariant modules of
finite reflection groups."""

from .coinvariants import CoinvariantBasis
from .covariants import (CovariantMap, CovariantStack, constants_table,
                         form_e, freeness_check, j2_invariance_check,
                         pr_structure_check, solomon_check)
from .differentials import (DunklParams, de_rham, delta_d_eigenvalue, dunkl,
                            koszul_delta, nabla_s)
from .fields import QQ, QSQRT5, AlgNum, Field
from .groups import ReflectionGroup, build_group
from .little_adjoint import little_adjoint_suite, split_group
from .molien import (GradedSeries, covariant_series_product_formula,
                     graded_multiplicity_series, invariants_series)
from .poly import Poly
from .weil import Weil, wedge_mul

__version__ = "0.1.0"

__all__ = [
    "AlgNum", "CoinvariantBasis", "CovariantMap", "CovariantStack",
    "DunklParams", "Field", "GradedSeries", "Poly", "QQ", "QSQRT5",
    "ReflectionGroup", "Weil", "build_group", "constants_table",
    "covariant_series_product_formula", "de_rham", "delta_d_eigenvalue",
    "dunkl", "form_e", "freeness_check", "graded_multiplicity_series",
    "invariants_series", "j2_invariance_check",
    "koszul_delta", "little_adjoint_suite", "nabla_s", "pr_structure_check",
    "solomon_check", "split_group", "wedge_mul",
]
