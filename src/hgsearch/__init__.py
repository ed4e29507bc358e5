"""Exact-arithmetic search and certification of hypergeometric parameters.

Everything runs over Z, Q, or cyclotomic integers; no floating point is
used anywhere in the criteria, the monodromy checks, or the Jacobi sum
machinery.
"""

from .criteria import (
    CriteriaReport,
    NonIntegralDegree,
    bm,
    bm_published,
    bm_finite,
    det_condition,
    find_c,
    full_report,
    hodge_degrees,
    is_regular,
    jordan_blocks,
    minimal_admissible_subgroup,
    pseudoreflection_det,
    scaling_stabilizer,
)
from .jacobi import (
    PrimeFieldCtx,
    hodge_newton_check,
    jacobi,
    jacobi2,
    jacobi_direct,
    least_prime_above,
    motive_valuations,
)
from .monodromy import (
    gj_coefficients,
    levelt_matrices,
    verify_annihilation,
    verify_levelt,
)
from .params import HgParam, ValidationError, parse
from .residues import UnitSubgroup, bracket, is_cyclic_ap, unit_subgroups, units
from .search import SearchSpec, find_witness, passing_moduli, run_search
from .tables import (
    EMPTY_PARTITIONS,
    KNOWN_BM_DISCREPANCIES,
    POSSIBLE_D,
    SPECIAL_ROWS,
    check_special_row,
    reproduce_special,
)

__version__ = "0.1.0"

__all__ = [
    "CriteriaReport",
    "EMPTY_PARTITIONS",
    "HgParam",
    "KNOWN_BM_DISCREPANCIES",
    "NonIntegralDegree",
    "POSSIBLE_D",
    "PrimeFieldCtx",
    "SPECIAL_ROWS",
    "SearchSpec",
    "UnitSubgroup",
    "ValidationError",
    "bm",
    "bm_finite",
    "bm_published",
    "bracket",
    "check_special_row",
    "det_condition",
    "find_c",
    "find_witness",
    "full_report",
    "gj_coefficients",
    "hodge_degrees",
    "hodge_newton_check",
    "is_cyclic_ap",
    "is_regular",
    "jacobi",
    "jacobi2",
    "jacobi_direct",
    "jordan_blocks",
    "least_prime_above",
    "levelt_matrices",
    "minimal_admissible_subgroup",
    "motive_valuations",
    "parse",
    "passing_moduli",
    "pseudoreflection_det",
    "reproduce_special",
    "run_search",
    "scaling_stabilizer",
    "unit_subgroups",
    "units",
    "verify_annihilation",
    "verify_levelt",
]
