"""Exact-arithmetic search and certification of hypergeometric parameters.

Everything runs over Z, Q, or cyclotomic integers; no floating point is
used anywhere in the criteria, the monodromy checks, or the Jacobi sum
machinery.
"""

from .criteria import det_condition, find_c, full_report
from .jacobi import hodge_newton_check
from .monodromy import verify_levelt
from .params import parse

__version__ = "0.1.0"

__all__ = ["det_condition", "find_c", "full_report", "hodge_newton_check", "parse", "verify_levelt"]
