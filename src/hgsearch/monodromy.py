"""Exact monodromy verification: Levelt companion matrices over Z[zeta_d],
pseudoreflection rank/determinant checks, Jordan structure of the local
monodromy at infinity, and formal verification of the hypergeometric ODE
via the coefficient recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .criteria import jordan_blocks, pseudoreflection_det
from .cyclo import CycMatrix, CycNum, poly_from_roots, root_of_unity, unipotent_block_sizes
from .params import HgParam
from .residues import bracket

# the series coefficients are exact fractions that grow with the order
MAX_ORDER = 1000


@dataclass(frozen=True)
class LeveltPair:
    a: CycMatrix
    b: CycMatrix


def _companion(coeffs: List[CycNum]) -> CycMatrix:
    """Companion matrix of the monic polynomial with the given coefficients
    (constant term first, leading 1 last)."""
    n = len(coeffs) - 1
    level = coeffs[0].level
    zero, one = CycNum.zero(level), CycNum.one(level)
    rows = [[zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = one
    for i in range(n):
        rows[i][n - 1] = -coeffs[i]
    return CycMatrix(level, rows)


def levelt_matrices(p: HgParam) -> LeveltPair:
    ca = poly_from_roots(p.d, p.alphas)
    cb = poly_from_roots(p.d, p.betas)
    return LeveltPair(a=_companion(ca), b=_companion(cb))


@lru_cache(maxsize=1)
def _levelt(p: HgParam) -> tuple[LeveltPair, CycMatrix]:
    """The Levelt pair of p and A^{-1}B.  verify_levelt runs its checks on
    one parameter in a row; keeping the last one lets them share one build."""
    pair = levelt_matrices(p)
    return pair, pair.a.inv() * pair.b


def _char_poly_check(m: CycMatrix, exponents) -> bool:
    # evaluate det(xI - M) at each claimed root; cheap and exact
    n = m.rows
    zero = CycNum.zero(m.level)
    for e in exponents:
        z = root_of_unity(m.level, e)
        shifted = CycMatrix(
            m.level,
            [
                [(z if i == j else zero) - m.entries[i][j] for j in range(n)]
                for i in range(n)
            ],
        )
        if not shifted.det().is_zero():
            return False
    return True


def verify_pseudoreflection(p: HgParam) -> bool:
    """rank(A^{-1}B - I) = 1 and det(A^{-1}B) = +1 (d odd) or -1 (d even)."""
    _, m = _levelt(p)
    if (m - CycMatrix.identity(m.level, p.n)).rank() != 1:
        return False
    want = pseudoreflection_det(p.d)
    return m.det() == CycNum.from_rational(m.level, want)


def verify_infinity_blocks(p: HgParam) -> bool:
    """A^d is unipotent with Jordan block sizes equal to the alpha
    multiplicities."""
    pair, _ = _levelt(p)
    ad = pair.a ** p.d
    return unipotent_block_sizes(ad) == jordan_blocks(p)


def verify_det_identities(p: HgParam) -> bool:
    pair, m = _levelt(p)
    level = pair.a.level
    one = CycNum.one(level)
    if (pair.a.det() ** p.d) != one:
        return False
    if (pair.b.det() ** p.d) != one:
        return False
    return m.det() == CycNum.from_rational(level, pseudoreflection_det(p.d))


# ---------------------------------------------------------------------------
# Formal series solutions


@dataclass(frozen=True)
class TruncSeries:
    exponent: int
    coeffs: Tuple[Fraction, ...]


def gj_coefficients(p: HgParam, j: int, big_k: int) -> TruncSeries:
    """Series G_j: c_k = prod_i ((d+[a_i-b_1]-[b_j-b_1])/d)_k
    / ((d+[b_i-b_1]-[b_j-b_1])/d)_k, leading exponent [b_1-b_j]."""
    if not 1 <= j <= p.n:
        raise ValueError("j out of range")
    if big_k < 0:
        raise ValueError(f"order must be >= 0, got {big_k}")
    if big_k > MAX_ORDER:
        raise ValueError(f"order {big_k} is above the cap {MAX_ORDER}")
    d = p.d
    b1 = p.betas[0]
    bj = p.betas[j - 1]
    sh = bracket(bj - b1, d)
    nums = [Fraction(d + bracket(a - b1, d) - sh, d) for a in p.alphas]
    dens = [Fraction(d + bracket(b - b1, d) - sh, d) for b in p.betas]
    coeffs = []
    c = Fraction(1)
    coeffs.append(c)
    for k in range(1, big_k + 1):
        for z in nums:
            c *= z + (k - 1)
        for z in dens:
            c /= z + (k - 1)
        coeffs.append(c)
    return TruncSeries(exponent=bracket(b1 - bj, d), coeffs=tuple(coeffs))


def verify_annihilation(p: HgParam, j: int, big_k: int) -> bool:
    """Check that t^e G_j(t^d) is formally annihilated by
    prod(theta + [b_i - b_1] - d) - t^d prod(theta + [a_i - b_1]) through
    order K.

    The local exponents of the operator at t=0 are d - [b_i - b_1]; for
    j = 1 that exponent is d, not 0, so the series is checked at effective
    exponent d (equivalently, the stored exponent-0 series starts with
    c_{-1} = 0 shifted by one step).
    """
    d = p.d
    ser = gj_coefficients(p, j, big_k)
    e = d if j == 1 else ser.exponent
    b1 = p.betas[0]
    sb = [bracket(b - b1, d) for b in p.betas]
    sa = [bracket(a - b1, d) for a in p.alphas]
    for k in range(big_k + 1):
        lhs = ser.coeffs[k]
        for x in sb:
            lhs *= e + d * k + x - d
        if k == 0:
            rhs = Fraction(0)
        else:
            rhs = ser.coeffs[k - 1]
            for x in sa:
                rhs *= e + d * (k - 1) + x
        if lhs != rhs:
            return False
    return True


def verify_levelt(p: HgParam) -> bool:
    """Bundle of the exact matrix checks, used by the CLI."""
    pair, _ = _levelt(p)
    if not _char_poly_check(pair.a, p.alphas):
        return False
    if not _char_poly_check(pair.b, p.betas):
        return False
    return (
        verify_pseudoreflection(p)
        and verify_infinity_blocks(p)
        and verify_det_identities(p)
    )
