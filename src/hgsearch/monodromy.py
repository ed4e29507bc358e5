"""Exact monodromy verification: Levelt companion matrices over Z[zeta_d],
pseudoreflection rank/determinant checks, Jordan structure of the local
monodromy at infinity, and formal verification of the hypergeometric ODE
via the coefficient recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Tuple

from .criteria import jordan_blocks, pseudoreflection_det
from .cyclo import CycMatrix, CycNum, poly_from_roots, root_of_unity, unipotent_block_sizes
from .cycrows import companion_step, ring
from .params import HgParam

# the series coefficients are exact fractions that grow with the order
MAX_ORDER = 1000


class LeveltPair(NamedTuple):
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


def companion_power(m: CycMatrix, k: int) -> CycMatrix:
    """m**k for a companion matrix m over Z[zeta], as _companion builds
    them: ones just below the diagonal, zeros elsewhere outside the last
    column, and an integral last column; anything else raises ValueError.
    As m e_j = e_(j+1) for j < n-1, column j of m**k is m**(k+j) e_0, so the
    columns are read off the Krylov walk v_(i+1) = m v_i from v_0 = e_0: a
    shift plus a multiple of the last column, on integer coefficient lists."""
    if k < 0:
        raise ValueError(f"negative exponent {k}: take inv() first")
    n, level = m.rows, m.level
    one, zero = CycNum.one(level), CycNum.zero(level)
    if (
        m.cols != n
        or any(row[-1].den != 1 for row in m.entries)
        or any(m.entries[i][j] != (one if i == j + 1 else zero) for i in range(n) for j in range(n - 1))
    ):
        raise ValueError("not a companion matrix over Z[zeta]")
    deg, low, _ = ring(level)
    last = [list(row[-1].num) for row in m.entries]
    v = [list(one.num)] + [[0] * deg] * (n - 1)
    cols = []
    for i in range(k + n):
        if i:
            v = companion_step(v, last, deg, low)
        if i >= k:
            cols.append(v)
    return CycMatrix(level, [[CycNum(level, col[i]) for col in cols] for i in range(n)])


def levelt_matrices(p: HgParam) -> LeveltPair:
    ca = poly_from_roots(p.d, p.alphas)
    cb = poly_from_roots(p.d, p.betas)
    return LeveltPair(a=_companion(ca), b=_companion(cb))


@lru_cache(maxsize=1)
def _levelt(p: HgParam) -> LeveltPair:
    """The Levelt pair of p.  verify_levelt runs its checks on one parameter
    in a row; keeping the last one lets them share one build."""
    return levelt_matrices(p)


def _char_poly_check(m: CycMatrix, exponents) -> bool:
    # each claimed root z must make zI - M singular; exact, once per
    # distinct root
    n = m.rows
    neg = [[-x for x in row] for row in m.entries]
    for e in set(exponents):
        z = root_of_unity(m.level, e)
        rows = [row[:] for row in neg]
        for i in range(n):
            rows[i][i] = rows[i][i] + z
        if CycMatrix(m.level, rows).rank() == n:
            return False
    return True


def verify_pseudoreflection(p: HgParam) -> bool:
    """A^{-1}B is a pseudoreflection with determinant +1 (d odd) or -1
    (d even), read off B - A with no inverse: A^{-1}B - I = A^{-1}(B - A)
    has rank 1 exactly when B - A has rank 1 and A is invertible, and
    det(A^{-1}B) = det B / det A.

    Holds by construction on every valid parameter: B - A is zero outside
    a last column that the disjoint alphas and betas make nonzero, and the
    determinant ratio is zeta_d^{sum(beta) - sum(alpha)}, fixed by the sum
    rule.  So this tests the cyclo arithmetic, not the criteria."""
    a, b = _levelt(p)
    if (b - a).rank() != 1:
        return False
    det_a = a.det()
    return not det_a.is_zero() and b.det() == det_a * pseudoreflection_det(p.d)


def verify_infinity_blocks(p: HgParam) -> bool:
    """A^d is unipotent with Jordan block sizes equal to the alpha
    multiplicities.  A^d is read off the Krylov walk of the companion
    matrix A (companion_power), and the block sizes off the image chain of
    A^d - I.

    Holds by construction on every valid parameter: a companion matrix is
    cyclic, and J_m(z)^d is a single block in characteristic 0.  So this
    tests the cyclo arithmetic, not the criteria."""
    ad = companion_power(_levelt(p).a, p.d)
    return unipotent_block_sizes(ad) == jordan_blocks(p)


def verify_det_identities(p: HgParam) -> bool:
    """det(A)^d = 1 and det(A^{-1}B) = det(B) det(A)^{-1} = +1 (d odd) or
    -1 (d even); the two give det(B)^d = 1.

    Holds by construction on every valid parameter: the determinants are
    products of d-th roots of unity, and the sum rule fixes their ratio.
    So this tests the cyclo arithmetic, not the criteria."""
    pair = _levelt(p)
    one = CycNum.one(pair.a.level)
    det_a, det_b = pair.a.det(), pair.b.det()
    if det_a ** p.d != one:
        return False
    return det_b == det_a * pseudoreflection_det(p.d)


# ---------------------------------------------------------------------------
# Formal series solutions


class TruncSeries(NamedTuple):
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
    sh = (bj - b1) % d
    # the Pochhammer arguments are A_i/d and B_i/d; d^n cancels in their ratio
    nums = [d + (a - b1) % d - sh for a in p.alphas]
    dens = [d + (b - b1) % d - sh for b in p.betas]
    coeffs = [Fraction(1)]
    for k in range(big_k):
        ratio = Fraction(math.prod(z + d * k for z in nums), math.prod(z + d * k for z in dens))
        coeffs.append(coeffs[-1] * ratio)
    return TruncSeries(exponent=(b1 - bj) % d, coeffs=tuple(coeffs))


def verify_annihilation(p: HgParam, j: int, big_k: int) -> bool:
    """Check that t^e G_j(t^d) is formally annihilated by
    prod(theta + [b_i - b_1] - d) - t^d prod(theta + [a_i - b_1]) through
    order K.

    The local exponents of the operator at t=0 are d - [b_i - b_1]; for
    j = 1 that exponent is d, not 0, so the series is checked at effective
    exponent d (equivalently, the stored exponent-0 series starts with
    c_{-1} = 0 shifted by one step).

    Each order compares c_k P_k with c_(k-1) Q_k, P_k and Q_k the two
    integer products, cross-multiplied by the coefficients' denominators,
    so it is one integer equation.

    Holds by construction on every valid parameter: gj_coefficients steps
    the series by the very ratio the operator asks of consecutive
    coefficients.  So this tests the series code and the recurrence, not
    the criteria.
    """
    d = p.d
    ser = gj_coefficients(p, j, big_k)
    e = d if j == 1 else ser.exponent
    b1 = p.betas[0]
    sb = [(b - b1) % d for b in p.betas]
    sa = [(a - b1) % d for a in p.alphas]
    coeffs = ser.coeffs
    for k in range(big_k + 1):
        step = e + d * k - d
        c = coeffs[k]
        lhs = c.numerator * math.prod(step + x for x in sb)
        rhs = 0
        if k:
            prev = coeffs[k - 1]
            lhs *= prev.denominator
            rhs = prev.numerator * c.denominator * math.prod(step + x for x in sa)
        if lhs != rhs:
            return False
    return True


def verify_levelt(p: HgParam) -> bool:
    """Bundle of the exact matrix checks, used by the CLI.  Each holds by
    construction on every valid parameter (A and B are the companion
    matrices of their exponents), so this tests the cyclo arithmetic, not
    the criteria.  Only jacobi.hodge_newton_check compares a criterion-side
    value with an independent one."""
    pair = _levelt(p)
    if not _char_poly_check(pair.a, p.alphas):
        return False
    if not _char_poly_check(pair.b, p.betas):
        return False
    return (
        verify_pseudoreflection(p)
        and verify_infinity_blocks(p)
        and verify_det_identities(p)
    )
