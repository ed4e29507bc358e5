"""Integer rows over Z[zeta_m]: the integer kernels under cyclo, namely the
convolution and reduction behind every product, and the division-free
linear algebra behind rank, unipotent_block_sizes and companion_power.

An element is a list of integer coefficients in Z[X]/(Phi_m), a vector is
a list of elements, and a row is a vector.  A product is an integer
convolution left unreduced until reduce_mod folds it back to deg = phi(m)
coefficients; low holds the nonzero (degree, coefficient) pairs of Phi_m
below its leading 1, as ring gives them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import Sequence

from .residues import units

Low = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, low degree first, computed by dividing
    X^m - 1 by the lower-level cyclotomic polynomials."""
    if m == 1:
        return (-1, 1)
    # start from X^m - 1 and divide off Phi_k for proper divisors k
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for k in range(1, m):
        if m % k == 0:
            num = _polydiv_exact(num, list(cyclotomic_poly(k)))
    return tuple(num)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (remainder must vanish)."""
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coef = num[i + len(den) - 1] // den[-1]
        out[i] = coef
        for j, dj in enumerate(den):
            num[i + j] -= coef * dj
    assert all(x == 0 for x in num), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def ring(m: int) -> tuple[int, tuple[tuple[int, int], ...], tuple[int, ...]]:
    """phi(m); the nonzero coefficients below the leading one of Phi_m, as
    (degree, coefficient) pairs, which reduction mod Phi_m needs; and the
    units k != 1 mod m, whose zeta -> zeta^k are the other conjugations."""
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    low = tuple((j, c) for j, c in enumerate(phi[:deg]) if c)
    return deg, low, tuple(k for k in units(m) if k != 1)


def reduce_mod(num: list[int], deg: int, low: Low) -> list[int]:
    """num mod Phi_m in place, as a list of length deg."""
    if len(num) > deg:
        for i in range(len(num) - 1, deg - 1, -1):
            c = num[i]
            if c:
                base = i - deg
                for j, pj in low:
                    num[base + j] -= c * pj
        del num[deg:]
    elif len(num) < deg:
        num.extend([0] * (deg - len(num)))
    return num


def mac(acc: list[int], u: Sequence[int], v: Sequence[int]) -> None:
    """acc += u * v, unreduced.  The outer loop runs over the nonzero
    coefficients of the sparser factor, so a constant factor only scales."""
    if u.count(0) < v.count(0):
        u, v = v, u
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v, i):
                acc[j] += x * y


def apply(mat: list[list[list[int]]], vec: list[list[int]], deg: int, low: Low) -> list[list[int]]:
    """mat * vec, each entry reduced once."""
    live = [(j, x) for j, x in enumerate(vec) if any(x)]
    out = []
    for row in mat:
        acc = [0] * (2 * deg - 1)
        for j, x in live:
            mac(acc, row[j], x)
        out.append(reduce_mod(acc, deg, low))
    return out


def companion_step(vec: list[list[int]], last: list[list[int]], deg: int, low: Low) -> list[list[int]]:
    """m * vec for the companion matrix m with last column last: vec moved
    down one place, plus its last entry times last."""
    t = vec[-1]
    out = [[0] * deg] + vec[:-1]
    if any(t):
        for i, c in enumerate(last):
            acc = out[i] + [0] * (deg - 1)
            mac(acc, c, t)
            out[i] = reduce_mod(acc, deg, low)
    return out


def echelon(rows: list[list[list[int]]], deg: int, low: Low) -> list[list[list[int]]]:
    """An echelon basis of the span of the rows, by fraction-free
    elimination: below the pivot p_c of the pivot row p, a row r becomes
    p_c r - r_c p, which stays integral and spans with p what r did; each
    row is then divided by its content, the gcd of its coefficients.  A
    rational pivot is preferred, as multiplying by it only scales.  Nothing
    is inverted."""
    basis = []
    rows = [r for r in map(primitive, rows) if r]
    for c in range(len(rows[0]) if rows else 0):
        live = [r for r in rows if any(r[c])]
        if not live:
            continue
        piv = next((r for r in live if not any(r[c][1:])), live[0])
        basis.append(piv)
        a = piv[c]
        rows = [r for r in rows if not any(r[c])]
        for r in live:
            if r is not piv:
                b = [-x for x in r[c]]
                new = r[:c] + [[0] * deg]
                for x, y in zip(r[c + 1 :], piv[c + 1 :]):
                    acc = [0] * (2 * deg - 1)
                    if any(x):
                        mac(acc, a, x)
                    if any(y):
                        mac(acc, b, y)
                    new.append(reduce_mod(acc, deg, low))
                new = primitive(new)
                if new:
                    rows.append(new)
    return basis


def primitive(row: list[list[int]]) -> list[list[int]]:
    """The row divided by its content; [] for a zero row."""
    g = math.gcd(*chain.from_iterable(row))
    if g == 1:
        return row
    if g == 0:
        return []
    return [[c // g for c in x] for x in row]
