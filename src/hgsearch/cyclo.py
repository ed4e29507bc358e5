"""Exact arithmetic and linear algebra over cyclotomic fields Q(zeta_m).

An element is stored as integer numerators over one positive common
denominator: num/den, where num is its coefficient vector in Z[X]/(Phi_m),
length phi(m), and gcd(den, num) = 1, so equality is canonical.  Phi_m is
monic with integer coefficients, so +, - and * are integer convolution plus
one integer reduction, and inv divides the product of the conjugates by
the integer norm.  Fraction appears only where rationals enter or leave
(the constructor, from_rational, coeffs).  No floating point anywhere:
rank and determinant decisions must be exact.

Matrices have one elimination, a forward pass that clears below each
pivot only: rank counts the pivots, det is the product of the pivots
times the sign of the row swaps, and inv runs the pass on [A | I] and
finishes by back-substitution.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .residues import units


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
def _ring(m: int) -> tuple[int, tuple[tuple[int, int], ...], tuple[int, ...]]:
    """phi(m); the nonzero coefficients below the leading one of Phi_m, as
    (degree, coefficient) pairs, which reduction mod Phi_m needs; and the
    units k != 1 mod m, whose zeta -> zeta^k are the other conjugations."""
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    low = tuple((j, c) for j, c in enumerate(phi[:deg]) if c)
    return deg, low, tuple(k for k in units(m) if k != 1)


def _cyc(level: int, num: list[int], den: int) -> "CycNum":
    """The element num/den of Q(zeta_level) in canonical form.  num is an
    integer coefficient list of any length; it is reduced in place."""
    deg, low, _ = _ring(level)
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
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    out = object.__new__(CycNum)
    out.level, out.num, out.den = level, tuple(num), den
    return out


class CycNum:
    """An element num/den of Q(zeta_m), reduced mod Phi_m, in lowest terms."""

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coeffs: Sequence[int | Fraction]):
        """The element with the given int or Fraction coefficients, low
        degree first, of any length."""
        den = math.lcm(*(c.denominator for c in coeffs))
        x = _cyc(level, [c.numerator * (den // c.denominator) for c in coeffs], den)
        self.level, self.num, self.den = x.level, x.num, x.den

    # --- constructors -------------------------------------------------
    @staticmethod
    def from_rational(level: int, q) -> "CycNum":
        q = Fraction(q)
        return _cyc(level, [q.numerator], q.denominator)

    @staticmethod
    def zero(level: int) -> "CycNum":
        return _cyc(level, [], 1)

    @staticmethod
    def one(level: int) -> "CycNum":
        return _cyc(level, [1], 1)

    # --- helpers ------------------------------------------------------
    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients, low degree first."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _check(self, other: "CycNum") -> None:
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")

    def is_zero(self) -> bool:
        return not any(self.num)

    # --- arithmetic ---------------------------------------------------
    def __add__(self, other) -> "CycNum":
        return self._plus(other, 1)

    def __sub__(self, other) -> "CycNum":
        return self._plus(other, -1)

    def _plus(self, other, sign: int) -> "CycNum":
        other = _coerce(other, self.level)
        self._check(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return _cyc(self.level, [a * fa + b * fb for a, b in zip(self.num, other.num)], den)

    def __neg__(self) -> "CycNum":
        return _cyc(self.level, [-a for a in self.num], self.den)

    def __mul__(self, other) -> "CycNum":
        other = _coerce(other, self.level)
        self._check(other)
        a, b = self.num, other.num
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _cyc(self.level, prod, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "CycNum":
        """Inverse through the norm: the product P of the conjugates of num
        other than itself has num * P = N(num), a nonzero integer."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        level = self.level
        x = _cyc(level, list(self.num), 1)
        prod = CycNum.one(level)
        # a rational num is already an integer: P = 1 will do
        for k in _ring(level)[2] if any(x.num[1:]) else ():
            conj = [0] * level
            for i, c in enumerate(x.num):
                conj[i * k % level] += c
            prod = prod * _cyc(level, conj, 1)
        norm = (x * prod).num[0]
        sign = 1 if norm > 0 else -1
        return _cyc(level, [sign * self.den * c for c in prod.num], sign * norm)

    def __pow__(self, k: int) -> "CycNum":
        if k < 0:
            raise ValueError(f"negative exponent {k}: take inv() first")
        out = CycNum.one(self.level)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # --- comparison ---------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(self.level, other)
        return (
            isinstance(other, CycNum)
            and self.level == other.level
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.level, self.num, self.den))

    def __repr__(self) -> str:
        terms = [
            f"{c}*z^{i}" if i else f"{c}"
            for i, c in enumerate(self.coeffs)
            if c != 0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"Cyc({self.level}: {body})"


def _coerce(x, level: int) -> CycNum:
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.from_rational(level, x)
    raise TypeError(f"cannot coerce {type(x)} to CycNum")


def root_of_unity(m: int, k: int) -> CycNum:
    """zeta_m^k reduced mod Phi_m."""
    k %= m
    return _cyc(m, [0] * k + [1], 1)


def poly_from_roots(d: int, exponents: Sequence[int]) -> list[CycNum]:
    """Monic polynomial prod(X - zeta_d^e), coefficients low degree first."""
    coeffs = [CycNum.one(d)]
    for e in exponents:
        root = root_of_unity(d, e)
        # multiply by (X - root)
        new = [CycNum.zero(d)] + coeffs
        for i, c in enumerate(coeffs):
            new[i] = new[i] - root * c
        coeffs = new
    return coeffs


def _over_common_den(entries: Sequence[CycNum]) -> tuple[list[list[tuple[int, int]]], int]:
    """The entries as numerators over their least common denominator: per
    entry the nonzero (degree, numerator) pairs, and that denominator."""
    den = math.lcm(*(x.den for x in entries))
    return [[(i, c * (den // x.den)) for i, c in enumerate(x.num) if c] for x in entries], den


class CycMatrix:
    """A rectangular matrix over Q(zeta_m)."""

    __slots__ = ("level", "rows", "cols", "entries")

    def __init__(self, level: int, entries: Sequence[Sequence[CycNum]]):
        self.level = level
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for x in row:
                if x.level != level:
                    raise ValueError("entry level mismatch")

    @staticmethod
    def identity(level: int, n: int) -> "CycMatrix":
        one, zero = CycNum.one(level), CycNum.zero(level)
        return CycMatrix(level, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycMatrix)
            and self.level == other.level
            and self.entries == other.entries
        )

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        return CycMatrix(
            self.level,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __mul__(self, other: "CycMatrix") -> "CycMatrix":
        """Each entry is one integer sum of row-by-column products over the
        common denominator of its row and column, reduced once."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        level = self.level
        width = 2 * _ring(level)[0] - 1
        rows = [_over_common_den(row) for row in self.entries]
        cols = [_over_common_den(col) for col in zip(*other.entries)]
        out = []
        for xs, xden in rows:
            row = []
            for ys, yden in cols:
                acc = [0] * width
                for x, y in zip(xs, ys):
                    if x and y:
                        for i, a in x:
                            for j, b in y:
                                acc[i + j] += a * b
                row.append(_cyc(level, acc, xden * yden))
            out.append(row)
        return CycMatrix(level, out)

    def __pow__(self, k: int) -> "CycMatrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return CycMatrix.identity(self.level, self.rows) if out is None else out

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def rank(self) -> int:
        return _forward([row[:] for row in self.entries], self.cols)[0]

    def det(self) -> CycNum:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        m = [row[:] for row in self.entries]
        rank, sign = _forward(m, self.cols)
        if rank < self.rows:
            return CycNum.zero(self.level)
        det = CycNum.from_rational(self.level, sign)
        for i in range(rank):
            det = det * m[i][i]
        return det

    def inv(self) -> "CycMatrix":
        """Row i of the inverse is (R_i - sum_{j>i} U_ij X_j) / U_ii, where
        [U | R] is [A | I] after the forward pass on A's columns."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        m = [row + e for row, e in zip(self.entries, CycMatrix.identity(self.level, n).entries)]
        if _forward(m, n)[0] < n:
            raise ZeroDivisionError("singular matrix")
        out: list[list[CycNum]] = []  # rows i+1 .. n-1 of the inverse
        for i in range(n - 1, -1, -1):
            row = m[i][n:]
            for u, xj in zip(m[i][i + 1 : n], out):
                if not u.is_zero():
                    row = [x - u * y for x, y in zip(row, xj)]
            inv = m[i][i].inv()
            out.insert(0, [x * inv for x in row])
        return CycMatrix(self.level, out)


def _forward(m: list[list[CycNum]], cols: int) -> tuple[int, int]:
    """Forward elimination in place on the first cols columns of the rows m;
    returns (rank, sign of the row swaps).  A rational pivot is preferred,
    as its inverse is cheap; it is inverted only if a row below needs
    clearing, and such a row changes only right of the pivot column."""
    rows = len(m)
    rank, sign = 0, 1
    for col in range(cols):
        nonzero = [r for r in range(rank, rows) if not m[r][col].is_zero()]
        if not nonzero:
            continue
        piv = next((r for r in nonzero if not any(m[r][col].num[1:])), nonzero[0])
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        prow = m[rank]
        rank += 1
        below = [r for r in range(rank, rows) if not m[r][col].is_zero()]
        if below:
            inv = prow[col].inv()
            right = [c for c in range(col + 1, len(prow)) if not prow[c].is_zero()]
            zero = CycNum.zero(prow[col].level)
            for r in below:
                row = m[r]
                f = row[col] * inv
                row[col] = zero
                for c in right:
                    row[c] = row[c] - f * prow[c]
    return rank, sign


class NotUnipotent(Exception):
    """(M - I)^n != 0 where unipotency was required."""


def unipotent_block_sizes(m: CycMatrix) -> list[int]:
    """Jordan block sizes of a unipotent matrix, largest first, from r_k =
    rank((M-I)^k): there are r_(k-1) - 2 r_k + r_(k+1) blocks of size k."""
    n = m.rows
    powers = [m - CycMatrix.identity(m.level, n)]
    for _ in range(n - 1):
        powers.append(powers[-1] * powers[0])
    if not powers[-1].is_zero():
        raise NotUnipotent("(M - I)^n != 0")
    # r_0 = n and (M-I)^n = 0, so only the powers between are ranked
    ranks = [n] + [p.rank() for p in powers[:-1]] + [0, 0]
    return [k for k in range(n, 0, -1) for _ in range(ranks[k - 1] - 2 * ranks[k] + ranks[k + 1])]
