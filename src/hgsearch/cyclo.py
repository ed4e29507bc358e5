"""Exact arithmetic and linear algebra over cyclotomic fields Q(zeta_m).

An element is stored as integer numerators over one positive common
denominator: num/den, where num is its coefficient vector in Z[X]/(Phi_m),
length phi(m), and gcd(den, num) = 1, so equality is canonical.  Phi_m is
monic with integer coefficients, so +, - and * are integer convolution plus
one integer reduction (a rational factor only scales), and inv divides the
product of the conjugates by the integer norm.  Fraction appears only where
rationals enter or leave (the constructor, from_rational, coeffs).  No
floating point anywhere: rank and determinant decisions must be exact.

Matrix products, rank and the image chain behind unipotent_block_sizes
run on integer rows (each row over its common denominator) through the
cycrows kernels: a product applies the left factor to each column of the
right one, and rank and the image chain eliminate fraction-free, so they
invert nothing.  det and inv run a forward pass that clears below each
pivot only: det is the product of the pivots times the sign of the row
swaps, and inv runs the pass on [A | I] and finishes by back-substitution.
The integer kernels, convolution and reduction included, live in cycrows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .cycrows import apply, cyclotomic_poly, echelon, mac, reduce_mod, ring


def _cyc(level: int, num: list[int], den: int) -> "CycNum":
    """The element num/den of Q(zeta_level) in canonical form.  num is an
    integer coefficient list of any length; it is reduced in place."""
    deg, low, _ = ring(level)
    reduce_mod(num, deg, low)
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _raw(level, tuple(num), den)


def _raw(level: int, num: tuple[int, ...], den: int) -> "CycNum":
    """The element num/den, with num and den already canonical."""
    out = object.__new__(CycNum)
    out.level, out.num, out.den = level, num, den
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
        return _raw(self.level, tuple(-a for a in self.num), self.den)

    def __mul__(self, other) -> "CycNum":
        """A rational factor scales the other one's numerators; otherwise
        the numerators are convolved and reduced once."""
        other = _coerce(other, self.level)
        self._check(other)
        a, b = self.num, other.num
        if not any(a[1:]):
            a, b = b, a
        if not any(b[1:]):
            k = b[0]
            return _cyc(self.level, [k * x for x in a], self.den * other.den)
        prod = [0] * (len(a) + len(b) - 1)
        mac(prod, a, b)
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
        for k in ring(level)[2] if any(x.num[1:]) else ():
            conj = [0] * level
            for i, c in enumerate(x.num):
                conj[i * k % level] += c
            prod = prod * _cyc(level, conj, 1)
        norm = (x * prod).num[0]
        sign = 1 if norm > 0 else -1
        return _cyc(level, [sign * self.den * c for c in prod.num], sign * norm)

    def __pow__(self, k: int) -> "CycNum":
        return _power(self, k, CycNum.one(self.level))

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


def _power(x, k: int, one):
    """x**k for k >= 0, one being x**0; squares only while bits remain."""
    if k < 0:
        raise ValueError(f"negative exponent {k}: take inv() first")
    out = None
    while k:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if k:
            x = x * x
    return one if out is None else out


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


def _over_common_den(entries: Sequence[CycNum], den: int = 0) -> tuple[list[list[int]], int]:
    """The entries as integer coefficient lists over den, by default their
    least common denominator, and that denominator."""
    den = den or math.lcm(*(x.den for x in entries))
    return [[c * (den // x.den) for c in x.num] for x in entries], den


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

    def _check(self, other: "CycMatrix") -> None:
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return CycMatrix(
            self.level,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __mul__(self, other: "CycMatrix") -> "CycMatrix":
        """Column j of the product is cycrows.apply of the left factor, over
        the common denominator of its entries, to column j of the right one."""
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        level = self.level
        deg, low, _ = ring(level)
        den = math.lcm(*(x.den for row in self.entries for x in row))
        mat = [_over_common_den(row, den)[0] for row in self.entries]
        cols = []
        for col in zip(*other.entries):
            ys, yden = _over_common_den(col)
            cols.append([_cyc(level, x, den * yden) for x in apply(mat, ys, deg, low)])
        return CycMatrix(level, [[col[i] for col in cols] for i in range(self.rows)])

    def __pow__(self, k: int) -> "CycMatrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        return _power(self, k, CycMatrix.identity(self.level, self.rows))

    def rank(self) -> int:
        """The number of rows of an echelon basis of the row space (see
        cycrows.echelon), computed without inverting an entry."""
        deg, low, _ = ring(self.level)
        return len(echelon([_over_common_den(row)[0] for row in self.entries], deg, low))

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
    dim N^k V for N = M - I: there are r_(k-1) - 2 r_k + r_(k+1) blocks of
    size k.  No power of N is formed: the image of N^k is spanned by N
    applied to an echelon basis of the image of N^(k-1), on integer rows
    (N over the common denominator of its entries).  The ranks fall at each
    step until they reach 0, within n steps; a step that keeps the rank
    shows N is not nilpotent."""
    if m.rows != m.cols:
        raise ValueError("block sizes of non-square matrix")
    n, level = m.rows, m.level
    deg, low, _ = ring(level)
    nil = (m - CycMatrix.identity(level, n)).entries
    den = math.lcm(*(x.den for row in nil for x in row))
    nil = [_over_common_den(row, den)[0] for row in nil]
    ranks = [n]
    image = echelon([list(col) for col in zip(*nil)], deg, low)
    while image:
        if len(image) == ranks[-1]:
            raise NotUnipotent("(M - I)^n != 0")
        ranks.append(len(image))
        image = echelon([apply(nil, v, deg, low) for v in image], deg, low)
    ranks += [0] * (n + 2 - len(ranks))
    return [k for k in range(n, 0, -1) for _ in range(ranks[k - 1] - 2 * ranks[k] + ranks[k + 1])]
