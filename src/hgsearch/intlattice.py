"""Exact integer linear algebra: Smith normal form and lattice solving.

Decides integer solvability of A x = b from one Smith form U A V = D of A
(Cohen, A Course in Computational Algebraic Number Theory, GTM 138, 2.4):
with y = U b, a solution exists exactly when y vanishes past the rank and
D_i divides y_i below it, and then x = V z with D z = y[:rank].  The
columns of V past the rank are a basis of the kernel.  Matrices here are
small (tens of rows/columns), so a straightforward SNF with transformation
matrices is plenty.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence


def _identity(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


class SmithForm(NamedTuple):
    """U @ A @ V = S with U, V unimodular and S diagonal (divisibility chain
    is not needed here, only the diagonal-with-zeros shape)."""

    rows: int
    cols: int
    diag: list[int]          # nonzero diagonal entries, length = rank
    u: list[list[int]]       # rows x rows
    v: list[list[int]]       # cols x cols

    @property
    def rank(self) -> int:
        return len(self.diag)


def smith_form(a: list[list[int]]) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations."""
    m = len(a)
    n = len(a[0]) if m else 0
    s = [row[:] for row in a]
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row dst += q * row src
        s[dst] = [x + q * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):  # col dst += q * col src
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < m and t < n:
        # a least nonzero entry of the block left is the pivot, which keeps
        # the quotients small; a first-nonzero pivot can grow the entries
        # of a 6 x 6 matrix with entries in [-6, 6] to millions of bits
        block = [(abs(s[i][j]), i, j) for i in range(t, m) for j in range(t, n) if s[i][j]]
        if not block:
            break
        _, i, j = min(block)
        swap_rows(t, i)
        swap_cols(t, j)
        for i in range(t + 1, m):
            if s[i][t]:
                add_row(t, i, -(s[i][t] // s[t][t]))
        for j in range(t + 1, n):
            if s[t][j]:
                add_col(t, j, -(s[t][j] // s[t][t]))
        if any(s[i][t] for i in range(t + 1, m)) or any(s[t][j] for j in range(t + 1, n)):
            continue  # a remainder, smaller than the pivot, is the next pivot
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    diag = [s[i][i] for i in range(t) if s[i][i] != 0]
    return SmithForm(m, n, diag, u, v)


class NoSolution(Exception):
    """The integer linear system has no solution."""


def lattice_coordinates(sf: SmithForm, y: Sequence[int]) -> Optional[list[int]]:
    """z with D z = y[:rank], for y = U b: the first rank coordinates in
    the basis V of every integer solution of A x = b (the others are free),
    or None when there is none because y is nonzero past the rank (b lies
    outside the rational span) or some D_i does not divide y_i."""
    if any(y[sf.rank :]):
        return None
    z = []
    for yi, di in zip(y, sf.diag):
        q, rem = divmod(yi, di)
        if rem:
            return None
        z.append(q)
    return z


def solve_lattice(sf: SmithForm, b: Sequence[int]) -> list[int]:
    """One integer solution x of A x = b given the Smith form of A.

    Raises NoSolution if none exists.
    """
    z = lattice_coordinates(sf, [sum(a * x for a, x in zip(row, b)) for row in sf.u])
    if z is None:
        raise NoSolution("no integer solution")
    return [sum(a * x for a, x in zip(row, z)) for row in sf.v]
