import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hgsearch.intlattice import NoSolution, lattice_coordinates, smith_form, solve_lattice


def _matmul(a, x):
    return [sum(a[i][j] * x[j] for j in range(len(x))) for i in range(len(a))]


def _matmul_matrix(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _kernel(sf):
    """The columns of V past the rank."""
    return [[row[k] for row in sf.v] for k in range(sf.rank, sf.cols)]


def test_solve_known_system():
    a = [[1, 2], [3, 4]]
    sf = smith_form(a)
    x = solve_lattice(sf, [5, 11])
    assert _matmul(a, x) == [5, 11]


def test_no_integer_solution():
    a = [[2, 0], [0, 2]]
    sf = smith_form(a)
    with pytest.raises(NoSolution):
        solve_lattice(sf, [1, 0])


def test_inconsistent_system():
    a = [[1, 1], [2, 2]]
    sf = smith_form(a)
    with pytest.raises(NoSolution):
        solve_lattice(sf, [1, 3])


def test_kernel_basis_annihilates():
    a = [[1, 2, 3], [2, 4, 6]]
    sf = smith_form(a)
    ker = _kernel(sf)
    assert len(ker) == 2
    for v in ker:
        assert _matmul(a, v) == [0, 0]


matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=300)
@given(matrices, st.data())
def test_solution_of_reachable_rhs(a, data):
    # build b in the image, then the solver must recover a preimage
    n = len(a[0])
    x = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    b = _matmul(a, x)
    sf = smith_form(a)
    y = solve_lattice(sf, b)
    assert _matmul(a, y) == b


@settings(max_examples=200)
@given(matrices)
def test_smith_decomposition_identity(a):
    # U @ A @ V must be diagonal with sf.diag entries followed by zeros
    sf = smith_form(a)
    m, n = len(a), len(a[0])
    ua = [[sum(sf.u[i][k] * a[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    uav = [[sum(ua[i][k] * sf.v[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    for i in range(m):
        for j in range(n):
            want = sf.diag[i] if i == j and i < sf.rank else 0
            assert uav[i][j] == want


@settings(max_examples=200)
@given(matrices, st.data())
def test_kernel_plus_particular_is_general(a, data):
    # any kernel combination added to a particular solution stays a solution
    n = len(a[0])
    x = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    b = _matmul(a, x)
    sf = smith_form(a)
    y = solve_lattice(sf, b)
    for v in _kernel(sf):
        shifted = [y[i] + 2 * v[i] for i in range(n)]
        assert _matmul(a, shifted) == b


def _fraction_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        sel = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        for i in range(rank + 1, len(rows)):
            fac = rows[i][j] / rows[rank][j]
            rows[i] = [x - fac * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _coordinates(a, b):
    sf = smith_form(a)
    return sf, lattice_coordinates(sf, _matmul(sf.u, b))


def _lift(sf, z):
    """V (z, 0): the solution with coordinates z and zero free part."""
    return _matmul(sf.v, z + [0] * (sf.cols - sf.rank))


@st.composite
def _deficient_matrices(draw):
    """Integer matrices up to 6 x 6, on a drawn flag with a last row or a
    last column that combines two others, so that many are rank-deficient."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = [draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)) for _ in range(m)]
    p, q = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    if m > 2 and draw(st.booleans()):
        a[-1] = [p * x + q * y for x, y in zip(a[0], a[1])]
    if n > 2 and draw(st.booleans()):
        for row in a:
            row[-1] = p * row[0] + q * row[1]
    return a


@settings(max_examples=300, deadline=None)
@given(_deficient_matrices(), st.data())
def test_lattice_coordinates_solve_reachable_rhs(a, data):
    # for b = A x the coordinates exist and V (z, 0) solves A x = b
    x = data.draw(st.lists(st.integers(-5, 5), min_size=len(a[0]), max_size=len(a[0])))
    b = _matmul(a, x)
    sf, z = _coordinates(a, b)
    assert z is not None
    assert _matmul(a, _lift(sf, z)) == b


def test_lattice_coordinates_none_exactly_without_solution():
    # b = A x, then nudged at one entry or scaled down by a common factor:
    # whenever coordinates come back they give a solution, and whenever
    # they do not, a search over a small box finds none either.  Both
    # reasons for None (outside the rational span, and a D_i that does not
    # divide y_i) must occur.
    rng = random.Random(15)
    seen = Counter()
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        if m > 2 and rng.random() < 0.4:
            a[-1] = [x + 2 * y for x, y in zip(a[0], a[1])]
        radius = 2 if n <= 3 else 1
        x = [rng.randint(-radius, radius) for _ in range(n)]
        b = _matmul(a, x)
        nudged = list(b)
        nudged[rng.randrange(m)] += rng.choice((-1, 1))
        cases = [b, nudged] + [[v // g for v in b] for g in (2, 3) if all(v % g == 0 for v in b)]
        for rhs in cases:
            sf, z = _coordinates(a, rhs)
            if z is not None:
                assert _matmul(a, _lift(sf, z)) == rhs, (a, rhs)
                seen["solved"] += 1
                continue
            box = itertools.product(range(-radius, radius + 1), repeat=n)
            assert all(_matmul(a, list(t)) != rhs for t in box), (a, rhs)
            spans = _fraction_rank(a) == _fraction_rank([row + [v] for row, v in zip(a, rhs)])
            seen["not divisible" if spans else "outside the span"] += 1
    assert len(seen) == 3 and min(seen.values()) >= 10, seen


def test_smith_form_entries_stay_small():
    # with the first nonzero entry as the pivot, the first matrix's entries
    # grew past two million bits; U A V must stay diagonal and U, V small
    rng = random.Random(6)
    mats = [
        [[6, 6, -5, 3, 6, -5], [-4, 5, 1, -2, 4, 5], [-5, 4, 6, 0, -2, -2],
         [6, -5, 4, -1, 2, 2], [6, -5, -6, -6, 3, -6], [14, -4, -7, 7, -2, -15]],
    ]
    mats += [[[rng.randint(-6, 6) for _ in range(6)] for _ in range(6)] for _ in range(300)]
    for a in mats:
        sf = smith_form(a)
        assert max(abs(x) for row in sf.u + sf.v for x in row).bit_length() <= 64, a
        uav = _matmul_matrix(_matmul_matrix(sf.u, a), sf.v)
        for i, row in enumerate(uav):
            assert row == [sf.diag[i] if i == j and i < sf.rank else 0 for j in range(6)], a
