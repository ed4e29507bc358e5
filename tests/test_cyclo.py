import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hgsearch.cyclo import (
    CycMatrix,
    CycNum,
    NotUnipotent,
    cyclotomic_poly,
    poly_from_roots,
    root_of_unity,
    unipotent_block_sizes,
)
from hgsearch.monodromy import companion_power, levelt_matrices
from hgsearch.params import validate


def test_cyclotomic_poly_known():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_order():
    z = root_of_unity(9, 1)
    assert (z ** 9) == CycNum.one(9)
    assert not (z ** 3 - CycNum.one(9)).is_zero()


def test_sum_of_all_roots_vanishes():
    for m in (5, 7, 9):
        total = CycNum.zero(m)
        for k in range(m):
            total = total + root_of_unity(m, k)
        assert total.is_zero()


def test_inverse():
    z = root_of_unity(7, 3)
    x = z + CycNum.from_rational(7, Fraction(2))
    assert (x * x.inv() - CycNum.one(7)).is_zero()


def test_poly_from_roots_expansion():
    # (x - z)(x - z^2) over level 3: x^2 - (z + z^2) x + 1 = x^2 + x + 1
    coeffs = poly_from_roots(3, [1, 2])
    assert len(coeffs) == 3
    assert coeffs[0] == CycNum.one(3)
    assert coeffs[1] == CycNum.one(3)
    assert coeffs[2] == CycNum.one(3)


@settings(max_examples=150)
@given(st.integers(2, 12), st.data())
def test_ring_axioms_spotcheck(m, data):
    k1 = data.draw(st.integers(0, m - 1))
    k2 = data.draw(st.integers(0, m - 1))
    q = Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 5)))
    a = root_of_unity(m, k1)
    b = root_of_unity(m, k2) + CycNum.from_rational(m, q)
    assert ((a + b) * (a - b) - (a * a - b * b)).is_zero()
    assert (a * b - b * a).is_zero()


def test_matrix_det_and_inverse():
    z = root_of_unity(5, 1)
    one = CycNum.one(5)
    m = CycMatrix(5, [[one, z], [z, one]])
    d = m.det()
    assert (d - (one - z * z)).is_zero()
    minv = m.inv()
    prod = m * minv
    assert prod == CycMatrix.identity(5, 2)


def test_power_refuses_a_negative_exponent():
    # k >>= 1 stays at -1, so a loop without the guard never ends
    with pytest.raises(ValueError, match="negative exponent"):
        CycMatrix.identity(5, 2) ** -1
    with pytest.raises(ValueError, match="negative exponent"):
        root_of_unity(5, 1) ** -1


def test_matrix_power_squares_only_while_bits_remain(monkeypatch):
    z = root_of_unity(7, 1)
    one, zero = CycNum.one(7), CycNum.zero(7)
    m = CycMatrix(7, [[z, one], [zero, one]])
    real_mul = CycMatrix.__mul__
    calls = []
    monkeypatch.setattr(CycMatrix, "__mul__", lambda a, b: calls.append(1) or real_mul(a, b))
    want = CycMatrix.identity(7, 2)
    for k in range(12):
        calls.clear()
        got = m ** k
        # bit_length - 1 squarings and popcount - 1 products
        assert len(calls) == max(k.bit_length() - 1, 0) + max(bin(k).count("1") - 1, 0), k
        assert got == want, k
        want = real_mul(want, m)


def test_matrix_rank():
    one = CycNum.one(4)
    zero = CycNum.zero(4)
    m = CycMatrix(4, [[one, one], [one, one]])
    assert m.rank() == 1
    assert CycMatrix(4, [[zero, zero], [zero, zero]]).rank() == 0


def test_unipotent_block_sizes():
    one = CycNum.one(3)
    zero = CycNum.zero(3)
    # one Jordan block of size 2 and one of size 1
    m = CycMatrix(3, [[one, one, zero], [zero, one, zero], [zero, zero, one]])
    assert unipotent_block_sizes(m) == [2, 1]
    z = root_of_unity(3, 1)
    bad = CycMatrix(3, [[z, zero], [zero, one]])
    with pytest.raises(NotUnipotent):
        unipotent_block_sizes(bad)


# ---------------------------------------------------------------------------
# Reference: the Fraction-coefficient ring that CycNum replaced.  Elements are
# coefficient tuples in Q[X]/(Phi_m); the inverse solves x*y = 1 through the
# matrix of multiplication by x, independently of cyclo's extended gcd.


class RefCyc:
    def __init__(self, level, coeffs):
        phi = cyclotomic_poly(level)
        deg = len(phi) - 1
        cs = [Fraction(c) for c in coeffs]
        for i in range(len(cs) - 1, deg - 1, -1):
            c = cs[i]
            if c:
                for j in range(deg + 1):
                    cs[i - deg + j] -= c * phi[j]
        cs = cs[:deg]
        self.level = level
        self.coeffs = tuple(cs + [Fraction(0)] * (deg - len(cs)))

    def is_zero(self):
        return not any(self.coeffs)

    def __add__(self, other):
        return RefCyc(self.level, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return RefCyc(self.level, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        prod = [Fraction(0)] * (2 * len(self.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    if y:
                        prod[i + j] += x * y
        return RefCyc(self.level, prod)

    def __eq__(self, other):
        return self.level == other.level and self.coeffs == other.coeffs

    def inv(self):
        deg = len(self.coeffs)
        cols = [(self * RefCyc(self.level, [0] * k + [1])).coeffs for k in range(deg)]
        aug = [[cols[j][i] for j in range(deg)] + [Fraction(int(i == 0))] for i in range(deg)]
        for col in range(deg):
            piv = next(r for r in range(col, deg) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            aug[col] = [x / aug[col][col] for x in aug[col]]
            for r in range(deg):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return RefCyc(self.level, [row[-1] for row in aug])

    def __pow__(self, k):
        base = self if k >= 0 else self.inv()
        out = RefCyc(self.level, [1])
        for _ in range(abs(k)):
            out = out * base
        return out


def _ref(x):
    return RefCyc(x.level, x.coeffs)


def _ref_matrix(m):
    return [[_ref(x) for x in row] for row in m.entries]


def _ref_matmul(a, b):
    level = a[0][0].level
    out = []
    for row in a:
        out_row = []
        for col in zip(*b):
            acc = RefCyc(level, [])
            for x, y in zip(row, col):
                if not (x.is_zero() or y.is_zero()):
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def _ref_eliminated(m):
    """Gauss-Jordan as the Fraction ring ran it: (echelon, rank, det)."""
    m = [row[:] for row in m]
    level = m[0][0].level
    rank, det = 0, RefCyc(level, [1])
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if not m[r][col].is_zero()), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = det * RefCyc(level, [-1])
        det = det * m[rank][col]
        inv = m[rank][col].inv()
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return m, rank, det if rank == len(m) else RefCyc(level, [])


def _ref_block_sizes(m):
    n = len(m)
    level = m[0][0].level
    eye = [[RefCyc(level, [int(i == j)]) for j in range(n)] for i in range(n)]
    nil = [[x - e for x, e in zip(r1, r2)] for r1, r2 in zip(m, eye)]
    powers = [eye]
    for _ in range(n):
        powers.append(_ref_matmul(powers[-1], nil))
    ranks = [_ref_eliminated(p)[1] for p in powers]
    sizes = []
    for k in range(1, n + 1):
        at_least_k1 = ranks[k] - ranks[k + 1] if k < n else 0
        sizes.extend([k] * (ranks[k - 1] - ranks[k] - at_least_k1))
    return sorted(sizes, reverse=True)


def _coeffs_of(m):
    return [[x.coeffs for x in row] for row in (m.entries if isinstance(m, CycMatrix) else m)]


_rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.data())
def test_ring_matches_fraction_reference(level, data):
    deg = len(cyclotomic_poly(level)) - 1
    cx = data.draw(st.lists(_rationals, max_size=2 * deg + 2))  # reduced mod Phi_m
    cy = data.draw(st.lists(_rationals, max_size=deg))
    x, y = CycNum(level, cx), CycNum(level, cy)
    rx, ry = RefCyc(level, cx), RefCyc(level, cy)
    assert x.coeffs == rx.coeffs
    assert (x + y).coeffs == (rx + ry).coeffs
    assert (x - y).coeffs == (rx - ry).coeffs
    assert (x * y).coeffs == (rx * ry).coeffs
    assert (x == y) == (rx == ry)
    assert (x == x + CycNum.zero(level)) and not (x == x + 1)
    k = data.draw(st.integers(-3, 4))
    if k >= 0:
        assert (y ** k).coeffs == (ry ** k).coeffs
    elif not y.is_zero():
        ry_inv = ry.inv()
        assert y.inv().coeffs == ry_inv.coeffs
        with pytest.raises(ValueError, match="negative exponent"):
            y ** k


def _assert_canonical(a, b):
    assert a == b
    assert (a.num, a.den, hash(a)) == (b.num, b.den, hash(b))
    assert a.den > 0 and math.gcd(a.den, *a.num) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.data())
def test_equal_values_are_stored_alike(level, data):
    phi = cyclotomic_poly(level)
    cx = data.draw(st.lists(_rationals, max_size=len(phi)))
    cy = data.draw(st.lists(_rationals, max_size=len(phi)))
    x, y = CycNum(level, cx), CycNum(level, cy)
    # adding a multiple of Phi_m does not change the value
    shift = data.draw(st.lists(st.integers(-5, 5), max_size=3))
    extra = [Fraction(0)] * (len(phi) + len(shift))
    for i, s in enumerate(shift):
        for j, p in enumerate(phi):
            extra[i + j] += s * p
    padded = list(cx) + [Fraction(0)] * (len(extra) - len(cx))
    _assert_canonical(x, CycNum(level, [a + b for a, b in zip(padded, extra)]))
    _assert_canonical(x * y, y * x)
    _assert_canonical((x + y) - y, x)
    q = data.draw(_rationals.filter(bool))
    _assert_canonical(x * q * (1 / q), x)
    _assert_canonical(x - x, CycNum.zero(level))
    if not x.is_zero():
        _assert_canonical(x * x.inv(), CycNum.one(level))


def _matrix(data, level, n, cols=None):
    """An n x cols matrix (square by default) with many zero entries, and
    on a drawn flag a last row or a last column that is a multiple of the
    first."""
    cols = n if cols is None else cols
    zero = CycNum.zero(level)
    entry = st.one_of(st.just(None), st.lists(_rationals, max_size=4))
    drawn = [[data.draw(entry) for _ in range(cols)] for _ in range(n)]
    rows = [[zero if cs is None else CycNum(level, cs) for cs in row] for row in drawn]
    if n > 1 and data.draw(st.booleans()):
        k = CycNum(level, data.draw(st.lists(_rationals, max_size=2)))
        rows[-1] = [k * x for x in rows[0]]  # dependent rows
    if cols > 1 and data.draw(st.booleans()):
        k = CycNum(level, data.draw(st.lists(_rationals, max_size=2)))
        for row in rows:
            row[-1] = k * row[0]  # dependent columns
    return CycMatrix(level, rows)


# levels up to 30 whose phi is at most 12, the largest a special row has
# (d=21): the reference inverse solves a phi x phi system per pivot
_MATRIX_LEVELS = [m for m in range(1, 31) if len(cyclotomic_poly(m)) <= 13]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_MATRIX_LEVELS), st.integers(1, 4), st.data())
def test_matrix_ops_match_fraction_reference(level, n, data):
    a, b = _matrix(data, level, n), _matrix(data, level, n)
    ra, rb = _ref_matrix(a), _ref_matrix(b)
    assert _coeffs_of(a * b) == _coeffs_of(_ref_matmul(ra, rb))
    _, rank, det = _ref_eliminated(ra)
    assert a.rank() == rank
    assert a.det().coeffs == det.coeffs
    if rank < n:
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        eye = [[RefCyc(level, [int(i == j)]) for j in range(n)] for i in range(n)]
        ech, _, _ = _ref_eliminated([r + e for r, e in zip(ra, eye)])
        assert _coeffs_of(a.inv()) == _coeffs_of([row[n:] for row in ech])


_RECTANGLES = [(r, c) for r in range(1, 9) for c in range(1, 9) if r != c and min(r, c) <= 4]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_MATRIX_LEVELS), st.sampled_from(_RECTANGLES), st.data())
def test_rectangular_rank_matches_fraction_reference(level, shape, data):
    a = _matrix(data, level, *shape)
    assert a.rank() == _ref_eliminated(_ref_matrix(a))[1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_MATRIX_LEVELS), st.sampled_from(_RECTANGLES), st.data())
def test_rectangular_product_matches_fraction_reference(level, shape, data):
    a, b = _matrix(data, level, *shape), _matrix(data, level, *shape[::-1])
    ra, rb = _ref_matrix(a), _ref_matrix(b)
    assert _coeffs_of(a * b) == _coeffs_of(_ref_matmul(ra, rb))
    assert _coeffs_of(b * a) == _coeffs_of(_ref_matmul(rb, ra))


def test_empty_products_keep_their_shapes():
    one = CycNum.one(5)
    cases = [([[], []], [], (2, 0)), ([], [], (0, 0)), ([[one, one]], [[], []], (1, 0))]
    for a, b, shape in cases:
        m = CycMatrix(5, a) * CycMatrix(5, b)
        assert (m.rows, m.cols) == shape and m.entries == [[]] * shape[0]


@st.composite
def _valid_params(draw, max_d=14, max_n=4):
    d = draw(st.integers(3, max_d))
    n = draw(st.integers(1, min(max_n, d - 1)))
    betas = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n, unique=True))
    free = [x for x in range(d) if x not in betas]
    alphas = draw(st.lists(st.sampled_from(free), min_size=n - 1, max_size=n - 1))
    last = (math.comb(d, 2) + sum(betas) - sum(alphas)) % d
    assume(last in free)
    return validate(d, alphas + [last], betas)


@settings(max_examples=30, deadline=None)
@given(_valid_params())
def test_levelt_power_and_blocks_match_fraction_reference(p):
    a = levelt_matrices(p).a
    ra = _ref_matrix(a)
    rad = ra
    for _ in range(p.d - 1):
        rad = _ref_matmul(rad, ra)
    ad = a ** p.d
    assert _coeffs_of(ad) == _coeffs_of(rad)
    assert companion_power(a, p.d) == ad
    assert unipotent_block_sizes(ad) == _ref_block_sizes(rad)


def test_matrix_product_refuses_mixed_levels():
    # [[zeta_5]] * [[zeta_7^6]] read zeta_7^6 at level 5 and gave [[-zeta_5]]
    with pytest.raises(ValueError, match="level mismatch"):
        CycMatrix(5, [[root_of_unity(5, 1)]]) * CycMatrix(7, [[root_of_unity(7, 6)]])


def test_matrix_difference_refuses_mixed_shapes_and_levels():
    # zip cut a 3 x 3 minus a 2 x 2 down to a 2 x 2
    with pytest.raises(ValueError, match="dimension mismatch"):
        CycMatrix.identity(5, 3) - CycMatrix.identity(5, 2)
    with pytest.raises(ValueError, match="level mismatch"):
        CycMatrix.identity(5, 2) - CycMatrix.identity(7, 2)


def test_block_sizes_refuse_a_non_square_matrix():
    # a 2 x 3 matrix gave [1, 1]
    one, zero = CycNum.one(5), CycNum.zero(5)
    with pytest.raises(ValueError, match="non-square"):
        unipotent_block_sizes(CycMatrix(5, [[one, zero, zero], [zero, one, zero]]))


def _partitions(n, top):
    """The partitions of n into parts of at most top, largest part first."""
    if n == 0:
        yield []
    for k in range(min(n, top), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k] + rest


def _entry(rng, level):
    """0, +-1, a root of unity or half of one, with equal chances."""
    z = root_of_unity(level, rng.randrange(level))
    return rng.choice([CycNum.zero(level), CycNum.one(level), -CycNum.one(level), z, z * Fraction(1, 2)])


def _conjugated_jordan(rng, level, sizes):
    """P J P^-1 for J the unipotent Jordan matrix with the given block sizes
    and P = L U, L and U unitriangular and bidiagonal with seeded entries."""
    n = sum(sizes)
    one, zero = CycNum.one(level), CycNum.zero(level)
    jordan = [[one if i == j else zero for j in range(n)] for i in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size - 1):
            jordan[i][i + 1] = one
        start += size
    lower = [[one if i == j else _entry(rng, level) if j == i - 1 else zero for j in range(n)] for i in range(n)]
    upper = [[one if i == j else _entry(rng, level) if j == i + 1 else zero for j in range(n)] for i in range(n)]
    p = CycMatrix(level, lower) * CycMatrix(level, upper)
    return p * CycMatrix(level, jordan) * p.inv()


@pytest.mark.parametrize("level", [5, 9, 12, 20])
def test_block_sizes_of_conjugated_jordan_matrices_match_fraction_reference(level):
    rng = random.Random(level)
    for n in range(1, 7):
        for sizes in _partitions(n, n):
            m = _conjugated_jordan(rng, level, sizes)
            assert unipotent_block_sizes(m) == sizes == _ref_block_sizes(_ref_matrix(m)), (n, sizes)
    # a unipotent matrix times zeta on one basis vector is not unipotent
    m = _conjugated_jordan(rng, level, [2, 1])
    m.entries[2] = [x * root_of_unity(level, 1) for x in m.entries[2]]
    with pytest.raises(NotUnipotent):
        unipotent_block_sizes(m)


@pytest.mark.parametrize("level", [5, 9, 12, 20])
def test_rank_of_seeded_low_rank_matrices_matches_fraction_reference(level):
    # X Y with X rows x r and Y r x cols, entries seeded, so rank <= r
    rng = random.Random(100 + level)
    for rows, cols, r in [(2, 2, 1), (3, 3, 2), (4, 4, 2), (5, 5, 3), (6, 6, 5), (3, 6, 2), (6, 3, 2)]:
        x = CycMatrix(level, [[_entry(rng, level) for _ in range(r)] for _ in range(rows)])
        y = CycMatrix(level, [[_entry(rng, level) for _ in range(cols)] for _ in range(r)])
        m = x * y
        assert m.rank() == _ref_eliminated(_ref_matrix(m))[1] <= r, (rows, cols, r)
