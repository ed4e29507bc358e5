from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hgsearch import monodromy
from hgsearch.criteria import pseudoreflection_det
from hgsearch.cyclo import CycMatrix, CycNum
from hgsearch.monodromy import (
    LeveltPair,
    TruncSeries,
    companion_power,
    gj_coefficients,
    levelt_matrices,
    verify_annihilation,
    verify_det_identities,
    verify_infinity_blocks,
    verify_levelt,
    verify_pseudoreflection,
)
from hgsearch.params import parse
from hgsearch.residues import bracket
from hgsearch.tables import SPECIAL_ROWS, row_param
from test_cyclo import _valid_params

P9 = parse("d=9;a=0,0,0;b=1,2,6")
P18 = parse("d=18;a=0,0,0,3;b=4,11,16,17")
P21 = parse("d=21;a=0,0,0,0,0;b=1,2,4,15,20")


def test_levelt_shapes():
    pair = levelt_matrices(P9)
    assert pair.a.rows == 3
    assert pair.b.rows == 3


def test_pseudoreflection_rank_one():
    assert verify_pseudoreflection(P9)
    assert verify_pseudoreflection(P18)


def test_infinity_blocks():
    assert verify_infinity_blocks(P9)
    assert verify_infinity_blocks(P18)


def test_det_identities():
    assert verify_det_identities(P9)
    assert verify_det_identities(P18)


def test_levelt_bundle():
    assert verify_levelt(P9)


def test_each_structural_check_fails_on_a_broken_layer(monkeypatch):
    # one mutation per check; each check passes on P18 as it stands
    pair = levelt_matrices(P18)
    assert verify_levelt(P18) and monodromy._char_poly_check(pair.a, P18.alphas)
    real_rank, real_det = CycMatrix.rank, CycMatrix.det
    real_blocks = monodromy.unipotent_block_sizes
    assert real_blocks(pair.a ** P18.d) == [3, 1]

    monkeypatch.setattr(CycMatrix, "rank", lambda m: real_rank(m) + 1)
    assert not monodromy._char_poly_check(pair.a, P18.alphas)
    assert not verify_levelt(P18)
    assert not verify_pseudoreflection(P18)
    monkeypatch.undo()

    monkeypatch.setattr(CycMatrix, "det", lambda m: real_det(m) * 2)
    assert not verify_det_identities(P18)
    monkeypatch.undo()

    monkeypatch.setattr(monodromy, "unipotent_block_sizes", lambda m: real_blocks(m)[::-1])
    assert not verify_infinity_blocks(P18)


def _reference_pseudoreflection(pair, d):
    """The reading through the inverse: A^{-1}B - I has rank 1 and
    det(A^{-1}B) is +1 (d odd) or -1 (d even)."""
    m = pair.a.inv() * pair.b
    if (m - CycMatrix.identity(m.level, m.rows)).rank() != 1:
        return False
    return m.det() == CycNum.from_rational(m.level, pseudoreflection_det(d))


def test_pseudoreflection_matches_inverse_reading_on_special_rows():
    for row in SPECIAL_ROWS:
        p = row_param(row)
        want = _reference_pseudoreflection(levelt_matrices(p), p.d)
        assert (verify_pseudoreflection(p), want) == (True, True), p.literal()


@settings(max_examples=40, deadline=None)
@given(_valid_params(max_d=30, max_n=6))
def test_pseudoreflection_matches_inverse_reading(p):
    want = _reference_pseudoreflection(levelt_matrices(p), p.d)
    assert (verify_pseudoreflection(p), want) == (True, True)


def test_pseudoreflection_refuses_broken_pairs(monkeypatch):
    # B differs from A in two columns; then a singular A, and a B that
    # differs from it in the last column only, so det B = det A = 0
    a, b = levelt_matrices(P9)
    level, n = a.level, a.rows
    zero, one = CycNum.zero(level), CycNum.one(level)
    two_cols = [row[:] for row in b.entries]
    two_cols[0][0] = one
    sing_a = [row[:] for row in a.entries]
    sing_a[0][n - 1] = zero
    sing_b = [row[:] for row in sing_a]
    sing_b[1][n - 1] = sing_b[1][n - 1] + 1
    broken = LeveltPair(a, CycMatrix(level, two_cols))
    singular = LeveltPair(CycMatrix(level, sing_a), CycMatrix(level, sing_b))
    assert not _reference_pseudoreflection(broken, P9.d)
    with pytest.raises(ZeroDivisionError):
        _reference_pseudoreflection(singular, P9.d)
    for pair in (broken, singular):
        monkeypatch.setattr(monodromy, "_levelt", lambda p, pair=pair: pair)
        assert not verify_pseudoreflection(P9)


def test_levelt_checks_invert_nothing(monkeypatch):
    # no CycNum.inv call and no CycMatrix product on the special rows
    calls = {"inv": 0, "mul": 0}
    real_inv, real_mul = CycNum.inv, CycMatrix.__mul__

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(CycNum, "inv", counting("inv", real_inv))
    monkeypatch.setattr(CycMatrix, "__mul__", counting("mul", real_mul))
    monodromy._levelt.cache_clear()
    for row in SPECIAL_ROWS:
        assert verify_levelt(row_param(row))
    assert calls == {"inv": 0, "mul": 0}


def test_gj_leading_coefficient_is_one():
    for j in range(1, 4):
        ser = gj_coefficients(P9, j, 5)
        assert ser.coeffs[0] == 1


def test_annihilation_small_order():
    for j in range(1, 4):
        assert verify_annihilation(P9, j, 8)


def test_annihilation_detects_perturbed_series(monkeypatch):
    # verify_annihilation itself must reject a series with one coefficient
    # bumped, first, middle or last
    big_k = 8
    for j in range(1, P9.n + 1):
        assert verify_annihilation(P9, j, big_k)
        ser = gj_coefficients(P9, j, big_k)
        for k in (0, big_k // 2, big_k):
            coeffs = list(ser.coeffs)
            coeffs[k] += 1
            bumped = TruncSeries(ser.exponent, tuple(coeffs))
            monkeypatch.setattr(monodromy, "gj_coefficients", lambda p, j, K: bumped)
            assert not verify_annihilation(P9, j, big_k)
        monkeypatch.undo()


def _reference_gj(p, j, big_k):
    """The series as the per-factor recurrence built it: c_k = c_{k-1} *
    prod_i (A_i/d + k-1) / prod_i (B_i/d + k-1), one Fraction step per factor."""
    d, b1, bj = p.d, p.betas[0], p.betas[j - 1]
    sh = bracket(bj - b1, d)
    nums = [Fraction(d + bracket(a - b1, d) - sh, d) for a in p.alphas]
    dens = [Fraction(d + bracket(b - b1, d) - sh, d) for b in p.betas]
    coeffs = [Fraction(1)]
    c = Fraction(1)
    for k in range(1, big_k + 1):
        for z in nums:
            c *= z + (k - 1)
        for z in dens:
            c /= z + (k - 1)
        coeffs.append(c)
    return TruncSeries(exponent=bracket(b1 - bj, d), coeffs=tuple(coeffs))


def test_series_matches_reference_on_special_rows():
    for row in SPECIAL_ROWS:
        p = row_param(row)
        for j in range(1, p.n + 1):
            assert gj_coefficients(p, j, 30) == _reference_gj(p, j, 30)
            assert verify_annihilation(p, j, 30)


@settings(max_examples=60, deadline=None)
@given(_valid_params(), st.integers(0, 30), st.data())
def test_series_matches_reference(p, big_k, data):
    j = data.draw(st.integers(1, p.n))
    assert gj_coefficients(p, j, big_k) == _reference_gj(p, j, big_k)
    assert verify_annihilation(p, j, big_k)


def test_series_coefficient_oracle():
    # c_1 for the j=1 series is prod(num_i)/prod(den_i) with shift 0:
    # nums (9+[a_i-1])/9 = (9+8)/9 three times, dens (9+[b_i-1])/9
    ser = gj_coefficients(P9, 1, 2)
    num = Fraction(17, 9) ** 3
    den = Fraction(9, 9) * Fraction(10, 9) * Fraction(14, 9)
    assert ser.coeffs[1] == num / den


def test_companion_power_matches_square_and_multiply_on_special_rows():
    for row in SPECIAL_ROWS:
        p = row_param(row)
        a = levelt_matrices(p).a
        for k in sorted({0, 1, p.n - 1, p.n, p.d, 2 * p.d + 1}):
            assert companion_power(a, k) == a ** k, (p.literal(), k)


def test_companion_power_refuses_other_matrices():
    a = levelt_matrices(row_param(SPECIAL_ROWS[0])).a
    rows = a.entries
    half = CycNum.from_rational(a.level, Fraction(1, 2))
    bumped = [row[:] for row in rows]
    bumped[1][0] = bumped[1][0] + 1
    others = [
        CycMatrix(a.level, [list(col) for col in zip(*rows)]),  # transposed
        CycMatrix(a.level, [row[:-1] + [row[-1] * half] for row in rows]),  # last column not integral
        CycMatrix(a.level, bumped),  # a 2 below the diagonal
        CycMatrix(a.level, rows[:-1]),  # not square
    ]
    for m in others:
        with pytest.raises(ValueError, match="not a companion matrix"):
            companion_power(m, 3)
    with pytest.raises(ValueError, match="negative exponent"):
        companion_power(a, -1)
