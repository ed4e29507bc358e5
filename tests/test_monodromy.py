from fractions import Fraction

import pytest

from hgsearch.monodromy import (
    gj_coefficients,
    levelt_matrices,
    verify_annihilation,
    verify_det_identities,
    verify_infinity_blocks,
    verify_levelt,
    verify_pseudoreflection,
)
from hgsearch.params import parse

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


def test_gj_leading_coefficient_is_one():
    for j in range(1, 4):
        ser = gj_coefficients(P9, j, 5)
        assert ser.coeffs[0] == 1


def test_annihilation_small_order():
    for j in range(1, 4):
        assert verify_annihilation(P9, j, 8)


def test_annihilation_detects_perturbed_series():
    # rerun the recurrence with one coefficient bumped; it must break
    from hgsearch.residues import bracket

    d, j, big_k = P9.d, 2, 8
    ser = gj_coefficients(P9, j, big_k)
    coeffs = list(ser.coeffs)
    coeffs[3] += 1
    b1 = P9.betas[0]
    sb = [bracket(b - b1, d) for b in P9.betas]
    sa = [bracket(a - b1, d) for a in P9.alphas]
    e = ser.exponent
    broke = False
    for k in range(big_k + 1):
        lhs = coeffs[k]
        for x in sb:
            lhs *= e + d * k + x - d
        rhs = Fraction(0)
        if k:
            rhs = coeffs[k - 1]
            for x in sa:
                rhs *= e + d * (k - 1) + x
        if lhs != rhs:
            broke = True
    assert broke


def test_series_coefficient_oracle():
    # c_1 for the j=1 series is prod(num_i)/prod(den_i) with shift 0:
    # nums (9+[a_i-1])/9 = (9+8)/9 three times, dens (9+[b_i-1])/9
    ser = gj_coefficients(P9, 1, 2)
    num = Fraction(17, 9) ** 3
    den = Fraction(9, 9) * Fraction(10, 9) * Fraction(14, 9)
    assert ser.coeffs[1] == num / den
