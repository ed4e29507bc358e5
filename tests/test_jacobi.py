import itertools

import pytest

from hgsearch.cyclo import CycNum, root_of_unity
from hgsearch.jacobi import (
    PrimeFieldCtx,
    ZeroVector,
    hodge_newton_check,
    jacobi,
    jacobi2,
    jacobi_direct,
    least_prime_above,
    motive_valuations,
)
from hgsearch.params import parse


def test_least_prime_above():
    assert least_prime_above(9) == 19
    assert least_prime_above(4) == 5
    assert least_prime_above(9, lower=20) == 37


def test_ctx_basics():
    ctx = PrimeFieldCtx(3, 7)
    # dlog is a bijection on the nonzero residues
    assert sorted(ctx.dlog[x] for x in range(1, 7)) == list(range(6))
    g = ctx.g
    assert pow(g, 6, 7) == 1
    assert all(pow(g, k, 7) != 1 for k in range(1, 6))


def test_ctx_rejects_a_non_generator():
    assert PrimeFieldCtx(3, 7, generator=3).g == 3
    # 2 has order 3 mod 7, 6 order 2, 1 order 1; 7 is 0 in F_7
    for g in (2, 6, 1, 7):
        with pytest.raises(ValueError, match="does not generate"):
            PrimeFieldCtx(3, 7, generator=g)


def test_jacobi2_absolute_value():
    # |J(a,b)|^2 = ell for nondegenerate pairs: J * conj(J) = ell
    for d, ell in ((3, 7), (4, 5), (5, 11), (6, 7), (9, 19)):
        ctx = PrimeFieldCtx(d, ell)
        for a in range(1, d):
            for b in range(1, d):
                if (a + b) % d == 0:
                    continue
                j = jacobi2(ctx, a, b)
                conj = _conjugate(j, d)
                prod = j * conj
                assert prod == CycNum.from_rational(d, ell), (d, ell, a, b)


def _conjugate(x: CycNum, d: int) -> CycNum:
    # complex conjugation sends zeta to zeta^{-1}
    out = CycNum.zero(d)
    phi_terms = x.coeffs
    for k, c in enumerate(phi_terms):
        if c:
            out = out + CycNum.from_rational(d, c) * root_of_unity(d, (-k) % d)
    return out


def test_chain_matches_direct_exhaustive_small():
    # the product-formula evaluation must agree with brute-force summation
    for d, ell in ((3, 7), (5, 11), (3, 31)):
        ctx = PrimeFieldCtx(d, ell)
        for m in (2, 3):
            for a_vec in itertools.product(range(1, d), repeat=m):
                want = jacobi_direct(ctx, list(a_vec))
                got = jacobi(ctx, list(a_vec))
                assert got == want, (d, ell, a_vec)


def test_chain_matches_direct_degenerate_totals():
    # vectors whose total is 0 mod d exercise the degenerate chain steps
    for d, ell in ((3, 7), (4, 5), (6, 7)):
        ctx = PrimeFieldCtx(d, ell)
        for a_vec in itertools.product(range(1, d), repeat=3):
            if sum(a_vec) % d != 0:
                continue
            assert jacobi(ctx, list(a_vec)) == jacobi_direct(ctx, list(a_vec))


def test_jacobi_rejects_a_zero_component():
    ctx = PrimeFieldCtx(3, 7)
    for a_vec in ([0, 0], [1, 0], [0, 2, 1], [3, 1, 2]):
        with pytest.raises(ZeroVector):
            jacobi(ctx, a_vec)


def test_motive_valuations_match_hodge():
    p = parse("d=9;a=0,0,0;b=1,2,6")
    vals = motive_valuations(p, 19)
    assert sorted(vals[1]) == [2, 3, 4]
    assert hodge_newton_check(p, 19)
