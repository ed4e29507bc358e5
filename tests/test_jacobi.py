import itertools

import pytest

from hgsearch.cyclo import CycNum, root_of_unity
from hgsearch.jacobi import (
    PrimeFieldCtx,
    ZeroVector,
    _embed,
    _hensel_roots,
    _valuation,
    hodge_newton_check,
    jacobi,
    jacobi2,
    least_prime_above,
    motive_valuations,
)
from hgsearch.params import a_vector, parse
from hgsearch.residues import units
from hgsearch.tables import SPECIAL_ROWS, row_param


class TooLarge(Exception):
    pass


def jacobi_direct(ctx, a_vec):
    """The definitional sum (-1)^m sum_{x_1+...+x_m=-1} prod tau(x_i)^{-a_i},
    the reference for the chain in jacobi (small inputs only)."""
    d, ell = ctx.d, ctx.ell
    m = len(a_vec)
    if m > 3 or ell > 31:
        raise TooLarge("direct summation is gated to m <= 3, l <= 31")
    hist = [0] * d  # hist[e] counts the terms equal to zeta_d^e
    if m == 1:
        x = (-1) % ell
        hist[(-a_vec[0] * ctx.dlog[x]) % d] += 1
    elif m == 2:
        for x1 in range(1, ell):
            x2 = (-1 - x1) % ell
            if x2 == 0:
                continue
            e = (-a_vec[0] * ctx.dlog[x1] - a_vec[1] * ctx.dlog[x2]) % d
            hist[e] += 1
    else:
        for x1 in range(1, ell):
            for x2 in range(1, ell):
                x3 = (-1 - x1 - x2) % ell
                if x3 == 0:
                    continue
                e = (
                    -a_vec[0] * ctx.dlog[x1]
                    - a_vec[1] * ctx.dlog[x2]
                    - a_vec[2] * ctx.dlog[x3]
                ) % d
                hist[e] += 1
    return CycNum(d, hist if m % 2 == 0 else [-c for c in hist])


def test_least_prime_above():
    assert least_prime_above(9) == 19
    assert least_prime_above(4) == 5
    assert least_prime_above(9, lower=20) == 37


def test_ctx_basics():
    for d, ell in ((3, 7), (9, 19), (20, 41), (24, 73), (120, 241)):
        ctx = PrimeFieldCtx(d, ell)
        # dlog is a bijection on the nonzero residues, so g generates
        assert sorted(ctx.dlog[x] for x in range(1, ell)) == list(range(ell - 1))
        assert all(pow(ctx.g, ctx.dlog[x], ell) == x for x in range(1, ell))


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


def _newton_roots(ctx, prec):
    """d-th roots of unity mod l^prec by one Newton lift per unit s of
    g^{s(l-1)/d}: the reference for lifting one root and taking powers."""
    d, ell = ctx.d, ctx.ell
    out = {}
    for s in units(d):
        x = pow(ctx.g, s * (ell - 1) // d, ell)
        k = 1
        while k < prec:
            k = min(2 * k, prec)
            m = ell**k
            x = (x - (pow(x, d, m) - 1) * pow(d * pow(x, d - 1, m), -1, m)) % m
        out[s] = x
    return out


def test_hensel_roots_match_one_lift_per_unit():
    # on every special row's modulus, at the two least primes 1 mod d
    for d in sorted({row.d for row in SPECIAL_ROWS}):
        ell = least_prime_above(d)
        for ell in (ell, least_prime_above(d, lower=ell + 1)):
            ctx = PrimeFieldCtx(d, ell)
            for prec in (1, 2, 5, 40):
                assert _hensel_roots(ctx, prec) == _newton_roots(ctx, prec), (d, ell, prec)


def _reference_valuations(p, ell):
    """motive_valuations read at precision 2d, with the valuation taken on
    the integer itself: twice the precision the Weil bound asks for."""
    d, prec = p.d, 2 * p.d
    ctx = PrimeFieldCtx(d, ell)
    sums = [jacobi(ctx, [(a + b) % d for a in a_vector(p)]) for b in p.betas]
    out = {}
    for s, omega in _hensel_roots(ctx, prec).items():
        vals = []
        for j in sums:
            x = _embed(j, omega, ell**prec)
            assert x != 0
            v = 0
            while x % ell == 0:
                x, v = x // ell, v + 1
            vals.append(v)
        out[s] = sorted(vals)
    return out


def test_valuations_match_a_reference_at_twice_the_precision():
    for row in SPECIAL_ROWS:
        p = row_param(row)
        ell = least_prime_above(p.d)
        vals = motive_valuations(p, ell)
        assert vals == _reference_valuations(p, ell), p.literal()
        assert all(0 <= v <= p.d - 2 for vs in vals.values() for v in vs)


@pytest.mark.parametrize("literal, ell", [("d=84;a=0,0;b=1,41", 337), ("d=120;a=0,0;b=1,59", 241)])
def test_valuations_lie_within_the_weil_bound_past_d_40(literal, ell):
    p = parse(literal)
    vals = motive_valuations(p, ell)
    assert all(0 <= v <= p.d - 2 for vs in vals.values() for v in vs)
    assert max(max(vs) for vs in vals.values()) == p.d // 2


def test_valuation_refuses_zero():
    assert _valuation(19**3 * 5, 19) == 3
    with pytest.raises(RuntimeError):
        _valuation(0, 19)
