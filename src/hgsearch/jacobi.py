"""Jacobi sums over prime fields, their l-adic valuations, and the
Newton-vs-Hodge cross check.

All sums live in Z[zeta_d].  Multi-variable Jacobi sums are assembled by
chaining two-variable sums through Gauss-sum identities, so no arithmetic
ever leaves level d; the normalization constants of the chain are pinned
by the direct definitional sum (see tests).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .criteria import hodge_degrees, is_regular
from .cyclo import CycNum, root_of_unity
from .params import HgParam, a_vector
from .residues import is_prime, prime_divisors, units

# PrimeFieldCtx keeps a discrete-log table of l entries
MAX_ELL = 10**6
# the Hensel lifts and embeddings work modulo l**prec
MAX_PREC = 1000


class DegenerateIndices(Exception):
    pass


class ZeroVector(Exception):
    pass


class TooLarge(Exception):
    pass


class PrecisionExhausted(Exception):
    pass


def least_prime_above(d: int, lower: int = 2) -> int:
    """Smallest prime l >= lower with l = 1 mod d."""
    l = lower + ((1 - lower) % d)
    while not is_prime(l):
        l += d
    return l


class PrimeFieldCtx:
    """Discrete-log tables for F_l with a fixed d-th power character."""

    def __init__(self, d: int, ell: int, generator: Optional[int] = None):
        if ell > MAX_ELL:
            raise ValueError(f"l = {ell} is above the cap {MAX_ELL} on the discrete-log table")
        if (ell - 1) % d != 0:
            raise ValueError(f"{ell} is not 1 mod {d}")
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        self.d = d
        self.ell = ell
        self.g = generator if generator is not None else self._least_primitive_root(ell)
        self.dlog = [0] * ell  # dlog[0] unused
        x = 1
        for k in range(ell - 1):
            self.dlog[x] = k
            x = x * self.g % ell
            if x == 1:
                break
        # a generator's powers first return to 1 at step l - 1
        if x != 1 or k != ell - 2:
            raise ValueError(f"{self.g} does not generate F_{ell}^x")

    @staticmethod
    def _least_primitive_root(ell: int) -> int:
        order_facs = prime_divisors(ell - 1)
        for g in range(2, ell):
            if all(pow(g, (ell - 1) // q, ell) != 1 for q in order_facs):
                return g
        raise RuntimeError("no primitive root found")

    def tau_minus_one_exp(self) -> int:
        return (self.ell - 1) // 2 % self.d


@lru_cache(maxsize=None)
def _zeta_power(d: int, e: int) -> CycNum:
    return root_of_unity(d, e % d)


def jacobi2(ctx: PrimeFieldCtx, a: int, b: int) -> CycNum:
    """-sum_{x != 0,1} tau(x)^{-a} tau(1-x)^{-b}, exact."""
    d, ell = ctx.d, ctx.ell
    if a % d == 0 or b % d == 0 or (a + b) % d == 0:
        raise DegenerateIndices(f"a={a}, b={b} mod {d}")
    coeffs = [0] * d  # coeffs[e]: minus the number of terms equal to zeta_d^e
    for x in range(2, ell):
        coeffs[(-a * ctx.dlog[x] - b * ctx.dlog[(1 - x) % ell]) % d] -= 1
    return CycNum(d, coeffs)


def _gauss_product(ctx: PrimeFieldCtx, a_vec: Sequence[int]) -> Tuple[CycNum, int, int]:
    """Write prod_i g(a_i) = ACC * g(S) * ell^z with ACC in Z[zeta_d].

    Uses g(0) = -1, g(a)g(-a) = tau(-1)^a ell, and
    g(a)g(b) = [-jacobi2(a,b)] g(a+b) for a, b, a+b nonzero.
    """
    d, ell = ctx.d, ctx.ell
    acc = -CycNum.one(d)  # empty product: ACC * g(0) = 1
    s = 0
    z = 0
    tm1 = ctx.tau_minus_one_exp()
    for a in a_vec:
        a %= d
        if s == 0:
            acc = -acc
            s = a
        elif (s + a) % d == 0:
            # g(s)g(-s) = tau(-1)^s ell; re-expressed through g(0) = -1
            acc = -(acc * _zeta_power(d, tm1 * s))
            z += 1
            s = 0
        else:
            acc = acc * (-jacobi2(ctx, s, a))
            s = (s + a) % d
    return acc, s, z


def jacobi(ctx: PrimeFieldCtx, a_vec: Sequence[int]) -> CycNum:
    """J_{a_vec} = (-1)^m sum_{x_1+...+x_m=-1} prod tau(x_i)^{-a_i},
    computed by chaining two-variable sums.  Raises ZeroVector when a
    component is 0 mod d; motive_valuations never builds one, since
    alpha_k != beta_i and the s_k skip every -beta_i."""
    d, ell = ctx.d, ctx.ell
    m = len(a_vec)
    if any(a % d == 0 for a in a_vec):
        raise ZeroVector("a component vanishes mod d")
    # chain the Gauss sums g(chi_a) with chi_a = tau^{-a}
    acc, s, z = _gauss_product(ctx, a_vec)
    sign = -1 if m % 2 else 1
    tm1 = ctx.tau_minus_one_exp()
    chi_m1 = _zeta_power(d, tm1 * (-sum(a_vec)))  # prod_i chi_i(-1)
    if s == 0:
        # prod g = -ACC ell^z; see tests for the empirical pinning of signs
        return sign * chi_m1 * acc * (ell ** (z - 1))
    # prod chi nontrivial: J_std = prod g / g(S) = ACC ell^z
    return sign * chi_m1 * acc * (ell ** z)


def jacobi_direct(ctx: PrimeFieldCtx, a_vec: Sequence[int]) -> CycNum:
    """The definitional sum, for cross-checking the chain (small inputs)."""
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


# ---------------------------------------------------------------------------
# l-adic embeddings and valuations


def _hensel_roots(ctx: PrimeFieldCtx, prec: int) -> Dict[int, int]:
    """d-th roots of unity in Z/l^prec, keyed by unit s: root = lift of
    g^{s(l-1)/d}, with g the generator of ctx, the one its character uses."""
    d, ell = ctx.d, ctx.ell
    base = pow(ctx.g, (ell - 1) // d, ell)
    mod = ell ** prec
    out = {}
    for s in units(d):
        x = pow(base, s, ell)
        k = 1
        while k < prec:
            k = min(2 * k, prec)
            m = ell ** k
            # Newton step for x^d - 1
            fx = (pow(x, d, m) - 1) % m
            dfx = d * pow(x, d - 1, m) % m
            x = (x - fx * pow(dfx, -1, m)) % m
        out[s] = x % mod
    return out


def _embed(v: CycNum, omega: int, mod: int) -> int:
    if v.den != 1:
        raise ValueError("non-integral cyclotomic number")
    acc = 0
    pw = 1
    for c in v.num:
        acc = (acc + c * pw) % mod
        pw = pw * omega % mod
    return acc


def _valuation(x: int, ell: int, cap: int) -> int:
    if x % (ell ** cap) == 0:
        raise PrecisionExhausted(f"valuation cap {cap} reached")
    v = 0
    while x % ell == 0:
        x //= ell
        v += 1
    return v


def motive_valuations(p: HgParam, ell: int, prec: int = 40) -> Dict[int, List[int]]:
    """Per embedding (keyed by unit s), sorted l-adic valuations of the n
    Jacobi sums attached to the parameter."""
    d = p.d
    if (ell - 1) % d != 0:
        raise ValueError("need l = 1 mod d")
    if prec < 1:
        raise ValueError(f"precision must be >= 1, got {prec}")
    if prec > MAX_PREC:
        raise ValueError(f"precision {prec} is above the cap {MAX_PREC}")
    ctx = PrimeFieldCtx(d, ell)
    avec = a_vector(p)
    sums = [jacobi(ctx, [(aj + bi) % d for aj in avec]) for bi in p.betas]
    roots = _hensel_roots(ctx, prec)
    mod = ell ** prec
    out: Dict[int, List[int]] = {}
    for s, omega in roots.items():
        vals = sorted(_valuation(_embed(j, omega, mod), ell, prec) for j in sums)
        out[s] = vals
    return out


def hodge_newton_check(p: HgParam, ell: int, prec: int = 40) -> bool:
    """Shift-invariant match between the Newton valuations (over all
    embeddings) and the Hodge degrees (over all scalings)."""
    return hodge_newton_report(p, ell, prec)[1]


def hodge_newton_report(p: HgParam, ell: int, prec: int = 40) -> Tuple[Dict[int, List[int]], bool]:
    """motive_valuations(p, ell, prec) with hodge_newton_check's verdict on
    them, from one computation of the Jacobi sums."""
    if not is_regular(p):
        raise ValueError("parameter is not regular")
    newton = motive_valuations(p, ell, prec)
    left = sorted(tuple(x - v[0] for x in v) for v in newton.values())
    right = []
    for s in units(p.d):
        h = hodge_degrees(p, s)
        right.append(tuple(x - h[0] for x in h))
    return newton, left == sorted(right)
