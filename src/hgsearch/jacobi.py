"""Jacobi sums over prime fields, their l-adic valuations, and the
Newton-vs-Hodge cross check.

All sums live in Z[zeta_d].  Multi-variable Jacobi sums are assembled by
chaining two-variable sums through Gauss-sum identities, so no arithmetic
ever leaves level d; jacobi's docstring derives the normalization of the
chain, and tests/test_jacobi.py checks it against the definitional sum.

Valuations are read modulo l^d, which is enough: each of a parameter's n
sums is a Jacobi sum of d characters tau^{-a_k} (a_vector shifted by a
beta), none trivial and with trivial product as the a_k sum to 0 mod d.
So J * conj(J) = l^(d-2) (Berndt-Evans-Williams, Gauss and Jacobi Sums,
1998), and with conj(J) integral every valuation of J lies in [0, d-2].
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .criteria import hodge_degrees, is_regular
from .cyclo import CycNum, root_of_unity
from .params import HgParam, a_vector
from .residues import is_prime, prime_divisors, units

# PrimeFieldCtx keeps a discrete-log table of l entries
MAX_ELL = 10**6

# jacobi2 keeps its sums keyed by (d, l, a mod d, b mod d) with a <= b, as
# J(a, b) = J(b, a) (x -> 1 - x) and l fixes the generator; the 19 special
# rows need 712 sums for 1,272 calls.  A full memo is emptied.
JACOBI2_MEMO_MAX = 4096
_jacobi2_memo: Dict[Tuple[int, int, int, int], CycNum] = {}


class DegenerateIndices(Exception):
    pass


class ZeroVector(Exception):
    pass


def least_prime_above(d: int, lower: int = 2) -> int:
    """Smallest prime l >= lower with l = 1 mod d."""
    l = lower + ((1 - lower) % d)
    while not is_prime(l):
        l += d
    return l


class PrimeFieldCtx:
    """Discrete-log tables for F_l with a fixed d-th power character."""

    def __init__(self, d: int, ell: int):
        if ell > MAX_ELL:
            raise ValueError(f"l = {ell} is above the cap {MAX_ELL} on the discrete-log table")
        if (ell - 1) % d != 0:
            raise ValueError(f"{ell} is not 1 mod {d}")
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        self.d = d
        self.ell = ell
        self.g = self._least_primitive_root(ell)
        self.dlog = [0] * ell  # dlog[0] unused
        x = 1
        for k in range(ell - 1):
            self.dlog[x] = k
            x = x * self.g % ell

    @staticmethod
    def _least_primitive_root(ell: int) -> int:
        order_facs = prime_divisors(ell - 1)
        for g in range(2, ell):
            if all(pow(g, (ell - 1) // q, ell) != 1 for q in order_facs):
                return g
        raise RuntimeError("no primitive root found")

    def tau_minus_one_exp(self) -> int:
        return (self.ell - 1) // 2 % self.d


def jacobi2(ctx: PrimeFieldCtx, a: int, b: int) -> CycNum:
    """-sum_{x != 0,1} tau(x)^{-a} tau(1-x)^{-b}, exact; memoised."""
    d, ell = ctx.d, ctx.ell
    if a % d == 0 or b % d == 0 or (a + b) % d == 0:
        raise DegenerateIndices(f"a={a}, b={b} mod {d}")
    a, b = sorted((a % d, b % d))
    key = (d, ell, a, b)
    out = _jacobi2_memo.get(key)
    if out is None:
        coeffs = [0] * d  # coeffs[e]: minus the number of terms equal to zeta_d^e
        dlog = ctx.dlog
        for x in range(2, ell):
            coeffs[(-a * dlog[x] - b * dlog[ell + 1 - x]) % d] -= 1
        out = CycNum(d, coeffs)
        if len(_jacobi2_memo) >= JACOBI2_MEMO_MAX:
            _jacobi2_memo.clear()
        _jacobi2_memo[key] = out
    return out


def jacobi(ctx: PrimeFieldCtx, a_vec: Sequence[int]) -> CycNum:
    """J_{a_vec} = (-1)^m sum_{x_1+...+x_m=-1} prod tau(x_i)^{-a_i},
    computed by chaining Gauss sums.  Raises ZeroVector when a component
    is 0 mod d; motive_valuations never builds one, since alpha_k != beta_i
    and the s_k skip every -beta_i.

    Write chi_i = tau^{-a_i}, g(a) for the Gauss sum of tau^{-a}, and
    J_std = sum_{x_1+...+x_m=1} prod chi_i(x_i) (Ireland-Rosen, ch. 8 s. 5).
    Substituting x -> -x gives J = (-1)^m prod chi_i(-1) J_std, and
    prod chi_i(-1) = tau(-1)^{-sum a} is chi_m1.  After i components the
    loop keeps prod g(a_i) = (-1)^(i+1) P g(S) ell^z, from P = 1 and S = 0
    as g(0) = -1, by g(a)g(-a) = tau(-1)^a ell and g(a)g(b) =
    -jacobi2(a, b) g(a+b) for a, b, a+b nonzero.  All chi_i are
    nontrivial, so J_std = prod g / g(S) when S != 0 and -prod g / ell when
    S = 0; either way J = -chi_m1 P ell^(z - [S = 0])."""
    d, ell = ctx.d, ctx.ell
    if any(a % d == 0 for a in a_vec):
        raise ZeroVector("a component vanishes mod d")
    tm1 = ctx.tau_minus_one_exp()
    acc = CycNum.one(d)
    s = z = 0
    for a in a_vec:
        a %= d
        if s == 0:
            s = a
        elif (s + a) % d == 0:
            acc = acc * root_of_unity(d, tm1 * s)
            z += 1
            s = 0
        else:
            acc = acc * jacobi2(ctx, s, a)
            s = (s + a) % d
    chi_m1 = root_of_unity(d, -tm1 * sum(a_vec))
    return -(ell ** (z - (s == 0))) * chi_m1 * acc


# ---------------------------------------------------------------------------
# l-adic embeddings and valuations


def _hensel_roots(ctx: PrimeFieldCtx, prec: int) -> Dict[int, int]:
    """d-th roots of unity in Z/l^prec, keyed by unit s: root = lift of
    g^{s(l-1)/d}, with g the generator of ctx, the one its character uses.
    l is 1 mod d, so it does not divide d: each root mod l is simple and
    lifts uniquely, and the lift of g^{s(l-1)/d} is the s-th power of the
    lift of x = g^{(l-1)/d}, the Teichmueller lift x^{l^(prec-1)}: it is x
    mod l (Fermat), and (x^d)^{l^(prec-1)} = 1 mod l^prec as x^d = 1 mod l."""
    d, ell = ctx.d, ctx.ell
    mod = ell ** prec
    x = pow(pow(ctx.g, (ell - 1) // d, ell), ell ** (prec - 1), mod)
    return {s: pow(x, s, mod) for s in units(d)}


def _embed(v: CycNum, omega: int, mod: int) -> int:
    if v.den != 1:
        raise ValueError("non-integral cyclotomic number")
    acc = 0
    pw = 1
    for c in v.num:
        acc = (acc + c * pw) % mod
        pw = pw * omega % mod
    return acc


def _valuation(x: int, ell: int) -> int:
    if x == 0:  # ruled out by the bound in the module docstring; would loop forever
        raise RuntimeError("a Jacobi sum vanished mod l^d")
    v = 0
    while x % ell == 0:
        x //= ell
        v += 1
    return v


def motive_valuations(p: HgParam, ell: int) -> Dict[int, List[int]]:
    """Per embedding (keyed by unit s), sorted l-adic valuations of the n
    Jacobi sums attached to the parameter, each in [0, d-2], read mod l^d."""
    d = p.d
    ctx = PrimeFieldCtx(d, ell)
    avec = a_vector(p)
    sums = [jacobi(ctx, [(aj + bi) % d for aj in avec]) for bi in p.betas]
    mod = ell ** d
    return {
        s: sorted(_valuation(_embed(j, omega, mod), ell) for j in sums)
        for s, omega in _hensel_roots(ctx, d).items()
    }


def hodge_newton_check(p: HgParam, ell: int) -> bool:
    """Shift-invariant match between the Newton valuations (over all
    embeddings) and the Hodge degrees (over all scalings)."""
    return hodge_newton_report(p, ell)[1]


def hodge_newton_report(p: HgParam, ell: int) -> Tuple[Dict[int, List[int]], bool]:
    """motive_valuations(p, ell) with hodge_newton_check's verdict on them,
    from one computation of the Jacobi sums."""
    if not is_regular(p):
        raise ValueError("parameter is not regular")
    newton = motive_valuations(p, ell)
    left = sorted(tuple(x - v[0] for x in v) for v in newton.values())
    right = sorted(tuple(x - h[0] for x in h) for h in hodge_degrees(p).values())
    return newton, left == right
