"""Combinatorial criteria on hypergeometric parameters.

Everything here is exact integer / rational arithmetic: Hodge degrees,
regularity (R) as the separation of alphas from betas under every unit,
unipotent-monodromy block structure (UM), big monodromy (BM), finite
monodromy (BM_fin), and the determinant criterion (D) including the integer
lattice computation in the span of the epsilon functions.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .intlattice import NoSolution, SmithForm, kernel_basis, smith_form, solve_lattice
from .params import HgParam
from .residues import (
    UnitSubgroup,
    bracket,
    complements,
    difference_multiset,
    gap_masks,
    is_cyclic_ap,
    phi,
    prime_divisors,
    units,
    unit_subgroups,
)


class NonIntegralDegree(Exception):
    """A Hodge degree came out non-integral; the parameter is malformed."""


# ---------------------------------------------------------------------------
# Hodge degrees and regularity


def hodge_degrees(p: HgParam, s: int = 1) -> List[int]:
    """Degrees p_j, one per beta_j, for the parameter scaled by s.

    d*(p_j + 1) = C(d,2) + sum_i [s b_j - s a_i] - sum_i [s b_j - s b_i].
    Returned sorted ascending, with multiplicity.
    """
    d = p.d
    out = []
    for bj in p.betas:
        tot = d * (d - 1) // 2 + sum(bracket(s * (bj - a), d) for a in p.alphas)
        tot -= sum(bracket(s * (bj - b), d) for b in p.betas)
        if tot % d != 0:
            raise NonIntegralDegree(f"d={d} does not divide {tot} at beta={bj}, s={s}")
        out.append(tot // d - 1)
    return sorted(out)


def is_regular(p: HgParam) -> bool:
    """Criterion (R): under every unit s the n Hodge degrees are distinct.

    Equivalently, under every unit s the residues s*alpha and s*beta, read
    cyclically, form one run of alphas and one run of betas: the zigzag
    picture, the opposite of Beukers-Heckman interlacing.  With the residues
    in [0, d), d*(p_j + 1) is C(d,2) + sum(s*b) - sum(s*a) plus d times the
    number of alphas minus the number of betas above s*b_j.  From one beta
    down to the next that count steps by (alphas between them) - 1, and it
    takes n distinct values exactly when all alphas lie in one cyclic gap
    between betas, that is, when all betas lie in one cyclic gap between
    consecutive distinct s*alpha.  That gap must be the one holding s*b_1,
    so (R) holds exactly when every beta lies in b_1's entry of the
    per-(d, alpha) table gap_masks, the intersection of those gaps over the
    units.  A search chunk's candidates share their alphas, so the chunk
    builds the table once.
    """
    # the entries above b_1's lie past bit d - 1, where the betas have none
    allowed = gap_masks(p.d, p.alphas) >> (p.betas[0] * p.d)
    bits = 0
    for b in p.betas:
        bits |= 1 << b
    return bits & allowed == bits


# ---------------------------------------------------------------------------
# Monodromy criteria (UM), (BM), (BM_fin)


def jordan_blocks(p: HgParam) -> List[int]:
    """Criterion (UM) data: multiplicities of the alpha values, descending."""
    return sorted(Counter(p.alphas).values(), reverse=True)


def pseudoreflection_det(d: int) -> int:
    return 1 if d % 2 == 1 else -1


def _translated(vals: Sequence[int], s: int, d: int) -> Counter:
    return Counter((v + s) % d for v in vals)


def _negated(vals: Sequence[int], s: int, d: int) -> Counter:
    return Counter((-v - s) % d for v in vals)


def bm(p: HgParam) -> Tuple[bool, Optional[int]]:
    """Criterion (BM).  Returns (pass, failed_bullet or None).

    Bullets: (1) some alpha value repeats; (2) beta is not an arithmetic
    progression; (3) no nonzero translation fixes both multisets; (4) no s,
    including 0, with {-a-s} = {a+s} and {-b-s} = {b+s}.
    """
    d = p.d
    if len(set(p.alphas)) >= p.n:
        return False, 1
    if is_cyclic_ap(p.betas, d):
        return False, 2
    ca, cb = Counter(p.alphas), Counter(p.betas)
    for s in range(1, d):
        if _translated(p.alphas, s, d) == ca and _translated(p.betas, s, d) == cb:
            return False, 3
    for s in range(d):
        if (
            _negated(p.alphas, s, d) == _translated(p.alphas, s, d)
            and _negated(p.betas, s, d) == _translated(p.betas, s, d)
        ):
            return False, 4
    return True, None


def scaling_stabilizer(p: HgParam) -> UnitSubgroup:
    da = difference_multiset(p.alphas, p.d)
    db = difference_multiset(p.betas, p.d)
    elems = []
    for s in units(p.d):
        sa = Counter(s * x % p.d for x in da.elements())
        sb = Counter(s * x % p.d for x in db.elements())
        if sa == da and sb == db:
            elems.append(s)
    return UnitSubgroup(p.d, elems)


def bm_finite(p: HgParam, u: UnitSubgroup) -> bool:
    """Criterion (BM_fin): stabilizer contained in U and U has a complement."""
    if u.modulus != p.d:
        raise ValueError("subgroup modulus does not match parameter")
    s = scaling_stabilizer(p)
    if not s.issubset(u):
        return False
    return bool(complements(u))


def minimal_admissible_subgroup(p: HgParam) -> Optional[UnitSubgroup]:
    """Smallest unit subgroup U with bm_finite(p, U) true, if any."""
    s = scaling_stabilizer(p)
    best = None
    for u in unit_subgroups(p.d):
        if not s.issubset(u):
            continue
        if not complements(u):
            continue
        if best is None or len(u.elements) < len(best.elements):
            best = u
    return best


# ---------------------------------------------------------------------------
# Integer functions on (Z/dZ) \ {0} and the epsilon lattice


class IntFunction:
    """Integer-valued function on (Z/dZ) \\ {0}, stored as a length d-1 array."""

    __slots__ = ("d", "values")

    def __init__(self, d: int, values: Optional[Sequence[int]] = None):
        self.d = d
        if values is None:
            self.values = [0] * (d - 1)
        else:
            if len(values) != d - 1:
                raise ValueError("expected d-1 values")
            self.values = list(values)

    def __getitem__(self, x: int) -> int:
        x %= self.d
        if x == 0:
            raise KeyError("0 is outside the domain")
        return self.values[x - 1]

    def add_delta(self, a: int, weight: int = 1) -> None:
        a %= self.d
        if a != 0:
            self.values[a - 1] += weight

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntFunction)
            and self.d == other.d
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"IntFunction(d={self.d}, {self.values})"


def mean_bracket(f: IntFunction, s: int) -> Fraction:
    """<f>(s) = (1/d) sum_a f(a) [s a], exact."""
    d = f.d
    return Fraction(sum(f.values[a - 1] * bracket(s * a, d) for a in range(1, d)), d)


def build_f(p: HgParam, c: Tuple[int, int, int]) -> IntFunction:
    """The determinant-criterion function n + sum d_{b_j-a_i}
    - sum_{i != j} d_{b_j-b_i} + n sum d_{c_i}, delta terms at 0 dropped."""
    d, n = p.d, p.n
    f = IntFunction(d, [n] * (d - 1))
    for bj in p.betas:
        for a in p.alphas:
            f.add_delta(bj - a)
    for i, bi in enumerate(p.betas):
        for j, bj in enumerate(p.betas):
            if i != j:
                f.add_delta(bj - bi, -1)
    for ci in c:
        f.add_delta(ci, n)
    return f


def epsilon(d: int, k: int, a: int) -> IntFunction:
    """epsilon_{k,a}(x) = delta_{-ka} + sum_{0 <= j < k} delta_{a + j d/k}."""
    f = IntFunction(d)
    f.add_delta(-k * a)
    step = d // k
    for j in range(k):
        f.add_delta(a + j * step)
    return f


def e_basis_index(d: int) -> List[Tuple[int, int]]:
    """(k, a) pairs indexing the spanning set of E(d)."""
    idx = [(1, a) for a in range(1, d // 2 + 1)]
    for pp in prime_divisors(d):
        for a in range(1, d // pp):
            idx.append((pp, a))
    return idx


@lru_cache(maxsize=None)
def _solve_transform(d: int):
    """One Gauss-Jordan pass over [M | I], where M has the epsilon spanning
    set as columns over the d-1 points and pivots are taken column by column
    in listed order.

    Returns (idx, cols, piv, t, den) with t the integer rows of den * T, where
    T is the accumulated row transform: T M_piv = [I; 0].  So the first
    len(piv) rows of t give den times the pivot coefficients of f, and the
    remaining rows vanish on f exactly when f lies in the span.

    Solving against the pivot columns alone (all other coefficients zero)
    mirrors the published computation, which inverted the matrix of one
    chosen set of basis elements rather than searching the full solution
    lattice.
    """
    idx = e_basis_index(d)
    cols = [epsilon(d, k, a).values for k, a in idx]
    rows, m = d - 1, len(cols)
    mat = [
        [Fraction(cols[j][i]) for j in range(m)] + [Fraction(int(i == k)) for k in range(rows)]
        for i in range(rows)
    ]
    piv = []
    r = 0
    for j in range(m):
        if r == rows:
            break
        sel = next((i for i in range(r, rows) if mat[i][j] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        pv = mat[r][j]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][j] != 0:
                fac = mat[i][j]
                mat[i] = [a - fac * b for a, b in zip(mat[i], mat[r])]
        piv.append(j)
        r += 1
    den = math.lcm(*(x.denominator for row in mat for x in row[m:]))
    t = tuple(tuple(int(x * den) for x in row[m:]) for row in mat)
    return idx, cols, tuple(piv), t, den


def solve_in_E_basis(f: IntFunction) -> Optional[Dict[Tuple[int, int], int]]:
    """The unique solution supported on the fixed pivot basis, or None when
    it is inconsistent or non-integral."""
    idx, _, piv, t, den = _solve_transform(f.d)
    v = f.values
    r = len(piv)
    if any(sum(a * b for a, b in zip(row, v)) for row in t[r:]):
        return None
    out = {}
    for j, row in zip(piv, t):
        q, rem = divmod(sum(a * b for a, b in zip(row, v)), den)
        if rem:
            return None
        out[idx[j]] = q
    return out


@lru_cache(maxsize=None)
def _e_lattice(d: int) -> Tuple[Tuple[Tuple[int, int], ...], SmithForm, Tuple[Tuple[int, ...], ...]]:
    idx = tuple(e_basis_index(d))
    # columns are the epsilon functions, rows the d-1 points
    cols = [epsilon(d, k, a).values for k, a in idx]
    a = [[cols[j][i] for j in range(len(cols))] for i in range(d - 1)]
    sf = smith_form(a)
    ker = tuple(tuple(v) for v in kernel_basis(sf))
    return idx, sf, ker


def solve_in_E(f: IntFunction):
    """Integer coefficients x with sum x_{k,a} eps_{k,a} = f, plus a kernel
    basis of the relation lattice.  Raises NoSolution when f is not in the
    integer span."""
    idx, sf, ker = _e_lattice(f.d)
    x = solve_lattice(sf, f.values)
    coeffs = {key: x[i] for i, key in enumerate(idx)}
    kernel = [dict(zip(idx, v)) for v in ker]
    return coeffs, kernel


@dataclass(frozen=True)
class GammaExponents:
    y1: Fraction
    yp: Dict[int, Fraction]
    b1: int
    bp: Dict[int, int]


def gamma_exponents(x: Dict[Tuple[int, int], int], d: int) -> GammaExponents:
    """Exponent bookkeeping for the gamma factor attached to a coefficient
    vector over the epsilon spanning set."""
    primes = prime_divisors(d)
    # y1 = sum over k=1 of coeff*a/d, plus over k=p of coeff*(a*k/d + (k-1)/4);
    # y_p = sum over k=p of coeff*(1/2 - a/d).  Numerators over 4d and 2d.
    num1 = 0
    nump = dict.fromkeys(primes, 0)
    for (k, a), coeff in x.items():
        if k == 1:
            num1 += 4 * coeff * a
        else:
            nump[k] += coeff * (d - 2 * a)
            num1 += coeff * (4 * a * k + (k - 1) * d)
    y1 = Fraction(num1, 4 * d)
    yp = {pp: Fraction(nump[pp], 2 * d) for pp in primes}
    bp = {pp: _b_p(yp[pp], pp, d) for pp in primes}
    return GammaExponents(y1=y1, yp=yp, b1=y1.denominator, bp=bp)


def _b_p(yp: Fraction, pp: int, d: int) -> int:
    return (2 * yp).denominator if d % 4 == 0 or pp % 4 == 1 else yp.denominator


def _coprimality_ok(b1: int, bps: Iterable[int], d: int, n: int) -> bool:
    if any(math.gcd(b, n) != 1 for b in bps):
        return False
    return math.gcd(phi(math.lcm(2 * b1, d)) // phi(d), n) == 1


def _frac_mod1(q: Fraction) -> Fraction:
    return q - (q.numerator // q.denominator)


def _image(x: Dict[Tuple[int, int], int], d: int, primes: Sequence[int]) -> Tuple[Fraction, ...]:
    """(y1 mod 1, y_p mod 1 ...) for a coefficient vector; the denominators
    b1, b_p only depend on this image."""
    g = gamma_exponents(x, d)
    return tuple([_frac_mod1(g.y1)] + [_frac_mod1(g.yp[pp]) for pp in primes])


@lru_cache(maxsize=None)
def _kernel_image_group(d: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Subgroup of (Q/Z)^m generated by the images of the kernel vectors."""
    idx, sf, ker = _e_lattice(d)
    primes = tuple(prime_divisors(d))
    gens = [_image(dict(zip(idx, v)), d, primes) for v in ker]
    zero = tuple(Fraction(0) for _ in range(1 + len(primes)))
    group = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(_frac_mod1(a + b) for a, b in zip(cur, g))
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(group, key=lambda t: tuple((q.numerator, q.denominator) for q in t)))


def _exists_good_solution(coeffs: Dict[Tuple[int, int], int], d: int, n: int) -> bool:
    """Whether some integer solution in the affine lattice coeffs + kernel
    satisfies the coprimality conditions.  The conditions only depend on the
    y-values mod 1, so it suffices to scan the finite coset of the kernel
    image group."""
    return _good_coset(d, n, _image(coeffs, d, tuple(prime_divisors(d))))


@lru_cache(maxsize=None)
def _good_coset(d: int, n: int, base: Tuple[Fraction, ...]) -> bool:
    # The images have denominators dividing 4d, so for each (d, n) there are
    # finitely many keys.
    primes = prime_divisors(d)
    return any(
        _coprimality_ok(
            (base[0] + shift[0]).denominator,
            (_b_p(y + z, pp, d) for y, z, pp in zip(base[1:], shift[1:], primes)),
            d,
            n,
        )
        for shift in _kernel_image_group(d)
    )


# ---------------------------------------------------------------------------
# Determinant criterion (D)


def _bracket_sum(c: Sequence[int], s: int, d: int) -> int:
    return sum(bracket(s * ci, d) for ci in c)


def _clause_iv(p: HgParam, f: IntFunction, published: bool) -> bool:
    if published:
        coeffs = solve_in_E_basis(f)
        if coeffs is None:
            return False
        g = gamma_exponents(coeffs, p.d)
        return _coprimality_ok(g.b1, g.bp.values(), p.d, p.n)
    try:
        coeffs, _ = solve_in_E(f)
    except NoSolution:
        return False
    return _exists_good_solution(coeffs, p.d, p.n)


def det_condition(p: HgParam, c: Tuple[int, int, int], published: bool = True) -> bool:
    """Criterion (D): regularity, constancy of w(s), and integer solvability
    in E(d) with the coprimality conditions.

    w(s) = sum_{i,j} [s(b_j - a_i)] - sum_{i != j} [s(b_j - b_i)] + n S_c(s).
    Under (R) the alphas and betas are separated under every unit s: in a
    rotated window every s*alpha comes before every s*beta, so each
    [s(b_j - a_i)] is a plain difference and the first sum is n P(s), with
    P(s) = sum_i [s(b_i - a_i)] over any pairing.  The betas are distinct,
    so the pairs i != j add [s(b_j - b_i)] + [s(b_i - b_j)] = d.  Hence
    w(s) = n (P(s) + S_c(s)) - d C(n,2), constant exactly when P(s) + S_c(s)
    is.

    With published=True (default) the coprimality is tested on the unique
    solution over the fixed pivot basis, which is what the published tables
    reflect.  With published=False the test is existential over the whole
    integer solution lattice, a weaker but solution-independent reading.
    """
    if not is_regular(p):
        return False
    terms = [b - a for a, b in zip(p.alphas, p.betas)] + list(c)
    if len({_bracket_sum(terms, s, p.d) for s in units(p.d)}) != 1:
        return False
    return _clause_iv(p, build_f(p, c), published)


def _c_candidates(d: int) -> Iterable[Tuple[int, int, int]]:
    yield (0, 0, 0)
    for c1 in range(1, d):
        for c2 in range(1, d):
            c3 = (-c1 - c2) % d
            if c3 != 0:
                yield (c1, c2, c3)


@lru_cache(maxsize=None)
def _c_index(d: int) -> Dict[Tuple[int, ...], List[Tuple[int, int, int]]]:
    """The c-triples grouped by their profile (S_c(s) - S_c(u_0)) over the
    units s, where S_c(s) = sum_i [s c_i]; each group in _c_candidates order."""
    us = units(d)
    index: Dict[Tuple[int, ...], List[Tuple[int, int, int]]] = {}
    for c in _c_candidates(d):
        s0 = _bracket_sum(c, us[0], d)
        key = tuple(_bracket_sum(c, s, d) - s0 for s in us)
        index.setdefault(key, []).append(c)
    return index


def find_c(p: HgParam, published: bool = True) -> Optional[Tuple[int, int, int]]:
    """First admissible c-triple making (D) hold, scanning (0,0,0) then the
    all-nonzero triples in lexicographic order.

    w(s) is constant over the units exactly when the profile of c equals
    (P(u_0) - P(s))_s (see det_condition); only the triples with that
    profile are tested with clause (iv)."""
    if not is_regular(p):
        return None
    d, pairing = p.d, [b - a for a, b in zip(p.alphas, p.betas)]
    sums = [_bracket_sum(pairing, s, d) for s in units(d)]
    for c in _c_index(d).get(tuple(sums[0] - x for x in sums), ()):
        if _clause_iv(p, build_f(p, c), published):
            return c
    return None


def bm_published(p: HgParam) -> bool:
    """The big-monodromy filter as the published search evidently applied
    it: only the repeated-alpha and translation-stability bullets.

    The arithmetic-progression and duality bullets of bm(), evaluated as
    stated, reject several rows that the published tables list as passing
    (see tables.KNOWN_BM_DISCREPANCIES), so the tables can only be
    reproduced without them.
    """
    d = p.d
    if len(set(p.alphas)) >= p.n:
        return False
    ca, cb = Counter(p.alphas), Counter(p.betas)
    for s in range(1, d):
        if _translated(p.alphas, s, d) == ca and _translated(p.betas, s, d) == cb:
            return False
    return True


# ---------------------------------------------------------------------------
# Full report


@dataclass
class CriteriaReport:
    param: HgParam
    hodge: Dict[int, List[int]]
    regular: bool
    um: List[int]
    bm_pass: bool
    bm_failed_bullet: Optional[int]
    stabilizer: List[int]
    minimal_u: Optional[List[int]]
    d_pass: bool
    c_witness: Optional[Tuple[int, int, int]]

    def to_dict(self) -> dict:
        return {
            "param": self.param.literal(),
            "hodge": {str(s): list(v) for s, v in self.hodge.items()},
            "R": self.regular,
            "UM": list(self.um),
            "BM": {"pass": self.bm_pass, "failed_bullet": self.bm_failed_bullet},
            "stabilizer": list(self.stabilizer),
            "minimal_U": list(self.minimal_u) if self.minimal_u is not None else None,
            "D": {
                "pass": self.d_pass,
                "c": list(self.c_witness) if self.c_witness is not None else None,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=False)


def full_report(p: HgParam) -> CriteriaReport:
    hodge = {s: hodge_degrees(p, s) for s in units(p.d)}
    regular = is_regular(p)
    um = jordan_blocks(p)
    bm_pass, bullet = bm(p)
    stab = scaling_stabilizer(p)
    min_u = minimal_admissible_subgroup(p)
    if p.c is not None:
        c = p.c if det_condition(p, p.c) else None
    else:
        c = find_c(p) if regular else None
    return CriteriaReport(
        param=p,
        hodge=hodge,
        regular=regular,
        um=um,
        bm_pass=bm_pass,
        bm_failed_bullet=bullet,
        stabilizer=list(stab.elements),
        minimal_u=list(min_u.elements) if min_u is not None else None,
        d_pass=c is not None,
        c_witness=c,
    )
