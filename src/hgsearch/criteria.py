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
from itertools import permutations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .intlattice import NoSolution, SmithForm, kernel_basis, smith_form, solve_lattice
from .params import MAX_D, HgParam
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


def _bm_shared(p: HgParam) -> Optional[int]:
    """Bullet 1 or 3 of bm, whichever fails first, or None: the bullets
    that bm and bm_published share."""
    d = p.d
    if len(set(p.alphas)) >= p.n:
        return 1
    ca, cb = Counter(p.alphas), Counter(p.betas)
    for s in range(1, d):
        if _translated(p.alphas, s, d) == ca and _translated(p.betas, s, d) == cb:
            return 3
    return None


def bm(p: HgParam) -> Tuple[bool, Optional[int]]:
    """Criterion (BM).  Returns (pass, failed_bullet or None).

    Bullets: (1) some alpha value repeats; (2) beta is not an arithmetic
    progression; (3) no nonzero translation fixes both multisets; (4) no s,
    including 0, with {-a-s} = {a+s} and {-b-s} = {b+s}.
    """
    d = p.d
    shared = _bm_shared(p)
    if shared != 1 and is_cyclic_ap(p.betas, d):
        return False, 2
    if shared is not None:
        return False, shared
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
    return scaling_stabilizer(p).issubset(u) and bool(complements(u))


def minimal_admissible_subgroup(p: HgParam) -> Optional[UnitSubgroup]:
    """Smallest unit subgroup U with bm_finite(p, U) true, if any: the first
    in unit_subgroups order, which sorts by order."""
    s = scaling_stabilizer(p)
    return next((u for u in unit_subgroups(p.d) if s.issubset(u) and complements(u)), None)


# ---------------------------------------------------------------------------
# Integer functions on (Z/dZ) \ {0} and the epsilon lattice
#
# A function on (Z/dZ) \ {0} is the tuple of its d-1 values, f(x) at index
# x-1, so d is len(f) + 1.


def _function(d: int, base: int, deltas: Iterable[Tuple[int, int]]) -> Tuple[int, ...]:
    """base everywhere plus weight * delta_x for each (x, weight) in deltas,
    a delta at 0 dropped."""
    values = [base] * (d - 1)
    for x, weight in deltas:
        x %= d
        if x:
            values[x - 1] += weight
    return tuple(values)


def mean_bracket(f: Sequence[int], s: int) -> Fraction:
    """<f>(s) = (1/d) sum_a f(a) [s a], exact."""
    d = len(f) + 1
    return Fraction(sum(v * bracket(s * a, d) for a, v in enumerate(f, 1)), d)


def build_f(p: HgParam, c: Tuple[int, int, int]) -> Tuple[int, ...]:
    """The determinant-criterion function n + sum d_{b_j-a_i}
    - sum_{i != j} d_{b_j-b_i} + n sum d_{c_i}, delta terms at 0 dropped."""
    n = p.n
    deltas = [(bj - a, 1) for bj in p.betas for a in p.alphas]
    deltas += [(bj - bi, -1) for bi, bj in permutations(p.betas, 2)]
    deltas += [(ci, n) for ci in c]
    return _function(p.d, n, deltas)


def epsilon(d: int, k: int, a: int) -> Tuple[int, ...]:
    """epsilon_{k,a}(x) = delta_{-ka} + sum_{0 <= j < k} delta_{a + j d/k}."""
    step = d // k
    return _function(d, 0, [(-k * a, 1)] + [(a + j * step, 1) for j in range(k)])


def e_basis_index(d: int) -> List[Tuple[int, int]]:
    """(k, a) pairs indexing the spanning set of E(d)."""
    idx = [(1, a) for a in range(1, d // 2 + 1)]
    for pp in prime_divisors(d):
        for a in range(1, d // pp):
            idx.append((pp, a))
    return idx


@lru_cache(maxsize=None)
def _e_columns(d: int) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, ...], ...]]:
    """The (k, a) index of the epsilon spanning set and each function's
    values over the d-1 points."""
    idx = tuple(e_basis_index(d))
    return idx, tuple(epsilon(d, k, a) for k, a in idx)


def _matrix(cols: Sequence[Sequence[int]], rows: int) -> List[List[int]]:
    return [[col[i] for col in cols] for i in range(rows)]


@lru_cache(maxsize=None)
def _solve_transform(d: int):
    """The pivot basis of the epsilon spanning set and an integer solve
    transform for it, from the Smith form U M_piv V = [D; 0] of the matrix
    M_piv of pivot columns over the d-1 points.

    Pivots are taken greedily in listed order: a column is a pivot when it
    lies outside the rational span of the pivots before it.  U is
    unimodular, so its rows past the rank span the rational left kernel of
    M_piv, and a column lies in the span exactly when they all vanish on it.

    Returns (idx, cols, piv, t, den) with den = lcm(D).  The first len(piv)
    rows of t are den V D^-1 U[:r], which give den times the pivot
    coefficients of f; the remaining rows, U[r:], vanish on f exactly when f
    lies in the span.

    Solving against the pivot columns alone (all other coefficients zero)
    mirrors the published computation, which inverted the matrix of one
    chosen set of basis elements rather than searching the full solution
    lattice.
    """
    idx, cols = _e_columns(d)
    rows = d - 1
    piv: List[int] = []
    left = [[int(i == k) for k in range(rows)] for i in range(rows)]
    for j, col in enumerate(cols):
        if any(sum(a * b for a, b in zip(row, col)) for row in left):
            piv.append(j)
            sf = smith_form(_matrix([cols[k] for k in piv], rows))
            left = sf.u[sf.rank :]
    den = math.lcm(*sf.diag)
    scaled = [[den // dq * x for x in row] for dq, row in zip(sf.diag, sf.u)]
    t = [[sum(a * b for a, b in zip(vrow, col)) for col in zip(*scaled)] for vrow in sf.v]
    return idx, cols, tuple(piv), tuple(map(tuple, t + left)), den


def solve_in_E_basis(f: Sequence[int]) -> Optional[Dict[Tuple[int, int], int]]:
    """The unique solution supported on the fixed pivot basis, or None when
    it is inconsistent or non-integral."""
    idx, _, piv, t, den = _solve_transform(len(f) + 1)
    r = len(piv)
    if any(sum(a * b for a, b in zip(row, f)) for row in t[r:]):
        return None
    out = {}
    for j, row in zip(piv, t):
        q, rem = divmod(sum(a * b for a, b in zip(row, f)), den)
        if rem:
            return None
        out[idx[j]] = q
    return out


@lru_cache(maxsize=None)
def _e_lattice(d: int) -> Tuple[Tuple[Tuple[int, int], ...], SmithForm, Tuple[Tuple[int, ...], ...]]:
    idx, cols = _e_columns(d)
    sf = smith_form(_matrix(cols, d - 1))
    ker = tuple(tuple(v) for v in kernel_basis(sf))
    return idx, sf, ker


def solve_in_E(f: Sequence[int]) -> Dict[Tuple[int, int], int]:
    """Integer coefficients x with sum x_{k,a} eps_{k,a} = f.  Raises
    NoSolution when f is not in the integer span."""
    idx, sf, _ = _e_lattice(len(f) + 1)
    return dict(zip(idx, solve_lattice(sf, f)))


def gamma_exponents(x: Dict[Tuple[int, int], int], d: int) -> Tuple[int, ...]:
    """(4d y1 mod 4d, 2d y_p mod 2d for each prime p | d, increasing): the
    exponents of the gamma factor attached to a coefficient vector over the
    epsilon spanning set, as numerators over 4d and 2d reduced mod 1.  The
    denominators b1 and b_p of clause (iv) depend only on this image: b1 is
    the denominator of y1, and b_p that of y_p or 2 y_p, none of which an
    integer shift changes, since gcd(num, 4d) and gcd(num, 2d) do not move
    when num moves by 4d or 2d."""
    primes = prime_divisors(d)
    # y1 = sum over k=1 of coeff*a/d, plus over k=p of coeff*(a*k/d + (k-1)/4);
    # y_p = sum over k=p of coeff*(1/2 - a/d).
    num1 = 0
    nump = dict.fromkeys(primes, 0)
    for (k, a), coeff in x.items():
        if k == 1:
            num1 += 4 * coeff * a
        else:
            nump[k] += coeff * (d - 2 * a)
            num1 += coeff * (4 * a * k + (k - 1) * d)
    return (num1 % (4 * d),) + tuple(nump[pp] % (2 * d) for pp in primes)


def _b_p(yp: int, pp: int, d: int) -> int:
    """The denominator of 2 y_p (when 4 | d or p = 1 mod 4) or of y_p, for
    y_p = yp / 2d."""
    return d // math.gcd(yp, d) if d % 4 == 0 or pp % 4 == 1 else 2 * d // math.gcd(yp, 2 * d)


@lru_cache(maxsize=None)
def _kernel_image_group(d: int) -> Tuple[Tuple[int, ...], ...]:
    """Subgroup of Z/4d x (Z/2d)^m generated by the images of the kernel
    vectors."""
    idx, _, ker = _e_lattice(d)
    gens = [gamma_exponents(dict(zip(idx, v)), d) for v in ker]
    mods = (4 * d,) + (2 * d,) * len(prime_divisors(d))
    zero = (0,) * len(mods)
    group = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % m for a, b, m in zip(cur, g, mods))
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(group))


@lru_cache(maxsize=None)
def _good_coset(d: int, n: int, image: Tuple[int, ...], published: bool) -> bool:
    """Whether some solution whose gamma_exponents image lies in image plus
    the kernel image group meets the coprimality conditions of clause (iv).
    The published reading tests only the solution on the pivot basis, that
    is, only the zero shift; the strict one scans the whole coset.

    The images lie in Z/4d x (Z/2d)^m, so for each (d, n) there are
    finitely many keys."""
    primes = prime_divisors(d)
    for shift in [(0,) * len(image)] if published else _kernel_image_group(d):
        y1, *yps = (y + z for y, z in zip(image, shift))
        b1 = 4 * d // math.gcd(y1, 4 * d)
        if all(math.gcd(_b_p(y, pp, d), n) == 1 for y, pp in zip(yps, primes)) and (
            math.gcd(phi(math.lcm(2 * b1, d)) // phi(d), n) == 1
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Determinant criterion (D)


def _bracket_sum(c: Sequence[int], s: int, d: int) -> int:
    return sum(bracket(s * ci, d) for ci in c)


def _clause_iv(p: HgParam, f: Tuple[int, ...], published: bool) -> bool:
    if published:
        coeffs = solve_in_E_basis(f)
        if coeffs is None:
            return False
    else:
        try:
            coeffs = solve_in_E(f)
        except NoSolution:
            return False
    return _good_coset(p.d, p.n, gamma_exponents(coeffs, p.d), published)


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
    """(0,0,0), then the all-nonzero triples with sum 0 mod d and
    c1 <= c2 <= c3, in lexicographic order.  (D) sees c only as a multiset
    (build_f and S_c are symmetric in c), and the lexicographically first
    ordering of a multiset is its sorted one."""
    yield (0, 0, 0)
    for c1 in range(1, d):
        for c2 in range(c1, d):
            c3 = (-c1 - c2) % d
            if c3 >= c2:
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
    return _bm_shared(p) is None


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
    if p.d > MAX_D:
        raise ValueError(f"d = {p.d} is above the cap {MAX_D}")
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
