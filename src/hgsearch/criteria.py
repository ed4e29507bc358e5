"""Combinatorial criteria on hypergeometric parameters.

Everything here is exact integer / rational arithmetic: Hodge degrees,
regularity (R) as the separation of alphas from betas under every unit,
unipotent-monodromy block structure (UM), big monodromy (BM), finite
monodromy (BM_fin), and the determinant criterion (D) including the integer
lattice computation in the span of the epsilon functions.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import permutations
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .cycrows import echelon, ring
from .intlattice import NoSolution, SmithForm, lattice_coordinates, smith_form, solve_lattice
from .params import MAX_D, HgParam
from .residues import (
    UnitSubgroup,
    complements,
    difference_multiset,
    gap_masks,
    is_cyclic_ap,
    phi,
    prime_divisors,
    units,
    unit_brackets,
    unit_subgroups,
)


class NonIntegralDegree(Exception):
    """A Hodge degree came out non-integral; the parameter is malformed."""


# ---------------------------------------------------------------------------
# Hodge degrees and regularity


def hodge_degrees(p: HgParam) -> Dict[int, List[int]]:
    """Degrees p_j, one per beta_j, for the parameter scaled by each unit s.

    d*(p_j + 1) = C(d,2) + sum_i [s b_j - s a_i] - sum_i [s b_j - s b_i].
    Each list is sorted ascending, with multiplicity.  Mod d that is
    C(d,2) - s*(sum(a) - sum(b)), so NonIntegralDegree is raised only on an
    HgParam built without validate that breaks the sum rule.
    """
    d = p.d
    out: Dict[int, List[int]] = {s: [] for s in units(d)}
    for bj in p.betas:
        plus = unit_brackets(d, [bj - a for a in p.alphas])
        minus = unit_brackets(d, [bj - b for b in p.betas])
        for s, x, y in zip(out, plus, minus):
            tot = d * (d - 1) // 2 + x - y
            if tot % d != 0:
                raise NonIntegralDegree(f"d={d} does not divide {tot} at beta={bj}, s={s}")
            out[s].append(tot // d - 1)
    return {s: sorted(v) for s, v in out.items()}


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


def regular_room(d: int, alphas: Tuple[int, ...]) -> List[bool]:
    """For each residue x, whether x's entry of gap_masks(d, alphas) holds
    at least n residues >= x.  A regular parameter's betas all lie in b_1's
    entry, and b_1 is the least beta, so False at b_1 rules out (R); True
    leaves the decision to is_regular.  A search chunk builds the list once
    and asks is_regular only about the candidates it lets through."""
    table, n, full = gap_masks(d, alphas), len(alphas), (1 << d) - 1
    # mask the entry first: shifting by x*d + x at once would pull in
    # the low bits of entry x + 1
    return [((table >> (x * d) & full) >> x).bit_count() >= n for x in range(d)]


# ---------------------------------------------------------------------------
# Monodromy criteria (UM), (BM), (BM_fin)


def jordan_blocks(p: HgParam) -> List[int]:
    """Criterion (UM) data: multiplicities of the alpha values, descending."""
    return sorted(Counter(p.alphas).values(), reverse=True)


def pseudoreflection_det(d: int) -> int:
    return 1 if d % 2 == 1 else -1


def _fixes(p: HgParam, sign: int, t: int) -> bool:
    """Whether x -> sign x + t mod d maps the betas and the alphas, as
    multisets, onto themselves; the betas are distinct and reject sooner.
    Such a map sends b_0 to some b_j, so bm tries only t = b_j - sign b_0."""
    return all(tuple(sorted((sign * x + t) % p.d for x in xs)) == xs for xs in (p.betas, p.alphas))


def bm(p: HgParam) -> Tuple[bool, Optional[int]]:
    """Criterion (BM).  Returns (pass, first failed bullet or None).

    Bullets: (1) some alpha value repeats; (2) beta is not an arithmetic
    progression; (3) no nonzero translation fixes both multisets; (4) no s,
    including 0, with {-a-s} = {a+s} and {-b-s} = {b+s}, that is, with
    x -> -x - 2s fixing both.  Bullet 4 tries every t = b_0 + b_j as -2s:
    for even d an odd t would pair off each multiset, so sum(a) = sum(b)
    mod d, against the sum rule, C(d,2) = d/2 mod d.
    """
    b = p.betas
    if len(set(p.alphas)) >= p.n:
        return False, 1
    if is_cyclic_ap(b, p.d):
        return False, 2
    if any(_fixes(p, 1, bj - b[0]) for bj in b[1:]):
        return False, 3
    if any(_fixes(p, -1, b[0] + bj) for bj in b):
        return False, 4
    return True, None


@lru_cache(maxsize=1)
def scaling_stabilizer(p: HgParam) -> UnitSubgroup:
    """The units s with s*D = D for both difference multisets D, compared
    sorted.  full_report, minimal_admissible_subgroup and bm_finite ask for
    one parameter's stabilizer in a row; keeping the last one lets them
    share it."""
    d = p.d
    da = sorted(difference_multiset(p.alphas, d).elements())
    db = sorted(difference_multiset(p.betas, d).elements())
    elems = [
        s for s in units(d) if sorted(s * x % d for x in da) == da and sorted(s * x % d for x in db) == db
    ]
    return UnitSubgroup(d, elems)


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
    """The pivot basis of the epsilon spanning set and the Smith form of
    the matrix M_piv of pivot columns over the d-1 points.

    Pivots are taken greedily in listed order: a column is a pivot when it
    lies outside the rational span of the pivots before it.  Those are the
    leading columns of an echelon basis of the rows of the epsilon matrix,
    which cycrows.echelon gives with the integers as Z[zeta_1].

    Returns (idx, cols, piv, sf).  Solving against the pivot columns alone
    (all other coefficients zero) mirrors the published computation, which
    inverted the matrix of one chosen set of basis elements rather than
    searching the full solution lattice.
    """
    idx, cols = _e_columns(d)
    deg, low, _ = ring(1)
    rows = echelon([[[x] for x in row] for row in _matrix(cols, d - 1)], deg, low)
    piv = tuple(next(j for j, x in enumerate(row) if x[0]) for row in rows)
    return idx, cols, piv, smith_form(_matrix([cols[k] for k in piv], d - 1))


def solve_in_E_basis(f: Sequence[int]) -> Optional[Dict[Tuple[int, int], int]]:
    """The unique solution supported on the fixed pivot basis, or None when
    it is inconsistent or non-integral.  The pivot columns are independent,
    so the solution is unique, and V is unimodular, so it is integral
    exactly when the lattice solve finds one."""
    idx, _, piv, sf = _solve_transform(len(f) + 1)
    try:
        x = solve_lattice(sf, f)
    except NoSolution:
        return None
    return {idx[j]: q for j, q in zip(piv, x)}


@lru_cache(maxsize=None)
def _e_lattice(d: int) -> Tuple[Tuple[Tuple[int, int], ...], SmithForm]:
    idx, cols = _e_columns(d)
    return idx, smith_form(_matrix(cols, d - 1))


def solve_in_E(f: Sequence[int]) -> Dict[Tuple[int, int], int]:
    """Integer coefficients x with sum x_{k,a} eps_{k,a} = f.  Raises
    NoSolution when f is not in the integer span."""
    idx, sf = _e_lattice(len(f) + 1)
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


def _good_point(d: int, n: int, image: Sequence[int]) -> bool:
    """Whether a solution with this gamma_exponents image meets the
    coprimality conditions of clause (iv)."""
    y1, *yps = image
    b1 = 4 * d // math.gcd(y1, 4 * d)
    return all(math.gcd(_b_p(y, pp, d), n) == 1 for y, pp in zip(yps, prime_divisors(d))) and (
        math.gcd(phi(math.lcm(2 * b1, d)) // phi(d), n) == 1
    )


class _StrictPlan(NamedTuple):
    """Strict clause (iv) at (d, n), from the Smith form U M V = D of the
    epsilon matrix M (_e_lattice).  With y = U f, lattice_coordinates gives
    z with D z = y[:r], and x = V[:, :r] z solves M x = f; the columns of V
    past the rank span the kernel, whose gamma images generate a group K.
    Some solution meets the coprimality conditions exactly when h + K meets
    the good set H, for h the image of x in Z/4d x (Z/2d)^m.

    H is a subgroup, the product of one g_i Z/M_i per coordinate.  Each
    condition reads one coordinate y, and for each prime r | n bounds v_r(y)
    below: b_p = D/gcd(y_p, D) with D = d or 2d, so gcd(b_p, n) = 1 exactly
    when v_r(y_p) >= v_r(D); and phi(lcm(2 b_1, d))/phi(d) is prime to an
    odd r always and to 2 exactly when 4 | y_1 (d odd) or 8 | y_1 (d even).
    _strict_plan reads each g_i off _good_point along its axis, and raises
    when a coordinate's good set is not g_i Z/M_i.  Then h + K meets H
    exactly when h lies in the subgroup H + K, which one Smith form Uq A Vq
    of A = [kernel images | g_i e_i] decides (g_i | M_i): the rows of Uq h
    vanish mod their diagonal entries.  h is linear in z, so each check
    folds w = Gamma V[:, :r] into its row and reads z directly.
    """

    sf: SmithForm
    u_delta: Tuple[Tuple[int, ...], ...]  # U delta_x at index x, zero at 0
    checks: Tuple[Tuple[Tuple[int, ...], int], ...]  # (row, e): row . z = 0 mod e


@lru_cache(maxsize=None)
def _strict_plan(d: int, n: int) -> _StrictPlan:
    idx, sf = _e_lattice(d)
    images = [gamma_exponents(dict(zip(idx, col)), d) for col in zip(*sf.v)]
    mods = (4 * d,) + (2 * d,) * len(prime_divisors(d))
    gens = images[sf.rank :]
    for i, m in enumerate(mods):
        # the other coordinates at 0, which passes each of their conditions
        good = [t for t in range(m) if _good_point(d, n, [t * (j == i) for j in range(len(mods))])]
        g = math.gcd(m, *good)
        if good != list(range(0, m, g)):
            raise ValueError(f"coordinate {i} of the gamma image has no good subgroup at d={d}, n={n}")
        gens.append(tuple(g * (j == i) for j in range(len(mods))))
    q = smith_form(_matrix(gens, len(mods)))
    checks = tuple(
        (tuple(sum(a * b for a, b in zip(row, im)) % e for im in images[: sf.rank]), e)
        for row, e in zip(q.u, q.diag)
        if e > 1
    )
    return _StrictPlan(sf, ((0,) * (d - 1),) + tuple(zip(*sf.u)), checks)


# ---------------------------------------------------------------------------
# Determinant criterion (D)


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
    units s, where S_c(s) = sum_i [s c_i]; each group in _c_candidates order.
    u_0 = 1 and each c_i lies in [0, d), so S_c(u_0) = sum(c)."""
    index: Dict[Tuple[int, ...], List[Tuple[int, int, int]]] = {}
    for c in _c_candidates(d):
        total = sum(c)
        index.setdefault(tuple([x - total for x in unit_brackets(d, c)]), []).append(c)
    return index


def _first_c(p: HgParam, published: bool, c: Optional[Tuple[int, ...]] = None) -> Optional[Tuple[int, ...]]:
    """On a parameter known to meet (R): the first c-triple passing (D), in
    _c_candidates order, or with c given, c reduced mod d and sorted if it
    passes.  find_c and det_condition test (R) first; search_chunk and
    full_report have tested it already.

    w(s) = sum_{i,j} [s(b_j - a_i)] - sum_{i != j} [s(b_j - b_i)] + n S_c(s).
    Under (R) the alphas and betas are separated under every unit s: in a
    rotated window every s*alpha comes before every s*beta, so each
    [s(b_j - a_i)] is a plain difference and the first sum is n P(s), with
    P(s) = sum_i [s(b_i - a_i)] over any pairing.  The betas are distinct,
    so the pairs i != j add [s(b_j - b_i)] + [s(b_i - b_j)] = d.  Hence
    w(s) = n (P(s) + S_c(s)) - d C(n,2), constant exactly when the profile
    of c is (P(u_0) - P(s))_s.
    """
    sums = unit_brackets(p.d, [b - a for a, b in zip(p.alphas, p.betas)])
    cs = _c_index(p.d).get(tuple(sums[0] - x for x in sums), ())
    if c is not None:
        c = tuple(sorted(x % p.d for x in c))
        cs = [c] if c in cs else ()
    return next(_iv_scan(p, cs, published), None)


def _iv_scan(p: HgParam, cs: Sequence[Tuple[int, ...]], published: bool) -> Iterator[Tuple[int, ...]]:
    """The triples of cs that pass clause (iv), in order.  In strict mode
    f(c) is f(0,0,0) + n (delta_c1 + delta_c2 + delta_c3), so U f(c) costs
    three column additions once U f(0,0,0) is known."""
    d, n = p.d, p.n
    if published:
        for c in cs:
            coeffs = solve_in_E_basis(build_f(p, c))
            if coeffs is not None and _good_point(d, n, gamma_exponents(coeffs, d)):
                yield c
        return
    plan = _strict_plan(d, n)
    f0 = build_f(p, (0, 0, 0))
    y0 = [sum(a * b for a, b in zip(row, f0)) for row in plan.sf.u]
    for c in cs:
        cols = [plan.u_delta[x] for x in c]
        z = lattice_coordinates(plan.sf, [a + n * (b1 + b2 + b3) for a, b1, b2, b3 in zip(y0, *cols)])
        if z is not None and all(sum(a * b for a, b in zip(row, z)) % e == 0 for row, e in plan.checks):
            yield c


def det_condition(p: HgParam, c: Tuple[int, int, int], published: bool = True) -> bool:
    """Criterion (D) at c, reduced mod d and sorted: regularity, constancy
    of w(s), and integer solvability in E(d) with the coprimality
    conditions.  Only the admissible c of _c_candidates, the triples that
    params.validate accepts, can pass.

    With published=True (default) the coprimality is tested on the unique
    solution over the fixed pivot basis, which is what the published tables
    reflect.  With published=False the test is existential over the whole
    integer solution lattice, a weaker but solution-independent reading.
    """
    return is_regular(p) and _first_c(p, published, c) is not None


def find_c(p: HgParam, published: bool = True) -> Optional[Tuple[int, int, int]]:
    """First admissible c-triple making (D) hold, scanning (0,0,0) then the
    all-nonzero triples in lexicographic order."""
    return _first_c(p, published) if is_regular(p) else None


def bm_published(p: HgParam) -> bool:
    """The big-monodromy filter as the published search evidently applied
    it: only the repeated-alpha and translation-stability bullets.

    The arithmetic-progression and duality bullets of bm(), evaluated as
    stated, reject several rows that the published tables list as passing
    (see tables.KNOWN_BM_DISCREPANCIES), so the tables can only be
    reproduced without them.

    Under (R) bullet 3 cannot fail.  Under s = 1 the alphas lie in one gap
    between cyclically consecutive betas, say after b_i.  A translation
    t != 0 fixing the betas keeps their cyclic order, so it moves that gap
    onto the one after b_i + t != b_i, disjoint from it, and cannot fix the
    alphas.  On a regular parameter this filter is bullet 1 alone, which
    reads only the alphas.
    """
    b = p.betas
    return len(set(p.alphas)) < p.n and not any(_fixes(p, 1, bj - b[0]) for bj in b[1:])


# ---------------------------------------------------------------------------
# Full report


class CriteriaReport(NamedTuple):
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

    def passes(self, bm_excused: bool) -> bool:
        """The one pass rule: (R), (BM) unless the failure is excused, and (D)."""
        return self.regular and (self.bm_pass or bm_excused) and self.d_pass


def full_report(p: HgParam) -> CriteriaReport:
    """Every criterion on p, each evaluated whatever the others say: (BM)
    read strictly (bm, all four bullets), and (D) read as published, at
    p's c when it has one, else at the first c that find_c returns.
    CriteriaReport.passes is the one pass rule over the report."""
    if p.d > MAX_D:
        raise ValueError(f"d = {p.d} is above the cap {MAX_D}")
    hodge = hodge_degrees(p)
    regular = is_regular(p)
    um = jordan_blocks(p)
    bm_pass, bullet = bm(p)
    stab = scaling_stabilizer(p)
    min_u = minimal_admissible_subgroup(p)
    c = _first_c(p, True, p.c) if regular else None
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
