"""End-to-end acceptance gate, one test per criterion.

Each test prints a single PASS/FAIL line (visible in pytest -v output and
in the captured stdout) so the run can be audited at a glance.

Criterion 3 checks a genuine discrepancy: the search finds one scaling
orbit for partition (3,2,1) at d=20 which satisfies every stated criterion,
while the published table reports that partition as empty.  The orbit and
its certificate are recorded in tables.KNOWN_EMPTY_DISCREPANCIES; the test
recomputes the certificate instead of trusting the record.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from hgsearch.criteria import (
    bm,
    bm_finite,
    bm_published,
    det_condition,
    e_basis_index,
    epsilon,
    hodge_degrees,
    is_regular,
    jordan_blocks,
    solve_in_E_basis,
)
from hgsearch.jacobi import (
    PrimeFieldCtx,
    hodge_newton_check,
    jacobi,
    jacobi2,
    least_prime_above,
    motive_valuations,
)
from hgsearch.monodromy import verify_annihilation, verify_levelt
from hgsearch.params import HgParam, parse, scale, validate
from hgsearch.residues import UnitSubgroup, bracket, units
from hgsearch.search import SearchSpec, passing_moduli, run_search
from hgsearch.tables import (
    KNOWN_BM_DISCREPANCIES,
    KNOWN_EMPTY_DISCREPANCIES,
    POSSIBLE_D,
    SPECIAL_ROWS,
    reproduce_special,
    row_param,
)
from test_criteria import _combine, _mean_bracket, _reference_is_regular
from test_jacobi import jacobi_direct
from test_tables_search import find_witness

WORKERS = 8


def _line(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")


def test_acceptance_1_special_table():
    """Every published special row: R, UM, D with the row's c; BM may fail
    only on the five rows with documented witnesses."""
    t0 = time.time()
    verdicts, discrepancies = reproduce_special()
    elapsed = time.time() - t0
    all_rows = all(v.passes for v in verdicts)
    documented = all(d["documented"] for d in discrepancies)
    known = {
        f"d={d};a={','.join(map(str, a))};b={','.join(map(str, b))}"
        for d, a, b in KNOWN_BM_DISCREPANCIES
    }
    seen = {d["param"] for d in discrepancies}
    ok = all_rows and documented and seen == known and elapsed < 60
    _line(1, ok, f"19 rows, {len(discrepancies)} documented BM notes, {elapsed:.1f}s")
    assert all_rows, [v.to_dict() for v in verdicts if not v.passes]
    assert seen == known
    assert elapsed < 60


def test_acceptance_2_possible_d_table():
    """Exhaustive n=4 sweeps over d in [3,30] match the published d sets;
    each published n=5 d value admits a witness."""
    t0 = time.time()
    got22 = passing_moduli(4, (2, 2), 3, 30, workers=WORKERS)
    got31 = passing_moduli(4, (3, 1), 3, 30, workers=WORKERS)
    ok4 = got22 == list(POSSIBLE_D[(2, 2)]) and got31 == list(POSSIBLE_D[(3, 1)])
    missing = []
    for part in ((3, 2), (4, 1), (2, 2, 1), (3, 1, 1)):
        for d in POSSIBLE_D[part]:
            if find_witness(5, part, d) is None:
                missing.append((part, d))
    elapsed = time.time() - t0
    ok = ok4 and not missing and elapsed < 1800
    _line(2, ok, f"(2,2)->{got22}, (3,1)->{got31}, n=5 witnesses ok, {elapsed:.0f}s")
    assert got22 == list(POSSIBLE_D[(2, 2)])
    assert got31 == list(POSSIBLE_D[(3, 1)])
    assert not missing
    assert elapsed < 1800


def test_acceptance_3_negative_partitions():
    """Sweeps over d <= 20 for the four partitions of n=6 reported as empty.

    (2,2,2), (2,2,1,1) and (3,1,1,1) must yield no result.  (3,2,1) must
    yield exactly the unit-scaling orbit of the representative recorded in
    KNOWN_EMPTY_DISCREPANCIES, no more and no less.  Each returned member
    must be regular, pass bm as stated, have Jordan blocks [3,2,1], and
    pass det_condition with its returned c under both solver modes and
    bm_finite with U the full unit group; the representative must also
    pass the Levelt, ODE (K=30) and Hodge-Newton verification layers, the
    last at the least prime congruent to 1 mod d."""
    found = {}
    for n, part in ((6, (2, 2, 2)), (6, (3, 2, 1)), (6, (2, 2, 1, 1)), (6, (3, 1, 1, 1))):
        found[part] = run_search(SearchSpec(n=n, partition=part, d_min=3, d_max=20, workers=WORKERS))
    counts = {part: len(res) for part, res in found.items()}
    empty_ok = all(counts[part] == 0 for part in ((2, 2, 2), (2, 2, 1, 1), (3, 1, 1, 1)))

    (d, alphas, betas), _ = KNOWN_EMPTY_DISCREPANCIES[(3, 2, 1)]
    rep = validate(d, alphas, betas)
    expected = sorted({(q.d, q.alphas, q.betas) for q in (scale(rep, s) for s in units(d))})
    got = [(r["d"], tuple(r["alpha"]), tuple(r["beta"])) for r in found[(3, 2, 1)]]
    orbit_ok = got == expected

    full_units = UnitSubgroup(d, units(d))
    uncertified = []
    for r in found[(3, 2, 1)]:
        p = validate(r["d"], r["alpha"], r["beta"])
        c = tuple(r["c"])
        member_ok = (
            is_regular(p)
            and bm(p) == (True, None)
            and jordan_blocks(p) == [3, 2, 1]
            and det_condition(p, c, published=True)
            and det_condition(p, c, published=False)
            and bm_finite(p, full_units)
        )
        if not member_ok:
            uncertified.append(validate(p.d, p.alphas, p.betas, c).literal())
    layers_ok = (
        verify_levelt(rep)
        and all(verify_annihilation(rep, j, 30) for j in range(1, rep.n + 1))
        and hodge_newton_check(rep, least_prime_above(d))
    )

    ok = empty_ok and orbit_ok and not uncertified and layers_ok
    _line(
        3,
        ok,
        f"result counts for d<=20: {counts}, (3,2,1) is the recorded orbit: {orbit_ok}, "
        f"certificate recomputed: {not uncertified and layers_ok}",
    )
    assert counts[(2, 2, 2)] == 0
    assert counts[(2, 2, 1, 1)] == 0
    assert counts[(3, 1, 1, 1)] == 0
    assert got == expected, (
        "(3,2,1) results differ from the orbit recorded in "
        f"tables.KNOWN_EMPTY_DISCREPANCIES: got {got}, expected {expected}"
    )
    assert not uncertified, uncertified
    assert layers_ok, rep.literal()


def test_acceptance_4_monodromy_oracle():
    """Exact matrix checks on every special row: local pseudoreflection of
    rank one with the parity-determined determinant, and unipotent blocks
    at infinity matching the alpha multiplicities."""
    t0 = time.time()
    bad = [row for row in SPECIAL_ROWS if not verify_levelt(row_param(row))]
    elapsed = time.time() - t0
    ok = not bad and elapsed < 60
    _line(4, ok, f"19 rows verified in {elapsed:.1f}s")
    assert not bad
    assert elapsed < 60


def test_acceptance_5_ode_annihilation():
    """Formal annihilation to order 30 for three rows of growing size."""
    rows = [
        parse("d=9;a=0,0,0;b=1,2,6"),
        parse("d=18;a=0,0,0,3;b=4,11,16,17"),
        parse("d=21;a=0,0,0,0,0;b=1,2,4,15,20"),
    ]
    failures = [
        (p.literal(), j)
        for p in rows
        for j in range(1, p.n + 1)
        if not verify_annihilation(p, j, 30)
    ]
    ok = not failures
    _line(5, ok, f"3 rows, all j, K=30, failures={failures}")
    assert not failures


def test_acceptance_6_hodge_newton():
    """l-adic valuations of the Jacobi sum Frobenius match the Hodge
    degrees embedding by embedding for d=9, l=19."""
    t0 = time.time()
    p1 = parse("d=9;a=0,0,0;b=1,2,6")
    p2 = parse("d=9;a=0,0,1,1;b=2,4,6,8")
    vals = motive_valuations(p1, 19)
    base_ok = sorted(vals[1]) == [2, 3, 4]
    ok1 = hodge_newton_check(p1, 19)
    ok2 = hodge_newton_check(p2, 19)
    elapsed = time.time() - t0
    ok = base_ok and ok1 and ok2 and elapsed < 30
    _line(6, ok, f"valuations at s=1: {sorted(vals[1])}, both params match, {elapsed:.1f}s")
    assert base_ok and ok1 and ok2
    assert elapsed < 30


def _random_param(rng: random.Random) -> HgParam:
    while True:
        d = rng.randint(3, 24)
        n = rng.randint(2, min(5, d - 1))
        betas = tuple(sorted(rng.sample(range(d), n)))
        total = d * (d - 1) // 2 + sum(betas)
        head = [rng.randrange(d) for _ in range(n - 1)]
        last = (total - sum(head)) % d
        alphas = tuple(sorted(head + [last]))
        if set(alphas) & set(betas):
            continue
        return HgParam(d=d, alphas=alphas, betas=betas, c=None)


def test_acceptance_7_property_suites():
    """Randomized and exhaustive invariants, each condition checked over
    at least 1000 cases unless the domain itself is smaller."""
    rng = random.Random(20260826)
    checks = []

    # bracket complement identity
    for _ in range(1500):
        d = rng.randint(2, 60)
        x = rng.randint(-500, 500)
        if x % d == 0:
            good = bracket(x, d) == 0
        else:
            good = bracket(x, d) + bracket(-x, d) == d
        if not good:
            checks.append(("bracket", d, x))

    # separation test vs the definition of regularity
    for _ in range(1200):
        p = _random_param(rng)
        if is_regular(p) != _reference_is_regular(p):
            checks.append(("R-definition", p.literal()))

    # scaling invariance of the criteria that are scale equivariant
    for _ in range(1000):
        p = _random_param(rng)
        s = rng.choice(units(p.d))
        q = scale(p, s)
        if is_regular(p) != is_regular(q):
            checks.append(("R-scale", p.literal(), s))
        if bm_published(p) != bm_published(q):
            checks.append(("BM-scale", p.literal(), s))

    # re-expansion of basis solutions
    for _ in range(1000):
        d = rng.randint(3, 24)
        from hgsearch.criteria import _solve_transform

        idx, _, piv = _solve_transform(d)[:3]
        keys = rng.sample([idx[j] for j in piv], k=min(4, len(piv)))
        coeffs = {key: rng.randint(-3, 3) for key in keys}
        f = _combine(d, coeffs)
        x = solve_in_E_basis(f)
        if x is None:
            checks.append(("solve-none", d, coeffs))
            continue
        if _combine(d, x) != f:
            checks.append(("solve-reexpand", d, coeffs))

    # constant mean over units for every generator, exhaustively
    for d in range(3, 31):
        for k, a in e_basis_index(d):
            f = epsilon(d, k, a)
            if len({_mean_bracket(f, s) for s in units(d)}) != 1:
                checks.append(("mean", d, k, a))

    # product formula vs direct summation, exhaustive oracle domain
    for d, ell in ((3, 7), (3, 31), (5, 11), (5, 31), (3, 13)):
        ctx = PrimeFieldCtx(d, ell)
        for m in (1, 2, 3):
            for a_vec in itertools.product(range(1, d), repeat=m):
                if jacobi(ctx, list(a_vec)) != jacobi_direct(ctx, list(a_vec)):
                    checks.append(("jacobi", d, ell, a_vec))

    # |J(a,b)|^2 = ell, exhaustive over valid pairs
    from hgsearch.cyclo import CycNum, root_of_unity

    def conj(x, d):
        out = CycNum.zero(d)
        for k, c in enumerate(x.coeffs):
            if c:
                out = out + CycNum.from_rational(d, c) * root_of_unity(d, (-k) % d)
        return out

    pairs = [(3, 7), (3, 13), (3, 19), (3, 31), (4, 5), (4, 13), (4, 17), (4, 29),
             (5, 11), (5, 31), (6, 7), (6, 13), (6, 19), (6, 31), (7, 29), (8, 17), (9, 19)]
    for d, ell in pairs:
        ctx = PrimeFieldCtx(d, ell)
        for a in range(1, d):
            for b in range(1, d):
                if (a + b) % d == 0:
                    continue
                j = jacobi2(ctx, a, b)
                if j * conj(j, d) != CycNum.from_rational(d, ell):
                    checks.append(("jacobi2-abs", d, ell, a, b))

    # deterministic output across worker counts
    keys = []
    for workers in (1, 4, 8):
        res = run_search(SearchSpec(n=4, partition=(2, 2), d_min=3, d_max=15, workers=workers))
        keys.append([(r["d"], tuple(r["alpha"]), tuple(r["beta"])) for r in res])
    if not (keys[0] == keys[1] == keys[2]):
        checks.append(("determinism",))

    ok = not checks
    _line(7, ok, f"8 property suites, violations={checks[:5]}")
    assert not checks, checks[:20]
