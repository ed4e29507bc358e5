import functools
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hgsearch.criteria import (
    NonIntegralDegree,
    _c_candidates,
    _c_index,
    _good_point,
    _strict_plan,
    bm,
    bm_finite,
    bm_published,
    build_f,
    det_condition,
    e_basis_index,
    epsilon,
    find_c,
    full_report,
    gamma_exponents,
    hodge_degrees,
    is_regular,
    jordan_blocks,
    minimal_admissible_subgroup,
    pseudoreflection_det,
    regular_room,
    scaling_stabilizer,
    solve_in_E,
    solve_in_E_basis,
)
from hgsearch.intlattice import NoSolution, lattice_coordinates, smith_form
from hgsearch.params import (
    MAX_D,
    MAX_N,
    BadCTriple,
    HgParam,
    SumMismatch,
    canonical_form,
    parse,
    scale,
    scaling_orbit,
    validate,
)
from hgsearch.residues import (
    UnitSubgroup,
    complements,
    gap_masks,
    is_cyclic_ap,
    phi,
    prime_divisors,
    unit_subgroups,
    units,
)
from hgsearch.search import enumerate_alphas, enumerate_betas

P9 = parse("d=9;a=0,0,0;b=1,2,6")
P18 = parse("d=18;a=0,0,0,3;b=4,11,16,17;c=1,7,10")


def _candidate_params(d, alphas):
    """Every parameter a search visits for one (d, alpha-shape) chunk."""
    required = (sum(alphas) - d * (d - 1) // 2) % d
    for betas in enumerate_betas(d, len(alphas), required, set(alphas)):
        yield validate(d, alphas, betas)


def _mean_bracket(f, s):
    """<f>(s) = (1/d) sum_a f(a) [s a], exact, for f the tuple of its values
    at 1..d-1."""
    d = len(f) + 1
    return Fraction(sum(v * ((s * a) % d) for a, v in enumerate(f, 1)), d)


def test_hodge_degrees_base_case():
    # hand-checkable row: degrees at the identity scaling
    assert hodge_degrees(P9)[1] == [2, 3, 4]


def test_hodge_degrees_scaling():
    degs = {s: sorted(v) for s, v in hodge_degrees(P9).items()}
    assert list(degs) == units(9)
    assert degs[1] == [2, 3, 4]
    # every embedding must also give three distinct degrees
    for s, vals in degs.items():
        assert len(set(vals)) == 3


def test_is_regular_table_rows():
    assert is_regular(P9)
    assert is_regular(P18)


def test_is_regular_negative():
    p = parse("d=4;a=1,3;b=0,2")
    assert not is_regular(p)


@st.composite
def random_param(draw):
    d = draw(st.integers(3, 21))
    n = draw(st.integers(2, min(5, d - 1)))
    betas = tuple(sorted(draw(st.sets(st.integers(0, d - 1), min_size=n, max_size=n))))
    total = d * (d - 1) // 2 + sum(betas)
    head = [draw(st.integers(0, d - 1)) for _ in range(n - 1)]
    last = (total - sum(head)) % d
    alphas = tuple(sorted(head + [last]))
    if set(alphas) & set(betas):
        return None
    return HgParam(d=d, alphas=alphas, betas=betas, c=None)


def _reference_is_regular(p):
    """(R) as defined: under every unit s the n numerators d*(p_j + 1) - C(d,2)
    of the Hodge degrees, as direct double sums, are pairwise distinct."""
    d = p.d
    for s in units(d):
        nums = [
            sum((s * (b - a)) % d for a in p.alphas) - sum((s * (b - bb)) % d for bb in p.betas)
            for b in p.betas
        ]
        if len(set(nums)) != len(nums):
            return False
    return True


def _every_valid_param(d_max):
    for d in range(3, d_max + 1):
        for n in range(1, d):
            for betas in itertools.combinations(range(d), n):
                rest = [x for x in range(d) if x not in betas]
                for head in itertools.combinations_with_replacement(rest, n - 1):
                    last = (d * (d - 1) // 2 + sum(betas) - sum(head)) % d
                    # each alpha multiset once: head sorted, last on top
                    if last not in betas and last >= max(head, default=0):
                        yield HgParam(d, head + (last,), betas)


@settings(max_examples=1200, deadline=None)
@given(random_param())
def test_is_regular_matches_definition(p):
    # the separation test must agree with the definition everywhere
    if p is None:
        return
    assert is_regular(p) == _reference_is_regular(p)


def test_is_regular_matches_definition_on_every_small_param():
    seen = {True: 0, False: 0}
    for p in _every_valid_param(11):
        want = _reference_is_regular(p)
        assert is_regular(p) == want, p.literal()
        seen[want] += 1
    assert seen[True] > 1000 and seen[False] > 10 * seen[True], seen


def _draw_param(rng, d, n, alpha=None):
    """A random valid parameter of modulus d and length n, its alphas all
    equal to alpha if given, or None when the draw breaks a clause."""
    betas = rng.sample(range(d), n)
    if alpha is None:
        head = [rng.randrange(d) for _ in range(n - 1)]
    else:
        head, betas[-1] = [alpha] * (n - 1), (n * alpha - d * (d - 1) // 2 - sum(betas[:-1])) % d
    last = (d * (d - 1) // 2 + sum(betas) - sum(head)) % d
    alphas = tuple(sorted(head + [last]))
    if len(set(betas)) < n or set(alphas) & set(betas):
        return None
    return HgParam(d, alphas, tuple(sorted(betas)))


def test_is_regular_matches_definition_up_to_d30_across_cache_evictions():
    rng = random.Random(30)
    params = []
    while len(params) < 3000:
        d = rng.choice((29, 30)) if len(params) < 600 else rng.randint(3, 30)
        n = rng.randint(1, min(7, d - 1))
        # every fifth draw has one distinct alpha, so one gap per unit
        p = _draw_param(rng, d, n, rng.randrange(d) if len(params) % 5 == 0 else None)
        if p is not None:
            params.append(p)
    # d=30 candidates with two distinct alphas, where regular ones are rare
    params += [p for g in (2, 5, 9) for p in _candidate_params(30, (0, 0, g, g))]
    keys = {(p.d, p.alphas) for p in params}
    assert len(keys) > 20 * gap_masks.cache_info().maxsize
    gap_masks.cache_clear()
    seen = {"one gap": 0, "several gaps": 0, False: 0}
    for _ in range(2):
        rng.shuffle(params)
        for p in params:
            want = _reference_is_regular(p)
            assert is_regular(p) == want, p.literal()
            if want:
                seen["one gap" if len(set(p.alphas)) == 1 else "several gaps"] += 1
            else:
                seen[False] += 1
    # tables were evicted and rebuilt, and answered the same after it
    assert gap_masks.cache_info().misses > len(keys)
    assert min(seen.values()) > 400, seen
    assert any(p.d == 30 and p.n == 4 and len(set(p.alphas)) == 2 and is_regular(p) for p in params)


def test_regular_room_drops_no_regular_candidate():
    cases = [(n, part, d) for n in range(3, 7) for part in _partitions(n) for d in range(n + 1, 14)]
    cases.append((6, (3, 2, 1), 20))
    candidates = let_through = tight = 0
    for n, part, d in cases:
        for alphas in enumerate_alphas(d, part):
            room = regular_room(d, alphas)
            table, full = gap_masks(d, alphas), (1 << d) - 1
            regular, passed = set(), set()
            for p in _candidate_params(d, alphas):
                candidates += 1
                b1, regular_p = p.betas[0], is_regular(p)
                if regular_p:
                    regular.add(p.betas)
                    # b_1's entry holds exactly the n betas at or above b_1
                    tight += ((table >> (b1 * d) & full) >> b1).bit_count() == n
                if room[b1]:
                    let_through += 1
                    if regular_p:
                        passed.add(p.betas)
            assert passed == regular, (d, alphas)
    # the bound is reached, so room may not ask for one residue more, and
    # the list rules out most candidates
    assert tight > 0
    assert 10 * let_through < candidates


@settings(max_examples=400, deadline=None)
@given(random_param(), st.data())
def test_regularity_is_scaling_invariant(p, data):
    if p is None:
        return
    s = data.draw(st.sampled_from(units(p.d)))
    assert is_regular(scale(p, s)) == is_regular(p)


def test_jordan_blocks():
    assert jordan_blocks(P9) == [3]
    assert jordan_blocks(P18) == [3, 1]
    p = parse("d=9;a=0,0,1,1;b=2,4,6,8")
    assert jordan_blocks(p) == [2, 2]


def test_pseudoreflection_det():
    assert pseudoreflection_det(9) == 1
    assert pseudoreflection_det(18) == -1


def test_bm_positive():
    ok, bullet = bm(P9)
    assert ok and bullet is None
    assert bm_published(P9)


def test_bm_bullet1_all_alpha_distinct():
    p = parse("d=7;a=0,1;b=2,6")
    ok, bullet = bm(p)
    assert not ok and bullet == 1


def test_bm_bullet2_beta_progression():
    p = parse("d=9;a=0,0,1,1;b=2,4,6,8")
    ok, bullet = bm(p)
    assert not ok and bullet in (2, 4)
    # the relaxed variant keeps this published row
    assert bm_published(p)


def test_bm_bullet4_self_dual():
    p = parse("d=9;a=0,0,0,0;b=1,2,7,8")
    ok, bullet = bm(p)
    assert not ok and bullet == 4
    assert bm_published(p)


def test_scaling_stabilizer():
    stab = scaling_stabilizer(P9)
    assert sorted(stab.elements) == [1, 8]


def test_minimal_admissible_subgroup():
    u = minimal_admissible_subgroup(P9)
    assert u is not None
    assert sorted(u.elements) == [1, 8]


def test_bm_finite():
    u = UnitSubgroup(9, [1, 8])
    assert bm_finite(P9, u)
    # subgroup not containing the stabilizer fails
    v = UnitSubgroup(9, [1, 4, 7])
    assert not bm_finite(P9, v)


def _reference_minimal_subgroup(p):
    # the scan minimal_admissible_subgroup replaced: keep the first
    # admissible subgroup of least order
    s = scaling_stabilizer(p)
    best = None
    for u in unit_subgroups(p.d):
        if not s.issubset(u) or not complements(u):
            continue
        if best is None or len(u.elements) < len(best.elements):
            best = u
    return best


def test_minimal_admissible_subgroup_matches_least_order_scan():
    rng = random.Random(13)
    checked = 0
    while checked < 300:
        d = rng.randint(3, 60)
        n = rng.randint(1, min(6, d - 1))
        betas = rng.sample(range(d), n)
        head = [rng.randrange(d) for _ in range(n - 1)]
        last = (d * (d - 1) // 2 + sum(betas) - sum(head)) % d
        if last in betas or set(head) & set(betas):
            continue
        p = parse(f"d={d};a={','.join(map(str, head + [last]))};b={','.join(map(str, betas))}")
        want = _reference_minimal_subgroup(p)
        assert minimal_admissible_subgroup(p) == want, p.literal()
        stab = scaling_stabilizer(p)
        for u in unit_subgroups(d):
            assert bm_finite(p, u) == (stab.issubset(u) and bool(complements(u))), (p.literal(), u)
        checked += 1


def test_full_report_enumerates_the_subgroups_once(monkeypatch):
    from hgsearch import residues

    calls = []
    real = residues._join

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(residues, "_join", counted)
    residues.unit_subgroups.cache_clear()
    residues.unit_subgroups(60)
    once = len(calls)
    residues.unit_subgroups.cache_clear()
    calls.clear()
    rep = full_report(parse("d=60;a=0,0,0,6;b=9,12,27,48"))
    assert rep.minimal_u == [1, 19, 41, 59]
    assert len(calls) == once > 0


def test_mean_bracket_constant_exhaustive():
    # <f>(s) is constant in s for f spanned by the epsilon functions
    for d in range(3, 31):
        for k, a in e_basis_index(d)[:6]:
            f = epsilon(d, k, a)
            vals = {_mean_bracket(f, s) for s in units(d)}
            assert len(vals) == 1, (d, k, a)


def _combine(d, coeffs):
    """sum of co * epsilon_{k,a} over coeffs, as the tuple of its values."""
    f = [0] * (d - 1)
    for (k, a), co in coeffs.items():
        f = [v + co * e for v, e in zip(f, epsilon(d, k, a))]
    return tuple(f)


def test_epsilon_solve_roundtrip():
    f = build_f(P18, (1, 7, 10))
    assert len(f) == P18.d - 1
    x = solve_in_E_basis(f)
    assert x is not None
    assert _combine(P18.d, x) == f


@settings(max_examples=250, deadline=None)
@given(st.integers(3, 24), st.data())
def test_solve_in_E_basis_reexpands(d, data):
    # integer combinations supported on the pivot basis must round-trip;
    # combinations touching dependent columns may legitimately come back
    # None since the solver is pinned to one basis
    from hgsearch.criteria import _solve_transform

    idx, _, piv = _solve_transform(d)[:3]
    keys = [idx[j] for j in piv]
    coeffs = {
        key: data.draw(st.integers(-3, 3))
        for key in data.draw(st.sets(st.sampled_from(keys), min_size=1, max_size=4))
    }
    f = _combine(d, coeffs)
    x = solve_in_E_basis(f)
    assert x is not None
    assert _combine(d, x) == f


def test_gamma_exponents_rationality():
    f = build_f(P18, (1, 7, 10))
    x = solve_in_E_basis(f)
    image = gamma_exponents(x, 18)
    # y1 as a numerator over 4d, then y_2 and y_3 over 2d, each reduced mod 1
    assert len(image) == 3
    assert all(type(y) is int for y in image)
    assert 0 <= image[0] < 4 * 18
    assert all(0 <= y < 2 * 18 for y in image[1:])


def test_det_condition_table_rows():
    # det_condition reads c reduced mod d and sorted, in either mode
    for c in ((1, 7, 10), (10, 7, 1), (19, 7, -8)):
        for published in (True, False):
            assert det_condition(P18, c, published), (c, published)
    assert det_condition(parse("d=9;a=0,0,0;b=1,2,6"), (3, 7, 8))
    assert det_condition(parse("d=9;a=0,0,0,0;b=1,2,7,8"), (0, 0, 0))


def test_find_c():
    c = find_c(parse("d=9;a=0,0,0,0;b=1,2,7,8"))
    assert c == (0, 0, 0)
    c = find_c(P18)
    assert c is not None
    assert det_condition(P18, c)


def test_d_needs_regularity():
    # (D) includes (R): no c passes an irregular parameter in either mode.
    # About one drawn parameter in thirty has a constant w(s) and a clause
    # (iv) solution at some c, so the draw fails without (D)'s one
    # regularity guard, which det_condition and find_c share.
    rng = random.Random(0)
    params = [parse("d=9;a=0,0,1;b=2,3,5")]
    while len(params) < 300:
        d = rng.randint(5, 12)
        p = _draw_param(rng, d, rng.randint(2, min(5, d - 1)))
        if p is not None and not is_regular(p):
            params.append(p)
    for p in params:
        for published in (True, False):
            assert find_c(p, published) is None, (p.literal(), published)
            for c in _c_candidates(p.d):
                assert not det_condition(p, c, published), (p.literal(), c, published)


def test_det_condition_refuses_a_mixed_zero_triple():
    # (D) is decided only on the c that validate accepts: every triple
    # (0, x, d - x) fails in both modes on every regular n=4 parameter
    # with d <= 18, although w(s) is constant and clause (iv) holds on 552
    # of these 3,060 triples in each mode
    params = [
        p
        for d in range(5, 19)
        for part in ((2, 2), (3, 1))
        for alphas in enumerate_alphas(d, part)
        for p in _candidate_params(d, alphas)
        if is_regular(p)
    ]
    assert len(params) == 210 and parse("d=9;a=0,0,1,1;b=2,4,6,8") in params
    for p in params:
        for x in range(1, p.d):
            c = (0, x, p.d - x)
            with pytest.raises(BadCTriple, match="mixes zero and nonzero"):
                validate(p.d, p.alphas, p.betas, c)
            for published in (True, False):
                assert not det_condition(p, c, published), (p.literal(), c, published)


def test_full_report_shape():
    rep = full_report(P9)
    d = rep.to_dict()
    assert d["R"] is True
    assert d["BM"]["pass"] is True
    assert d["D"]["pass"] is True
    assert d["UM"] == [3]


@functools.lru_cache(maxsize=None)
def _reference_pivots(d):
    """Greedy Fraction rank increments over the epsilon columns in listed
    order: a column is a pivot when it is independent of the pivots before
    it."""
    reduced, piv = [], []
    for j, (k, a) in enumerate(e_basis_index(d)):
        v = [Fraction(x) for x in epsilon(d, k, a)]
        for lead, row in reduced:
            if v[lead]:
                fac = v[lead] / row[lead]
                v = [x - fac * y for x, y in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            reduced.append((lead, v))
            piv.append(j)
    return tuple(piv)


def test_solve_transform_pivots_match_greedy_reference():
    from hgsearch.criteria import _solve_transform

    # past 48, the moduli with three primes give the largest echelons
    for d in [*range(3, 49), 60, 84, 90, 105, 120]:
        assert _solve_transform(d)[2] == _reference_pivots(d), d


def _reference_solve_transform(d):
    """The pivot basis as picked with one Smith form per pivot (a column is
    a pivot when the left-kernel rows of the pivots before it do not all
    vanish on it), and the den-scaled solve transform of the last Smith
    form: (idx, cols, piv, t, den)."""
    from hgsearch.criteria import _e_columns

    idx, cols = _e_columns(d)
    rows = d - 1
    piv = []
    left = [[int(i == k) for k in range(rows)] for i in range(rows)]
    for j, col in enumerate(cols):
        if any(sum(a * b for a, b in zip(row, col)) for row in left):
            piv.append(j)
            sf = smith_form([[cols[k][i] for k in piv] for i in range(rows)])
            left = sf.u[sf.rank :]
    den = math.lcm(*sf.diag)
    scaled = [[den // dq * x for x in row] for dq, row in zip(sf.diag, sf.u)]
    t = [[sum(a * b for a, b in zip(vrow, col)) for col in zip(*scaled)] for vrow in sf.v]
    return idx, cols, tuple(piv), tuple(map(tuple, t + left)), den


def _reference_basis_solve(transform, f):
    """The pivot-basis solve through the den-scaled transform: the rows of
    t past the pivots must vanish on f, and den must divide the others."""
    idx, _, piv, t, den = transform
    if any(sum(a * b for a, b in zip(row, f)) for row in t[len(piv) :]):
        return None
    out = {}
    for j, row in zip(piv, t):
        q, rem = divmod(sum(a * b for a, b in zip(row, f)), den)
        if rem:
            return None
        out[idx[j]] = q
    return out


def test_solve_transform_matches_smith_per_pivot_loop():
    # one elimination picks the same pivots as a Smith form per pivot, and
    # the lattice solve on the pivot columns agrees with the den-scaled
    # transform on every kind of f
    from hgsearch.criteria import _solve_transform

    rng = random.Random(48)
    seen = Counter()
    for d in [*range(3, 49), 60]:
        ref = _reference_solve_transform(d)
        assert _solve_transform(d)[:3] == ref[:3], d
        for values in _solver_cases(d, rng):
            got = solve_in_E_basis(tuple(values))
            assert got == _reference_basis_solve(ref, values), (d, values)
            seen[got is not None] += 1
    assert seen[True] > 500 and seen[False] > 500, seen


def _reference_solve(f):
    """Fraction Gauss-Jordan on [M_piv | f]: the rational solution on the
    greedy pivot basis, or None when f is outside the span."""
    d = len(f) + 1
    idx = e_basis_index(d)
    piv = _reference_pivots(d)
    cols = [epsilon(d, *idx[j]) for j in piv]
    rows = d - 1
    aug = [[Fraction(col[i]) for col in cols] + [Fraction(f[i])] for i in range(rows)]
    r = 0
    for j in range(len(piv)):
        sel = next(i for i in range(r, rows) if aug[i][j] != 0)
        aug[r], aug[sel] = aug[sel], aug[r]
        pv = aug[r][j]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][j] != 0:
                fac = aug[i][j]
                aug[i] = [a - fac * b for a, b in zip(aug[i], aug[r])]
        r += 1
    if any(aug[i][-1] != 0 for i in range(r, rows)):
        return None
    return {idx[col]: aug[j][-1] for j, col in enumerate(piv)}


def _solver_cases(d, rng):
    """Integer f of every kind: pivot combinations (they solve), the same
    divided by the gcd of their values or nudged by 1 at one point, every
    epsilon column, and random vectors."""
    from hgsearch.criteria import _solve_transform

    _, cols, piv = _solve_transform(d)[:3]
    out = [list(col) for col in cols]
    for _ in range(6):
        f = [0] * (d - 1)
        for j in rng.sample(piv, min(3, len(piv))):
            co = rng.choice((-3, -2, -1, 1, 2, 3))
            f = [a + co * b for a, b in zip(f, cols[j])]
        out.append(f)
        g = math.gcd(*f)
        if g > 1:
            out.append([v // g for v in f])
        nudged = list(f)
        nudged[rng.randrange(d - 1)] += rng.choice((-1, 1))
        out.append(nudged)
        out.append([rng.randint(-4, 4) for _ in range(d - 1)])
    return out


def test_solve_in_E_basis_matches_fraction_reference():
    # every outcome (solved, non-integral, outside the span) must occur and
    # the integer transform must agree with the Fraction elimination on each
    rng = random.Random(20)
    seen = {"solved": 0, "non-integral": 0, "inconsistent": 0}
    for d in range(3, 31):
        for values in _solver_cases(d, rng):
            f = tuple(values)
            want = _reference_solve(f)
            if want is None:
                kind = "inconsistent"
            elif any(v.denominator != 1 for v in want.values()):
                kind, want = "non-integral", None
            else:
                kind = "solved"
            seen[kind] += 1
            got = solve_in_E_basis(f)
            assert got == want, (d, values, kind)
            if got is not None:
                assert list(got) == list(want)
    assert all(seen.values()), seen


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 30), st.data())
def test_solve_in_E_basis_property(d, data):
    from hgsearch.criteria import _solve_transform

    _, cols, piv = _solve_transform(d)[:3]
    f = [0] * (d - 1)
    for j in data.draw(st.sets(st.sampled_from(piv), min_size=1, max_size=4)):
        co = data.draw(st.integers(-4, 4))
        f = [a + co * b for a, b in zip(f, cols[j])]
    div = data.draw(st.sampled_from([g for g in (1, 2, 3, 4) if all(v % g == 0 for v in f)]))
    f = [v // div for v in f]
    if data.draw(st.booleans()):
        f[data.draw(st.integers(0, d - 2))] += data.draw(st.sampled_from((-1, 1)))
    want = _reference_solve(tuple(f))
    if want is not None and any(v.denominator != 1 for v in want.values()):
        want = None
    assert solve_in_E_basis(tuple(f)) == want


def test_solve_in_E_matches_reference_and_basis_solve():
    # strict mode's solve over the whole integer lattice: any solution it
    # returns re-expands to f, it fails wherever f is outside the rational
    # span, and it solves wherever the pivot-basis solve does.  The strict
    # plan finds coordinates z from U f exactly when it does, and V z is
    # that same solution.
    rng = random.Random(21)
    seen = Counter()
    for d in range(3, 31):
        sf = _strict_plan(d, 4).sf
        for values in _solver_cases(d, rng):
            f = tuple(values)
            z = lattice_coordinates(sf, [sum(a * b for a, b in zip(row, f)) for row in sf.u])
            try:
                x = solve_in_E(f)
            except NoSolution:
                assert solve_in_E_basis(f) is None, (d, values)
                assert z is None, (d, values)
                seen["outside the span" if _reference_solve(f) is None else "non-integral"] += 1
                continue
            assert _reference_solve(f) is not None, (d, values)
            assert list(x) == e_basis_index(d)
            assert _combine(d, x) == f, (d, values)
            assert list(x.values()) == [sum(a * b for a, b in zip(row, z)) for row in sf.v], (d, values)
            seen["solved"] += 1
    assert len(seen) == 3, seen


# References for (D) from the definitions, by direct double sums over the
# alphas and betas rather than through the per-beta bracket-sum kernel.


def _reference_clause_iii(p):
    d, n = p.d, p.n
    return all(
        sum((s * (b - a)) % d for b in p.betas for a in p.alphas)
        == n * sum((s * (b - a)) % d for a, b in zip(p.alphas, p.betas))
        for s in units(d)
    )


def _reference_w(p, c, s):
    d = p.d
    return (
        sum((s * (b - a)) % d for b in p.betas for a in p.alphas)
        - sum((s * (b - bb)) % d for b in p.betas for bb in p.betas)
        + p.n * sum((s * x) % d for x in c)
    )


def _reference_coprime(y1, yps, d, n):
    """The coprimality conditions of clause (iv) on Fraction y-values."""
    bps = [
        (2 * y).denominator if d % 4 == 0 or pp % 4 == 1 else y.denominator
        for y, pp in zip(yps, prime_divisors(d))
    ]
    return all(math.gcd(b, n) == 1 for b in bps) and (
        math.gcd(phi(math.lcm(2 * y1.denominator, d)) // phi(d), n) == 1
    )


def _reference_y(coeffs, d):
    """y1 and the y_p of a coefficient vector, unreduced Fractions."""
    y1 = sum(
        co * Fraction(a, d) if k == 1 else co * (Fraction(a * k, d) + Fraction(k - 1, 4))
        for (k, a), co in coeffs.items()
    )
    yps = [
        sum(co * (Fraction(1, 2) - Fraction(a, d)) for (k, a), co in coeffs.items() if k == pp)
        for pp in prime_divisors(d)
    ]
    return Fraction(y1), [Fraction(y) for y in yps]


def _mods(d):
    """The moduli of the gamma image's coordinates: 4d, then 2d per prime."""
    return (4 * d,) + (2 * d,) * len(prime_divisors(d))


def _reference_image(coeffs, d):
    """The gamma image of a coefficient vector, from its Fraction y-values."""
    y1, yps = _reference_y(coeffs, d)
    return tuple(int(y % 1 * m) for y, m in zip([y1, *yps], _mods(d)))


@functools.lru_cache(maxsize=None)
def _reference_kernel_group(d):
    """The kernel image group K: the subgroup of Z/4d x (Z/2d)^m generated
    by the images of a kernel basis of the epsilon matrix, taken from a
    Smith form of its own and listed by a breadth-first walk."""
    idx, mods = e_basis_index(d), _mods(d)
    cols = [epsilon(d, k, a) for k, a in idx]
    sf = smith_form([[col[i] for col in cols] for i in range(d - 1)])
    gens = [_reference_image(dict(zip(idx, v)), d) for v in list(zip(*sf.v))[sf.rank :]]
    zero = (0,) * len(mods)
    group, frontier = {zero}, [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % m for a, b, m in zip(cur, g, mods))
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(group))


def _scan_coset(d, n, h):
    """Strict clause (iv) by scanning the coset h + K point by point."""
    mods = _mods(d)
    return any(
        _good_point(d, n, [(a + b) % m for a, b, m in zip(h, k, mods)]) for k in _reference_kernel_group(d)
    )


def _strict_key(d, n, z):
    """The strict plan's checks on lattice coordinates z; clause (iv) holds
    exactly when every entry is 0."""
    return tuple(sum(a * b for a, b in zip(row, z)) % e for row, e in _strict_plan(d, n).checks)


def _reference_coset_good(coeffs, d, n):
    """Some shift of the solution's y-values by the kernel image group
    passes the coprimality conditions."""
    y1, yps = _reference_y(coeffs, d)
    return any(
        _reference_coprime(
            y1 + Fraction(z[0], 4 * d), [y + Fraction(w, 2 * d) for y, w in zip(yps, z[1:])], d, n
        )
        for z in _reference_kernel_group(d)
    )


def _reference_clause_iv(p, f, published):
    """Clause (iv) through the two plain solves: the published reading on
    the pivot-basis solution, the strict one on the coset of the lattice
    solution."""
    if published:
        coeffs = solve_in_E_basis(f)
        return coeffs is not None and _reference_coprime(*_reference_y(coeffs, p.d), p.d, p.n)
    try:
        coeffs = solve_in_E(f)
    except NoSolution:
        return False
    return _reference_coset_good(coeffs, p.d, p.n)


def _reference_c_passes(p, c, published):
    """The clauses of (D) that depend on c: w constant, and clause (iv)."""
    return len({_reference_w(p, c, s) for s in units(p.d)}) == 1 and _reference_clause_iv(
        p, build_f(p, c), published
    )


def _reference_det_condition(p, c, published):
    return _reference_is_regular(p) and _reference_clause_iii(p) and _reference_c_passes(p, c, published)


def _ordered_triples(d):
    # (0,0,0), then every ordered all-nonzero triple with sum 0 mod d, in
    # (c1, c2) order: every ordering of each multiset
    yield (0, 0, 0)
    for c1, c2 in itertools.product(range(1, d), repeat=2):
        if (c1 + c2) % d:
            yield (c1, c2, (-c1 - c2) % d)


def _reference_find_c(p, published):
    if not (_reference_is_regular(p) and _reference_clause_iii(p)):
        return None
    return next((c for c in _ordered_triples(p.d) if _reference_c_passes(p, c, published)), None)


def _regular_pool():
    # regular parameters as the search enumerates them
    return [
        p
        for d in range(5, 17)
        for part in ((3,), (2, 2), (3, 1))
        for alphas in enumerate_alphas(d, part)
        for p in _candidate_params(d, alphas)
        if is_regular(p)
    ]


def test_find_c_matches_lexicographic_scan():
    found = {True: 0, False: 0}
    for p in random.Random(7).sample(_regular_pool(), 60):
        for published in (True, False):
            c = find_c(p, published)
            assert c == _reference_find_c(p, published), (p.literal(), published)
            found[published] += c is not None
    assert 0 < found[True] < 60 and 0 < found[False] < 60, found


def test_det_condition_matches_double_sum_reference():
    rng = random.Random(11)
    outcomes = {True: set(), False: set()}
    for p in rng.sample(_regular_pool(), 12) + [P9, P18]:
        cs = list(_ordered_triples(p.d))
        for c in rng.sample(cs, min(len(cs), 15)) + [find_c(p, True), find_c(p, False)]:
            if c is None:
                continue
            for published in (True, False):
                want = _reference_det_condition(p, c, published)
                assert det_condition(p, c, published) == want, (p.literal(), c, published)
                outcomes[published].add(want)
    assert outcomes == {True: {True, False}, False: {True, False}}


def test_pairing_sum_matches_double_sum_reference():
    # Under (R) the alphas and betas are separated under every unit s, so
    # clause (iii) holds, and w(s) at c = (0,0,0) is n P(s) - d C(n,2) with
    # P(s) = sum_i [s(b_i - a_i)] over any pairing of alphas with betas.
    rng, shuffler = random.Random(5), random.Random(6)
    seen = set()
    for _ in range(3000):
        d = rng.randint(3, 24)
        n = rng.randint(1, min(6, d - 1))
        betas = rng.sample(range(d), n)
        head = [rng.randrange(d) for _ in range(n - 1)]
        last = (d * (d - 1) // 2 + sum(betas) - sum(head)) % d
        if last in betas or set(head) & set(betas):
            continue
        p = parse(f"d={d};a={','.join(map(str, head + [last]))};b={','.join(map(str, betas))}")
        regular = is_regular(p)
        seen.add(regular)
        if not regular:
            continue
        assert _reference_clause_iii(p), p.literal()
        shuffled = shuffler.sample(p.betas, n)
        for s in units(d):
            want = _reference_w(p, (0, 0, 0), s) + d * n * (n - 1) // 2
            for paired in (p.betas, shuffled):
                got = n * sum((s * (b - a)) % d for a, b in zip(p.alphas, paired))
                assert got == want, (p.literal(), paired, s)
    assert seen == {True, False}, seen


# alpha shapes with regular n=4 candidates, for every d in 25..36 that has
# any (none of 25, 29, 31 and 35 has), both partitions and both outcomes
# of strict (D)
_SHAPES_PAST_24 = (
    (26, (0, 0, 0, 1)),
    (27, (0, 0, 1, 1)),
    (28, (0, 0, 0, 2)),
    (28, (0, 0, 0, 4)),
    (30, (0, 0, 0, 3)),
    (30, (0, 0, 0, 5)),
    (30, (0, 0, 5, 5)),
    (32, (0, 0, 0, 2)),
    (33, (0, 0, 2, 2)),
    (34, (0, 0, 0, 1)),
    (36, (0, 0, 0, 3)),
    (36, (0, 0, 0, 6)),
    (36, (0, 0, 6, 6)),
)


def test_strict_d_matches_reference_past_d24():
    # the one-solve strict find_c and det_condition against the references,
    # on moduli whose coset keys have up to four coordinates (d = 30)
    rng = random.Random(25)
    sample = []
    for d, alphas in _SHAPES_PAST_24:
        regular = [p for p in _candidate_params(d, alphas) if is_regular(p)]
        sample += rng.sample(regular, min(len(regular), 2))
    assert {p.d for p in sample} == {26, 27, 28, 30, 32, 33, 34, 36}
    found = Counter()
    for p in sample:
        c = find_c(p, False)
        assert c == _reference_find_c(p, False), p.literal()
        found[c is not None] += 1
        # triples with P(s) + S_c(s) constant, the ones clause (iv) decides
        us = units(p.d)
        pairing = [sum((s * (b - a)) % p.d for a, b in zip(p.alphas, p.betas)) for s in us]
        cs = [
            x
            for x in _ordered_triples(p.d)
            if len({ps + sum((s * xi) % p.d for xi in x) for ps, s in zip(pairing, us)}) == 1
        ]
        for x in rng.sample(cs, min(len(cs), 4)) + ([c] if c else []):
            want = _reference_det_condition(p, x, False)
            assert det_condition(p, x, False) == want, (p.literal(), x)
            found["det", want] += 1
    assert all(found[k] for k in (True, False, ("det", True), ("det", False))), found


def test_strict_d_is_scaling_invariant():
    # strict (D) asks for some good solution in the whole lattice, so a
    # parameter passes exactly when each of its unit scalings does; checked
    # on every regular n=4 parameter of the pool
    found = {True: 0, False: 0}
    for p in (p for p in _regular_pool() if p.n == 4):
        want = find_c(p, False) is None
        for s in units(p.d):
            assert (find_c(scale(p, s), False) is None) == want, (p.literal(), s)
        found[want] += 1
    assert all(found.values()), found


def test_published_d_is_not_scaling_invariant():
    # The published reading tests coprimality on the one solution pinned to
    # the pivot basis, and scaling moves that solution.  This is why
    # SearchSpec refuses --dedup unless the criteria are strict.
    p = parse("d=18;a=0,0,0,3;b=4,11,16,17")
    q = scale(p, 7)
    assert q.betas == (4, 5, 10, 11)
    assert find_c(p) == (1, 7, 10)
    assert find_c(q) is None


# The (3,1) orbits on which published (D) is mixed, each with the members
# that pass and their c; every other member fails, the canonical one too.
MIXED_PUBLISHED_ORBITS = {
    "d=18;a=0,0,0,3;b=4,5,6,15": {
        "d=18;a=0,0,0,3;b=6,11,15,16": (1, 7, 10),
        "d=18;a=0,0,0,15;b=2,3,7,12": (4, 16, 16),
    },
    "d=18;a=0,0,0,3;b=4,5,9,12": {
        "d=18;a=0,0,0,3;b=9,11,12,16": (1, 7, 10),
        "d=18;a=0,0,0,15;b=2,6,7,9": (4, 16, 16),
    },
    "d=18;a=0,0,0,3;b=4,5,10,11": {
        "d=18;a=0,0,0,3;b=4,11,16,17": (1, 7, 10),
        "d=18;a=0,0,0,15;b=1,2,7,14": (4, 16, 16),
    },
    "d=30;a=0,0,0,3;b=5,19,26,28": {
        "d=30;a=0,0,0,9;b=4,5,7,8": (9, 22, 29),
        "d=30;a=0,0,0,9;b=14,17,25,28": (1, 2, 27),
        "d=30;a=0,0,0,21;b=2,5,13,16": (3, 28, 29),
        "d=30;a=0,0,0,21;b=22,23,25,26": (1, 8, 21),
    },
}


def test_mixed_published_orbits_per_member():
    # the three d=18 orbits are all the evidence for d=18 in the published
    # (3,1) row, so that row rests on which member is tested
    for canon, passing in MIXED_PUBLISHED_ORBITS.items():
        p = parse(canon)
        assert canonical_form(p) == p
        orbit = scaling_orbit(p)
        assert len(orbit) == phi(p.d)
        verdicts = {q.literal(): find_c(q) for q in orbit}
        assert {lit: c for lit, c in verdicts.items() if c is not None} == passing, canon
        for q in orbit:
            # regular and BM throughout, and strict (D) passes every member
            assert is_regular(q) and bm_published(q) and find_c(q, False) is not None, q.literal()


@settings(max_examples=400, deadline=None)
@given(random_param())
def test_hodge_degrees_match_double_sum_reference(p):
    if p is None:
        return
    d = p.d
    want, bad = {}, None
    for s in units(d):
        degs = []
        for bj in p.betas:
            tot = d * (d - 1) // 2
            tot += sum((s * (bj - a)) % d for a in p.alphas)
            tot -= sum((s * (bj - b)) % d for b in p.betas)
            if tot % d != 0 and bad is None:
                bad = f"d={d} does not divide {tot} at beta={bj}, s={s}"
            degs.append(tot // d - 1)
        want[s] = sorted(degs)
    if bad is not None:
        with pytest.raises(NonIntegralDegree, match=re.escape(bad)):
            hodge_degrees(p)
    else:
        assert hodge_degrees(p) == want


def test_hodge_degrees_raise_only_on_a_broken_sum_rule():
    """d*(p_j + 1) = C(d,2) - s*(sum(a) - sum(b)) mod d, and s*C(d,2) = C(d,2)
    for a unit s, so the degrees are integers exactly when the sum rule
    holds.  validate refuses a parameter that breaks it, so only an HgParam
    built without validate can raise NonIntegralDegree, and it raises at
    s = 1."""
    d, alphas, betas = 9, (0, 0, 0), (1, 2, 7)
    with pytest.raises(SumMismatch):
        validate(d, alphas, betas)
    tot = d * (d - 1) // 2 + sum((1 - a) % d for a in alphas) - sum((1 - b) % d for b in betas)
    with pytest.raises(NonIntegralDegree, match=re.escape(f"d={d} does not divide {tot} at beta=1, s=1")):
        hodge_degrees(HgParam(d, alphas, betas))
    # one residue moved back onto the sum rule, and every degree is whole
    assert hodge_degrees(HgParam(d, alphas, (1, 2, 6)))[1] == [2, 3, 4]


def _coordinates(d, coeffs):
    """The strict plan's lattice coordinates z of the solutions of
    M x = M coeffs, which differ from coeffs by a kernel vector."""
    sf = _strict_plan(d, 1).sf
    f = _combine(d, coeffs)
    return lattice_coordinates(sf, [sum(a * b for a, b in zip(row, f)) for row in sf.u])


def test_coset_key_separates_cosets():
    # key(h) = 0 exactly when h lies in H + K, and key(h) == key(h')
    # exactly when h - h' does, against the scan over the reference K; the
    # key of an image h is the plan's checks on its lattice coordinates
    rng = random.Random(13)
    seen = Counter()
    for d in [*range(3, 25), 30, 36, 42]:
        idx, mods = e_basis_index(d), _mods(d)
        draws = []
        for _ in range(8):
            coeffs = {key: rng.randint(-6, 6) for key in rng.sample(idx, min(len(idx), 5))}
            draws.append((_coordinates(d, coeffs), _reference_image(coeffs, d)))
        for n in (2, 3, 4, 6):
            keys = [(_strict_key(d, n, z), h) for z, h in draws]
            for key, h in keys:
                assert (not any(key)) == _scan_coset(d, n, h), (d, n, h)
            for (key, h), (other, h2) in itertools.combinations(keys, 2):
                same = _scan_coset(d, n, tuple((a - b) % m for a, b, m in zip(h, h2, mods)))
                assert (key == other) == same, (d, n, h, h2)
                seen[same] += 1
    assert seen[True] > 500 and seen[False] > 500, seen


def test_coset_test_matches_direct_scan():
    # The published reading must match the conditions on the unreduced
    # y-values of the given solution.  The strict test must match the scan
    # of the solution's image h + K, and of h + k for a point k of K, for
    # d 3..40 and 60 and n 1..7; up to d = 24 the scan on Fraction y-values
    # agrees too.
    rng = random.Random(3)
    outcomes = {True: set(), False: set()}
    for d in [*range(3, 41), 60]:
        idx, mods = e_basis_index(d), _mods(d)
        for _ in range(12 if d <= 24 else 4):
            coeffs = {key: rng.randint(-6, 6) for key in rng.sample(idx, min(len(idx), 5))}
            y1, yps = _reference_y(coeffs, d)
            image = gamma_exponents(coeffs, d)
            assert image == _reference_image(coeffs, d), (d, coeffs)
            shifted = tuple((a + b) % m for a, b, m in zip(image, rng.choice(_reference_kernel_group(d)), mods))
            z = _coordinates(d, coeffs)
            for n in range(1, 8):
                want = _reference_coprime(y1, yps, d, n)
                assert _good_point(d, n, image) == want, (d, n, coeffs)
                outcomes[True].add(want)
                want = _scan_coset(d, n, image)
                assert (not any(_strict_key(d, n, z))) == want == _scan_coset(d, n, shifted), (d, n, coeffs)
                if d <= 24 and n in (3, 4, 6):
                    assert _reference_coset_good(coeffs, d, n) == want, (d, n, coeffs)
                outcomes[False].add(want)
    assert outcomes == {True: {True, False}, False: {True, False}}


def test_each_modulus_has_its_own_coset_verdicts():
    # the checks are built per (d, n): built from d = 30 down to 5 in one
    # process, each modulus's strict verdicts equal the scan at that d
    _strict_plan.cache_clear()
    rng = random.Random(8)
    outcomes = Counter()
    for d in range(30, 4, -1):
        idx = e_basis_index(d)
        for _ in range(6):
            coeffs = {key: rng.randint(-6, 6) for key in rng.sample(idx, min(len(idx), 5))}
            z, h = _coordinates(d, coeffs), _reference_image(coeffs, d)
            for n in (4, 6):
                want = _scan_coset(d, n, h)
                assert (not any(_strict_key(d, n, z))) == want, (d, n, coeffs)
                outcomes[want] += 1
    assert len(outcomes) == 2, outcomes


def _good_subgroup(d, n, i):
    """The generator g_i of the good subgroup of coordinate i of the gamma
    image, from the valuation bounds of _StrictPlan's docstring: for an
    even n, 4 | y_1 (d odd) or 8 | y_1 (d even); and for each prime r | n,
    v_r(y_p) >= v_r(D) with D = d or 2d as in _b_p."""
    if i == 0:
        return 1 if n % 2 else 4 if d % 2 else 8
    pp = prime_divisors(d)[i - 1]
    big = d if d % 4 == 0 or pp % 4 == 1 else 2 * d
    return math.prod(r ** _valuation(big, r) for r in prime_divisors(n))


def _valuation(x, r):
    v = 0
    while x % r == 0:
        x, v = x // r, v + 1
    return v


def _axis(d, i, t):
    return [t * (j == i) for j in range(len(_mods(d)))]


def test_good_set_of_each_coordinate_is_a_subgroup():
    # strict (D) rests on this: along each axis, _good_point accepts
    # exactly the multiples of g_i, and elsewhere it is the product of its
    # coordinate tests
    rng = random.Random(34)
    outcomes = Counter()
    for d in range(3, MAX_D + 1):
        mods = _mods(d)
        for n in range(1, MAX_N + 1):
            for i, m in enumerate(mods):
                g = _good_subgroup(d, n, i)
                assert m % g == 0, (d, n, i)
                good = [t for t in range(m) if _good_point(d, n, _axis(d, i, t))]
                assert good == list(range(0, m, g)), (d, n, i)
            for _ in range(4):
                h = [rng.randrange(m) for m in mods]
                want = all(_good_point(d, n, _axis(d, i, t)) for i, t in enumerate(h))
                assert _good_point(d, n, h) == want, (d, n, h)
                outcomes[want] += 1
    assert len(outcomes) == 2, outcomes


def test_strict_plan_refuses_a_good_set_that_is_not_a_subgroup(monkeypatch):
    from hgsearch import criteria

    build = _strict_plan.__wrapped__
    # multiples of 4 in y_1 form a subgroup, and the plan builds
    monkeypatch.setattr(criteria, "_good_point", lambda d, n, image: image[0] % 4 == 0)
    assert build(5, 4).checks
    # 0 and 2 alone do not: 2 + 2 = 4 is left out
    monkeypatch.setattr(criteria, "_good_point", lambda d, n, image: image[0] in (0, 2))
    with pytest.raises(ValueError, match="coordinate 0 of the gamma image has no good subgroup at d=5, n=4"):
        build(5, 4)


def _reference_bm_failures(p):
    """The BM bullets that fail, each evaluated from its statement."""
    d, a, b = p.d, list(p.alphas), list(p.betas)

    def moved(vals, sign, shift):
        return sorted((sign * v + shift) % d for v in vals)

    step = b[1] - b[0]
    failing = {
        1: len(set(a)) == len(a),
        2: b == [b[0] + i * step for i in range(len(b))],
        3: any(moved(a, 1, t) == a and moved(b, 1, t) == b for t in range(1, d)),
        4: any(
            moved(a, -1, -s) == moved(a, 1, s) and moved(b, -1, -s) == moved(b, 1, s)
            for s in range(d)
        ),
    }
    return [k for k in (1, 2, 3, 4) if failing[k]]


def _counter_bm(p):
    """(bm(p), bullet 1 or 3 result) as computed with Counters over every
    shift: the reference for the sorted-tuple shift tests."""
    d = p.d

    def moved(vals, sign, s):
        return Counter((sign * v + s) % d for v in vals)

    shared = None
    if len(set(p.alphas)) >= p.n:
        shared = 1
    else:
        ca, cb = Counter(p.alphas), Counter(p.betas)
        if any(moved(p.alphas, 1, s) == ca and moved(p.betas, 1, s) == cb for s in range(1, d)):
            shared = 3
    if shared != 1 and is_cyclic_ap(p.betas, d):
        return (False, 2), shared
    if shared is not None:
        return (False, shared), shared
    for s in range(d):
        if moved(p.alphas, -1, -s) == moved(p.alphas, 1, s) and moved(p.betas, -1, -s) == moved(
            p.betas, 1, s
        ):
            return (False, 4), shared
    return (True, None), shared


def _partitions(n, top=None):
    top = n if top is None else top
    if n == 0:
        yield ()
    for k in range(min(n, top), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def test_bm_matches_counter_reference():
    # every search candidate with n <= 5 and d <= 12
    seen = Counter()
    for n in range(2, 6):
        for part in _partitions(n):
            for d in range(n + 1, 13):
                for alphas in enumerate_alphas(d, part):
                    for p in _candidate_params(d, alphas):
                        want, shared = _counter_bm(p)
                        assert bm(p) == want, p.literal()
                        assert bm_published(p) == (shared is None), p.literal()
                        seen[want[1]] += 1
                        seen["shared", shared] += 1
    assert all(seen[k] for k in (None, 1, 2, 3, 4, ("shared", 3))), seen


def test_bm_matches_reference_bullets():
    # every valid n=3 and n=4 parameter with d <= 10
    seen = Counter()
    for d in range(4, 11):
        for n in range(3, min(d, 5)):
            for alphas in itertools.combinations_with_replacement(range(d), n):
                for betas in itertools.combinations(range(d), n):
                    if (sum(alphas) - sum(betas) - d * (d - 1) // 2) % d or set(alphas) & set(betas):
                        continue
                    p = validate(d, alphas, betas)
                    failing = _reference_bm_failures(p)
                    first = failing[0] if failing else None
                    assert bm(p) == (first is None, first), p.literal()
                    assert bm_published(p) == (1 not in failing and 3 not in failing), p.literal()
                    seen[first] += 1
    assert set(seen) == {None, 1, 2, 4}, seen
    # bullet 3 is the first to fail on none of them; here it is
    p = parse("d=12;a=0,0,6,6;b=1,2,7,8")
    assert _reference_bm_failures(p) == [3]
    assert bm(p) == (False, 3) and not bm_published(p)


def _draw_translated(rng, d, k, n):
    """A random valid parameter of modulus d and length n fixed by the
    translation by d/k, with a repeated alpha, or None when the draw breaks
    a clause.  The base residues lie in [0, d/k), and the translates add
    the same to the sums of the alphas and the betas, so the sum rule asks
    k (sum of base alphas - sum of base betas) = C(d,2) mod d."""
    m, base = d // k, n // k
    betas = rng.sample(range(m), base)
    alphas = [rng.randrange(m)] * (base - 1)
    lasts = [x for x in range(m) if (k * (sum(alphas) + x - sum(betas)) - d * (d - 1) // 2) % d == 0]
    if not lasts:
        return None
    alphas = sorted(a + j * m for a in alphas + [rng.choice(lasts)] for j in range(k))
    betas = sorted(b + j * m for b in betas for j in range(k))
    return None if set(alphas) & set(betas) else HgParam(d, tuple(alphas), tuple(betas))


def test_bm_matches_counter_reference_up_to_d60():
    # seeded draws with d <= 60 and n <= 7: plain ones, ones with a single
    # alpha value (often regular), and ones fixed by a translation, which
    # bullet 3 needs; _counter_bm tries every t != 0 and every s
    rng = random.Random(60)
    seen, regular = Counter(), 0
    for i in range(6000):
        d = rng.randint(3, 60)
        n = rng.randint(1, min(7, d - 1))
        if i % 3 == 0:
            p = _draw_param(rng, d, n)
        elif i % 3 == 1:
            p = _draw_param(rng, d, n, rng.randrange(d))
        else:
            k = rng.choice([k for k in (2, 3) if d % k == 0 and n >= 2 * k] or [None])
            p = _draw_translated(rng, d, k, n - n % k) if k else None
        if p is None:
            continue
        want, shared = _counter_bm(p)
        assert bm(p) == want, p.literal()
        assert bm_published(p) == (shared is None), p.literal()
        seen[want[1]] += 1
        regular += is_regular(p)
    assert all(seen[k] for k in (None, 1, 2, 3, 4)), seen
    assert regular > 1000, regular


def test_no_translation_fixes_a_regular_candidate():
    # bm_published's proof: under (R) bullet 3 cannot fail, so on the
    # search path the filter is bullet 1 alone
    cases = [(n, part, d) for n in range(2, 7) for part in _partitions(n) for d in range(n + 1, 15)]
    cases.append((6, (3, 2, 1), 20))
    seen = Counter()
    for n, part, d in cases:
        for alphas in enumerate_alphas(d, part):
            room = regular_room(d, alphas)
            for p in _candidate_params(d, alphas):
                if not (room[p.betas[0]] and is_regular(p)):
                    continue
                for t in range(1, d):
                    moved = [tuple(sorted((x + t) % d for x in xs)) for xs in (p.alphas, p.betas)]
                    assert moved != [p.alphas, p.betas], (p.literal(), t)
                assert bm_published(p) == (len(set(p.alphas)) < n), p.literal()
                seen[bm_published(p)] += 1
    assert seen[True] > 900 and seen[False] > 200, seen


def test_c_index_matches_per_unit_bracket_sums():
    for d in [*range(3, 41), 105, 112, 120]:
        us = units(d)
        want = {}
        for c in _c_candidates(d):
            key = tuple(sum((s * x) % d - (us[0] * x) % d for x in c) for s in us)
            want.setdefault(key, []).append(c)
        assert _c_index(d) == want, d
