import math
import random

import pytest
from hypothesis import given, strategies as st

from hgsearch.residues import (
    UnitSubgroup,
    bracket,
    closure,
    complements,
    difference_multiset,
    gap_masks,
    is_cyclic_ap,
    is_prime,
    phi,
    prime_divisors,
    unit_brackets,
    unit_subgroups,
    units,
)


def test_number_theory_matches_brute_force():
    for m in range(1, 3001):
        divisors = [q for q in range(2, m + 1) if m % q == 0]
        primes = [q for q in divisors if all(q % r for r in range(2, q))]
        assert prime_divisors(m) == tuple(primes), m
        assert is_prime(m) == (divisors == [m]), m
        assert phi(m) == sum(1 for x in range(1, m + 1) if math.gcd(x, m) == 1), m


def test_bracket_small_values():
    assert bracket(0, 9) == 0
    assert bracket(5, 9) == 5
    assert bracket(-1, 9) == 8
    assert bracket(9, 9) == 0
    assert bracket(23, 9) == 5


@given(st.integers(-500, 500), st.integers(2, 60))
def test_bracket_range_and_congruence(x, d):
    r = bracket(x, d)
    assert 0 <= r < d
    assert (r - x) % d == 0


@given(st.integers(-500, 500), st.integers(2, 60))
def test_bracket_complement(x, d):
    # [x] + [-x] == d unless x == 0 mod d
    if x % d == 0:
        assert bracket(x, d) == 0
    else:
        assert bracket(x, d) + bracket(-x, d) == d


def test_units_examples():
    assert units(9) == [1, 2, 4, 5, 7, 8]
    assert units(12) == [1, 5, 7, 11]
    assert len(units(20)) == 8


def test_is_cyclic_ap_examples():
    # difference 2 progression inside Z/9
    assert is_cyclic_ap([2, 4, 6, 8], 9)
    # the same set reordered
    assert is_cyclic_ap([8, 2, 6, 4], 9)
    assert not is_cyclic_ap([1, 2, 7, 8], 9)
    assert is_cyclic_ap([2, 6, 10, 14], 15)
    assert is_cyclic_ap([3, 5, 7, 9, 11, 13], 15)
    assert not is_cyclic_ap([3, 4, 6, 10, 12, 13], 20)


def test_is_cyclic_ap_degenerate():
    assert is_cyclic_ap([5], 9)
    assert is_cyclic_ap([1, 4], 9)


def test_closure_and_subgroups():
    u = closure(20, [3])
    assert sorted(u.elements) == [1, 3, 7, 9]
    full = closure(20, [3, 11])
    assert sorted(full.elements) == units(20)
    subs = unit_subgroups(9)
    sizes = sorted(len(s) for s in subs)
    # phi(9) = 6, cyclic, so one subgroup per divisor of 6
    assert sizes == [1, 2, 3, 6]


def _reference_closure(d, gens):
    # the walk unit_subgroups used to take: square the element set until it
    # is closed
    elems = {1} | {g % d for g in gens}
    while True:
        new = {(a * b) % d for a in elems for b in elems}
        if new <= elems:
            return UnitSubgroup(d, elems)
        elems |= new


def _reference_unit_subgroups(d):
    # iterated closure: extend each known subgroup by each unit
    found = {UnitSubgroup(d, [1])}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for g in units(d):
            if g not in h:
                bigger = _reference_closure(d, list(h.elements) + [g])
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return tuple(sorted(found, key=lambda h: (len(h), h.elements)))


def test_unit_subgroups_match_iterated_closure():
    for d in list(range(3, 61)) + [105, 112, 120]:
        assert unit_subgroups(d) == _reference_unit_subgroups(d), d


def test_unit_subgroups_of_a_cyclic_group_one_per_divisor():
    # (Z/pZ)^x is cyclic of order p - 1, with one subgroup per divisor
    for p in (109, 113):
        divisors = [k for k in range(1, p) if (p - 1) % k == 0]
        assert sorted(len(h) for h in unit_subgroups(p)) == divisors


def test_closure_matches_reference_and_refuses_non_units():
    for d in range(3, 41):
        us = units(d)
        for gens in [[g] for g in us] + [us[i : i + 2] for i in range(0, len(us), 3)]:
            assert closure(d, gens) == _reference_closure(d, gens), (d, gens)
        for g in range(d):
            if math.gcd(g, d) != 1:
                with pytest.raises(ValueError):
                    closure(d, [1, g])


def test_complements():
    u = closure(9, [-1])
    comps = complements(u)
    assert any(sorted(v.elements) == [1, 4, 7] for v in comps)
    for v in comps:
        assert len(u) * len(v) == 6


def _reference_complements(u):
    # with the product-set test that complements() leaves to |UV| = |U||V|/|U∩V|
    d, order = u.modulus, phi(u.modulus)
    out = []
    for v in unit_subgroups(d):
        if len(u) * len(v) != order or set(u.elements) & set(v.elements) != {1}:
            continue
        if len({a * b % d for a in u.elements for b in v.elements}) == order:
            out.append(v)
    return out


def test_complements_match_product_set_reference():
    found = 0
    for d in range(3, 61):
        for u in unit_subgroups(d):
            comps = complements(u)
            assert comps == _reference_complements(u), (d, u)
            found += bool(comps)
    # both outcomes occur: {1, 9} mod 16 has none, since every subgroup of
    # order 4 holds 9, the square of 3, 5, 11 and 13
    assert 0 < found < sum(len(unit_subgroups(d)) for d in range(3, 61))


def test_difference_multiset():
    dm = difference_multiset([1, 2, 6], 9)
    assert sum(dm.values()) == 9
    assert dm[0] == 3


@given(st.integers(3, 40))
def test_full_group_is_closed(d):
    u = UnitSubgroup(d, units(d))
    for a in u.elements:
        for b in u.elements:
            assert (a * b) % d in u


def _entries(table, d):
    return [(table >> (d * x)) & ((1 << d) - 1) for x in range(d)]


def test_gap_masks_of_one_distinct_value_is_one_gap():
    assert _entries(gap_masks(9, (4, 4, 4)), 9) == [0b111101111] * 4 + [0] + [0b111101111] * 4


def test_gap_masks_intersect_the_gaps_of_every_unit():
    # under s = 1 the gaps of {0, 2} mod 5 are {1} and {3, 4}; under s = 3,
    # 1, 3 and 4 go to 3, 4 and 2, one gap of {0, 1}; s = 2, 4 mirror these
    assert _entries(gap_masks(5, (0, 2)), 5) == [0, 0b00010, 0, 0b11000, 0b11000]


def test_unit_brackets_match_double_sum():
    rng = random.Random(19)
    for d in [*range(3, 41), 105, 112, 120]:
        us = units(d)
        assert unit_brackets(d, []) == [0] * phi(d) == [0] * len(us)
        drawn = [rng.randint(-3 * d, 3 * d) for _ in range(rng.randint(1, 7))]
        for xs in ([0], [1], [-1, -1, d + 2], [d - 1, -d, 2 * d + 3, -1, -1], drawn, drawn + drawn):
            assert unit_brackets(d, xs) == [sum((s * x) % d for x in xs) for s in us], (d, xs)
