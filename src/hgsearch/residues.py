"""Arithmetic and combinatorics in Z/dZ and its unit group.

Everything here works with plain ints reduced mod d.  The bracket [x] is
the representative in [0, d-1], the basic quantity in all the combinatorial
criteria; they read its sums over the units from one table per d
(unit_brackets).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Iterable


def bracket(x: int, d: int) -> int:
    """Representative of x mod d in [0, d-1]."""
    return x % d


@lru_cache(maxsize=None)
def prime_divisors(m: int) -> tuple[int, ...]:
    """The distinct primes dividing m >= 1, increasing, by trial division.
    Memoised, as clause (iv) asks for d's primes at every point it tests."""
    out = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def phi(m: int) -> int:
    """Euler's totient of m >= 1."""
    out = m
    for q in prime_divisors(m):
        out -= out // q
    return out


def is_prime(m: int) -> bool:
    return m > 1 and prime_divisors(m) == (m,)


def units(d: int) -> list[int]:
    """Sorted list of units of Z/dZ."""
    return [x for x in range(1, d) if math.gcd(x, d) == 1]


@lru_cache(maxsize=None)
def _unit_rows(d: int) -> tuple[tuple[int, ...], ...]:
    """Row x holds [s x] for each unit s, in units(d) order; row 0 is zero."""
    us = units(d)
    return tuple(tuple(s * x % d for s in us) for x in range(d))


def unit_brackets(d: int, xs: Iterable[int]) -> list[int]:
    """sum_{x in xs} [s x] for each unit s, in units(d) order, each x reduced
    mod d: the Hodge degrees and the (D) profile read these sums."""
    rows = _unit_rows(d)
    return list(map(sum, zip(rows[0], *(rows[x % d] for x in xs))))


@lru_cache(maxsize=64)
def gap_masks(d: int, values: tuple[int, ...]) -> int:
    """The cyclic gaps that the residues in values cut, intersected over the
    units and packed into one int (a tuple would park each evicted table on
    the interpreter's free list for its size): bits x*d to x*d + d - 1 mark
    the residues that, under every unit s, lie strictly inside the same
    cyclic gap between consecutive distinct s*v as x; they are 0 when x is
    one of the values.

    Under s, a step of s*x by one is a step of x by t = 1/s, and t runs over
    the units as s does: each unit t walks x = v_1 + k*t, k = 1..d, once
    around the circle, closing a gap at each value.  -t walks the same gaps
    backwards, so the units below d/2 suffice.
    """
    cuts = set(values)
    table = [(1 << d) - 1] * d
    us = units(d)
    for t in us[: len(us) // 2]:
        members, mask = [], 0
        for k in range(1, d + 1):
            x = (values[0] + k * t) % d
            if x in cuts:
                for y in members:
                    table[y] &= mask
                members, mask = [], 0
            else:
                members.append(x)
                mask |= 1 << x
    return sum(entry << (x * d) for x, entry in enumerate(table) if x not in cuts)


def is_cyclic_ap(values: Iterable[int], d: int) -> bool:
    """True iff the sorted representatives in [0, d-1] have a constant
    difference, i.e. the set is b, b+k, ..., b+(m-1)k without wrapping
    past d.

    A wraparound scan over (b, k) would also classify sets like {1, 2, 6}
    mod 9 (= 2, 6, 10) as progressions; the search criteria need those to
    count as non-progressions, so the non-wrapping reading is used.
    """
    s = sorted({v % d for v in values})
    if len(s) <= 2:
        return True
    k = s[1] - s[0]
    return all(b - a == k for a, b in zip(s, s[1:]))


class UnitSubgroup:
    """A subgroup of (Z/dZ)^x, stored as a sorted tuple of elements."""

    __slots__ = ("modulus", "elements")

    def __init__(self, modulus: int, elements: Iterable[int]):
        members = {e % modulus for e in elements}
        elems = sorted(members)
        if 1 not in members:
            raise ValueError("subgroup must contain 1")
        for a in elems:
            if math.gcd(a, modulus) != 1:
                raise ValueError(f"{a} is not a unit mod {modulus}")
            for b in elems:
                if (a * b) % modulus not in members:
                    raise ValueError("not closed under multiplication")
        self.modulus = modulus
        self.elements = tuple(elems)

    def __contains__(self, x: int) -> bool:
        return x % self.modulus in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnitSubgroup)
            and self.modulus == other.modulus
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.elements))

    def __repr__(self) -> str:
        return f"UnitSubgroup({self.modulus}, {list(self.elements)})"

    def issubset(self, other: "UnitSubgroup") -> bool:
        return set(self.elements) <= set(other.elements)


def _join(d: int, h: frozenset, g: int) -> frozenset:
    """H·<g> for a subgroup H and a unit g: the union of the cosets g^k·H
    up to the first g^k that lies in one already taken, which is then in H.
    A non-unit g stops too, leaving non-units for UnitSubgroup to refuse."""
    out, x = set(h), g % d
    while x not in out:
        out.update(x * y % d for y in h)
        x = x * g % d
    return frozenset(out)


def closure(d: int, gens: Iterable[int]) -> UnitSubgroup:
    """Subgroup of (Z/dZ)^x generated by the given units."""
    h = frozenset({1})
    for g in gens:
        h = _join(d, h, g)
    return UnitSubgroup(d, h)


@lru_cache(maxsize=None)
def unit_subgroups(d: int) -> tuple[UnitSubgroup, ...]:
    """Every subgroup of (Z/dZ)^x, each once, sorted by (order, elements).

    Every subgroup is a product <g_1>···<g_k>, so extending each known
    subgroup H to H·<g> by each unit g reaches them all.  Memoised per d,
    since complements() reads the list once per candidate U.
    """
    us = units(d)
    found = {frozenset({1})}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for g in us:
            bigger = _join(d, h, g)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return tuple(sorted((UnitSubgroup(d, h) for h in found), key=lambda h: (len(h), h.elements)))


def complements(u: UnitSubgroup) -> list[UnitSubgroup]:
    """All V with U∩V = {1} and UV = (Z/dZ)^x.  The group is abelian, so
    |UV| = |U||V| / |U∩V|, and the first condition with |U||V| = phi(d)
    gives the second."""
    order, own = phi(u.modulus), set(u.elements)
    subgroups = unit_subgroups(u.modulus)
    return [v for v in subgroups if len(u) * len(v) == order and own & set(v.elements) == {1}]


def difference_multiset(v: Iterable[int], d: int) -> Counter:
    """Multiset {v_i - v_j mod d} over all ordered pairs (size |v|^2)."""
    vals = [x % d for x in v]
    return Counter((a - b) % d for a in vals for b in vals)
