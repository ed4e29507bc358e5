"""The hypergeometric-parameter data model.

A parameter is a tuple (d; alpha_1..alpha_n; beta_1..beta_n) of residues
mod d with

    sum(alpha) - sum(beta) = C(d,2)   (mod d),
    alpha_i != beta_j for all i, j,
    beta_i pairwise distinct,

optionally carrying a c-triple with c_0 + c_1 + c_2 = 0 and either all
entries nonzero or all zero.  Textual form:

    d=18;a=0,0,0,3;b=4,11,16,17;c=1,7,10
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Optional, Sequence

from .residues import units

# check, search and the verify commands refuse d above MAX_D, and search
# refuses n above MAX_N and more than MAX_WORKERS worker processes:
# full_report takes under a second up to d = 120, and its walk over the
# subgroups of (Z/dZ)^x a quarter second up to d = 240, but a search visits
# about C(d, n)/d beta sets per alpha shape, its answers are tested only up
# to d = 30, and verify-jacobi works mod l^d
MAX_D = 120
MAX_N = 7
MAX_WORKERS = 64


class ValidationError(ValueError):
    """Base class for parameter validation failures."""


class SumMismatch(ValidationError):
    """sum(alpha) - sum(beta) != C(d,2) mod d."""


class AlphaBetaCollision(ValidationError):
    """Some alpha_i equals some beta_j."""


class BetaRepeat(ValidationError):
    """The beta_i are not pairwise distinct."""


class BadCTriple(ValidationError):
    """c does not sum to 0, or mixes zero and nonzero entries."""


class InvalidScale(ValidationError):
    """The scale is not a unit mod d."""


class HgParam(NamedTuple):
    """A validated hypergeometric parameter.  Immutable; build via validate()."""

    d: int
    alphas: tuple[int, ...]
    betas: tuple[int, ...]
    c: Optional[tuple[int, int, int]] = None

    @property
    def n(self) -> int:
        return len(self.alphas)

    def literal(self) -> str:
        s = "d={};a={};b={}".format(
            self.d,
            ",".join(map(str, self.alphas)),
            ",".join(map(str, self.betas)),
        )
        if self.c is not None:
            s += ";c=" + ",".join(map(str, self.c))
        return s

    def __str__(self) -> str:
        return self.literal()


def validate(
    d: int,
    alphas: Sequence[int],
    betas: Sequence[int],
    c: Optional[Sequence[int]] = None,
) -> HgParam:
    """Reduce mod d, sort, and check every defining clause.

    Residues already in [0, d) are their own reduction, so a sorted list
    whose ends lie in range is kept as it is; a search's candidates always
    are, and skip the reduction."""
    if d < 3:
        raise ValidationError(f"modulus must be >= 3, got {d}")
    n = len(alphas)
    if len(betas) != n:
        raise ValidationError("alpha and beta must have the same length")
    if not 0 < n < d:
        raise ValidationError(f"need 0 < n < d, got n={n}, d={d}")
    a = tuple(sorted(alphas))
    if a[0] < 0 or a[-1] >= d:
        a = tuple(sorted([x % d for x in a]))
    b = tuple(sorted(betas))
    if b[0] < 0 or b[-1] >= d:
        b = tuple(sorted([x % d for x in b]))
    beta_set = set(b)
    if len(beta_set) != n:
        raise BetaRepeat(f"repeated beta in {b}")
    if not beta_set.isdisjoint(a):
        raise AlphaBetaCollision(f"alpha and beta share {sorted(beta_set.intersection(a))}")
    if (sum(a) - sum(b) - d * (d - 1) // 2) % d:
        diff, want = (sum(a) - sum(b)) % d, math.comb(d, 2) % d
        raise SumMismatch(f"sum(alpha)-sum(beta) = {diff} != C({d},2) = {want} mod {d}")
    cc: Optional[tuple[int, int, int]] = None
    if c is not None:
        if len(c) != 3:
            raise BadCTriple(f"c must have 3 entries, got {len(c)}")
        cc = tuple(sorted(x % d for x in c))  # type: ignore[assignment]
        if sum(cc) % d != 0:
            raise BadCTriple(f"c entries sum to {sum(cc) % d} != 0 mod {d}")
        nonzero = [x for x in cc if x != 0]
        if nonzero and len(nonzero) != 3:
            raise BadCTriple(f"c mixes zero and nonzero entries: {cc}")
    # the NamedTuple's generated __new__ only packs its arguments into the
    # tuple; going round it saves about a tenth of a search candidate's call
    return tuple.__new__(HgParam, (d, a, b, cc))


_LITERAL_RE = re.compile(
    r"^d=(\d+);a=(\d+(?:,\d+)*);b=(\d+(?:,\d+)*)(?:;c=(\d+),(\d+),(\d+))?$"
)


def parse(literal: str) -> HgParam:
    """Parse the textual form produced by HgParam.literal()."""
    m = _LITERAL_RE.match(literal.strip())
    if m is None:
        raise ValidationError(f"malformed parameter literal: {literal!r}")
    d = int(m.group(1))
    alphas = [int(x) for x in m.group(2).split(",")]
    betas = [int(x) for x in m.group(3).split(",")]
    c = None
    if m.group(4) is not None:
        c = [int(m.group(4)), int(m.group(5)), int(m.group(6))]
    return validate(d, alphas, betas, c)


def a_vector(p: HgParam) -> tuple[int, ...]:
    """(-alpha_1, ..., -alpha_n, s_0, ..., s_{d-n-1}) with the s_k running
    over the complement of {-beta_i}; always sums to 0 mod d."""
    d = p.d
    excluded = {(-b) % d for b in p.betas}
    tail = [x for x in range(d) if x not in excluded]
    vec = tuple([(-a) % d for a in p.alphas] + tail)
    assert len(vec) == d and sum(vec) % d == 0
    return vec


def scale(p: HgParam, s: int) -> HgParam:
    """The parameter (s*alpha; s*beta; s*c) for a unit s, re-validated.

    A unit keeps the sum clause: C(d,2) is 0 mod d for odd d and d/2 for
    even d, where every unit is odd, so s*C(d,2) = C(d,2) mod d."""
    d = p.d
    if math.gcd(s, d) != 1:
        raise InvalidScale(f"{s} is not a unit mod {d}")
    c = None if p.c is None else [(s * x) % d for x in p.c]
    return validate(d, [(s * a) % d for a in p.alphas], [(s * b) % d for b in p.betas], c)


def scaling_orbit(p: HgParam) -> list[HgParam]:
    """All distinct scale(p, s) over units s."""
    seen = {}
    for s in units(p.d):
        q = scale(p, s)
        seen[(q.alphas, q.betas)] = q
    return [seen[k] for k in sorted(seen)]


def canonical_form(p: HgParam) -> HgParam:
    """Lexicographically least (alphas, betas) in the scaling orbit."""
    return scaling_orbit(p)[0]
