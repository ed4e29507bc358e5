import math
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from hgsearch.cli import main
from hgsearch.params import (
    AlphaBetaCollision,
    BadCTriple,
    BetaRepeat,
    HgParam,
    InvalidScale,
    SumMismatch,
    ValidationError,
    a_vector,
    canonical_form,
    parse,
    scale,
    scaling_orbit,
    validate,
)


def test_parse_roundtrip():
    lit = "d=18;a=0,0,0,3;b=4,11,16,17;c=1,7,10"
    p = parse(lit)
    assert p.d == 18
    assert p.n == 4
    assert p.alphas == (0, 0, 0, 3)
    assert p.betas == (4, 11, 16, 17)
    assert p.c == (1, 7, 10)
    assert p.literal() == lit


def test_parse_without_c():
    p = parse("d=9;a=0,0,0;b=1,2,6")
    assert p.c is None
    assert p.literal() == "d=9;a=0,0,0;b=1,2,6"


def test_sum_constraint():
    # sum(alpha) - sum(beta) must be C(d,2) mod d
    with pytest.raises(SumMismatch):
        parse("d=9;a=0,0,0;b=1,2,7")


def test_alpha_beta_disjoint():
    with pytest.raises(ValidationError):
        validate(9, (0, 0, 1), (1, 3, 5))


def test_beta_distinct():
    with pytest.raises(ValidationError):
        validate(9, (0, 0, 0), (3, 3, 3))


def test_c_triple_rules():
    # mixed zero / nonzero is rejected
    with pytest.raises(BadCTriple):
        validate(9, (0, 0, 0), (1, 2, 6), c=(0, 1, 8))
    # nonzero sum is rejected
    with pytest.raises(BadCTriple):
        validate(9, (0, 0, 0), (1, 2, 6), c=(1, 1, 1))
    # all-zero and balanced all-nonzero are fine
    validate(9, (0, 0, 0), (1, 2, 6), c=(0, 0, 0))
    validate(9, (0, 0, 0), (1, 2, 6), c=(3, 7, 8))


# (alphas, betas, c) over d=9, the error class validate raises, and its
# exact message
VALIDATION_ERRORS = [
    ((0, 0, 0), (3, 12, 3), None, BetaRepeat, "repeated beta in (3, 3, 3)"),
    ((5, 1, 0), (10, 5, 7), None, AlphaBetaCollision, "alpha and beta share [1, 5]"),
    ((0, 0, 0), (1, 2, 7), None, SumMismatch, "sum(alpha)-sum(beta) = 8 != C(9,2) = 0 mod 9"),
    ((0, 0, 0), (1, 2, 6), (1, 8), BadCTriple, "c must have 3 entries, got 2"),
    ((0, 0, 0), (1, 2, 6), (1, 1, 1), BadCTriple, "c entries sum to 3 != 0 mod 9"),
    ((0, 0, 0), (1, 2, 6), (10, 0, 8), BadCTriple, "c mixes zero and nonzero entries: (0, 1, 8)"),
]


@pytest.mark.parametrize("alphas, betas, c, cls, message", VALIDATION_ERRORS)
def test_validate_error_class_and_message(alphas, betas, c, cls, message):
    with pytest.raises(ValidationError) as info:
        validate(9, alphas, betas, c)
    assert type(info.value) is cls
    assert str(info.value) == message


# the literal syntax has room for exactly three c entries
@pytest.mark.parametrize(
    "alphas, betas, c, cls, message", [e for e in VALIDATION_ERRORS if e[2] is None or len(e[2]) == 3]
)
def test_cli_reports_validation_error_on_stderr(alphas, betas, c, cls, message, capsys):
    literal = "d=9;a={};b={}".format(",".join(map(str, alphas)), ",".join(map(str, betas)))
    if c is not None:
        literal += ";c=" + ",".join(map(str, c))
    assert main(["check", "--param", literal]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"bad parameter literal: {message}\n"


def _reference_validate(d, alphas, betas, c=None):
    """validate as reduce mod d, then sort, then check every clause."""
    if d < 3:
        raise ValidationError("modulus")
    n = len(alphas)
    if len(betas) != n or not 0 < n < d:
        raise ValidationError("length")
    a = tuple(sorted(x % d for x in alphas))
    b = tuple(sorted(x % d for x in betas))
    if len(set(b)) != n:
        raise BetaRepeat(b)
    if set(a) & set(b):
        raise AlphaBetaCollision(a, b)
    if (sum(a) - sum(b) - math.comb(d, 2)) % d:
        raise SumMismatch(a, b)
    if c is None:
        return HgParam(d, a, b)
    if len(c) != 3:
        raise BadCTriple(c)
    cc = tuple(sorted(x % d for x in c))
    if sum(cc) % d or (0 in cc and any(cc)):
        raise BadCTriple(cc)
    return HgParam(d, a, b, cc)


@st.composite
def _raw_validate_args(draw):
    """(d, alphas, betas, c) with entries in [0, d), negative, >= d or a mix
    of these.  The residues mostly meet the rules: lengths that differ, a
    repeated beta, an alpha among the betas and a broken sum rule each turn
    up in a fraction of the draws."""
    d = draw(st.integers(3, 30))
    n = draw(st.integers(1, min(7, d - 1)))
    if draw(st.integers(0, 15)) == 0:
        d, n = draw(st.sampled_from([(2, 1), (5, 0), (5, 5), (4, 4)]))
    residues = st.lists(st.integers(0, d - 1), min_size=n, max_size=n, unique=draw(st.integers(0, 3)) > 0)
    betas = draw(residues)
    others = sorted(set(range(d)) - set(betas))
    if others and draw(st.integers(0, 3)) > 0:
        residues = st.lists(st.sampled_from(others), min_size=n, max_size=n)
    alphas = draw(residues)
    if alphas and draw(st.integers(0, 3)) > 0:
        alphas[-1] = (math.comb(d, 2) + sum(betas) - sum(alphas[:-1])) % d
    if draw(st.integers(0, 7)) == 0:
        betas.append(draw(st.integers(0, d - 1)))
    size = draw(st.sampled_from([None, None, 3, 3, 3, 2, 4]))
    c = None if size is None else draw(st.lists(st.integers(0, d - 1), min_size=size, max_size=size))
    if c and draw(st.booleans()):
        c[-1] = -sum(c[:-1]) % d
    shifts = draw(st.sampled_from([[0], [-3, -2, -1], [1, 2, 3], [-2, -1, 0, 1, 2]]))
    lift = st.sampled_from(shifts).map(lambda k: k * d)
    alphas, betas = ([x + draw(lift) for x in xs] for xs in (alphas, betas))
    if c is not None:
        c = [x + draw(lift) for x in c]
    return d, alphas, betas, c


@settings(max_examples=600, deadline=None)
@given(_raw_validate_args())
@example((9, [0, 0], [1, 10], None))
@example((9, [0, 0, 0], [-8, 2, 6], None))
@example((9, [0, 0, 0], [1, 2, 6], [12, -1, 8]))
def test_validate_matches_reduce_then_sort(args):
    # residues already in [0, d) skip the reduction; the result and the
    # error class are those of reducing every residue first
    try:
        want = _reference_validate(*args)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            validate(*args)
        assert type(info.value) is type(exc)
    else:
        got = validate(*args)
        assert got == want and type(got) is HgParam and got.c == want.c


def test_validate_reduces_a_repeat_out_of_range():
    # 1 and 10 are distinct integers but the same residue mod 9
    with pytest.raises(BetaRepeat):
        validate(9, [0, 0], [1, 10])
    assert validate(9, [9, 0, -9], [-8, 11, 15]) == validate(9, [0, 0, 0], [1, 2, 6])


def test_hg_param_public_behaviour():
    p = parse("d=18;a=0,0,0,3;b=4,11,16,17;c=1,7,10")
    q = HgParam(d=18, alphas=(0, 0, 0, 3), betas=(4, 11, 16, 17), c=(1, 7, 10))
    assert p == q and hash(p) == hash(q)
    bare = p._replace(c=None)
    assert p != bare and bare == HgParam(18, (0, 0, 0, 3), (4, 11, 16, 17))
    assert p != HgParam(18, (0, 0, 0, 3), (4, 11, 16, 17), (7, 1, 10))
    assert len({p, q, bare}) == 2
    assert repr(p) == "HgParam(d=18, alphas=(0, 0, 0, 3), betas=(4, 11, 16, 17), c=(1, 7, 10))"
    assert str(p) == p.literal() == "d=18;a=0,0,0,3;b=4,11,16,17;c=1,7,10"
    assert bare.literal() == "d=18;a=0,0,0,3;b=4,11,16,17"
    for field in ("d", "alphas", "betas", "c"):
        with pytest.raises(AttributeError):
            setattr(p, field, None)
    # a parameter sent to a worker process is pickled
    r = pickle.loads(pickle.dumps(p))
    assert r == p and hash(r) == hash(p) and r.literal() == p.literal()


def test_a_vector():
    p = parse("d=9;a=0,0,0;b=1,2,6")
    av = a_vector(p)
    assert len(av) == 9
    assert sum(av) % 9 == 0
    # leading entries are the negated alphas
    assert av[:3] == (0, 0, 0)


def test_scale_preserves_validity():
    p = parse("d=9;a=0,0,0;b=1,2,6")
    q = scale(p, 2)
    assert sorted(q.betas) == [2, 3, 4]


def test_scale_rejects_non_unit():
    p = parse("d=12;a=0,0,4;b=1,2,7")
    for s in (0, 2, 3, 4, 6, 8, 9, 10, 15, -2):
        with pytest.raises(InvalidScale):
            scale(p, s)
    assert issubclass(InvalidScale, ValidationError)


def test_scaling_orbit_size_divides_units():
    p = parse("d=9;a=0,0,0;b=1,2,6")
    orb = scaling_orbit(p)
    assert 6 % len(orb) == 0
    assert canonical_form(p) in orb


@st.composite
def random_param(draw):
    d = draw(st.integers(3, 24))
    n = draw(st.integers(2, min(5, d - 1)))
    betas = tuple(sorted(draw(st.sets(st.integers(0, d - 1), min_size=n, max_size=n))))
    total = d * (d - 1) // 2 + sum(betas)
    head = [draw(st.integers(0, d - 1)) for _ in range(n - 1)]
    last = (total - sum(head)) % d
    alphas = tuple(sorted(head + [last]))
    if set(alphas) & set(betas):
        return None
    return HgParam(d=d, alphas=alphas, betas=betas, c=None)


@given(random_param(), st.data())
def test_scale_is_group_action(p, data):
    if p is None:
        return
    from hgsearch.residues import units

    s = data.draw(st.sampled_from(units(p.d)))
    t = data.draw(st.sampled_from(units(p.d)))
    assert scale(scale(p, s), t) == scale(p, (s * t) % p.d)
    assert scale(p, 1) == p
