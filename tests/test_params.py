import pytest
from hypothesis import given, strategies as st

from hgsearch.cli import main
from hgsearch.params import (
    AlphaBetaCollision,
    BadCTriple,
    BetaRepeat,
    HgParam,
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
