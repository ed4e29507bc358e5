import itertools
import json
import os

import pytest

from hgsearch.criteria import bm, det_condition, is_regular, jordan_blocks
from hgsearch.params import validate
from hgsearch.search import (
    CheckpointError,
    SearchSpec,
    enumerate_alphas,
    enumerate_betas,
    find_witness,
    run_search,
)
from hgsearch.tables import (
    EMPTY_PARTITIONS,
    KNOWN_BM_DISCREPANCIES,
    KNOWN_EMPTY_DISCREPANCIES,
    POSSIBLE_D,
    SPECIAL_ROWS,
    check_special_row,
    row_param,
)


def test_special_rows_are_valid_params():
    assert len(SPECIAL_ROWS) == 19
    for row in SPECIAL_ROWS:
        p = row_param(row)  # raises on an invalid row
        assert p.n == row.n


def test_known_discrepancy_count():
    assert len(KNOWN_BM_DISCREPANCIES) == 5


def test_known_empty_discrepancy_certificate():
    assert set(KNOWN_EMPTY_DISCREPANCIES) == {(3, 2, 1)}
    for part, ((d, alphas, betas), c) in KNOWN_EMPTY_DISCREPANCIES.items():
        assert part in EMPTY_PARTITIONS
        p = validate(d, alphas, betas, c)  # raises on an invalid record
        assert (p.alphas, p.betas) == (alphas, betas)
        assert jordan_blocks(p) == list(part)
        assert is_regular(p)
        assert bm(p) == (True, None)
        assert det_condition(p, c, published=True)
        assert det_condition(p, c, published=False)


def test_check_one_row():
    verdict = check_special_row(SPECIAL_ROWS[0])
    assert verdict.passes


def test_possible_d_shape():
    assert POSSIBLE_D[(2, 2)] == (9, 12, 15, 20, 21, 24, 27)
    assert POSSIBLE_D[(3, 1)] == (18, 20, 24, 28, 30)
    assert len(POSSIBLE_D) == 10


def test_enumerate_alphas():
    # partition (2,2) over d=9: shapes 0,0,g,g with g nonzero
    shapes = list(enumerate_alphas(9, (2, 2)))
    assert all(s[0] == s[1] == 0 for s in shapes)
    assert all(s[2] == s[3] != 0 for s in shapes)
    assert len(shapes) == 8
    # distinct gammas for distinct parts
    shapes31 = list(enumerate_alphas(9, (3, 1)))
    assert all(len(set(s)) == 2 for s in shapes31)


def test_enumerate_betas_sum_and_exclusion():
    for betas in enumerate_betas(9, 3, required_sum=0, forbidden={0}):
        assert sum(betas) % 9 == 0
        assert 0 not in betas
        assert len(set(betas)) == 3


def test_enumerate_betas_is_the_brute_force_list_in_order():
    # the same tuples in the same order: --limit and find_witness keep the
    # first hits in this order
    cases = [(4, (2, 2), 12), (4, (3, 1), 12), (5, (3, 1, 1), 10)]
    for n, part, d_max in cases:
        for d in range(n + 1, d_max + 1):
            for alphas in enumerate_alphas(d, part):
                required = (sum(alphas) - d * (d - 1) // 2) % d
                want = [
                    betas
                    for betas in itertools.combinations(range(d), n)
                    if not set(betas) & set(alphas) and sum(betas) % d == required
                ]
                assert list(enumerate_betas(d, n, required, set(alphas))) == want, (d, alphas)


def test_enumerate_betas_includes_table_row():
    rows = list(enumerate_betas(9, 3, required_sum=(36 - 0) % 9, forbidden={0}))
    assert (1, 2, 6) in rows


def test_search_small_case_finds_table_row():
    spec = SearchSpec(n=3, partition=(3,), d_min=9, d_max=9)
    results = run_search(spec)
    assert {"d": 9, "alpha": [0, 0, 0], "beta": [1, 2, 6]} in [
        {k: r[k] for k in ("d", "alpha", "beta")} for r in results
    ]


def test_search_deterministic_across_worker_counts():
    base = None
    for workers in (1, 4, 8):
        spec = SearchSpec(n=3, partition=(3,), d_min=3, d_max=9, workers=workers)
        results = run_search(spec)
        key = [(r["d"], tuple(r["alpha"]), tuple(r["beta"])) for r in results]
        if base is None:
            base = key
        else:
            assert key == base


def test_checkpoint_resume(tmp_path):
    ck = str(tmp_path / "ck.jsonl")
    spec = SearchSpec(n=3, partition=(3,), d_min=9, d_max=9, checkpoint=ck)
    first = run_search(spec)
    assert os.path.exists(ck)
    with open(ck) as fh:
        lines = [json.loads(line) for line in fh]
    assert lines
    assert all(rec["spec"] == spec.fingerprint() for rec in lines)
    # second run must reuse the checkpoint and agree
    second = run_search(spec)
    assert first == second


def _checkpointed(tmp_path, **kw):
    ck = str(tmp_path / "ck.jsonl")
    spec = SearchSpec(n=3, partition=(3,), d_min=4, d_max=10, checkpoint=ck, **kw)
    return ck, spec


def test_checkpoint_torn_last_line_resumes(tmp_path):
    ck, spec = _checkpointed(tmp_path)
    fresh = run_search(spec)
    with open(ck) as fh:
        lines = fh.readlines()
    assert len(lines) > 2
    with open(ck, "w") as fh:
        fh.writelines(lines[:-1])
        fh.write(lines[-1][: len(lines[-1]) // 2])
    assert run_search(spec) == fresh
    # the torn record was replaced, so the file is whole again
    with open(ck) as fh:
        resumed = [json.loads(line) for line in fh]
    assert sorted(r["key"] for r in resumed) == sorted(json.loads(line)["key"] for line in lines)
    assert run_search(spec) == fresh


def test_checkpoint_bad_inner_line_raises(tmp_path):
    ck, spec = _checkpointed(tmp_path)
    run_search(spec)
    with open(ck) as fh:
        lines = fh.readlines()
    lines[0] = lines[0][: len(lines[0]) // 2] + "\n"
    with open(ck, "w") as fh:
        fh.writelines(lines)
    with pytest.raises(CheckpointError):
        run_search(spec)


def test_checkpoint_refuses_another_mode(tmp_path):
    ck, spec = _checkpointed(tmp_path)
    run_search(spec)
    strict = SearchSpec(n=3, partition=(3,), d_min=4, d_max=10, checkpoint=ck, published=False)
    with pytest.raises(ValueError):
        run_search(strict)
    limited = SearchSpec(n=3, partition=(3,), d_min=4, d_max=10, checkpoint=ck, limit=1)
    with pytest.raises(ValueError):
        run_search(limited)


def test_dedup_needs_strict_criteria():
    with pytest.raises(ValueError):
        SearchSpec(n=4, partition=(3, 1), d_min=18, d_max=18, dedup_by_scaling=True)
    spec = SearchSpec(
        n=3, partition=(3,), d_min=9, d_max=9, dedup_by_scaling=True, published=False
    )
    full = run_search(SearchSpec(n=3, partition=(3,), d_min=9, d_max=9, published=False))
    dedup = run_search(spec)
    assert dedup and all(r in full for r in dedup)


def test_find_witness():
    w = find_witness(4, (2, 2), 9)
    assert w is not None
    assert w["d"] == 9
    assert find_witness(4, (2, 2), 10) is None
