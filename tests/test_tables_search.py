import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hgsearch import search
from hgsearch.criteria import bm, det_condition, is_regular, jordan_blocks, regular_room
from hgsearch.monodromy import gj_coefficients, levelt_matrices
from hgsearch.params import MAX_D, MAX_N, canonical_form, validate
from hgsearch.search import (
    CheckpointError,
    SearchSpec,
    enumerate_alphas,
    enumerate_betas,
    passing_moduli,
    run_search,
)
from hgsearch.tables import (
    EMPTY_PARTITIONS,
    KNOWN_BM_DISCREPANCIES,
    KNOWN_EMPTY_DISCREPANCIES,
    POSSIBLE_D,
    SPECIAL_ROWS,
    SpecialRow,
    check_special_row,
    row_param,
)


def test_special_rows_are_valid_params():
    assert len(SPECIAL_ROWS) == 19
    for row in SPECIAL_ROWS:
        p = row_param(row)  # raises on an invalid row
        assert p.n == row.n
        # the listed c is admissible as it stands, so the table may decide
        # (D) on row_param(row) with c replaced by it
        assert validate(row.d, row.alphas, row.betas, row.c).c == row.c


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


@pytest.mark.parametrize(
    "row, field, want",
    [
        # the listed c decides (D); (0,0,0) does not pass on the first row
        (SPECIAL_ROWS[0]._replace(c=(0, 0, 0)), "D", {"pass": False, "c": None}),
        # the stabiliser {1,9,11,19} is not inside U = {1,19}
        (SPECIAL_ROWS[11]._replace(u_gens=(-1,)), "U", False),
        # beta an arithmetic progression, and not a documented discrepancy
        (
            SpecialRow(4, 12, (0, 0, 0, 0), (3, 4, 5, 6), (2, 11, 11), (-1,)),
            "BM",
            {"pass": False, "failed_bullet": 2, "documented_discrepancy": False},
        ),
        (SpecialRow(3, 9, (0, 0, 1), (2, 3, 5), (0, 0, 0), (-1,)), "R", False),
    ],
)
def test_table_fails_a_row_on_each_criterion(row, field, want):
    report = check_special_row(row).to_dict()
    assert report[field] == want
    assert report["verdict"] is False


def test_tables_special_validates_each_row_once(monkeypatch, capsys):
    from hgsearch import tables
    from hgsearch.cli import main

    calls = []

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(tables, "validate", counting)
    row_param.cache_clear()
    assert main(["tables", "--which", "special", "--format", "json"]) == 0
    assert len(calls) == len(SPECIAL_ROWS) == 19
    assert sorted(calls) == sorted((r.d, r.alphas, r.betas) for r in SPECIAL_ROWS)


def test_possible_d_shape():
    assert POSSIBLE_D[(2, 2)] == (9, 12, 15, 20, 21, 24, 27)
    assert POSSIBLE_D[(3, 1)] == (18, 20, 24, 28, 30)
    assert len(POSSIBLE_D) == 10


def test_n5_d12_is_found_but_not_published():
    # the published search finds (2,2,1) and (3,1,1) parameters at d=12,
    # which POSSIBLE_D does not list (it stays as published); strict mode
    # finds none there
    want = {
        (2, 2, 1): ["d=12;a=0,0,2,4,4;b=5,6,8,10,11", "d=12;a=0,0,8,8,10;b=1,2,4,6,7"],
        (3, 1, 1): ["d=12;a=0,0,0,2,10;b=3,4,6,8,9"],
    }
    for part, literals in want.items():
        assert 12 not in POSSIBLE_D[part]
        for published, expected in ((True, literals), (False, [])):
            spec = SearchSpec(n=5, partition=part, d_min=12, d_max=12, published=published)
            results = run_search(spec)
            assert [validate(r["d"], r["alpha"], r["beta"]).literal() for r in results] == expected
            assert all(r["c"] == [0, 0, 0] for r in results)


def test_enumerate_alphas():
    # partition (2,2) over d=9: shapes 0,0,g,g with g nonzero
    shapes = list(enumerate_alphas(9, (2, 2)))
    assert all(s[0] == s[1] == 0 for s in shapes)
    assert all(s[2] == s[3] != 0 for s in shapes)
    assert len(shapes) == 8
    # distinct gammas for distinct parts
    shapes31 = list(enumerate_alphas(9, (3, 1)))
    assert all(len(set(s)) == 2 for s in shapes31)
    # against brute force: each alpha multiset with 0 at multiplicity
    # part[0] and multiplicity profile part, once; runs of equal parts, as
    # in (2,2,1,1), (3,1,1,1) and (2,2,2), must not repeat a shape
    for n in range(2, 7):
        for d in range(n + 1, 13):
            want = {}
            for alphas in itertools.combinations_with_replacement(range(d), n):
                counts = Counter(alphas)
                part = tuple(sorted(counts.values(), reverse=True))
                if counts[0] == part[0]:
                    want.setdefault(part, []).append(alphas)
            assert len(want) == (2, 3, 5, 7, 11)[n - 2]  # every partition of n
            for part, multisets in want.items():
                assert sorted(enumerate_alphas(d, part)) == multisets, (d, part)


def test_enumerate_betas_sum_and_exclusion():
    for betas in enumerate_betas(9, 3, required_sum=0, forbidden={0}):
        assert sum(betas) % 9 == 0
        assert 0 not in betas
        assert len(set(betas)) == 3


def test_enumerate_betas_is_the_brute_force_list_in_order():
    # the same tuples in the same order, the lexicographic order that
    # enumerate_betas documents; no answer of the search depends on it (see
    # test_answers_do_not_depend_on_the_candidate_order).  Every n from 1
    # to 7 splits into a head and a tail of both parities, and n runs past
    # the number of allowed residues.
    rng = random.Random(18)
    for d in range(3, 14):
        forbidden_sets = [{0}] + [set(rng.sample(range(d), k)) for k in (1, 2, 3)]
        for forbidden, n in itertools.product(forbidden_sets, range(1, 8)):
            want = {r: [] for r in range(d)}
            for betas in itertools.combinations(range(d), n):
                if not set(betas) & forbidden:
                    want[sum(betas) % d].append(betas)
            for required in range(d):
                got = list(enumerate_betas(d, n, required, forbidden))
                assert got == want[required], (d, n, required, forbidden)
    # the chunks of a search, where the forbidden set is the alpha multiset
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


def test_search_spec_refuses_a_negative_limit():
    # a negative limit once cut every chunk after its first row and then
    # dropped the last rows as a slice would
    with pytest.raises(ValueError, match="limit"):
        SearchSpec(n=3, partition=(3,), d_min=9, d_max=9, limit=-1)
    assert run_search(SearchSpec(n=3, partition=(3,), d_min=9, d_max=9, limit=0)) == []


def test_search_spec_refuses_a_part_below_one():
    # a zero part once listed each chunk d - 1 times, and a negative one
    # searched more alphas than n
    for n, partition in ((3, (3, 0)), (3, (4, -1)), (0, (0,)), (0, ())):
        with pytest.raises(ValueError, match="at least 1"):
            SearchSpec(n=n, partition=partition, d_min=9, d_max=9)
    assert SearchSpec(n=3, partition=(2, 1), d_min=9, d_max=9).partition == (2, 1)


def test_search_spec_refuses_a_bad_worker_count():
    # only constructed, never run: no pool of these sizes is started
    from hgsearch.params import MAX_WORKERS

    for workers in (0, -2, MAX_WORKERS + 1, 10**6):
        with pytest.raises(ValueError, match="workers"):
            SearchSpec(n=3, partition=(3,), d_min=9, d_max=9, workers=workers)
    for workers in (1, MAX_WORKERS):
        assert SearchSpec(n=3, partition=(3,), d_min=9, d_max=9, workers=workers).workers == workers


@pytest.mark.parametrize(
    "bad, match",
    [
        (dict(partition=(2,)), "sum to n"),
        (dict(n=MAX_N + 1, partition=(MAX_N + 1,)), "n = .* above the cap"),
        (dict(d_max=MAX_D + 1), "d_max = .* above the cap"),
        (dict(workers=0), "workers"),
        (dict(limit=-1), "limit"),
        (dict(partition=(1, 2)), "non-increasing"),
        (dict(dedup_by_scaling=True), "strict"),
    ],
)
def test_search_spec_refuses_on_every_path_to_one(bad, match):
    # a spec is a tuple, and _make and _replace must not build one round
    # the refusals the constructor makes
    good = SearchSpec(n=3, partition=(3,), d_min=9, d_max=9)
    fields = {**good._asdict(), **bad}
    paths = {
        "keyword": lambda: SearchSpec(**fields),
        "positional": lambda: SearchSpec(*fields.values()),
        "_make": lambda: SearchSpec._make(fields.values()),
        "_replace": lambda: good._replace(**bad),
    }
    for path, build in paths.items():
        with pytest.raises(ValueError, match=match):
            build()
            pytest.fail(f"{path} built a spec with {bad}")
    assert good._replace(workers=2) == SearchSpec(n=3, partition=(3,), d_min=9, d_max=9, workers=2)


def test_records_are_frozen():
    p = row_param(SPECIAL_ROWS[0])
    records = {
        "workers": SearchSpec(n=3, partition=(3,), d_min=9, d_max=9),
        "c": SPECIAL_ROWS[0],
        "a": levelt_matrices(p),
        "coeffs": gj_coefficients(p, 1, 2),
    }
    for name, record in records.items():
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("part, d, candidates, let_through", [((3, 2, 1), 11, 240, 0), ((3, 3), 12, 198, 67)])
def test_search_validates_every_candidate_and_asks_r_past_the_room(monkeypatch, part, d, candidates, let_through):
    # one validate call per candidate of the brute-force list, and is_regular
    # only on the candidates whose least beta regular_room lets through
    validated, asked = [], []
    real_validate, real_is_regular = search.validate, search.is_regular
    monkeypatch.setattr(search, "validate", lambda *a: validated.append(a[1:3]) or real_validate(*a))
    monkeypatch.setattr(search, "is_regular", lambda p: asked.append(p) or real_is_regular(p))
    run_search(SearchSpec(n=6, partition=part, d_min=d, d_max=d))
    want, room_ok = [], []
    for alphas in enumerate_alphas(d, part):
        room = regular_room(d, alphas)
        for betas in itertools.combinations(range(d), 6):
            if not set(betas) & set(alphas) and (sum(alphas) - sum(betas) - d * (d - 1) // 2) % d == 0:
                want.append((alphas, betas))
                if room[betas[0]]:
                    room_ok.append((alphas, betas))
    assert sorted(validated) == sorted(want) and len(want) == candidates
    assert [(p.alphas, p.betas) for p in asked] == room_ok and len(room_ok) == let_through


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


def test_limited_run_resumes_a_plain_checkpoint(tmp_path):
    # every chunk runs to its end, so a record holds the mode only
    ck, spec = _checkpointed(tmp_path)
    whole = run_search(spec)
    with open(ck) as fh:
        written = fh.read()
    _, limited = _checkpointed(tmp_path, limit=1)
    assert run_search(limited) == whole[:1]
    with open(ck) as fh:
        assert fh.read() == written


def test_published_limit_is_a_prefix_and_workers_agree():
    kw = dict(n=6, partition=(4, 2), d_min=18, d_max=20)
    whole = run_search(SearchSpec(**kw))
    # some (d, alpha) chunks hold more rows than every limit tried
    assert max(Counter((r["d"], tuple(r["alpha"])) for r in whole).values()) > 3
    for k in (0, 1, 2, 3, len(whole) + 1):
        for workers in (1, 2):
            assert run_search(SearchSpec(limit=k, workers=workers, **kw)) == whole[:k], (k, workers)
    assert run_search(SearchSpec(workers=2, **kw)) == whole


def test_dedup_needs_strict_criteria():
    with pytest.raises(ValueError):
        SearchSpec(n=4, partition=(3, 1), d_min=18, d_max=18, dedup_by_scaling=True)
    spec = SearchSpec(
        n=3, partition=(3,), d_min=9, d_max=9, dedup_by_scaling=True, published=False
    )
    full = run_search(SearchSpec(n=3, partition=(3,), d_min=9, d_max=9, published=False))
    dedup = run_search(spec)
    assert dedup and all(r in full for r in dedup)


def _orbit(r):
    return canonical_form(validate(r["d"], r["alpha"], r["beta"]))


def _row_key(r):
    return (r["d"], tuple(r["alpha"]), tuple(r["beta"]))


def test_dedup_keeps_the_least_passing_member_of_every_orbit():
    # strict bm bullet 2 is not scaling-invariant, so an orbit can pass on
    # members other than its canonical form; n=3 (3) has two such orbits,
    # d=15;a=0,0,0;b=1,5,9 and d=21;a=0,0,0;b=1,7,13
    moved = 0
    for n, part, d_max in ((3, (3,), 30), (3, (2, 1), 30), (4, (2, 2), 24), (4, (3, 1), 20)):
        kw = dict(n=n, partition=part, d_min=5, d_max=d_max, published=False)
        full = run_search(SearchSpec(**kw))
        dedup = run_search(SearchSpec(dedup_by_scaling=True, **kw))
        orbits = {}
        for r in full:
            orbits.setdefault(_orbit(r), []).append(r)
        assert len(dedup) == len(orbits) and {_orbit(r) for r in dedup} == set(orbits), part
        for r in dedup:
            assert r in full, r
            assert r == min(orbits[_orbit(r)], key=_row_key), r
            moved += _orbit(r) != validate(r["d"], r["alpha"], r["beta"])
    assert moved == 2


# one d per process, so no cache of the strict (D) solve outlives its modulus
COLD_STRICT_SEARCH = """
import json, sys
from hgsearch.search import SearchSpec, run_search
d = int(sys.argv[1])
print(json.dumps([run_search(SearchSpec(n=4, partition=p, d_min=d, d_max=d, published=False)) for p in ((2, 2), (3, 1))]))
"""


def test_strict_search_in_one_process_matches_each_modulus_run_cold():
    # the strict (D) checks are built once per (d, n), so a cache that let
    # one modulus's checks answer for another's would show here: a verdict
    # cache keyed without d once let 16 (2,2) and 14 (3,1) rows too many
    # pass at d=24
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    cold = {(2, 2): [], (3, 1): []}
    for d in range(5, 25):
        out = subprocess.run(
            [sys.executable, "-c", COLD_STRICT_SEARCH, str(d)], env=env, capture_output=True, text=True, check=True
        ).stdout
        for part, rows in zip(cold, json.loads(out)):
            cold[part] += rows
    for part, rows in cold.items():
        assert run_search(SearchSpec(n=4, partition=part, d_min=5, d_max=24, published=False)) == rows, part
    assert cold[(2, 2)] and cold[(3, 1)]


def _strict_dedup(**kw):
    return SearchSpec(n=3, partition=(3,), d_min=5, d_max=21, published=False, dedup_by_scaling=True, **kw)


def test_dedup_resumes_a_plain_strict_checkpoint(tmp_path):
    ck = str(tmp_path / "ck.jsonl")
    plain = SearchSpec(n=3, partition=(3,), d_min=5, d_max=21, published=False, checkpoint=ck)
    run_search(plain)
    with open(ck) as fh:
        written = fh.read()
    assert run_search(_strict_dedup(checkpoint=ck)) == run_search(_strict_dedup())
    # every chunk came from the checkpoint
    with open(ck) as fh:
        assert fh.read() == written


def test_dedup_checkpoint_from_before_the_dedup_pass_is_refused(tmp_path):
    ck = tmp_path / "ck.jsonl"
    for dedup in (True, False):
        old = {"published": False, "dedup_by_scaling": dedup, "limit": None}
        ck.write_text(json.dumps({"key": "9:0,0,0", "spec": old, "results": []}) + "\n")
        with pytest.raises(CheckpointError):
            run_search(_strict_dedup(checkpoint=str(ck)))


def test_dedup_limit_is_a_prefix_and_workers_agree():
    # at d=12 the fourth row of the (2,2) chunk 0,0,2,2 repeats the orbit of
    # its first, so a per-chunk limit of 4 would cut the fourth orbit's
    # least member, the chunk's fifth row
    for n, part, d_max in ((3, (3,), 21), (4, (2, 2), 12)):
        kw = dict(n=n, partition=part, d_min=5, d_max=d_max, published=False, dedup_by_scaling=True)
        whole = run_search(SearchSpec(**kw))
        assert len(whole) >= 4
        for k in range(1, len(whole) + 2):
            assert run_search(SearchSpec(limit=k, **kw)) == whole[:k], (part, k)
        assert run_search(SearchSpec(workers=2, **kw)) == whole
        assert run_search(SearchSpec(workers=2, limit=4, **kw)) == whole[:4]


def find_witness(n, partition, d):
    """The least passing parameter (published criteria) at one modulus: the
    least row of the first alpha shape, in sorted order, that has one.  It
    reads enumerate_alphas and search_chunk through the module, so a
    monkeypatch of either reaches it."""
    for alphas in sorted(search.enumerate_alphas(d, partition)):
        results = search.search_chunk((d, alphas, True))[1]
        if results:
            return min(results, key=lambda r: r["beta"])
    return None


def test_find_witness():
    w = find_witness(4, (2, 2), 9)
    assert w is not None
    assert w["d"] == 9
    assert find_witness(4, (2, 2), 10) is None


def test_answers_do_not_depend_on_the_candidate_order(monkeypatch):
    # --limit and find_witness read the sorted answers, so enumerating the
    # alpha shapes and the betas backwards changes none of them
    sweeps = [
        dict(n=6, partition=(4, 2), d_min=18, d_max=20),
        dict(n=4, partition=(2, 2), d_min=5, d_max=12, published=False, dedup_by_scaling=True),
    ]
    limits = (None, 1, 2, 3, 5)
    witnesses = [(5, (2, 2, 1), 12), (5, (2, 2, 1), 18), (5, (3, 1, 1), 12)]

    def answers():
        got = [run_search(SearchSpec(limit=k, **kw)) for kw in sweeps for k in limits]
        return got, [find_witness(*w) for w in witnesses]

    forward = answers()
    real_alphas, real_betas = search.enumerate_alphas, search.enumerate_betas
    monkeypatch.setattr(search, "enumerate_alphas", lambda *a: reversed(list(real_alphas(*a))))
    monkeypatch.setattr(search, "enumerate_betas", lambda *a: reversed(list(real_betas(*a))))
    assert answers() == forward
    assert all(forward[1]) and forward[0][0]


def _per_d_passing_moduli(n, partition, d_min, d_max):
    """passing_moduli as one search per modulus: the reference for the
    single search over the range."""
    out = []
    for d in range(max(d_min, n + 1), d_max + 1):
        if run_search(SearchSpec(n=n, partition=partition, d_min=d, d_max=d)):
            out.append(d)
    return out


def test_passing_moduli_matches_one_search_per_modulus():
    for partition in ((2, 2), (3, 1)):
        want = _per_d_passing_moduli(4, partition, 3, 20)
        for workers in (1, 2):
            assert passing_moduli(4, partition, 3, 20, workers=workers) == want, (partition, workers)


def test_passing_moduli_for_n1_skips_the_moduli_below_3():
    assert passing_moduli(1, (1,), 2, 6) == []
