"""Fast tests of the benchmark itself: its checkers reject wrong answers,
its tracer counts the whole search space, and traced counts repeat."""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hgsearch import criteria, search  # noqa: E402


def _answer(jobs):
    return workloads.run("n4-published", jobs)


def _without(answer, d, alphas, betas):
    """The answer with one result removed."""
    out = []
    for job, results in answer:
        keep = [r for r in results if (r["d"], tuple(r["alpha"]), tuple(r["beta"])) != (d, alphas, betas)]
        out.append((job, keep))
    return out


def _with_c(answer, index, c):
    """The answer with the c of its index-th result replaced."""
    out, seen = [], 0
    for job, results in answer:
        new = []
        for r in results:
            new.append(dict(r, c=list(c)) if seen == index else r)
            seen += 1
        out.append((job, new))
    return out


def test_published_checker_rejects_a_missing_modulus_and_a_wrong_c():
    answer = _answer([(4, part, d, True) for part in workloads.N4_PARTITIONS for d in range(5, 13)])
    assert workloads.check_published(answer) == []
    # d=9 is a published (2,2) modulus: drop its results
    no9 = [(job, [] if job[2] == 9 else res) for job, res in answer]
    assert any("passing moduli" in p for p in workloads.check_published(no9))
    d = next(r["d"] for _, res in answer for r in res)
    assert any("det_condition" in p for p in workloads.check_published(_with_c(answer, 0, (1, 2, d - 3))))


def test_strict_checker_rejects_a_missing_orbit_member_and_a_wrong_c():
    answer = _answer([(4, (3, 1), 10, False), (4, (2, 2), 12, False)])
    members = [(r["d"], tuple(r["alpha"]), tuple(r["beta"])) for _, res in answer for r in res]
    assert len(members) == 16
    assert workloads.check_strict(answer) == []
    assert any("missing" in p for p in workloads.check_strict(_without(answer, *members[0])))
    assert any("det_condition" in p for p in workloads.check_strict(_with_c(answer, 0, (1, 2, 7))))


def test_empty_checker_wants_exactly_the_recorded_orbit():
    (d, alphas, betas), c = workloads.KNOWN_EMPTY_DISCREPANCIES[(3, 2, 1)]
    orbit = sorted(workloads.scaling_orbit(d, alphas, betas))
    results = [{"d": d, "alpha": list(a), "beta": list(b), "c": list(c)} for d, a, b in orbit]
    answer = [((6, part, d, True), results if part == (3, 2, 1) else []) for part in workloads.N6_PARTITIONS]
    assert len(orbit) == 4
    assert workloads.check_empty(answer) == []
    assert workloads.check_empty(_without(answer, *orbit[1]))
    extra = [((6, (2, 2, 2), d, True), results[:1])]
    assert workloads.check_empty(answer + extra)


def test_special_checker_rejects_a_failed_verifier():
    answer = [(("levelt", 0), True), (("ode", 0), True), (("hodge", 0), False)]
    assert workloads.check_special(answer) == ["hodge fails on d=9;a=0,0,0;b=1,2,6"]


def test_check_wants_every_operation_of_the_workload():
    assert workloads.check("n6-empty", []) != []


def _brute_force_candidates(n, partition, d_range):
    """(alpha multiset, beta n-subset) pairs the search must visit, counted
    over all multisets and subsets of Z/dZ: alpha has 0 with the largest
    multiplicity and the partition's multiplicity profile, beta avoids it,
    and sum(alpha) - sum(beta) = C(d,2) mod d."""
    total = 0
    for d in d_range:
        for alphas in itertools.combinations_with_replacement(range(d), n):
            mult = Counter(alphas)
            if mult[0] != partition[0] or sorted(mult.values(), reverse=True) != list(partition):
                continue
            for betas in itertools.combinations(range(d), n):
                if set(betas) & set(alphas):
                    continue
                if (sum(alphas) - sum(betas) - d * (d - 1) // 2) % d == 0:
                    total += 1
    return total


def test_traced_candidates_cover_the_whole_search_space():
    cases = [(4, (2, 2), range(5, 12)), (4, (3, 1), range(5, 12)), (6, (3, 2, 1), range(7, 11))]
    for n, part, d_range in cases:
        t = tracer.Tracer()
        t.install()
        try:
            search.run_search(
                search.SearchSpec(n=n, partition=part, d_min=d_range[0], d_max=d_range[-1])
            )
        finally:
            t.uninstall()
        got = t.metrics()
        assert got["search.candidates"] == _brute_force_candidates(n, part, d_range) > 0
        assert got["search.chunks"] > 0
    assert search.is_regular is criteria.is_regular
    assert not hasattr(search.is_regular, "__wrapped__")


def _traced_counts(seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "n4-published", str(seed), "trace"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    layers = json.loads(out.stdout.splitlines()[-1])["layers"]
    units = tracer.per_layer_units()
    return {k: v for k, v in layers.items() if units[k] == "count"}


def test_traced_counts_repeat_across_runs():
    first, second = _traced_counts(1), _traced_counts(2)
    assert first == second
    assert first["criteria.solve_in_E_basis.calls"] > 0


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.per_layer_units()
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
