"""The benchmark's workloads: their inputs, how one round runs them, and
the checks of their answers.

A workload is a list of operations.  The inputs are fixed; the seed only
sets the order the operations run in, so every seed does the same work.
hgsearch must be importable before this module is imported.
"""

from __future__ import annotations

import importlib
import math
import random

# The operations call through the modules, not through names imported
# here, so that the tracer's wrappers on the module attributes see them.
# (The package exports a function named jacobi, hence import_module.)
from hgsearch import monodromy, search, tables
from hgsearch.criteria import bm, det_condition
from hgsearch.params import validate
from hgsearch.tables import (
    KNOWN_BM_DISCREPANCIES,
    KNOWN_EMPTY_DISCREPANCIES,
    POSSIBLE_D,
    SPECIAL_ROWS,
    row_param,
)

jacobi = importlib.import_module("hgsearch.jacobi")

N4_PARTITIONS = ((2, 2), (3, 1))
N6_PARTITIONS = ((2, 2, 2), (3, 2, 1), (2, 2, 1, 1), (3, 1, 1, 1))
# The d ranges stop below the moduli that cost most: (3,1) at d=18 takes
# 9-10 s published and d=20 takes 7 s strict, so a round stays short enough
# to repeat within one run.  (3,2,1) adds d=20, where its one orbit lies.
N4_PUBLISHED_D = range(5, 18)
N4_STRICT_D = range(5, 19)
N6_D = range(7, 16)
N6_EXTRA = ((3, 2, 1), 20)
ODE_ORDER = 30


def search_jobs(name):
    """(n, partition, d, published) for each per-d search of a workload."""
    if name == "n4-published":
        return [(4, part, d, True) for part in N4_PARTITIONS for d in N4_PUBLISHED_D]
    if name == "n4-strict":
        return [(4, part, d, False) for part in N4_PARTITIONS for d in N4_STRICT_D]
    jobs = [(6, part, d, True) for part in N6_PARTITIONS for d in N6_D]
    part, d = N6_EXTRA
    return jobs + [(6, part, d, True)]


def special_jobs():
    """Each special row under each verifier, then the table report."""
    jobs = [(kind, i) for i in range(len(SPECIAL_ROWS)) for kind in ("levelt", "ode", "hodge")]
    return jobs + [("reproduce", None)]


WORKLOADS = ("n4-published", "n4-strict", "n6-empty", "verify-special")


def build(name, seed):
    """The operations of one round of a workload, in the seed's order."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    jobs = special_jobs() if name == "verify-special" else search_jobs(name)
    random.Random(seed).shuffle(jobs)
    return jobs


def run(name, jobs):
    """Run every operation; returns (job, answer) pairs."""
    if name == "verify-special":
        return [(job, _special(job)) for job in jobs]
    return [(job, _search(*job)) for job in jobs]


def _search(n, partition, d, published):
    return search.run_search(
        search.SearchSpec(n=n, partition=partition, d_min=d, d_max=d, workers=1, published=published)
    )


def _special(job):
    kind, i = job
    if kind == "reproduce":
        verdicts, notes = tables.reproduce_special()
        return [v.passes for v in verdicts], notes
    p = row_param(SPECIAL_ROWS[i])
    if kind == "levelt":
        return monodromy.verify_levelt(p)
    if kind == "ode":
        return all(monodromy.verify_annihilation(p, j, ODE_ORDER) for j in range(1, p.n + 1))
    return jacobi.hodge_newton_check(p, jacobi.least_prime_above(p.d))


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of problems; an empty list means correct.


def check(name, answer):
    """Every operation of the workload answered once, and the answers right."""
    want = sorted(build(name, 0), key=repr)
    if sorted((job for job, _ in answer), key=repr) != want:
        return [f"the answered operations are not the {len(want)} of {name}"]
    return {
        "n4-published": check_published,
        "n4-strict": check_strict,
        "n6-empty": check_empty,
        "verify-special": check_special,
    }[name](answer)


def scaling_orbit(d, alphas, betas):
    """(d, s*alpha, s*beta) over the units s of Z/dZ, sorted, computed here
    rather than by hgsearch.params."""
    return {
        (d, tuple(sorted(s * a % d for a in alphas)), tuple(sorted(s * b % d for b in betas)))
        for s in range(1, d)
        if math.gcd(s, d) == 1
    }


def _members(answer, partition=None):
    for (n, part, d, pub), results in answer:
        if partition is None or part == partition:
            for r in results:
                yield d, tuple(r["alpha"]), tuple(r["beta"]), r["c"]


def check_published(answer):
    """The passing moduli are the published ones inside the swept range,
    and every witness c passes det_condition again."""
    problems = []
    for part in N4_PARTITIONS:
        swept = {d for (n, p, d, pub), _ in answer if p == part}
        got = sorted({d for (n, p, d, pub), res in answer if p == part and res})
        want = [d for d in POSSIBLE_D[part] if d in swept]
        if got != want:
            problems.append(f"{part}: passing moduli {got}, published {want}")
    for d, alphas, betas, c in _members(answer):
        if c is None or not det_condition(validate(d, alphas, betas), tuple(c), published=True):
            problems.append(f"d={d};a={alphas};b={betas}: c={c} fails det_condition")
    return problems


def check_strict(answer):
    """The result set is closed under unit scaling, and every member passes
    the four bm bullets and the strict det_condition with its c."""
    problems = []
    found = {(d, a, b) for d, a, b, _ in _members(answer)}
    for key in sorted(found):
        missing = scaling_orbit(*key) - found
        if missing:
            problems.append(f"{key}: scaling images {sorted(missing)} missing")
    for d, alphas, betas, c in _members(answer):
        p = validate(d, alphas, betas)
        if bm(p) != (True, None):
            problems.append(f"d={d};a={alphas};b={betas}: bm fails")
        if c is None or not det_condition(p, tuple(c), published=False):
            problems.append(f"d={d};a={alphas};b={betas}: c={c} fails strict det_condition")
    return problems


def check_empty(answer):
    """No results for three partitions; for (3,2,1) exactly the 4-member
    scaling orbit recorded in KNOWN_EMPTY_DISCREPANCIES."""
    problems = []
    for part in N6_PARTITIONS:
        got = sorted((d, a, b) for d, a, b, _ in _members(answer, part))
        want = []
        if part in KNOWN_EMPTY_DISCREPANCIES:
            (d, alphas, betas), _ = KNOWN_EMPTY_DISCREPANCIES[part]
            want = sorted(scaling_orbit(d, alphas, betas))
            if len(want) != 4:
                problems.append(f"{part}: recorded orbit has {len(want)} members, not 4")
        if got != want:
            problems.append(f"{part}: results {got}, expected {want}")
    return problems


def check_special(answer):
    """Every verifier holds on every row, every row passes the table report,
    and its BM notes are exactly the documented discrepancies."""
    problems = []
    for (kind, i), result in answer:
        if kind == "reproduce":
            passes, notes = result
            if not all(passes):
                problems.append(f"rows failing reproduce_special: {passes}")
            seen = {note["param"] for note in notes if note["documented"]}
            known = {
                f"d={d};a={','.join(map(str, a))};b={','.join(map(str, b))}"
                for d, a, b in KNOWN_BM_DISCREPANCIES
            }
            if seen != known or len(notes) != len(known):
                problems.append(f"BM notes {sorted(n['param'] for n in notes)}, documented {sorted(known)}")
        elif result is not True:
            problems.append(f"{kind} fails on {row_param(SPECIAL_ROWS[i]).literal()}")
    return problems
