"""Benchmark runner for hgsearch.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh interpreter with one
search worker, until S seconds have passed, checks every round's answer,
and prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones (median over the
rounds); with --trace 1 rounds alternate untraced and traced, and the
metrics are the per-layer ones from the traced rounds plus the tracing
overhead.  Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("n4-published", "n4-strict", "n6-empty", "verify-special")
# Setting up takes about 0.1 s, so set-up time is taken from these extra
# start-ups as well as from the rounds, to report a steady median.
SETUP_PROBES = 9
ROUND_TIMEOUT_S = 150


class RoundFailed(Exception):
    pass


def one_round(name, seed, mode):
    """Start a worker; returns its result with the set-up time added."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), name, str(seed), mode],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RoundFailed(f"{mode} round of {name} exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    return result


def med(key, rounds):
    return statistics.median(r[key] for r in rounds)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hgsearch" / "__init__.py").is_file():
        print(f"no hgsearch source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = [one_round(args.workload, args.seed, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        start = perf_counter()
        while not plain or perf_counter() - start < args.seconds:
            plain.append(one_round(args.workload, args.seed, "run"))
            if args.trace:
                traced.append(one_round(args.workload, args.seed, "trace"))
    except (RoundFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    rounds = plain + traced
    correct = all(r["correct"] for r in rounds)
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import OVERHEAD, per_layer_units

        units = per_layer_units()
        counts = [{k: v for k, v in r["layers"].items() if units[k] == "count"} for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            print("per-layer counts differ between traced rounds", file=sys.stderr)
            correct = False
        values = dict(counts[0])
        values.update(
            (k, statistics.median(r["layers"][k] for r in traced))
            for k in units
            if units[k] == "s" and k != OVERHEAD
        )
        values[OVERHEAD] = med("wall_s", traced) - med("wall_s", plain)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        metrics = {
            "wall_s": {"value": med("wall_s", plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups + [r["setup_s"] for r in plain]), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb", plain), "unit": "MB"},
        }
    result = {
        "correct": correct,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": 0,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
