"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (import hgsearch, build the inputs and stop), ``run``
(also run the workload and check its answer) or ``trace`` (run it with the
layer spans of tracer.py).  The worker prints ``ready`` once set up, then,
unless MODE is ``setup``, one JSON line with the round's figures.  It runs
the hgsearch found under src/ of the checkout it belongs to, never an
installed copy.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(SRC))
    import hgsearch

    if Path(hgsearch.__file__).resolve().parent != SRC / "hgsearch":
        raise SystemExit(f"hgsearch imported from {hgsearch.__file__}, not from {SRC}")
    import workloads

    jobs = workloads.build(name, seed)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if mode == "setup":
        return
    t0 = perf_counter()
    answer = workloads.run(name, jobs)
    wall = perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}.tsv")
    problems = workloads.check(name, answer)
    for problem in problems:
        print(f"{name}: {problem}", file=sys.stderr)
    result = {
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "ops": len(jobs),
        "correct": not problems,
        "layers": layers,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
