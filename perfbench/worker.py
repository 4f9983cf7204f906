"""One benchmark round in a fresh process.

Imports the package from ``<checkout>/src``, builds the seeded task list,
runs it as a closed loop (each call starts when the previous one returned),
and prints one JSON line: set-up time, per-task times, peak RSS, an output
digest per task, and, when asked, the oracle verdicts and per-layer metrics.
The oracles run after the timed loop and after RSS is read.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _digest(out: dict) -> str:
    h = hashlib.sha1()
    for key in sorted(out):
        h.update(key.encode())
        h.update(out[key].tobytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() just before this process was started")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import numpy as np
    import scipy
    import fourierjacobi as fj
    if os.path.dirname(os.path.dirname(os.path.abspath(fj.__file__))) != SRC:
        raise SystemExit(f"fourierjacobi imported from {fj.__file__}, not from {SRC}")
    import workloads
    tasks = workloads.make_inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(fj)
    setup_s = time.time() - args.t0

    outs, times, errors = [], [], []
    start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            out = workloads.run_task(fj, task)
        except Exception as exc:  # a raising task is a counted failure
            out = None
            errors.append(f"{task['id']}: {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        outs.append(out)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "task_s": times,
        "peak_rss_mb": peak_rss_mb,
        "ids": [t["id"] for t in tasks],
        "digests": [None if o is None else _digest(o) for o in outs],
        "errors": errors,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent + sorted(tracer.unreadable)
        result["rule_costs"] = tracer.rule_costs()
        result["spans"] = tracer.spans()
        tracer.restore()
    if args.check:
        failures = []
        for task, out in zip(tasks, outs):
            if out is None:
                continue
            ok, detail = workloads.check_task(task, out)
            if not ok:
                failures.append(f"{task['id']}: {detail}")
        result["oracle_failures"] = failures
        result["oracle_s"] = time.perf_counter() - start - wall_s
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__}
    result["threads"] = {var: os.environ.get(var) for var in THREAD_VARS}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
