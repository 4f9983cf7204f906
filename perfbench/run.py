"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs rounds until S seconds have passed (at least three, or two of each
kind when tracing).  A round is the workload's whole seeded task list in a
fresh single-threaded Python process (perfbench/worker.py), so every round
pays the import and starts with cold caches, as a CLI user does.  The first
round also runs the oracles; later rounds must reproduce its outputs bit for
bit.  With --trace 1, traced and untraced rounds alternate and the per-layer
metrics come from the traced ones.

Prints one diagnostics JSON line, then the result line:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
(or, with --trace 1, the per-layer ones) named as in BENCHMARK.json.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from statistics import median

from tracing import LAYER_METRICS
from worker import THREAD_VARS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join(ROOT, "src", "fourierjacobi", "__init__.py")

HARD_LIMIT_S = 170.0       # the whole run must end within 180 s
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def metric(name: str, value: float, unit: str) -> tuple[str, dict]:
    """One metric entry; rejects names and units outside the allowed alphabet."""
    if not _NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    if not _UNIT.fullmatch(unit):
        raise ValueError(f"bad metric unit {unit!r}")
    return name, {"value": float(value), "unit": unit}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(args, traced: bool, check: bool, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--check", str(int(check))]
    t0 = time.time()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=worker_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["traced"] = traced
    out["round_s"] = time.time() - t0
    return out


def run_rounds(args) -> list[dict]:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    rounds = [run_round(args, traced=False, check=True, deadline=deadline)]
    need = {False: 2, True: 2} if args.trace else {False: 3, True: 0}
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        done = {kind: sum(r["traced"] == kind for r in rounds) for kind in (False, True)}
        typical = median(r["round_s"] for r in rounds)
        elapsed = time.monotonic() - start
        enough = all(done[kind] >= n for kind, n in need.items())
        if enough and elapsed + typical > args.seconds:
            break
        if elapsed + typical > HARD_LIMIT_S - 5.0:
            break
        rounds.append(run_round(args, traced=traced, check=False, deadline=deadline))
    return rounds


def failures(rounds: list[dict]) -> list[str]:
    """Failed tasks, one entry per round: raised, missed its oracle, or changed output."""
    first = rounds[0]
    missed = {f.split(":")[0] for f in first["oracle_failures"]}
    out = []
    for i, r in enumerate(rounds):
        for tid, digest, ref in zip(r["ids"], r["digests"], first["digests"]):
            if digest is None:
                out.append(f"round {i}: {tid} raised")
            elif tid in missed:
                out.append(f"round {i}: {tid} missed its oracle")
            elif digest != ref:
                out.append(f"round {i}: {tid} output differs from round 0")
    return out


def summarize(args, rounds: list[dict]) -> tuple[dict, dict]:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    ids = rounds[0]["ids"]
    task_s = [median(r["task_s"][i] for r in plain) for i in range(len(ids))]
    attempted = sum(len(r["ids"]) for r in rounds)
    failed = failures(rounds)
    # Each task's median over rounds filters a noisy round task by task.
    wall = sum(task_s)
    if args.trace:
        layers = {name: median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = (median(r["wall_s"] for r in traced)
                                          / median(r["wall_s"] for r in plain))
        metrics = dict(metric(name, layers[name], unit) for name, unit in LAYER_METRICS.items())
    else:
        metrics = dict([
            metric("wall_s", wall, "s"),
            metric("task_p50_s", median(task_s), "s"),
            metric("setup_s", median(r["setup_s"] for r in plain), "s"),
            metric("peak_rss_mb", median(r["peak_rss_mb"] for r in plain), "MiB"),
            metric("pass_frac", 1.0 - len(failed) / attempted, "ratio"),
        ])
    slowest = max(range(len(ids)), key=task_s.__getitem__)
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "traced_rounds": len(traced),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_setup_s": [r["setup_s"] for r in rounds],
        "round_peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "tasks": len(ids), "task_median_s": dict(zip(ids, task_s)),
        "slowest_task": {"id": ids[slowest], "s": task_s[slowest]},
        "fail_frac": len(failed) / attempted, "failed_tasks": failed,
        "oracle_failures": rounds[0]["oracle_failures"], "errors": rounds[0]["errors"],
        "oracle_s": rounds[0]["oracle_s"],
        "versions": rounds[0]["versions"], "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": rounds[0]["threads"],
    }
    if traced:
        spans = traced[0]["spans"]
        inclusive = {layer: span["s"] for layer, span in spans.items()}
        diagnostics["absent"] = traced[0]["absent"]
        diagnostics["spans"] = spans
        diagnostics["rule_build_s_by_n"] = traced[0]["rule_costs"]
        if inclusive.get("mehler.value"):
            diagnostics["hyp2f1_share_of_mehler"] = (
                inclusive.get("specfun.hyp2f1", 0.0) / inclusive["mehler.value"])
        diagnostics["build_share_of_wall"] = (
            inclusive.get("quadrature.build", 0.0) / traced[0]["wall_s"])
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    return diagnostics, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(PACKAGE):
        print(f"package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        rounds = run_rounds(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark round failed: {exc}", file=sys.stderr)
        return 1
    diagnostics, result = summarize(args, rounds)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
