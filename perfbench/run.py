"""Benchmark of thetastrata: classify on genus-4 points and the verify CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady [--seconds S]

One run starts a fresh worker process for workload W (generic, strata,
split22 or verify) with the BLAS pool pinned to one thread, checks every
result, and prints as its last line
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones. With --trace 0 it
also times set-up (`import thetastrata` plus the first operation) in
SETUP_PROBES more fresh processes and reports the median. The line before
the last gives the sample count, the tail percentile, the failures by
reason and, when traced, the span checks: every span inside its
operation's window and its parent, no negative self time.

--steady runs every workload STEADY_RUNS times on seeds 1..STEADY_RUNS,
alternating the workload order, and prints each end-to-end metric's
median, quartiles and spread beside its bound in BENCHMARK.json.

Results go to perfbench/out/. The program is imported from src/ of the
checkout this file sits in; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("generic", "strata", "split22", "verify")
SETUP_PROBES = 5
STEADY_RUNS = 10
RUN_LIMIT_S = 170
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunError(Exception):
    pass


def _child(args: list[str], deadline: float, stdin: str | None = None) -> dict:
    """Run perfbench/<args> in a fresh interpreter; its last stdout line."""
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, *args], input=stdin, capture_output=True, text=True,
            env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{args[0]} timed out") from exc
    if proc.returncode != 0:
        raise RunError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> dict:
    """Sample count and, from forty samples on, the highest whole
    percentile that leaves at least ten samples above it."""
    n = len(latencies)
    out = {"samples": n}
    if n >= 40:
        p = math.floor(100 * (n - 10) / n)
        out[f"p{p}_ms"] = sorted(latencies)[math.ceil(p * n / 100) - 1]
    return out


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(ROOT, "src", "thetastrata", "__init__.py")):
        raise RunError(f"no thetastrata package under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + RUN_LIMIT_S
    worker = os.path.join(HERE, "worker.py")
    main = _child([worker, "main", workload, str(seed), str(seconds), "1" if trace else "0"],
                  deadline)
    detail = {"workload": workload, "seed": seed, "ops_per_round": main["ops_per_round"],
              **tail(main["latencies_ms"]), "failures": main["failures"]}
    correct = True
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in main["layers"].items()}
        check = main["span_check"]
        detail["span_check"] = check
        correct = (check["faults"] == 0 and check["uncovered_ms"] >= 0
                   and abs(check["self_sum_ms"] + check["uncovered_ms"] - check["traced_wall_ms"])
                   < 1e-3)
    else:
        setup = []
        first = json.dumps(main["first_op"])
        for _ in range(SETUP_PROBES):
            probe = _child([worker, "setup"], deadline, stdin=first)
            correct = correct and probe["ok"]
            setup.append(probe["setup_s"])
        detail["setup_samples_s"] = setup
        metrics = {
            "ops_per_s": {"value": main["ops_per_round"] / statistics.median(main["round_s"]),
                          "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(main["latencies_ms"]), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": correct, "attempted": main["attempted"], "failed": main["failed"],
              "metrics": metrics}
    return result, detail


def steady(seconds: float):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values = {w: {} for w in WORKLOADS}
    shares = {w: set() for w in WORKLOADS}
    for i in range(STEADY_RUNS):
        order = WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            res = _child([os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(i + 1),
                          "--seconds", str(seconds), "--trace", "0"], time.monotonic() + 200)
            shares[w].add((res["failed"], res["attempted"]) if res["failed"] else 0)
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i + 1} {w}: " + json.dumps(res["metrics"]), flush=True)
    report = {}
    print(f"{'workload':8} {'metric':15} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for w in WORKLOADS:
        report[w] = {"failed_shares": sorted(map(str, shares[w]))}
        for name, vals in values[w].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            report[w][name] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bounds[name]}
            flag = "" if spread < bounds[name] / 3 else "  above bound/3"
            print(f"{w:8} {name:15} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} "
                  f"{bounds[name]:6.2f}{flag}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    args = parser.parse_args()
    try:
        if args.steady:
            steady(args.seconds)
            return 0
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        result, detail = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
