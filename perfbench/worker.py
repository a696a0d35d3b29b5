"""One workload in one fresh process. run.py starts it with the BLAS
pool pinned to one thread in its environment, so numpy reads the
setting at import.

    worker.py main <workload> <seed> <seconds> <trace>
        import thetastrata, plan, make the first operation untimed, then
        run whole rounds until they have taken <seconds>; with <trace> 1,
        alternate an untraced and a traced round. Prints one JSON line.
    worker.py setup
        read one operation as JSON from stdin; print the seconds taken by
        `import thetastrata` plus that operation.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)


def import_program() -> float:
    start = time.perf_counter()
    import thetastrata

    took = time.perf_counter() - start
    if not os.path.abspath(thetastrata.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"thetastrata imported from {thetastrata.__file__}, not {SRC}")
    return took


def attempt(op):
    import workloads  # after import_program, so numpy loads inside its timing

    try:
        return workloads.execute(op)
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def run_round(ops, rec=None, first_op=0) -> tuple[list, list[tuple[int, int]]]:
    """Results and [start_ns, end_ns] windows of one pass over ops; a
    traced pass numbers its ops from first_op, so every span names the
    window it must lie in."""
    results, windows = [], []
    for i, op in enumerate(ops):
        if rec is not None:
            rec.op = first_op + i
        start = time.perf_counter_ns()
        results.append(attempt(op))
        windows.append((start, time.perf_counter_ns()))
    return results, windows


def main(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()
    import spans
    import workloads

    ops = workloads.plan(workload, seed)
    attempt(ops[0])

    # Results are checked after each round, outside its timing, and then
    # dropped, so peak memory does not grow with the number of rounds.
    bad_oracle = workloads.oracle_faults(ops)
    reasons: dict[str, int] = {}
    n_rounds = 0

    def tally(results):
        for i, (op, result) in enumerate(zip(ops, results)):
            if isinstance(result, Exception):
                why = f"{type(result).__name__}: {result}"
            elif i in bad_oracle:
                why = "theta constants fail the box-sum or tail-bound oracle"
            else:
                why = workloads.check(op, result, results)
            if why is not None:
                key = f"{op.name}: {why}"
                reasons[key] = reasons.get(key, 0) + 1

    plain, round_s, traced, rec = [], [], [], None
    if trace:
        rec = spans.Recorder()
    spent_s = 0.0
    while spent_s < seconds:
        results, windows = run_round(ops)
        round_s.append((windows[-1][1] - windows[0][0]) / 1e9)
        spent_s += round_s[-1]
        plain += windows
        tally(results)
        n_rounds += 1
        if trace:
            undo = spans.install(rec)
            try:
                results, windows = run_round(ops, rec, len(traced))
            finally:
                undo()
            spent_s += (windows[-1][1] - windows[0][0]) / 1e9
            traced += windows
            tally(results)
            n_rounds += 1
    plain_ns = [end - start for start, end in plain]

    out = {
        "workload": workload,
        "seed": seed,
        "ops_per_round": len(ops),
        "attempted": n_rounds * len(ops),
        "failed": sum(reasons.values()),
        "failures": reasons,
        "latencies_ms": [t / 1e6 for t in plain_ns],
        "round_s": round_s,
        "first_op": ops[0].to_json(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        n = len(traced)
        traced_ns = sum(end - start for start, end in traced)
        untraced_ms = sum(plain_ns) / len(plain_ns) / 1e6
        out["layers"] = spans.layer_metrics(rec, n, traced_ns, untraced_ms)
        self_ns, _ = spans.self_times(rec.spans)
        root_ns = sum(end - start for _, start, end, parent, _ in rec.spans if parent is None)
        faults = spans.span_faults(rec.spans, traced)
        out["span_check"] = {
            "traced_wall_ms": traced_ns / n / 1e6,
            "self_sum_ms": sum(self_ns.values()) / n / 1e6,
            "uncovered_ms": (traced_ns - root_ns) / n / 1e6,
            "faults": len(faults),
            "first_faults": faults[:5],
        }
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        rec.write(os.path.join(HERE, "out", f"spans-{workload}-s{seed}.jsonl"))
    return out


def setup_probe() -> dict:
    import_s = import_program()
    import workloads

    op = workloads.op_from_json(json.load(sys.stdin))
    start = time.perf_counter()
    result = attempt(op)
    took = time.perf_counter() - start
    return {"setup_s": import_s + took, "ok": not isinstance(result, Exception)}


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(json.dumps(setup_probe()))
    else:
        _, _, name, seed, seconds, trace = sys.argv
        print(json.dumps(main(name, int(seed), float(seconds), trace == "1")))
