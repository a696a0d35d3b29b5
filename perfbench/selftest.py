"""Quick check of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

- its block enumeration gives the vanishing counts 28, 36, 46, 55 and
  |I_1| = 28, |I_2| = 36;
- its result checks reject a wrong label, a perturbed theta value and a
  theta radius one too small;
- its span checks reject a span outside its operation's window and one
  outside its parent;
- a one-second pass of each workload, and a traced one of strata, ends
  with 0 failed operations and correct results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import oracles  # noqa: E402
import spans  # noqa: E402


def block_counts():
    assert len(oracles.even_characteristics(4)) == 136
    counts = {parts: len(oracles.odd_on_some_block(parts))
              for parts in [(1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)]}
    assert counts == {(1, 3): 28, (2, 2): 36, (1, 1, 2): 46, (1, 1, 1, 1): 55}, counts
    assert (oracles.split_tuple_size(4, 1), oracles.split_tuple_size(4, 2)) == (28, 36)


def checks_can_fail():
    import thetastrata
    import workloads

    op = workloads.plan("generic", 7)[0]
    report = workloads.execute(op)
    assert workloads.check(op, report, [report]) is None
    op.label = "X1"
    assert workloads.check(op, report, [report]) is not None
    op.label = "X0"
    op.oracle = [oracles.even_characteristics(4)[0]]
    assert workloads.oracle_faults([op]) == set()
    real = thetastrata.even_theta_constants
    for perturb in (dict(value=1e-11), dict(radius=-1)):
        def perturbed(*args, **kwargs):
            out = real(*args, **kwargs)
            return {m: type(tv)(tv.value + perturb.get("value", 0), tv.tail_bound,
                                tv.radius + perturb.get("radius", 0)) for m, tv in out.items()}
        thetastrata.even_theta_constants = perturbed
        try:
            assert workloads.oracle_faults([op]) == {0}, perturb
        finally:
            thetastrata.even_theta_constants = real


def span_checks_can_fail():
    windows = [(0, 100), (200, 300)]
    good = [["a", 10, 90, None, 0], ["b", 20, 40, 0, 0], ["a", 210, 250, None, 1]]
    assert spans.span_faults(good, windows) == []
    bad = [["a", 10, 90, None, 0], ["b", 20, 40, 0, 0], ["a", 210, 350, None, 1]]
    assert spans.span_faults(bad, windows), "span past its op's window"
    bad = [["a", 10, 30, None, 0], ["b", 20, 40, 0, 0], ["a", 210, 250, None, 1]]
    assert spans.span_faults(bad, windows), "child past its parent"
    bad = [["a", 10, 90, None, 0], ["b", 20, 40, 0, 0], ["a", 210, 250, 0, 1]]
    assert spans.span_faults(bad, windows), "parent in another op"


def short_passes():
    for workload, trace in [("generic", 0), ("strata", 0), ("split22", 0), ("verify", 0),
                            ("strata", 1)]:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result


def main() -> int:
    failed = 0
    for test in (block_counts, checks_can_fail, span_checks_can_fail, short_passes):
        try:
            test()
            print(f"ok    {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
