"""Self-test of the benchmark's correctness gate.

Corrupts one reference in each workload and checks that the measurement
reports 0 < failed_frac < 1, then checks that exact counts which differ
between two runs of the same code are an error.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys

import run
from tracing import Recorder

SEED = 1


def _first_campaign_off_by_one(w):
    campaigns = w.campaigns

    def corrupted(workers: int) -> list:
        runs = campaigns(workers)
        report, expected = runs[0]
        return [(report, expected + 1)] + runs[1:]

    return dataclasses.replace(w, campaigns=corrupted)


def main() -> int:
    run._load_program()
    import workloads as W
    from oidrd import solver as S

    missed = []

    def expect_failures(label: str, w, min_passes: int) -> None:
        res = run.measure(w, 0, SEED, min_passes=min_passes)
        failed, attempted = res["failed"], res["attempted"]
        detected = 0 < failed < attempted
        print(f"{label}: failed_frac={failed / attempted:.6f} ({failed}/{attempted}) "
              f"{'detected' if detected else 'NOT DETECTED'}", flush=True)
        if not detected:
            missed.append(label)

    for name in ("trees", "connected"):
        w = W.build(name, SEED, Recorder(False))
        expect_failures(f"{name}: expected instance count + 1", _first_campaign_off_by_one(w), 1)

    w = W.build("oracle", SEED, Recorder(False))
    target = w.instances[-1]
    brute = S.BRUTE_SOLVERS["gamma"]

    def corrupted_oracle(g):
        r = brute(g)
        return dataclasses.replace(r, value=r.value + 1) if g is target else r

    S.BRUTE_SOLVERS["gamma"] = corrupted_oracle
    try:
        expect_failures("oracle: gamma oracle value + 1 on one graph", w, 1)
    finally:
        S.BRUTE_SOLVERS["gamma"] = brute

    w = W.build("solve", SEED, Recorder(False))
    kind, text, value = w.instances[0]
    w.instances[0] = (kind, text, value + 1)
    expect_failures("solve: one pinned reference + 1", w, 2)

    path = run.OUT / "selftest-exact-counts.json"
    run.OUT.mkdir(exist_ok=True)
    try:
        run.check_exact("selftest", {"nodes": 1}, path)
        run.check_exact("selftest", {"nodes": 2}, path)
        print("exact counts: mismatch NOT DETECTED")
        missed.append("exact counts")
    except run.BenchError:
        print("exact counts: mismatch between runs detected")
    finally:
        path.unlink(missing_ok=True)

    if missed:
        print("selftest FAILED: " + ", ".join(missed))
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
