"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that
  * an untraced run emits exactly the end-to-end metrics of BENCHMARK.json,
    and a traced run exactly its per-layer metrics, each with its unit;
  * a corrupted reference entry is counted as a failed invocation, so it
    shows in fail_ratio (failed / attempted);
  * a truncation-incomplete answer is checked by its step count and last
    distance, not only by its exit code;
  * two traced runs of one full pass of each workload report the same
    counts and ratios.
The untraced checks use a few cheap invocations per workload; the traced
ones take a few minutes.  Exits non-zero on the first failed check.
"""
import json
import os
import sys

import run
from workloads import WORKLOADS, generate


def expect(condition, message):
    if not condition:
        sys.exit("FAIL: " + message)
    print("ok: " + message)


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def exact_metrics(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio") and not name.startswith("trace.overhead")}


def main():
    reference = run.load_reference()
    quiet = open(os.devnull, "w")
    message = ("truncation-incomplete: no convergence within %d steps "
               "(last distance %s); raise --m-max or loosen --tol\n")
    exit2 = [run.digest({"exit": 2, "stdout": "", "stderr": message % args})
             for args in ((60, "1/244"), (10, "1/244"), (60, "1/243"))]
    expect(len(set(exit2)) == 3,
           "an exit-2 answer is checked by its step count and last distance")
    for workload in WORKLOADS:
        ops = [op for op in generate(workload, 0) if op.items <= 20][:5]
        plain = run.run(workload, 0, 0, False, reference, ops=ops, log=quiet)
        expect(plain["correct"] and plain["failed"] == 0,
               "%s: %d cheap invocations match the reference" % (workload, len(ops)))
        expect(units(plain) == declared("end_to_end"),
               "%s: every end-to-end metric is emitted with its unit" % workload)
        traced = [run.run(workload, 0, 0, True, reference, log=quiet) for _ in range(2)]
        expect(all(t["correct"] for t in traced),
               "%s: two traced full passes match the reference" % workload)
        expect(units(traced[0]) == declared("per_layer"),
               "%s: every per-layer metric is emitted with its unit" % workload)
        expect(exact_metrics(traced[0]) == exact_metrics(traced[1]),
               "%s: counts and ratios repeat across two traced full passes" % workload)
        corrupted = dict(reference)
        corrupted[ops[0].key] = dict(reference[ops[0].key], sha256="0" * 64)
        bad = run.run(workload, 0, 0, False, corrupted, ops=ops, log=quiet)
        expect(not bad["correct"] and bad["failed"] == 1 and bad["attempted"] == len(ops),
               "%s: a corrupted reference counts in fail_ratio (%d/%d)"
               % (workload, bad["failed"], bad["attempted"]))


if __name__ == "__main__":
    main()
