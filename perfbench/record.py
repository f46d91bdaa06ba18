"""Record the reference outputs every seed's passes are checked against.

    python3 perfbench/record.py

Runs every invocation any seed can generate (``workloads.all_ops``) once in
a fresh interpreter and writes its exit code and output digest to
``reference.json``.  The reference is recorded once, from the commit that
defined the benchmark; a change to the program must match it, not
re-record it.
"""
import json
import sys

import run
from workloads import WORKLOADS, all_ops


def main():
    reference, bad = {}, []
    for workload in WORKLOADS:
        for op in all_ops(workload):
            report = run.run_op(op)
            reference[op.key] = {"exit": report["exit"],
                                 "sha256": run.digest(report)}
            problems = run.check(op, report, reference)
            if problems:
                bad.append("%s: %s" % (" ".join(op.argv), "; ".join(problems)))
            print("%7.3f s  %s" % (report["op_s"], " ".join(op.argv)[:100]),
                  file=sys.stderr)
    if bad:
        sys.exit("not recorded; these invocations fail their own checks:\n"
                 + "\n".join(bad))
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d references written to %s" % (len(reference), run.REFERENCE))


if __name__ == "__main__":
    main()
