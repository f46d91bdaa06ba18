"""Reproduce the ROADMAP's baseline figures through the benchmark harness.

    python3 perfbench/baselines.py

Each figure is the median over REPEATS fresh-interpreter runs of one CLI
invocation, timed around ``bratteli.cli.main`` as in the benchmark.
"""
import statistics
import sys

import run
from workloads import Op

REPEATS = 3
FIGURES = (
    ("stochastic rows, pascal-n level 8 (6435 targets)",
     Op(("stochastic", "--family", "pascal-n", "--level", "8", "--window", "8"), 6435), 1),
    ("staircase extension, a = 1/2, k = 2, n_max = 60",
     Op(("extension", "--case", "nu-a-staircase", "--a", "1/2", "--n-max", "60"), 60), 1),
    ("staircase extension, a = 1/2, k = 2, n_max = 200",
     Op(("extension", "--case", "nu-a-staircase", "--a", "1/2", "--n-max", "200"), 200), 1),
    ("odometer column depth 30, left-to-right, per adic step",
     Op(("orbit", "--family", "odometer-io", "--a", "2", "--sub", "constant:1",
         "--order", "left-to-right", "--steps", "3000",
         "--path", '{"start":0,"edges":%s}' % ([[1, 1, 1]] * 30)), 3000), 3000),
)


def main():
    for label, op, per in FIGURES:
        times = []
        for _ in range(REPEATS):
            report = run.run_op(op)
            if report["exit"] != 0:
                sys.exit("%s: exit %s\n%s" % (label, report["exit"], report["stderr"]))
            times.append(report["op_s"])
        med = statistics.median(times)
        if per > 1:
            print("%-56s %8.1f us  (min %.1f, max %.1f)" % (
                label, med / per * 1e6, min(times) / per * 1e6, max(times) / per * 1e6))
        else:
            print("%-56s %8.3f s   (min %.3f, max %.3f)" % (label, med, min(times), max(times)))


if __name__ == "__main__":
    main()
