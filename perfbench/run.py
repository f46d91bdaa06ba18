"""The bratteli benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload cone-sweep --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory.  The workload's pass (see ``workloads.py``) runs whole once, then
round and round until the next invocation is not expected to end within
``--seconds``.  Every invocation runs in a fresh interpreter (``worker.py``), one at a time,
because a CLI user always starts the module-level caches cold.  It runs on
the CPU that is fastest just before it starts (``pin_fastest_cpu``).  Each
output is checked against ``reference.json`` and against invariants that
need no reference.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
invocation twice, untraced and then with the layer shim (``shim.py``), and
reports the per-layer metrics per pass plus the tracing overhead; it stops
only between whole passes.  Raw spans of the first traced pass go to
``.perfbench/spans/<workload>/``.  When a traced run makes more than one
pass, its counts must repeat exactly.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``src/bratteli`` beside it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from math import exp, lgamma, log, log1p

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, generate  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench", "spans")
OP_TIMEOUT_S = 150
CPUS = os.sched_getaffinity(0)

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, how it is derived from the traced summaries)
COUNT, SELF, LAYER, COUNTER, RATIO = "count", "self", "layer", "counter", "ratio"
PER_LAYER = {
    "core.predecessors.calls": ("count", (COUNT, "core.predecessors")),
    "core.predecessors.self_s": ("s", (SELF, "core.predecessors")),
    "core.check_vertex.calls": ("count", (COUNT, "core.check_vertex")),
    "core.check_vertex.self_s": ("s", (SELF, "core.check_vertex")),
    "core.level_vertices.self_s": ("s", (SELF, "core.level_vertices")),
    "core.rank.calls": ("count", (COUNT, "core.rank")),
    "core.closed_form_height.calls": ("count", (COUNT, "core.closed_form_height")),
    "core.step_polynomial.self_s": ("s", (SELF, "core.step_polynomial")),
    "core.self_s": ("s", (LAYER, "core")),
    "linalg.heights.calls": ("count", (COUNT, "linalg.heights")),
    "linalg.heights.self_s": ("s", (SELF, "linalg.heights")),
    "linalg.cone_entries": ("count", (COUNTER, "linalg.cone_entries")),
    "linalg.height_reuse_ratio": (
        "ratio", (RATIO, "linalg.height_hits", "linalg.height_lookups")),
    "linalg.stochastic_row.self_s": ("s", (SELF, "linalg.stochastic_row")),
    "linalg.self_s": ("s", (LAYER, "linalg")),
    "limits.product_row.calls": ("count", (COUNT, "limits.product_row")),
    "limits.product_row.self_s": ("s", (SELF, "limits.product_row")),
    "limits.iterations": ("count", (COUNTER, "limits.iterations")),
    "limits.limit_along.self_s": ("s", (SELF, "limits.limit_along")),
    "limits.self_s": ("s", (LAYER, "limits")),
    "measures.p.calls": ("count", (COUNT, "measures.p")),
    "measures.p.self_s": ("s", (SELF, "measures.p")),
    "measures.q.self_s": ("s", (SELF, "measures.q")),
    "measures.successor_mass.self_s": ("s", (SELF, "measures.successor_mass")),
    "measures.restricted_level_mass.self_s": (
        "s", (SELF, "measures.restricted_level_mass")),
    "measures.self_s": ("s", (LAYER, "measures")),
    "extension.terms": ("count", (COUNTER, "extension.terms")),
    "extension.extension_terms.self_s": ("s", (SELF, "extension.extension_terms")),
    "extension.series_verdict.self_s": ("s", (SELF, "extension.series_verdict")),
    "extension.self_s": ("s", (LAYER, "extension")),
    "vershik.steps": ("count", (COUNT, "vershik.step")),
    "vershik.step.self_s": ("s", (SELF, "vershik.step")),
    "vershik.validate_path.calls": ("count", (COUNT, "vershik.validate_path")),
    "vershik.validate_path.self_s": ("s", (SELF, "vershik.validate_path")),
    "vershik.edges_into.hit_ratio": (
        "ratio", (RATIO, "vershik.edges_hits", "vershik.edges_lookups")),
    "vershik.extremal_path_to.self_s": ("s", (SELF, "vershik.extremal_path_to")),
    "vershik.self_s": ("s", (LAYER, "vershik")),
    "cli.self_s": ("s", (SELF, "cli.main")),
    "cli.output_bytes": ("count", (COUNTER, "cli.output_bytes")),
    "cli.exit2": ("count", (COUNTER, "cli.exit2")),
    "trace.span_count": ("count", (COUNTER, "trace.span_count")),
    "trace.overhead_ratio": ("ratio", None),
}

# keys whose text ROADMAP item 4 may reword; left out of the reference check
FREE_TEXT = ("note", "method")
# the checked part of a truncation-incomplete (exit 2) message
TRUNCATION = re.compile(r"within \d+ steps \(last distance [^)]*\)")


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a wrong program output)."""


# ---------------------------------------------------------------------------
# one invocation in a fresh interpreter


def _probe_s():
    t0 = time.perf_counter()
    sum(i * i % 7 for i in range(20000))
    return time.perf_counter() - t0


def pin_fastest_cpu():
    """Move this process, and so the next worker it starts, to the CPU that
    runs a short probe loop fastest right now.

    On a shared host one CPU of the machine can run at half the speed of the
    other for seconds at a time (a busy neighbour on its core), and a worker
    left to the scheduler lands on either, which splits each invocation's
    time into two modes.  The probe costs about 10 ms per invocation, before
    the worker starts, so it is in no measured time."""
    cpus = sorted(CPUS)
    if len(cpus) > 1:
        speed = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_probe_s(), _probe_s())
        os.sched_setaffinity(0, {min(cpus, key=speed.get)})


def run_op(op, trace=False, spans_file=None):
    pin_fastest_cpu()
    cmd = [sys.executable, WORKER, ROOT, "1" if trace else "0", json.dumps(list(op.argv))]
    if spans_file:
        cmd.append(spans_file)
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError("%s ran past %d s" % (" ".join(op.argv[:3]), OP_TIMEOUT_S))
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        raise HarnessError("worker failed for %s:\n%s" % (
            " ".join(op.argv), proc.stderr.decode(errors="replace")[-2000:]))
    report["setup_s"] = (report["ready_ns"] - t0) / 1e9
    return report


# ---------------------------------------------------------------------------
# output checks


def _strip_free_text(obj):
    if isinstance(obj, dict):
        return {k: _strip_free_text(v) for k, v in obj.items()
                if k not in FREE_TEXT and not k.endswith("_note")}
    if isinstance(obj, list):
        return [_strip_free_text(v) for v in obj]
    return obj


def _payload(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def digest(report):
    """Hash of the output with free-text fields removed (raw text for CSV).

    A truncation-incomplete answer (exit 2) prints nothing on stdout, so its
    step count and last distance are taken from stderr."""
    text = report["stdout"]
    payload = _payload(text)
    if payload is not None:
        text = json.dumps(_strip_free_text(payload), sort_keys=True,
                          separators=(",", ":"))
    if report["exit"] == 2:
        found = TRUNCATION.search(report["stderr"])
        text += "\n" + (found.group(0) if found else report["stderr"])
    return hashlib.sha256(text.encode()).hexdigest()


def _invariant_problems(op, payload):
    """Checks that need no reference, by command."""
    cmd, out = op.command, []
    if cmd == "stochastic" and payload.get("row_sums_one") is not True:
        out.append("row_sums_one is not true")
    if cmd == "heights" and payload.get("closed_form_agrees", True) is not True:
        out.append("closed_form_agrees is not true")
    if cmd == "invariance" and payload.get("invariant") is not True:
        out.append("invariant is not true")
    if cmd == "probability" and payload.get("all_one") is not True:
        out.append("all_one is not true")
    if cmd == "orbit" and payload.get("paths_seen") != payload.get("steps", -2) + 1:
        out.append("paths_seen != steps + 1")
    return out


def check(op, report, reference):
    """Problems with one invocation's result; empty when it is correct."""
    problems = []
    if report["exit"] != op.exit:
        problems.append("exit %s, expected %d: %s" % (
            report["exit"], op.exit, report["stderr"].strip()[-300:]))
    if op.exit == 2 and not report["stderr"].startswith("truncation-incomplete:"):
        problems.append("exit-2 message missing")
    ref = reference.get(op.key)
    if ref is None:
        problems.append("no reference recorded")
    elif ref != {"exit": report["exit"], "sha256": digest(report)}:
        problems.append("output differs from the reference")
    payload = _payload(report["stdout"])
    if isinstance(payload, dict):
        problems += _invariant_problems(op, payload)
    return problems


# ---------------------------------------------------------------------------
# the run


def _beta_continued_fraction(x, a, b):
    """The continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta did not converge at x=%r a=%r b=%r" % (x, a, b))


def _beta_cdf(x, a, b):
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = exp(lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(x, a, b) / a
    return 1.0 - front * _beta_continued_fraction(1.0 - x, b, a) / b


def hd_quantile(values, weights, p):
    """The Harrell-Davis estimate of the ``p``-quantile of weighted ``values``.

    It is a weighted mean of every order statistic, the weights taken from
    the Beta((n+1)p, (n+1)(1-p)) distribution over the cumulated sample
    weights, with n the effective sample size; with equal sample weights it
    is the plain Harrell-Davis estimator.  It moves smoothly as single
    values move.  Invocation times on the shared host have two modes up to
    twice apart; a plain sample median or percentile is one or two of them,
    and on the benchmark's own data its sampling noise was up to twice this
    estimate's (see README.md)."""
    pairs = sorted(zip(values, weights))
    if len(pairs) == 1:
        return pairs[0][0]
    total = sum(w for _, w in pairs)
    n = total * total / sum(w * w for _, w in pairs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    estimate, cum, below = 0.0, 0.0, 0.0
    for x, w in pairs:
        cum += w / total
        above = _beta_cdf(cum, a, b)
        estimate += (above - below) * x
        below = above
    return estimate


def end_to_end(records, ops):
    """Timings over the run.  The pass fixes the mix: each invocation of the
    pass weighs the same, so one that ran once more than another (the run
    ends mid-pass) does not count more."""
    times = {}
    for r in records:
        times.setdefault(r["op"], []).append(r["op_s"])
    op_ms = [t * 1e3 for r in times.values() for t in r]
    weights = [1 / len(r) for r in times.values() for _ in r]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "items_per_s": (sum(ops[i].items for i in times)
                        / sum(statistics.mean(t) for t in times.values())),
        "op_p50_ms": hd_quantile(op_ms, weights, 0.5),
        "op_p90_ms": hd_quantile(op_ms, weights, 0.9),
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024,
    }


def _pass_layers(reports):
    """Fold the traced reports of one pass into span and counter totals."""
    spans, counters = {}, {}
    for rep in reports:
        layers = rep["layers"]
        for name, (calls, total, self_s) in layers["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, value in layers["counters"].items():
            counters[name] = counters.get(name, 0) + value
        counters["trace.span_count"] = counters.get("trace.span_count", 0) + layers["span_count"]
        counters["cli.output_bytes"] = (counters.get("cli.output_bytes", 0)
                                        + len(rep["stdout"].encode()))
        counters["cli.exit2"] = counters.get("cli.exit2", 0) + (rep["exit"] == 2)
    return spans, counters


def _exact_counts(spans, counters):
    """Everything in a pass summary that must repeat exactly."""
    out = {name: entry[0] for name, entry in spans.items()}
    out.update(counters)
    return out


def per_layer(passes, overhead):
    """Per-pass averages of the traced passes (counts repeat exactly)."""
    n = len(passes)
    self_total, count_total, counters = {}, {}, {}
    for spans, pass_counters in passes:
        for name, (calls, _total, self_s) in spans.items():
            count_total[name] = count_total.get(name, 0) + calls
            self_total[name] = self_total.get(name, 0.0) + self_s
        for name, value in pass_counters.items():
            counters[name] = counters.get(name, 0) + value
    out = {}
    for metric, (unit, rule) in PER_LAYER.items():
        if rule is None:
            value = overhead
        elif rule[0] == COUNT:
            value = count_total.get(rule[1], 0) / n
        elif rule[0] == SELF:
            value = self_total.get(rule[1], 0.0) / n
        elif rule[0] == LAYER:
            value = sum(v for k, v in self_total.items()
                        if k.split(".")[0] == rule[1]) / n
        elif rule[0] == COUNTER:
            value = counters.get(rule[1], 0) / n
        else:
            den = counters.get(rule[2], 0)
            value = counters.get(rule[1], 0) / den if den else 0.0
        out[metric] = value
    return out


def run(workload, seed, seconds, trace, reference, ops=None, log=sys.stderr):
    """Run the pass once, then round and round for ``seconds``; return the
    result object.  A traced run stops only between whole passes."""
    ops = generate(workload, seed) if ops is None else ops
    spans_dir = os.path.join(SPANS_DIR, workload)
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
    records, passes, problems, traced_reports = [], [], [], []
    wall = {}  # op index -> wall time of its last turn, set-up included
    untraced_s = traced_s = 0.0
    attempted = failed = 0
    started = time.monotonic()
    for turn in itertools.count():
        i = turn % len(ops)
        elapsed = time.monotonic() - started
        if turn >= len(ops):
            if trace:
                if i == 0 and elapsed * (len(passes) + 1) / len(passes) > seconds:
                    break
            elif elapsed + wall[i] > seconds:
                break
        op = ops[i]
        runs = [run_op(op)]
        if trace:
            spans_file = (os.path.join(spans_dir, "%03d-%s.spans" % (i, op.command))
                          if not passes else None)
            runs.append(run_op(op, trace=True, spans_file=spans_file))
            untraced_s += runs[0]["op_s"]
            traced_s += runs[1]["op_s"]
            traced_reports.append(runs[1])
        wall[i] = time.monotonic() - started - elapsed
        for rep in runs:
            attempted += 1
            found = check(op, rep, reference)
            if found:
                failed += 1
                problems.append("%s: %s" % (" ".join(op.argv)[:120], "; ".join(found)))
        rep = runs[0]
        records.append({"op": i, "setup_s": rep["setup_s"], "op_s": rep["op_s"],
                        "maxrss_kb": rep["maxrss_kb"]})
        if i == len(ops) - 1:
            passes.append(_pass_layers(traced_reports) if trace else None)
            traced_reports = []
            print("pass %d done at %.1f s" % (len(passes), time.monotonic() - started),
                  file=log)
    repeatable = True
    if trace:
        first = _exact_counts(*passes[0])
        repeatable = all(_exact_counts(*p) == first for p in passes[1:])
        if not repeatable:
            problems.append("layer counts differ between passes")
        metrics = per_layer(passes, traced_s / untraced_s - 1)
        units = {m: unit for m, (unit, _rule) in PER_LAYER.items()}
    else:
        metrics = end_to_end(records, ops)
        units = END_TO_END
    for line in problems[:20]:
        print("FAILED %s" % line, file=log)
    return {
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "ops": len(records),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bratteli", "cli.py")):
        print("no bratteli sources at %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     load_reference())
    except HarnessError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    ops, passes = result.pop("ops"), result.pop("passes")
    print("%s seed %d: %d whole passes, %d timed invocations (%d in a pass)" % (
        args.workload, args.seed, passes, ops, len(generate(args.workload, args.seed))))
    for name, m in result["metrics"].items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-40s %14.6g ratio (%d failed of %d attempted)" % (
        "fail_ratio", result["failed"] / result["attempted"], result["failed"],
        result["attempted"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
