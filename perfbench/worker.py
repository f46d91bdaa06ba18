"""Run one ``bratteli`` invocation in a fresh interpreter and report on it.

Usage: python3 worker.py ROOT TRACE ARGV_JSON [SPANS_FILE]

Imports ``bratteli.cli`` from ``ROOT/src``, stamps the monotonic clock once
the import is done (the parent stamped it before starting this process, so
the difference is the set-up a CLI user pays), then calls
``bratteli.cli.main`` in-process with stdout and stderr captured.  With
TRACE = 1 the layer shim is installed after the stamp and before the call.
The report is one JSON object on stdout.
"""
import io
import json
import os
import resource
import sys
import time
import traceback

root, trace, argv = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
src = os.path.join(root, "src")
sys.path.insert(0, src)

import bratteli.cli  # noqa: E402  (the import is what set-up time measures)

ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
if not os.path.abspath(bratteli.cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit("bratteli was imported from %s, not from %s" % (bratteli.cli.__file__, src))

tracer = None
if trace:
    import shim

    tracer = shim.Tracer()
    tracer.install()

out, err = io.BytesIO(), io.BytesIO()
real_stdout, real_stderr = sys.stdout, sys.stderr
sys.stdout = io.TextIOWrapper(out, encoding="utf-8", newline="")
sys.stderr = io.TextIOWrapper(err, encoding="utf-8", newline="")
code = 0
start = time.perf_counter()
try:
    if tracer is not None:
        tracer.run_main(bratteli.cli.main, argv)
    else:
        bratteli.cli.main(argv)
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
except Exception:  # a crash of the program is a failed invocation, not ours
    code = -1
    traceback.print_exc()
elapsed = time.perf_counter() - start
sys.stdout.flush()
sys.stderr.flush()
stdout, stderr = out.getvalue().decode("utf-8"), err.getvalue().decode("utf-8")
sys.stdout, sys.stderr = real_stdout, real_stderr

report = {
    "ready_ns": ready_ns,
    "op_s": elapsed,
    "exit": code,
    "stdout": stdout,
    "stderr": stderr,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}
if tracer is not None:
    report["layers"] = tracer.summary()
    if len(sys.argv) > 4:
        tracer.write_spans(sys.argv[4])
json.dump(report, sys.stdout)
