"""``python -m symchar`` with span wrappers, for the traced cli-mix run.

Usage: python3 perfbench/clishim.py <symchar arguments>

Behaves like ``python -m symchar`` (same stdout, stderr and exit code) and
additionally appends the span summary of the call as one JSON line to the
file named by PERFBENCH_TRACE_OUT and its spans to PERFBENCH_SPANS_OUT.
"""

import json
import os
import sys
import time

t_enter = time.perf_counter()
import symchar.cli  # noqa: E402
import tracing  # noqa: E402

dumps = json.dumps
recorder = tracing.Recorder()
recorder.request_id = int(os.environ["PERFBENCH_REQUEST_ID"])
tracing.install(recorder, json, "dumps")
t_main = time.perf_counter()
code = 1
try:
    code = symchar.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
finally:
    t_done = time.perf_counter()
    summary = recorder.summary()
    summary.update(import_s=t_main - t_enter, main_s=t_done - t_main)
    with open(os.environ["PERFBENCH_TRACE_OUT"], "a", encoding="utf-8") as fh:
        fh.write(dumps(summary) + "\n")
    recorder.write(os.environ["PERFBENCH_SPANS_OUT"], append=True)
sys.exit(code)
