"""In-process client for one plan of requests; a closed loop, one client.

Reads a JSON plan on stdin and prints one JSON result on stdout:

* ``mode: "list"`` runs ``requests`` once, in order (tables-large: one
  pass per process, so no request repeats within a process);
* ``mode: "stream"`` draws ``count`` classify-transfer requests from
  ``seed``, in chunks.

Only the library call and the encoding sit inside the timer.  Inputs are
built before it and outputs checked after it, chunk by chunk.  Reference
bursts (``refclock``) bracket every request in a list and every SEGMENT
requests in a stream; each latency is returned with the mean slowness of
its two bracketing bursts.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import inproc  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

CHUNK = 2000
SEGMENT = 500


class Tally:
    """Latencies, their slowness and the check results of one worker."""

    def __init__(self, seed: str):
        self.rng = random.Random(seed)
        self.latencies: list = []
        self.slowness: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.ops: dict = {}
        self.sizes: dict = {}
        self.keys: set = set()

    def check(self, reqs: list, outputs: list) -> None:
        for req, (code, text) in zip(reqs, outputs):
            self.attempted += 1
            op = req["op"]
            self.ops[op] = self.ops.get(op, 0) + 1
            bucket = f"2^{max(len(text) - 1, 0).bit_length()}B"
            self.sizes[bucket] = self.sizes.get(bucket, 0) + 1
            if "key" in req:
                self.keys.add(req["key"])
            problem = verify.check(req, code, text, "", self.rng)
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{op} {req.get('space', '')}: {problem}")


def _peak_rss_kb() -> int:
    """Peak RSS of this process since its exec.  ru_maxrss would also count
    the parent's memory from before the exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _timed(reqs: list, tally: Tally, every: int) -> list:
    """Answer the requests, timing each; a burst after every ``every``."""
    run = inproc.run
    clock = time.perf_counter
    outputs = []
    before = refclock.burst()
    for start in range(0, len(reqs), every):
        times = []
        for req in reqs[start:start + every]:
            t0 = clock()
            out = run(req)
            times.append(clock() - t0)
            outputs.append(out)
        after = refclock.burst()
        tally.latencies.extend(times)
        tally.slowness.extend([(before + after) / 2] * len(times))
        before = after
    return outputs


def main() -> int:
    plan = json.load(sys.stdin)
    recorder = None
    if plan["trace"]:
        recorder = tracing.Recorder()
        tracing.install(recorder, inproc, "encode")
        inproc.run = recorder.wrap_request(inproc.run)
    tally = Tally(f"{plan['seed']}:check")
    if plan["mode"] == "list":
        reqs = [inproc.materialize(req) for req in plan["requests"]]
        tally.check(reqs, _timed(reqs, tally, 1))
    else:
        rng = random.Random(plan["seed"])
        for done in range(0, plan["count"], CHUNK):
            size = min(CHUNK, plan["count"] - done)
            reqs = [inproc.materialize(workloads.ct_request(rng, plan["smoke"])) for _ in range(size)]
            tally.check(reqs, _timed(reqs, tally, SEGMENT))
    result = {
        "latencies": tally.latencies,
        "slowness": tally.slowness,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "ops": tally.ops,
        "sizes": tally.sizes,
        "distinct": len(tally.keys),
        "maxrss_kb": _peak_rss_kb(),
    }
    if recorder is not None:
        result["trace"] = recorder.summary()
        recorder.write(plan["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
