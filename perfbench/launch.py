"""Closed-loop launcher for the cli-mix: one child process per request.

Usage: python3 -S perfbench/launch.py < plan.json

A child's ``ru_maxrss`` also counts the memory of the process that spawned
it, from before its exec.  This launcher therefore runs without ``site``
and imports little, so that its own peak stays below any child's and the
``wait4`` figure is the child's own.

The plan is {"argv_prefix": [...], "env": {...}, "out": path, "err": path,
"timeout_s": s, "calls": [{"argv": [...], "env": {...}}, ...]}.  Prints one
JSON list with, per call, the exit code, stdout, stderr, wall seconds, the
mean slowness of the reference probes (``refclock.process``) before and
after it, and peak RSS in KiB.
"""

import json
import os
import signal
import sys
import time

import refclock


def main() -> int:
    plan = json.load(sys.stdin)
    child = [0]

    def on_alarm(signum, frame):
        os.kill(child[0], signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    results = []
    python = plan["argv_prefix"][0]
    before = refclock.process(python)
    for call in plan["calls"]:
        argv = plan["argv_prefix"] + call["argv"]
        env = dict(plan["env"], **call.get("env", {}))
        with open(plan["out"], "wb") as out, open(plan["err"], "wb") as err:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            t0 = time.perf_counter()
            child[0] = os.posix_spawn(argv[0], argv, env, file_actions=actions)
            signal.alarm(plan["timeout_s"])
            _, status, usage = os.wait4(child[0], 0)
            wall = time.perf_counter() - t0
            signal.alarm(0)
        with open(plan["out"], encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(plan["err"], encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        after = refclock.process(python)
        results.append({
            "code": os.waitstatus_to_exitcode(status),
            "stdout": stdout,
            "stderr": stderr,
            "wall_s": wall,
            "slowness": (before + after) / 2,
            "maxrss_kb": usage.ru_maxrss,
        })
        before = after
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
