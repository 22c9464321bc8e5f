"""The symchar benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads (see BENCHMARK.json for why each exists):

* ``tables-large``: rank-one Pontrjagin/Stiefel-Whitney/Wall tables, made
  in-process through library calls; one worker process per pass so that no
  request repeats within a process.
* ``cli-mix``: one ``python -m symchar`` process per request, all
  subcommands and families, with domain and usage errors.
* ``classify-transfer``: thousands of cheap in-process classification,
  GL-order and table-transfer requests drawn from a skewed distribution.

With ``--trace 0`` a run goes on for ``--seconds`` of wall time and reports
the end-to-end metrics.  With ``--trace 1`` it answers a fixed set of
requests once untraced and once with span wrappers (``tracing.py``) and
reports the per-layer metrics; spans are written to ``.perfbench_out/``.
Every output is checked outside the timed region (``verify.py``).  The
last stdout line is the JSON result; the line before it holds the
environment metadata.  ``--smoke`` runs every workload at tiny sizes in
both modes and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PY = sys.executable
WORKLOADS = ["tables-large", "cli-mix", "classify-transfer"]
WALL_LIMIT_S = 120.0  # no new pass after this; a run must end within 180 s
# A traced run answers a fixed set of requests, once untraced and once
# traced, so that its counts repeat exactly for a given seed.
TRACE_PASSES = 3
TRACE_ROUNDS = 2
TRACE_REQUESTS = 20_000
# classify-transfer requests per worker process: bounds the client's own
# bookkeeping, so peak memory does not grow with the request rate.
STREAM_REQUESTS = 40_000


def _env(**extra) -> dict:
    env = dict(os.environ, **extra)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _spawn(argv: list, timeout: float = 60, **extra) -> tuple:
    """Run a child to completion: (wall seconds, CompletedProcess)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=_env(**extra),
                          cwd=ROOT, timeout=timeout)
    return time.perf_counter() - t0, proc


def _spawn_ok(argv: list) -> tuple:
    wall, proc = _spawn(argv)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:3]} failed: {proc.stderr.strip()[-400:]}")
    return wall, proc


# --- set-up and start-up -----------------------------------------------------------

IMPORT = "import symchar, symchar.cli"


def bracketed(fn, probe) -> tuple:
    """(wall seconds, mean slowness of the probes around it, result)."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return wall, (before + probe()) / 2, result


def at_reference(times, slowness) -> list:
    """Wall times at the reference speed (see refclock.py)."""
    return [t / s for t, s in zip(times, slowness)]


def process_probe() -> float:
    return refclock.process(PY)


def setup_once() -> tuple:
    """(wall time, slowness) of a fresh interpreter importing symchar and
    the CLI."""
    wall, slowness, _ = bracketed(lambda: _spawn_ok([PY, "-c", IMPORT]), process_probe)
    return wall, slowness


TIMED_IMPORT = ("import time; t = time.perf_counter(); " + IMPORT
                + "; print((time.perf_counter() - t) * 1e3)")


def measure_startup(reps: int) -> dict:
    """Start-up probes, each the median over ``reps`` fresh interpreters."""
    samples: dict = {}

    def add(name, value, slowness):
        samples.setdefault(name, []).append(value / slowness)

    def spawn(argv):
        _, slowness, (_, proc) = bracketed(lambda: _spawn_ok(argv), process_probe)
        return slowness, proc

    for _ in range(reps):
        wall, slowness, _ = bracketed(lambda: _spawn_ok([PY, "-c", "pass"]), process_probe)
        add("startup.interp_ms", wall * 1e3, slowness)
        slowness, proc = spawn([PY, "-c", TIMED_IMPORT])
        add("startup.import_ms", float(proc.stdout), slowness)
        slowness, proc = spawn([PY, "-X", "importtime", "-c", IMPORT])
        for name, value in _import_selfs(proc).items():
            add(name, value, slowness)
    # a module that is no longer imported at start-up costs nothing there
    return {name: statistics.median(samples.get(name, [0.0])) for name in STARTUP_METRICS}


IMPORT_SELF = {"symchar.catalog": "import.symchar.catalog_us",
               "symchar.cli": "import.symchar.cli_us"}
STARTUP_METRICS = ["startup.interp_ms", "startup.import_ms", *IMPORT_SELF.values()]


def _import_selfs(proc) -> dict:
    """Self times of two modules from ``-X importtime`` output, in us."""
    found = {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() in IMPORT_SELF:
            found[IMPORT_SELF[fields[2].strip()]] = int(fields[0].split(":")[1])
    return found


# --- results ---------------------------------------------------------------------------


class Run:
    """What one workload run measured and checked."""

    def __init__(self):
        self.latencies: list = []
        self.slowness: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.ops: dict = {}
        self.sizes: dict = {}
        self.peak_rss_kb = 0
        self.traced_latencies: list = []
        self.traced_slowness: list = []
        self.setup_samples: list = []
        self.layers = {name: {"calls": 0, "busy_s": 0.0} for name in tracing.LAYER_NAMES}
        self.counters = dict.fromkeys(tracing.COUNTERS, 0)
        self.startup = {"calls": 0, "busy_s": 0.0}
        self.missing: set = set()
        self.meta: dict = {}

    def add_checked(self, attempted: int, failed: int, problems: list) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[: 5 - len(self.problems)])

    def add_counts(self, ops: dict, sizes: dict) -> None:
        for mine, theirs in ((self.ops, ops), (self.sizes, sizes)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value

    def going(self, args, started: float, done: int, fixed: int) -> bool:
        """Trace runs answer a fixed set of requests; timed runs go on for
        --seconds of wall time, taking one set-up sample per iteration, so
        that slow drifts of the machine's speed weigh on both alike."""
        if args.trace:
            return done < fixed
        if done:
            self.setup_samples.append(setup_once())
        return time.perf_counter() - started < min(args.seconds, WALL_LIMIT_S)

    def add_trace(self, summary: dict) -> None:
        for layer, stats in summary["layers"].items():
            if layer in self.layers:
                self.layers[layer]["calls"] += stats["calls"]
                self.layers[layer]["busy_s"] += stats["busy_s"]
        for key, value in summary["counters"].items():
            self.counters[key] += value
        self.missing.update(summary["missing"])


def _worker(plan: dict) -> dict:
    proc = subprocess.run([PY, str(HERE / "worker.py")], input=json.dumps(plan),
                          capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _merge_worker(run: Run, res: dict, timed: bool) -> None:
    run.add_checked(res["attempted"], res["failed"], res["problems"])
    if timed:
        run.latencies.extend(res["latencies"])
        run.slowness.extend(res["slowness"])
        run.peak_rss_kb = max(run.peak_rss_kb, res["maxrss_kb"])
        run.add_counts(res["ops"], res["sizes"])
    else:
        run.traced_latencies.extend(res["latencies"])
        run.traced_slowness.extend(res["slowness"])
        run.add_trace(res["trace"])


# --- workloads -------------------------------------------------------------------------


def tables_large(args, run: Run, started: float) -> None:
    verdicts: dict = {}
    passes = 0
    while run.going(args, started, passes, TRACE_PASSES):
        rng = random.Random(f"tables-large:{args.seed}:{passes}")
        reqs = workloads.tables_large_pass(rng, args.smoke, verdicts)
        plan = {"mode": "list", "requests": reqs, "trace": False, "seed": f"{args.seed}:{passes}"}
        res = _worker(plan)
        _merge_worker(run, res, timed=True)
        if args.trace:
            plan.update(trace=True, spans=str(OUT / f"spans-tables-large-{passes}.csv"))
            _merge_worker(run, _worker(plan), timed=False)
        passes += 1
    run.meta.update(passes=passes, repeat_share=0.0)


def classify_transfer(args, run: Run, started: float) -> None:
    workers = 0
    distinct = 0
    while run.going(args, started, workers, 1):
        plan = {"mode": "stream", "seed": f"{args.seed}:{workers}", "trace": False,
                "count": 500 if args.smoke else (TRACE_REQUESTS if args.trace else STREAM_REQUESTS),
                "smoke": args.smoke}
        res = _worker(plan)
        _merge_worker(run, res, timed=True)
        distinct += res["distinct"]
        if args.trace:
            plan.update(trace=True, spans=str(OUT / "spans-classify-transfer.csv"))
            _merge_worker(run, _worker(plan), timed=False)
        workers += 1
    run.meta.update(workers=workers, repeat_share=1 - distinct / max(len(run.latencies), 1))


def _launch(calls: list, traced: bool = False, **extra_env) -> list:
    """Run CLI calls one after another from the small launcher process."""
    prefix = [PY, str(HERE / "clishim.py")] if traced else [PY, "-m", "symchar"]
    plan = {"argv_prefix": prefix, "env": _env(**extra_env), "out": str(OUT / "child.out"),
            "err": str(OUT / "child.err"), "timeout_s": 60, "calls": calls}
    proc = subprocess.run([PY, "-S", str(HERE / "launch.py")], input=json.dumps(plan),
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"launcher failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _check_cli(reqs: list, outcomes: list, rng) -> tuple:
    failed, problems = 0, []
    for req, res in zip(reqs, outcomes):
        problem = verify.check(req, res["code"], res["stdout"], res["stderr"], rng)
        if problem is not None:
            failed += 1
            if len(problems) < 5:
                problems.append(f"{' '.join(req['argv'])[:80]}: {problem}")
    return failed, problems


def cli_mix(args, run: Run, started: float) -> None:
    (OUT / "tables").mkdir(exist_ok=True)
    order = list(workloads.FAMILIES)
    random.Random(f"cli-mix:{args.seed}").shuffle(order)
    reqs, outcomes, rounds = [], [], 0
    while run.going(args, started, rounds, TRACE_ROUNDS):
        rng = random.Random(f"cli-mix:{args.seed}:{rounds}")
        batch, files = workloads.cli_round(rng, rounds, order, ".perfbench_out/tables", args.smoke)
        for path, text in files:
            (ROOT / path).write_text(text, encoding="utf-8")
        for req, res in zip(batch, _launch([{"argv": req["argv"]} for req in batch])):
            run.latencies.append(res["wall_s"])
            run.slowness.append(res["slowness"])
            run.peak_rss_kb = max(run.peak_rss_kb, res["maxrss_kb"])
            run.ops[req["op"]] = run.ops.get(req["op"], 0) + 1
            reqs.append(req)
            outcomes.append(res)
        rounds += 1
    rng = random.Random(f"cli-mix:{args.seed}:check")
    run.add_checked(len(reqs), *_check_cli(reqs, outcomes, rng))
    run.meta.update(rounds=rounds, families=len({r["family"] for r in reqs if "family" in r}))
    if args.trace:
        trace_out, spans_out = OUT / "cli-trace.jsonl", OUT / "spans-cli-mix.csv"
        trace_out.write_text("")
        spans_out.write_text("request,span,parent,name,start_us,end_us\n")
        calls = [{"argv": req["argv"], "env": {"PERFBENCH_REQUEST_ID": str(i + 1)}}
                 for i, req in enumerate(reqs)]
        traced = _launch(calls, traced=True, PERFBENCH_TRACE_OUT=str(trace_out),
                         PERFBENCH_SPANS_OUT=str(spans_out))
        summaries = [json.loads(line) for line in trace_out.read_text().splitlines()]
        if len(summaries) != len(traced):
            raise RuntimeError("a traced CLI call wrote no span summary")
        for res, summary in zip(traced, summaries):
            run.traced_latencies.append(res["wall_s"])
            run.traced_slowness.append(res["slowness"])
            run.add_trace(summary)
            run.startup["calls"] += 1
            run.startup["busy_s"] += res["wall_s"] - summary["main_s"]
        run.add_checked(len(reqs), *_check_cli(reqs, traced, rng))


def limit_probe() -> int:
    """How many of the three 4300-digit inputs end without a JSON answer."""
    failed = 0
    for argv in workloads.LIMIT_PROBE:
        _, proc = _spawn([PY, "-m", "symchar", *argv])
        problem, _ = verify.answered(proc.returncode, proc.stdout, proc.stderr)
        failed += problem is not None
    return failed


def goldens(run: Run) -> None:
    """The CayP^2 goldens, through the same in-process request path."""
    import inproc
    from symchar import charclass

    code, text = inproc.run({"op": "p-numbers", "space": "CayH"})
    total = charclass.total_pontrjagin(charclass.cayley_plane()).coefficients
    problem = verify.check_cayley_goldens(json.loads(text), list(total))
    run.add_checked(1, problem is not None, [problem] if problem else [])


SWEEP = [
    ("charclass.pontrjagin_numbers.HP8_ms", "pontrjagin_numbers", ("hp", 8), 9),
    ("charclass.pontrjagin_numbers.HP16_ms", "pontrjagin_numbers", ("hp", 16), 5),
    ("charclass.pontrjagin_numbers.HP24_ms", "pontrjagin_numbers", ("hp", 24), 3),
    ("charclass.stiefel_whitney_numbers.CP10_ms", "stiefel_whitney_numbers", ("cp", 10), 5),
]


def size_sweep(run: Run) -> dict:
    """Median time of fixed table sizes at the reference speed, so kernel
    work can be compared across runs."""
    from symchar import charclass

    spaces = {"hp": charclass.quaternionic_projective, "cp": charclass.complex_projective}
    rng = random.Random("sweep")
    metrics = {}
    for name, func, model, reps in SWEEP:
        space = spaces[model[0]](model[1])
        times = []
        for _ in range(reps):
            wall, slowness, table = bracketed(lambda: getattr(charclass, func)(space),
                                              refclock.burst)
            times.append(wall / slowness)
        doc = json.loads(json.dumps(table.to_json_dict()))
        check = verify.check_p_table if func == "pontrjagin_numbers" else verify.check_sw_table
        problem = check(doc, model, rng, 6)
        run.add_checked(1, problem is not None, [f"{name}: {problem}"] if problem else [])
        metrics[name] = statistics.median(times) * 1e3
    return metrics


# --- metrics ---------------------------------------------------------------------------


def _timings(lat: list, setup: list) -> dict:
    p90 = statistics.quantiles(lat, n=10)[8]
    return {
        "req_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setup),
        "beyond_p90": sum(x > p90 for x in lat),
    }


def end_to_end(run: Run) -> dict:
    """Timings at the reference speed; the raw wall-clock ones go to meta."""
    walls, slowness = zip(*run.setup_samples)
    timings = _timings(at_reference(run.latencies, run.slowness), at_reference(walls, slowness))
    raw = _timings(run.latencies, walls)
    run.meta.update(latency_samples=len(run.latencies), beyond_p90=timings.pop("beyond_p90"),
                    wall_clock={k: v for k, v in raw.items() if k != "beyond_p90"},
                    median_slowness=statistics.median(run.slowness))
    units = {"req_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "setup_s": "s"}
    metrics = {name: (value, units[name]) for name, value in timings.items()}
    metrics["peak_rss_mb"] = (run.peak_rss_kb / 1024, "MB")
    return metrics


def per_layer(run: Run, startup: dict, sweep: dict, probe_failed: int) -> dict:
    metrics = {}
    # span times are rescaled by the traced phase's mean slowness
    scale = 1e3 / statistics.mean(run.traced_slowness)
    for layer, stats in run.layers.items():
        metrics[f"{layer}.calls"] = (stats["calls"], "count")
        metrics[f"{layer}.busy_ms"] = (stats["busy_s"] * scale, "ms")
    metrics["startup.calls"] = (run.startup["calls"], "count")
    metrics["startup.busy_ms"] = (run.startup["busy_s"] * scale, "ms")
    c = run.counters
    metrics["ring.mul_calls"] = (c["ring.mul_calls"], "count")
    entries = c["charclass.entries"]
    metrics["ring.mul_per_entry"] = (c["ring.mul_calls"] / entries if entries else 0.0, "ratio")
    metrics["charclass.entries"] = (entries, "count")
    metrics["partitions.enumerated"] = (c["partitions.enumerated"], "count")
    metrics["cli.encode.bytes"] = (c["cli.encode.bytes"], "B")
    for name, value in startup.items():
        metrics[name] = (value, "us" if name.endswith("_us") else "ms")
    # the traced replay answers exactly the requests of the untraced phase
    traced = sum(at_reference(run.traced_latencies, run.traced_slowness))
    overhead = traced / sum(at_reference(run.latencies, run.slowness)) - 1
    metrics["trace.overhead_frac"] = (overhead, "frac")
    for name, value in sweep.items():
        metrics[name] = (value, "ms")
    metrics["failed_frac"] = (run.failed / run.attempted, "frac")
    metrics["limit_probe.failed"] = (probe_failed, "count")
    return metrics


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import symchar

    backend = getattr(symchar, "kernel_backend", None)
    return {
        "python": sys.version.split()[0],
        "kernel_backend": backend() if backend else "n/a",
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "git_commit": _git_commit(),
    }


def measure(args) -> tuple:
    """One run of one workload: (result dict, metadata dict)."""
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    setup_once()  # compiles the bytecode caches before anything is timed
    run = Run()
    {"tables-large": tables_large, "cli-mix": cli_mix,
     "classify-transfer": classify_transfer}[args.workload](args, run, started)
    goldens(run)
    probe_failed = limit_probe()
    if args.trace:
        startup = measure_startup(3 if args.smoke else 5)
        metrics = per_layer(run, startup, size_sweep(run), probe_failed)
    else:
        while len(run.setup_samples) < (3 if args.smoke else 9):
            run.setup_samples.append(setup_once())
        metrics = end_to_end(run)
    meta = dict(environment(), workload=args.workload, seed=args.seed, trace=args.trace,
                ops=run.ops, size_histogram=run.sizes, limit_probe_failed=probe_failed,
                problems=run.problems, untraced_targets=sorted(run.missing),
                setup_samples=len(run.setup_samples),
                wall_s=time.perf_counter() - started, **run.meta)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, meta


def smoke() -> int:
    """Every workload, tiny sizes, both modes; every metric name must appear."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1.0, trace=trace,
                                      smoke=True)
            result, meta = measure(args)
            wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            missing = [name for name in wanted if name not in result["metrics"]]
            ok &= result["correct"] and not missing
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"missing={missing} problems={meta['problems']}")
            for name, m in result["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads")
    args = parser.parse_args()
    if not (ROOT / "src" / "symchar" / "__init__.py").is_file() or not (
        ROOT / "tests" / "_oracles.py"
    ).is_file():
        print("perfbench: run from a symchar checkout (src/symchar and tests/_oracles.py "
              "are missing)", file=sys.stderr)
        return 2
    global refclock, tracing, verify, workloads
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    import refclock
    import tracing
    import verify
    import workloads

    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, meta = measure(args)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
