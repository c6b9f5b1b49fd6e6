"""Benchmark for rootstrings: four seeded workloads, checked against known
answers, driven through the package's public functions and its CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  One client runs a closed loop with one request in flight,
repeating the workload's cycle of requests whole until ``--seconds`` have
passed and the tail percentile has at least ten samples beyond it.

Every request is a fixed computation, but a shared host's speed drifts by
tens of percent over seconds to minutes.  So a reference runs before every
request: a fixed pure-Python loop for a request in this process, a bare
interpreter's start and exit for one in a child process.  Each timing is
scaled to a host on which the loop takes 3 ms and the bare interpreter
60 ms, by the median of the reference timings around it, so the reported
times are in those normalised units, not wall-clock ones.  The p50 and the
tail percentile are taken over the scaled runs; requests and bounds per
second follow from the median of each request's scaled runs.  Set-up time is
the median of seven fresh interpreters spread over the run, each timed from
start to ready less the time it spent generating the inputs (the harness's
work, not the program's), and scaled like a request.  The details line keeps
the unscaled figures, the generation times and the references.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the cycle
once untraced and once with the tracer installed, and reports the per-layer
metrics, with the tracing overhead as the difference of the two wall times.
The last line of stdout is the result object; the line before it holds the
run's details (tail percentile, sample count, interpreter, machine, commit).
Spans, child state and generated documents go under ``bench/out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
# Timings are scaled to a host on which reference_loop takes REF_LOOP_S and a
# bare interpreter starts and exits in REF_SPAWN_S, by the median of the
# reference timings within REF_WINDOW requests of each.
REF_LOOP_S = 0.003
REF_SPAWN_S = 0.06
REF_WINDOW = 4
# A run stops after the cycle that passes this, even if the tail is short of
# samples, so that it ends well inside the time a run is allowed.
HARD_LIMIT_S = 120.0


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
    }


def run_request(w, index, req, execute=None):
    """One request and its check; returns (seconds, error or None)."""
    try:
        seconds, code, response, err = (execute or w.execute)(req)
    except Exception as exc:  # a crash in the program is a failed request
        return 0.0, f"{req.label}: raised {type(exc).__name__}: {exc}"
    if code != 0:
        return seconds, f"{req.label}: exit {code}: {err.strip()[-300:]}"
    error = w.check(index, req, response)
    return seconds, error and f"{req.label}: {error}"


def setup_probe(ctx, args) -> tuple[float, float]:
    """A fresh interpreter that imports the package, generates the inputs and
    runs the warm-up request, timed from start to exit; returns that time
    less the generation, and the generation, which the child reports."""
    seconds, code, out, err, _ = ctx.run_child(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"])
    if code != 0:
        raise RuntimeError(f"set-up probe failed with exit {code}: {err.strip()[-300:]}")
    generation = float(out)
    return seconds - generation, generation


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile q."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def beyond(n: int, q: float) -> int:
    return n - math.ceil(q * n)


def reference_loop() -> int:
    """Fixed pure-Python work, independent of the package, that gauges the
    host's speed."""
    acc, t = 0, ()
    for i in range(15000):
        t = (i, acc, t[:1])
        acc = (acc * 31 + t[0]) % 1000003
    return acc


def time_loop() -> float:
    """The reference loop's time, with the collector off so that it does not
    depend on how many objects the program keeps alive."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
    finally:
        gc.enable()
    return (t1 - t0) / REF_LOOP_S


def time_spawn(ctx) -> float:
    """A bare interpreter's start and exit, which gauges what the host makes
    a child process cost."""
    return ctx.run_child([sys.executable, "-c", "pass"])[0] / REF_SPAWN_S


def scale(timings: list[tuple[int, float]], refs: list[float]) -> list[float]:
    """Divide each (position, seconds) by the median of the references
    around refs[position], which was timed just before it."""
    return [seconds / statistics.median(refs[max(0, k - REF_WINDOW):k + REF_WINDOW + 2])
            for k, seconds in timings]


def untraced(w, ctx, args, info) -> tuple[dict, int, list[str]]:
    _, error = run_request(w, w.cycle.index(w.warmup), w.warmup)
    if error:
        return {}, 0, [f"warm-up: {error}"]
    if not w.in_process:
        # The first run in a checkout compiles the bytecode cache during the
        # warm-up, which is not measured.
        w.peak_rss_kib = 0
    # A request in this process is gauged by the reference loop, one in a
    # child process by a bare interpreter; a set-up probe like the requests.
    reference = time_loop if w.in_process else (lambda: time_spawn(ctx))
    refs, runs, order, probes, generation, errors, cycles = [], [], [], [], [], [], 0

    def probe():
        refs.append(reference())
        seconds, generated = setup_probe(ctx, args)
        probes.append((len(refs) - 1, seconds))
        generation.append(generated)

    start = time.perf_counter()
    while True:
        for index, req in enumerate(w.cycle):
            refs.append(reference())
            seconds, error = run_request(w, index, req)
            runs.append((len(refs) - 1, seconds))
            order.append(index)
            if error:
                errors.append(error)
        cycles += 1
        elapsed = time.perf_counter() - start
        # Set-up probes run between cycles, spread over the run.
        if len(probes) < SETUP_PROBES and elapsed >= (len(probes) + 0.5) * args.seconds / SETUP_PROBES:
            probe()
            elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (
                elapsed >= args.seconds and beyond(len(runs), w.tail_q) >= 10):
            break
    while len(probes) < SETUP_PROBES:
        probe()
    refs.append(reference())
    errors += w.verify()

    samples = scale(runs, refs)
    per_request = [[] for _ in w.cycle]
    for index, seconds in zip(order, samples):
        per_request[index].append(seconds)
    typical = [statistics.median(times) for times in per_request]
    setup = scale(probes, refs)
    if hasattr(w, "peak_rss_kib"):
        rss_kib = w.peak_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(runs)
    nominal = REF_LOOP_S if w.in_process else REF_SPAWN_S
    info.update(tail_percentile=100 * w.tail_q, samples=n,
                samples_beyond_tail=beyond(n, w.tail_q), cycles=cycles, loop_wall_s=elapsed,
                reference_ms={"median": 1000 * nominal * statistics.median(refs),
                              "min": 1000 * nominal * min(refs), "max": 1000 * nominal * max(refs)},
                unscaled_p50_ms=1000 * statistics.median(s for _, s in runs),
                unscaled_setup_s=[s for _, s in probes], generation_s=generation,
                request_ms={req.label: 1000 * t for req, t in zip(w.cycle, typical)})
    busy = sum(typical)
    metrics = {
        "req_per_s": ("1/s", len(typical) / busy),
        "latency_p50_ms": ("ms", 1000 * statistics.median(samples)),
        "latency_tail_ms": ("ms", 1000 * percentile(samples, w.tail_q)),
        "cases_per_s": ("1/s", sum(req.cases for req in w.cycle) / busy),
        "setup_s": ("s", statistics.median(setup)),
        "peak_rss_mib": ("MiB", rss_kib / 1024),
        "success_rate": ("ratio", (n - len(errors)) / n),
    }
    return metrics, n, errors


def traced(w, ctx, args, info) -> tuple[dict, int, list[str]]:
    from tracing import Tracer

    _, error = run_request(w, w.cycle.index(w.warmup), w.warmup)
    if error:
        return {}, 0, [f"warm-up: {error}"]
    errors = []
    start = time.perf_counter()
    for index, req in enumerate(w.cycle):
        _, error = run_request(w, index, req)
        if error:
            errors.append(error)
    untraced_wall = time.perf_counter() - start

    tracer = Tracer()
    # The cold CLI runs in children, which trace themselves into state_path;
    # the parent adds what each child wrote.
    cold = not w.in_process
    state_path = w.dir / "child-trace.json"

    def execute(req, index):
        tracer.begin_request(index, req.label)
        try:
            return w.execute_traced(req, index, state_path) if cold else w.execute(req)
        finally:
            tracer.end_request()

    if not cold:
        tracer.install()
    try:
        start = time.perf_counter()
        for index, req in enumerate(w.cycle):
            _, error = run_request(w, index, req, lambda r, i=index: execute(r, i))
            if cold and state_path.exists():
                tracer.merge(json.loads(state_path.read_text()))
                state_path.unlink()
            if error:
                errors.append(error)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    errors += w.verify()

    metrics = tracer.layer_metrics()
    metrics["cli.interp_start_ms"], metrics["cli.import_ms"] = (
        interpreter_costs(ctx) if cold else (0.0, 0.0))
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.requests"] = len(w.cycle)
    spans_path = OUT / f"spans-{w.name}.jsonl"
    tracer.dump(spans_path)
    info.update(spans_file=str(spans_path.relative_to(ROOT)), spans=len(tracer.spans))
    return ({key: (unit_of(key), value) for key, value in metrics.items()},
            2 * len(w.cycle), errors)


def unit_of(name: str) -> str:
    if name.endswith("bytes_rendered"):
        return "bytes"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def interpreter_costs(ctx, samples: int = 9) -> tuple[float, float]:
    """Median start-up of a bare interpreter, and the extra cost of importing
    rootstrings.cli, in ms; the two kinds of child alternate."""
    bare, loaded = [], []
    for _ in range(samples):
        bare.append(ctx.run_child([sys.executable, "-c", "pass"])[0])
        loaded.append(ctx.run_child([sys.executable, "-c", "import rootstrings.cli"])[0])
    bare_ms = 1000 * statistics.median(bare)
    return bare_ms, 1000 * statistics.median(loaded) - bare_ms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("error: refusing to run under python -O: it strips the assert "
              "ceilings in selfcheck, so it would measure another program",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "rootstrings" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'rootstrings'}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    pycache = OUT / "pycache"
    sys.pycache_prefix = str(pycache)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(ROOT / "src"))
    ctx = Context(ROOT, pycache)

    workdir = OUT / (args.workload + ("-probe" if args.setup_only else ""))
    t0 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    w = WORKLOADS[args.workload](args.seed, workdir, ctx)
    generation = time.perf_counter() - t0
    if args.setup_only:
        _, error = run_request(w, w.cycle.index(w.warmup), w.warmup)
        if error:
            print(f"error: warm-up: {error}", file=sys.stderr)
            return 1
        print(repr(generation))
        return 0

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, **environment()}
    run = traced if args.trace else untraced
    metrics, attempted, errors = run(w, ctx, args, info)
    if not metrics:
        print(f"error: {errors[0]}", file=sys.stderr)
        return 1
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    info["errors"] = errors[:20]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": min(len(errors), attempted),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (unit, value) in metrics.items()},
    }
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
