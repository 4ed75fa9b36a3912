"""Benchmark for hskolem: one workload per process.

    python3 perfbench/run.py --workload count --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
./src.  It sets the library up several times (fresh import plus warm-up),
then repeats the workload's pass until --seconds have gone by, checking
every output.  Times are scaled to reference speed by a fixed kernel
timed between the calls (speed.py).  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes, runs the workload's
layer probes and reports the per-layer metrics, and writes the spans to
.bench_build/perfbench/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import speed
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 11
MIN_PASSES = 2
MIN_CALLS = 100  # so that call_p90_ms has at least ten samples beyond it
SEGMENTS = 32  # speed samples per pass, at most one per call


def metric_units(section: str) -> dict:
    """Names and units of the metrics BENCHMARK.json lists in `section`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def fresh_import():
    """Import hskolem from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "hskolem" or m.startswith("hskolem.")]:
        del sys.modules[name]
    return importlib.import_module("hskolem")


def warm_up(h, workload: str) -> None:
    """One small call on each path the workload uses."""
    if workload == "cli":
        wl.run_cli(ROOT, ["construct", "nk2", "--n", "9"])
        return
    if workload == "construct":
        ps = h.construct.construct_nk2_21(1001)
        h.core.parse_pairs(h.core.format_pairs(ps))
        h.core.pair_system_from_json(h.core.pair_system_to_json(ps, 2, 1))
        h.verify.verify_sequence(h.core.pairs_to_sequence(ps, h.core.SequenceKind.HOOKED, d=2))
        return
    mode = "count" if workload == "count" else "first"
    h.search.search_nk2(6, 2, 1, mode)
    h.search.search_skolem(5, mode)
    h.search.search_hooked_sequence(2, 6, mode)
    h.search.search_graph(h.core.nk2_graph(3), 1, 1, mode)
    h.search.survey_nk2(range(1, 7), 2, 1, search_up_to=6)


def set_up(workload: str):
    """Set the library up SETUPS times; the median set-up time, raw and at
    reference speed."""
    raw, scaled = [], []
    for _ in range(3):
        before = speed.sample()  # the kernel's own warm-up
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        h = fresh_import()
        warm_up(h, workload)
        raw.append(time.perf_counter() - t0)
        after = speed.sample()
        scaled.append(raw[-1] * speed.factor(before, after))
        before = after
    return h, statistics.median(raw), statistics.median(scaled)


def run_pass(work: wl.Workload, tracer: tracing.Tracer | None):
    """One pass: per-call latencies, each call's factor to reference speed,
    and the failed calls with their problems.  A speed sample is taken
    before every `every`-th call and after the last; the checks run outside
    the timed calls."""
    latencies, problems, values, samples = array("d"), {}, [], []
    every = -(-len(work.calls) // SEGMENTS)
    for i, call in enumerate(work.calls):
        if i % every == 0:
            samples.append(speed.sample())
        t0 = time.perf_counter()
        try:
            out = call.run() if tracer is None else tracer.root(call.span, i, call.run)
            error = None
        except Exception as exc:  # a raising call is a failed call, not a crash
            error = f"raised {exc!r}"
        latencies.append(time.perf_counter() - t0)
        value = None
        if error is None:
            error, value = call.check(out)
            del out
        values.append(value)
        if error:
            problems[i] = f"{call.label}: {error}"
    samples.append(speed.sample())
    factors = [speed.factor(samples[i // every], samples[i // every + 1])
               for i in range(len(latencies))]
    for i, problem in work.pass_check(values):
        problems.setdefault(i, problem)
    return latencies, factors, list(problems.values())


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


# ---------------------------------------------------------------------------
# layer probes, run once per traced run of the workload they belong to
# ---------------------------------------------------------------------------

def _median_time(fn, repeats: int) -> float:
    """Median time of `fn` at reference speed."""
    times = []
    before = speed.sample()
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        seconds = time.perf_counter() - t0
        after = speed.sample()
        times.append(seconds * speed.factor(before, after))
        before = after
    return statistics.median(times)


def probes(h, workload: str) -> dict:
    s = h.search
    if workload == "count":
        # Count mode keeps every solution; this is its allocation high-water mark.
        tracemalloc.start()
        s.search_nk2(10, 2, 1, "count")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"search.count_tracemalloc_peak_kb": peak / 1024}
    if workload == "decide":
        # nK2 (8,1,3): the tree dies at the root (one node), so this is per-call cost.
        batch = 200
        per_batch = _median_time(lambda: [s.search_nk2(8, 1, 3, "exists") for _ in range(batch)], 51)
        return {"search.call_overhead_us": per_batch / batch * 1e6}
    if workload == "cli":
        run = lambda code: subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                          env=wl.cli_env(ROOT), check=True)
        interp = _median_time(lambda: run("pass"), 11)
        imported = _median_time(lambda: run("import hskolem.cli"), 11)
        one = _median_time(lambda: s.search_nk2(5, 2, 1, "count", jobs=1), 15)
        two = _median_time(lambda: s.search_nk2(5, 2, 1, "count", jobs=2), 15)
        big1 = _median_time(lambda: s.search_nk2(10, 2, 1, "count", jobs=1), 3)
        big2 = _median_time(lambda: s.search_nk2(10, 2, 1, "count", jobs=2), 3)
        return {"cli.interp_ms": interp * 1e3, "cli.import_ms": (imported - interp) * 1e3,
                "search.pool.startup_ms": (two - one) * 1e3, "search.pool.speedup_jobs2": big1 / big2}
    return {}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the traced passes
# ---------------------------------------------------------------------------

def pass_layers(spans, factors) -> dict:
    """Per-layer figures of one traced pass (sums over the pass)."""
    by_name = tracing.summarize(spans, factors)
    get = lambda name, key: by_name.get(name, {}).get(key, 0)
    out = {}
    for engine in ("nk2", "seq", "graph"):
        name = f"search.{engine}"
        busy, nodes = get(name, "self_s"), get(name, "nodes")
        out.update({
            f"{name}.calls": get(name, "calls"), f"{name}.busy_s": busy, f"{name}.nodes": nodes,
            f"{name}.nodes_per_s": nodes / busy if busy else 0.0,
            f"{name}.solutions_per_knode": get(name, "solutions") / nodes * 1e3 if nodes else 0.0,
        })
    conditions = [row for name, row in by_name.items() if name.startswith("conditions.")]
    verifies = [row for name, row in by_name.items() if name.startswith("verify.")]
    out.update({
        "search.survey.busy_s": get("search.survey", "self_s"),
        "conditions.calls": sum(r["calls"] for r in conditions),
        "conditions.busy_s": sum(r["self_s"] for r in conditions),
        "construct.generate_s": get("construct.generate", "self_s"),
        "core.convert_s": get("core.convert", "self_s"),
        "verify.certify_s": get("verify.certify", "self_s"),
        "core.io_s": get("core.io", "self_s"),
        "core.io_bytes": get("core.io", "bytes"),
        "verify.sequence_s": get("verify.sequence", "self_s"),
        "verify.invalid": sum(r.get("invalid", 0) for r in verifies),
        "cli.exit_nonzero": sum(1 for s in spans if s[0].startswith("cli.") and (s[5] or {}).get("exit")),
    })
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(r["self_s"] for name, r in by_name.items()
                                     if name.split(".")[0] == layer)
    return out


def pass_time(columns) -> float:
    """Time of one pass: the sum over its calls of each call's median
    latency over the passes of the run."""
    return sum(statistics.median(column) for column in columns)


def layer_metrics(traced_passes, untraced_s, traced_s, probe_values) -> dict:
    rows = [pass_layers(spans, factors) for spans, factors in traced_passes]
    metrics = {name: statistics.median_low(r[name] for r in rows) for name in rows[0]}
    for sub in ("construct", "verify", "convert", "search", "search_jobs2", "survey"):
        durations = [(s[2] - s[1]) * factors[s[4]] for spans, factors in traced_passes
                     for s in spans if s[0] == f"cli.{sub}"]
        metrics[f"cli.{sub}_ms"] = statistics.median(durations) * 1e3 if durations else 0.0
    metrics.update({"search.call_overhead_us": 0.0, "search.count_tracemalloc_peak_kb": 0.0,
                    "search.pool.startup_ms": 0.0, "search.pool.speedup_jobs2": 0.0,
                    "cli.interp_ms": 0.0, "cli.import_ms": 0.0})
    metrics.update(probe_values)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return metrics


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "hskolem" / "__init__.py").is_file():
        print(f"error: no hskolem sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work_dir = ROOT / wl.WORK_DIR
    work_dir.mkdir(parents=True, exist_ok=True)

    # cli: the client, its subprocesses and the speed kernel share one CPU.
    # Unpinned, a subprocess often ran on another CPU than the kernel that
    # scales it; the CPUs of the shared host change speed independently,
    # and cli's wall_s then ranged over 27% in five runs, against 6% pinned.
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    if args.workload == "cli" and cpus:
        os.sched_setaffinity(0, {min(cpus)})

    h, raw_setup_s, setup_s = set_up(args.workload)
    if not Path(h.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported hskolem from {h.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = wl.WORKLOADS[args.workload](h, random.Random(f"{args.workload}:{args.seed}"), ROOT)
    tracer = tracing.Tracer(h) if args.trace else None

    # Latencies go to arrays of doubles: float objects kept across passes
    # would pin allocator arenas and make peak RSS grow with the pass count.
    latencies, problems = array("d"), []
    columns = {traced: [array("d") for _ in work.calls] for traced in (False, True)}
    raw_columns = [array("d") for _ in work.calls]
    traced_passes = []
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes < MIN_PASSES or len(latencies) < MIN_CALLS or time.perf_counter() < deadline:
        traced = bool(args.trace) and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            raw, factors, found = run_pass(work, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_passes.append((tracer.take(), factors))
        lat = array("d", (seconds * f for seconds, f in zip(raw, factors)))
        for column, seconds in zip(columns[traced], lat):
            column.append(seconds)
        if not traced:
            for column, seconds in zip(raw_columns, raw):
                column.append(seconds)
        latencies += lat
        problems += found
        passes += 1
        if passes == MIN_PASSES:
            # After a fixed amount of work: allocator fragmentation makes the
            # high-water mark creep up with every further pass.
            rss_mb = peak_rss_mb(children=args.workload == "cli")

    attempted, failed = len(latencies), len(problems)
    for problem in problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {passes} passes, "
          f"{len(work.calls)} calls per pass, {attempted} calls, failed_ratio {failed / attempted:.4f}")

    if args.trace:
        if cpus:
            os.sched_setaffinity(0, cpus)  # the pool probes need every CPU
        metrics = layer_metrics(traced_passes, pass_time(columns[False]), pass_time(columns[True]),
                                probes(h, args.workload))
        trace_file = work_dir / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["name", "start", "end", "parent", "call_id", "facts"],
            "passes": [spans for spans, _ in traced_passes],
            "speed_factors": [factors for _, factors in traced_passes],
            "self_time": [tracing.summarize(spans, factors) for spans, factors in traced_passes],
        }))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        cuts = statistics.quantiles(latencies, n=10)
        metrics = {
            "wall_s": pass_time(columns[False]),
            "call_p50_ms": statistics.median(latencies) * 1e3,
            "call_p90_ms": cuts[8] * 1e3,
            "peak_rss_mb": rss_mb,
            "setup_s": setup_s,
        }
        print(f"call latency samples: {attempted}")
        print(f"as measured, before scaling to reference speed: wall_s {pass_time(raw_columns):.6g} s, "
              f"setup_s {raw_setup_s:.6g} s")
        if work.pairs_per_pass:
            print(f"pairs_per_s {work.pairs_per_pass / metrics['wall_s']:.1f} 1/s "
                  f"({work.pairs_per_pass} pairs per pass, n in {wl.BAND[0]}..{wl.BAND[1]})")

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}" if isinstance(value, float) else f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
