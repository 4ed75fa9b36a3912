"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload count --seeds 1-10 [--trace 1] [--out sweep.json]

For every metric it prints the median and quartiles of the per-seed values
(statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median, next to
the metric's bound in BENCHMARK.json.  Runs one seed at a time, from the
root of the checkout, with BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "system": platform.platform()}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="write every run's result here as JSON")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    results = {}
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        results[seed] = json.loads(proc.stdout.strip().splitlines()[-1])
        status = "ok" if results[seed]["correct"] else "FAILED"
        print(f"seed {seed}: {status}, {results[seed]['attempted']} calls", flush=True)

    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    summary = {}
    for name in results[args.seeds[0]]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results.values()]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        print(f"{name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound else '':>6}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "trace": args.trace, "run_seconds": spec["run_seconds"],
            "machine": machine(), "summary": summary, "runs": results}, indent=1))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
