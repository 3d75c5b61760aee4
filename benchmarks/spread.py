"""Run the benchmark over several seeds and summarise the run-to-run spread.

    python3 benchmarks/spread.py [--workloads a,b] [--seeds 10] [--out FILE]

Each run is a fresh ``bench.py`` process, started from the checkout root.  For
every workload this makes one untraced run per seed (seeds 0..N-1) and one
traced run (seed 0), then reports, per end-to-end metric, the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median next to a third of the metric's bound in BENCHMARK.json.
With ``--out`` the JSON result lines and the summary are written to FILE,
keeping the entries of workloads not run this time; ``baseline_seed.json``
in this directory was made this way.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import HERE, ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    line["wall_s"] = wall
    return line


def summarise(runs: list, bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med,
            "bound": bounds[name],
        }
    return out


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    result = {"run_seconds": seconds, "environment": None, "workloads": {}}
    if args.out and Path(args.out).exists():
        # Re-measuring some workloads keeps the others' earlier entries.
        result["workloads"] = json.loads(Path(args.out).read_text())["workloads"]
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.seeds):
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload}\tseed {seed}\tfailed {runs[-1]['failed']}"
                  f"\twall {runs[-1]['wall_s']:.1f}s", flush=True)
        traced = run_once(workload, 0, seconds, 1)
        summary = summarise(runs, bounds)
        record = HERE / "results" / f"{workload}-seed0-trace0.json"
        result["environment"] = json.loads(record.read_text())["environment"]
        for name, row in summary.items():
            ok = name == "setup_s" or row["spread"] < row["bound"] / 3
            steady &= ok
            print(f"{workload}\t{name}\tmedian {row['median']:.6g} {row['unit']}"
                  f"\tspread {row['spread']:.4f}\tbound/3 {row['bound'] / 3:.4f}"
                  f"\t{'ok' if ok else 'WIDE'}", flush=True)
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        steady &= failed == 0
        result["workloads"][workload] = {
            "summary": summary, "runs": runs, "traced": traced, "failed": failed,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
