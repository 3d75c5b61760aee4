"""Benchmark harness for cpcompress.

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the checkout's ``src/`` as a closed loop (one caller,
each call issued when the previous one returned) with one BLAS thread,
checks the outputs, prints a human-readable report and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics every workload
reports (``setup_s``, ``peak_rss_mb``, ``unit_s``, ``throughput_per_s``);
the workload's own figures are printed as ``detail`` lines.  With
``--trace 1`` they are the per-layer metrics: the tracing overhead of one
unit of the workload (spans around every call into the library's public
functions, kept in memory) and the layer profiles of all three workloads.
The full record -- environment, samples, failures and, when traced, every
span and the per-span self times -- is written to
``benchmarks/results/<workload>-seed<N>-trace<T>.json``.

Workloads (see workloads.py): toy-pipeline, alexnet-forward, factorize.
``python3 benchmarks/selfcheck.py`` runs all of them at toy size.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def _import_library():
    """Import cpcompress from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "cpcompress" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library source at {src}/cpcompress")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import cpcompress

    if Path(cpcompress.__file__).resolve().parent != (src / "cpcompress").resolve():
        raise SystemExit(f"bench: imported cpcompress from {cpcompress.__file__}")


def _make(cls, seed: int, sizes: dict, results_dir: Path):
    kwargs = dict(sizes.get(cls.name, {}))
    if cls.name == "factorize":
        results_dir.mkdir(parents=True, exist_ok=True)
        kwargs["workdir"] = results_dir
    return cls(seed, **kwargs)


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None,
        results_dir: Path = RESULTS) -> dict:
    """Run one workload; returns the full record (the JSON line is a subset).

    ``sizes`` maps a workload name to the keyword arguments its class is
    made with (the defaults when absent).  A traced run measures the
    workload's tracing overhead and then the layer profiles of every
    workload, each set up from the same seed.
    """
    import harness
    from workloads import WORKLOADS

    sizes = sizes or {}
    workload = _make(WORKLOADS[workload_name], seed, sizes, results_dir)
    tracer = harness.Tracer() if trace else None
    details = table = None
    try:
        workload.setup()
        if trace:
            metrics = workload.trace_overhead(tracer)
            for cls in WORKLOADS.values():
                suite = workload if cls is type(workload) else _make(cls, seed, sizes, results_dir)
                try:
                    if suite is not workload:
                        suite.setup(reps=1)
                    metrics.update(suite.layer_profile())
                    table = table or getattr(suite, "table", None)
                finally:
                    if suite is not workload:
                        workload.outcomes.merge(suite.outcomes)
                        suite.close()
        else:
            metrics = workload.measure(seconds)
            # Set up again at the end, so the median spans the whole run.
            workload.setup()
            metrics["setup_s"] = harness.metric(harness.median(workload.setup_times), "s")
            metrics["peak_rss_mb"] = harness.metric(harness.peak_rss_mb(), "MiB")
            details = workload.details
    finally:
        workload.close()
    out = workload.outcomes
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": harness.environment(ROOT, BLAS_THREADS),
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "metrics": metrics,
        "details": details,
        "samples": getattr(workload, "samples", None),
        "table": table,
    }
    if trace:
        record["span_summary"] = tracer.summary()
        record["spans"] = tracer.spans
    return record


def report(record: dict) -> str:
    """Human-readable lines printed before the JSON result."""
    lines = [f"# {record['workload']} seed={record['seed']} trace={record['trace']}"]
    for key, value in record["environment"].items():
        lines.append(f"env\t{key}\t{value}")
    if record["samples"]:
        lines.append(f"samples\t{json.dumps(record['samples'])}")
    for name, m in sorted(record["metrics"].items()):
        lines.append(f"metric\t{name}\t{m['value']!r}\t{m['unit']}")
    for name, m in sorted((record["details"] or {}).items()):
        lines.append(f"detail\t{name}\t{m['value']!r}\t{m['unit']}")
    if record.get("table"):
        lines.append("slot\tanalytic_C\tmeasured_ratio\tdense_ms\tdecomposed_ms"
                     "\tdense_mults\tdecomposed_mults")
        for row in record["table"]:
            lines.append(
                f"{row['slot']}\t{row['analytic_C']:.3f}\t{row['measured_ratio']:.3f}"
                f"\t{row['dense_ms']:.3f}\t{row['decomposed_ms']:.3f}"
                f"\t{row['dense_mults']:.0f}\t{row['decomposed_mults']:.0f}"
            )
    if record.get("span_summary"):
        lines.append("span\tcount\ttotal_s\tself_s")
        rows = sorted(record["span_summary"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            lines.append(f"{name}\t{row['count']}\t{row['total_s']:.4f}\t{row['self_s']:.4f}")
    for failure in record["failures"]:
        lines.append(f"FAILED\t{failure}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["toy-pipeline", "alexnet-forward", "factorize"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_library()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(report(record))
    print(f"results\t{path.relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
