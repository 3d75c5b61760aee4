"""Measurement plumbing shared by the workloads: spans, checks, statistics,
instrumentation of the library's public functions and the environment block.

Nothing here changes a machine setting.  Instrumentation works from outside
the library: it swaps a public function for a timing wrapper in every
``cpcompress`` module that refers to it, and puts the original back
afterwards.
"""

import ctypes
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter

import numpy as np

import cpcompress

# Public functions of the library's modules that the traced runs wrap in
# spans.  Each is reported under "<module>.<function>".
TRACED_FUNCTIONS = {
    "data": ["make_synthetic_dataset"],
    "presets": ["alexnet", "alexnet_decomposed", "toy_cnn"],
    "conv": ["conv_forward", "conv_forward_decomposed", "fc_forward", "max_pool"],
    "cp": ["decompose_kernel"],
    "svd": ["truncated_svd"],
    "network": [
        "count_params", "decompose_layer", "replace_layer", "forward", "save", "load",
    ],
    "train": [
        "batch_outputs", "backward", "evaluate", "finetune",
        "iterative_compress", "oneshot_compress",
    ],
    "allocator": ["measure_sensitivity", "probe_sensitivity", "allocate_ranks"],
}


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: id, name, parent id, start and end in seconds
    since the tracer was made."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._origin = perf_counter()

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter() - self._origin,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = perf_counter() - self._origin
            self._open.pop()

    def summary(self) -> dict:
        """Per span name: call count, total time and self time in seconds.

        A span's self time is its duration minus that of its direct
        children; spans nest strictly here (one thread), so the children's
        durations never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = s["end"] - s["start"]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[s["id"]]
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def _spanned(fn, name: str, tracer: Tracer):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def patched(replacements: dict):
    """Swap library functions for wrappers, by identity, in every cpcompress
    module (and the package namespace), restoring them on exit.

    ``replacements`` maps each original function to its wrapper.
    """
    modules = [cpcompress] + [
        m for name, m in sys.modules.items()
        if name.startswith("cpcompress.") and m is not None
    ]
    undo = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(value) if callable(value) else None
                if wrapper is not None:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


def span_replacements(tracer: Tracer) -> dict:
    """Wrappers recording one span per call of every TRACED_FUNCTIONS entry."""
    out = {}
    for module_name, names in TRACED_FUNCTIONS.items():
        module = sys.modules[f"cpcompress.{module_name}"]
        for fn_name in names:
            fn = getattr(module, fn_name)
            out[fn] = _spanned(fn, f"{module_name}.{fn_name}", tracer)
    return out


# ---------------------------------------------------------------------------
# checks and operation counts
# ---------------------------------------------------------------------------


class Outcomes:
    """Operations attempted and failed; every correctness check is one
    operation, and so is every timed call into the library."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, n: int = 1):
        self.attempted += n

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)

    def merge(self, other: "Outcomes"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def rel_diff(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = float(np.linalg.norm(a))
    return float(np.linalg.norm(a - b)) / (scale if scale > 0.0 else 1.0)


# ---------------------------------------------------------------------------
# statistics and timing
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def timed(fn, *args, **kwargs):
    """(result, seconds) of one call."""
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


def repeat_setup(build, reps: int):
    """Run ``build`` ``reps`` times; returns (last result, seconds of each).

    Earlier results are dropped before the next build starts, so peak
    memory holds one copy.
    """
    times = []
    result = None
    for _ in range(reps):
        result = None
        result, seconds = timed(build)
        times.append(seconds)
    return result, times


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_commit(root: Path):
    """HEAD commit read from the .git directory, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, blas_threads_requested: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_library(),
        "blas_threads_requested": blas_threads_requested,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise ValueError(f"metric value {value} is not finite")
    return {"value": float(value), "unit": unit}
