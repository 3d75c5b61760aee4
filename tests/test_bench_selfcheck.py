"""The benchmark's own self-check, run against this checkout.

``benchmarks/selfcheck.py`` runs every workload at toy size, untraced and
traced, and injects one fault per correctness check.  Running it here makes
a refactor that drops a name the benchmark imports or traces, or that lets
an injected fault through, fail the test suite.

The toy sizes cannot see the checks that only bite at full size (criterion
8's accuracy gap, Eckart-Young at real fc sizes, repeat bit-identity), so
the two workloads that factorize are also run once, untraced, at their
default sizes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# One untraced run of a workload for about a second of measurement, in a
# process of its own (bench sets the BLAS thread count before numpy loads).
_FULL_SIZE_RUN = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import bench
bench._import_library()
record = bench.run(sys.argv[2], 0, 1.0, False, results_dir=Path(sys.argv[3]))
print(json.dumps({key: record[key] for key in ("attempted", "failed", "failures")}))
"""


@pytest.mark.slow
def test_benchmark_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selfcheck ok" in result.stdout


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["toy-pipeline", "factorize"])
def test_full_size_run_has_no_failed_operations(workload, tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", _FULL_SIZE_RUN, str(ROOT / "benchmarks"), workload,
         str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    outcome = json.loads(result.stdout.splitlines()[-1])
    assert outcome["attempted"] > 0
    assert outcome["failed"] == 0, outcome["failures"]
