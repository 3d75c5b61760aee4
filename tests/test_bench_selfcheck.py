"""The benchmark's own self-check, run against this checkout.

``benchmarks/selfcheck.py`` runs every workload at toy size, untraced and
traced, and injects one fault per correctness check.  Running it here makes
a refactor that drops a name the benchmark imports or traces, or that lets
an injected fault through, fail the test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selfcheck ok" in result.stdout
