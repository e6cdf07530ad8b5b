"""The benchmark harness runs each workload to a passing gate.

One operation per workload (`--seconds 0`) in a fresh interpreter, as
`bench/run.py` is run: a change that breaks what a workload or its gate
reads (a report key, a function the workload calls) fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["solve-r27", "ym-ladder",
                                      "identity-checks"])
def test_workload_passes_its_gate(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        stdin=subprocess.DEVNULL)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
