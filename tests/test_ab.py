"""tests/ab.py, the in-process A/B of two checkouts, on this tree against
itself: one pair of every workload loads both copies, runs and gates."""

from pathlib import Path

import ab

ROOT = Path(__file__).resolve().parents[1]


def test_ab_runs_one_gated_pair_per_workload():
    results = ab.compare(str(ROOT), str(ROOT), pairs=1)
    assert set(results) == {"solve-r27", "ym-ladder", "identity-checks"}
    for r in results.values():
        assert len(r["a"]) == len(r["b"]) == 1
        assert r["failed_a"] == r["failed_b"] == 0
    rows = ab.report(results).splitlines()[1:]
    assert [row.split()[0] for row in rows] == list(results)
