"""tests/ab.py, the in-process A/B of two checkouts, on this tree against
itself: one pair of every workload loads both copies, runs and gates."""

import hashlib
import statistics
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


def test_median_interval_is_seeded_and_holds_the_median():
    ratios = [1.0 + 0.01 * ((7 * i) % 11 - 5) for i in range(40)]
    lo, hi = ab.median_interval(ratios)
    assert lo <= statistics.median(ratios) <= hi
    assert lo < hi
    assert ab.median_interval(ratios) == (lo, hi)
    assert ab.median_interval([1.02] * 5) == (1.02, 1.02)


def test_provenance_names_path_commit_and_source_digest(tmp_path):
    (tmp_path / "src" / "qhm").mkdir(parents=True)
    (tmp_path / "src" / "qhm" / "a.py").write_text("x = 1\n")
    digest = hashlib.sha256(b"a.py\0x = 1\n").hexdigest()
    assert ab.provenance(str(tmp_path)) == (
        f"{tmp_path.resolve()}  git not a checkout  src/qhm sha256 {digest}")
    line = ab.provenance(str(ROOT))
    assert line.startswith(f"{ROOT}  git ") and "not a checkout" not in line
