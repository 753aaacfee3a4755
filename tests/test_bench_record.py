import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _pairs(parent, change):
    return [{"parent": {"m": a}, "change": {"m": b}} for a, b in zip(parent, change)]


@pytest.mark.parametrize("parent, change, better, verdict", [
    ([1.0] * 10, [0.8] * 10, "lower", "better"),
    ([1.0] * 10, [0.8] * 10, "higher", "worse"),
    ([1.0] * 10, [1.0] * 10, "lower", "unchanged"),
    # the change wins every pair, by less than the parent's own spread
    ([1.0, 1.2] * 5, [0.98, 1.18] * 5, "lower", "unresolved"),
    # the pairs straddle
    ([1.0] * 10, [0.8] * 8 + [1.2] * 2, "lower", "unresolved"),
])
def test_verdicts(parent, change, better, verdict):
    assert bench_record.compare("m", better, 0.05, _pairs(parent, change))["verdict"] == verdict


def test_bound_and_win_counts():
    out = bench_record.compare("m", "lower", 0.25, _pairs([1.0] * 4, [1.2, 1.2, 1.3, 0.9]))
    assert out["wins"] == {"change": 1, "parent": 3, "ties": 0}
    assert out["within_bound"] and out["relative_change"] == pytest.approx(0.2)
    out = bench_record.compare("m", "higher", 0.01, _pairs([1.0] * 4, [0.98] * 4))
    assert not out["within_bound"]


@pytest.mark.slow
def test_records_a_short_census_comparison(tmp_path):
    # HEAD against itself through the real harness, on a short run
    try:
        bench_record.git("rev-parse", "HEAD:perfbench")
    except (OSError, bench_record.subprocess.CalledProcessError):
        pytest.skip("needs a git checkout whose HEAD holds perfbench/")
    out = tmp_path / "BENCH_test.json"
    assert bench_record.main(["--parent", "HEAD", "--change", "HEAD", "--workload", "census-4",
                              "--first-seed", "0", "--pairs", "2", "--seconds", "0.5",
                              "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["parent"] == record["change"] and record["seeds"] == [0, 1]
    assert [p["first"] for p in record["pairs"]] == ["parent", "change"]
    assert {"wall_s", "setup_s", "peak_rss_mb", "pass_ratio"} <= set(record["metrics"])
    assert record["metrics"]["pass_ratio"]["verdict"] == "unchanged"
    assert all(p[side]["failed"] == 0 for p in record["pairs"] for side in ("parent", "change"))
