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


# the stdout of ``perfbench/run.py --workload census-4 --seed 1 --seconds 1
# --trace 0``, as the harness printed it
_HARNESS_STDOUT = """\
workload census-4  seed 1  1 job(s) per pass
  seed 1 unused: the order-4 census is exhaustive
setup_s median 0.0647 s over 15 (min 0.0601, max 0.0714) launches
  raw median 0.1106 s over 15 (min 0.0806, max 0.1188)
wall_s median 0.0964 s over 4 (min 0.0922, max 0.1007) passes
  raw median 0.1755 s over 4 (min 0.1299, max 0.1771)
  pass 0: scaled 0.101 s, raw job walls 0.177
  pass 1: scaled 0.097 s, raw job walls 0.176
  pass 2: scaled 0.092 s, raw job walls 0.175
  pass 3: scaled 0.095 s, raw job walls 0.130
fail_ratio 0 ratio (0 of 19 jobs failed their output check)
wall_s 0.0964196 s
setup_s 0.0647323 s
peak_rss_mb 25.6758 MB
pass_ratio 1 ratio
{"correct": true, "attempted": 19, "failed": 0, "metrics": {}}
"""


def test_raw_medians_are_read_off_the_harness_stdout():
    assert bench_record.raw_medians(_HARNESS_STDOUT) == {"raw_setup_s": 0.1106,
                                                         "raw_wall_s": 0.1755}


def test_an_export_without_a_harness_gets_a_copy(tmp_path, monkeypatch):
    tops = {"old": ["src"], "new": ["src", "perfbench"]}    # each revision's top level
    extracted = []

    def run(cmd, input=None, **kwargs):     # git archive, tar and compileall, stubbed
        if cmd[0] == "git":
            return bench_record.subprocess.CompletedProcess(cmd, 0, stdout=cmd[5:])
        if cmd[0] == "tar":
            dest = Path(cmd[-1])
            extracted.append((dest.name, input))
            for name in input[1:] or tops[dest.name]:
                (dest / name).mkdir()
        return bench_record.subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    assert bench_record.export("OLD", tmp_path / "old", "CHANGE")
    assert (tmp_path / "old" / "perfbench").is_dir()
    assert not bench_record.export("NEW", tmp_path / "new", "CHANGE")
    # the harness comes from the change revision, and only where it lacks
    assert extracted == [("old", ["OLD"]), ("old", ["CHANGE", "perfbench"]),
                         ("new", ["NEW"])]


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
    # the unscaled medians, read off the harness's raw lines
    for p in record["pairs"]:
        for side in ("parent", "change"):
            assert p[side]["raw_wall_s"] > 0 and p[side]["raw_setup_s"] > 0
    assert not record["parent"]["perfbench_copied"]
