"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/tests

The traced-run test takes about a minute: it runs one job of each
workload untraced once and traced twice.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from jobs import Sandbox  # noqa: E402
from spans import LayerTotals, Recorder, per_layer_metrics, read_spans  # noqa: E402
from workloads import WORKLOADS, claims_digest, load_refs  # noqa: E402


def test_self_time_is_span_minus_children(tmp_path):
    rec = Recorder()
    fns = {}

    def leaf():
        return sum(range(20000))

    def node(depth):
        fns["leaf"]()
        return fns["node"](depth - 1) if depth else 0

    fns["leaf"] = rec.wrap("green.le", leaf)
    fns["node"] = rec.wrap("cli.main", node)
    fns["node"](2)
    rec.write(tmp_path / "job0", "job0", {"cache": None})
    header, arrays = read_spans(tmp_path / "job0")
    assert header["job"] == "job0" and header["count"] == 6
    name, parent, start, end = arrays
    totals = LayerTotals()
    totals.add_job(header, arrays)
    assert totals.calls == {"cli.main": 3, "green.le": 3}
    outer = end[0] - start[0]
    assert totals.outer_s["cli.main"] == pytest.approx(outer)   # recursion counted once
    total_self = totals.self_s["cli.main"] + totals.self_s["green.le"]
    assert total_self == pytest.approx(outer)                    # self times partition the root
    assert all(parent[i] < i for i in range(header["count"]))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _counts(metrics: dict) -> dict:
    return {k: v for k, (v, _) in metrics.items()
            if k.endswith(".calls") or k in ("green.builds", "verify.instances")}


def _masked(stdout: str) -> str:
    """verify prints per-claim seconds; everything else must match."""
    return re.sub(r", \d+\.\d+s\]", "]", stdout)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs_repeat_counts_and_keep_outputs(workload):
    box = Sandbox(ROOT)
    try:
        job = WORKLOADS[workload](0, box.path("inputs"), load_refs()).jobs[0]
        plain = box.run(["-m", "greenstone.cli", *job.args])
        assert job.check(plain) == []
        assert plain.slowdown > 0 and plain.scaled_s > 0
        counts = []
        for run in range(2):
            stem = box.path(f"spans{run}") / "job0"
            traced = box.run([str(BENCH / "trace_job.py"), str(stem), "job0", "--", *job.args])
            assert job.check(traced) == []
            assert _masked(traced.stdout) == _masked(plain.stdout)
            if workload == "suite-cold":
                reports = [json.loads((r.cwd / "report.json").read_text())
                           for r in (plain, traced)]
                assert claims_digest(reports[0]) == claims_digest(reports[1])
            totals = LayerTotals()
            totals.add_job(*read_spans(stem))
            metrics, _ = totals.metrics(cpu_s=1.0, overhead_s=0.0)
            counts.append(_counts(metrics))
            box.discard(traced)
        assert counts[0] == counts[1]
        assert any(counts[0].values())
        if workload == "suite-cold":
            assert counts[0]["verify.instances"] > 0 and counts[0]["green.builds"] > 0
    finally:
        box.close()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census-4",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
