"""Benchmark of the greenstone CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a greenstone checkout; the program is run from its
sources under ``src/``.  Workloads are described in ``workloads.py``.

With ``--trace 0`` the run launches ``greenstone --version`` several times
(``setup_s`` is the median) and then runs passes over the workload's jobs,
each job a cold process, until ``--seconds`` have gone.  ``wall_s`` is the
median pass wall time, ``peak_rss_mb`` the median over passes of the
largest job RSS, and ``pass_ratio`` the share of jobs whose output checks
passed (``fail_ratio`` is printed as well; a metric that is 0 on correct
code cannot carry a relative bound).  Both times are scaled by the host
contention measured on the job's CPU (see ``jobs.py``); the raw times are
printed next to them.

With ``--trace 1`` it first runs one pass with every job under
``trace_job.py``, then untraced passes for the rest of ``--seconds``, and
reports the per-layer metrics of ``spans.per_layer_metrics``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 15


@dataclass
class PassResult:
    wall_s: float = 0.0       # raw
    scaled_s: float = 0.0     # scaled by the measured contention
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    job_walls: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def run_pass(box, plan, trace_dir: Path | None = None) -> PassResult:
    res = PassResult()
    for i, job in enumerate(plan.jobs):
        if trace_dir is None:
            argv = ["-m", "greenstone.cli", *job.args]
        else:
            argv = [str(HERE / "trace_job.py"), str(trace_dir / f"job{i}"), f"job{i}",
                    "--", *job.args]
        r = box.run(argv)
        res.wall_s += r.wall_s
        res.scaled_s += r.scaled_s
        res.job_walls.append(r.wall_s)
        res.cpu_s += r.cpu_s
        res.peak_rss_mb = max(res.peak_rss_mb, r.peak_rss_mb)
        res.attempted += 1
        problems = job.check(r)
        res.failed += bool(problems)
        res.failures += [f"{job.label}: {msg}" for msg in problems]
        box.discard(r)
    return res


def timed_passes(box, plan, deadline: float) -> list[PassResult]:
    """Untraced passes until the next one would end after ``deadline``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(box, plan))
        now = time.perf_counter()
        if now + (now - start) / len(passes) > deadline:
            return passes


def setup_times(box, version: str) -> tuple[list[float], list[float], list[str]]:
    raw, scaled, failures = [], [], []
    for _ in range(SETUP_LAUNCHES):
        r = box.run(["-m", "greenstone.cli", "--version"])
        raw.append(r.wall_s)
        scaled.append(r.scaled_s)
        if r.exit_code != 0 or r.stdout.strip() != version:
            failures.append(f"--version: exit {r.exit_code}, stdout {r.stdout.strip()!r}")
        box.discard(r)
    return raw, scaled, failures


def describe(name: str, values: list[float], unit: str) -> str:
    return (f"{name} median {statistics.median(values):.4f} {unit} over {len(values)} "
            f"(min {min(values):.4f}, max {max(values):.4f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "greenstone" / "cli.py").is_file():
        print(f"perfbench: no greenstone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from jobs import Sandbox
    from workloads import WORKLOADS, load_refs
    import greenstone

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    box = Sandbox(ROOT)
    try:
        plan = WORKLOADS[args.workload](args.seed, box.path("inputs"), load_refs())
        print(f"workload {args.workload}  seed {args.seed}  {len(plan.jobs)} job(s) per pass")
        for line in plan.info:
            print(f"  {line}")
        setup_raw, setup, failures = setup_times(box, greenstone.__version__)
        attempted, failed = len(setup), len(failures)
        print(describe("setup_s", setup, "s") + " launches")
        print(describe("  raw", setup_raw, "s"))

        start = time.perf_counter()
        traced = None
        if args.trace:
            trace_dir = box.path("spans")
            traced = run_pass(box, plan, trace_dir)
            print(f"traced pass: wall {traced.scaled_s:.4f} s (raw {traced.wall_s:.4f} s)")
        passes = timed_passes(box, plan, start + args.seconds)
        for p in passes + ([traced] if traced else []):
            attempted += p.attempted
            failed += p.failed
            failures += p.failures
        walls = [p.scaled_s for p in passes]
        print(describe("wall_s", walls, "s") + " passes")
        print(describe("  raw", [p.wall_s for p in passes], "s"))
        for i, p in enumerate(passes):
            print(f"  pass {i}: scaled {p.scaled_s:.3f} s, raw job walls "
                  + " ".join(f"{w:.3f}" for w in p.job_walls))
        for msg in failures:
            print(f"FAILED {msg}")
        print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of "
              f"{attempted} jobs failed their output check)")

        if args.trace:
            metrics = layer_metrics(trace_dir, len(plan.jobs), traced, passes)
        else:
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
                "pass_ratio": (1 - failed / attempted, "ratio"),
            }
    finally:
        box.close()
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def layer_metrics(trace_dir: Path, jobs: int, traced: PassResult,
                  passes: list[PassResult]) -> dict:
    from spans import LayerTotals, read_spans

    totals = LayerTotals()
    for i in range(jobs):
        stem = trace_dir / f"job{i}"
        if Path(f"{stem}.json").is_file():
            totals.add_job(*read_spans(stem))
        else:
            print(f"traced job{i} wrote no spans; its layers are missing from the totals")
    keep = ROOT / ".perfbench" / "last-trace"
    shutil.rmtree(keep, ignore_errors=True)
    shutil.copytree(trace_dir, keep)
    print(f"spans of the traced pass kept in {keep.relative_to(ROOT)}")
    overhead = traced.scaled_s - statistics.median(p.scaled_s for p in passes)
    metrics, absent = totals.metrics(
        cpu_s=statistics.median(p.cpu_s for p in passes), overhead_s=overhead)
    for reason in absent:
        print(f"absent (reported as 0): {reason}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
