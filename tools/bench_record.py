"""Record a paired benchmark comparison of two commits as a BENCH_*.json file.

    python3 tools/bench_record.py --parent REV --change REV --workload census-4 \\
        --first-seed 200 --pairs 10 --seconds 10 --out BENCH_cold_start.json

Each revision is exported with ``git archive`` into a fresh directory and
byte-compiled there by a separate process before its first measured run: a
job's ``peak_rss_mb`` includes the RSS that the harness holds when it
spawns the job, and a harness that compiles a fresh export itself holds
several MB more on its first run.  A parent export without
``perfbench/`` (a revision older than the harness) gets the change
revision's, and the record says so.  Then ``perfbench/run.py --trace 0`` runs as a subprocess
in each export, in pairs that alternate which side runs first (the parent
first in even pairs).  Both sides of pair ``i`` use the seed
``first-seed + i``, and each side runs its own export's harness.

Each pair keeps both sides' end-to-end values, which the harness scales by
the host contention it measures, and also ``raw_wall_s`` and
``raw_setup_s``: the unscaled medians that the harness prints on its
``raw median`` lines.  For every end-to-end metric named in
``BENCHMARK.json`` the record holds each side's median and quartiles, and
how many pairs each side won.  The verdict is "better" or "worse" when one side
wins at least nine tenths of the pairs and the medians differ by more than
the parent's interquartile range, "unchanged" when every pair ties, and
"unresolved" when the pairs straddle.  ``within_bound`` says whether the
change's median is no worse than the parent's by more than the metric's
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
WIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path, *paths: str) -> None:
    """Extract ``paths`` of ``rev`` (all of it, if none) into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, *paths],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export(rev: str, dest: Path, harness_rev: Optional[str] = None) -> bool:
    """Extract ``rev`` into ``dest``, add the ``perfbench/`` of
    ``harness_rev`` if it has none, and byte-compile it in its own process.
    Returns whether the harness was added."""
    dest.mkdir(parents=True)
    extract(rev, dest)
    copied = harness_rev is not None and not (dest / "perfbench").exists()
    if copied:
        extract(harness_rev, dest, "perfbench")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=dest, check=True, stdout=subprocess.DEVNULL)
    return copied


def raw_medians(stdout: str) -> dict:
    """The unscaled medians of the harness's ``raw median`` lines, each
    named after the metric line just above it: ``raw_setup_s`` and
    ``raw_wall_s``."""
    out, metric = {}, None
    for line in stdout.splitlines():
        words = line.split()
        if words[:2] in (["setup_s", "median"], ["wall_s", "median"]):
            metric = words[0]
        elif words[:2] == ["raw", "median"] and metric is not None:
            out[f"raw_{metric}"] = float(words[2])
            metric = None
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced harness run; its summary is the last line of stdout."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, check=True, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    return {"attempted": summary["attempted"], "failed": summary["failed"],
            **{name: m["value"] for name, m in summary["metrics"].items()},
            **raw_medians(done.stdout)}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(name: str, better: str, bound: float, pairs: list[dict]) -> dict:
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    sign = 1 if better == "lower" else -1     # a positive gap favours the change
    gaps = [sign * (a - b) for a, b in zip(parent, change)]
    wins = {"change": sum(g > 0 for g in gaps), "parent": sum(g < 0 for g in gaps),
            "ties": sum(g == 0 for g in gaps)}
    p, c = quartiles(parent), quartiles(change)
    gap = sign * (p["median"] - c["median"])
    if wins["ties"] == len(pairs):
        verdict = "unchanged"
    elif wins["change"] >= WIN_SHARE * len(pairs) and gap > p["iqr"]:
        verdict = "better"
    elif wins["parent"] >= WIN_SHARE * len(pairs) and -gap > p["iqr"]:
        verdict = "worse"
    else:
        verdict = "unresolved"
    relative = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    return {"better": better, "bound": bound, "parent": p, "change": c,
            "relative_change": relative, "wins": wins, "verdict": verdict,
            "within_bound": -gap <= bound * abs(p["median"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--change", required=True, help="the changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {side: {"rev": rev, "commit": git("rev-parse", f"{rev}^{{commit}}"),
                    "src_tree": git("rev-parse", f"{rev}:src")}
             for side, rev in (("parent", args.parent), ("change", args.change))}
    work = Path(tempfile.mkdtemp(prefix="bench-record-"))
    try:
        trees = {side: work / side for side in sides}
        for side, tree in trees.items():
            harness_rev = args.change if side == "parent" else None
            sides[side]["perfbench_copied"] = export(sides[side]["rev"], tree, harness_rev)
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
            pairs.append(pair)
            print(f"pair {i}: seed {seed}, " + ", ".join(
                f"{side} {name} {pair[side][name]:.4g}" for side in ("parent", "change")
                for name in ("setup_s", "wall_s", "peak_rss_mb")), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "command": (f"perfbench/run.py --workload {args.workload} --seed SEED "
                    f"--seconds {args.seconds:g} --trace 0"),
        "python": platform.python_version(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        **sides,
        "seeds": [p["seed"] for p in pairs],
        "pairs": pairs,
        "metrics": {m["name"]: compare(m["name"], m["better"], m["bound"], pairs)
                    for m in metrics},
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for name, m in record["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.6g}, change {m['change']['median']:.6g} "
              f"({m['relative_change']:+.1%}), change won {m['wins']['change']} of "
              f"{len(pairs)}, {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
