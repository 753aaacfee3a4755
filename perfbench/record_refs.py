"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py [--commit SHA]

Run from the root of a checkout of the commit whose outputs are the
reference.  Writes ``perfbench/refs.json``: the claims digest of
``verify --suite all`` for each suite seed, and the analyze-mid input pool
(drawn by ``workloads.sample_pool``) with the sha256 of each input's
``analyze`` stdout.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from jobs import Sandbox  # noqa: E402
from workloads import REFS_PATH, SUITE_SEEDS, claims_digest, sample_pool, sha256  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--commit", default="unknown")
    args = parser.parse_args()
    from greenstone.core import generate_from_transformations
    from greenstone.formats import dump

    box = Sandbox(ROOT)
    try:
        suite = {}
        for seed in range(SUITE_SEEDS):
            r = box.run(["-m", "greenstone.cli", "verify", "--suite", "all",
                         "--seed", str(seed), "--report", "report.json"])
            report = json.loads((r.cwd / "report.json").read_text())
            if r.exit_code != 0 or not report["all_passed"]:
                raise SystemExit(f"suite seed {seed} failed")
            suite[str(seed)] = claims_digest(report)
            print(f"suite seed {seed}: {r.wall_s:.2f} s", flush=True)
            box.discard(r)
        pool = sample_pool()
        inputs = box.path("inputs")
        for i, entry in enumerate(pool):
            path = inputs / f"pool{i}.json"
            dump(generate_from_transformations(entry["degree"], entry["generators"]), path)
            r = box.run(["-m", "greenstone.cli", "analyze", str(path)])
            if r.exit_code != 0:
                raise SystemExit(f"analyze failed on pool entry {i}")
            entry["stdout_sha256"] = sha256(r.stdout.encode())
            print(f"pool {i}: band {entry['band']} order {entry['order']} "
                  f"{r.wall_s:.2f} s", flush=True)
            box.discard(r)
    finally:
        box.close()
    refs = {"commit": args.commit, "suite": suite, "analyze_pool": pool}
    REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
