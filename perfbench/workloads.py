"""The three workloads: their inputs, jobs and output checks.

suite-cold   one ``verify --suite all`` at the default config.  The many-small-
             objects use of the engine: Green cache, corpora, symbolic.
analyze-mid  ``analyze FILE`` on three transformation semigroups of degree 4-5
             and order 100-135.  The one-big-object use of the same layers.
census-4     ``enum --order 4``.  Only enumeration and formats run: the bypass
             workload for Green, props and validation changes.

Outputs are compared with references recorded at the seed commit
(``refs.json``, written by ``record_refs.py``).  References exist for a
finite set of inputs, so the benchmark seed selects among them: the suite
seed is ``seed % SUITE_SEEDS`` and analyze-mid draws one recorded
generator set per order band.  The pool itself was drawn by rejection
sampling (``sample_pool``).  Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from jobs import JobResult

REFS_PATH = Path(__file__).resolve().parent / "refs.json"
SUITE_SEEDS = 16
# Narrow order bands keep the cost of an analyze-mid pass nearly the same for
# every seed; its time grows as order**3.
BANDS = ((100, 103), (116, 119), (132, 135))
POOL_PER_BAND = 8
CENSUS_ORDER = 4
CENSUS_CLASSES = 188   # semigroups of order 4 up to isomorphism (OEIS A027851)


@dataclass
class Job:
    label: str
    args: list[str]                              # greenstone CLI arguments
    check: Callable[[JobResult], list[str]]      # failure messages, empty if ok


@dataclass
class Plan:
    info: list[str]      # printed before the run: the inputs it uses
    jobs: list[Job]      # one pass


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def claims_digest(report: dict) -> str:
    """Digest of the claim outcomes of a verify report."""
    keep = ("id", "status", "instances", "vacuous", "witnesses")
    claims = [{k: c[k] for k in keep} for c in report["claims"]]
    return sha256(json.dumps(claims, sort_keys=True, separators=(",", ":")).encode())


def _exit_ok(r: JobResult) -> list[str]:
    if r.exit_code != 0:
        return [f"exit code {r.exit_code}: {r.stderr.strip()[-300:]}"]
    return []


def suite_cold(seed: int, inputs: Path, refs: dict) -> Plan:
    suite_seed = seed % SUITE_SEEDS
    expected = refs["suite"][str(suite_seed)]

    def check(r: JobResult) -> list[str]:
        fails = _exit_ok(r)
        try:
            report = json.loads((r.cwd / "report.json").read_text())
        except (OSError, ValueError) as exc:
            return fails + [f"no readable report: {exc}"]
        if report.get("all_passed") is not True:
            fails.append("report says not all_passed")
        if claims_digest(report) != expected:
            fails.append("claims digest differs from the seed-commit reference")
        return fails

    args = ["verify", "--suite", "all", "--seed", str(suite_seed), "--report", "report.json"]
    return Plan([f"suite seed {suite_seed} (= seed % {SUITE_SEEDS}), claims digest "
                 f"{expected[:12]}"], [Job("verify", args, check)])


def _count_line(stdout: str) -> dict[str, int]:
    lines = stdout.splitlines()
    head = lines[1].split(";")[0] if len(lines) > 1 else ""
    return {k: int(v) for k, v in (p.split(":") for p in head.split())}


def analyze_mid(seed: int, inputs: Path, refs: dict) -> Plan:
    from greenstone.core import generate_from_transformations
    from greenstone.formats import dump, load
    from greenstone.green import RELATIONS, green_structure

    rng = random.Random(f"analyze-mid:{seed}")
    info, jobs = [], []
    for band in range(len(BANDS)):
        entry = rng.choice([e for e in refs["analyze_pool"] if e["band"] == band])
        path = inputs / f"band{band}.json"
        dump(generate_from_transformations(entry["degree"], entry["generators"]), path)
        loaded = load(path)
        if loaded.order != entry["order"]:
            raise RuntimeError(f"{path}: order {loaded.order}, recorded {entry['order']}")
        gs = green_structure(loaded, use_generators=True)
        oracle = {k: gs.num_classes(k) for k in RELATIONS}
        info.append(f"input {path.name}: order {entry['order']} degree {entry['degree']} "
                    f"generators {json.dumps(entry['generators'])} "
                    f"sha256 {sha256(path.read_bytes())}")

        def check(r: JobResult, entry=entry, oracle=oracle) -> list[str]:
            fails = _exit_ok(r)
            if sha256(r.stdout.encode()) != entry["stdout_sha256"]:
                fails.append("stdout differs from the seed-commit reference")
            try:
                counts = _count_line(r.stdout)
            except ValueError:
                counts = {}
            if counts != oracle:
                fails.append(f"class counts {counts} != generator-edge oracle {oracle}")
            return fails

        jobs.append(Job(f"analyze order {entry['order']}", ["analyze", str(path)], check))
    return Plan(info, jobs)


def canonical_form(order: int, table) -> tuple:
    """Least relabelled table over all permutations (independent of the
    program's own canonical form)."""
    best = None
    for perm in itertools.permutations(range(order)):
        inv = [0] * order
        for old, new in enumerate(perm):
            inv[new] = old
        t = tuple(tuple(perm[table[a][b]] for b in inv) for a in inv)
        if best is None or t < best:
            best = t
    return best


def census_4(seed: int, inputs: Path, refs: dict) -> Plan:
    from greenstone.errors import GreenstoneError
    from greenstone.formats import load

    def check(r: JobResult) -> list[str]:
        fails = _exit_ok(r)
        files = sorted((r.cwd / "out").glob("*.json"))
        if len(files) != CENSUS_CLASSES:
            fails.append(f"{len(files)} files, expected {CENSUS_CLASSES}")
        forms = set()
        for f in files:
            try:
                s = load(f)
            except (GreenstoneError, OSError, ValueError) as exc:
                fails.append(f"{f.name} does not load: {exc}")
                continue
            if s.order != CENSUS_ORDER:
                fails.append(f"{f.name} has order {s.order}")
                continue
            forms.add(canonical_form(s.order, s.table))
        if len(forms) != len(files):
            fails.append(f"{len(files) - len(forms)} files repeat an isomorphism class")
        return fails

    args = ["enum", "--order", str(CENSUS_ORDER), "--out", "out"]
    return Plan([f"seed {seed} unused: the order-{CENSUS_ORDER} census is exhaustive"],
                [Job("enum", args, check)])


WORKLOADS = {"suite-cold": suite_cold, "analyze-mid": analyze_mid, "census-4": census_4}


def sample_pool(per_band: int = POOL_PER_BAND, seed: str = "analyze-mid-pool") -> list[dict]:
    """Rejection-sample generator sets until every order band holds
    ``per_band`` of them."""
    from greenstone.core import generate_from_transformations
    from greenstone.errors import SizeLimitExceeded

    rng = random.Random(seed)
    pool, seen = [], set()
    while len(pool) < per_band * len(BANDS):
        degree = rng.choice((4, 5))
        gens = [[rng.randrange(degree) for _ in range(degree)]
                for _ in range(rng.choice((2, 3)))]
        try:
            order = generate_from_transformations(degree, gens, cap=BANDS[-1][1]).order
        except SizeLimitExceeded:
            continue
        for band, (lo, hi) in enumerate(BANDS):
            key = json.dumps(gens)
            if (lo <= order <= hi and key not in seen
                    and sum(e["band"] == band for e in pool) < per_band):
                seen.add(key)
                pool.append({"band": band, "order": order, "degree": degree,
                             "generators": gens})
    return pool
