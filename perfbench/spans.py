"""Spans for the traced run: which public names are timed, how a traced
job records its spans, and how spans reduce to per-layer metrics.

A span is (name, start, end, parent, job).  A traced job keeps its spans
in flat in-memory arrays and writes them once, when the job ends, to
``<stem>.bin`` (the arrays) and ``<stem>.json`` (names, job id, counters).
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import re
import time
from array import array
from pathlib import Path

# The public functions timed in each layer, by the module that defines them.
PREDICATES = ("minimal_condition", "left_stable", "right_stable", "stable",
              "stable_char", "left_stable_forms", "l_periodic", "r_periodic",
              "group_bound", "k_preserving", "regular_subsemigroup", "retract")
CORE_DERIVED = ("quotient", "rees_quotient", "subsemigroup", "zero_direct_union",
                "congruence_closure", "adjoin")
BIACT_DERIVED = ("relative_biact", "relative_rees", "biact_rees_quotient",
                 "product_biact", "pullback_biact", "ideal_biact", "subact_closure")
LAYERS = {
    "cli": ("main",),
    "formats": ("load", "dump"),
    "core": ("validate_table",) + CORE_DERIVED,
    "biact": ("validate_biact", "regular_biact") + BIACT_DERIVED,
    "green": ("green_structure", "le", "green_index"),
    "props": PREDICATES,
    "enumeration": ("all_semigroups", "canonical_table", "all_biacts",
                    "random_biact_corpus"),
    "symbolic": ("oracle_le", "catalog", "build_usta", "build_usa"),
}
# Env methods whose first call builds a shared corpus of the claim suite.
CORPUS_METHODS = ("semigroups", "biacts_exhaustive", "biacts_random")
# The claim ids registered at the seed commit, in report order.
CLAIM_IDS = (
    "C3.12", "C3.13", "C3.8", "C3.9", "C4.11", "C4.14", "C4.19", "C4.3", "C4.7",
    "C5.12", "C5.6", "Con4.17/P4.18", "Con5.10/P5.11", "Ex4.8", "L3.10", "L3.3",
    "L3.7", "L4.10", "L4.2", "L5.5", "L5.8", "P3.11", "P3.4", "P3.5", "P3.6",
    "P4.1", "P4.15", "P4.4", "P4.5", "P5.1", "P5.2", "P5.3", "P5.9", "R3.14(2)",
    "R3.14(3)", "S5.0", "T4.13", "T4.16", "T4.6", "T5.4", "T5.7",
)


# Names whose inclusive time is reported; a span nested in one of the same
# name is not counted again.
OUTER_NAMES = frozenset(
    ["cli.main", "formats.load", "enumeration.all_semigroups", "enumeration.all_biacts",
     "enumeration.random_biact_corpus", "symbolic.catalog", "symbolic.build_usta",
     "symbolic.build_usa"] + [f"verify.claim.{cid}" for cid in CLAIM_IDS])


def claim_metric(cid: str) -> str:
    """Metric name of a claim id: characters outside [A-Za-z0-9_.-] become '-'."""
    return "verify.claim." + re.sub(r"[^A-Za-z0-9_.]+", "-", cid).strip("-") + ".s"


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [("cli.main.s", "s"), ("cli.self_s", "s"), ("cli.cpu_s", "s"),
           ("formats.load.calls", "count"), ("formats.load.s", "s"),
           ("formats.dump.calls", "count"), ("formats.dump.self_s", "s"),
           ("core.validate_table.calls", "count"), ("core.validate_table.self_s", "s"),
           ("core.derived.calls", "count"), ("core.derived.self_s", "s"),
           ("biact.validate_biact.calls", "count"), ("biact.validate_biact.self_s", "s"),
           ("biact.regular_biact.calls", "count"),
           ("biact.derived.calls", "count"), ("biact.derived.self_s", "s"),
           ("green.green_structure.calls", "count"), ("green.green_structure.self_s", "s"),
           ("green.builds", "count"), ("green.cache_hit_ratio", "ratio"),
           ("green.le.calls", "count"), ("green.le.self_s", "s"),
           ("green.green_index.calls", "count")]
    for p in PREDICATES:
        out += [(f"props.{p}.calls", "count"), (f"props.{p}.self_s", "s")]
    out += [("props.self_s", "s"),
            ("enumeration.all_semigroups.s", "s"),
            ("enumeration.canonical_table.calls", "count"),
            ("enumeration.canonical_table.self_s", "s"),
            ("enumeration.all_biacts.s", "s"),
            ("enumeration.random_biact_corpus.s", "s"),
            ("symbolic.oracle_le.calls", "count"), ("symbolic.oracle_le.self_s", "s"),
            ("symbolic.catalog.calls", "count"), ("symbolic.catalog.s", "s"),
            ("symbolic.build_usta.s", "s"), ("symbolic.build_usa.s", "s"),
            ("verify.corpus_s", "s"), ("verify.instances", "count")]
    out += [(claim_metric(cid), "s") for cid in CLAIM_IDS]
    out.append(("trace.overhead_s", "s"))
    return out


class Recorder:
    """In-memory span store of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends, stack = (self.name, self.parent, self.start,
                                               self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def write(self, stem: Path, job: str, extra: dict) -> None:
        with open(f"{stem}.bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {"job": job, "names": self.names, "count": len(self.start), **extra}
        Path(f"{stem}.json").write_text(json.dumps(header))


def read_spans(stem: Path) -> tuple[dict, tuple[array, array, array, array]]:
    header = json.loads(Path(f"{stem}.json").read_text())
    arrays = (array("I"), array("i"), array("d"), array("d"))
    with open(f"{stem}.bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, header["count"])
    return header, arrays


class LayerTotals:
    """Per-name span totals summed over the jobs of one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.outer_s: dict[str, float] = {}   # inclusive, outermost spans only
        self.first_s: dict[str, float] = {}   # the first span of each name per job
        self.cache: list = []                 # green cache_info per job, or None
        self.instances: dict[str, int] = {}

    def add_job(self, header: dict, arrays) -> None:
        name, parent, start, end = arrays
        n = header["count"]
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        names = header["names"]
        outer = {nid for nid, key in enumerate(names) if key in OUTER_NAMES}
        seen = set()
        for i in range(n):
            key = names[name[i]]
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + dur[i] - child[i]
            if name[i] not in seen:
                seen.add(name[i])
                self.first_s[key] = self.first_s.get(key, 0.0) + dur[i]
            if name[i] in outer:
                p = parent[i]
                while p >= 0 and name[p] != name[i]:
                    p = parent[p]
                if p < 0:
                    self.outer_s[key] = self.outer_s.get(key, 0.0) + dur[i]
        self.cache.append(header.get("cache"))
        for cid, k in header.get("instances", {}).items():
            self.instances[cid] = self.instances.get(cid, 0) + k

    def metrics(self, cpu_s: float, overhead_s: float) -> tuple[dict, list[str]]:
        """Every per-layer metric as name -> (value, unit), and the reasons
        for metrics reported as absent (value 0)."""
        def calls(k):
            return self.calls.get(k, 0)

        def self_s(k):
            return self.self_s.get(k, 0.0)

        def outer(k):
            return self.outer_s.get(k, 0.0)

        v = {"cli.main.s": outer("cli.main"), "cli.self_s": self_s("cli.main"),
             "cli.cpu_s": cpu_s,
             "formats.load.calls": calls("formats.load"),
             "formats.load.s": outer("formats.load"),
             "formats.dump.calls": calls("formats.dump"),
             "formats.dump.self_s": self_s("formats.dump"),
             "core.validate_table.calls": calls("core.validate_table"),
             "core.validate_table.self_s": self_s("core.validate_table"),
             "core.derived.calls": sum(calls(f"core.{d}") for d in CORE_DERIVED),
             "core.derived.self_s": sum(self_s(f"core.{d}") for d in CORE_DERIVED),
             "biact.validate_biact.calls": calls("biact.validate_biact"),
             "biact.validate_biact.self_s": self_s("biact.validate_biact"),
             "biact.regular_biact.calls": calls("biact.regular_biact"),
             "biact.derived.calls": sum(calls(f"biact.{d}") for d in BIACT_DERIVED),
             "biact.derived.self_s": sum(self_s(f"biact.{d}") for d in BIACT_DERIVED),
             "green.green_structure.calls": calls("green.green_structure"),
             "green.green_structure.self_s": self_s("green.green_structure"),
             "green.le.calls": calls("green.le"),
             "green.le.self_s": self_s("green.le"),
             "green.green_index.calls": calls("green.green_index")}
        absent = []
        if self.cache and all(c is not None for c in self.cache):
            hits = sum(c["hits"] for c in self.cache)
            v["green.builds"] = sum(c["misses"] for c in self.cache)
            gs_calls = calls("green.green_structure")
            v["green.cache_hit_ratio"] = hits / gs_calls if gs_calls else 0.0
        else:
            v["green.builds"] = v["green.cache_hit_ratio"] = 0
            absent.append("green.builds, green.cache_hit_ratio: the program exposes "
                          "no cache_info() on its Green cache")
        for p in PREDICATES:
            v[f"props.{p}.calls"] = calls(f"props.{p}")
            v[f"props.{p}.self_s"] = self_s(f"props.{p}")
        v["props.self_s"] = sum(self_s(f"props.{p}") for p in PREDICATES)
        for key in ("all_semigroups", "all_biacts", "random_biact_corpus"):
            v[f"enumeration.{key}.s"] = outer(f"enumeration.{key}")
        v["enumeration.canonical_table.calls"] = calls("enumeration.canonical_table")
        v["enumeration.canonical_table.self_s"] = self_s("enumeration.canonical_table")
        v["symbolic.oracle_le.calls"] = calls("symbolic.oracle_le")
        v["symbolic.oracle_le.self_s"] = self_s("symbolic.oracle_le")
        v["symbolic.catalog.calls"] = calls("symbolic.catalog")
        for key in ("catalog", "build_usta", "build_usa"):
            v[f"symbolic.{key}.s"] = outer(f"symbolic.{key}")
        v["verify.corpus_s"] = sum(self.first_s.get(f"verify.Env.{m}", 0.0)
                                   for m in CORPUS_METHODS)
        v["verify.instances"] = sum(self.instances.values())
        for cid in CLAIM_IDS:
            v[claim_metric(cid)] = outer(f"verify.claim.{cid}")
        unknown = sorted(set(self.instances) - set(CLAIM_IDS))
        if unknown:
            absent.append(f"claims registered but not in the metric list: {unknown}")
        v["trace.overhead_s"] = overhead_s
        return {name: (v[name], unit) for name, unit in per_layer_metrics()}, absent
