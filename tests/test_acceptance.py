"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured time and asserting the stated budget.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
"""

import hashlib
import itertools
import json
import random
import time

from greenstone import green, props, symbolic as sym
from greenstone import verify as ver
from greenstone.enumeration import (
    all_biacts,
    all_semigroups,
    brute_force_semigroup_count,
    random_biact_corpus,
)

_CACHE: dict = {}


def _corpus():
    """The criterion-2 corpus: the exhaustive biact census plus 1000
    seeded random biacts."""
    if "corpus" not in _CACHE:
        pool = [s for n in (1, 2) for s in all_semigroups(n)]
        exhaustive = []
        for s, t in itertools.product(pool, pool):
            for m in (1, 2, 3):
                exhaustive.extend(all_biacts(s, t, m))
        rand = random_biact_corpus(1000, 42)
        _CACHE["corpus"] = exhaustive + rand
    return _CACHE["corpus"]


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s, budget {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s"
        return False


def test_criterion_01_green_engine_soundness():
    with _Budget("criterion 1: Green engine soundness on the order<=3 census", 5):
        counts = {n: len(all_semigroups(n)) for n in (1, 2, 3)}
        assert counts == {1: 1, 2: 5, 3: 24}
        for n in (1, 2, 3):
            assert counts[n] == brute_force_semigroup_count(n)
        for n in (1, 2, 3):
            for s in all_semigroups(n):
                assert green.soundness_violations(s) == []
                for k in ("L", "R", "J"):
                    assert props.minimal_condition(s, k).value is True


def test_criterion_02_stability_forms_agree():
    with _Budget("criterion 2: eight stability forms and the D=J trace", 60):
        for b in _corpus():
            forms = props.left_stable_forms(b)
            assert len(set(forms)) == 1, f"forms disagree: {forms}"
            assert bool(props.stable_char(b)) == bool(props.stable(b))


def test_criterion_03_finite_biacts_are_stable_and_minimal():
    with _Budget("criterion 3: stability and minimal conditions on the corpus", 60):
        for b in _corpus():
            assert props.stable(b)
            for k in ("L", "R", "J"):
                assert props.minimal_condition(b, k).value is True


def test_criterion_04_two_semigroup_gluing():
    with _Budget("criterion 4: the two-semigroup gluing and its deciders", 30):
        outcome = ver.check_Con4_17(ver.Env(ver.SuiteConfig()))
        assert outcome.ok, outcome.witnesses
        assert outcome.instances > 0


def test_criterion_05_one_semigroup_gluing():
    with _Budget("criterion 5: the one-semigroup gluing and its deciders", 30):
        outcome = ver.check_Con5_10(ver.Env(ver.SuiteConfig()))
        assert outcome.ok, outcome.witnesses
        # the carrier-side reading of the deciders is the one that matches
        # brute force; the report must say so
        assert "well-typed" in outcome.notes


def test_criterion_06_bicyclic_witness_suite():
    with _Budget("criterion 6: the bicyclic witness suite", 10):
        outcome = ver.check_R3_14_2(ver.Env(ver.SuiteConfig()))
        assert outcome.ok, outcome.witnesses
        b = sym.Bicyclic()
        # the headline replays, stated directly
        s, a = (0, 1), (0, 0)
        sa = b.mul(s, a)
        assert b.le("J", sa, a) and b.le("J", a, sa)
        assert not (b.le("L", sa, a) and b.le("L", a, sa))


def test_criterion_07_integers_over_naturals():
    with _Budget("criterion 7: the integer chain example", 5):
        pair = sym.example_4_8()
        biact, quot = pair["biact"], pair["quotient"]
        chain = biact.chain("J")
        assert chain(0) == -100 and chain(100) == 0
        for k in ("L", "R", "J"):
            assert sym.verify_chain(biact, chain, k, 100).ok
        for k in range(0, 101):
            assert quot.longest_strict_descent(-k) == k + 1


def test_criterion_08_ideal_without_m_j():
    with _Budget("criterion 8: the ideal without the two-sided condition", 10):
        outcome = ver.check_C4_19(ver.Env(ver.SuiteConfig()))
        assert outcome.ok, outcome.witnesses
        inst = sym.corollary_4_19_instance()
        chain = inst.ideal_chain()
        assert sym.verify_chain(inst.ideal_order(), chain, "J", 100).ok
        assert inst.u_j_poset(random.Random(0))["parts"] == ["S", "T", "X", "0"]


def test_criterion_09_unstable_extension():
    with _Budget("criterion 9: the unstable extension with stable parts", 10):
        outcome = ver.check_C5_12(ver.Env(ver.SuiteConfig()))
        assert outcome.ok, outcome.witnesses


QUANTIFIED_CLAIMS = [
    "P4.4", "P4.5", "P5.1", "P5.2", "T4.13", "T5.7", "L4.10", "L5.5",
    "C4.11", "C5.6", "P4.15", "P5.9", "T4.16", "L4.2", "C4.3", "P4.1",
]


def test_criterion_10_quantified_transfer_claims():
    with _Budget("criterion 10: quantified finite transfer claims", 300):
        report = ver.run_suite(QUANTIFIED_CLAIMS, ver.SuiteConfig())
        assert report.all_passed
        payload = report.to_json()
        assert len(payload["claims"]) == len(QUANTIFIED_CLAIMS)
        vacuous = [c["id"] for c in payload["claims"] if c["vacuous"]]
        assert "P4.1" in vacuous and "P4.4" in vacuous  # labels present


# sha256 of ``verify --suite all --seed 42`` at the default config
DEFAULT_REPORT_SHA256 = "cd8c09e929a84429513d8e85b6116bff6429de5ef5afd5f0053085c61fd287a1"


def test_criterion_11_determinism(tmp_path):
    with _Budget("criterion 11: byte-identical reports across runs", 120):
        import subprocess
        import sys

        reports = []
        for i in (1, 2):
            out = tmp_path / f"report{i}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "greenstone.cli", "verify", "--suite", "all",
                 "--max-order", "3", "--depth", "100", "--seed", "42",
                 "--report", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        json.loads(reports[0])  # well-formed
        # the default-config report, pinned: a refactor must not move a byte
        assert hashlib.sha256(reports[0]).hexdigest() == DEFAULT_REPORT_SHA256
