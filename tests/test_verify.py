import json

import pytest

from greenstone import verify as ver
from greenstone.errors import UnknownClaim

# every numbered statement must stay in the registry; removing one is a
# build failure, not a silent narrowing of the suite
REQUIRED_CLAIMS = [
    "L3.3", "P3.4", "P3.5", "P3.6", "L3.7", "C3.8", "C3.9", "L3.10",
    "P3.11", "C3.12", "C3.13", "R3.14(2)", "R3.14(3)",
    "P4.1", "L4.2", "C4.3", "P4.4", "P4.5", "T4.6", "C4.7", "Ex4.8",
    "L4.10", "C4.11", "T4.13", "C4.14", "P4.15", "T4.16",
    "Con4.17/P4.18", "C4.19",
    "S5.0", "P5.1", "P5.2", "P5.3", "T5.4", "L5.5", "C5.6", "T5.7",
    "L5.8", "P5.9", "Con5.10/P5.11", "C5.12",
]

SMALL = ver.SuiteConfig(random_biacts=25, samples=40, depth=30, chain_seed=20)


class TestRegistry:
    def test_registry_is_complete(self):
        missing = [cid for cid in REQUIRED_CLAIMS if cid not in ver.REGISTRY]
        assert missing == []
        assert len(ver.REGISTRY) == len(REQUIRED_CLAIMS)

    def test_every_claim_has_scope_and_expectation(self):
        scopes = {"finite-exhaustive", "finite-sampled",
                  "symbolic-witness", "derived-decider"}
        for claim in ver.REGISTRY.values():
            assert claim.scope in scopes
            assert claim.expected in ("must-hold", "counterexample-expected")

    def test_unknown_claim(self):
        with pytest.raises(UnknownClaim):
            ver.run_suite(["nope"], SMALL)


class TestRunSuite:
    def test_selected_subset(self):
        report = ver.run_suite(["P3.5", "C3.8"], SMALL)
        assert [r.claim.id for r in report.results] == ["C3.8", "P3.5"]
        assert report.all_passed

    def test_counterexample_claims_report_witness_status(self):
        report = ver.run_suite(["C4.19"], SMALL)
        assert report.results[0].status == "witness-verified"

    def test_vacuous_passes_are_labeled(self):
        report = ver.run_suite(["P4.1"], SMALL)
        payload = report.to_json()
        assert payload["claims"][0]["vacuous"] is True
        assert "smoke" in payload["claims"][0]["notes"]

    def test_reports_are_byte_identical(self):
        a = ver.run_suite(["P3.5", "Ex4.8", "R3.14(2)"], SMALL).to_json_text()
        b = ver.run_suite(["P3.5", "Ex4.8", "R3.14(2)"], SMALL).to_json_text()
        assert a == b

    def test_timings_are_opt_in(self):
        report = ver.run_suite(["P3.6"], SMALL)
        assert "timings" not in report.to_json()
        assert "timings" in report.to_json(include_timings=True)

    def test_summary_lines_shape(self):
        report = ver.run_suite(["P3.6"], SMALL)
        lines = report.summary_lines()
        assert lines[0].startswith("PASS P3.6")
        assert lines[-1].startswith("ALL CLAIMS HOLD")


class TestProbe:
    def test_probe_reports_a_bounded_search(self):
        report = ver.probe_open_problem(SMALL)
        assert report["finite"]["vacuous"] is True
        assert len(report["symbolic"]) == 2
        for candidate in report["symbolic"]:
            assert candidate["finite_index_plausible"] is False
        assert "no counterexample" in report["conclusion"]
        json.dumps(report)  # JSON-safe


class TestSubstructureEnumeration:
    def test_ideals_of_z4(self):
        from greenstone import core
        z4 = core.validate_table(4, [[(i + j) % 4 for j in range(4)] for i in range(4)])
        assert ver.ideals_of(z4) == [frozenset(range(4))]

    def test_subacts_are_closed(self):
        from greenstone.biact import is_subact, regular_biact
        from greenstone import core
        b = regular_biact(core.generate_from_transformations(2, [(1, 0), (0, 0)]))
        for members in ver.subacts_of(b):
            assert is_subact(b, members) is None


class TestLongestCoverPath:
    def test_small_poset(self):
        # 0 > 1 > 3 and 0 > 2 > 3 > 4: four classes on the longest chain
        covers = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
        assert ver._longest_cover_path(covers, 5) == 4
        assert ver._longest_cover_path([], 3) == 1
        assert ver._longest_cover_path([], 0) == 0

    def test_long_chain_does_not_recurse(self):
        n = 3000
        covers = [(c, c + 1) for c in range(n - 1)]
        assert ver._longest_cover_path(covers, n) == n
        assert ver._longest_cover_path(list(reversed(covers)), n) == n

    def test_cycle_is_refused(self):
        with pytest.raises(ValueError):
            ver._longest_cover_path([(0, 1), (1, 0)], 2)
