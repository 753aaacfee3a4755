import hashlib
import itertools
import json
from pathlib import Path

import pytest

from greenstone import verify as ver
from greenstone.biact import FiniteBiact, Subact
from greenstone.core import is_role
from greenstone.enumeration import SEMIGROUP_ORDER_CAP
from greenstone.errors import InvalidSuiteConfig, UnknownClaim
from greenstone.green import _PreorderData, _kahn
from greenstone.symbolic import (
    Bicyclic,
    ChainCheck,
    corollary_4_19_instance,
    example_4_8,
)

from helpers import ideals_of, replace, subacts_of

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

# the whole suite in about two seconds
TINY = ver.SuiteConfig(max_order=2, exh_semigroup=1, exh_carrier=2, random_biacts=30,
                       depth=20, samples=20, chain_seed=10)

# sha256 of each claim's JSON entry (sorted keys) at TINY, recorded before
# the claims became per-instance checks over the Env corpora
GOLDEN = {
    "C3.12": "2bb20e68d1237ae74d169eec06cad7423193109f82b521e398123f643050ce29",
    "C3.13": "ff984fd53050b3c3dced0fd7d6322670701f05c34eda69aa4ccc14e2b9e73eb9",
    "C3.8": "379aef19c3cbab67881cfd6697c98198394bb3cb6ad9aaed8b6859e356ff30a5",
    "C3.9": "7f130f9356c635a9a6a9fa8651dd6163f09a9b8b6a647207a4582823906cb0ca",
    "C4.11": "c0106aa8da5fd4e0256fcf6c8d120266beb75b62f19989a74b99d68de6417134",
    "C4.14": "c30c20c29658d7a21ad14c618c0f58a3479c188986034cd047038d90515cf6fc",
    "C4.19": "d8b73e2fc086de364831644685d108c7a6efe201edc6ee59a75b5433c174f49c",
    "C4.3": "0855d4bd6ad3c362265952a7550dbb360719e54eca38a15696ea50504d8bf092",
    "C4.7": "7010ed6555348146370bfea4eda890612e0dc603545cde7c6edc5c0c60a9c22e",
    "C5.12": "d954d3bbd3a6ea036182c7124a9bb3a54fc1a59f815a564e5cd17a5020c5a426",
    "C5.6": "bb263f69dc39ddcd87803e40a12e29c23b40de6b3ac465ed53d708175d16e860",
    "Con4.17/P4.18": "a3ab882c5e2e26509ebc7a9645fa2659bd536d7bff4a77adfbefb74b0d7cd728",
    "Con5.10/P5.11": "dc6cfeed288259de3a4bd100f219febd03e4e91bb4adf6e3c55915b15e65db2a",
    "Ex4.8": "85909f1cb4976743ff832c117b08e4df047c37f59eea1fca0ad940304060bd29",
    "L3.10": "0780b38a93cc4c6019306e26900bee0a8ebfd07657745316868e6d8136ac7726",
    "L3.3": "b6968624e870403b37dcdb90f6120d4c8c372d27efdcf02055fd5d4458995f1f",
    "L3.7": "816709869008f2c742e7ebc517358167c3877dfa5a24779c675de1e68d9a7229",
    "L4.10": "4ee3b8c555271d47da29d367ea58827f9a6da225d7b99f70bfe3ef8fec04299f",
    "L4.2": "4fe503152c39efde5f05b7c422a5707a5cd9aa372eed390f98646b41ebc8e908",
    "L5.5": "e51e617711e718fa89c57da39822d92ddf3e1a4c38e646b240efb4de6800dc9f",
    "L5.8": "1b7bc2dd13aafc64f874717ffeb1af8040471ce572dd1807ba334c759963f20e",
    "P3.11": "a11612fa10f00bee912a9917a7c030c0e160cf7e253a59ed937145230cc443fb",
    "P3.4": "ef7bb7977ffb07273ccb6a3d193e0fcfd51957688650e3e36b041847a9df7677",
    "P3.5": "4d03bc8988a5d121d5accbc34c10eb59f0ab860d7b37ec2cff63193913355461",
    "P3.6": "7713b025cc6a141fa327bcd650c01a6b9bb01a8ccb9136db55d01c2410b39380",
    "P4.1": "46cd0ed9452de71360a246b190491905e6139d0bbf30486ca976c4ffaba494aa",
    "P4.15": "73e3b6e7ec52caa7b4a9460f047c059414cf08dba56f130acc6c5fa430489063",
    "P4.4": "1670a0061403adb9f18d66cdf8339d016a258f9e383db25c3f0927b2a47fd56f",
    "P4.5": "bbd6fad08bcf2f913440f8316d40dd8caa1e033640e95f0875606a0b0c824953",
    "P5.1": "6ad6a46f2b998a2d909d3594c0be74373af2adb0d9cca664ddd154eaa65d7df0",
    "P5.2": "2c413df7d2b88129d2e15d3df932e2b7e5966f97c16c6d9cc92f0e16e841d163",
    "P5.3": "6290a8b28a4f2cb751c4aa8f6a007850021a355f6a078ac7fdfa495a0aa121a2",
    "P5.9": "e5a005206a571446b0f7ac4113d1afd540cb026d9a954d3b86b19780afdb37ef",
    "R3.14(2)": "788836057dbe2c86ab643422775dbbaa428450666b01be383e9419b548d31e6e",
    "R3.14(3)": "338f0ba29c88d067da9d9b21bd221c0b4000b42fa77e1ac73a42efee85121e76",
    "S5.0": "1526b0d81c30e58f19043867cea3e39a577d018ba3746f32cf613d736d3621d5",
    "T4.13": "7cd89864f1859a925ff22c07b81b454319278ce022b87a6a2ef792704a695175",
    "T4.16": "7e75e15b1c379e582afb7ca7d4cd8c04153ab753548f45534dcc7d72d93f2d7d",
    "T4.6": "63dfda56b707fb8668d2b6e2f24929c0f585539e51db4c82e64c5877dfc686dc",
    "T5.4": "4b662217a342320e9151af746eb2627c63f1530193efd7084238b2b66a33a67f",
    "T5.7": "0368a63a6c13382c448371f564f6f52353373781c4375bbb28c80455a68f79ed",
}


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
        assert ideals_of(z4) == [frozenset(range(4))]

    def test_subacts_are_closed(self):
        from greenstone.biact import is_subact, regular_biact
        from greenstone import core
        b = regular_biact(core.generate_from_transformations(2, [(1, 0), (0, 0)]))
        for members in subacts_of(b):
            assert is_subact(b, members) is None


class TestLongestCoverPath:
    """The height L3.3 reads: Kahn's pass in ``green`` over a cover relation
    returns the classes it leaves unconsumed and the longest chain."""

    def test_small_poset(self):
        # 0 > 1 > 3 and 0 > 2 > 3 > 4: four classes on the longest chain
        covers = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
        assert _kahn(5, covers) == (0, 4)
        # 1 > 2 > 3 > 4 and 0 > 4: the short chain reaches 4 last
        assert _kahn(5, [(0, 4), (1, 2), (2, 3), (3, 4)]) == (0, 4)
        assert _kahn(3, []) == (0, 1)
        assert _kahn(0, []) == (0, 0)

    def test_long_chain_does_not_recurse(self):
        n = 3000
        covers = [(c, c + 1) for c in range(n - 1)]
        assert _kahn(n, covers) == (0, n)
        assert _kahn(n, list(reversed(covers))) == (0, n)

    def test_cycle_is_left_unconsumed(self):
        assert _kahn(2, [(0, 1), (1, 0)])[0] == 2
        # only the cycle and what hangs below it stay unconsumed
        assert _kahn(4, [(0, 1), (1, 2), (2, 1), (2, 3)])[0] == 3


class TestGolden:
    def test_every_claim_entry_is_unchanged(self):
        report = ver.run_suite("all", TINY)
        digests = {r.claim.id: hashlib.sha256(json.dumps(r.to_json(), sort_keys=True)
                                              .encode()).hexdigest()
                   for r in report.results}
        assert sorted(digests) == sorted(GOLDEN)
        assert [cid for cid in sorted(GOLDEN) if digests[cid] != GOLDEN[cid]] == []

    def test_probe_is_unchanged(self):
        text = json.dumps(ver.probe_open_problem(), indent=2, sort_keys=True)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "2d9b014eedd926db2ac1e5bd3fef6d7c4c2444a61af00006e17d0c305e146b2e")


class TestCorpora:
    """At the default config the Env corpora are the old enumeration loops,
    instance for instance and in the same order."""

    def test_semigroup_corpora(self):
        env = ver.Env(ver.SuiteConfig())
        def bi_ideals_of(s):
            return [m for m in ver.nonempty_subsets(s.order) if is_role(s, m, "bi-ideal")]

        for corpus, members_of in ((env.subsemigroups(), ver.subsemigroups_of),
                                   (env.ideals(), ideals_of),
                                   (env.bi_ideals(), bi_ideals_of)):
            assert ([(x.host, x.members) for x in corpus]
                    == [(s, m) for s in env.semigroups() for m in members_of(s)])
        sizes = [len(c) for c in (env.semigroups(), env.subsemigroups(),
                                  env.ideals(), env.bi_ideals())]
        assert sizes == [33, 169, 69, 123]
        assert ([(rho.over, rho.blocks) for rho in env.congruences()]
                == [(s, rho.blocks) for s in env.semigroups()
                    for rho in ver.single_pair_congruences(s)])

    def test_semigroup_corpora_are_built_once(self):
        env = ver.Env(ver.SuiteConfig())
        x = env.ideals()[-1]
        assert env.ideals() is env.ideals()
        assert x.sub is x.sub and x.rees is x.rees and x.ideal_biact is x.ideal_biact
        assert all(any(x is y for y in env.subsemigroups()) for x in env.bi_ideals())
        assert env.catalog() is env.catalog()

    def test_biact_corpora(self):
        env = ver.Env(ver.SuiteConfig())
        subacts = [(x.host, x.members) for x in _subacts(env)]
        assert subacts == [(b, m) for b in env.biacts() for m in subacts_of(b)]
        assert len(subacts) == 7331
        assert ([(rho.over, rho.blocks) for rho in _biact_congruences(env)]
                == [(b, rho.blocks) for b in env.biacts()
                    for rho in ver.single_pair_congruences(b)])


    def test_single_pair_congruences_read_the_translations_once(self, monkeypatch):
        from greenstone import core

        calls = []
        real = ver._translations
        monkeypatch.setattr(ver, "_translations", lambda x: calls.append(x) or real(x))
        env = ver.Env(TINY)
        for x in env.semigroups() + env.biacts():
            calls.clear()
            got = ver.single_pair_congruences(x)
            assert calls == [x]
            assert [(rho.blocks, rho.over) for rho in got] == [
                (core.congruence_closure(x, [p]).blocks, x)
                for p in itertools.combinations(range(x.size), 2)]

    @staticmethod
    def _edges_reads(monkeypatch) -> list:
        """Each object whose one-step digraph pair is computed from its
        tables from now on, in call order: a call of ``biact._edges``, the
        one function that computes it, through ``digraphs`` or a Green
        lookup."""
        from greenstone import biact as ba
        from greenstone import green

        reads, real = [], ba._edges

        def edges(x, *generators):
            reads.append(x)
            return real(x, *generators)

        for module in (ba, green):
            monkeypatch.setattr(module, "_edges", edges)
        return reads

    @staticmethod
    def _carried(hosts: list) -> tuple[set, list]:
        """The ids of the hosts that carry their own digraph pair (the
        derived parts of the random corpus), and those of them whose tables
        are still unbuilt."""
        from greenstone import biact as ba

        carried = {id(x) for x in hosts if ba._PAIR in vars(x)}
        pending = [x for x in hosts if ba._FILL in vars(x)]
        assert carried and pending and {id(x) for x in pending} <= carried
        return carried, pending

    def test_host_digraphs_are_read_once_per_env(self, monkeypatch, cold_engine):
        """No host's pair is computed twice: ``_edges`` runs once on each
        host, in corpus order, when the digraph ids read the hosts' Green
        structures, except on a host that carries its pair, which is taken
        as it is and leaves the host's tables unbuilt.  From then on each
        host's structure holds its pair, and the host carries none.  The
        engine starts cold, so no pool semigroup holds a structure from
        another Env."""
        from greenstone import biact as ba

        env = ver.Env(TINY)
        hosts = env.biacts() + env.semigroups()
        carried, pending = self._carried(hosts)
        reads = self._edges_reads(monkeypatch)
        ids = env.digraph_ids("biacts")
        env.digraph_ids("semigroups")
        once = [id(x) for x in hosts if id(x) not in carried]
        assert list(map(id, reads)) == once
        assert all(ba._FILL in vars(x) for x in pending)
        assert all(ba._SLOT in vars(x) and ba._PAIR not in vars(x) for x in hosts)
        for cid in ("P4.1", "P4.4", "P5.1", "C4.3"):
            assert ver.REGISTRY[cid].checker(env).ok
        kept = set(map(id, hosts))
        assert [id(x) for x in reads if id(x) in kept] == once
        assert env.digraph_ids("biacts") is ids
        assert not any(ba._PAIR in vars(x) for x in hosts)
        monkeypatch.undo()
        # distinct pairs, numbered in first-seen order
        pairs = [ba.digraphs(b) for b in env.biacts()]
        distinct = list(dict.fromkeys(pairs))
        assert ids == [distinct.index(pair) for pair in pairs] and len(distinct) > 1

    def test_each_host_pair_is_computed_once_over_all_claims(self, monkeypatch, cold_engine):
        """Over all claims on one Env, no host's digraph pair is computed
        twice: once, on the host's first read, and not at all for a host
        that carries it; the digraph ids, the parts of its ideals and
        subacts and its Green structure all read that pair (``digraphs``).
        The engine starts cold, so no pool semigroup holds a structure
        from another Env.  Counted from when the corpora are built: the
        random corpus's products read the pairs of the pool semigroups
        they take, which those then carry."""
        from collections import Counter

        from greenstone import biact as ba

        env = ver.Env(TINY)
        hosts = env.semigroups() + env.biacts()
        carried, _ = self._carried(hosts)
        reads = self._edges_reads(monkeypatch)
        for cid in sorted(ver.REGISTRY):
            assert ver.REGISTRY[cid].checker(env).ok, cid
        count = Counter(map(id, reads))
        assert [count[id(x)] for x in hosts] == [int(id(x) not in carried) for x in hosts]
        assert not any(ba._PAIR in vars(x) for x in hosts)


class TestSuiteConfig:
    @pytest.mark.parametrize("name, value", [
        ("max_order", 0), ("exh_semigroup", 0), ("exh_carrier", 0), ("random_biacts", -1),
        ("depth", 0), ("samples", 0), ("chain_seed", -1)])
    def test_out_of_range_parameter_is_named(self, name, value):
        with pytest.raises(InvalidSuiteConfig, match=name):
            ver.SuiteConfig(**{name: value})

    def test_max_order_above_census_cap_is_named(self):
        with pytest.raises(InvalidSuiteConfig, match="max_order"):
            ver.SuiteConfig(max_order=SEMIGROUP_ORDER_CAP + 1)

    def test_census_cap_is_accepted(self):
        assert ver.SuiteConfig(max_order=SEMIGROUP_ORDER_CAP).max_order == SEMIGROUP_ORDER_CAP

    def test_least_values_are_accepted(self):
        ver.SuiteConfig(max_order=1, exh_semigroup=1, exh_carrier=1, random_biacts=0,
                        depth=1, samples=1, chain_seed=0)


# ---------------------------------------------------------------------------
# each claim shape written once: the per-instance loops the shared helpers
# replaced, kept here as oracles and run against planted failures


def _p4_4(x, v):
    for k in ver.KINDS:
        whole = bool(ver.minimal_condition(x.host, k))
        parts = bool(ver.minimal_condition(x.sub, k)) and bool(ver.minimal_condition(x.rees, k))
        if whole != parts:
            v.add({"k": k, "subact": x.members})
    return len(ver.KINDS)


def _p4_5(x, v):
    for k in ver.KINDS:
        whole = bool(ver.minimal_condition(x.rel, k))
        parts = (bool(ver.minimal_condition(x.sub, k))
                 and bool(ver.minimal_condition(x.rel_rees, k)))
        if whole != parts:
            v.add({"k": k, "sub": x.members})
    return len(ver.KINDS)


def _p4_15(x, v):
    for k in ver.KINDS:
        whole = bool(ver.minimal_condition(x.host, k))
        parts = (bool(ver.minimal_condition(x.ideal_biact, k))
                 and bool(ver.minimal_condition(x.rees, k)))
        if whole != parts:
            v.add({"ideal": x.members, "k": k})
    return len(ver.KINDS)


def _t4_16(x, v):
    whole = bool(ver.minimal_condition(x.host, "L"))
    parts = bool(ver.minimal_condition(x.sub, "L")) and bool(ver.minimal_condition(x.rees, "L"))
    if whole != parts:
        v.add({"ideal": x.members})


def _p5_2(x, v):
    if bool(ver.stable(x.rel)) != (bool(ver.stable(x.sub)) and bool(ver.stable(x.rel_rees))):
        v.add({"sub": x.members})


def _p5_9(x, v):
    if bool(ver.stable(x.host)) != (bool(ver.stable(x.ideal_biact)) and bool(ver.stable(x.rees))):
        v.add({"ideal": x.members})


def _l4_2(rho, v):
    sq, _ = ver.quotient(rho.over, rho)
    bq, _ = ver.quotient(ver.regular_biact(rho.over), rho)
    gs_s = ver.green_structure(sq)
    gs_b = ver.green_structure(bq)
    for k in ver.KINDS:
        for a in range(sq.order):
            for bb in range(sq.order):
                if gs_s.le(a, bb, k) != gs_b.le(a, bb, k):
                    v.add({"k": k, "pair": (a, bb)})
        if bool(ver.minimal_condition(sq, k)) != bool(ver.minimal_condition(bq, k)):
            v.add({"k": k, "failure": "minimal conditions differ"})
    return len(ver.KINDS) * sq.order ** 2


def _l5_8(x, v):
    sq = x.rees
    bq = ver.biact_rees_quotient(x.host, x.members)
    gss, gsb = ver.green_structure(sq), ver.green_structure(bq)
    for k in ver.KINDS:
        for a in range(sq.order):
            for bb in range(sq.order):
                if gss.le(a, bb, k) != gsb.le(a, bb, k):
                    v.add({"k": k, "pair": (a, bb)})
    if bool(ver.stable(sq)) != bool(ver.stable(bq)):
        v.add({"ideal": x.members, "failure": "stability verdicts differ"})
    return len(ver.KINDS) * sq.order ** 2


_T4_16_NOTES = ("the reverse direction genuinely fails for the two-sided "
                "condition, which is claim C4.19")

def _subacts(env):
    """Every subact of every biact, one ``Subact`` each: the per-instance
    corpus of the P4.4 and P5.1 oracles (the claims run host by host)."""
    return (Subact(b, m) for b in env.biacts() for m in subacts_of(b))


def _biact_congruences(env):
    """The single-pair congruences of every biact: the per-instance corpus
    of the P4.1 oracle."""
    return (rho for b in env.biacts() for rho in ver.single_pair_congruences(b))


def _over(corpus, check, smoke=False, notes=""):
    """``verify._over`` over ``corpus(env)``, a corpus of these tests."""
    return lambda env: ver._Tally().over(corpus(env), check).outcome(smoke, notes)


# claim id -> the checker it had as a hand-written loop
ORACLES = {
    "P4.4": _over(_subacts, _p4_4, smoke=True),
    "P4.5": ver._over("subsemigroups", _p4_5, smoke=True),
    "P4.15": ver._over("ideals", _p4_15, smoke=True),
    "T4.16": ver._over("ideals", _t4_16, smoke=True, notes=_T4_16_NOTES),
    "P5.2": ver._over("subsemigroups", _p5_2, smoke=True),
    "P5.9": ver._over("ideals", _p5_9, smoke=True),
    "L4.2": ver._over("congruences", _l4_2),
    "L5.8": ver._over("ideals", _l5_8),
}


def _kind(x):
    return x.provenance.get("kind")


# predicates that are false on some objects: each is planted as both
# minimal_condition and stable, so every whole-iff-parts claim can fail
PLANTS = {
    "rees quotients": lambda x: _kind(x) == "rees-quotient",
    "biacts": lambda x: isinstance(x, FiniteBiact),
    "biact quotients": lambda x: isinstance(x, FiniteBiact) and _kind(x) == "quotient",
    "biact rees quotients": lambda x: isinstance(x, FiniteBiact) and _kind(x) == "rees-quotient",
    "odd sizes": lambda x: x.size % 2 == 1,
}


def _plant(monkeypatch, false_on):
    real_mc, real_stable = ver.minimal_condition, ver.stable

    def minimal_condition(x, k):
        return False if false_on(x) and k != "R" else real_mc(x, k)

    def stable(x):
        return False if false_on(x) else real_stable(x)

    monkeypatch.setattr(ver, "minimal_condition", minimal_condition)
    monkeypatch.setattr(ver, "stable", stable)


class TestClaimShapes:
    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_rows_match_the_hand_written_loops(self, plant, monkeypatch):
        _plant(monkeypatch, PLANTS[plant])
        env = ver.Env(TINY)
        for cid, oracle in ORACLES.items():
            assert ver.REGISTRY[cid].checker(env) == oracle(env), cid

    def test_every_rewritten_claim_fails_under_some_plant(self, monkeypatch):
        failing = set()
        for plant in PLANTS.values():
            with monkeypatch.context() as m:
                _plant(m, plant)
                env = ver.Env(TINY)
                failing |= {cid for cid in ORACLES if ver.REGISTRY[cid].checker(env).witnesses}
        assert failing == set(ORACLES)

    def test_unplanted_rows_match(self):
        env = ver.Env(TINY)
        for cid, oracle in ORACLES.items():
            outcome = ver.REGISTRY[cid].checker(env)
            assert outcome == oracle(env) and outcome.ok, cid


def _chains_L3_3(env, v):
    for name, entry in sorted(env.catalog().items()):
        for mk, k in (("M_L", "L"), ("M_R", "R"), ("M_J", "J")):
            claim = entry.sheet.get(mk)
            if claim and not claim.value:
                v.instances += 1
                res = ver.verify_chain(entry, entry.chain(k), k, env.config.depth)
                if not res.ok:
                    v.add({"entry": name, "k": k, "reason": res.reason})


def _chains_P3_4(env, v):
    b = Bicyclic()
    res = ver.verify_chain(b, b.chain("L"), "L", env.config.depth)
    v.instances += 1
    if not res.ok:
        v.add({"entry": "bicyclic", "reason": res.reason})


def _chains_R3_14_2(env, v):
    b = Bicyclic()
    for k in ("L", "R"):
        v.instances += 1
        res = ver.verify_chain(b, b.chain(k), k, env.config.depth)
        if not res.ok:
            v.add({"chain": k, "reason": res.reason})


def _chains_Ex4_8(env, v):
    biact = example_4_8()["biact"]
    chain = biact.chain("J")
    for k in ver.KINDS:
        v.instances += 1
        res = ver.verify_chain(biact, chain, k, env.config.depth)
        if not res.ok:
            v.add({"k": k, "reason": res.reason})


def _chains_C4_19(env, v):
    inst = corollary_4_19_instance()
    v.instances += 1
    res = ver.verify_chain(inst.ideal_order(), inst.ideal_chain(), "J", env.config.depth)
    if not res.ok:
        v.add({"failure": "ideal chain", "reason": res.reason})


CHAIN_BLOCKS = {"L3.3": _chains_L3_3, "P3.4": _chains_P3_4, "R3.14(2)": _chains_R3_14_2,
                "Ex4.8": _chains_Ex4_8, "C4.19": _chains_C4_19}


class TestChainReplay:
    @pytest.mark.parametrize("cid", sorted(CHAIN_BLOCKS))
    def test_failed_replays_match_the_inline_blocks(self, cid, monkeypatch):
        """With every chain replay failing, a claim reports exactly what its
        inline replay block reported: each failure, under its payload, and
        no change in the instance count."""
        env = ver.Env(TINY)
        base = ver.REGISTRY[cid].checker(env)
        assert base.ok and not base.witnesses

        def fails(x, chain, k, depth):
            return ChainCheck(ok=False, failed_at=1, reason=f"planted {k} {depth}")

        monkeypatch.setattr(ver, "verify_chain", fails)
        oracle = ver._Tally()
        CHAIN_BLOCKS[cid](env, oracle)
        assert oracle.count > 0
        assert ver.REGISTRY[cid].checker(env) == ver.ClaimOutcome(
            ok=False, instances=base.instances, vacuous=base.vacuous,
            witnesses=oracle.samples,
            notes=f"{oracle.count} violations; {base.notes}".strip("; "))


# ---------------------------------------------------------------------------
# shared part verdicts: the per-instance loops that P4.4, P5.1, P4.1/C4.3 and
# R3.14(3) ran before they decided each part once per digraph key, kept
# here as oracles (P4.4's is ``_p4_4`` above)


def _p5_1(x, v):
    for holds, failure in ((ver.stable, {}), (ver.left_stable, {"failure": "left form"})):
        if bool(holds(x.host)) != all(holds(part) for part in (x.sub, x.rees)):
            v.add({"subact": x.members, **failure})
    for cls in ver.green_structure(x.host).relation("J").classes:
        if len({y in x.members for y in cls}) != 1:
            v.add({"subact": x.members, "failure": "J-class straddles subact"})


def _p4_1(rho, v):
    quot, _ = ver.quotient(rho.over, rho)
    for k in ver.KINDS:
        if bool(ver.minimal_condition(rho.over, k)) and not ver.minimal_condition(quot, k):
            v.add({"k": k})
    return len(ver.KINDS)


def _r3_14_3(pair, v):
    s, t = pair
    pgs = ver.green_structure(ver.product_biact(s, t))
    sgs, tgs = ver.green_structure(s), ver.green_structure(t)
    nt = t.order
    carrier = list(itertools.product(range(s.order), range(nt)))
    for (a, bb), (c, d) in itertools.product(carrier, repeat=2):
        if pgs.le(a * nt + bb, c * nt + d, "J") != (sgs.le(a, c, "L") and tgs.le(bb, d, "R")):
            v.add({"pair": ((a, bb), (c, d))})
    if pgs.num_classes("J") != sgs.num_classes("L") * tgs.num_classes("R"):
        v.add({"counts": (pgs.num_classes("J"), sgs.num_classes("L"), tgs.num_classes("R"))})
    return (s.order * nt) ** 2


def _r3_14_3_pairs(env):
    pairs = itertools.product(env.semigroups(), repeat=2)
    return ver._Tally().over(pairs, _r3_14_3).outcome()


SHARED_ORACLES = {
    "P4.4": ORACLES["P4.4"],
    "P5.1": _over(_subacts, _p5_1, smoke=True, notes="the straddle check is contentful"),
    "P4.1": _over(_biact_congruences, _p4_1, smoke=True),
    "C4.3": ver._over("congruences", _p4_1, smoke=True),
    "R3.14(3)": _r3_14_3_pairs,
}


def _green_plant(gs):
    """A plant that reads Green data only."""
    return (gs.size + gs.num_classes("L")) % 3 == 0


def _plant_green(monkeypatch):
    """Plant ``_green_plant`` as false minimal conditions (but M_R) and
    stability verdicts, and as Green structures whose J data are the L
    data, so that R3.14(3) can fail too."""
    real_gs, real_mc = ver.green_structure, ver.minimal_condition
    real_stable, real_left = ver.stable, ver.left_stable

    def planted(x):
        return _green_plant(real_gs(x))

    def green_structure(x):
        gs = real_gs(x)
        if not _green_plant(gs):
            return gs
        return replace(gs, relations=(*gs.relations[:2], gs.relation("L"), *gs.relations[3:]))

    monkeypatch.setattr(ver, "green_structure", green_structure)
    monkeypatch.setattr(ver, "minimal_condition",
                        lambda x, k: False if planted(x) and k != "R" else real_mc(x, k))
    monkeypatch.setattr(ver, "stable", lambda x: False if planted(x) else real_stable(x))
    monkeypatch.setattr(ver, "left_stable", lambda x: False if planted(x) else real_left(x))


@pytest.fixture(scope="module")
def envs():
    """One Env per config for this section; corpora are built on first use,
    and the verdicts an Env keeps are keyed by the predicates that decided
    them, so a plant never reads an unplanted verdict and the tests can
    share them."""
    return {"tiny": ver.Env(TINY), "default": ver.Env(ver.SuiteConfig())}


def _outcomes(env, cids):
    return {cid: ver.REGISTRY[cid].checker(env) for cid in cids}


class TestSharedVerdicts:
    @pytest.mark.parametrize("config", ["tiny", "default"])
    def test_unplanted(self, config, envs):
        env = envs[config]
        for cid, oracle in SHARED_ORACLES.items():
            outcome = ver.REGISTRY[cid].checker(env)
            assert outcome == oracle(env) and outcome.ok, cid

    @pytest.mark.parametrize("config", ["tiny", "default"])
    def test_green_data_plant(self, config, envs, monkeypatch):
        _plant_green(monkeypatch)
        env = envs[config]
        for cid, oracle in SHARED_ORACLES.items():
            outcome = ver.REGISTRY[cid].checker(env)
            assert outcome == oracle(env) and not outcome.ok, cid

    # ten seconds at the default config, so that case runs with the slow tests
    @pytest.mark.parametrize("config", ["tiny", pytest.param("default", marks=pytest.mark.slow)])
    def test_provenance_plants(self, config, envs, monkeypatch):
        env = envs[config]
        failing = set()
        for plant in PLANTS.values():
            with monkeypatch.context() as m:
                _plant(m, plant)
                for cid in ("P4.4", "P5.1"):
                    outcome = ver.REGISTRY[cid].checker(env)
                    assert outcome == SHARED_ORACLES[cid](env), cid
                    failing |= {cid} if not outcome.ok else set()
        assert failing == {"P4.4", "P5.1"}

    def test_no_verdict_outlives_its_run(self, monkeypatch):
        # the subact verdicts the Env keeps are read back only under the
        # predicates that decided them: the planted run decides afresh, and
        # the unplanted run after it reads the first run's
        env = ver.Env(TINY)
        before = _outcomes(env, SHARED_ORACLES)
        with monkeypatch.context() as m:
            _plant_green(m)
            planted = _outcomes(env, SHARED_ORACLES)
        assert _outcomes(env, SHARED_ORACLES) == before
        assert all(before[cid].ok and not planted[cid].ok for cid in SHARED_ORACLES)

    def test_subacts_are_the_closed_subsets(self, envs):
        from greenstone.biact import is_subact

        for b in envs["default"].biacts():
            assert subacts_of(b) == [m for m in ver.nonempty_subsets(b.size)
                                         if is_subact(b, m) is None]

    @pytest.mark.slow
    def test_grouped_products_at_max_order_4(self):
        env = ver.Env(ver.SuiteConfig(max_order=4))
        outcome = ver.REGISTRY["R3.14(3)"].checker(env)
        assert outcome == _r3_14_3_pairs(env) and outcome.ok
        assert outcome.instances == 10530025


# ---------------------------------------------------------------------------
# one part table for P4.4 and P5.1: per (digraph id, subact mask) the bits of
# both claims' predicates on the parts, decided once per binding of them

PLANT_NAMES = sorted(PLANTS) + ["green data"]


def _plant_named(monkeypatch, name):
    if name == "green data":
        _plant_green(monkeypatch)
    else:
        _plant(monkeypatch, PLANTS[name])


class TestSharedPartTable:
    @pytest.mark.parametrize("first, second", [("P4.4", "P5.1"), ("P5.1", "P4.4")])
    def test_the_second_claim_under_each_plant(self, first, second, monkeypatch):
        """On one Env, one claim runs unplanted and fills the table; the other
        then runs under each plant and must decide afresh, as its oracle
        does; and unplanted again, it reads the first claim's table."""
        env = ver.Env(TINY)
        outcome = ver.REGISTRY[first].checker(env)
        assert outcome == SHARED_ORACLES[first](env) and outcome.ok
        failing = set()
        for name in PLANT_NAMES:
            with monkeypatch.context() as m:
                _plant_named(m, name)
                outcome = ver.REGISTRY[second].checker(env)
                assert outcome == SHARED_ORACLES[second](env), name
                failing |= {name} if not outcome.ok else set()
        assert failing                  # the plants reach the second claim
        outcome = ver.REGISTRY[second].checker(env)
        assert outcome == SHARED_ORACLES[second](env) and outcome.ok

    @pytest.mark.parametrize("config", ["tiny", "default"])
    def test_each_subact_is_built_once_across_both_claims(self, config, monkeypatch):
        env = ver.Env(TINY if config == "tiny" else ver.SuiteConfig())
        hids = env.digraph_ids("biacts")
        ids = {id(b): hid for b, hid in zip(env.biacts(), hids)}
        built, real = [], ver._subact_parts

        def subact_parts(host, mask):
            built.append((ids[id(host)], mask))
            return real(host, mask)

        monkeypatch.setattr(ver, "_subact_parts", subact_parts)
        outcomes = [ver.REGISTRY[cid].checker(env) for cid in ("P4.4", "P5.1", "P4.4")]
        assert len(built) == len(set(built))
        # one host per digraph id: the id fixes the subacts
        assert set(built) == {(hid, mask) for hid, b in dict(zip(hids, env.biacts())).items()
                              for mask in ver._subact_keys(b)}
        monkeypatch.undo()
        assert outcomes[0] == outcomes[2] == SHARED_ORACLES["P4.4"](env)
        assert outcomes[1] == SHARED_ORACLES["P5.1"](env)

    def test_a_wrapped_predicate_decides_afresh(self, monkeypatch):
        """A traced predicate (a wrapper around the same function) is another
        binding: its calls are made, not read from the unwrapped run's, and
        made once per host and part across both claims (every finite biact
        is stable, so both parts of each subact are asked)."""
        env = ver.Env(TINY)
        before = _outcomes(env, ("P4.4", "P5.1"))
        calls, real = [], ver.stable
        monkeypatch.setattr(ver, "stable", lambda x: calls.append(x) or real(x))
        assert _outcomes(env, ("P4.4", "P5.1")) == before
        one_per_id = dict(zip(env.digraph_ids("biacts"), env.biacts())).values()
        subacts = sum(len(ver._subact_keys(b)) for b in one_per_id)
        assert len(calls) == len(env.biacts()) + 2 * subacts

    def test_a_wrapped_predicate_decides_each_quotient_once(self, monkeypatch):
        """P4.1 on one Env: after an unwrapped run, a wrapped
        ``minimal_condition`` gives the same outcome, called once per kind on
        each host with a congruence and on each (digraph id, blocks)."""
        env = ver.Env(TINY)
        before = ver.REGISTRY["P4.1"].checker(env)
        calls, real = [], ver.minimal_condition
        monkeypatch.setattr(ver, "minimal_condition",
                            lambda x, k: calls.append(x) or real(x, k))
        assert ver.REGISTRY["P4.1"].checker(env) == before
        assert ver.REGISTRY["P4.1"].checker(env) == before
        hids = env.digraph_ids("biacts")
        hosts = [b for b in env.biacts() if b.size > 1]
        quotients = {(hid, rho.blocks) for b, hid in zip(env.biacts(), hids)
                     for rho in ver.single_pair_congruences(b)}
        assert len(calls) == len(ver.KINDS) * (len(hosts) + len(quotients))


# ---------------------------------------------------------------------------
# the host-level pass: the parts of P4.4, P5.1, P4.1 and C4.3, and the
# products of R3.14(3), are built from digraphs, and none of them should
# need a table

HOT_CLAIMS = ("P4.4", "P5.1", "P4.1", "C4.3", "R3.14(3)")


class TestHostPass:
    @pytest.mark.parametrize("config", ["tiny", "default"])
    def test_hot_claims_fill_no_part_table(self, config, envs, monkeypatch):
        from greenstone import biact as ba

        filled, real = [], ba.FiniteBiact.__getattr__
        # the corpus hosts may be derived biacts too, and the pass reads
        # their tables; only the parts it builds must stay without tables
        hosts = {id(b) for b in envs[config].biacts()}

        def spy(self, name):
            if ba._FILL in vars(self) and id(self) not in hosts:
                filled.append((self.provenance.get("kind"), name))
            return real(self, name)

        monkeypatch.setattr(ba.FiniteBiact, "__getattr__", spy)
        for cid in HOT_CLAIMS:
            outcome = ver.REGISTRY[cid].checker(envs[config])
            assert outcome.ok and outcome.instances > 0, cid
        assert filled == []

    def test_straddle_counts_replay_per_subact(self, envs, monkeypatch):
        """With every J-class planted as the whole carrier, each proper
        subact is straddled, and P5.1 reports it as its oracle does."""
        real = ver.green_structure

        def green_structure(x):
            gs = real(x)
            whole = _PreorderData((0,) * gs.size, (tuple(range(gs.size)),), (1,), (), 0, 1)
            return replace(gs, relations=(*gs.relations[:2], whole, *gs.relations[3:]))

        monkeypatch.setattr(ver, "green_structure", green_structure)
        outcome = ver.REGISTRY["P5.1"].checker(envs["tiny"])
        assert outcome == SHARED_ORACLES["P5.1"](envs["tiny"]) and not outcome.ok
        assert "straddles" in json.dumps(outcome.witnesses)


class TestListingKeys:
    """P4.1 lists a host's congruences once per (size, translation set), a
    key that hosts with different digraphs can share."""

    @staticmethod
    def _mirrors():
        from greenstone import core

        # the left-zero semigroup and its opposite: the regular biacts' left
        # and right translations trade places
        lz3 = core.validate_table(3, [[i] * 3 for i in range(3)])
        hosts = [ver.regular_biact(lz3), ver.regular_biact(core.opposite(lz3))]

        class Mirrors(ver.Env):
            @ver._kept
            def biacts_exhaustive(self):
                return list(hosts)

            @ver._kept
            def biacts_random(self):
                return []

        return Mirrors(TINY), hosts

    def test_mirror_biacts_share_one_listing(self, monkeypatch):
        env, hosts = self._mirrors()
        assert env.digraph_ids("biacts") == [0, 1]
        assert ver._by_translations(hosts[0], 0) == ver._by_translations(hosts[1], 1)
        listed, real = [], ver.single_pair_congruences
        monkeypatch.setattr(ver, "single_pair_congruences",
                            lambda x: listed.append(x) or real(x))
        outcome = ver.REGISTRY["P4.1"].checker(env)
        assert listed == hosts[:1]
        assert outcome.instances == 2 * 3 * len(ver.KINDS)
        monkeypatch.undo()
        assert outcome == SHARED_ORACLES["P4.1"](env) and outcome.ok

    def test_mirror_biacts_under_the_green_data_plant(self, monkeypatch):
        env, _ = self._mirrors()
        _plant_green(monkeypatch)
        outcome = ver.REGISTRY["P4.1"].checker(env)
        assert outcome == SHARED_ORACLES["P4.1"](env) and not outcome.ok


# the claims digest of ``verify --suite all --seed N`` for the benchmark's
# sixteen suite seeds, recorded in perfbench/refs.json
REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"


def _claims_digest(report: dict) -> str:
    keep = ("id", "status", "instances", "vacuous", "witnesses")
    claims = [{k: c[k] for k in keep} for c in report["claims"]]
    return hashlib.sha256(json.dumps(claims, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


class TestSuiteSeeds:
    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(16))
    def test_claims_digest_matches_the_benchmark_reference(self, seed):
        want = json.loads(REFS.read_text())["suite"][str(seed)]
        report = ver.run_suite("all", ver.SuiteConfig(seed=seed)).to_json()
        assert report["all_passed"] and _claims_digest(report) == want
