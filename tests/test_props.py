import itertools
import json
from types import SimpleNamespace

import pytest

from greenstone import core, green, props
from greenstone.biact import Subact, ideal_biact, regular_biact
from greenstone.enumeration import (
    all_biacts,
    all_semigroups,
    random_biact_corpus,
    semigroup_pool,
)
from greenstone.errors import InvariantViolation, NotASubsemigroup

from helpers import ideals_of, replace, subacts_of

Z2 = [[0, 1], [1, 0]]
# all products hit 0 except 3*2 = 1: makes {0,1,2} a non-L-preserving subsemigroup
NON_PRESERVING = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
NULL2 = [[0, 0], [0, 0]]
CHAIN3 = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]  # the min semilattice on 0 < 1 < 2


def t2():
    return core.generate_from_transformations(2, [(1, 0), (0, 0)])


def t2_ids():
    maps = t2().provenance["maps"]
    return {m: i for i, m in enumerate(maps)}


def replay_stability_witness(x, witness: dict) -> bool:
    """Re-verify a stability violation through the Green preorders.

    The witness names its side by its keys: ``sa`` for a left witness
    (from ``left_stable``), ``at`` for a right one (from ``right_stable``);
    the ``side`` key that ``stable`` adds is not needed.
    """
    if "sa" in witness:
        moved, klass = witness["sa"], "L"
    elif "at" in witness:
        moved, klass = witness["at"], "R"
    else:
        raise ValueError(f"not a stability witness (no 'sa' or 'at'): {witness!r}")
    base = witness["a"]
    gs = green.green_structure(x)
    j_related = gs.le(moved, base, "J") and gs.le(base, moved, "J")
    k_related = gs.le(moved, base, klass) and gs.le(base, moved, klass)
    return j_related and not k_related


def _kept(gs):
    """The answers ``props`` keeps on the structure, None where none is kept."""
    return tuple(getattr(gs, name) for name in green.GreenStructure._KEPT)


class TestStability:
    def test_finite_semigroups_are_stable(self):
        for n in (1, 2, 3):
            for s in all_semigroups(n):
                assert props.stable(s)
                assert props.left_stable(s) and props.right_stable(s)

    def test_finite_biacts_are_stable(self):
        for b in random_biact_corpus(30, "props-stable"):
            assert props.stable(b)

    def test_eight_forms_agree_and_hold(self):
        for b in random_biact_corpus(30, "props-forms"):
            forms = props.left_stable_forms(b)
            assert forms == (True,) * 8

    def test_stable_char_matches_stable(self):
        for b in random_biact_corpus(30, "props-char"):
            assert bool(props.stable_char(b)) == bool(props.stable(b))

    def test_witness_replay_rejects_fabrications(self):
        b = regular_biact(t2())
        assert not replay_stability_witness(b, {"s": 0, "a": 0, "sa": 0})

    def test_witness_replay_reads_the_side_from_the_keys(self):
        # in T2 the two constants are J- and R-related but not L-related;
        # in its opposite they are L-related but not R-related
        ids = t2_ids()
        c0, c1 = ids[(0, 0)], ids[(1, 1)]
        left = {"s": c1, "a": c0, "sa": c1}
        right = {"a": c0, "t": c1, "at": c1}
        for x, want_left, want_right in ((t2(), True, False),
                                         (core.opposite(t2()), False, True)):
            for side, witness, want in (("left", left, want_left),
                                        ("right", right, want_right)):
                assert replay_stability_witness(x, witness) is want
                assert replay_stability_witness(
                    x, {"side": side, **witness}) is want

    def test_witness_replay_refuses_a_malformed_witness(self):
        for witness in ({"a": 0}, {"side": "left", "s": 0, "a": 0}):
            with pytest.raises(ValueError, match="not a stability witness"):
                replay_stability_witness(t2(), witness)

    def test_stored_verdicts_match_the_action_scans(self):
        for x in _oracle_corpus() + _census_derived():
            assert props.left_stable(x).to_json() == _scan_left_stable(x).to_json()
            assert props.right_stable(x).to_json() == _scan_right_stable(x).to_json()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_false_verdict_needs_a_witness(self, monkeypatch, side):
        # a structure claiming instability where no action step shows it
        s = t2()
        bad = replace(green.green_structure(s), **{f"{side}_stable": False})
        monkeypatch.setattr(props, "green_structure", lambda x: bad)
        with pytest.raises(InvariantViolation, match=side):
            getattr(props, f"{side}_stable")(s)


def _scan_left_stable(x):
    """The left stability scan over every action step, run on every call:
    an oracle for the verdict the Green build stores."""
    gs = green.green_structure(x)
    for s in range(x.left.order):
        for e in range(x.size):
            sa = x.left_action[s][e]
            if gs.same(sa, e, "J") and not gs.same(sa, e, "L"):
                return props.PredicateResult(False, method="definition",
                                             witness={"s": s, "a": e, "sa": sa})
    return props.PredicateResult(True, method="definition")


def _scan_right_stable(x):
    gs = green.green_structure(x)
    for e in range(x.size):
        for t in range(x.right.order):
            at = x.right_action[e][t]
            if gs.same(at, e, "J") and not gs.same(at, e, "R"):
                return props.PredicateResult(False, method="definition",
                                             witness={"a": e, "t": t, "at": at})
    return props.PredicateResult(True, method="definition")


def _census_derived():
    """Every subact and Rees quotient of the exhaustive biact census."""

    pool = [s for n in (1, 2) for s in all_semigroups(n)]
    out = []
    for s, t in itertools.product(pool, pool):
        for m in (1, 2, 3):
            for b in all_biacts(s, t, m):
                for members in subacts_of(b):
                    sub = Subact(b, members)
                    out += [sub.sub, sub.rees]
    return out


class TestMinimalCondition:
    def test_always_true_on_finite(self):
        for n in (1, 2, 3):
            for s in all_semigroups(n):
                for k in ("L", "R", "J"):
                    res = props.minimal_condition(s, k)
                    assert res.value is True
                    assert "acyclic" in res.method

    def test_stored_verdict_matches_a_per_call_kahn_pass(self):
        for x in _oracle_corpus():
            gs = green.green_structure(x)
            for k in ("L", "R", "J"):
                assert props.minimal_condition(x, k).to_json() == _kahn_verdict(gs, k)

    def test_cyclic_covers_fail_with_the_count(self, monkeypatch):
        # a cover relation no condensation can produce: 0 > 1 > 2 > 1
        covers = ((0, 1), (1, 2), (2, 1))
        classes = ((0,), (1,), (2,))
        data = green._PreorderData((0, 1, 2), classes, (7, 6, 6), covers,
                                   *green._kahn(3, covers))
        gs = green.GreenStructure(3, (data,) * 3 + (green._Partition(data.class_of, classes),) * 2,
                                  left_stable=True, right_stable=True)
        monkeypatch.setattr(props, "green_structure", lambda x: gs)
        res = props.minimal_condition(None, "L")
        assert res.to_json() == _kahn_verdict(gs, "L")
        assert res.value is False and res.witness == {"classes_unconsumed": 2}


def _kahn_verdict(gs, k):
    """The minimal-condition verdict from a Kahn pass of its own over the
    covers, run on every call: an oracle for the count the Green build
    stores."""
    n = gs.num_classes(k)
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for upper, lower in gs.covers(k):
        out[upper].append(lower)
        indeg[lower] += 1
    queue = [c for c in range(n) if indeg[c] == 0]
    seen = 0
    while queue:
        c = queue.pop()
        seen += 1
        for d in out[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                queue.append(d)
    ok = seen == n
    return {"value": ok, "method": f"acyclic {k}-class condensation",
            "witness": None if ok else {"classes_unconsumed": n - seen}}


def _oracle_corpus():
    """The order-<=3 pool with its ideal biacts and Rees quotients, a
    seeded random biact corpus, T3 and its regular biact."""

    out = []
    for s in semigroup_pool():
        if s.order <= 3:
            out.append(s)
            for members in ideals_of(s):
                out += [ideal_biact(s, members), core.rees_quotient(s, members)]
    out.extend(random_biact_corpus(200, "props-kahn"))
    t3 = core.generate_from_transformations(3, [(1, 2, 0), (1, 0, 2), (0, 0, 2)])
    return out + [t3, regular_biact(t3)]


def _set_forms(gs, n):
    """Forms 2-5 of left_stable_forms with each relation as a set of pairs:
    an oracle for the per-element masks."""
    le_l = {(a, b) for a in range(n) for b in range(n) if gs.le(a, b, "L")}
    same_j = {(a, b) for a in range(n) for b in range(n) if gs.same(a, b, "J")}
    same_l = {(a, b) for a in range(n) for b in range(n) if gs.same(a, b, "L")}
    ge_j = {(a, b) for a in range(n) for b in range(n) if gs.le(b, a, "J")}
    cap_j, cap_gej = le_l & same_j, le_l & ge_j
    return (cap_j == same_l, cap_j <= same_l, cap_gej == same_l, cap_gej <= same_l)


class TestRelationForms:
    def test_masks_match_the_pair_sets(self):
        for x in _oracle_corpus():
            gs = green.green_structure(x)
            assert props.left_stable_forms(x)[1:5] == _set_forms(gs, x.size)

    def test_masks_match_the_pair_sets_on_random_digraphs(self, monkeypatch):
        # arbitrary digraph pairs reach unstable structures, which no finite
        # biact has; pairs that fail the egg-box check are skipped
        import random

        rng = random.Random("relation-forms")
        seen = [set() for _ in range(4)]
        checked = 0
        while checked < 300:
            n = rng.randrange(1, 7)
            left, right = (tuple(tuple(sorted(rng.sample(range(n), rng.randrange(0, min(n, 2) + 1))))
                                 for _ in range(n)) for _ in range(2))
            try:
                gs = green._build(n, left, right)
            except InvariantViolation:
                continue
            monkeypatch.setattr(props, "green_structure", lambda x, gs=gs: gs)
            monkeypatch.setattr(props, "left_stable",
                                lambda x: props.PredicateResult(True, "not under test"))
            got = props.left_stable_forms(SimpleNamespace(size=n))[1:5]
            assert got == _set_forms(gs, n), (left, right)
            for outcomes, value in zip(seen, got):
                outcomes.add(value)
            checked += 1
        assert seen == [{True, False}] * 4


class TestPeriodicity:
    def test_finite_biacts_are_periodic(self):
        for b in random_biact_corpus(30, "props-periodic"):
            assert props.l_periodic(b) and props.r_periodic(b)

    def test_groups_are_group_bound(self):
        assert props.group_bound(core.validate_table(2, Z2))

    def test_t2_is_group_bound(self):
        assert props.group_bound(t2())

    def test_group_bound_iff_two_sided_periodic(self):
        # exhaustive through order 4 on the regular biacts
        for n in (1, 2, 3, 4):
            for s in all_semigroups(n):
                reg = regular_biact(s)
                two_sided = bool(props.l_periodic(reg)) and bool(props.r_periodic(reg))
                assert bool(props.group_bound(s)) == two_sided


class TestRelativePredicates:
    def test_group_inside_t2_is_l_and_r_preserving(self):
        s = t2()
        ids = t2_ids()
        group = {ids[(0, 1)], ids[(1, 0)]}
        assert props.k_preserving(s, group, "L")
        assert props.k_preserving(s, group, "R")

    def test_non_preserving_witness(self):
        s = core.validate_table(4, NON_PRESERVING)
        res = props.k_preserving(s, {0, 1, 2}, "L")
        assert res.value is False
        a, b = res.witness["pair"]
        # related in the host through the outside element, unrelated inside
        host = [x for x in range(4) if s.mul(x, b) == a]
        assert host and all(x not in {0, 1, 2} for x in host)

    def test_k_preserving_needs_a_subsemigroup(self):
        z4 = core.validate_table(4, [[(i + j) % 4 for j in range(4)] for i in range(4)])
        with pytest.raises(NotASubsemigroup):
            props.k_preserving(z4, {1}, "L")

    def test_subgroups_are_regular(self):
        s = t2()
        ids = t2_ids()
        assert props.regular_subsemigroup(s, {ids[(0, 1)], ids[(1, 0)]})

    def test_null_part_is_not_regular(self):
        s = core.validate_table(2, NULL2)
        res = props.regular_subsemigroup(s, {0, 1})
        assert res.value is False
        assert res.witness == {"a": 1}


class TestRetract:
    def test_identity_retraction(self):
        s = t2()
        assert props.retract(s, range(4)).value is True

    def test_group_of_t2_is_not_a_retract(self):
        s = t2()
        ids = t2_ids()
        res = props.retract(s, {ids[(0, 1)], ids[(1, 0)]})
        assert res.value is False

    def test_semilattice_retract_exists(self):
        s = core.validate_table(3, CHAIN3)
        res = props.retract(s, {0, 2})
        assert res.value is True
        theta = {int(k): v for k, v in res.witness.items()}
        assert theta[0] == 0 and theta[2] == 2 and theta[1] in (0, 2)
        for a in range(3):
            for b in range(3):
                assert theta[s.mul(a, b)] == s.mul(theta[a], theta[b])

    def test_cap_yields_inconclusive(self):
        s = t2()
        ids = t2_ids()
        res = props.retract(s, {ids[(0, 1)], ids[(1, 0)]}, cap=1)
        assert res.value is None
        assert res.status == "inconclusive"


class TestResultShape:
    def test_json_payload(self):
        res = props.stable(core.validate_table(2, Z2))
        payload = json.loads(json.dumps(res.to_json()))
        assert payload["value"] is True
        assert payload["method"] == "definition"


class TestSharedResults:
    def test_true_verdicts_are_shared_constants(self):
        one, other = t2(), core.validate_table(2, Z2)
        biact = random_biact_corpus(1, "shared-results")[0]
        whole = [lambda x, k=k: props.minimal_condition(x, k) for k in "LRJ"] + [
            props.left_stable, props.right_stable, props.stable, props.stable_char,
            props.l_periodic, props.r_periodic]
        semigroup = [props.group_bound,
                     lambda s: props.regular_subsemigroup(s, range(s.order)),
                     *(lambda s, k=k: props.k_preserving(s, range(s.order), k) for k in "LRJ")]
        for pred, xs in [(p, (one, other, biact)) for p in whole] + [(p, (one, other))
                                                                     for p in semigroup]:
            first = pred(xs[0])
            assert first.value is True and first.witness is None
            assert all(pred(x) is first for x in xs[1:])
        assert props.minimal_condition(one, "L") is not props.minimal_condition(one, "R")

    def test_results_refuse_assignment(self):
        s = t2()
        shared = props.stable(s)
        built = props.retract(s, {t2_ids()[(0, 1)], t2_ids()[(1, 0)]}, cap=1)
        for res in (shared, built):
            for name in ("value", "method", "witness"):
                with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                    setattr(res, name, None)
        assert shared.value is True and built.value is None

    def test_witnessed_results_are_built_per_call(self):
        s = core.validate_table(2, [[0, 0], [0, 1]])    # the min semilattice 0 < 1
        first = props.retract(s, {0})
        assert first.value is True and first.witness == {"0": 0, "1": 0}
        assert props.retract(s, {0}) is not first


class TestGreenMemo:
    """Forms 2-8 of ``left_stable_forms`` and ``stable_char`` are decided once
    per Green structure.  The test runs on a reset engine (``cold_engine``),
    so its hosts are built afresh and it cannot pass on what other tests
    left in the caches or in the objects' slots."""

    def test_kept_answers_match_fresh_ones_over_the_default_corpus(self, cold_engine,
                                                                   monkeypatch):
        from greenstone import biact as ba
        from greenstone.verify import Env, SuiteConfig

        env = Env(SuiteConfig())
        hosts = env.semigroups() + env.biacts()
        evaluated, real = [], props._relation_masks
        monkeypatch.setattr(props, "_relation_masks",
                            lambda gs, n: evaluated.append(gs) or real(gs, n))
        kept = [(props.left_stable_forms(x), props.stable_char(x)) for x in hosts]
        structures = {id(gs): gs for gs in map(green.green_structure, hosts)}
        # once per structure, and the hosts share structures
        assert sorted(map(id, evaluated)) == sorted(structures)
        assert len(structures) < len(hosts)

        for cache in (green._green_structure_cached, green._preorder_cached):
            cache.cache_clear()
        for x, (forms, char) in zip(hosts, kept):
            fresh = green._build(x.size, *ba.digraphs(x))
            assert _kept(fresh) == (None, None)
            assert forms == (bool(props.left_stable(x)),) + props._relation_forms(fresh)
            assert char == props._stable_char(fresh)

    def test_a_replaced_structure_keeps_no_memo(self):
        s = t2()
        gs = green.green_structure(s)
        forms, char = props.left_stable_forms(s), props.stable_char(s)
        assert _kept(gs) == (forms[1:], char)
        copy = replace(gs)
        assert _kept(copy) == (None, None) and copy == gs
        assert props._relation_forms(copy) == forms[1:] and props._stable_char(copy) == char
