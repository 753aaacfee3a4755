import copy
import itertools
import pickle
import random
import re

import pytest

from greenstone import biact as ba
from greenstone import core, green
from greenstone.enumeration import all_semigroups, random_biact_corpus, semigroup_pool
from greenstone.errors import (
    ActionAxiomViolation,
    BadEntry,
    NotAHomomorphism,
    NotAnIdeal,
    NotASubact,
    NotASubsemigroup,
    SizeLimitExceeded,
)
from greenstone.green import green_structure

from helpers import congruence, ideals_of

Z2 = [[0, 1], [1, 0]]


def t2():
    return core.generate_from_transformations(2, [(1, 0), (0, 0)])


def t2_ids():
    maps = t2().provenance["maps"]
    return {m: i for i, m in enumerate(maps)}


def biact_isomorphic(a: ba.FiniteBiact, b: ba.FiniteBiact) -> bool:
    """Carrier bijection commuting with both actions (same acting parts)."""
    if a.size != b.size or a.left.table != b.left.table or a.right.table != b.right.table:
        return False
    for perm in itertools.permutations(range(a.size)):
        ok = all(perm[a.left_action[s][x]] == b.left_action[s][perm[x]]
                 for s in range(a.left.order) for x in range(a.size))
        if ok and all(perm[a.right_action[x][t]] == b.right_action[perm[x]][t]
                      for x in range(a.size) for t in range(a.right.order)):
            return True
    return False


class TestValidation:
    def test_trivial(self):
        triv = core.validate_table(1, [[0]])
        b = ba.validate_biact(triv, triv, [[0]], [[0]])
        assert b.size == 1

    def test_regular_biact_of_t2(self):
        s = t2()
        b = ba.regular_biact(s)
        assert b.size == 4
        assert b.left_action == s.table and b.right_action == s.table

    def test_right_axiom_violation(self):
        z2 = core.validate_table(2, Z2)
        left = [[0, 1], [1, 0]]          # translation: fine
        right = [[0, 1], [0, 1]]         # a * t := t, breaks (at)t' = a(tt')
        with pytest.raises(ActionAxiomViolation) as exc:
            ba.validate_biact(z2, z2, left, right)
        assert exc.value.axiom == "right"

    def test_axiom_refusals_replay_and_match_the_three_loops(self):
        # the right axiom is checked as the opposite's left axiom on the
        # columns, so its triple is the first in the opposite's order: a
        # real violation, and the three loops' triple whenever it is the
        # only one; the left and mixed triples are the loops' own
        pool = [s for s in semigroup_pool() if s.order <= 3]
        rng = random.Random(32)
        kinds, single, moved = {}, 0, 0
        for _ in range(6000):
            s, t = rng.choice(pool), rng.choice(pool)
            m = rng.randrange(1, 4)
            left = [[rng.randrange(m) for _ in range(m)] for _ in range(s.order)]
            if rng.random() < 0.5:      # the identity action: the left axiom holds
                left = [list(range(m))] * s.order
            right = [[rng.randrange(m) for _ in range(t.order)] for _ in range(m)]
            got = ba.action_axiom_violation(s, t, left, right)
            want = _axiom_loops(s, t, left, right)
            kinds[got and got[0]] = kinds.get(got and got[0], 0) + 1
            if got is None or got[0] != "right":
                assert got == want
                continue
            assert want[0] == "right"
            a, t1, t2 = got[1]
            assert right[right[a][t1]][t2] != right[a][t.table[t1][t2]]
            bad = [(a, t1, t2) for a in range(m) for t1 in range(t.order)
                   for t2 in range(t.order)
                   if right[right[a][t1]][t2] != right[a][t.table[t1][t2]]]
            if len(bad) == 1:
                assert got == want
                single += 1
            moved += got != want
        assert all(kinds.get(k) for k in (None, "left", "right", "mixed")), kinds
        # with several violating triples the first found may differ
        assert single > 50 and moved > 0, (single, moved)

    def test_regular_green_matches_semigroup_green(self):
        for n in (1, 2, 3):
            for s in all_semigroups(n):
                gs = green_structure(s)
                gb = green_structure(ba.regular_biact(s))
                for k in ("L", "R", "J", "H", "D"):
                    assert gs.relation(k).class_of == gb.relation(k).class_of


def _axiom_loops(s, t, left, right):
    """The axiom check as three hand-written loops, before the right axiom
    was read through the opposite: an oracle for the left and mixed
    triples, and for the right one when it is the only one."""
    for s1 in range(s.order):
        for s2 in range(s.order):
            for a in range(len(right)):
                if left[s1][left[s2][a]] != left[s.table[s1][s2]][a]:
                    return ("left", (s1, s2, a))
    for a in range(len(right)):
        for t1 in range(t.order):
            for t2 in range(t.order):
                if right[right[a][t1]][t2] != right[a][t.table[t1][t2]]:
                    return ("right", (a, t1, t2))
    for s1 in range(s.order):
        for a in range(len(right)):
            for t1 in range(t.order):
                if right[left[s1][a]][t1] != left[s1][right[a][t1]]:
                    return ("mixed", (s1, a, t1))
    return None


def _subact_loops(a, mem):
    """The two closure loops ``is_subact`` ran before it shared the
    one-sided scan: an oracle for its witnesses."""
    for s in range(a.left.order):
        for x in mem:
            if a.left_action[s][x] not in mem:
                return ("left", s, x, a.left_action[s][x])
    for x in mem:
        for t in range(a.right.order):
            if a.right_action[x][t] not in mem:
                return ("right", x, t, a.right_action[x][t])
    return None


class TestDerivedBiacts:
    def test_ideal_biact_of_constants(self):
        s = t2()
        ids = t2_ids()
        b = ba.ideal_biact(s, {ids[(0, 0)], ids[(1, 1)]})
        assert b.size == 2

    def test_ideal_biact_of_everything_is_regular(self):
        s = t2()
        b = ba.ideal_biact(s, range(4))
        assert b.left_action == s.table

    def test_ideal_biact_requires_an_ideal(self):
        s = t2()
        ids = t2_ids()
        with pytest.raises(NotAnIdeal):
            ba.ideal_biact(s, {ids[(0, 1)]})

    def test_singleton_zero_ideal(self):
        s = core.adjoin(core.validate_table(2, Z2), "zero")
        b = ba.ideal_biact(s, {2})
        assert b.size == 1

    def test_ideal_biact_is_the_reindexing_loop(self):
        # the loop ideal_biact had of its own, kept as an oracle for the
        # restriction of S, read as its own biact, through Subact

        def loop(s, ideal):
            mem = sorted(set(ideal))
            idx = {a: i for i, a in enumerate(mem)}
            left = [[idx[s.table[x][a]] for a in mem] for x in range(s.order)]
            right = [[idx[s.table[a][x]] for x in range(s.order)] for a in mem]
            return ba.validate_biact(s, s, left, right, [s.labels[a] for a in mem])

        count = 0
        for s in (s for s in semigroup_pool() if s.order <= 3):
            for ideal in ideals_of(s):
                assert ba.ideal_biact(s, ideal) == loop(s, ideal)
                count += 1
        assert count > 50

    def test_revalidation_is_idempotent(self):
        b = ba.regular_biact(t2())
        again = ba.validate_biact(b.left, b.right, b.left_action, b.right_action,
                                  labels=b.labels)
        assert again.left_action == b.left_action
        assert again.right_action == b.right_action

    def test_relative_biact_t2_over_its_group(self):
        s = t2()
        ids = t2_ids()
        b = ba.relative_biact(s, {ids[(0, 1)], ids[(1, 0)]})
        assert b.size == 4 and b.left.order == 2

    def test_relative_biact_needs_closed_subset(self):
        s = core.validate_table(4, [[(i + j) % 4 for j in range(4)] for i in range(4)])
        with pytest.raises(NotASubsemigroup):
            ba.relative_biact(s, {1})

    def test_relative_biact_over_itself_is_regular(self):
        z2 = core.validate_table(2, Z2)
        rel = ba.relative_biact(z2, {0, 1})
        reg = ba.regular_biact(z2)
        assert rel.left_action == reg.left_action
        assert rel.right_action == reg.right_action


class TestReesQuotients:
    def test_collapse_everything(self):
        b = ba.regular_biact(t2())
        q = ba.biact_rees_quotient(b, range(4))
        assert q.size == 1

    def test_relative_rees_of_t2(self):
        s = t2()
        ids = t2_ids()
        q = ba.relative_rees(s, {ids[(0, 1)], ids[(1, 0)]})
        assert q.size == 3
        assert set(q.labels) == {"t00", "t11", "0"}

    def test_not_a_subact(self):
        b = ba.regular_biact(t2())
        ids = t2_ids()
        with pytest.raises(NotASubact):
            ba.biact_rees_quotient(b, {ids[(0, 1)]})

    def test_subact_parts_name_bad_members(self):
        # in the left-zero semigroup s * a = s, so {0} is not closed
        b = ba.regular_biact(core.validate_table(2, [[0, 0], [1, 1]]))
        for members, error in (({0}, NotASubact), ({5}, BadEntry)):
            x = ba.Subact(b, frozenset(members))
            for part in ("sub", "rees"):
                with pytest.raises(error):
                    getattr(x, part)

    def test_is_subact_refuses_ids_that_are_not_integers(self):
        # a bool equals 0 or 1 and a string compares with nothing, yet
        # neither is an element id
        b = ba.regular_biact(core.validate_table(3, [[0, 0, 0], [0, 1, 0], [0, 0, 2]]))
        for members, shown in (({0, True}, "True"), ({"x"}, "'x'")):
            with pytest.raises(BadEntry, match=f"member {shown} outside carrier"):
                ba.is_subact(b, members)
        assert ba.is_subact(b, {0, 1}) is None

    def test_is_subact_witnesses_match_the_closure_loops(self):
        hosts = [ba.regular_biact(s) for n in (1, 2, 3) for s in all_semigroups(n)]
        hosts += random_biact_corpus(150, "one-sided-scan")
        rng = random.Random(32)
        seen = set()
        for b in hosts:
            for _ in range(12):
                members = rng.sample(range(b.size), rng.randrange(b.size + 1))
                got = ba.is_subact(b, members)
                assert got == _subact_loops(b, frozenset(members)), (b, members)
                seen.add(got and got[0])
        assert seen == {None, "left", "right"}

    def test_unhashable_members_are_refused_by_name(self):
        # a list member is named before anything hashes it; a generator of
        # element ids is still read
        s = core.validate_table(2, Z2)
        b = ba.regular_biact(s)
        for call, refusal in (
                (lambda m: ba.is_subact(b, m), "member [1] outside carrier"),
                (lambda m: ba.biact_rees_quotient(b, m), "member [1] outside carrier"),
                (lambda m: ba.ideal_biact(s, m), "member [1] outside carrier"),
                (lambda m: ba.relative_rees(s, m), "member [1] outside the semigroup"),
                (lambda m: ba.subact_closure(b, m), "seed element [1] outside carrier")):
            with pytest.raises(BadEntry, match=re.escape(refusal)):
                call([0, [1]])
        assert ba.is_subact(b, (x for x in (0, 1))) is None
        assert ba.subact_closure(b, iter([0])).members == {0, 1}
        assert ba.ideal_biact(s, iter([0, 1])).size == 2

    def test_a_subset_that_is_not_iterable_is_refused_by_name(self):
        s = core.validate_table(2, [[0, 0], [1, 1]])
        b = ba.regular_biact(s)
        refusal = re.escape("members 5 are not an iterable of element ids")
        for call in (lambda m: ba.is_subact(b, m), lambda m: ba.subact_closure(b, m),
                     lambda m: ba.biact_rees_quotient(b, m), lambda m: ba.ideal_biact(s, m),
                     lambda m: ba.relative_rees(s, m)):
            with pytest.raises(BadEntry, match=refusal):
                call(5)
        assert ba.relative_rees(s, iter([0])).size == 2

    def test_subact_is_checked_once_for_both_parts(self, monkeypatch):
        calls = []
        real = ba.is_subact
        monkeypatch.setattr(ba, "is_subact", lambda a, m: calls.append(m) or real(a, m))
        b = ba.regular_biact(t2())
        x = ba.subact_closure(b, [0])
        assert x.sub.size == len(x.members) and x.rees.size == b.size - len(x.members) + 1
        assert calls == [x.members]

    def test_host_pair_is_computed_once_for_both_parts(self, monkeypatch):
        calls = []
        real = ba._edges
        monkeypatch.setattr(ba, "_edges", lambda x, *gens: calls.append(x) or real(x, *gens))
        b = ba.regular_biact(t2())
        x = ba.subact_closure(b, [0])
        assert green_structure(x.sub).size == len(x.members)
        assert green_structure(x.rees).size == b.size - len(x.members) + 1
        assert calls == [b]

    def test_empty_subact_adds_a_fresh_zero(self):
        b = ba.regular_biact(core.validate_table(2, Z2))
        q = ba.biact_rees_quotient(b, ())
        assert q.size == 3

    def test_agrees_with_collapse_congruence(self):
        # collapse congruence classes {a} and B give an isomorphic biact
        s = t2()
        b = ba.regular_biact(s)
        ids = t2_ids()
        members = frozenset({ids[(0, 0)], ids[(1, 1)]})
        rees = ba.biact_rees_quotient(b, members)
        blocks = [0 if x in members else x + 1 for x in range(b.size)]
        rho = congruence(b, blocks)
        collapsed, _ = core.quotient(b, rho)
        assert biact_isomorphic(rees, collapsed)


class TestProductAndClosure:
    def test_trivial_product(self):
        triv = core.validate_table(1, [[0]])
        assert ba.product_biact(triv, triv).size == 1

    def test_product_j_count_t2_squared(self):
        s = t2()
        prod = ba.product_biact(s, s)
        assert green_structure(prod).num_classes("J") == 6  # 3 L-classes x 2 R-classes

    def test_product_carrier_is_capped(self):
        def left_zero(n):
            return core.validate_table(n, [[i] * n for i in range(n)])

        # 4160 elements: one above the closure cap, refused before any table
        with pytest.raises(SizeLimitExceeded, match="orders 65 and 64.*cap of 4096"):
            ba.product_biact(left_zero(65), left_zero(64))
        # 4096 elements: at the cap, still built
        assert ba.product_biact(left_zero(64), left_zero(64)).size == core.DEFAULT_CLOSURE_CAP

    def test_subact_closure_empty(self):
        b = ba.regular_biact(t2())
        assert ba.subact_closure(b, ()).members == frozenset()

    def test_subact_closure_of_a_constant(self):
        b = ba.regular_biact(t2())
        ids = t2_ids()
        sub = ba.subact_closure(b, [ids[(0, 0)]])
        assert sub.members == frozenset({ids[(0, 0)], ids[(1, 1)]})

    def test_subact_closure_of_everything(self):
        b = ba.regular_biact(t2())
        assert ba.subact_closure(b, range(4)).members == frozenset(range(4))

    def test_subact_closure_names_a_seed_outside_the_carrier(self):
        b = ba.regular_biact(core.validate_table(2, [[0, 0], [1, 1]]))
        for bad in (7, -1):
            with pytest.raises(BadEntry, match=f"seed element {bad} outside carrier"):
                ba.subact_closure(b, [0, bad])


class TestPartsFromTheHost:
    def test_derived_parts_hold_no_tables_until_read(self, monkeypatch):
        # every part derived from a host takes its digraph pair from the
        # host's and fills its tables on first read; none is built through
        # ``_trusted_biact``
        s = t2()
        host = ba.regular_biact(s)
        ids = t2_ids()
        members = ba.subact_closure(host, [ids[(0, 0)]]).members
        rho = core.congruence_closure(host, [(ids[(0, 0)], ids[(1, 1)])])
        assert 1 < rho.num_blocks < host.size

        def refuse(*args):
            raise AssertionError("a derived part was built through _trusted_biact")

        monkeypatch.setattr(ba, "_trusted_biact", refuse)
        sub = ba.Subact(host, members)
        parts = [sub.sub, sub.rees, ba.biact_rees_quotient(host, members),
                 ba.ideal_biact(s, members), core.quotient(host, rho)[0],
                 ba.product_biact(s, s)]
        for part in parts:
            assert not {"left_action", "right_action"} & set(vars(part))
            assert {ba._FILL, ba._PAIR} <= set(vars(part))
        monkeypatch.undo()
        for part in parts:
            again = ba.validate_biact(part.left, part.right, part.left_action,
                                      part.right_action, part.labels, part.provenance)
            assert again == part and ba._FILL not in vars(part)


class TestOnePairHolder:
    """An object's digraph pair has one holder at a time: the object, in
    its ``_PAIR`` slot, until its Green structure is built, and the
    structure from then on; ``digraphs`` reads it from whichever holds it,
    and every derived constructor reads its host's pair there."""

    @staticmethod
    def _edges_calls(monkeypatch):
        calls = []
        for module in (ba, green):
            real = module._edges
            monkeypatch.setattr(module, "_edges", lambda x, *gens, real=real:
                                calls.append(x) or real(x, *gens))
        return calls

    def test_parts_of_analysed_hosts_freeze_no_pair(self, monkeypatch):
        s, t = t2(), core.validate_table(2, Z2)
        host = ba.regular_biact(s)
        ids = t2_ids()
        members = ba.subact_closure(host, [ids[(0, 0)]]).members
        rho = core.congruence_closure(host, [(ids[(0, 0)], ids[(1, 1)])])
        hosts = (s, t, host)
        for x in hosts:
            green_structure(x)
        calls = self._edges_calls(monkeypatch)
        sub = ba.Subact(host, members)
        parts = [sub.sub, sub.rees, ba.biact_rees_quotient(host, members),
                 core.quotient(host, rho)[0], ba.product_biact(s, t)]
        for x in hosts:
            assert ba.digraphs(x) is green_structure(x).pair and ba._PAIR not in vars(x)
        for part in parts:
            pair = ba.digraphs(part)
            assert vars(part)[ba._PAIR] is pair and green_structure(part).pair == pair
        assert calls == []

    def test_an_unanalysed_host_carries_its_pair_until_its_structure_is_built(
            self, monkeypatch, cold_engine):
        s = t2()
        host = ba.regular_biact(s)
        calls = self._edges_calls(monkeypatch)
        pair = ba.digraphs(host)
        assert calls == [host] and vars(host)[ba._PAIR] is pair
        sub = ba.subact_closure(host, [0])
        parts = [sub.sub, sub.rees, ba.product_biact(s, s)]
        assert ba.digraphs(host) is pair and calls == [host, s]
        # copies and pickles are rebuilt from the fields, without the pair,
        # and the pair takes no part in equality
        for twin in (copy.copy(host), copy.deepcopy(host), pickle.loads(pickle.dumps(host))):
            assert ba._PAIR not in vars(twin)
            assert twin == host and hash(twin) == hash(host) and repr(twin) == repr(host)
        # the cold pair memo builds from this pair, which the structure keeps
        gs = green_structure(host)
        assert ba._PAIR not in vars(host) and gs.pair is pair and ba.digraphs(host) is pair
        assert all(green_structure(p).size == p.size for p in parts)
        assert calls == [host, s]


def _two_loop_closure(a, seed):
    """Test-local oracle: the subact closure as it was, stepping the left
    action and then the right action of each new member."""
    members = set(seed)
    frontier = list(members)
    while frontier:
        fresh = []
        for x in frontier:
            for s in range(a.left.order):
                y = a.left_action[s][x]
                if y not in members:
                    members.add(y)
                    fresh.append(y)
            for t in range(a.right.order):
                y = a.right_action[x][t]
                if y not in members:
                    members.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(members)


def test_subact_closure_agrees_with_the_two_loop_closure():
    from greenstone.enumeration import random_biact_corpus
    for b in random_biact_corpus(200, "subact-closure"):
        seeds = [()] + [(x,) for x in range(b.size)] + list(
            itertools.combinations(range(b.size), 2))
        for seed in seeds:
            assert ba.subact_closure(b, seed).members == _two_loop_closure(b, seed)


class TestPullback:
    def test_identity_homs_change_nothing(self):
        z2 = core.validate_table(2, Z2)
        b = ba.regular_biact(z2)
        p = ba.pullback_biact(b, (z2, [0, 1]), (z2, [0, 1]))
        assert p.left_action == b.left_action and p.right_action == b.right_action

    def test_constant_hom_collapses_the_left_preorder(self):
        z2 = core.validate_table(2, Z2)
        b = ba.regular_biact(z2)
        lz2 = core.validate_table(2, [[0, 0], [1, 1]])
        p = ba.pullback_biact(b, (lz2, [0, 0]), (z2, [0, 1]))
        assert green_structure(b).num_classes("L") == 1
        assert green_structure(p).num_classes("L") == 2  # orbits became trivial

    def test_not_a_homomorphism(self):
        z2 = core.validate_table(2, Z2)
        b = ba.regular_biact(z2)
        with pytest.raises(NotAHomomorphism):
            ba.pullback_biact(b, (z2, [1, 0]), (z2, [0, 1]))

    def test_a_side_that_is_not_a_pair_is_refused_by_name(self):
        lz2 = core.validate_table(2, [[0, 0], [1, 1]])
        b = ba.regular_biact(lz2)
        ident = (lz2, [0, 1])
        for left, right, name, bad in ((5, 5, "h_left", 5), (ident, 5, "h_right", 5),
                                       (ident, (lz2,), "h_right", (lz2,)),
                                       ([lz2, [0, 1], 0], ident, "h_left", [lz2, [0, 1], 0])):
            with pytest.raises(BadEntry, match=re.escape(f"{name} {bad!r} is not a")):
                ba.pullback_biact(b, left, right)
        assert ba.pullback_biact(b, [lz2, [0, 1]], ident) == b
