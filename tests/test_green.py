import copy
import itertools
import pickle
from collections import Counter

import pytest

from greenstone import biact as ba
from greenstone import core, green
from greenstone.enumeration import all_semigroups, random_biact_corpus, semigroup_pool
from greenstone.errors import BadEntry, InvariantViolation, UnknownClass

from helpers import ideals_of, replace

LEFT_ZERO2 = [[0, 0], [1, 1]]
Z2 = [[0, 1], [1, 0]]


def t2():
    return core.generate_from_transformations(2, [(1, 0), (0, 0)])


def t3():
    return core.generate_from_transformations(3, [(1, 2, 0), (1, 0, 2), (0, 0, 2)])


def t2_ids():
    maps = t2().provenance["maps"]
    return {m: i for i, m in enumerate(maps)}


class TestClassData:
    def test_trivial_semigroup(self):
        assert green.class_counts(core.validate_table(1, [[0]])) == {
            "L": 1, "R": 1, "J": 1, "H": 1, "D": 1}

    def test_t2_counts(self):
        assert green.class_counts(t2()) == {"L": 3, "R": 2, "J": 2, "H": 3, "D": 2}

    def test_left_zero_counts(self):
        counts = green.class_counts(core.validate_table(2, LEFT_ZERO2))
        assert counts["L"] == 1 and counts["R"] == 2 and counts["J"] == 1

    def test_le_on_t2(self):
        s = t2()
        ids = t2_ids()
        c0, ident = ids[(0, 0)], ids[(0, 1)]
        assert green.le(s, c0, ident, "J")
        assert not green.le(s, ident, c0, "J")

    def test_le_is_reflexive_and_transitive(self):
        s = t2()
        gs = green.green_structure(s)
        for k in ("L", "R", "J"):
            for a in range(4):
                assert gs.le(a, a, k)
            for a in range(4):
                for b in range(4):
                    for c in range(4):
                        if gs.le(a, b, k) and gs.le(b, c, k):
                            assert gs.le(a, c, k)

    def test_class_numbering_deterministic(self):
        gs1 = green.green_structure(t2())
        gs2 = green.green_structure(t2())
        assert gs1.to_json() == gs2.to_json()


class TestEggbox:
    def test_t2_grids(self):
        s = t2()
        ids = t2_ids()
        gs = green.green_structure(s)
        top = gs.relation("D").class_of[ids[(0, 1)]]
        bottom = gs.relation("D").class_of[ids[(0, 0)]]
        top_grid = gs.eggbox(top)
        assert len(top_grid) == 1 and len(top_grid[0]) == 1
        assert set(top_grid[0][0]) == {ids[(0, 1)], ids[(1, 0)]}
        bottom_grid = gs.eggbox(bottom)
        assert len(bottom_grid) == 1 and len(bottom_grid[0]) == 2
        cells = {frozenset(cell) for cell in bottom_grid[0]}
        assert cells == {frozenset({ids[(0, 0)]}), frozenset({ids[(1, 1)]})}

    def test_trivial_grid(self):
        gs = green.green_structure(core.validate_table(1, [[0]]))
        assert gs.eggbox(0) == [[(0,)]]

    def test_unknown_class(self):
        gs = green.green_structure(core.validate_table(1, [[0]]))
        with pytest.raises(UnknownClass):
            gs.eggbox(5)

    def test_counting_check_rejects_what_the_grid_check_rejects(self):
        # arbitrary digraph pairs reach empty cells, which no finite biact
        # has; the build must refuse exactly those, naming the first one
        import random

        rng = random.Random("eggbox-count")
        outcomes = set()
        for _ in range(400):
            n = rng.randrange(1, 7)
            left, right = (tuple(tuple(sorted(rng.sample(range(n), rng.randrange(0, min(n, 2) + 1))))
                                 for _ in range(n)) for _ in range(2))
            try:
                green._build((left, right))
                got = None
            except InvariantViolation as exc:
                got = str(exc)
            assert got == _first_empty_cell(n, left, right), (left, right)
            outcomes.add(got is None)
        assert outcomes == {True, False}


def _first_empty_cell(n, left, right):
    """Test-local oracle: the grid check over every D-class in id order,
    as the message for its first empty (R, L) cell, or None."""
    l_of = green._preorder_data(n, left).class_of
    r_of = green._preorder_data(n, right).class_of
    d_of = list(range(n))           # D = the join of L and R, by relabelling
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(range(n), repeat=2):
            if (l_of[a] == l_of[b] or r_of[a] == r_of[b]) and d_of[a] != d_of[b]:
                low = min(d_of[a], d_of[b])
                d_of = [low if d in (d_of[a], d_of[b]) else d for d in d_of]
                changed = True
    for dcls, least in enumerate(sorted(set(d_of))):
        members = [x for x in range(n) if d_of[x] == least]
        cells = {(r_of[x], l_of[x]) for x in members}
        for r in sorted({r_of[x] for x in members}):
            for c in sorted({l_of[x] for x in members}):
                if (r, c) not in cells:
                    return f"empty egg-box cell (R{r}, L{c}) inside D-class {dcls}"
    return None


class TestUnknownIds:
    @pytest.mark.parametrize("k", green.RELATIONS)
    def test_class_members_out_of_range(self, k):
        gs = green.green_structure(t2())
        n = gs.num_classes(k)
        assert gs.class_members(k, n - 1) == gs.relation(k).classes[n - 1]
        for bad in (-1, n):
            with pytest.raises(UnknownClass):
                gs.class_members(k, bad)

    @pytest.mark.parametrize("k", green.PREORDERS)
    def test_class_le_out_of_range(self, k):
        gs = green.green_structure(t2())
        n = gs.num_classes(k)
        assert gs.class_le(n - 1, n - 1, k)
        for bad in (-1, n):
            with pytest.raises(UnknownClass):
                gs.class_le(bad, 0, k)
            with pytest.raises(UnknownClass):
                gs.class_le(0, bad, k)


class TestUnknownRelation:
    """A letter outside L/R/J names the preorders, not a bare KeyError."""

    @pytest.mark.parametrize("k", ["H", "D", "X"])
    def test_every_entry_point(self, k):
        s = t2()
        gs = green.green_structure(s)
        calls = [lambda: gs.le(0, 1, k), lambda: gs.covers(k),
                 lambda: gs.class_le(0, 0, k), lambda: green.le(s, 0, 1, k),
                 lambda: green.poset_dot(s, k)]
        for call in calls:
            with pytest.raises(ValueError, match="L, R, J"):
                call()

    @pytest.mark.parametrize("k", ["X", "l", ""])
    def test_relation_lookups_name_the_letter(self, k):
        gs = green.green_structure(core.validate_table(2, LEFT_ZERO2))
        calls = [lambda: gs.num_classes(k), lambda: gs.class_members(k, 0),
                 lambda: gs.same(0, 1, k)]
        for call in calls:
            with pytest.raises(ValueError, match=f"L, R, J, H, D; got {k!r}"):
                call()


class TestElementIds:
    @pytest.mark.parametrize("bad", [-1, 5, True, "0"])
    def test_le_names_an_id_outside_the_carrier(self, bad):
        s = core.validate_table(2, LEFT_ZERO2)
        for a, b in ((0, bad), (bad, 0)):
            with pytest.raises(BadEntry, match=f"element {bad!r} outside 0..1"):
                green.le(s, a, b, "L")
        assert green.le(s, 0, 1, "L") and green.le(s, 1, 0, "L")


def soundness_violations(x) -> list[str]:
    """Structural sanity of the computed Green data, an oracle read through
    the structure's public queries; empty when sound.

    Checks H = L meet R, the containments L, R, D inside J, antisymmetry
    of the class posets, and that reflexivity/transitivity of the le
    oracle agree with the class data.
    """
    gs = green.green_structure(x)
    n = gs.size
    issues = []
    for a in range(n):
        for b in range(n):
            if (gs.same(a, b, "H")
                    != (gs.same(a, b, "L") and gs.same(a, b, "R"))):
                issues.append(f"H != L meet R at ({a},{b})")
            for k in ("L", "R", "D"):
                if gs.same(a, b, k) and not gs.same(a, b, "J"):
                    issues.append(f"{k} not inside J at ({a},{b})")
            for k in green.PREORDERS:
                if gs.same(a, b, k) != (gs.le(a, b, k) and gs.le(b, a, k)):
                    issues.append(f"{k}-class disagrees with mutual le at ({a},{b})")
    # D = L o R = R o L, elementwise
    for a in range(n):
        for b in range(n):
            lr = any(gs.same(a, c, "L") and gs.same(c, b, "R") for c in range(n))
            rl = any(gs.same(a, c, "R") and gs.same(c, b, "L") for c in range(n))
            if lr != rl:
                issues.append(f"L o R != R o L at ({a},{b})")
            if lr != gs.same(a, b, "D"):
                issues.append(f"D != L o R at ({a},{b})")
    for k in green.PREORDERS:
        for c in range(gs.num_classes(k)):
            for e in range(gs.num_classes(k)):
                if c != e and gs.class_le(c, e, k) and gs.class_le(e, c, k):
                    issues.append(f"{k}-class poset has a 2-cycle ({c},{e})")
    return issues


class TestSoundness:
    def test_census_is_sound(self):
        for n in (1, 2, 3):
            for s in all_semigroups(n):
                assert soundness_violations(s) == []

    def test_sampled_biacts_are_sound(self):
        for b in random_biact_corpus(40, "green-soundness"):
            assert soundness_violations(b) == []

    def test_generator_mode_agrees(self):
        s = core.generate_from_transformations(3, [(1, 2, 0), (1, 0, 2), (0, 0, 2)])
        full = green.green_structure(s)
        gen = green.green_structure(s, use_generators=True)
        for k in ("L", "R", "J", "H", "D"):
            assert full.relation(k).class_of == gen.relation(k).class_of

    def test_generator_mode_requires_a_record(self):
        with pytest.raises(ValueError):
            green.green_structure(core.validate_table(2, Z2), use_generators=True)


def cache_corpus():
    """The order-<=3 pool with its ideal biacts and Rees quotients, a
    seeded random biact corpus, and T3."""
    out = []
    for s in semigroup_pool():
        if s.order > 3:
            continue
        out.append(s)
        for members in ideals_of(s):
            out.append(ba.ideal_biact(s, members))
            out.append(core.rees_quotient(s, members))
    out.extend(random_biact_corpus(200, "green-cache"))
    out.append(t3())
    return out


class TestGreenCache:
    def test_cached_structure_matches_a_fresh_build(self):
        # the cache may hand back a structure first built for another
        # object with the same digraphs; it must equal an uncached build
        for x in cache_corpus():
            green._preorder_cached.cache_clear()   # the oracle computes afresh
            fresh = green._build(green._edges(x))
            assert green.green_structure(x).to_json() == fresh.to_json()

    def test_generator_mode_matches_a_fresh_build(self):
        s = t3()
        green._preorder_cached.cache_clear()
        fresh = green._build(green._edges(s, s.generator_ids()))
        got = green.green_structure(s, use_generators=True)
        assert got.to_json() == fresh.to_json()
        assert got is green.green_structure(s, use_generators=True)

    def test_equal_digraphs_share_one_structure(self):
        # fresh objects hold no structure yet, so each lookup reaches the
        # cache; labels unique to this test keep them apart from the others
        def labels(tag, n):
            return [f"share-{tag}{i}" for i in range(n)]

        t2s = t2()
        one = core.validate_table(t2s.order, t2s.table, labels=labels("a", 4))
        other = core.validate_table(t2s.order, t2s.table, labels=labels("b", 4))
        group = core.validate_table(2, Z2)
        trivial = core.validate_table(1, [[0]])
        idle = [list(range(3))]
        # the identity action of two different semigroups on three points
        on_z2 = ba.validate_biact(group, trivial, idle * 2, [[e] for e in range(3)],
                                  labels=labels("c", 3))
        on_one = ba.validate_biact(trivial, group, idle, [[e, e] for e in range(3)],
                                   labels=labels("d", 3))
        for same in ([one, other, ba.regular_biact(one)], [on_z2, on_one]):
            green._green_structure_cached.cache_clear()
            first = green.green_structure(same[0])
            for x in same[1:]:
                assert green.green_structure(x) is first
            assert green._green_structure_cached.cache_info().misses == 1


class TestObjectSlot:
    def test_second_lookup_is_an_attribute_read(self):
        s = core.validate_table(t2().order, t2().table,
                                labels=[f"slot-{i}" for i in range(4)])
        first = green.green_structure(s)
        before = green._green_structure_cached.cache_info()
        assert green.green_structure(s) is first
        assert green.le(s, 0, 0, "L")
        after = green._green_structure_cached.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_equal_objects_get_equal_structures(self):
        one = core.validate_table(2, LEFT_ZERO2, provenance={"kind": "one"})
        other = core.validate_table(2, LEFT_ZERO2, provenance={"kind": "other"})
        assert one == other and one.provenance != other.provenance
        for cache in (green._green_structure_cached, green._preorder_cached):
            cache.cache_clear()   # rebuild for each
        gs_one = green.green_structure(one)
        for cache in (green._green_structure_cached, green._preorder_cached):
            cache.cache_clear()
        gs_other = green.green_structure(other)
        assert gs_one is not gs_other
        assert gs_one == gs_other

    def test_lookup_changes_no_identity(self):
        for x in (t2(), ba.regular_biact(t2()), random_biact_corpus(1, "slot")[0]):
            twin = type(x)(**{f: getattr(x, f) for f in x._fields})
            before = (hash(x), repr(x), x == twin, hash(twin) == hash(x))
            green.green_structure(x)
            assert (hash(x), repr(x), x == twin, hash(twin) == hash(x)) == before
            assert x == twin and hash(x) == hash(twin)

    def test_generator_mode_keeps_no_slot(self):
        # the generator digraphs of T3 differ from its all-element ones
        s = t3()
        gen = green.green_structure(s, use_generators=True)
        assert green._SLOT not in vars(s)
        full = green.green_structure(s)
        assert full is not gen and vars(s)[green._SLOT] is full


class TestPreorderMemo:
    def test_memo_matches_uncached_runs_over_the_seed0_suite(self, seed0_run):
        # every build of the suite takes its L, R and J data from the memo;
        # each must equal the oracle's data for its digraph, and the memo
        # must run once per distinct digraph
        assert seed0_run.report.all_passed and len(seed0_run.builds) > 1000
        runs, seen = seed0_run.runs, set()
        for _, left, right, gs in seed0_run.builds:
            both = tuple(tuple(sorted({*ls, *rs})) for ls, rs in zip(left, right))
            for k, succ in zip("LRJ", (left, right, both)):
                assert gs.relation(k) == _old_preorder(len(succ), succ), (k, succ)
                seen.add(succ)
        assert len(runs) == len(set(runs)) == len(seen)
        assert set(runs) == seen

    def test_structures_share_the_data_of_a_common_side(self, cold_engine):
        # Z2 acting on itself on the left, with a trivial right action, and
        # Z2 as its own regular biact: equal left digraphs, different right
        group = core.validate_table(2, Z2)
        trivial = core.validate_table(1, [[0]])
        one_side = ba.validate_biact(group, trivial, [[0, 1], [1, 0]], [[0], [1]],
                                     labels=["memo-a0", "memo-a1"])
        both = ba.regular_biact(group)
        gs_one, gs_both = green.green_structure(one_side), green.green_structure(both)
        assert gs_one is not gs_both
        assert gs_one.relation("L") is gs_both.relation("L")
        assert gs_one.relation("R") != gs_both.relation("R")


def _old_members(class_of):
    """Test-local class members: each class's elements in order."""
    classes = [[] for _ in set(class_of)]
    for x, c in enumerate(class_of):
        classes[c].append(x)
    return tuple(map(tuple, classes))


def _old_preorder(n, succ):
    """Test-local preorder data, computed with no engine code: each
    element's down-set by a search, classes by mutual reachability numbered
    by least member, c covering d when d is strictly below c and below no
    class strictly between, and the poset peeled layer by layer from its
    maximal classes (the layers are the height; what no layer takes is
    unconsumed)."""
    down = []
    for a in range(n):
        seen, todo = {a}, [a]
        while todo:
            for y in succ[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        down.append(seen)
    ids, class_of = {}, []
    for a in range(n):
        mutual = frozenset(b for b in down[a] if a in down[b])
        class_of.append(ids.setdefault(mutual, len(ids)))
    classes = _old_members(class_of)
    k = len(classes)
    reach = tuple(sum(1 << c for c in {class_of[y] for y in down[cls[0]]}) for cls in classes)
    strict = [reach[c] & ~(1 << c) for c in range(k)]
    above = [sum(1 << e for e in range(k) if strict[e] >> d & 1) for d in range(k)]
    covers = tuple((c, d) for c in range(k) for d in range(k)
                   if strict[c] >> d & 1 and not strict[c] & above[d])
    uppers = [[c for c, d in covers if d == e] for e in range(k)]
    left, height = set(range(k)), 0
    while True:
        tops = {c for c in left if not any(u in left for u in uppers[c])}
        if not tops:
            break
        left -= tops
        height += 1
    return green._PreorderData(tuple(class_of), classes, reach, covers, len(left), height)


def _old_build(size, left, right):
    """Test-local copy of ``green._build`` before it numbered H by cell and
    joined D over class ids, with no memo and no engine code but the grid
    check: the preorder data by ``_old_preorder``, H by normalizing the
    (L, R) pairs, D by a union-find over elements, the members by
    ``_old_members`` and the egg-box count by ``Counter``s."""
    ldat = _old_preorder(size, left)
    rdat = _old_preorder(size, right)
    jdat = _old_preorder(size, tuple(tuple(sorted({*ls, *rs}))
                                     for ls, rs in zip(left, right)))
    h_class_of = core._normalize_blocks(list(zip(ldat.class_of, rdat.class_of)))
    dsu = core._DSU(size)
    for cls in ldat.classes + rdat.classes:
        for x in cls[1:]:
            dsu.union(cls[0], x)
    d_class_of = dsu.blocks()
    hdat = green._Partition(h_class_of, _old_members(h_class_of))
    ddat = green._Partition(d_class_of, _old_members(d_class_of))
    gs = green.GreenStructure(
        size=size, relations=(ldat, rdat, jdat, hdat, ddat),
        left_stable=green._stable(left, jdat.class_of, ldat.class_of),
        right_stable=green._stable(right, jdat.class_of, rdat.class_of), pair=(left, right))
    count = {k: Counter(d_class_of[cls[0]] for cls in gs.relation(k).classes) for k in "RLH"}
    for dcls in range(len(ddat.classes)):
        if count["H"][dcls] != count["R"][dcls] * count["L"][dcls]:
            gs.eggbox(dcls)
    return gs


def _built_or_refused(build, *args):
    try:
        return build(*args)
    except InvariantViolation as exc:
        return str(exc)


class TestLeanBuild:
    """``_build`` numbers H by (L, R) cell, joins D over class ids and counts
    egg-box cells in lists; every field must be the old build's."""

    def test_random_digraph_pairs(self):
        import random

        rng = random.Random("lean-build")
        outcomes = set()
        for _ in range(400):
            n = rng.randrange(1, 8)
            left, right = (tuple(tuple(sorted(rng.sample(range(n), rng.randrange(min(n, 3) + 1))))
                                 for _ in range(n)) for _ in range(2))
            got = _built_or_refused(green._build, (left, right))
            assert got == _built_or_refused(_old_build, n, left, right), (left, right)
            outcomes.add(type(got))
        assert outcomes == {green.GreenStructure, str}

    def test_every_build_of_the_seed0_suite(self, seed0_run):
        assert seed0_run.report.all_passed and len(seed0_run.builds) > 1000
        for size, left, right, gs in seed0_run.builds:
            assert gs == _old_build(size, left, right), (left, right)


class TestPartMemos:
    """A build takes H and D from a memo per (L, R) partition pair, the
    class posets from one per reach tuple and the class members from one
    per partition (``green._meet_and_join_cached``, ``_poset_cached``,
    ``_members_cached``)."""

    # L-classes {0, 1}, {2} and R-classes {0}, {1, 2} in one D-class, whose
    # cell (R0, L1) is empty
    REFUSED = (3, ((1,), (0,), ()), ((), (2,), (1,)))

    def test_a_refused_pair_is_refused_again_and_never_kept(self, cold_engine):
        size, left, right = self.REFUSED
        message = _first_empty_cell(size, left, right)
        assert message == "empty egg-box cell (R0, L1) inside D-class 0"
        for attempt in (1, 2):
            with pytest.raises(InvariantViolation) as exc:
                green._build((left, right))
            assert str(exc.value) == message
            assert len(green._meet_and_join_cached) == 0
            assert green._meet_and_join_cached.cache_info().misses == attempt

    def test_structures_with_equal_partitions_share_h_and_d(self, cold_engine):
        # two left digraphs with the same classes (a 2-cycle, then a
        # 2-cycle with a loop), the same right digraph
        right = ((), ())
        one = green._build((((1,), (0,)), right))
        other = green._build((((0, 1), (0,)), right))
        assert one.relation("L") is not other.relation("L")
        assert one.relation("L").classes is other.relation("L").classes
        for k in "HD":
            assert one.relation(k) is other.relation(k)
        assert green._meet_and_join_cached.cache_info().misses == 1


class TestSharedTuples:
    """Equal tuples that the Green engine and the digraph derivations keep
    are one object (``core._shared``); values never change."""

    def test_equal_tuples_are_one_object_over_the_seed0_suite(self, seed0_run):
        # the recorded run started from a reset engine, the intern empty
        assert seed0_run.report.all_passed and len(seed0_run.builds) > 1000
        kept = []
        for _, left, right, gs in seed0_run.builds:
            kept.extend(left + right)                                     # successors
            kept.extend(m for k in green.RELATIONS for m in gs.relation(k).classes)  # members
            kept.extend(e for k in green.PREORDERS for e in gs.covers(k))   # cover pairs
        first: dict = {}
        strays = [t for t in kept if first.setdefault(t, t) is not t]
        assert strays == []

    def test_the_identity_in_place_of_the_intern_builds_equal_structures(
            self, seed0_run, cold_engine, monkeypatch):
        from greenstone.verify import SuiteConfig, run_suite

        real, plain = green._build, {}

        def build(pair):
            gs = plain[pair] = real(pair)
            return gs

        for module in (green, ba):
            monkeypatch.setattr(module, "_shared", lambda t: t)
        monkeypatch.setattr(green, "_build", build)
        plain_report = run_suite("all", SuiteConfig(seed=0))
        monkeypatch.undo()
        assert plain_report.to_json_text() == seed0_run.report.to_json_text()
        # both runs start from a reset engine, so they build the same pairs
        shared = {(left, right): gs for _, left, right, gs in seed0_run.builds}
        assert len(shared) > 1000 and shared.keys() == plain.keys()
        for pair, gs in shared.items():
            assert gs == plain[pair], pair

    def test_the_intern_is_bounded(self, cold_engine):
        first = (1, 2, 3)
        assert core._shared(first) is first
        assert core._shared(tuple([1, 2, 3])) is first
        for i in range(core.SHARED_TUPLES + 100):
            fresh = (i, "bound")
            assert core._shared(fresh) == fresh
            assert core._shared.cache_info().currsize <= core.SHARED_TUPLES
        assert core._shared.cache_info().currsize == core.SHARED_TUPLES


class TestCopies:
    def test_objects_with_a_structure_survive_copy_and_pickle(self):
        group = core.validate_table(2, Z2)
        trivial = core.validate_table(1, [[0]])
        table_built = ba.validate_biact(group, trivial, [[0, 1], [1, 0]], [[0], [1]])
        derived = ba.subact_closure(ba.regular_biact(t2()), [0]).sub
        for x in (t3(), table_built, derived):
            gs = green.green_structure(x)
            for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert twin == x and green.green_structure(twin) == gs
            for twin in (copy.deepcopy(gs), pickle.loads(pickle.dumps(gs))):
                assert twin == gs

    def test_every_value_class_survives_copy_and_pickle(self):
        # the slotted classes too, which a frozen class must rebuild itself
        # where the Python (3.10) has no object.__getstate__
        from greenstone import props

        s = t3()
        gs = green.green_structure(s)
        props.stable_char(s)                      # a structure with a memo
        ideal = next(c for c in gs.relation("J").classes if core.is_role(s, c, "ideal"))
        biact = ba.validate_biact(core.validate_table(2, Z2), core.validate_table(1, [[0]]),
                                  [[0, 1], [1, 0]], [[0], [1]])
        values = [s, core.classify_subset(s, ideal, "ideal"),
                  core.congruence_closure(s, [(0, 1)]), biact,
                  ba.subact_closure(ba.regular_biact(t2()), [0]).sub,
                  ba.subact_closure(biact, [0]), gs.relation("J"), gs, green.green_index(s, ideal),
                  props.stable(s), props.retract(s, ideal)]
        assert len({type(x) for x in values}) == 9
        for x in values:
            for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert type(twin) is type(x) and twin == x
        assert all(getattr(copy.copy(gs), name) is None for name in green.GreenStructure._KEPT)


class TestStructurePair:
    """A structure keeps the one-step digraph pair it was built from."""

    @staticmethod
    def _parts(b):
        """The sub and Rees quotient of a subact of the biact ``b`` and a
        block quotient of ``b``, each built from the pair of ``b``."""
        closed = ba.subact_closure(b, [b.size - 1])
        rho = core.congruence_closure(b, [(0, b.size - 1)])
        return [closed.sub, closed.rees, core.quotient(b, rho)[0]]

    def test_every_seed0_host_and_its_parts(self):
        from greenstone.verify import Env, SuiteConfig

        env = Env(SuiteConfig(seed=0))
        semigroups = env.semigroups()
        hosts = semigroups + env.biacts()
        parts = [p for b in env.biacts() + list(map(ba.regular_biact, semigroups))
                 for p in self._parts(b)]
        parts += [ba.product_biact(s, t) for s, t in itertools.product(semigroups[:8], repeat=2)]
        assert all(ba._PAIR in vars(p) for p in parts)
        for x in hosts + parts:
            # the structure first: a part's carried pair, before its tables fill
            gs = green.green_structure(x)
            assert gs.pair == ba._edges(x), x
        gs = green.green_structure(hosts[-1])
        for twin in (copy.copy(gs), copy.deepcopy(gs), pickle.loads(pickle.dumps(gs))):
            assert twin == gs and twin.pair == gs.pair
        other = replace(gs, pair=None)
        assert other == gs and hash(other) == hash(gs) and repr(other) == repr(gs)
        assert "pair" not in repr(gs)


class TestStabilityVerdict:
    def test_generator_mode_agrees_on_t3(self):
        s = t3()
        full = green.green_structure(s)
        gen = green.green_structure(s, use_generators=True)
        assert (gen.left_stable, gen.right_stable) == (full.left_stable, full.right_stable)

    def test_one_step_verdict_matches_reachability(self):
        # on arbitrary digraph pairs the test on single edges must equal
        # stability over whole reachability: f <=_K e and f J e imply f K e
        import random
        from greenstone.green import _preorder_data, _stable

        def le(d, a, b):
            return bool(d.reach[d.class_of[b]] >> d.class_of[a] & 1)

        rng = random.Random("stability-verdict")
        outcomes = set()
        for _ in range(300):
            n = rng.randrange(1, 7)
            left, right = ([sorted(rng.sample(range(n), rng.randrange(0, min(n, 2) + 1)))
                            for _ in range(n)] for _ in range(2))
            j = _preorder_data(n, [sorted(set(a) | set(b)) for a, b in zip(left, right)])
            for succ in (left, right):
                k = _preorder_data(n, succ)
                want = all(k.class_of[f] == k.class_of[e]
                           for e in range(n) for f in range(n)
                           if le(k, f, e) and j.class_of[f] == j.class_of[e])
                got = _stable(succ, j.class_of, k.class_of)
                assert got == want
                outcomes.add(got)
        assert outcomes == {True, False}

    def test_a_cross_edge_is_unstable(self):
        # 0 -> 1 on the left and 1 -> 0 on the right: one J-class, but two
        # L-classes and two R-classes
        gs = green._build((((1,), ()), ((), (0,))))
        assert gs.num_classes("J") == 1
        assert (gs.left_stable, gs.right_stable) == (False, False)


def _sccs(n, succ):
    """Iterative Tarjan as ``green`` ran it before its one iterator-driven
    pass; components are emitted successors-first."""
    index = [None] * n
    low = [0] * n
    onstack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [[root, 0]]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            descended = False
            sv = succ[v]
            for i in range(pi, len(sv)):
                w = sv[i]
                if index[w] is None:
                    work[-1][1] = i + 1
                    work.append([w, 0])
                    descended = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
    return comps


def _sccs_preorder_data(n, succ):
    """``green._preorder_data`` as it was over ``_sccs``, with per-class
    successor sets: the oracle of the one-pass kernel."""
    comps = _sccs(n, succ)
    comp_of = [0] * n
    for i, comp in enumerate(comps):
        for x in comp:
            comp_of[x] = i
    class_of = core._normalize_blocks(comp_of)
    classes = _old_members(class_of)
    k = len(comps)
    succ_cls = [set() for _ in range(k)]
    for a in range(n):
        ca = class_of[a]
        for b in succ[a]:
            cb = class_of[b]
            if cb != ca:
                succ_cls[ca].add(cb)
    reach = [0] * k
    for comp in comps:
        c = class_of[comp[0]]
        mask = 1 << c
        for d in succ_cls[c]:
            mask |= reach[d]
        reach[c] = mask
    strict = [reach[c] & ~(1 << c) for c in range(k)]
    covers = []
    for c in range(k):
        below = 0
        for e in green._bits(strict[c]):
            below |= strict[e]
        covers.extend((c, d) for d in green._bits(strict[c] & ~below))
    unconsumed, height = green._kahn(k, covers)
    return green._PreorderData(class_of, classes, tuple(reach), tuple(covers),
                               unconsumed, height)


class TestOnePassKernel:
    """``_preorder_data`` runs Tarjan as one iterator-driven pass and builds
    each class's reach mask from its members' successors; every field must
    be the ``_sccs`` kernel's."""

    @staticmethod
    def _same(succ):
        got = green._preorder_data(len(succ), succ)
        want = _sccs_preorder_data(len(succ), succ)
        assert got == want, succ
        assert (got.unconsumed, got.height) == (want.unconsumed, want.height)

    def test_every_digraph_of_the_seed0_suite(self, seed0_run):
        assert seed0_run.report.all_passed and len(seed0_run.runs) > 1000
        for succ in seed0_run.runs:
            self._same(succ)

    def test_the_t4_pair(self):
        s = core.generate_from_transformations(4, [(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)])
        left, right = ba.digraphs(s)
        for succ in (left, right, tuple(tuple(sorted({*ls, *rs}))
                                        for ls, rs in zip(left, right))):
            self._same(succ)

    def test_random_digraphs_with_cycles_and_deep_chains(self):
        import random

        rng = random.Random("one-pass")
        for _ in range(300):
            n = rng.randrange(1, 12)
            self._same(tuple(tuple(sorted(rng.sample(range(n), rng.randrange(min(n, 4) + 1))))
                             for _ in range(n)))
        # a long path and a long cycle: one class per node, or one in all
        n = 400
        self._same(tuple((x + 1,) for x in range(n - 1)) + ((),))
        self._same(tuple(((x + 1) % n,) for x in range(n)))


class TestReachabilityEngine:
    def test_matches_brute_force_on_random_digraphs(self):
        import random
        from greenstone.green import _preorder_data

        rng = random.Random(0)
        for _ in range(150):
            n = rng.randrange(1, 9)
            succ = [sorted(rng.sample(range(n), rng.randrange(0, n + 1)))
                    for _ in range(n)]
            data = _preorder_data(n, succ)
            reach = [set([i]) for i in range(n)]
            changed = True
            while changed:
                changed = False
                for a in range(n):
                    for b in succ[a]:
                        new = reach[b] | {b}
                        if not new <= reach[a]:
                            reach[a] |= new
                            changed = True
            for a in range(n):
                for b in range(n):
                    mutual = b in reach[a] and a in reach[b]
                    assert (data.class_of[a] == data.class_of[b]) == mutual
                    got = bool(data.reach[data.class_of[b]] >> data.class_of[a] & 1)
                    assert got == (a in reach[b])
            k = len(data.classes)
            strict = {(c, d) for c in range(k) for d in range(k)
                      if c != d and data.reach[c] >> d & 1}
            covers = {(c, d) for (c, d) in strict
                      if not any((c, e) in strict and (e, d) in strict
                                 for e in range(k))}
            assert set(data.covers) == covers
            # the class poset is acyclic, and its height is the largest set
            # of classes that the strict order ranks totally
            assert data.unconsumed == 0
            chains = [m for m in itertools.product((0, 1), repeat=k)
                      if all((c, d) in strict or (d, c) in strict
                             for c, d in itertools.combinations(
                                 [c for c in range(k) if m[c]], 2))]
            assert data.height == max(sum(m) for m in chains)


class TestGreenIndex:
    def test_whole_semigroup_has_index_one(self):
        s = t2()
        assert green.green_index(s, range(4)).index == 1

    def test_z2_over_trivial(self):
        z2 = core.validate_table(2, Z2)
        result = green.green_index(z2, {0})
        assert result.index == 2
        assert result.outside_h_classes == 1

    def test_t2_over_its_group(self):
        s = t2()
        ids = t2_ids()
        result = green.green_index(s, {ids[(0, 1)], ids[(1, 0)]})
        assert result.index == 3
        assert result.outside_h_classes == 2
        # the index is also the H-census of the relative Rees quotient
        assert result.quotient_l_classes == 3
        assert result.quotient_r_classes == 2

    def test_relative_classes_never_straddle(self):
        # exercised across the order-3 census with every subsemigroup
        from greenstone.verify import subsemigroups_of
        for s in all_semigroups(3):
            for members in subsemigroups_of(s):
                green.green_index(s, members)  # raises InvariantViolation on straddle

    def test_relative_class_structure(self):
        # every relative K-class refines an ambient K-class and lies wholly
        # inside or outside the subsemigroup: exhaustive through order 4,
        # sampled at order 5 (the census itself is capped at 4)
        from greenstone.biact import relative_biact
        from greenstone.enumeration import random_transformation_semigroup
        from greenstone.errors import SizeLimitExceeded
        from greenstone.verify import subsemigroups_of

        hosts = [s for n in (1, 2, 3, 4) for s in all_semigroups(n)]
        seed = 0
        while sum(1 for s in hosts if s.order == 5) < 5:
            try:
                s = random_transformation_semigroup(5, 1, f"order5:{seed}", cap=5)
            except SizeLimitExceeded:
                pass
            else:
                if s.order == 5:
                    hosts.append(s)
            seed += 1

        for s in hosts:
            ambient = green.green_structure(s)
            for members in subsemigroups_of(s):
                rel = green.green_structure(relative_biact(s, members))
                for k in ("L", "R", "J", "H", "D"):
                    for cls in rel.relation(k).classes:
                        inside = {x in members for x in cls}
                        assert len(inside) == 1
                        ambient_ids = {ambient.relation(k).class_of[x] for x in cls}
                        assert len(ambient_ids) == 1


class TestEmitters:
    def test_poset_dot_is_deterministic(self):
        s = t2()
        assert green.poset_dot(s, "J") == green.poset_dot(s, "J")
        assert "J0" in green.poset_dot(s, "J")

    def test_eggbox_dot(self):
        out = green.eggbox_dot(t2(), 0)
        assert out.startswith("digraph") and "<TABLE" in out

    def test_json_dump_shape(self):
        data = green.green_structure(t2()).to_json()
        assert data["size"] == 4
        assert set(data) == {"size", "L", "R", "J", "H", "D"}
        assert "covers" in data["J"] and "covers" not in data["H"]
