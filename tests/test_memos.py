"""The engine's bounded memos (``core._Memo``) and the dict-free Green
structure.

Six memos share one type: the tuple intern ``core._shared``, the
preorder and pair memos of ``green`` (which also count their hits) and the
three memos of a build's parts (class posets, H and D, class members).
Each is a plain dict under a module-constant bound that evicts its oldest
key first; these tests hold each to its bound, its eviction order and its
uncached function.

The bound and eviction tests run on a cold engine (``cold_engine``).  The
value tests read the memos and builds of the session's one recorded seed-0
suite run (``seed0_run``), which starts from a reset engine, so they run
in the same process as every other test.  ``TestReset`` holds
``reset_engine`` to every cache of the engine and to a fresh sampler pool.
"""

import gc
import itertools

import pytest

from greenstone import core, green, props

from conftest import reset_engine

_EMPTY4 = ((), (), (), ())


def _digraphs4():
    """Distinct 4-node digraphs, 65,536 of them."""
    subsets = [tuple(c) for r in range(5) for c in itertools.combinations(range(4), r)]
    return itertools.product(subsets, repeat=4)


def _partitions(n):
    """The partitions of ``0..n-1`` as ``class_of`` tuples, classes
    numbered by least member (restricted growth strings): Bell(n) of them."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield prefix
            return
        for c in range(top + 2):
            yield from grow(prefix + (c,), max(top, c))
    return grow((), -1)


# memo -> distinct keys in a fixed order, as many as wanted.  Each pair
# (left, no right edges) builds: the R-classes are single elements, so
# every egg-box cell of a D-class (an L-class) is filled; so is every
# (L, R) partition pair whose R-classes are single elements.  Any tuple of
# masks over its own positions is a reach tuple to ``_poset``.
MEMOS = {
    "core._shared": (core._shared, lambda: ((i, "memo-bound") for i in itertools.count())),
    "green._preorder_cached": (green._preorder_cached, _digraphs4),
    "green._green_structure_cached": (green._green_structure_cached,
                                      lambda: ((left, _EMPTY4) for left in _digraphs4())),
    "green._poset_cached": (green._poset_cached,
                            lambda: itertools.product(range(16), repeat=4)),
    "green._meet_and_join_cached": (green._meet_and_join_cached,
                                    lambda: ((of, tuple(range(9))) for of in _partitions(9))),
    "green._members_cached": (green._members_cached, lambda: _partitions(9)),
}


class TestBounds:
    @pytest.mark.parametrize("name", MEMOS)
    def test_bound_and_oldest_first_eviction(self, name, cold_engine):
        memo, keys = MEMOS[name]
        bound = memo.maxsize
        asked = list(itertools.islice(keys(), bound + 100))
        assert len(set(asked)) == len(asked)
        for key in asked:
            memo(key)
            assert len(memo) <= bound
        info = memo.cache_info()
        assert (info.misses, info.maxsize, info.currsize) == (bound + 100, bound, bound)
        assert info.hits == (0 if isinstance(memo, core._CountedMemo) else None)
        # the first hundred keys went first, in the order they came
        assert list(memo) == asked[100:]

    def test_the_bounds_are_the_module_constants(self):
        assert core._shared.maxsize == core.SHARED_TUPLES == 8192
        assert green._preorder_cached.maxsize == 3 * 4096
        assert green._green_structure_cached.maxsize == 4096
        assert green._poset_cached.maxsize == green.CLASS_POSETS == 3 * 4096
        assert green._meet_and_join_cached.maxsize == green.PARTITION_PAIRS == 4096
        assert green._members_cached.maxsize == green.MEMBER_LISTS == 5 * 4096

    def test_hits_and_misses_are_counted(self, cold_engine):
        key = (1, "memo-count")
        assert core._shared(key) is key
        assert core._shared((1, "memo-count")) is key
        # a lookup in C counts no hit
        assert core._shared.cache_info() == (None, 1, core.SHARED_TUPLES, 1)
        memo = green._preorder_cached
        first = memo(((0,), (1,)))
        assert memo(((0,), (1,))) is first
        assert memo.cache_info() == (1, 1, memo.maxsize, 1)
        core._shared.cache_clear()
        memo.cache_clear()
        assert core._shared.cache_info() == (None, 0, core.SHARED_TUPLES, 0)
        assert memo.cache_info() == (0, 0, memo.maxsize, 0)


class TestEviction:
    @pytest.mark.parametrize("name", MEMOS)
    def test_the_order_deque_follows_the_dict(self, name, cold_engine):
        """An evicting insert pops the oldest key off ``_order`` instead of
        walking the dict to its first key: the two stay in step through
        several rounds of evictions and a clear."""
        memo, keys = MEMOS[name]
        asked = list(itertools.islice(keys(), 3 * memo.maxsize // 2))
        for key in asked[:memo.maxsize // 2]:
            memo(key)
        memo.cache_clear()
        assert list(memo._order) == list(memo) == []
        for key in asked:
            memo(key)
        assert list(memo._order) == list(memo) == asked[-memo.maxsize:]
        assert memo(asked[-1]) is memo[asked[-1]]      # a hit inserts nothing
        assert len(memo._order) == memo.maxsize


class TestValues:
    def test_values_equal_the_uncached_functions_on_seed0(self, seed0_run, monkeypatch):
        assert seed0_run.report.all_passed
        memos = seed0_run.memos
        for name in MEMOS:
            assert len(memos[name]) > 100, name
        assert all(value == key for key, value in memos["core._shared"].items())
        # every part computed afresh: each memo of a build's parts in place
        # of its uncached function, the members first, which H and D read
        for name, fn in (("_members_cached", green._members),
                         ("_poset_cached", green._poset),
                         ("_meet_and_join_cached", green._meet_and_join)):
            monkeypatch.setattr(green, name, fn)
            assert all(value == fn(key) for key, value in memos["green." + name].items()), name
        assert all(value == green._preorder_data(len(key), key)
                   for key, value in memos["green._preorder_cached"].items())
        # an uncached build: the preorder data computed afresh
        monkeypatch.setattr(green, "_preorder_cached",
                            lambda succ: green._preorder_data(len(succ), succ))
        for (left, right), gs in memos["green._green_structure_cached"].items():
            assert gs == green._build((left, right)), (left, right)

    def test_green_misses_are_the_builds_of_the_seed0_suite(self, seed0_run):
        # from a reset engine, so no object arrives with a structure that
        # an earlier test left in its slot
        assert (len(seed0_run.builds), seed0_run.misses, len(seed0_run.runs)) == (2366, 2366, 2338)


class TestReset:
    def test_every_engine_cache_is_reached(self):
        from greenstone import enumeration as en

        en.semigroup_pool()
        core._shared((1, "reset"))
        caches = [core._shared, green._preorder_cached, green._green_structure_cached,
                  green._poset_cached, green._meet_and_join_cached, green._members_cached,
                  en._valid_left_actions, en._valid_right_actions, en.semigroup_pool]
        # nine caches and no other: an object's digraph pair is kept on the
        # object or its Green structure (``biact.digraphs``), not in a cache
        reached = {id(cache) for cache in reset_engine()}
        assert reached == {id(cache) for cache in caches} and len(caches) == 9
        assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)

    def test_the_pool_is_built_afresh(self):
        from greenstone import enumeration as en

        green.green_structure(en.semigroup_pool()[0])
        reset_engine()
        assert all(green._SLOT not in vars(s) for s in en.semigroup_pool())


def _dicts(obj):
    """The dicts among the objects ``obj`` refers to directly."""
    return [r for r in gc.get_referents(obj) if isinstance(r, dict)]


class TestDictFreeStructure:
    def test_a_structure_holds_no_dict(self):
        s = core.validate_table(3, [[0, 1, 2], [1, 1, 1], [2, 2, 2]])
        gs = green.green_structure(s)
        props.left_stable_forms(s)
        props.stable_char(s)                # answers kept on the structure
        assert all(getattr(gs, name) is not None for name in green.GreenStructure._KEPT)
        assert not hasattr(gs, "__dict__") and _dicts(gs) == []
        for k in green.RELATIONS:
            rel = gs.relation(k)
            assert not hasattr(rel, "__dict__") and _dicts(rel) == []

    def test_relation_reads_the_stored_tuple(self):
        gs = green.green_structure(core.validate_table(2, [[0, 0], [1, 1]]))
        assert len(gs.relations) == 5
        assert all(gs.relation(k) is r for k, r in zip(green.RELATIONS, gs.relations))
        with pytest.raises(ValueError, match="Green relations are L, R, J, H, D"):
            gs.relation("X")
