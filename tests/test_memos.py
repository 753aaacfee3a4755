"""The engine's bounded memos (``core._Memo``) and the dict-free Green
structure.

Three memos share one type: the tuple intern ``core._shared`` and the
preorder and pair memos of ``green`` (which also count their hits).  Each
is a plain dict under a module-constant bound that evicts its oldest key
first; these tests hold each to its bound, its eviction order and its
uncached function.
"""

import gc
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from greenstone import core, green, props
from greenstone.verify import SuiteConfig, run_suite

_SRC = Path(__file__).resolve().parents[1] / "src"

_EMPTY4 = ((), (), (), ())


def _digraphs4():
    """Distinct 4-node digraphs, 65,536 of them."""
    subsets = [tuple(c) for r in range(5) for c in itertools.combinations(range(4), r)]
    return itertools.product(subsets, repeat=4)


# memo -> distinct keys in a fixed order, as many as wanted.  Each pair
# (left, no right edges) builds: the R-classes are single elements, so
# every egg-box cell of a D-class (an L-class) is filled.
MEMOS = {
    "core._shared": (core._shared, lambda: ((i, "memo-bound") for i in itertools.count())),
    "green._preorder_cached": (green._preorder_cached, _digraphs4),
    "green._green_structure_cached": (green._green_structure_cached,
                                      lambda: ((left, _EMPTY4) for left in _digraphs4())),
}


@pytest.fixture
def cleared():
    """Every memo empty before and after the test."""
    memos = [memo for memo, _ in MEMOS.values()]
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


class TestBounds:
    @pytest.mark.parametrize("name", MEMOS)
    def test_bound_and_oldest_first_eviction(self, name, cleared):
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

    def test_hits_and_misses_are_counted(self, cleared):
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
    def test_the_order_deque_follows_the_dict(self, name, cleared):
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
    def test_values_equal_the_uncached_functions_on_seed0(self, cleared, monkeypatch):
        assert run_suite("all", SuiteConfig(seed=0)).all_passed
        for name, (memo, _) in MEMOS.items():
            assert len(memo) > 100, name
        assert all(value == key for key, value in core._shared.items())
        assert all(value == green._preorder_data(len(key), key)
                   for key, value in green._preorder_cached.items())
        structures = list(green._green_structure_cached.items())
        # an uncached build: the preorder data computed afresh
        monkeypatch.setattr(green, "_preorder_cached",
                            lambda succ: green._preorder_data(len(succ), succ))
        for (left, right), gs in structures:
            assert gs == green._build(len(left), left, right), (left, right)

    def test_green_misses_are_the_builds_of_the_seed0_suite(self):
        # in a process of its own, so no object arrives with a structure
        # that an earlier test left in its slot
        script = (
            "from greenstone import green\n"
            "from greenstone.verify import SuiteConfig, run_suite\n"
            "builds, real = [], green._build\n"
            "green._build = lambda *a: builds.append(a) or real(*a)\n"
            "runs, data = [], green._preorder_data\n"
            "green._preorder_data = lambda *a: runs.append(a) or data(*a)\n"
            "assert run_suite('all', SuiteConfig(seed=0)).all_passed\n"
            "print(len(builds), green._green_structure_cached.cache_info().misses, len(runs))\n")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(_SRC)}).stdout
        assert out.split() == ["2366", "2366", "2338"]


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
