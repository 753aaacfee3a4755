"""Engine state for the tests.

The engine keeps nine process-wide caches: the tuple intern, the five
Green memos, and in ``enumeration`` the semigroup pool and the two action
tables.  An object's digraph pair and Green structure are kept on the
object (``biact.digraphs``), not in a cache.  ``reset_engine`` empties
all nine, ``cold_engine`` runs a test between two resets, and
``seed0_run`` runs the seed-0 claim suite once per session from a reset
engine, recording what the whole-suite oracle tests inspect.
"""

import sys
from types import SimpleNamespace

import pytest


def reset_engine():
    """Empty every module-level cache of the loaded ``greenstone`` modules:
    each object with a callable ``cache_clear``, classes left out (a memo
    class has the method too).  Returns the caches it emptied."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name != "greenstone" and not name.startswith("greenstone."):
            continue
        for obj in vars(module).values():
            if not isinstance(obj, type) and callable(getattr(obj, "cache_clear", None)):
                caches[id(obj)] = obj
    for cache in caches.values():
        cache.cache_clear()
    return list(caches.values())


@pytest.fixture
def cold_engine():
    """Every engine cache empty before and after the test."""
    reset_engine()
    yield
    reset_engine()


@pytest.fixture(scope="session")
def seed0_run():
    """The seed-0 claim suite, run once from a reset engine: its report,
    every Green build as (size, left, right, structure), the digraph of
    every preorder run, the six value-keyed memos as they stood at the end,
    and the pair memo's misses."""
    from greenstone import core, green
    from greenstone.verify import SuiteConfig, run_suite

    real_build, real_data = green._build, green._preorder_data
    builds, runs = [], []

    def build(pair):
        gs = real_build(pair)
        builds.append((len(pair[0]), *pair, gs))
        return gs

    def data(n, succ):
        runs.append(succ)
        return real_data(n, succ)

    reset_engine()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(green, "_build", build)
        mp.setattr(green, "_preorder_data", data)
        report = run_suite("all", SuiteConfig(seed=0))
    memos = {"core._shared": core._shared,
             "green._preorder_cached": green._preorder_cached,
             "green._green_structure_cached": green._green_structure_cached,
             "green._poset_cached": green._poset_cached,
             "green._meet_and_join_cached": green._meet_and_join_cached,
             "green._members_cached": green._members_cached}
    return SimpleNamespace(
        report=report, builds=builds, runs=runs,
        memos={name: dict(memo) for name, memo in memos.items()},
        misses=green._green_structure_cached.cache_info().misses)
