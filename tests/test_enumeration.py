import hashlib
import itertools
import json
import math
import random

import pytest

from greenstone import core, enumeration as en
from greenstone.errors import CapExceeded


# Test-local oracles: the census as it was before the orderly search, a
# labelled backtracking search with a full triple scan at every node,
# deduplicated by canonical_table, and the biact census deduplicated by
# the least relabeled (left, right) pair.


def _labelled_tables(n, cells=None):
    """Every associative n x n table, filling the cells in the given order."""
    cells = cells or [(a, b) for a in range(n) for b in range(n)]
    table = [[-1] * n for _ in range(n)]

    def consistent():
        for x in range(n):
            for y in range(n):
                xy = table[x][y]
                if xy < 0:
                    continue
                for z in range(n):
                    yz = table[y][z]
                    if yz < 0:
                        continue
                    left, right = table[xy][z], table[x][yz]
                    if left >= 0 and right >= 0 and left != right:
                        return False
        return True

    def fill(i):
        if i == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        a, b = cells[i]
        for v in range(n):
            table[a][b] = v
            if consistent():
                yield from fill(i + 1)
        table[a][b] = -1

    yield from fill(0)


def _biact_canonical(m, left, right):
    best = None
    for perm in itertools.permutations(range(m)):
        inv = [perm.index(i) for i in range(m)]
        lt = tuple(tuple(perm[row[a]] for a in inv) for row in left)
        rt = tuple(tuple(perm[right[a][t]] for t in range(len(right[0]))) for a in inv)
        if best is None or (lt, rt) < best:
            best = (lt, rt)
    return best


def _dedup_biacts(s, t, m):
    seen, out = set(), []
    for left in en._valid_left_actions(s, m):
        for right in en._valid_right_actions(t, m):
            if not all(right[left[s1][a]][t1] == left[s1][right[a][t1]]
                       for s1 in range(s.order) for a in range(m)
                       for t1 in range(t.order)):
                continue
            key = _biact_canonical(m, left, right)
            if key not in seen:
                seen.add(key)
                out.append((left, right))
    return out


def _filtered_left_actions(s, m):
    """Every left action of s on m points, each candidate table filtered
    by its own axiom loop, in ascending order."""
    out = []
    for flat in itertools.product(range(m), repeat=s.order * m):
        act = tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(s.order))
        if all(act[s1][act[s2][a]] == act[s.table[s1][s2]][a]
               for s1 in range(s.order) for s2 in range(s.order) for a in range(m)):
            out.append(act)
    return tuple(out)


def _filtered_right_actions(t, m):
    """Dually, every right action of t on m points, filtered directly
    rather than through the opposite semigroup."""
    out = []
    for flat in itertools.product(range(m), repeat=m * t.order):
        act = tuple(tuple(flat[a * t.order:(a + 1) * t.order]) for a in range(m))
        if all(act[act[a][t1]][t2] == act[a][t.table[t1][t2]]
               for a in range(m) for t1 in range(t.order) for t2 in range(t.order)):
            out.append(act)
    return tuple(out)


def _automorphism_count(n, table):
    """|Aut S|, asserting on the way that no relabeling is smaller."""
    count = 0
    for perm in itertools.permutations(range(n)):
        inv = [perm.index(i) for i in range(n)]
        relabeled = tuple(tuple(perm[table[a][b]] for b in inv) for a in inv)
        assert relabeled >= table
        count += relabeled == table
    return count


def brute_force_semigroup_count(n: int) -> int:
    """Independent oracle for the census: filter every table by a full
    triple scan, then count canonical forms.  Only sensible for n <= 3."""
    if n > 3:
        raise CapExceeded("the dumb oracle scans n^(n^2) tables; use n <= 3")
    seen: set[tuple] = set()
    for flat in itertools.product(range(n), repeat=n * n):
        table = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if core.scan_triples(n, table) is None:
            seen.add(en.canonical_table(n, table))
    return len(seen)


class TestSemigroupCensus:
    def test_counts_up_to_order_three(self):
        assert len(en.all_semigroups(1)) == 1
        assert len(en.all_semigroups(2)) == 5
        assert len(en.all_semigroups(3)) == 24

    def test_counts_match_the_dumb_oracle(self):
        for n in (1, 2, 3):
            assert len(en.all_semigroups(n)) == brute_force_semigroup_count(n)

    def test_order_four_count(self):
        assert len(en.all_semigroups(4)) == 188

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_census_matches_the_labelled_search(self, n):
        expected = sorted({en.canonical_table(n, t) for t in _labelled_tables(n)})
        assert [s.table for s in en.all_semigroups(n)] == expected

    @pytest.mark.parametrize("n, labelled", [(1, 1), (2, 8), (3, 113), (4, 3492)])
    def test_orbit_stabiliser_recovers_the_labelled_count(self, n, labelled):
        # OEIS A023814: each class stands for n!/|Aut S| labelled tables
        total = sum(math.factorial(n) // _automorphism_count(n, s.table)
                    for s in en.all_semigroups(n))
        assert total == labelled

    @pytest.mark.slow
    def test_order_five_census(self):
        # past the public cap: 1915 classes (OEIS A027851), each associative
        # and lex-least in its class, standing for 183732 labelled tables
        tables = list(en._orderly_tables(5))
        assert len(tables) == 1915
        assert tables == sorted(tables)
        assert all(core.scan_triples(5, t) is None for t in tables)
        assert sum(120 // _automorphism_count(5, t) for t in tables) == 183_732

    @pytest.mark.slow
    def test_order_four_labeled_count_is_order_insensitive(self):
        # a second search over the cells in reversed order must find the
        # same 3492 labeled tables; a pruning bug would skew one of them
        normal = sum(1 for _ in _labelled_tables(4))
        cells = [(a, b) for a in range(4) for b in range(4)][::-1]
        found = sum(1 for _ in _labelled_tables(4, cells))
        assert normal == found == 3492

    def test_cap(self):
        with pytest.raises(CapExceeded):
            en.all_semigroups(5)

    def test_census_members_are_canonical(self):
        rng = random.Random(1)
        for s in en.all_semigroups(3):
            assert en.canonical_table(3, s.table) == s.table
            perm = list(range(3))
            rng.shuffle(perm)
            shuffled = [[perm[s.table[perm.index(a)][perm.index(b)]]
                         for b in range(3)] for a in range(3)]
            assert en.canonical_table(3, shuffled) == s.table

    def test_no_two_census_members_isomorphic(self):
        census = en.all_semigroups(3)
        rng = random.Random(2)
        for _ in range(20):
            a, b = rng.sample(census, 2)
            assert core.find_isomorphism(a, b) is None


class TestBiactCensus:
    def test_point_carrier(self):
        triv = en.all_semigroups(1)[0]
        assert len(en.all_biacts(triv, triv, 1)) == 1

    def test_two_point_carrier_over_trivial_matches_oracle(self):
        triv = en.all_semigroups(1)[0]
        got = len(en.all_biacts(triv, triv, 2))

        # oracle: filter all pairs of self-maps by the axioms, dedupe by the
        # least relabeling
        maps = list(itertools.product((0, 1), repeat=2))
        valid = []
        for f in maps:
            if tuple(f[f[a]] for a in (0, 1)) != f:
                continue
            for g in maps:
                if tuple(g[g[a]] for a in (0, 1)) != g:
                    continue
                if all(g[f[a]] == f[g[a]] for a in (0, 1)):
                    valid.append((f, g))
        canon = set()
        for f, g in valid:
            keys = []
            for perm in ((0, 1), (1, 0)):
                inv = perm
                keys.append((tuple(perm[f[inv[a]]] for a in (0, 1)),
                             tuple(perm[g[inv[a]]] for a in (0, 1))))
            canon.add(min(keys))
        assert got == len(canon) == 4

    def test_census_over_z2_matches_direct_filter(self):
        z2 = core.validate_table(2, [[0, 1], [1, 0]])
        triv = en.all_semigroups(1)[0]
        got = len(en.all_biacts(z2, triv, 2))
        # oracle: all (left, right) table pairs filtered by the three axioms,
        # deduplicated by the least carrier relabeling
        canon = set()
        for flat in itertools.product((0, 1), repeat=4):
            act = (flat[:2], flat[2:])
            left_ok = all(act[s1][act[s2][a]] == act[(s1 + s2) % 2][a]
                          for s1 in (0, 1) for s2 in (0, 1) for a in (0, 1))
            if not left_ok:
                continue
            for g in itertools.product((0, 1), repeat=2):
                if tuple(g[g[a]] for a in (0, 1)) != g:
                    continue
                if not all(g[act[s][a]] == act[s][g[a]]
                           for s in (0, 1) for a in (0, 1)):
                    continue
                keys = []
                for perm in ((0, 1), (1, 0)):
                    keys.append((
                        tuple(tuple(perm[act[s][perm[a]]] for a in (0, 1))
                              for s in (0, 1)),
                        tuple(perm[g[perm[a]]] for a in (0, 1))))
                canon.add(min(keys))
        assert got == len(canon) == 5

    def test_caps(self):
        z4 = core.validate_table(4, [[(i + j) % 4 for j in range(4)] for i in range(4)])
        triv = en.all_semigroups(1)[0]
        with pytest.raises(CapExceeded):
            en.all_biacts(z4, triv, 2)
        with pytest.raises(CapExceeded):
            en.all_biacts(triv, triv, 4)

    @pytest.mark.parametrize("m", [0, -3])
    def test_empty_carrier_is_refused(self, m):
        # an empty carrier is no biact: the file format requires size >= 1
        triv = en.all_semigroups(1)[0]
        with pytest.raises(CapExceeded, match="at least 1"):
            en.all_biacts(triv, triv, m)

    def test_full_census_size_is_stable(self):
        # regression pin (self-derived): the whole exhaustive corpus used by
        # the verification suite
        import itertools as it
        pool = [s for n in (1, 2) for s in en.all_semigroups(n)]
        total = sum(len(en.all_biacts(s, t, m))
                    for s, t in it.product(pool, pool) for m in (1, 2, 3))
        assert total == 1065

    def test_action_lists_match_the_direct_filters(self):
        # the right actions come from the opposite's left actions, read by
        # columns; value and order must be those of the direct filter
        pool = [s for n in (1, 2) for s in en.all_semigroups(n)]
        for s in pool:
            for m in (1, 2, 3):
                assert en._valid_left_actions(s, m) == _filtered_left_actions(s, m)
                assert en._valid_right_actions(s, m) == _filtered_right_actions(s, m)

    def test_census_matches_the_canonical_key_dedup(self):
        pool = [s for n in (1, 2) for s in en.all_semigroups(n)]
        for s, t in itertools.product(pool, pool):
            for m in (1, 2, 3):
                got = [(b.left_action, b.right_action) for b in en.all_biacts(s, t, m)]
                assert got == _dedup_biacts(s, t, m)


class TestSamplers:
    def test_transformation_sampler_is_reproducible(self):
        a = en.random_transformation_semigroup(3, 2, 42)
        b = en.random_transformation_semigroup(3, 2, 42)
        assert a.table == b.table
        assert a.order <= 27

    def test_degree_cap(self):
        with pytest.raises(CapExceeded):
            en.random_transformation_semigroup(9, 1, 0)

    def test_random_subsemigroup_is_closed(self):
        s = en.random_transformation_semigroup(3, 2, 7)
        members = en.random_subsemigroup(s, 1)
        core.classify_subset(s, members, "subsemigroup")

    def test_random_biact_corpus_is_pinned(self):
        # recorded when the right- and left-transformation recipes were
        # written out separately; the one shared recipe makes the same draws
        from greenstone.formats import biact_to_dict
        corpus = en.random_biact_corpus(1000, 42)
        text = json.dumps([biact_to_dict(b) for b in corpus], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "aaad73d7ebbab3e3e36e36f87244d63daea09479d7d13c5a433d9b2142a83a55")
        recipes = {b.provenance.get("recipe") for b in corpus}
        assert {"right-transformation", "left-transformation"} <= recipes

    def test_random_biacts_are_reproducible_and_bounded(self):
        from greenstone.formats import biact_to_dict
        c1 = en.random_biact_corpus(60, 42)
        c2 = en.random_biact_corpus(60, 42)
        assert [biact_to_dict(b) for b in c1] == [biact_to_dict(b) for b in c2]
        for b in c1:
            assert b.left.order <= 4 and b.right.order <= 4 and b.size <= 6

    def test_pool_digraphs_are_frozen_once_per_pool_semigroup(self, monkeypatch):
        # the product draws take each pool semigroup's digraphs from one
        # frozen pair, not from a fresh ``_edges`` call per draw
        from collections import Counter

        from greenstone import biact as ba

        calls = []
        real = ba._edges
        monkeypatch.setattr(ba, "_edges", lambda x, *gens: calls.append(x) or real(x, *gens))
        en._pool_digraphs.cache_clear()
        pool = {id(s) for s in en.semigroup_pool()}
        corpus = en.random_biact_corpus(1000, 0)
        counts = Counter(id(x) for x in calls if id(x) in pool)
        assert sum(b.provenance["kind"] == "product" for b in corpus) > len(counts) > 0
        assert max(counts.values()) == 1
