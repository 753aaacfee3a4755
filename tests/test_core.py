import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenstone import core
from greenstone.biact import regular_biact
from greenstone.errors import (
    BadEntry,
    DegreeMismatch,
    EmptyGeneratorSet,
    IncompatiblePartition,
    NonAssociative,
    NotAnIdeal,
    NotASubsemigroup,
    RoleViolation,
    SizeLimitExceeded,
)

from helpers import congruence, find_isomorphism, ideals_of

Z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
LEFT_ZERO2 = [[0, 0], [1, 1]]
# rock-paper-scissors: x*x = x, otherwise the winner wins
RPS = [[0, 1, 0], [1, 1, 2], [0, 2, 2]]
MEET2 = [[0, 0], [0, 1]]


def t2():
    return core.generate_from_transformations(2, [(1, 0), (0, 0)])


def t2_ids():
    maps = t2().provenance["maps"]
    return {m: i for i, m in enumerate(maps)}


class TestValidateTable:
    def test_trivial(self):
        s = core.validate_table(1, [[0]])
        assert s.order == 1

    def test_rock_paper_scissors_is_not_associative(self):
        with pytest.raises(NonAssociative) as exc:
            core.validate_table(3, RPS)
        a, b, c = exc.value.triple
        assert RPS[RPS[a][b]][c] != RPS[a][RPS[b][c]]

    def test_left_zero(self):
        s = core.validate_table(2, LEFT_ZERO2)
        assert s.mul(0, 1) == 0 and s.mul(1, 0) == 1

    def test_out_of_range_entry(self):
        with pytest.raises(BadEntry):
            core.validate_table(2, [[0, 2], [1, 0]])

    def test_zero_order_rejected(self):
        with pytest.raises(BadEntry):
            core.validate_table(0, [])

    def test_large_orders_use_the_generator_test(self):
        n = 100
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        s = core.validate_table(n, table)
        assert s.order == n
        # a corrupted entry must still be caught on the generator path
        table[17][3] = 5
        assert core.scan_triples(n, table) is not None
        with pytest.raises(NonAssociative):
            core.validate_table(n, table)

    def test_light_test_agrees_with_triple_scan(self):
        for table in (Z4, LEFT_ZERO2, MEET2):
            n = len(table)
            assert core.scan_triples(n, table) is None
            assert core.light_test(n, table, core.greedy_generators(n, table)) is None
        assert core.scan_triples(3, RPS) is not None
        gens = core.greedy_generators(3, RPS)
        assert core.light_test(3, RPS, gens) is not None

    @given(st.integers(2, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_nonassociative_witness_replays(self, n, data):
        table = [[data.draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
        try:
            core.validate_table(n, table)
        except NonAssociative as exc:
            a, b, c = exc.value.triple if hasattr(exc, "value") else exc.triple
            assert table[table[a][b]][c] != table[a][table[b][c]]


class TestTransformations:
    def test_identity_generator(self):
        s = core.generate_from_transformations(2, [(0, 1)])
        assert s.order == 1

    def test_full_transformation_monoid_degree2(self):
        assert t2().order == 4

    def test_degree3_generators_close_to_27(self):
        s = core.generate_from_transformations(
            3, [(1, 2, 0), (1, 0, 2), (0, 0, 2)])
        assert s.order == 27

    def test_closure_matches_saturation_oracle(self):
        # independent oracle: saturate the whole set under pairwise products
        gens = [(1, 2, 0), (1, 0, 2), (0, 0, 2)]
        members = set(tuple(g) for g in gens)
        while True:
            fresh = {core.compose(f, g) for f in members for g in members} - members
            if not fresh:
                break
            members |= fresh
        s = core.generate_from_transformations(3, gens)
        assert set(s.provenance["maps"]) == members

    def test_empty_generators(self):
        with pytest.raises(EmptyGeneratorSet):
            core.generate_from_transformations(2, [])

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            core.generate_from_transformations(2, [(0, 1, 2)])

    def test_cap(self):
        with pytest.raises(SizeLimitExceeded):
            core.generate_from_transformations(2, [(1, 0), (0, 0)], cap=3)

    def test_default_cap_refuses_t6(self):
        # 46,656 elements; the default cap stops the BFS at 4096 (checked
        # first: under a far larger cap this closure would fill a table of
        # 2.18 billion entries)
        assert core.DEFAULT_CLOSURE_CAP == 4096
        with pytest.raises(SizeLimitExceeded) as exc:
            core.generate_from_transformations(6, T6)
        assert exc.value.cap == 4096


T3 = [(1, 2, 0), (1, 0, 2), (0, 0, 2)]
T4 = [(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)]
T5 = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 0, 2, 3, 4)]
T6 = [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5), (0, 0, 2, 3, 4, 5)]


def _bfs_maps(gens):
    """The elements in BFS discovery order, generators first, by composing."""
    maps = list(dict.fromkeys(tuple(g) for g in gens))
    index = {m: i for i, m in enumerate(maps)}
    frontier = list(range(len(maps)))
    gen_maps = list(maps)
    while frontier:
        fresh = []
        for i in frontier:
            for g in gen_maps:
                prod = core.compose(maps[i], g)
                if prod not in index:
                    index[prod] = len(maps)
                    maps.append(prod)
                    fresh.append(index[prod])
        frontier = fresh
    return maps, index


def _oracle_row(maps, index, a):
    return tuple(index[core.compose(maps[a], m)] for m in maps)


def _oracle_closure(degree, gens):
    """Table, labels and provenance with every product composed and looked up."""
    maps, index = _bfs_maps(gens)
    table = tuple(_oracle_row(maps, index, a) for a in range(len(maps)))
    labels = tuple("t" + "".join(map(str, m)) for m in maps)
    provenance = {"kind": "transformations", "degree": degree,
                  "generators": [list(g) for g in gens],
                  "generator_ids": sorted({index[tuple(g)] for g in gens}),
                  "maps": tuple(maps)}
    return table, labels, provenance


def _seeded_generator_sets(count, seed):
    """Degree 1-5, 1-4 generators, with repeats and with products of others."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        degree = rng.randint(1, 5)
        k = rng.randint(1, 4 if degree < 5 else 2)   # keeps degree 5 small
        gens = [tuple(rng.randrange(degree) for _ in range(degree)) for _ in range(k)]
        if rng.random() < 0.3:
            gens.append(gens[0])
        if rng.random() < 0.3:
            gens.insert(rng.randrange(len(gens) + 1), core.compose(gens[0], gens[-1]))
        out.append((degree, gens))
    return out


class TestCayleyFill:
    """The table read off the right Cayley graph against composing every pair."""

    @pytest.mark.parametrize("gens", [T3, T4], ids=["T3", "T4"])
    def test_full_transformation_monoids(self, gens):
        s = core.generate_from_transformations(len(gens[0]), gens)
        assert (s.table, s.labels, s.provenance) == _oracle_closure(len(gens[0]), gens)

    def test_seeded_generator_sets(self):
        cases = _seeded_generator_sets(300, "cayley-fill")
        assert any(len(set(g)) < len(g) for _, g in cases)
        for degree, gens in cases:
            s = core.generate_from_transformations(degree, gens)
            assert (s.table, s.labels, s.provenance) == _oracle_closure(degree, gens), gens

    @pytest.mark.slow
    def test_t5_rows(self):
        s = core.generate_from_transformations(5, T5)
        assert s.order == 3125
        maps, index = _bfs_maps(T5)
        assert s.provenance["maps"] == tuple(maps)
        for a in random.Random(5).sample(range(s.order), 64):
            assert s.table[a] == _oracle_row(maps, index, a)


class TestAdjoin:
    def test_identity_on_trivial(self):
        s = core.adjoin(core.validate_table(1, [[0]]), "identity")
        assert s.order == 2
        assert s.identity() == 1

    def test_zero_on_left_zero(self):
        s = core.adjoin(core.validate_table(2, LEFT_ZERO2), "zero")
        assert s.order == 3
        assert all(s.mul(2, x) == 2 and s.mul(x, 2) == 2 for x in range(3))

    def test_fresh_identity_even_when_present(self):
        s = t2()
        bigger = core.adjoin(s, "identity")
        assert bigger.order == 5
        assert bigger.identity() == 4  # the fresh unit, not the old one

    def test_has_identity_predicate(self):
        assert t2().identity() is not None
        assert core.validate_table(2, LEFT_ZERO2).identity() is None


class TestClassifySubset:
    def test_constants_form_an_ideal_of_t2(self):
        ids = t2_ids()
        constants = {ids[(0, 0)], ids[(1, 1)]}
        role = core.classify_subset(t2(), constants, "ideal")
        assert role.members == frozenset(constants)

    def test_z4_subset_violation(self):
        s = core.validate_table(4, Z4)
        with pytest.raises(RoleViolation) as exc:
            core.classify_subset(s, {1, 3}, "subsemigroup")
        a, b, product = exc.value.witness
        assert {a, b} <= {1, 3}
        assert s.mul(a, b) == product and product not in {1, 3}

    def test_whole_set_is_a_bi_ideal(self):
        for table in (Z4, LEFT_ZERO2, MEET2):
            s = core.validate_table(len(table), table)
            core.classify_subset(s, range(s.order), "bi-ideal")

    def test_members_that_are_not_element_ids_are_refused_by_name(self):
        # a bool equals 0 or 1 and a float hashes as an integer, yet neither
        # is an element id; a string compares with no id
        s = core.validate_table(4, Z4)
        for members, shown in (([True], "True"), ([1.0], "1.0"), (["a"], "'a'"),
                               (["a", 1], "'a'")):
            refusal = re.escape(f"member {shown} outside the semigroup")
            for call in (lambda: core.classify_subset(s, members, "bi-ideal"),
                         lambda: core.is_role(s, members, "ideal"),
                         lambda: core.subsemigroup(s, members),
                         lambda: core.rees_quotient(s, members)):
                with pytest.raises(BadEntry, match=refusal):
                    call()
        assert core.is_role(s, [0], "subsemigroup")

    def test_unhashable_members_are_refused_by_name(self):
        # a list member is named before anything hashes it; a generator of
        # element ids is still read
        s = core.validate_table(4, Z4)
        refusal = re.escape("member [1] outside the semigroup")
        for call in (lambda m: core.classify_subset(s, m, "ideal"),
                     lambda m: core.subsemigroup(s, m),
                     lambda m: core.rees_quotient(s, m)):
            with pytest.raises(BadEntry, match=refusal):
                call([0, [1]])
        assert core.classify_subset(s, (x for x in (0, 2)), "subsemigroup").members == {0, 2}
        assert core.subsemigroup(s, iter([0, 2]))[1] == (0, 2)

    def test_a_subset_that_is_not_iterable_is_refused_by_name(self):
        s = core.validate_table(2, LEFT_ZERO2)
        refusal = re.escape("members 5 are not an iterable of element ids")
        for call in (lambda m: core.classify_subset(s, m, "ideal"),
                     lambda m: core.subsemigroup(s, m),
                     lambda m: core.rees_quotient(s, m)):
            with pytest.raises(BadEntry, match=refusal):
                call(5)

    @pytest.mark.parametrize("role", core._ROLES)
    def test_witnesses_match_the_per_role_loops(self, role):
        # the one-sided closure scan gives the witness the role's own loop
        # gave, over every subset of the census and random subsets of T3
        from greenstone.enumeration import all_semigroups
        hosts = [(s, range(1 << s.order)) for n in (1, 2, 3, 4) for s in all_semigroups(n)]
        t3 = core.generate_from_transformations(3, [(1, 2, 0), (1, 0, 2), (0, 0, 2)])
        rng = random.Random(32)
        hosts.append((t3, [rng.getrandbits(t3.order) for _ in range(300)]))
        checked = refused = 0
        for s, masks in hosts:
            for mask in masks:
                members = [x for x in range(s.order) if mask >> x & 1]
                want = _role_witness(s, frozenset(members), role)
                try:
                    core.classify_subset(s, members, role)
                    got = None
                except RoleViolation as exc:
                    got = exc.witness
                    refused += 1
                assert got == want, (s.table, members)
                checked += 1
        assert refused and refused < checked

    def test_role_containments(self):
        # every ideal is a one-sided ideal and a bi-ideal, across the census
        from greenstone.enumeration import all_semigroups
        for s in [t2()] + all_semigroups(3):
            for members in itertools.chain.from_iterable(
                    itertools.combinations(range(s.order), r)
                    for r in range(1, s.order + 1)):
                if core.is_role(s, members, "ideal"):
                    for role in ("left-ideal", "right-ideal", "bi-ideal"):
                        assert core.is_role(s, members, role)
                for one_sided in ("left-ideal", "right-ideal"):
                    if core.is_role(s, members, one_sided):
                        assert core.is_role(s, members, "bi-ideal")


def _role_witness(s, mem, role):
    """The closure loops ``classify_subset`` ran role by role before they
    shared one scan: an oracle for its witnesses."""
    t = s.table
    if role == "subsemigroup":
        for a in mem:
            for b in mem:
                if t[a][b] not in mem:
                    return (a, b, t[a][b])
    if role in ("left-ideal", "ideal"):
        for x in range(s.order):
            for a in mem:
                if t[x][a] not in mem:
                    return (x, a, t[x][a])
    if role in ("right-ideal", "ideal"):
        for a in mem:
            for x in range(s.order):
                if t[a][x] not in mem:
                    return (a, x, t[a][x])
    if role == "bi-ideal":
        for a in mem:
            for b in mem:
                if t[a][b] not in mem:
                    return (a, b, t[a][b])
                for u in range(s.order):
                    p = t[t[a][u]][b]
                    if p not in mem:
                        return (a, u, b, p)
    return None


class TestCongruence:
    def test_empty_pairs_is_identity(self):
        s = core.validate_table(4, Z4)
        rho = core.congruence_closure(s, [])
        assert rho.num_blocks == 4

    def test_z4_pair_02(self):
        s = core.validate_table(4, Z4)
        rho = core.congruence_closure(s, [(0, 2)])
        assert rho.blocks == (0, 1, 0, 1)

    def test_left_zero_collapses(self):
        s = core.validate_table(2, LEFT_ZERO2)
        rho = core.congruence_closure(s, [(0, 1)])
        assert rho.num_blocks == 1

    def test_pairs_that_are_not_iterable_are_refused_by_name(self):
        s = core.validate_table(2, LEFT_ZERO2)
        for x in (s, regular_biact(s)):
            with pytest.raises(BadEntry, match=re.escape("congruence pairs 5 are not an iterable")):
                core.congruence_closure(x, 5)

    def test_incompatible_partition_rejected(self):
        s = core.validate_table(4, Z4)
        with pytest.raises(IncompatiblePartition):
            core.quotient(s, core.Congruence((0, 0, 1, 1), 4))  # {0,1},{2,3} not compatible

    @pytest.mark.parametrize("pair", [(0, -1), (0, 5), (-2, 1), (2, 0), (True, 0)])
    def test_pair_outside_the_carrier_is_named(self, pair):
        # -1 used to read as the last element and 5 raised a bare IndexError
        b = regular_biact(core.validate_table(2, LEFT_ZERO2))
        with pytest.raises(BadEntry, match=re.escape(repr(pair))):
            core.congruence_closure(b, [(0, 1), pair])

    @pytest.mark.parametrize("item", [(0,), (0, 1, 2), 5], ids=["one", "three", "int"])
    def test_malformed_pair_is_named(self, item):
        # these used to raise a bare ValueError or TypeError from unpacking
        b = regular_biact(core.validate_table(2, LEFT_ZERO2))
        with pytest.raises(BadEntry, match=re.escape(repr(item))):
            core.congruence_closure(b, [(0, 1), item])

    def test_closure_is_the_least_congruence(self):
        # oracle: enumerate every partition of a 3-element carrier, keep the
        # compatible ones, and intersect those containing the seed pair
        from greenstone.enumeration import all_semigroups

        def partitions3():
            return [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

        for s in all_semigroups(3):
            congruences = []
            for blocks in partitions3():
                if core.congruence_violation(s, blocks) is None:
                    congruences.append(blocks)
            for a in range(3):
                for b in range(a + 1, 3):
                    containing = [c for c in congruences if c[a] == c[b]]
                    # meet: x ~ y iff every containing congruence relates them
                    least = tuple(
                        min(j for j in range(3)
                            if all(c[i] == c[j] for c in containing))
                        for i in range(3))
                    least = core._normalize_blocks(least)
                    got = core.congruence_closure(s, [(a, b)]).blocks
                    assert got == least, (s.table, a, b)


# Test-local oracle: the translations as they were before they became the
# action rows and columns, one lambda per map, a semigroup's left and right
# translations interleaved, with the closure and the violation scan that
# called them.


def _lambda_translations(x):
    from greenstone.biact import FiniteBiact
    if isinstance(x, core.FiniteSemigroup):
        t = x.table
        fns = []
        for s in range(x.order):
            fns.append(lambda a, s=s: t[s][a])
            fns.append(lambda a, s=s: t[a][s])
        return fns
    assert isinstance(x, FiniteBiact)
    fns = []
    for s in range(x.left.order):
        fns.append(lambda a, s=s: x.left_action[s][a])
    for t_ in range(x.right.order):
        fns.append(lambda a, t_=t_: x.right_action[a][t_])
    return fns


def _lambda_closure(x, pairs):
    fns = _lambda_translations(x)
    dsu = core._DSU(x.size)
    work = [(a, b) for a, b in pairs if dsu.union(a, b)]
    while work:
        a, b = work.pop()
        for f in fns:
            fa, fb = f(a), f(b)
            if dsu.union(fa, fb):
                work.append((fa, fb))
    return dsu.blocks()


def _lambda_violation(x, blocks):
    classes = {}
    for e, b in enumerate(blocks):
        classes.setdefault(b, []).append(e)
    fns = _lambda_translations(x)
    for members in classes.values():
        rep = members[0]
        for other in members[1:]:
            for f in fns:
                if blocks[f(rep)] != blocks[f(other)]:
                    return (rep, other, f(rep), f(other))
    return None


def _partitions(n):
    """Every partition of n points as a block id per point, numbered by
    least member."""
    def grow(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(used + 1):
            yield from grow(prefix + [b], max(used, b + 1))
    yield from grow([], 0)


def _census_semigroups():
    from greenstone.enumeration import all_semigroups
    return [s for n in (1, 2, 3) for s in all_semigroups(n)]


def _biact_corpus():
    from greenstone.enumeration import all_biacts, all_semigroups, random_biact_corpus
    small = [s for n in (1, 2) for s in all_semigroups(n)]
    census = [b for s in small for t in small for m in (1, 2, 3)
              for b in all_biacts(s, t, m)]
    return census + random_biact_corpus(200, "translations")


class TestTranslations:
    def test_maps_are_action_rows_then_columns(self):
        s = core.validate_table(3, [[0, 0, 0], [0, 1, 0], [2, 2, 2]])
        maps = core._translations(s)
        assert maps[:3] == list(s.table)
        assert maps[3:] == [tuple(s.table[a][t] for a in range(3)) for t in range(3)]

    def test_closure_agrees_with_the_lambda_oracle(self):
        for x in _census_semigroups() + _biact_corpus():
            assert core.congruence_closure(x, []).blocks == _lambda_closure(x, [])
            for a, b in itertools.combinations(range(x.size), 2):
                got = core.congruence_closure(x, [(a, b)]).blocks
                assert got == _lambda_closure(x, [(a, b)]), (x, a, b)

    def test_biact_violation_agrees_with_the_lambda_oracle(self):
        # a biact's maps were already rows before columns: same witness
        for x in _biact_corpus():
            for blocks in _partitions(x.size):
                assert core.congruence_violation(x, blocks) == \
                    _lambda_violation(x, blocks), (x, blocks)

    def test_semigroup_names_the_witness_of_its_regular_biact(self):
        from greenstone.biact import regular_biact
        for s in _census_semigroups():
            reg = regular_biact(s)
            for blocks in _partitions(s.order):
                got = core.congruence_violation(s, blocks)
                assert got == core.congruence_violation(reg, blocks), (s.table, blocks)
                assert (got is None) == (_lambda_violation(s, blocks) is None)

    def test_semigroup_witness_reads_rows_before_columns(self):
        # the interleaved lambdas named the right translation by 0 first
        s = core.validate_table(3, [[0, 0, 0], [0, 1, 0], [2, 2, 2]])
        assert _lambda_violation(s, (0, 1, 1)) == (1, 2, 0, 2)
        assert core.congruence_violation(s, (0, 1, 1)) == (1, 2, 1, 0)


class TestQuotient:
    def test_identity_congruence_gives_isomorphic_copy(self):
        s = core.validate_table(4, Z4)
        q, proj = core.quotient(s, core.congruence_closure(s, []))
        assert find_isomorphism(s, q) is not None
        assert list(proj) == [0, 1, 2, 3]

    def test_z4_mod_two(self):
        s = core.validate_table(4, Z4)
        q, _ = core.quotient(s, core.congruence_closure(s, [(0, 2)]))
        z2 = core.validate_table(2, [[0, 1], [1, 0]])
        assert find_isomorphism(q, z2) is not None

    def test_full_congruence(self):
        s = core.validate_table(4, Z4)
        q, _ = core.quotient(s, core.congruence_closure(s, [(0, 1)]))
        assert q.order == 1

    @pytest.mark.parametrize("blocks", [(0, 0, 1), (0,), ()])
    def test_blocks_of_the_wrong_length_are_refused(self, blocks):
        # a congruence whose blocks disagree with its size used to raise a
        # bare IndexError, on a semigroup and on a biact alike
        s = core.validate_table(2, LEFT_ZERO2)
        rho = core.Congruence(blocks=blocks, size=2, over=s)
        for x in (s, regular_biact(s)):
            with pytest.raises(IncompatiblePartition) as err:
                core.quotient(x, rho)
            assert err.value.witness == ("size", len(blocks), 2)

    @pytest.mark.parametrize("blocks,biact", [((1, 1), False), ((1, 1), True), ((0, 2), False)],
                             ids=["semigroup", "biact", "gap"])
    def test_non_canonical_blocks_are_refused(self, blocks, biact):
        # these used to yield a two-element "quotient" with projection
        # (1, 1), on a semigroup and on a biact, and an order-3 table
        s = core.validate_table(2, LEFT_ZERO2)
        x = regular_biact(s) if biact else s
        with pytest.raises(IncompatiblePartition) as err:
            core.quotient(x, core.Congruence(blocks=blocks, size=2, over=x))
        assert err.value.witness == ("blocks", blocks, core._normalize_blocks(blocks))

    def test_projection_is_a_homomorphism(self):
        s = t2()
        for pair in itertools.combinations(range(4), 2):
            rho = core.congruence_closure(s, [pair])
            q, proj = core.quotient(s, rho)
            for a in range(4):
                for b in range(4):
                    assert proj[s.mul(a, b)] == q.mul(proj[a], proj[b])


class TestReesQuotient:
    def test_collapse_everything(self):
        s = core.validate_table(4, Z4)
        q = core.rees_quotient(s, range(4))
        assert q.order == 1

    def test_t2_by_constants(self):
        s = t2()
        ids = t2_ids()
        q = core.rees_quotient(s, {ids[(0, 0)], ids[(1, 1)]})
        assert q.order == 3
        swap = q.labels.index("t10")
        ident = q.labels.index("t01")
        assert q.mul(swap, swap) == ident
        zero = q.order - 1
        assert all(q.mul(zero, x) == zero for x in range(3))

    def test_semilattice_by_bottom(self):
        s = core.validate_table(2, MEET2)
        q = core.rees_quotient(s, {0})
        assert q.order == 2
        assert find_isomorphism(q, s) is not None

    def test_not_an_ideal(self):
        s = t2()
        ids = t2_ids()
        with pytest.raises(NotAnIdeal):
            core.rees_quotient(s, {ids[(0, 1)]})

    def test_agrees_with_collapse_congruence(self):
        # the quotient by the congruence with classes {a} and I is isomorphic
        s = t2()
        ids = t2_ids()
        ideal = {ids[(0, 0)], ids[(1, 1)]}
        rees = core.rees_quotient(s, ideal)
        blocks = [0 if x in ideal else x + 1 for x in range(s.order)]
        rho = congruence(s, blocks)
        collapsed, _ = core.quotient(s, rho)
        assert find_isomorphism(rees, collapsed) is not None

    def test_agrees_with_collapse_congruence_across_census(self):
        from greenstone.enumeration import all_semigroups
        for n in (1, 2, 3):
            for s in all_semigroups(n):
                for ideal in ideals_of(s):
                    rees = core.rees_quotient(s, ideal)
                    blocks = [0 if x in ideal else x + 1 for x in range(s.order)]
                    rho = congruence(s, blocks)
                    collapsed, _ = core.quotient(s, rho)
                    assert find_isomorphism(rees, collapsed) is not None


class TestZeroDirectUnion:
    def test_trivial_parts(self):
        triv = core.validate_table(1, [[0]])
        u = core.zero_direct_union(triv, triv)
        assert u.order == 3

    def test_left_zero_with_right_zero(self):
        lz = core.validate_table(2, LEFT_ZERO2)
        rz = core.validate_table(2, [[0, 1], [0, 1]])
        u = core.zero_direct_union(lz, rz)
        assert u.order == 5
        assert core.scan_triples(u.order, u.table) is None

    def test_j_class_count_is_additive_plus_zero(self):
        from greenstone.green import green_structure
        z2 = core.validate_table(2, [[0, 1], [1, 0]])
        lz = core.validate_table(2, LEFT_ZERO2)
        u = core.zero_direct_union(z2, lz)
        total = (green_structure(z2).num_classes("J")
                 + green_structure(lz).num_classes("J") + 1)
        assert green_structure(u).num_classes("J") == total


class TestSubsemigroupAndMisc:
    def test_subsemigroup_reindexes(self):
        s = t2()
        ids = t2_ids()
        sub, carrier = core.subsemigroup(s, {ids[(0, 1)], ids[(1, 0)]})
        assert sub.order == 2
        assert set(carrier) == {ids[(0, 1)], ids[(1, 0)]}

    def test_subsemigroup_rejects_open_subset(self):
        s = core.validate_table(4, Z4)
        with pytest.raises(NotASubsemigroup):
            core.subsemigroup(s, {1})

    def test_homomorphism_images_must_be_element_ids(self):
        s = core.validate_table(4, Z4)
        for image, shown in ((True, "True"), (2.0, "2.0"), ("a", "'a'")):
            with pytest.raises(BadEntry, match=re.escape(f"image {shown} outside")):
                core.is_homomorphism([0, 1, image, 3], s, s)
        assert core.is_homomorphism([0, 1, 2, 3], s, s) is None

    def test_homomorphism_map_must_be_a_sequence(self):
        s = core.validate_table(4, Z4)
        for f in (5, None, {0, 1, 2, 3}):
            with pytest.raises(BadEntry, match=re.escape(f"map {f!r} is not a sequence")):
                core.is_homomorphism(f, s, s)
        assert core.is_homomorphism(range(4), s, s) is None

    def test_opposite_of_left_zero_is_right_zero(self):
        s = core.validate_table(2, LEFT_ZERO2)
        op = core.opposite(s)
        assert op.mul(0, 1) == 1

    def test_find_isomorphism_distinguishes_groups(self):
        z4 = core.validate_table(4, Z4)
        klein = core.validate_table(4, [[0, 1, 2, 3], [1, 0, 3, 2],
                                        [2, 3, 0, 1], [3, 2, 1, 0]])
        assert find_isomorphism(z4, klein) is None
        sigma = [2, 0, 3, 1]
        inv = [sigma.index(x) for x in range(4)]
        shuffled = core.validate_table(
            4, [[sigma[Z4[inv[x]][inv[y]]] for y in range(4)] for x in range(4)])
        assert find_isomorphism(z4, shuffled) is not None
