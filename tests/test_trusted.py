"""Correctness guards for the unchecked fast paths.

The derived biact constructors and the biact census build through
``biact._trusted_biact`` without re-checking the action axioms, and the
derived semigroup constructors and the semigroup census build through
``core._trusted_table`` without re-checking associativity; here their
output is re-validated over the small census and the random corpus.  The
orbit scan of ``l_periodic``/``r_periodic`` is compared with the
eager-orbit reference and with the stepped scan that the memoised one
replaced, and every predicate on a semigroup
read as its own biact is compared with the same predicate on its regular
biact, the conversion it replaced.
"""

import copy
import itertools
import pickle
import random
import types

import pytest

from greenstone import biact as ba
from greenstone import core, green, props
from greenstone.enumeration import (
    all_biacts,
    all_semigroups,
    random_biact_corpus,
    semigroup_pool,
)
from greenstone.verify import single_pair_congruences, subsemigroups_of

from helpers import ideals_of, subacts_of

POOL = [s for s in semigroup_pool() if s.order <= 3]


def t3() -> core.FiniteSemigroup:
    s = core.generate_from_transformations(3, [(1, 2, 0), (1, 0, 2), (0, 0, 2)])
    assert s.order == 27
    return s


def as_regular_biact(x):
    """The reference path: a semigroup converted to its regular biact, as
    the predicates did before a semigroup carried the biact view."""
    return ba.regular_biact(x) if isinstance(x, core.FiniteSemigroup) else x


def assert_valid(b: ba.FiniteBiact) -> None:
    """Re-run the checks of ``validate_biact`` (shapes, ranges, the three
    action axioms) on a trusted build: it must come back unchanged."""
    assert all(isinstance(row, tuple) for row in b.left_action + b.right_action)
    again = ba.validate_biact(b.left, b.right, b.left_action, b.right_action,
                              labels=b.labels, provenance=b.provenance)
    assert again == b


ASSOCIATIVITY = {
    "triples": core.scan_triples,
    "light": lambda n, table: core.light_test(n, table, core.greedy_generators(n, table)),
}


def assert_table_valid(s: core.FiniteSemigroup, method: str = "triples") -> None:
    """Re-run the associativity check ``method`` (by default the full triple
    scan) and ``validate_table`` on a trusted build: the check must find no
    violating triple, and the build must come back unchanged."""
    assert all(isinstance(row, tuple) for row in s.table)
    assert ASSOCIATIVITY[method](s.order, s.table) is None
    again = core.validate_table(s.order, s.table, labels=s.labels, provenance=s.provenance)
    assert again == s and again.provenance == s.provenance


def assert_unary_valid(s: core.FiniteSemigroup) -> None:
    """Re-validate the one-argument constructors applied to ``s``."""
    assert_table_valid(core.opposite(s))
    assert_table_valid(core.adjoin(s, "identity"))
    assert_table_valid(core.adjoin(s, "zero"))
    assert_table_valid(core.rees_quotient(s, ()))


def assert_derived_valid(b: ba.FiniteBiact) -> None:
    """Re-validate the subact restrictions, Rees quotients and
    single-pair congruence quotients of ``b``."""
    for members in subacts_of(b):
        assert_valid(ba.Subact(b, members).sub)
        assert_valid(ba.biact_rees_quotient(b, members))
    assert_valid(ba.biact_rees_quotient(b, ()))
    for rho in single_pair_congruences(b):
        quot, _ = core.quotient(b, rho)
        assert_valid(quot)


def homomorphisms(src: core.FiniteSemigroup, dst: core.FiniteSemigroup):
    for f in itertools.product(range(dst.order), repeat=src.order):
        if core.is_homomorphism(f, src, dst) is None:
            yield f


class TestTrustedConstructors:
    @pytest.mark.parametrize("idx", range(len(POOL)))
    def test_pool_semigroup(self, idx):
        s = POOL[idx]
        reg = ba.regular_biact(s)
        assert reg.left_action is s.table and reg.right_action is s.table
        assert_valid(reg)
        assert_derived_valid(reg)
        for ideal in ideals_of(s):
            ib = ba.ideal_biact(s, ideal)
            assert_valid(ib)
            assert_derived_valid(ib)
            assert_valid(ba.biact_rees_quotient(reg, ideal))
        for members in subsemigroups_of(s):
            rel = ba.relative_biact(s, members)
            assert_valid(rel)
            assert_valid(ba.relative_rees(s, members))
            sub, carrier = core.subsemigroup(s, members)
            assert_valid(ba.pullback_biact(reg, (sub, carrier), (sub, carrier)))
        for t in POOL:
            assert_valid(ba.product_biact(s, t))
        for src in (t for t in POOL if t.order <= 2):
            for f in homomorphisms(src, s):
                assert_valid(ba.pullback_biact(reg, (src, f), (s, range(s.order))))
                assert_valid(ba.pullback_biact(reg, (s, range(s.order)), (src, f)))

    def test_random_corpus(self):
        for b in random_biact_corpus(200, "trusted"):
            assert_valid(b)
            assert_derived_valid(b)
            for members in subsemigroups_of(b.left):
                sub, carrier = core.subsemigroup(b.left, members)
                assert_valid(ba.pullback_biact(
                    b, (sub, carrier), (b.right, range(b.right.order))))
            for members in subsemigroups_of(b.right):
                sub, carrier = core.subsemigroup(b.right, members)
                assert_valid(ba.pullback_biact(
                    b, (b.left, range(b.left.order)), (sub, carrier)))

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_random_corpus_revalidates(self, seed):
        # the one-sided transformation recipes build unchecked too: every
        # biact of the corpus comes back unchanged from ``validate_biact``
        recipes = set()
        for b in random_biact_corpus(1000, seed):
            assert_valid(b)
            if "recipe" in b.provenance:
                recipes.add(b.provenance["recipe"])
                assert b.labels == tuple(f"a{i}" for i in range(b.size))
        assert recipes == {"right-transformation", "left-transformation"}


class TestTrustedCensus:
    def test_biact_census(self):
        # every census biact is built unchecked from actions that passed
        # the census's own axiom and compatibility scans
        pool = [s for n in (1, 2) for s in all_semigroups(n)]
        count = 0
        for s, t in itertools.product(pool, pool):
            for m in (1, 2, 3):
                for b in all_biacts(s, t, m):
                    assert_valid(b)
                    assert b.labels == tuple(f"a{i}" for i in range(m))
                    assert b.provenance == {"kind": "biact", "census": True}
                    count += 1
        assert count == 1065

    @pytest.mark.parametrize("method", ["triples", "light"])
    def test_semigroup_census(self, method):
        # every census table is built unchecked from the orderly search,
        # which has checked its triples
        count = 0
        for n in (1, 2, 3, 4):
            for s in all_semigroups(n):
                assert_table_valid(s, method)
                assert s.labels == tuple(f"e{i}" for i in range(n))
                assert s.provenance == {"kind": "table", "census": f"order {n}"}
                count += 1
        assert count == 1 + 5 + 24 + 188


class TestTrustedSemigroups:
    @pytest.mark.parametrize("idx", range(len(POOL)))
    def test_pool_semigroup(self, idx):
        s = POOL[idx]
        assert_unary_valid(s)
        for members in subsemigroups_of(s):
            sub, carrier = core.subsemigroup(s, members)
            assert carrier == tuple(sorted(members))
            assert_table_valid(sub)
            assert_unary_valid(sub)
        for ideal in ideals_of(s):
            rq = core.rees_quotient(s, ideal)
            assert_table_valid(rq)
            assert_unary_valid(rq)
        for rho in single_pair_congruences(s):
            quot, blocks = core.quotient(s, rho)
            assert blocks == rho.blocks
            assert_table_valid(quot)
            assert_unary_valid(quot)
        for t in POOL:
            assert_table_valid(core.zero_direct_union(s, t))

    def test_transformation_closures(self):
        assert_table_valid(t3())
        rng = random.Random("trusted-closure")
        for _ in range(40):
            degree = rng.randrange(1, 5)
            gens = [tuple(rng.randrange(degree) for _ in range(degree))
                    for _ in range(rng.randrange(1, 4))]
            assert_table_valid(core.generate_from_transformations(degree, gens))

    def test_closure_labels_must_match_the_order(self):
        with pytest.raises(core.BadEntry, match="labels"):
            core.generate_from_transformations(2, [(1, 0)], labels=["only-one"])


# every predicate that takes a semigroup or a biact
STRUCTURE_PREDICATES = [
    *(lambda x, k=k: props.minimal_condition(x, k) for k in ("L", "R", "J")),
    props.left_stable, props.right_stable, props.stable, props.stable_char,
    props.l_periodic, props.r_periodic,
]


class Partition:
    """A seeded arbitrary partition per relation, standing in for the
    Green structure of ``x`` where a predicate reads only ``class_of``/
    ``same`` and the stability verdicts.  The verdicts are decided by the
    definition, over every action step of ``x``, under these partitions."""

    def __init__(self, rng, x, relations):
        blocks = rng.randrange(1, 4)
        self.x = x
        self.class_of = {k: [rng.randrange(blocks) for _ in range(x.size)]
                         for k in relations}

    def same(self, x, y, k):
        return self.class_of[k][x] == self.class_of[k][y]

    def relation(self, k):
        return types.SimpleNamespace(class_of=self.class_of[k])

    @property
    def left_stable(self):
        x = self.x
        return not any(self.same(x.left_action[s][e], e, "J")
                       and not self.same(x.left_action[s][e], e, "L")
                       for s in range(x.left.order) for e in range(x.size))

    @property
    def right_stable(self):
        x = self.x
        return not any(self.same(x.right_action[e][t], e, "J")
                       and not self.same(x.right_action[e][t], e, "R")
                       for e in range(x.size) for t in range(x.right.order))


class TestSemigroupAsBiact:
    @pytest.mark.parametrize("idx", range(len(POOL) + 1))
    def test_agrees_with_regular_biact(self, idx):
        s = POOL[idx] if idx < len(POOL) else t3()
        reg = ba.regular_biact(s)
        assert (s.size, s.left, s.right) == (s.order, s, s)
        assert s.left_action is s.table and s.right_action is s.table
        for pred in STRUCTURE_PREDICATES:
            assert_same_result(pred(s), pred(reg))
        assert props.left_stable_forms(s) == props.left_stable_forms(reg)
        assert (green.green_structure(s).to_json()
                == green.green_structure(reg).to_json())

    def test_witnesses_agree_on_arbitrary_partitions(self, monkeypatch):
        # on finite inputs the predicates hold, so the witnesses are compared
        # under seeded partitions standing in for L, R and J
        rng = random.Random("semigroup-as-biact")
        outcomes = set()
        for s in POOL + [t3()]:
            reg = ba.regular_biact(s)
            for _ in range(3):
                gs = Partition(rng, s, ("L", "R", "J"))
                monkeypatch.setattr(props, "green_structure", lambda a: gs)
                for pred in (props.left_stable, props.right_stable, props.stable,
                             props.l_periodic, props.r_periodic):
                    got = pred(s)
                    assert_same_result(got, pred(reg))
                    outcomes.add(got.value)
        assert outcomes == {True, False}


def eager_l_periodic(x):
    """The eager-orbit scan the lazy one replaced: build the whole orbit of
    length size+2, then look for an L-related consecutive pair."""
    a = as_regular_biact(x)
    gs = props.green_structure(a)
    for s in range(a.left.order):
        for e in range(a.size):
            orbit = [e]
            for _ in range(a.size + 1):
                orbit.append(a.left_action[s][orbit[-1]])
            if not any(gs.same(orbit[i], orbit[i + 1], "L")
                       for i in range(1, a.size + 1)):
                return props.PredicateResult(False, method="orbit scan",
                                             witness={"s": s, "a": e})
    return props.PredicateResult(True, method="orbit scan")


def eager_r_periodic(x):
    a = as_regular_biact(x)
    gs = props.green_structure(a)
    for t in range(a.right.order):
        for e in range(a.size):
            orbit = [e]
            for _ in range(a.size + 1):
                orbit.append(a.right_action[orbit[-1]][t])
            if not any(gs.same(orbit[i], orbit[i + 1], "R")
                       for i in range(1, a.size + 1)):
                return props.PredicateResult(False, method="orbit scan",
                                             witness={"t": t, "a": e})
    return props.PredicateResult(True, method="orbit scan")


def assert_same_result(got, want):
    assert (got.value, got.method, got.witness) == (want.value, want.method, want.witness)


class TestLazyOrbitScan:
    def corpus(self):
        return POOL + random_biact_corpus(200, "trusted") + [ba.regular_biact(t3())]

    def test_agrees_with_eager_orbits(self):
        for x in self.corpus():
            assert_same_result(props.l_periodic(x), eager_l_periodic(x))
            assert_same_result(props.r_periodic(x), eager_r_periodic(x))

    def test_agrees_on_arbitrary_partitions(self, monkeypatch):
        # finite biacts are always periodic, so with the true Green structure
        # both scans succeed; under arbitrary seeded partitions standing in
        # for L and R they also fail, and must report the same first witness
        rng = random.Random("lazy-orbit")
        outcomes = set()
        for x in self.corpus():
            for lazy, eager in ((props.l_periodic, eager_l_periodic),
                                (props.r_periodic, eager_r_periodic)):
                for _ in range(3):
                    gs = Partition(rng, x, ("L", "R"))
                    monkeypatch.setattr(props, "green_structure", lambda a: gs)
                    got = lazy(x)
                    assert_same_result(got, eager(x))
                    outcomes.add(got.value)
        assert outcomes == {True, False}


def stepped_periodic(maps, class_of, letter):
    """The stepped orbit scan that the memoised ``props._periodic``
    replaced: each start point's orbit is walked for size steps, stopping
    at the first related pair."""
    n = len(class_of)
    for g, row in enumerate(maps):
        for e in range(n):
            cur = row[e]
            for _ in range(n):
                nxt = row[cur]
                if class_of[cur] == class_of[nxt]:
                    break
                cur = nxt
            else:
                return props.PredicateResult(False, method="orbit scan",
                                             witness={letter: g, "a": e})
    return props.PredicateResult(True, method="orbit scan")


def side_maps(x):
    """The left maps (rows of the left action) and the right maps (columns
    of the right action) of ``x``, with the letter each witness uses."""
    columns = [tuple(row[t] for row in x.right_action) for t in range(x.right.order)]
    return (("s", "L", x.left_action), ("t", "R", columns))


class TestMemoisedOrbitScan:
    def assert_same_scans(self, x, rng=None):
        """Both scans agree on the true L and R partitions of ``x`` and, with
        ``rng``, on three seeded partitions standing in for them; returns
        the verdicts seen."""
        gs = green.green_structure(x)
        seen = set()
        for letter, k, maps in side_maps(x):
            partitions = [gs.relation(k).class_of]
            if rng is not None:
                partitions += [[rng.randrange(blocks) for _ in range(x.size)]
                               for blocks in (2, 3, 5)]
            for class_of in partitions:
                got = props._periodic(maps, class_of, letter)
                assert_same_result(got, stepped_periodic(maps, class_of, letter))
                seen.add(got.value)
        return seen

    def test_census_semigroups(self):
        rng = random.Random("memoised-orbit-census")
        seen = set()
        for n in (1, 2, 3, 4):
            for s in all_semigroups(n):
                seen |= self.assert_same_scans(s, rng)
        assert seen == {True, False}

    def test_random_biacts(self):
        rng = random.Random("memoised-orbit-random")
        seen = set()
        for b in random_biact_corpus(200, "memoised-orbit"):
            seen |= self.assert_same_scans(b, rng)
        assert seen == {True, False}

    def test_t4(self):
        t4 = core.generate_from_transformations(4, [(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)])
        assert t4.order == 256
        assert self.assert_same_scans(t4, random.Random("memoised-orbit-t4")) == {True, False}

    def test_cycles_without_a_related_pair_are_false(self):
        # 0 -> 1 -> 2 -> 0 with no related pair; 3 -> 4 -> 4 with 4 related
        # to itself; 5 -> 0 falls into the bad cycle
        row = (1, 2, 0, 4, 4, 0)
        class_of = list(range(6))
        assert props._good(row, class_of) == [False, False, False, True, True, False]
        got = props._periodic([row], class_of, "s")
        assert (got.value, got.witness) == (False, {"s": 0, "a": 0})
        assert_same_result(got, stepped_periodic([row], class_of, "s"))


# ---------------------------------------------------------------------------
# parts built from their host's digraphs: subacts, Rees quotients, biact
# quotients and products are built without tables, from a digraph pair
# derived from the host's (``digraphs``); here each such part is compared
# with the same part once its tables are filled, and its Green structure
# with ``_build`` over those tables


def lazy_and_eager_parts(b: ba.FiniteBiact):
    """Each subact, Rees quotient (also by the empty subact) and single-pair
    congruence quotient of ``b``, twice: by the constructor that checks
    nothing and by the public one."""
    for members in subacts_of(b) + [frozenset()]:
        if members:
            yield ba._restrict(b, sorted(members)), ba.Subact(b, members).sub
        yield ba._collapse(b, members), ba.biact_rees_quotient(b, members)
    for rho in single_pair_congruences(b):
        yield ba._block_quotient(b, rho.blocks), core.quotient(b, rho)[0]


def lazy_and_eager_products(pool):
    for s, t in itertools.product(pool, repeat=2):
        yield ba.product_biact(s, t), ba.product_biact(s, t)


def assert_same_part(lazy: ba.FiniteBiact, eager: ba.FiniteBiact, built: dict) -> None:
    """``lazy`` carries the digraph pair of ``eager``'s tables and no tables
    of its own; its Green structure and stability verdicts are ``_build``'s
    over those tables; and once read, it is ``eager`` in every respect."""
    assert type(lazy) is ba.FiniteBiact
    pair = vars(lazy)[ba._PAIR]
    assert pair == green._edges(eager)
    gs = green.green_structure(lazy)
    assert not {"left_action", "right_action", ba._PAIR} & set(vars(lazy))
    if pair not in built:
        green._preorder_cached.cache_clear()   # the oracle computes afresh
        built[pair] = green._build(green._edges(eager))
    want = built[pair]
    assert gs.to_json() == want.to_json()
    assert (gs.left_stable, gs.right_stable) == (want.left_stable, want.right_stable)
    assert lazy == eager and hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
    assert (lazy.left, lazy.right, lazy.size) == (eager.left, eager.right, eager.size)
    assert lazy.labels == eager.labels and lazy.provenance == eager.provenance
    assert lazy.left_action == eager.left_action and lazy.right_action == eager.right_action
    assert ba._FILL not in vars(lazy)


def _seed0_biacts():
    from greenstone.verify import Env, SuiteConfig

    return Env(SuiteConfig(seed=0)).biacts()


PART_CORPORA = {
    "seed-0 biacts": _seed0_biacts,
    "random biacts": lambda: random_biact_corpus(200, "parts-from-digraphs"),
}


class TestPartsFromDigraphs:
    @pytest.mark.parametrize("corpus", sorted(PART_CORPORA))
    def test_subacts_rees_quotients_and_quotients(self, corpus):
        built: dict = {}
        count = 0
        for b in PART_CORPORA[corpus]():
            for lazy, eager in lazy_and_eager_parts(b):
                assert_same_part(lazy, eager, built)
                count += 1
        assert count > 1000

    def test_products_of_census_semigroups(self):
        pool = [s for n in (1, 2, 3) for s in all_semigroups(n)]
        built: dict = {}
        for lazy, eager in lazy_and_eager_products(pool):
            assert_same_part(lazy, eager, built)

    def test_tables_are_filled_on_first_read_only(self):
        s = POOL[-1]
        lazy = ba.product_biact(s, s)
        fill = vars(lazy)[ba._FILL]
        calls = []
        vars(lazy)[ba._FILL] = lambda: calls.append(1) or fill()
        green.green_structure(lazy)
        props.minimal_condition(lazy, "J")
        assert calls == [] and "left_action" not in vars(lazy)
        assert lazy.right_action is lazy.right_action and calls == [1]
        assert lazy.left_action == ba.product_biact(s, s).left_action and calls == [1]
        with pytest.raises(AttributeError, match="no_such_field"):
            lazy.no_such_field

    def test_copies_carry_the_tables(self):
        s = POOL[-1]
        eager = ba.product_biact(s, s)
        for copy_of in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            lazy = ba.product_biact(s, s)
            twin = copy_of(lazy)
            assert not {ba._FILL, ba._PAIR} & set(vars(twin))
            assert twin == eager and twin.left_action == eager.left_action
