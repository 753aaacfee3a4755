import itertools
import random

import pytest

from greenstone import core, symbolic as sym
from greenstone.enumeration import all_biacts, all_semigroups
from greenstone.errors import (
    ActionMismatch,
    DecisionUnavailable,
    InvariantViolation,
    UnknownEntry,
)
from greenstone.green import green_structure


def words_up_to(length):
    out = [""]
    for n in range(1, length + 1):
        out.extend("".join(w) for w in itertools.product("ab", repeat=n))
    return out


def uncached_oracle_le(k, u, v):
    """``symbolic.oracle_le`` before its one-step rewrites were cached: the
    same breadth-bounded search, recomputing each word's rewrites."""
    target = sym.reduce_word(u)
    start = sym.reduce_word(v)
    bound = len(target) + 2 * len(start) + 4
    seen = {start}
    frontier = [start]
    while frontier:
        if target in seen:
            return True
        nxt = []
        for w in frontier:
            steps = []
            if k in ("L", "J"):
                steps += [sym.reduce_word("a" + w), sym.reduce_word("b" + w)]
            if k in ("R", "J"):
                steps += [sym.reduce_word(w + "a"), sym.reduce_word(w + "b")]
            for w2 in steps:
                if len(w2) <= bound and w2 not in seen:
                    seen.add(w2)
                    nxt.append(w2)
        frontier = nxt
    return target in seen


class TestBicyclic:
    def test_defining_relation(self):
        b = sym.Bicyclic()
        assert b.mul((0, 1), (1, 0)) == (0, 0)
        assert b.mul((1, 0), (0, 1)) == (1, 1)

    def test_mul_matches_rewriting_on_short_words(self):
        b = sym.Bicyclic()
        for u in words_up_to(4):
            for v in words_up_to(4):
                assert sym.word_to_pair(u + v) == b.mul(
                    sym.word_to_pair(u), sym.word_to_pair(v))

    def test_le_matches_rewriting_oracle(self):
        b = sym.Bicyclic()
        forms = sorted({sym.word_to_pair(w) for w in words_up_to(4)})
        for x in forms:
            for y in forms:
                for k in ("L", "R", "J"):
                    assert b.le(k, x, y) == sym.oracle_le(
                        k, sym.pair_to_word(x), sym.pair_to_word(y))

    def test_cached_oracle_matches_the_uncached_one_on_normal_forms(self):
        forms = [sym.pair_to_word(x) for x in sorted({sym.word_to_pair(w)
                                                      for w in words_up_to(6)})]
        assert len(forms) == 28
        for k, u, v in itertools.product(("L", "R", "J"), forms, forms):
            assert sym.oracle_le(k, u, v) == uncached_oracle_le(k, u, v), (k, u, v)

    def test_cached_oracle_matches_the_uncached_one_on_all_short_words(self):
        words = words_up_to(6)
        for k, u, v in itertools.product(("L", "R", "J"), words, words):
            assert sym.oracle_le(k, u, v) == uncached_oracle_le(k, u, v), (k, u, v)

    @pytest.mark.parametrize("k", ["H", "D", ""])
    def test_oracle_refuses_a_letter_outside_the_preorders(self, k):
        # these used to answer True, as if every word were below itself
        with pytest.raises(ValueError, match="Green preorders are L, R, J"):
            sym.oracle_le(k, "a", "a")

    def test_oracle_step_cache_is_bounded(self):
        assert sym._oracle_steps.cache_info().maxsize is not None
        sym.oracle_le("J", "bba", "ba")
        assert sym._oracle_steps("J", "ba") == ("a", "bba", "baa", "b")
        assert sym._oracle_steps("L", "ba") == ("a", "bba")
        assert sym._oracle_steps("R", "ba") == ("baa", "b")

    def test_reduce_word(self):
        assert sym.reduce_word("ab") == ""
        assert sym.reduce_word("ba") == "ba"
        assert sym.reduce_word("aab") == "a"
        assert sym.reduce_word("abab") == ""
        assert sym.reduce_word("baab") == "ba"

    def test_reduce_word_matches_the_stack_reduction(self):
        # every word of at most 12 letters against one-pass cancellation on
        # a stack, the leftmost-innermost order of the same rewriting
        def stack_reduce(w):
            out = []
            for ch in w:
                if ch == "b" and out and out[-1] == "a":
                    out.pop()
                else:
                    out.append(ch)
            return "".join(out)

        for n in range(13):
            for letters in itertools.product("ab", repeat=n):
                w = "".join(letters)
                assert sym.reduce_word(w) == stack_reduce(w), w

    def test_chains_descend(self):
        b = sym.Bicyclic()
        for k in ("L", "R"):
            assert sym.verify_chain(b, b.chain(k), k, 100).ok

    def test_j_chain_attempt_fails_immediately(self):
        b = sym.Bicyclic()
        res = sym.verify_chain(b, lambda i: (0, i), "J", 10)
        assert not res.ok and res.failed_at == 1

    def test_constant_chain_fails_at_step_one(self):
        n = sym.NatPlus()
        res = sym.verify_chain(n, lambda i: 5, "L", 10)
        assert not res.ok and res.failed_at == 1

    def test_witness_solvers(self):
        rng = random.Random(7)
        b = sym.Bicyclic()
        for _ in range(100):
            x, y = b.sample(rng), b.sample(rng)
            s, t = sym.bicyclic_two_sided_witness(x, y)
            assert b.mul(b.mul(s, x), t) == y
            if b.le("L", y, x):
                assert b.mul(sym.bicyclic_left_witness(x, y), x) == y
            if b.le("R", y, x):
                assert b.mul(x, sym.bicyclic_right_witness(x, y)) == y


class TestCatalog:
    def test_builds_and_contains_the_core_entries(self):
        entries = sym.catalog()
        assert {"bicyclic", "nat-plus", "int-plus", "free2", "nat-max", "null"} <= set(entries)

    def test_sampled_axioms_hold_for_every_entry(self):
        # mul associative and le reflexive/transitive on sampled elements
        rng = random.Random(99)
        for name, entry in sorted(sym.catalog().items()):
            for _ in range(60):
                x, y, z = (entry.sample(rng) for _ in range(3))
                assert entry.mul(entry.mul(x, y), z) == entry.mul(x, entry.mul(y, z)), name
                for k in ("L", "R", "J"):
                    assert entry.le(k, x, x), name
                    if entry.le(k, x, y) and entry.le(k, y, z):
                        assert entry.le(k, x, z), name

    def test_natplus_chain(self):
        n = sym.catalog()["nat-plus"]
        chain = n.chain("L")
        assert [chain(i) for i in range(3)] == [1, 2, 3]
        assert sym.verify_chain(n, chain, "L", 100).ok

    def test_family_names(self):
        assert sym.catalog_entry("free4").rank == 4
        assert sym.catalog_entry("null5").size == 5
        with pytest.raises(UnknownEntry):
            sym.catalog_entry("does-not-exist")

    def test_gate_rejects_contradictory_sheets(self):
        entry = sym.NatPlus()
        entry.sheet["M_L"] = sym.PropertyClaim(True, "structural", "wrong on purpose")
        with pytest.raises(InvariantViolation):
            sym.check_sheet_network({"broken": entry})

    def test_gate_rejects_missing_chain(self):
        entry = sym.NatPlus()
        entry.chain = lambda k: None
        with pytest.raises(InvariantViolation):
            sym.check_sheet_network({"broken": entry})

    def test_decision_unavailable(self):
        class Bare(sym.SymbolicSemigroup):
            pass

        with pytest.raises(DecisionUnavailable):
            Bare().le("L", 1, 2)

    def test_with_zero_ordering(self):
        wz = sym.WithZero(sym.Bicyclic())
        assert wz.le("J", "zero", (3, 4))
        assert not wz.le("J", (3, 4), "zero")
        assert wz.mul("zero", (1, 1)) == "zero"


class TestExample48:
    def test_biact_chain_descends_for_every_relation(self):
        biact = sym.example_4_8()["biact"]
        chain = biact.chain("J")
        assert chain(0) == -100
        for k in ("L", "R", "J"):
            assert sym.verify_chain(biact, chain, k, 100).ok

    def test_quotient_descents_are_bounded(self):
        quot = sym.example_4_8()["quotient"]
        for k in range(0, 30):
            assert quot.longest_strict_descent(-k) == k + 1

    def test_one_pass_matches_the_per_seed_search(self):
        quot = sym.example_4_8()["quotient"]
        for depth in range(31):
            assert quot.longest_strict_descents(depth) == [
                quot.longest_strict_descent(-k) for k in range(depth + 1)]
        with pytest.raises(ValueError):
            quot.longest_strict_descents(-1)

    def test_quotient_actions_absorb(self):
        quot = sym.example_4_8()["quotient"]
        assert quot.act_left(5, -3) == sym.ZERO_CLASS
        assert quot.act_left(2, -3) == -1

    def test_integers_have_one_class(self):
        z = sym.IntPlus()
        assert z.le("J", 5, -7) and z.le("J", -7, 5)


class TestFiniteExtensions:
    def test_trivial_parts_make_order_four(self):
        triv = core.validate_table(1, [[0]])
        from greenstone.biact import regular_biact
        u, parts = sym.build_usta(triv, triv, regular_biact(triv))
        assert u.order == 4
        assert parts.zero_id == 3
        assert core.is_role(u, parts.ideal_ids, "ideal")
        assert core.is_role(u, parts.null_ids, "ideal")

    def test_null_part_squares_to_zero(self):
        pool = all_semigroups(2)
        s, t = pool[0], pool[1]
        for a in all_biacts(s, t, 2):
            u, parts = sym.build_usta(s, t, a)
            for x in parts.null_ids:
                for y in parts.null_ids:
                    assert u.table[x][y] == parts.zero_id

    def test_action_mismatch(self):
        triv = core.validate_table(1, [[0]])
        z2 = core.validate_table(2, [[0, 1], [1, 0]])
        from greenstone.biact import regular_biact
        with pytest.raises(ActionMismatch):
            sym.build_usta(z2, triv, regular_biact(triv))

    def test_extension_builders(self):
        triv = core.validate_table(1, [[0]])
        from greenstone.biact import regular_biact
        u, _ = sym.build_usta(triv, triv, regular_biact(triv))
        assert u.order == 4
        u2, _ = sym.build_usa(triv, regular_biact(triv))
        assert u2.order == 3
        b = sym.Bicyclic()
        bbar = sym.BicyclicDelegate(b, "bicyclic-bar", b.sheet)
        copy = sym.BicyclicDelegate(b, "bicyclic-copy", sym.PropertySheet(), left=b, right=bbar)
        glued = sym.SymbolicExtensionSTA(b, bbar, copy)
        assert glued.mul(("s", (0, 1)), ("x", (0, 0))) == ("x", (0, 1))

    def test_derived_deciders_match_brute_force(self):
        from greenstone.core import subsemigroup
        pool = all_semigroups(2)
        s, t = pool[2], pool[3]
        for a in all_biacts(s, t, 2):
            u, parts = sym.build_usta(s, t, a)
            gs_u = green_structure(u)
            gs_a = green_structure(a)
            isub, carrier = subsemigroup(u, parts.ideal_ids)
            gs_i = green_structure(isub)
            pos = {x: i for i, x in enumerate(carrier)}
            for x in range(a.size):
                for y in range(a.size):
                    assert (gs_u.le(parts.x_ids[x], parts.x_ids[y], "J")
                            == gs_a.le(x, y, "J"))
                    assert (gs_i.le(pos[parts.x_ids[x]], pos[parts.x_ids[y]], "J")
                            == gs_a.le(x, y, "L"))

    def test_usa_deciders_match_brute_force(self):
        pool = all_semigroups(2)
        s = pool[4]
        for a in all_biacts(s, s, 2):
            u, parts = sym.build_usa(s, a)
            gs_u = green_structure(u)
            gs_a = green_structure(a)
            for k in ("L", "R", "J"):
                for x in range(a.size):
                    for y in range(a.size):
                        assert (gs_u.le(parts.x_ids[x], parts.x_ids[y], k)
                                == gs_a.le(x, y, k))


def usta_oracle(s, t, a):
    """The U(S,T;A) table fill that had a builder of its own, kept as an
    oracle for the one fill behind both builders."""
    if a.left.order != s.order or a.left.table != s.table:
        raise ActionMismatch("the biact's left semigroup is not S")
    if a.right.order != t.order or a.right.table != t.table:
        raise ActionMismatch("the biact's right semigroup is not T")
    ns, nt, na = s.order, t.order, a.size
    s_ids = tuple(range(ns))
    t_ids = tuple(range(ns, ns + nt))
    x_ids = tuple(range(ns + nt, ns + nt + na))
    zero = ns + nt + na
    n = zero + 1
    table = [[zero] * n for _ in range(n)]
    for i in range(ns):
        for j in range(ns):
            table[i][j] = s.table[i][j]
    for i in range(nt):
        for j in range(nt):
            table[t_ids[i]][t_ids[j]] = t_ids[t.table[i][j]]
    for i in range(ns):
        for x in range(na):
            table[i][x_ids[x]] = x_ids[a.left_action[i][x]]
    for x in range(na):
        for j in range(nt):
            table[x_ids[x]][t_ids[j]] = x_ids[a.right_action[x][j]]
    labels = (tuple(f"s:{x}" for x in s.labels)
              + tuple(f"t:{x}" for x in t.labels)
              + tuple(f"x:{x}" for x in a.labels) + ("0",))
    sem = core.validate_table(n, table, labels=labels, provenance={"kind": "usta"})
    return sem, sym.ExtensionParts(s_ids, t_ids, x_ids, zero)


def usa_oracle(s, a):
    """The U(S,A) table fill that had a builder of its own."""
    if a.left.order != s.order or a.left.table != s.table:
        raise ActionMismatch("the biact's left semigroup is not S")
    if a.right.order != s.order or a.right.table != s.table:
        raise ActionMismatch("the biact's right semigroup is not S")
    ns, na = s.order, a.size
    s_ids = tuple(range(ns))
    x_ids = tuple(range(ns, ns + na))
    zero = ns + na
    n = zero + 1
    table = [[zero] * n for _ in range(n)]
    for i in range(ns):
        for j in range(ns):
            table[i][j] = s.table[i][j]
    for i in range(ns):
        for x in range(na):
            table[i][x_ids[x]] = x_ids[a.left_action[i][x]]
            table[x_ids[x]][i] = x_ids[a.right_action[x][i]]
    labels = (tuple(f"s:{x}" for x in s.labels)
              + tuple(f"x:{x}" for x in a.labels) + ("0",))
    sem = core.validate_table(n, table, labels=labels, provenance={"kind": "usa"})
    return sem, sym.ExtensionParts(s_ids, (), x_ids, zero)


class TestOneFiniteGluing:
    def test_builders_match_the_separate_fills(self):
        pool = all_semigroups(1) + all_semigroups(2)
        glued = usa = 0
        for s, t in itertools.product(pool, pool):
            for m in (1, 2, 3):
                for a in all_biacts(s, t, m):
                    got, want = sym.build_usta(s, t, a), usta_oracle(s, t, a)
                    assert got == want
                    assert got[0].provenance == want[0].provenance == {"kind": "usta"}
                    glued += 1
                    if s is t:
                        got, want = sym.build_usa(s, a), usa_oracle(s, a)
                        assert got == want
                        assert got[0].provenance == want[0].provenance == {"kind": "usa"}
                        usa += 1
        assert (glued, usa) == (1065, 199)

    def test_action_mismatch_names_the_side(self):
        from greenstone.biact import product_biact, regular_biact
        triv = core.validate_table(1, [[0]])
        z2 = core.validate_table(2, [[0, 1], [1, 0]])
        reg = regular_biact(triv)
        over_z2 = product_biact(triv, z2)     # left semigroup trivial, right Z2
        cases = [(lambda: sym.build_usta(z2, triv, reg), "left semigroup is not S"),
                 (lambda: sym.build_usta(triv, z2, reg), "right semigroup is not T"),
                 (lambda: sym.build_usa(z2, reg), "left semigroup is not S"),
                 (lambda: sym.build_usa(triv, over_z2), "right semigroup is not S")]
        for build, message in cases:
            with pytest.raises(ActionMismatch) as exc:
                build()
            assert str(exc.value) == f"the biact's {message}"


class WrapSem(sym.SymbolicSemigroup):
    """A finite semigroup read as a symbolic one, deciding by its table."""

    def __init__(self, s):
        self.s = s
        self.name = f"wrap{s.order}"
        self.gs = green_structure(s)

    def mul(self, x, y):
        return self.s.table[x][y]

    def le(self, k, x, y):
        return self.gs.le(x, y, k)


class WrapBiact(sym.SymbolicBiact):
    def __init__(self, b, left, right):
        self.b = b
        self.gs = green_structure(b)
        self.left, self.right = left, right

    def act_left(self, s, a):
        return self.b.left_action[s][a]

    def act_right(self, a, t):
        return self.b.right_action[a][t]

    def le(self, k, a, b):
        return self.gs.le(a, b, k)


def assert_gluing_matches(u_sym, u_fin, parts, sizes):
    """Compare the symbolic gluing with its materialised table: products on
    every pair, and the piecewise deciders on every pair they claim to
    decide, against reachability in the table and in the reindexed ideal.
    ``sizes`` maps each tag to the size of its part.  Returns the number of
    decided pairs."""
    ranges = {"s": parts.s_ids, "t": parts.t_ids, "x": parts.x_ids}
    tagged = [(tag, i) for tag, n in sizes.items() for i in range(n)] + [sym.ZERO]
    assert len(tagged) == u_fin.order

    def to_id(u):
        return parts.zero_id if u == sym.ZERO else ranges[u[0]][u[1]]

    gs_u = green_structure(u_fin)
    decided = 0
    for u1 in tagged:
        for u2 in tagged:
            assert to_id(u_sym.mul(u1, u2)) == u_fin.table[to_id(u1)][to_id(u2)]
            for k in "LRJ":
                try:
                    got = u_sym.le(k, u1, u2)
                except DecisionUnavailable:
                    continue
                assert got == gs_u.le(to_id(u1), to_id(u2), k)
                decided += 1

    # the ideal's J-order decider against the reindexed ideal
    isub, carrier = core.subsemigroup(u_fin, parts.ideal_ids)
    gs_i = green_structure(isub)
    pos = {x: i for i, x in enumerate(carrier)}
    in_ideal = [u for u in tagged if to_id(u) in pos]
    for u1 in in_ideal:
        for u2 in in_ideal:
            try:
                got = u_sym.le_in_ideal(u1, u2)
            except DecisionUnavailable:
                continue
            assert got == gs_i.le(pos[to_id(u1)], pos[to_id(u2)], "J")
            decided += 1
    return decided


class TestSymbolicExtensionAgainstBruteForce:
    def test_piecewise_le_matches_materialised_tables(self):
        # wrap finite parts as symbolic objects and compare the piecewise
        # decider against reachability in the materialised gluing, on every
        # pair it claims to decide
        pool = all_semigroups(2)
        for s in pool[:3]:
            for t in pool[:3]:
                for a in all_biacts(s, t, 2):
                    u_fin, parts = sym.build_usta(s, t, a)
                    ws, wt = WrapSem(s), WrapSem(t)
                    u_sym = sym.SymbolicExtensionSTA(ws, wt, WrapBiact(a, ws, wt))
                    assert_gluing_matches(u_sym, u_fin, parts,
                                          {"s": s.order, "t": t.order, "x": a.size})

    def test_sa_piecewise_le_matches_materialised_tables(self):
        # the same for U(S,A), over every (S,S)-biact with |S| <= 2 and m <= 2
        count = 0
        for s in all_semigroups(1) + all_semigroups(2):
            ws = WrapSem(s)
            for m in (1, 2):
                for a in all_biacts(s, s, m):
                    u_fin, parts = sym.build_usa(s, a)
                    u_sym = sym.SymbolicExtensionSA(ws, WrapBiact(a, ws, ws))
                    assert u_sym.name == f"U(wrap{s.order};abstract biact)"
                    assert assert_gluing_matches(u_sym, u_fin, parts,
                                                 {"s": s.order, "x": a.size}) > 0
                    count += 1
        assert count == 40

    def test_undecided_pairs_raise(self):
        # x-elements above semigroup elements need instance data: without
        # a mixed decider both gluings refuse them, in le and le_in_ideal
        s = all_semigroups(1)[0]
        a = all_biacts(s, s, 1)[0]
        ws = WrapSem(s)
        for u in (sym.SymbolicExtensionSTA(ws, ws, WrapBiact(a, ws, ws)),
                  sym.SymbolicExtensionSA(ws, WrapBiact(a, ws, ws))):
            with pytest.raises(DecisionUnavailable, match="no decider"):
                u.le("J", ("x", 0), ("s", 0))
            with pytest.raises(DecisionUnavailable, match="x-below-s"):
                u.le_in_ideal(("x", 0), ("s", 0))


class TestHeadlineInstances:
    def test_gluing_names_encodings_and_samples(self):
        cor419, cor512 = sym.corollary_4_19_instance(), sym.corollary_5_12_instance()
        assert cor419.u.name == "U(bicyclic,bicyclic-bar;bicyclic-copy)"
        assert cor512.u.name == "U(free2;free-pullback-bicyclic)"
        assert cor419.u.encode(("t", (1, 2))) == ["t", [1, 2]]
        assert cor419.u.encode(("x", (0, 3))) == ["x", [0, 3]]
        assert cor512.u.encode(("s", "ab")) == ["s", "ab"]
        assert cor512.u.encode(sym.ZERO) == ["0"]
        rng = random.Random(1)
        for u, tags in ((cor419.u, {"s", "t", "x", "0"}), (cor512.u, {"s", "x", "0"})):
            samples = [u.sample(rng) for _ in range(200)]
            assert {x[0] for x in samples} == tags
            for x in samples:
                u.mul(x, x)

    def test_cor419_ideal_chain(self):
        inst = sym.corollary_4_19_instance()
        chain = inst.ideal_chain()
        assert sym.verify_chain(inst.ideal_order(), chain, "J", 100).ok
        for i in range(20):
            s = inst.chain_step_witness(i)
            assert inst.u.mul(s, chain(i)) == chain(i + 1)

    def test_cor419_x_part_is_j_total_with_replay(self):
        inst = sym.corollary_4_19_instance()
        rng = random.Random(11)
        b = inst.bicyclic
        for _ in range(50):
            w, v = b.sample(rng), b.sample(rng)
            assert inst.u.le("J", ("x", w), ("x", v))
            u1, u2 = inst.mutual_j_witness(w, v)
            assert inst.u.mul(inst.u.mul(u1, ("x", w)), u2) == ("x", v)

    def test_cor419_poset_shape(self):
        inst = sym.corollary_4_19_instance()
        poset = inst.u_j_poset(random.Random(5))
        assert poset["parts"] == ["S", "T", "X", "0"]

    def test_cor512_witness(self):
        inst = sym.corollary_5_12_instance()
        s, x = inst.witness
        sx = inst.u.mul(s, x)
        assert sx == ("x", (0, 1))
        assert inst.u.le("J", sx, x) and inst.u.le("J", x, sx)
        assert not (inst.u.le("L", sx, x) and inst.u.le("L", x, sx))

    def test_cor512_ideal_is_null(self):
        inst = sym.corollary_5_12_instance()
        assert inst.u.mul(("x", (1, 2)), ("x", (0, 0))) == sym.ZERO

    def test_projection_morphism_and_section(self):
        rng = random.Random(3)
        free = sym.FreeSemigroup(2)
        b = sym.Bicyclic()
        for _ in range(60):
            u, v = free.sample(rng), free.sample(rng)
            assert sym.free_to_bicyclic(u + v) == b.mul(
                sym.free_to_bicyclic(u), sym.free_to_bicyclic(v))
        for m in range(4):
            for n in range(4):
                word = sym.bicyclic_section((m, n))
                assert word and sym.free_to_bicyclic(word) == (m, n)

    def test_pullback_biact_acts_through_the_projection(self):
        inst = sym.corollary_5_12_instance()
        a = inst.biact
        assert a.act_left("a", (0, 0)) == (0, 1)
        assert a.act_left("b", (0, 0)) == (1, 0)
        assert a.act_right((0, 0), "a") == (0, 1)

    def test_pullback_deciders_agree_with_witness_replay(self):
        # every positive le answer of the pullback is certified by an
        # explicit word acting through the projection; 200 sampled pairs
        inst = sym.corollary_5_12_instance()
        a = inst.biact
        b = sym.Bicyclic()
        rng = random.Random(13)
        for _ in range(200):
            x, y = b.sample(rng), b.sample(rng)
            assert a.le("L", x, y) == b.le("L", x, y)
            if a.le("L", x, y) and x != y:
                word = sym.bicyclic_section(sym.bicyclic_left_witness(y, x))
                assert a.act_left(word, y) == x
            if a.le("R", x, y) and x != y:
                word = sym.bicyclic_section(sym.bicyclic_right_witness(y, x))
                assert a.act_right(y, word) == x
            if a.le("J", x, y):
                s, t = sym.bicyclic_two_sided_witness(y, x)
                ws, wt = sym.bicyclic_section(s), sym.bicyclic_section(t)
                assert a.act_right(a.act_left(ws, y), wt) == x
