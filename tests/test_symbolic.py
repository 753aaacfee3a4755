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


class TestSymbolicExtensionAgainstBruteForce:
    def test_piecewise_le_matches_materialised_tables(self):
        # wrap finite parts as symbolic objects and compare the piecewise
        # decider against reachability in the materialised gluing, on every
        # pair it claims to decide
        from greenstone.errors import DecisionUnavailable as DU

        class WrapSem(sym.SymbolicSemigroup):
            def __init__(self, s):
                self.s = s
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

        pool = all_semigroups(2)
        for s in pool[:3]:
            for t in pool[:3]:
                for a in all_biacts(s, t, 2):
                    u_fin, parts = sym.build_usta(s, t, a)
                    gs_u = green_structure(u_fin)
                    ws, wt = WrapSem(s), WrapSem(t)
                    u_sym = sym.SymbolicExtensionSTA(ws, wt, WrapBiact(a, ws, wt))
                    tagged = ([("s", i) for i in range(s.order)]
                              + [("t", j) for j in range(t.order)]
                              + [("x", x) for x in range(a.size)] + [sym.ZERO])
                    ranges = {"s": parts.s_ids, "t": parts.t_ids, "x": parts.x_ids}

                    def to_id(u):
                        return parts.zero_id if u == sym.ZERO else ranges[u[0]][u[1]]

                    for u1 in tagged:
                        for u2 in tagged:
                            for k in "LRJ":
                                try:
                                    got = u_sym.le(k, u1, u2)
                                except DU:
                                    continue
                                assert got == gs_u.le(to_id(u1), to_id(u2), k)

                    # the ideal's J-order decider against the reindexed ideal
                    isub, carrier = core.subsemigroup(u_fin, parts.ideal_ids)
                    gs_i = green_structure(isub)
                    pos = {x: i for i, x in enumerate(carrier)}
                    in_ideal = [u for u in tagged if u == sym.ZERO or u[0] in "sx"]
                    for u1 in in_ideal:
                        for u2 in in_ideal:
                            try:
                                got = u_sym.le_in_ideal(u1, u2)
                            except DU:
                                continue
                            assert got == gs_i.le(pos[to_id(u1)], pos[to_id(u2)], "J")


class TestHeadlineInstances:
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
