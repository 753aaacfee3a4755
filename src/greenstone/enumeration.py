"""Exhaustive small-order instance generation and seeded random samplers.

Exhaustive streams are canonical: one representative per isomorphism
class, with the canonical form being the lexicographically least table
over all relabelings.  Anti-isomorphism is deliberately NOT quotiented
out, because the downstream conditions are chirally sensitive (a left
minimal condition is not a right one).  The right actions of T are
enumerated as the left actions of its opposite, read by columns, so one
axiom filter (``biact._left_axiom_violation``) serves both sides.

Both censuses are orderly searches: a candidate is kept only if no
relabeling makes it lex-smaller, so each class is yielded once, at its
lex-least table, and nothing is canonicalised after the fact.  The
semigroup search cuts a partial table as soon as a relabeling is smaller
on its determined prefix (lex-leader pruning, as in A. Distler,
*Classification and Enumeration of Finite Semigroups*, St Andrews 2010).

Random sampling uses ``random.Random`` (Mersenne Twister); the generator
identity and the seed derivation below are part of the reproducibility
contract.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, Iterator, Sequence

from .biact import Digraphs, FiniteBiact, _left_axiom_violation, _trusted_biact, digraphs, \
    product_biact, regular_biact, relative_biact, biact_rees_quotient, subact_closure
from .core import (
    FiniteSemigroup,
    _default_labels,
    _trusted_table,
    congruence_closure,
    generate_from_transformations,
    opposite,
    quotient,
    subset_closure,
    validate_table,
)
from .errors import CapExceeded, SizeLimitExceeded

SEMIGROUP_ORDER_CAP = 4
BIACT_EXHAUSTIVE_SEMIGROUP_CAP = 2
BIACT_EXHAUSTIVE_CARRIER_CAP = 3


def canonical_table(order: int, table: Sequence[Sequence[int]]) -> tuple:
    """Least relabeled table over all permutations of the elements."""
    best = None
    for perm in itertools.permutations(range(order)):
        inv = _inverse_order(perm, order)
        relabeled = tuple(
            tuple(perm[table[a][b]] for b in inv) for a in inv
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


def _inverse_order(perm: Sequence[int], order: int) -> list[int]:
    inv = [0] * order
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


def _relabelings(n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Every non-identity relabeling of n elements as (perm, inverse)."""
    return [(perm, _inverse_order(perm, n))
            for perm in itertools.permutations(range(n))
            if perm != tuple(range(n))]


def _orderly_tables(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every associative n x n table equal to its ``canonical_table``, in
    ascending order, with no order cap.

    Backtracking fills the cells in row-major order with ascending values.
    After a cell is set, only the triples that read it are checked, in its
    four roles: xy, yz, the outer (xy)z and the outer x(yz); a triple is
    fully checked when the last of its four cells is filled.  A partial
    table is cut when some relabeling p is already smaller on the
    determined row-major prefix; the comparison for p stops at the first
    cell that is unfilled, or whose image under p is not yet determined,
    and resumes there deeper in the search.  At a leaf "no relabeling is
    smaller" is exactly "equal to the canonical table", so each class is
    yielded once, at its lex-least table.
    """
    size = n * n
    table = [-1] * size          # row-major; -1 is unfilled
    by_value = [[] for _ in range(n)]   # filled cells (x, y), by value
    # cell k of the table relabeled by perm is perm[table[source[k]]]
    relabelings = [(perm, [inv[k // n] * n + inv[k % n] for k in range(size)])
                   for perm, inv in _relabelings(n)]

    def associative(a: int, b: int, v: int) -> bool:
        ra, rb, rv = a * n, b * n, v * n
        for z in range(n):                # (ab)z = a(bz)
            yz = table[rb + z]
            if yz >= 0:
                left, right = table[rv + z], table[ra + yz]
                if left >= 0 and right >= 0 and left != right:
                    return False
        for x in range(n):                # (xa)b = x(ab)
            xy = table[x * n + a]
            if xy >= 0:
                left, right = table[xy * n + b], table[x * n + v]
                if left >= 0 and right >= 0 and left != right:
                    return False
        for x, y in by_value[a]:          # (xy)b with xy = a, against x(yb)
            yz = table[y * n + b]
            if yz >= 0:
                right = table[x * n + yz]
                if right >= 0 and right != v:
                    return False
        for y, z in by_value[b]:          # a(yz) with yz = b, against (ay)z
            xy = table[ra + y]
            if xy >= 0:
                left = table[xy * n + z]
                if left >= 0 and left != v:
                    return False
        return True

    def fill(k: int, live: list) -> Iterator[tuple[tuple[int, ...], ...]]:
        # live: (perm, source, j) for each relabeling not yet known to be
        # larger, equal to the table on the cells before j
        a, b = divmod(k, n)
        for v in range(n):
            table[k] = v
            cell = by_value[v]
            cell.append((a, b))
            if associative(a, b, v):
                still = []
                for perm, source, j in live:
                    while j <= k:
                        image = table[source[j]]
                        if image < 0 or perm[image] != table[j]:
                            break
                        j += 1
                    if j <= k and image >= 0:
                        if perm[image] < table[j]:
                            break         # perm is smaller: cut
                        continue          # perm is larger for good
                    still.append((perm, source, j))
                else:
                    if k + 1 == size:
                        yield tuple(tuple(table[r * n:(r + 1) * n]) for r in range(n))
                    else:
                        yield from fill(k + 1, still)
            cell.pop()
        table[k] = -1

    yield from fill(0, [(perm, source, 0) for perm, source in relabelings])


def all_semigroups(n: int) -> list[FiniteSemigroup]:
    """All semigroups of order n up to isomorphism, in canonical-table order."""
    if n > SEMIGROUP_ORDER_CAP:
        raise CapExceeded(f"exhaustive enumeration capped at order {SEMIGROUP_ORDER_CAP}")
    if n < 1:
        raise CapExceeded("order must be at least 1")
    # the orderly search has checked every triple of every table it yields
    return [_trusted_table(n, tbl, _default_labels(n),
                           {"kind": "table", "census": f"order {n}"})
            for tbl in _orderly_tables(n)]


# ---------------------------------------------------------------------------
# exhaustive biacts


@functools.lru_cache(maxsize=64)
def _valid_left_actions(s: FiniteSemigroup, m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every left action of ``s`` on m points, in ascending order, memoised
    per (semigroup, m): ``all_biacts`` asks for the same ones for every
    right semigroup."""
    out = []
    for flat in itertools.product(range(m), repeat=s.order * m):
        act = tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(s.order))
        if _left_axiom_violation(s, act, m) is None:
            out.append(act)
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _valid_right_actions(t: FiniteSemigroup, m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every right action of ``t`` on m points, in ascending order,
    memoised as the left ones.  A right action of T is a left action of
    its opposite read by columns: ``act[a][t]`` is ``op_act[t][a]``."""
    return tuple(sorted(tuple(zip(*act)) for act in _valid_left_actions(opposite(t), m)))


def _compare_rows(new_rows: Iterable[tuple[int, ...]], rows: Sequence) -> int:
    """-1, 0 or 1 as new_rows, produced lazily, compare with rows; stops at
    the first row that differs."""
    for new, old in zip(new_rows, rows):
        if new != old:
            return -1 if new < old else 1
    return 0


def all_biacts(s: FiniteSemigroup, t: FiniteSemigroup, m: int) -> list[FiniteBiact]:
    """All (S,T)-biacts on an m-element carrier, up to carrier relabeling.

    A compatible (left, right) pair is kept only if no carrier relabeling
    makes it lex-smaller, so each class appears once, as its least pair.
    Both actions passed their axiom scans and the pair its compatibility
    check, so the biact is built without re-validation.
    """
    if s.order > BIACT_EXHAUSTIVE_SEMIGROUP_CAP or t.order > BIACT_EXHAUSTIVE_SEMIGROUP_CAP:
        raise CapExceeded(
            f"exhaustive biacts capped at semigroup order {BIACT_EXHAUSTIVE_SEMIGROUP_CAP}")
    if m > BIACT_EXHAUSTIVE_CARRIER_CAP:
        raise CapExceeded(
            f"exhaustive biacts capped at carrier size {BIACT_EXHAUSTIVE_CARRIER_CAP}")
    if m < 1:
        raise CapExceeded("carrier size must be at least 1")
    lefts = _valid_left_actions(s, m)
    rights = _valid_right_actions(t, m)
    relabelings = _relabelings(m)
    labels = tuple(f"a{i}" for i in range(m))
    out = []
    for left in lefts:
        # the pair compares as its left action first; a relabeling that
        # fixes the left action is decided by the right one
        verdicts = [(perm, inv, _compare_rows(
                        (tuple(perm[row[a]] for a in inv) for row in left), left))
                    for perm, inv in relabelings]
        if any(c < 0 for _, _, c in verdicts):
            continue
        fixing = [(perm, inv) for perm, inv, c in verdicts if c == 0]
        for right in rights:
            compatible = all(
                right[left[s1][a]][t1] == left[s1][right[a][t1]]
                for s1 in range(s.order) for a in range(m) for t1 in range(t.order))
            if not compatible or any(
                    _compare_rows((tuple(perm[x] for x in right[a]) for a in inv), right) < 0
                    for perm, inv in fixing):
                continue
            out.append(_trusted_biact(s, t, left, right, labels,
                                      {"kind": "biact", "census": True}))
    return out


# ---------------------------------------------------------------------------
# seeded random samplers


def random_transformation_semigroup(degree: int, gen_count: int, seed,
                                    cap: int = 100_000) -> FiniteSemigroup:
    if degree > 8:
        raise CapExceeded("random transformation semigroups capped at degree 8")
    rng = random.Random(f"transformation:{degree}:{gen_count}:{seed}")
    gens = [tuple(rng.randrange(degree) for _ in range(degree))
            for _ in range(gen_count)]
    return generate_from_transformations(degree, gens, cap=cap)


def random_subsemigroup(s: FiniteSemigroup, seed) -> frozenset[int]:
    """The closure of a random nonempty subset."""
    rng = random.Random(f"subsemigroup:{seed}")
    size = rng.randrange(1, s.order + 1)
    seedset = rng.sample(range(s.order), size)
    return subset_closure(s.table, seedset)


@functools.cache
def semigroup_pool() -> list[FiniteSemigroup]:
    """A deterministic pool of small semigroups for the samplers: every
    semigroup of order <= 3 plus a few named order-4 instances."""
    pool = []
    for n in (1, 2, 3):
        pool.extend(all_semigroups(n))
    full_t2 = generate_from_transformations(2, [(1, 0), (0, 0)])
    z4 = validate_table(4, [[(i + j) % 4 for j in range(4)] for i in range(4)])
    left_zero4 = validate_table(4, [[i] * 4 for i in range(4)])
    pool.extend([full_t2, z4, left_zero4])
    return pool


@functools.cache
def _pool_digraphs(s: FiniteSemigroup) -> Digraphs:
    """The one-step digraphs of a pool semigroup, frozen once for every
    product draw that takes it."""
    return digraphs(s)


_MAX_SEMIGROUP = 4   # the random biacts' acting semigroups have at most 4 elements
_MAX_CARRIER = 6     # and their carriers at most 6


def random_biact(seed) -> FiniteBiact:
    """A reproducible valid biact assembled from closure-safe recipes:
    relative and regular biacts, products, congruence and Rees quotients,
    and one-sided transformation actions."""
    rng = random.Random(f"biact:{seed}")
    pool = [s for s in semigroup_pool() if s.order <= _MAX_SEMIGROUP]

    def pick_semigroup(limit: int) -> FiniteSemigroup:
        options = [s for s in pool if s.order <= limit]
        return options[rng.randrange(len(options))]

    recipe = rng.randrange(5)
    if recipe == 0:
        s = pick_semigroup(_MAX_CARRIER)
        members = random_subsemigroup(s, rng.random())
        biact = relative_biact(s, members)
    elif recipe == 1:
        s = pick_semigroup(_MAX_CARRIER)
        biact = regular_biact(s)
    elif recipe == 2:
        while True:
            s = pick_semigroup(_MAX_SEMIGROUP)
            t = pick_semigroup(_MAX_SEMIGROUP)
            if s.order * t.order <= _MAX_CARRIER:
                break
        biact = product_biact(s, t, (_pool_digraphs(s)[0], _pool_digraphs(t)[1]))
    else:
        # a transformation semigroup acting on the carrier, the other side
        # acting as the identity: on the right (recipe 3), or on the left
        # through its opposite (recipe 4).  Both actions hold by
        # construction, the maps composing as their semigroup's product.
        m = rng.randrange(2, _MAX_CARRIER + 1)
        while True:
            try:
                t = random_transformation_semigroup(m, 1, rng.random(),
                                                    cap=_MAX_SEMIGROUP)
            except SizeLimitExceeded:
                continue
            break
        maps = t.provenance["maps"]
        idle = pick_semigroup(_MAX_SEMIGROUP)
        fixed = [tuple(range(m))] * idle.order    # the identity action's rows
        labels = _default_labels(m, "a")
        if recipe == 3:    # the maps act on the right: they are the columns
            biact = _trusted_biact(idle, t, fixed, list(zip(*maps)), labels,
                                   {"kind": "biact", "recipe": "right-transformation"})
        else:              # their opposite acts on the left: they are the rows
            biact = _trusted_biact(opposite(t), idle, maps, list(zip(*fixed)), labels,
                                   {"kind": "biact", "recipe": "left-transformation"})

    # optionally quotient, keeping validity by construction
    twist = rng.randrange(3)
    if twist == 1 and biact.size > 1:
        seed_elt = rng.randrange(biact.size)
        sub = subact_closure(biact, [seed_elt])
        if 0 < len(sub.members) < biact.size:
            biact = biact_rees_quotient(biact, sub.members)
    elif twist == 2 and biact.size > 1:
        a = rng.randrange(biact.size)
        b = rng.randrange(biact.size)
        if a != b:
            rho = congruence_closure(biact, [(a, b)])
            if rho.num_blocks > 1:
                biact, _ = quotient(biact, rho)
    return biact


def random_biact_corpus(count: int, master_seed) -> list[FiniteBiact]:
    return [random_biact(f"{master_seed}:{i}") for i in range(count)]
