"""Infinite witnesses given by decision procedures.

Each catalog entry packages an element encoding, a total multiplication
(or action) procedure, le_K deciders for K in {L, R, J}, generators of
strictly descending class chains where a minimal condition fails, and a
property sheet grading every claimed boolean by its evidence:

    structural        closed-form reasoning recorded in the detail string
    chain-witness     a verified strictly descending chain
    pair-witness      a verified stability violation (s, a)
    sampled-decision  checked on sampled pairs through the deciders

A "true" entry is never inferred from a failure to find a chain, and the
catalog refuses to build if any sheet contradicts the implication network
between the predicates.

Encodings:

- bicyclic elements are pairs (m, n) of nonnegative integers, standing
  for the normal form b^m a^n of the monoid generated by a, b with
  ab = 1; the product is (m,n)(k,l) = (m+t-n, l+t-k) with t = max(n,k)
- free semigroup elements are nonempty words (Python strings)
- additive naturals are {1, 2, ...}: no identity and no idempotent

The extension constructions U(S,T;A) (Construction 4.17) and U(S,A)
(Construction 5.10) are one gluing, finite and symbolic: semigroup parts
glued to a biact A through a null ideal, given by the tagged parts, the
part acting on the left of A and the part acting on its right.
``build_usta`` and ``build_usa`` fill their tables through ``_glue``;
``SymbolicExtensionSTA`` and ``SymbolicExtensionSA`` are ``_Gluing`` over
the same data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .biact import FiniteBiact
from .core import FiniteSemigroup, validate_table
from .errors import (
    ActionMismatch,
    DecisionUnavailable,
    InvariantViolation,
    UnknownEntry,
)
from .green import PREORDERS, _not_a_preorder

ZERO = ("0",)          # absorbing element of the extension semigroups
ZERO_CLASS = "zero"    # collapsed class in symbolic Rees quotients


@dataclass(frozen=True)
class PropertyClaim:
    value: bool
    evidence: str        # structural | chain-witness | pair-witness | sampled-decision
    detail: str = ""


class PropertySheet(dict):
    """Predicate name -> PropertyClaim."""

    def value(self, key: str) -> Optional[bool]:
        claim = self.get(key)
        return claim.value if claim else None

    def to_json(self) -> dict:
        return {k: {"value": c.value, "evidence": c.evidence, "detail": c.detail}
                for k, c in sorted(self.items())}


class SymbolicSemigroup:
    name = "abstract"
    sheet: PropertySheet = PropertySheet()

    def mul(self, x, y):
        raise NotImplementedError

    def le(self, k: str, x, y) -> bool:
        raise DecisionUnavailable(f"{self.name} has no {k}-decider")

    def chain(self, k: str) -> Optional[Callable[[int], object]]:
        return None

    def sample(self, rng: random.Random):
        raise NotImplementedError

    def encode(self, x):
        return x

    def __repr__(self) -> str:  # pragma: no cover
        return f"<symbolic semigroup {self.name}>"


class SymbolicBiact:
    name = "abstract biact"
    left: SymbolicSemigroup
    right: SymbolicSemigroup
    sheet: PropertySheet = PropertySheet()

    def act_left(self, s, a):
        raise NotImplementedError

    def act_right(self, a, t):
        raise NotImplementedError

    def le(self, k: str, a, b) -> bool:
        raise DecisionUnavailable(f"{self.name} has no {k}-decider")

    def chain(self, k: str) -> Optional[Callable[[int], object]]:
        return None

    def sample(self, rng: random.Random):
        raise NotImplementedError

    def encode(self, a):
        return a


# ---------------------------------------------------------------------------
# bicyclic monoid


def bicyclic_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    m, n = x
    k, l = y
    t = max(n, k)
    return (m + t - n, l + t - k)


def bicyclic_left_witness(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """An s with s * x = y, which exists exactly when y <=_L x."""
    if y[1] < x[1]:
        raise ValueError(f"{y} is not an L-multiple of {x}")
    return (y[0], x[0] + y[1] - x[1])


def bicyclic_two_sided_witness(x: tuple[int, int], y: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """A pair (s, t) with s * x * t = y; always solvable (the monoid is simple)."""
    s = (y[0], x[0])
    t = (x[1], y[1])
    return s, t


class Bicyclic(SymbolicSemigroup):
    name = "bicyclic"

    def __init__(self) -> None:
        self.sheet = PropertySheet({
            "M_L": PropertyClaim(False, "chain-witness", "second coordinate grows"),
            "M_R": PropertyClaim(False, "chain-witness", "first coordinate grows"),
            "M_J": PropertyClaim(True, "sampled-decision", "single J-class"),
            "left_stable": PropertyClaim(False, "pair-witness", "s=(0,1), a=(0,0)"),
            "right_stable": PropertyClaim(False, "pair-witness", "t=(1,0), a=(0,0)"),
            "stable": PropertyClaim(False, "pair-witness", "either one-sided witness"),
            "l_periodic": PropertyClaim(False, "structural",
                                        "s=(0,1): s^n(0,0)=(0,n), all L-distinct"),
            "r_periodic": PropertyClaim(False, "structural",
                                        "t=(1,0): (0,0)t^n=(n,0), all R-distinct"),
            "group_bound": PropertyClaim(False, "structural",
                                         "powers of (0,1) never meet an idempotent H-class"),
            "simple": PropertyClaim(True, "sampled-decision", "mutual J on samples"),
            "bisimple": PropertyClaim(True, "sampled-decision",
                                      "L-then-R middle element found for samples"),
            "j_trivial": PropertyClaim(False, "structural", "(0,0) J (0,1) but distinct"),
        })
        self.left_instability = ((0, 1), (0, 0))   # (s, a)
        self.right_instability = ((1, 0), (0, 0))  # (t, a)

    def mul(self, x, y):
        return bicyclic_mul(x, y)

    def le(self, k, x, y):
        if k == "L":
            return x[1] >= y[1]
        if k == "R":
            return x[0] >= y[0]
        if k == "J":
            return True
        raise DecisionUnavailable(f"no {k}-decider")

    def chain(self, k):
        if k == "L":
            return lambda i: (0, i)
        if k == "R":
            return lambda i: (i, 0)
        return None

    def sample(self, rng):
        return (rng.randrange(0, 40), rng.randrange(0, 40))

    def encode(self, x):
        return list(x)


# Rewriting oracle for the bicyclic deciders: words over {a, b} with the
# rewriting rule ab -> (empty).  Normal forms are exactly b^m a^n.

def reduce_word(w: str) -> str:
    """The normal form of ``w``: delete every ``ab`` until none is left.
    The rule has no self-overlap, so the order of deletions is immaterial."""
    while "ab" in w:
        w = w.replace("ab", "")
    return w


def word_to_pair(w: str) -> tuple[int, int]:
    r = reduce_word(w)
    m = len(r) - len(r.lstrip("b"))
    n = len(r) - m
    if r != "b" * m + "a" * n:
        raise InvariantViolation(f"reduced word {r!r} is not a normal form")
    return (m, n)


def pair_to_word(x: tuple[int, int]) -> str:
    return "b" * x[0] + "a" * x[1]


def oracle_le(k: str, u: str, v: str) -> bool:
    """Decide u <=_K v by a bounded search on reduced words, K in {L, R, J}:
    ``oracle_below`` from v with u as its one target."""
    return bool(oracle_below(k, v, (u,)))


def oracle_below(k: str, v: str, targets: Iterable[str]) -> frozenset[str]:
    """The words u of ``targets`` with u <=_K v, from one bounded search.

    Starting from the reduced form of v, single-generator multiplications
    (prepended for L, appended for R, both for J) are applied and reduced.
    u is below v exactly when its reduced form is reached through reduced
    words of length at most len(u) + 2 len(v) + 4, both lengths reduced: a
    bound that covers every required intermediate form.  The search
    records, for each word it reaches, the least length bound under which
    it does, visiting words in increasing order of that bound up to the
    largest bound any target needs, so one search from v answers every
    target exactly as a search per target would.  K is L, R or J.
    """
    if k not in PREORDERS:
        raise _not_a_preorder(k)
    start = reduce_word(v)
    bounds = {u: (t, len(t) + 2 * len(start) + 4)
              for u, t in ((u, reduce_word(u)) for u in targets)}
    if not bounds:
        return frozenset()
    cap = max(bound for _, bound in bounds.values())
    # least[w]: the least bound under which the search reaches w, final when
    # w is first reached; ``level`` holds the words by that bound, each
    # level done before the next, until every target is reached
    least = {start: len(start)}
    level: list[list[str]] = [[] for _ in range(cap + 1)]
    level[len(start)].append(start)
    missing = {t for t, _ in bounds.values()} - {start}
    for bound in range(len(start), cap + 1):
        todo = level[bound]
        while todo and missing:
            for w2 in _steps(k, todo.pop()):
                if w2 not in least and len(w2) <= cap:
                    least[w2] = max(bound, len(w2))
                    level[least[w2]].append(w2)
                    missing.discard(w2)
    return frozenset(u for u, (t, bound) in bounds.items() if least.get(t, cap + 1) <= bound)


def _steps(k: str, w: str) -> tuple[str, ...]:
    """The reduced one-step rewrites of the reduced word ``w`` that the
    ``k`` search applies."""
    steps: tuple[str, ...] = ()
    if k in ("L", "J"):
        steps += (reduce_word("a" + w), reduce_word("b" + w))
    if k in ("R", "J"):
        steps += (reduce_word(w + "a"), reduce_word(w + "b"))
    return steps


# ---------------------------------------------------------------------------
# the rest of the catalog


class NatPlus(SymbolicSemigroup):
    """Additive naturals {1, 2, ...}; x <=_K y iff x >= y for every K."""
    name = "nat-plus"

    def __init__(self) -> None:
        self.sheet = PropertySheet({
            "M_L": PropertyClaim(False, "chain-witness", "1 > 2 > 3 ..."),
            "M_R": PropertyClaim(False, "chain-witness", "same chain"),
            "M_J": PropertyClaim(False, "chain-witness", "same chain"),
            "left_stable": PropertyClaim(True, "structural", "J-trivial"),
            "right_stable": PropertyClaim(True, "structural", "J-trivial"),
            "stable": PropertyClaim(True, "structural", "J-trivial"),
            "l_periodic": PropertyClaim(False, "structural",
                                        "ns+a and (n+1)s+a are never equal"),
            "r_periodic": PropertyClaim(False, "structural", "dual"),
            "group_bound": PropertyClaim(False, "structural", "no idempotent"),
            "simple": PropertyClaim(False, "structural", "1 and 2 are J-unrelated"),
            "bisimple": PropertyClaim(False, "structural", "not simple"),
            "j_trivial": PropertyClaim(True, "sampled-decision", "classes are singletons"),
        })

    def mul(self, x, y):
        return x + y

    def le(self, k, x, y):
        return x >= y

    def chain(self, k):
        return lambda i: i + 1

    def sample(self, rng):
        return rng.randrange(1, 200)


class IntPlus(SymbolicSemigroup):
    """Additive integers: a group, so a single class for every relation."""
    name = "int-plus"

    def __init__(self) -> None:
        self.sheet = PropertySheet({
            "M_L": PropertyClaim(True, "structural", "single L-class"),
            "M_R": PropertyClaim(True, "structural", "single R-class"),
            "M_J": PropertyClaim(True, "structural", "single J-class"),
            "left_stable": PropertyClaim(True, "structural", "group"),
            "right_stable": PropertyClaim(True, "structural", "group"),
            "stable": PropertyClaim(True, "structural", "group"),
            "l_periodic": PropertyClaim(True, "structural", "single L-class"),
            "r_periodic": PropertyClaim(True, "structural", "single R-class"),
            "group_bound": PropertyClaim(True, "structural", "group"),
            "simple": PropertyClaim(True, "sampled-decision", "single J-class"),
            "bisimple": PropertyClaim(True, "structural", "single D-class"),
            "j_trivial": PropertyClaim(False, "structural", "0 J 1 but distinct"),
        })

    def mul(self, x, y):
        return x + y

    def le(self, k, x, y):
        return True

    def sample(self, rng):
        return rng.randrange(-100, 100)


class FreeSemigroup(SymbolicSemigroup):
    """Nonempty words; y <=_L x iff x is a suffix of y, dually for R,
    and y <=_J x iff x is a factor of y.  J-trivial, hence stable."""

    def __init__(self, rank: int) -> None:
        if not (1 <= rank <= 8):
            raise UnknownEntry(f"free semigroup rank must be 1..8, got {rank}")
        self.rank = rank
        self.alphabet = "abcdefgh"[:rank]
        self.name = f"free{rank}"
        self.sheet = PropertySheet({
            "M_L": PropertyClaim(False, "chain-witness", "a > aa > aaa ..."),
            "M_R": PropertyClaim(False, "chain-witness", "same chain"),
            "M_J": PropertyClaim(False, "chain-witness", "same chain"),
            "left_stable": PropertyClaim(True, "structural", "J-trivial"),
            "right_stable": PropertyClaim(True, "structural", "J-trivial"),
            "stable": PropertyClaim(True, "structural", "J-trivial"),
            "l_periodic": PropertyClaim(False, "structural",
                                        "s^n a and s^(n+1) a have different lengths"),
            "r_periodic": PropertyClaim(False, "structural", "dual"),
            "group_bound": PropertyClaim(False, "structural", "no idempotent"),
            "simple": PropertyClaim(False, "structural", "'a' and 'aa' are J-unrelated"),
            "bisimple": PropertyClaim(False, "structural", "not simple"),
            "j_trivial": PropertyClaim(True, "sampled-decision",
                                       "mutual factors force equality"),
        })

    def mul(self, x, y):
        return x + y

    def le(self, k, x, y):
        if k == "L":
            return x.endswith(y)
        if k == "R":
            return x.startswith(y)
        if k == "J":
            return y in x
        raise DecisionUnavailable(f"no {k}-decider")

    def chain(self, k):
        return lambda i: "a" * (i + 1)

    def sample(self, rng):
        return "".join(rng.choice(self.alphabet) for _ in range(rng.randrange(1, 9)))


class NatMax(SymbolicSemigroup):
    """The semilattice ({1, 2, ...}, max): an infinite descending chain of
    idempotents, so group-bound without any minimal condition."""
    name = "nat-max"

    def __init__(self) -> None:
        self.sheet = PropertySheet({
            "M_L": PropertyClaim(False, "chain-witness", "1 > 2 > 3 ..."),
            "M_R": PropertyClaim(False, "chain-witness", "same chain"),
            "M_J": PropertyClaim(False, "chain-witness", "same chain"),
            "left_stable": PropertyClaim(True, "structural", "semilattice is J-trivial"),
            "right_stable": PropertyClaim(True, "structural", "semilattice is J-trivial"),
            "stable": PropertyClaim(True, "structural", "group-bound"),
            "l_periodic": PropertyClaim(True, "structural", "sa = s^2 a"),
            "r_periodic": PropertyClaim(True, "structural", "as = as^2"),
            "group_bound": PropertyClaim(True, "structural", "every element idempotent"),
            "simple": PropertyClaim(False, "structural", "classes are singletons"),
            "bisimple": PropertyClaim(False, "structural", "not simple"),
            "j_trivial": PropertyClaim(True, "sampled-decision", "classes are singletons"),
        })

    def mul(self, x, y):
        return max(x, y)

    def le(self, k, x, y):
        return x >= y

    def chain(self, k):
        return lambda i: i + 1

    def sample(self, rng):
        return rng.randrange(1, 200)


class NullSemigroup(SymbolicSemigroup):
    """All products equal the zero element 0; order may be infinite (None)."""

    def __init__(self, size: Optional[int] = None) -> None:
        if size is not None and size < 1:
            raise UnknownEntry("a null semigroup needs at least the zero")
        self.size = size
        self.name = "null" if size is None else f"null{size}"
        nontrivial = size is None or size > 1
        self.sheet = PropertySheet({
            "M_L": PropertyClaim(True, "structural", "nonzero classes are minimal singletons"),
            "M_R": PropertyClaim(True, "structural", "same"),
            "M_J": PropertyClaim(True, "structural", "same"),
            "left_stable": PropertyClaim(True, "structural", "J-trivial"),
            "right_stable": PropertyClaim(True, "structural", "J-trivial"),
            "stable": PropertyClaim(True, "structural", "J-trivial"),
            "l_periodic": PropertyClaim(True, "structural", "sa = 0 = s^2 a"),
            "r_periodic": PropertyClaim(True, "structural", "dual"),
            "group_bound": PropertyClaim(True, "structural", "x^2 = 0, a trivial subgroup"),
            "simple": PropertyClaim(not nontrivial, "structural",
                                    "zero is strictly below any other element"),
            "bisimple": PropertyClaim(not nontrivial, "structural", "same"),
            "j_trivial": PropertyClaim(True, "sampled-decision", "classes are singletons"),
        })

    def mul(self, x, y):
        return 0

    def le(self, k, x, y):
        return x == 0 or x == y

    def sample(self, rng):
        upper = 200 if self.size is None else self.size
        return rng.randrange(0, upper)


class WithZero(SymbolicSemigroup):
    """A symbolic semigroup with a fresh absorbing zero adjoined."""

    def __init__(self, base: SymbolicSemigroup) -> None:
        self.base = base
        self.name = base.name + "+0"

    def mul(self, x, y):
        if x == ZERO_CLASS or y == ZERO_CLASS:
            return ZERO_CLASS
        return self.base.mul(x, y)

    def le(self, k, x, y):
        if x == ZERO_CLASS:
            return True
        if y == ZERO_CLASS:
            return False
        return self.base.le(k, x, y)

    def sample(self, rng):
        return ZERO_CLASS if rng.random() < 0.1 else self.base.sample(rng)

    def encode(self, x):
        return x if x == ZERO_CLASS else self.base.encode(x)


# ---------------------------------------------------------------------------
# the integers as a biact over the additive naturals, and its Rees quotient


class IntegersOverNat(SymbolicBiact):
    """Carrier Z with {1,2,...} adding on both sides; x <=_K y iff x >= y
    for every K, so the identity chain descends forever."""
    name = "nat-int-nat"

    def __init__(self) -> None:
        nat = NatPlus()
        self.left = nat
        self.right = nat
        self.sheet = PropertySheet({
            "M_L": PropertyClaim(False, "chain-witness", "-k > -k+1 > ... > 0 > 1 > ..."),
            "M_R": PropertyClaim(False, "chain-witness", "same chain"),
            "M_J": PropertyClaim(False, "chain-witness", "same chain"),
            "left_stable": PropertyClaim(True, "structural", "s+a J a never holds"),
            "right_stable": PropertyClaim(True, "structural", "dual"),
            "stable": PropertyClaim(True, "structural", "both sides"),
        })

    def act_left(self, s, a):
        return s + a

    def act_right(self, a, t):
        return a + t

    def le(self, k, a, b):
        return a >= b

    def chain(self, k):
        return lambda i: i - 100

    def sample(self, rng):
        return rng.randrange(-100, 100)


class IntegersOverNatRees(SymbolicBiact):
    """The quotient collapsing the naturals: carrier {..., -1, 0} plus a
    zero class, which is the unique minimum; every strict descent from -k
    reaches the zero class within k+1 steps."""
    name = "nat-(int/nat)-nat"

    def __init__(self) -> None:
        nat = NatPlus()
        self.left = nat
        self.right = nat
        self.sheet = PropertySheet({
            "M_L": PropertyClaim(True, "structural", "descents from -k are bounded"),
            "M_R": PropertyClaim(True, "structural", "same"),
            "M_J": PropertyClaim(True, "structural", "same"),
            "left_stable": PropertyClaim(True, "structural", "s+a J a only at the zero class"),
            "right_stable": PropertyClaim(True, "structural", "dual"),
            "stable": PropertyClaim(True, "structural", "both sides"),
        })

    def act_left(self, s, a):
        if a == ZERO_CLASS:
            return ZERO_CLASS
        return s + a if s + a <= 0 else ZERO_CLASS

    def act_right(self, a, t):
        return self.act_left(t, a)

    def le(self, k, a, b):
        if a == ZERO_CLASS:
            return True
        if b == ZERO_CLASS:
            return False
        return a >= b

    def sample(self, rng):
        return ZERO_CLASS if rng.random() < 0.1 else -rng.randrange(0, 100)

    def longest_strict_descents(self, depth: int) -> list[int]:
        """The number of strict steps in the longest descending chain from
        -k, for k = 0..depth, in one exhaustive pass over the window
        [-depth, 0] plus the zero class.  An element's longest descent
        reads only the elements strictly below it, and those are the same
        in every seed's window that holds it."""
        if depth < 0:
            raise ValueError("depth must be a nonnegative integer")
        elements = list(range(-depth, 1)) + [ZERO_CLASS]
        best = {ZERO_CLASS: 0}
        for x in range(0, -depth - 1, -1):
            below = [y for y in elements
                     if self.le("J", y, x) and not self.le("J", x, y)]
            best[x] = 1 + max(best[y] for y in below) if below else 0
        return [best[-k] for k in range(depth + 1)]


def example_4_8() -> dict:
    """The biact of the integers over the naturals and its Rees quotient."""
    return {"biact": IntegersOverNat(), "quotient": IntegersOverNatRees()}


# ---------------------------------------------------------------------------
# extension constructions


@dataclass(frozen=True)
class ExtensionParts:
    """Element ranges of a materialised finite extension semigroup."""
    s_ids: tuple[int, ...]
    t_ids: tuple[int, ...]
    x_ids: tuple[int, ...]   # x_ids[a] is the wrapped copy of carrier element a
    zero_id: int

    @property
    def ideal_ids(self) -> tuple[int, ...]:       # S together with the null part
        return tuple(sorted(set(self.s_ids) | set(self.x_ids) | {self.zero_id}))

    @property
    def null_ids(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.x_ids) | {self.zero_id}))


def _glue(parts: dict[str, FiniteSemigroup], left_tag: str, right_tag: str,
          a: FiniteBiact, kind: str) -> tuple[FiniteSemigroup, ExtensionParts]:
    """Glue the semigroup ``parts`` (laid out in order, labels prefixed by
    their tags) and the biact A into one semigroup on parts + {x_a} + {0}.

    The part tagged ``left_tag`` acts on the left of the x-part, the part
    tagged ``right_tag`` on its right; each part keeps its own products, and
    every other product is 0.
    """
    for side, tag, acting in (("left", left_tag, a.left), ("right", right_tag, a.right)):
        if acting.table != parts[tag].table:
            raise ActionMismatch(f"the biact's {side} semigroup is not {tag.upper()}")
    ids, x0 = {}, 0
    for tag, sem in parts.items():
        ids[tag] = tuple(range(x0, x0 + sem.order))
        x0 += sem.order
    zero = x0 + a.size
    table = [[zero] * (zero + 1) for _ in range(zero + 1)]
    for tag, sem in parts.items():
        base = ids[tag][0]
        for i, row in enumerate(sem.table):
            table[base + i][base:base + sem.order] = [base + y for y in row]
    for i, row in zip(ids[left_tag], a.left_action):
        table[i][x0:zero] = [x0 + y for y in row]
    for x, row in enumerate(a.right_action):
        for j, y in zip(ids[right_tag], row):
            table[x0 + x][j] = x0 + y
    labels = (tuple(f"{tag}:{x}" for tag, sem in parts.items() for x in sem.labels)
              + tuple(f"x:{x}" for x in a.labels) + ("0",))
    sem = validate_table(zero + 1, table, labels=labels, provenance={"kind": kind})
    return sem, ExtensionParts(ids["s"], ids.get("t", ()), tuple(range(x0, zero)), zero)


def build_usta(s: FiniteSemigroup, t: FiniteSemigroup,
               a: FiniteBiact) -> tuple[FiniteSemigroup, ExtensionParts]:
    """Glue disjoint semigroups S and T with an (S,T)-biact A into one
    semigroup on S + T + {x_a} + {0}:

        s x_a = x_{sa},  x_a t = x_{at},
        st = ts = x_a s = t x_a = x_a x_b = 0,  0 absorbing.
    """
    return _glue({"s": s, "t": t}, "s", "t", a, "usta")


def build_usa(s: FiniteSemigroup, a: FiniteBiact) -> tuple[FiniteSemigroup, ExtensionParts]:
    """Glue a semigroup S with an S-biact A into one semigroup on
    S + {x_a} + {0}:

        s x_a = x_{sa},  x_a s = x_{as},  x_a x_b = 0,  0 absorbing.
    """
    return _glue({"s": s}, "s", "s", a, "usa")


class _Gluing(SymbolicSemigroup):
    """The same gluing over symbolic parts: elements are tagged tuples
    (tag, x) for each semigroup part, ("x", a) for the biact and the
    absorbing ("0",).  ``parts`` maps each tag to its semigroup; the part
    tagged ``left_tag`` acts on the left of the x-part, the part tagged
    ``right_tag`` on its right, and every other product of distinct parts is 0.
    ``mixed_le`` may decide the pairs (x-element, semigroup element) that
    need instance data."""

    def __init__(self, parts: dict[str, SymbolicSemigroup], left_tag: str, right_tag: str,
                 a: SymbolicBiact,
                 mixed_le: Optional[Callable[[str, tuple, tuple], Optional[bool]]] = None):
        self.parts = parts
        self.left_tag = left_tag
        self.right_tag = right_tag
        self.a = a
        self.mixed_le = mixed_le
        self.name = f"U({','.join(p.name for p in parts.values())};{a.name})"

    def _part(self, tag: str):
        """The semigroup part tagged ``tag``, or the biact for the x-part."""
        return self.parts.get(tag, self.a)

    def mul(self, u, v):
        if u == ZERO or v == ZERO:
            return ZERO
        ku, xu = u
        kv, xv = v
        if ku == kv and ku in self.parts:
            return (ku, self.parts[ku].mul(xu, xv))
        if ku == self.left_tag and kv == "x":
            return ("x", self.a.act_left(xu, xv))
        if ku == "x" and kv == self.right_tag:
            return ("x", self.a.act_right(xu, xv))
        return ZERO

    def le(self, k, u, v):
        if u == v or u == ZERO:
            return True
        if v == ZERO:
            return False
        ku, xu = u
        kv, xv = v
        if ku == kv:
            return self._part(ku).le(k, xu, xv)
        if ku != "x":
            # everything below an x-element stays in the null part, and
            # products of distinct semigroup parts vanish
            return False
        if self.mixed_le is not None:
            ans = self.mixed_le(k, u, v)
            if ans is not None:
                return ans
        raise DecisionUnavailable(f"{self.name}: no decider for {u} vs {v}")

    def le_in_ideal(self, u, v):
        """The J-preorder of the ideal S + N, S the part acting on the left:
        on the null part only translations by S survive, so it is the
        L-preorder of the biact, or its J-preorder when S acts on both
        sides."""
        if u == v or u == ZERO:
            return True
        if v == ZERO:
            return False
        ku, xu = u
        kv, xv = v
        if ku == kv == self.left_tag:
            return self.parts[ku].le("J", xu, xv)
        if ku == kv == "x":
            return self.a.le("J" if self.right_tag == self.left_tag else "L", xu, xv)
        if ku == self.left_tag and kv == "x":
            return False
        if ku == "x" and kv == self.left_tag:
            raise DecisionUnavailable("x-below-s inside the ideal needs instance data")
        raise DecisionUnavailable(f"no ideal decider for {u} vs {v}")

    def sample(self, rng):
        if rng.random() < 0.05:
            return ZERO
        tag = rng.choice([*self.parts, "x"])
        return (tag, self._part(tag).sample(rng))

    def encode(self, u):
        if u == ZERO:
            return ["0"]
        kind, x = u
        return [kind, self._part(kind).encode(x)]


class SymbolicExtensionSTA(_Gluing):
    """U(S,T;A) over symbolic parts: S acts on the left, T on the right."""

    def __init__(self, s: SymbolicSemigroup, t: SymbolicSemigroup, a: SymbolicBiact,
                 mixed_le: Optional[Callable[[str, tuple, tuple], Optional[bool]]] = None):
        super().__init__({"s": s, "t": t}, "s", "t", a, mixed_le)


class SymbolicExtensionSA(_Gluing):
    """U(S,A) over symbolic parts: S acts on both sides."""

    def __init__(self, s: SymbolicSemigroup, a: SymbolicBiact):
        super().__init__({"s": s}, "s", "s", a)


# ---------------------------------------------------------------------------
# instances behind the headline counterexamples


class BicyclicDelegate(SymbolicBiact):
    """A structure on bicyclic pairs whose products, deciders, chains,
    samples and encodings are those of the bicyclic monoid ``b``.

    As a semigroup it is a disjoint copy of ``b`` (same pairs, distinct
    role).  As a biact over ``left`` and ``right``, an acting element
    multiplies through ``project``, its image in the bicyclic monoid.
    """

    def __init__(self, b: Bicyclic, name: str, sheet: PropertySheet,
                 left=None, right=None,
                 project: Callable[[object], tuple[int, int]] = lambda s: s):
        self.b = b
        self.name = name
        self.sheet = sheet
        self.left = left
        self.right = right
        self.project = project

    def mul(self, x, y):
        return self.b.mul(x, y)

    def act_left(self, s, x):
        return self.b.mul(self.project(s), x)

    def act_right(self, x, t):
        return self.b.mul(x, self.project(t))

    def le(self, k, x, y):
        return self.b.le(k, x, y)

    def chain(self, k):
        return self.b.chain(k)

    def sample(self, rng):
        return self.b.sample(rng)

    def encode(self, x):
        return list(x)


@dataclass
class Cor419Instance:
    """U(B, Bbar; A) with A the copy biact: U, N and I/N all satisfy the
    J-minimal condition while the ideal I = B + N does not."""
    u: SymbolicExtensionSTA
    biact: BicyclicDelegate
    bicyclic: Bicyclic

    def ideal_chain(self) -> Callable[[int], tuple]:
        return lambda i: ("x", (0, i))

    def ideal_order(self):
        """The ideal with its J-order, its descending chain and the
        encoding of U: the headline chain lives in the ideal."""
        inst = self

        class _IdealOrder:
            def le(self, k, x, y):
                if k != "J":
                    raise DecisionUnavailable("the ideal analysis is about J")
                return inst.u.le_in_ideal(x, y)

            def chain(self, k):
                return inst.ideal_chain() if k == "J" else None

            def encode(self, x):
                return inst.u.encode(x)

        return _IdealOrder()

    def chain_step_witness(self, i: int) -> tuple:
        """The s in I with s * x_{a_(0,i)} = x_{a_(0,i+1)}, for replay."""
        s = bicyclic_left_witness((0, i), (0, i + 1))
        return ("s", s)

    def mutual_j_witness(self, w: tuple[int, int], v: tuple[int, int]) -> tuple:
        """(u1, u2) with u1 * x_w * u2 = x_v inside U, for replay."""
        s, t = bicyclic_two_sided_witness(w, v)
        return (("s", s), ("t", t))

    def i_over_n(self) -> WithZero:
        return WithZero(self.bicyclic)

    def u_j_poset(self, rng: random.Random, samples: int = 50) -> dict:
        """Case analysis of the J-order of U on sampled representatives:
        four parts, with the null part above only the zero and below both
        semigroup parts.  Positive answers are replayed as explicit products."""
        u = self.u
        b = self.bicyclic
        one = (0, 0)
        for _ in range(samples):
            sv, tv, xv = b.sample(rng), b.sample(rng), b.sample(rng)
            s, t, x = ("s", sv), ("t", tv), ("x", xv)
            checks = [
                u.le("J", x, s), not u.le("J", s, x),
                u.le("J", x, t), not u.le("J", t, x),
                not u.le("J", s, t), not u.le("J", t, s),
                u.le("J", ZERO, x), not u.le("J", x, ZERO),
            ]
            if not all(checks):
                raise InvariantViolation(f"J case analysis failed at {s}, {t}, {x}")
            # x below s: u1 * s * 1 * t1 lands on the sampled index
            u1, t1 = bicyclic_two_sided_witness(sv, xv)
            got = u.mul(u.mul(u.mul(("s", u1), s), ("x", one)), ("t", t1))
            if got != x:
                raise InvariantViolation(f"x-below-s replay failed at {s}, {x}")
            # x below t: s1 * (a_1 * t * t2) lands on the sampled index
            s1, t2 = bicyclic_two_sided_witness(tv, xv)
            got = u.mul(("s", s1), u.mul(u.mul(("x", one), t), ("t", t2)))
            if got != x:
                raise InvariantViolation(f"x-below-t replay failed at {t}, {x}")
            # zero below x
            if u.mul(("x", one), x) != ZERO:
                raise InvariantViolation("zero replay failed")
        return {"parts": ["S", "T", "X", "0"],
                "covers": [["S", "X"], ["T", "X"], ["X", "0"]]}


def corollary_4_19_instance() -> Cor419Instance:
    b = Bicyclic()
    bbar = BicyclicDelegate(b, "bicyclic-bar", b.sheet)
    # {a_w : w bicyclic} with s a_w = a_{sw} and a_w tbar = a_{wt}
    biact = BicyclicDelegate(b, "bicyclic-copy", PropertySheet({
        "M_L": PropertyClaim(False, "chain-witness", "tracks the bicyclic L-chain"),
        "M_R": PropertyClaim(False, "chain-witness", "tracks the bicyclic R-chain"),
        "M_J": PropertyClaim(True, "sampled-decision", "single J-class"),
    }), left=b, right=bbar)

    def mixed(k: str, uu: tuple, vv: tuple) -> Optional[bool]:
        ku = uu[0]
        kv = vv[0]
        if k == "J" and ku == "x" and kv in ("s", "t"):
            return True    # B^1 v B Bbar^1 covers every index: B is simple
        return None

    u = SymbolicExtensionSTA(b, bbar, biact, mixed_le=mixed)
    return Cor419Instance(u=u, biact=biact, bicyclic=b)


def free_to_bicyclic(word: str) -> tuple[int, int]:
    """The projection of a word over {a, b} onto the bicyclic monoid."""
    acc = (0, 0)
    for ch in word:
        if ch not in "ab":
            raise ValueError(f"letter {ch!r} outside the projection alphabet")
        acc = bicyclic_mul(acc, (0, 1) if ch == "a" else (1, 0))
    return acc


def bicyclic_section(x: tuple[int, int]) -> str:
    """A nonempty word projecting onto x."""
    w = pair_to_word(x)
    return w if w else "ab"


@dataclass
class Cor512Instance:
    """U(S, A) with S the free semigroup on {a, b} and A the pullback of
    the bicyclic biact: I = N is null hence stable, U/I is S with a zero
    hence stable, but U is not left stable."""
    u: SymbolicExtensionSA
    free: FreeSemigroup
    biact: BicyclicDelegate

    @property
    def witness(self) -> tuple:
        """(s, x) with s x J x but not s x L x inside U."""
        return (("s", "a"), ("x", (0, 0)))

    def quotient_by_ideal(self) -> WithZero:
        return WithZero(self.free)

    def mutual_j_witness_words(self, x: tuple[int, int],
                               y: tuple[int, int]) -> tuple[str, str]:
        """Words (u, v) with u * x_x * v = x_y in U, for replay."""
        s, t = bicyclic_two_sided_witness(x, y)
        return (bicyclic_section(s), bicyclic_section(t))


def corollary_5_12_instance() -> Cor512Instance:
    free = FreeSemigroup(2)
    # the bicyclic monoid acted on through the projection, which is onto,
    # so the orbit preorders are the bicyclic ones
    biact = BicyclicDelegate(Bicyclic(), "free-pullback-bicyclic", PropertySheet({
        "M_L": PropertyClaim(False, "chain-witness", "bicyclic L-chain"),
        "M_R": PropertyClaim(False, "chain-witness", "bicyclic R-chain"),
        "M_J": PropertyClaim(True, "sampled-decision", "single J-class"),
        "left_stable": PropertyClaim(False, "pair-witness", "s='a', x=(0,0)"),
        "right_stable": PropertyClaim(False, "pair-witness", "t='b', x=(0,0)"),
        "stable": PropertyClaim(False, "pair-witness", "either side"),
    }), left=free, right=free, project=free_to_bicyclic)
    u = SymbolicExtensionSA(free, biact)
    return Cor512Instance(u=u, free=free, biact=biact)


# ---------------------------------------------------------------------------
# chains and the catalog


@dataclass(frozen=True)
class ChainCheck:
    ok: bool
    failed_at: Optional[int] = None
    reason: str = ""


def verify_chain(x, chain: Callable[[int], object], k: str, depth: int) -> ChainCheck:
    """Check that chain(0), chain(1), ... strictly descends in <=_K through
    the object's own decider, for ``depth`` consecutive steps."""
    prev = chain(0)
    for i in range(1, depth + 1):
        cur = chain(i)
        if not x.le(k, cur, prev):
            return ChainCheck(False, i, f"step {i} does not descend")
        if x.le(k, prev, cur):
            return ChainCheck(False, i, f"step {i} is not strict")
        prev = cur
    return ChainCheck(True)


def instability_witnessed(x, side: str) -> bool:
    """Whether the instability pair that ``x`` advertises on ``side`` holds:
    for "left", (s, a) = ``x.left_instability`` with sa J a but not sa L a;
    for "right", (t, a) = ``x.right_instability`` with at J a but not at R a."""
    if side == "left":
        (g, a), k = x.left_instability, "L"
        moved = x.mul(g, a)
    else:
        (g, a), k = x.right_instability, "R"
        moved = x.mul(a, g)
    return (x.le("J", moved, a) and x.le("J", a, moved)
            and not (x.le(k, moved, a) and x.le(k, a, moved)))


_PERIODIC_FOR = {"M_L": "l_periodic", "M_R": "r_periodic"}
_STABLE_FOR = {"l_periodic": "left_stable", "r_periodic": "right_stable"}
_GATE_CHAIN_DEPTH = 25    # steps each negative chain is replayed
_GATE_SAMPLE_PAIRS = 20   # sampled pairs of each simple entry


def check_sheet_network(entries: dict[str, SymbolicSemigroup]) -> None:
    """Refuse a catalog whose sheets contradict the implication network or
    whose negative claims lack verified witnesses."""
    rng = random.Random("catalog-gate")
    for name, entry in sorted(entries.items()):
        sheet = entry.sheet

        def v(key: str) -> Optional[bool]:
            return sheet.value(key)

        for mk, per in _PERIODIC_FOR.items():
            if v(mk) is True and v(per) is False:
                raise InvariantViolation(f"{name}: {mk} without {per}")
        for per, st in _STABLE_FOR.items():
            if v(per) is True and v(st) is False:
                raise InvariantViolation(f"{name}: {per} without {st}")
        if None not in (v("M_L"), v("M_R"), v("stable"), v("M_J")):
            if (v("M_L") and v("M_R")) != (v("stable") and v("M_J")):
                raise InvariantViolation(f"{name}: M_L+M_R disagrees with stable+M_J")
        if v("simple") is True and v("M_J") is False:
            raise InvariantViolation(f"{name}: simple without M_J")
        if v("bisimple") is True and v("simple") is False:
            raise InvariantViolation(f"{name}: bisimple without simple")
        if v("j_trivial") is True and v("stable") is False:
            raise InvariantViolation(f"{name}: J-trivial without stability")
        if None not in (v("group_bound"), v("l_periodic"), v("r_periodic")):
            if v("group_bound") != (v("l_periodic") and v("r_periodic")):
                raise InvariantViolation(f"{name}: group-bound disagrees with periodicity")

        for mk, k in (("M_L", "L"), ("M_R", "R"), ("M_J", "J")):
            if v(mk) is False:
                chain = entry.chain(k)
                if chain is None:
                    raise InvariantViolation(f"{name}: {mk}=false without a chain")
                res = verify_chain(entry, chain, k, _GATE_CHAIN_DEPTH)
                if not res.ok:
                    raise InvariantViolation(f"{name}: {k}-chain fails ({res.reason})")
        for side in ("left", "right"):
            if v(f"{side}_stable") is False and not instability_witnessed(entry, side):
                raise InvariantViolation(f"{name}: {side} instability witness fails")
        if v("simple") is True:
            for _ in range(_GATE_SAMPLE_PAIRS):
                x, y = entry.sample(rng), entry.sample(rng)
                if not (entry.le("J", x, y) and entry.le("J", y, x)):
                    raise InvariantViolation(f"{name}: simplicity fails at {x}, {y}")


def catalog() -> dict[str, SymbolicSemigroup]:
    entries = {
        "bicyclic": Bicyclic(),
        "nat-plus": NatPlus(),
        "int-plus": IntPlus(),
        "free2": FreeSemigroup(2),
        "free3": FreeSemigroup(3),
        "nat-max": NatMax(),
        "null": NullSemigroup(),
    }
    check_sheet_network(entries)
    return entries


def catalog_entry(name: str) -> SymbolicSemigroup:
    """Resolve a CLI-facing name: the fixed entries plus the free{k} and
    null{n} families."""
    entries = catalog()
    if name in entries:
        return entries[name]
    if name.startswith("free") and name[4:].isdigit():
        return FreeSemigroup(int(name[4:]))
    if name.startswith("null") and name[4:].isdigit():
        return NullSemigroup(int(name[4:]))
    raise UnknownEntry(f"no catalog entry named {name!r}")
