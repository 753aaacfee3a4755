"""Finite biacts: a carrier with compatible left and right semigroup actions.

A biact over semigroups S and T is a set A with maps (s, a) -> sa and
(a, t) -> at such that

    s(s'a) = (ss')a,    (at)t' = a(tt'),    (sa)t = s(at).

Action tables are dense: ``left_action[s][a]`` and ``right_action[a][t]``.
Carrier ids are their own namespace, disjoint from the semigroup ids.

Trust boundary: ``validate_biact`` is the entry point for raw action
tables (file load, hand-built actions) and checks ranges and all three
axioms.  The other constructors check only their own preconditions --
ideal, subsemigroup, subact, homomorphism -- because their output
satisfies the axioms by construction.  Those that read no host biact
(regular, relative, pullback) build through the unchecked
``_trusted_biact``, and so do the exhaustive census
(``enumeration.all_biacts``), whose candidates pass the left-axiom scan
``_left_axiom_violation`` (on S, and on the opposite of T for the right
actions) and a compatibility check first, and the random sampler's
one-sided recipes (``enumeration.random_biact``: the maps of a
transformation semigroup on one side, the identity action on the other).
A differential test re-validates their output over the small census and
the random corpus.  The semigroup side mirrors this with
``core.validate_table`` and ``core._trusted_table``.  A semigroup is
already its own regular biact (see ``core``); ``regular_biact`` builds it
as a ``FiniteBiact``, and ``ideal_biact`` is the restriction of S, read
as its own biact, to the ideal (``Subact(s, ideal).sub``); an ideal is
exactly a subact of S, so the subact check is the ideal check.

Parts from digraphs.  This module owns the one-step digraph pair
(``digraphs``), the input that fixes a Green structure.  Every part
derived from a host -- a subact, a Rees quotient, a biact quotient, a
product -- is built by ``_derived`` from a pair derived from the host's:
the pair the caller holds, or else ``digraphs(host)``.  ``green`` takes
the part's structure from that pair, and its action tables are filled on
first read.  Such a part is an ordinary ``FiniteBiact``: equality,
hashing and repr read the tables, and so fill them.  The derived pairs
are exact: a subact is closed under both actions, so the sub's steps are
the host's restricted to the members; a host step from a non-member into
the subact becomes a step into the Rees quotient's sink, which steps
only to itself; a quotient block's steps are the blocks of its least
member's steps, by compatibility; and in S x T a left step moves the S
coordinate only, a right step the T coordinate.  Every successor tuple of
a pair, a host's (``_edges``) or a derived one, passes through the tuple
intern ``core._shared``, so equal successor sets of any hosts and parts
are one object (see ``green``).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .core import (
    DEFAULT_CLOSURE_CAP,
    FiniteSemigroup,
    _Frozen,
    _frozen,
    _grid,
    _is_int,
    _labels,
    _set,
    _shared,
    _translations,
    is_homomorphism,
    subsemigroup,
)
from .errors import (
    ActionAxiomViolation,
    BadEntry,
    NotAHomomorphism,
    NotAnIdeal,
    NotASubact,
    SizeLimitExceeded,
)


class FiniteBiact(_Frozen):
    _fields = ("left", "right", "size", "left_action", "right_action", "labels",
               "provenance")
    _hidden = ("provenance",)

    def __init__(self, left: FiniteSemigroup, right: FiniteSemigroup, size: int,
                 left_action: tuple[tuple[int, ...], ...],
                 right_action: tuple[tuple[int, ...], ...],
                 labels: tuple[str, ...], provenance: Optional[Mapping] = None):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "size", size)
        _set(self, "left_action", left_action)      # |S| x size
        _set(self, "right_action", right_action)    # size x |T|
        _set(self, "labels", labels)
        _set(self, "provenance", {} if provenance is None else provenance)

    def act_left(self, s: int, a: int) -> int:
        return self.left_action[s][a]

    def act_right(self, a: int, t: int) -> int:
        return self.right_action[a][t]

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: the tables of a
        # part built from its digraphs (``_derived``), filled on first read
        fill = self.__dict__.get(_FILL) if name in _TABLES else None
        if fill is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        left, right = fill()
        self.__dict__.update(left_action=_frozen(left), right_action=_frozen(right))
        del self.__dict__[_FILL]
        return self.__dict__[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FiniteBiact(size={self.size}, left={self.left.order}, "
                f"right={self.right.order})")


class Subact(_Frozen):
    """A subset of the carrier closed under both actions.  The derived
    biacts are built on first use and kept, both from the host's digraph
    pair, computed once.  The closure is checked once, on the first
    derived build: a member outside the carrier raises ``BadEntry``, a
    missing image ``NotASubact``."""
    _fields = ("host", "members")

    def __init__(self, host: FiniteBiact, members: frozenset[int]):
        _set(self, "host", host)
        _set(self, "members", members)

    @cached_property
    def _closed(self) -> frozenset[int]:
        """The members, once checked to be closed under both actions."""
        witness = is_subact(self.host, self.members)
        if witness is not None:
            raise NotASubact(witness)
        return self.members

    @cached_property
    def _pair(self) -> Digraphs:
        """The host's digraph pair, shared by ``sub`` and ``rees``."""
        return digraphs(self.host)

    @cached_property
    def sub(self) -> FiniteBiact:
        """The subact reindexed as a biact in its own right."""
        return _restrict(self.host, sorted(self._closed), self._pair)

    @cached_property
    def rees(self) -> FiniteBiact:
        """The Rees quotient of the host by the subact."""
        return _collapse(self.host, self._closed, self._pair)


Digraph = tuple[tuple[int, ...], ...]    # element -> sorted one-step successors
Digraphs = tuple[Digraph, Digraph]       # the left and the right one

_TABLES = ("left_action", "right_action")
# the instance-dict keys of a part's pending table fill, and of its digraph
# pair until ``green`` reads it
_FILL, _PAIR = "_fill", "_digraphs"


def _edges(x: Union[FiniteSemigroup, FiniteBiact],
           generators: Optional[Sequence[int]] = None) -> Digraphs:
    """The frozen one-step left and right digraphs, over every acting
    element or only over ``generators``.  A semigroup is read as its own
    biact.  Over every element, the left successors of e are column e of
    the left action and the right successors are row e of the right one."""
    la, ra = x.left_action, x.right_action
    if generators is None:
        left = tuple([_shared(tuple(sorted(set(col)))) for col in zip(*la)])
        right = tuple([_shared(tuple(sorted(set(row)))) for row in ra])
    else:
        left = tuple([_shared(tuple(sorted({la[s][e] for s in generators})))
                      for e in range(x.size)])
        right = tuple([_shared(tuple(sorted({ra[e][t] for t in generators})))
                       for e in range(x.size)])
    return left, right


def digraphs(x: Union[FiniteSemigroup, FiniteBiact]) -> Digraphs:
    """The one-step left and right digraphs over every acting element: the
    pair that determines the Green structure of ``x``.  Nothing is stored
    on ``x``; a caller that needs the pair again keeps it."""
    return _edges(x)


def _derived(s: FiniteSemigroup, t: FiniteSemigroup, size: int,
             fill: Callable[[], tuple[list, list]], labels: Iterable[str],
             provenance: Mapping, pair: Digraphs) -> FiniteBiact:
    """A derived biact whose one-step digraph pair is ``pair``, from which
    ``green`` builds its structure, and whose action tables ``fill()``
    gives on first read."""
    x = object.__new__(FiniteBiact)
    x.__dict__.update(left=s, right=t, size=size, labels=tuple(labels),
                      provenance=dict(provenance), **{_FILL: fill, _PAIR: pair})
    return x


def _restrict(b: FiniteBiact, mem: Sequence[int],
              pair: Optional[Digraphs] = None) -> FiniteBiact:
    """The sorted members ``mem``, already known to be closed under both
    actions, as a biact of their own; ``pair`` is the host's digraph pair,
    when the caller holds it."""
    idx = {x: i for i, x in enumerate(mem)}

    def fill():
        return ([[idx[b.left_action[s][x]] for x in mem] for s in range(b.left.order)],
                [[idx[b.right_action[x][t]] for t in range(b.right.order)] for x in mem])

    get = idx.__getitem__
    pair = tuple(tuple([_shared(tuple(map(get, side[x]))) for x in mem])
                 for side in pair or digraphs(b))
    return _derived(b.left, b.right, len(mem), fill, (b.labels[x] for x in mem),
                    {"kind": "subact"}, pair)


def action_axiom_violation(s: FiniteSemigroup, t: FiniteSemigroup,
                           left: Sequence[Sequence[int]],
                           right: Sequence[Sequence[int]]) -> Optional[tuple[str, tuple]]:
    """First violated axiom as (name, witness triple), or None."""
    bad = _left_axiom_violation(s, left, len(right))
    if bad is not None:
        return ("left", bad)
    for a in range(len(right)):
        for t1 in range(t.order):
            for t2 in range(t.order):
                if right[right[a][t1]][t2] != right[a][t.table[t1][t2]]:
                    return ("right", (a, t1, t2))
    for s1 in range(s.order):
        for a in range(len(right)):
            for t1 in range(t.order):
                if right[left[s1][a]][t1] != left[s1][right[a][t1]]:
                    return ("mixed", (s1, a, t1))
    return None


def _left_axiom_violation(s: FiniteSemigroup, left: Sequence[Sequence[int]],
                          m: int) -> Optional[tuple[int, int, int]]:
    """The first (s1, s2, a) with s1(s2 a) != (s1 s2)a, for a left action
    of ``s`` on m points, or None."""
    for s1 in range(s.order):
        for s2 in range(s.order):
            for a in range(m):
                if left[s1][left[s2][a]] != left[s.table[s1][s2]][a]:
                    return (s1, s2, a)
    return None


def validate_biact(s: FiniteSemigroup, t: FiniteSemigroup,
                   left_action: Sequence[Sequence[int]],
                   right_action: Sequence[Sequence[int]],
                   labels: Optional[Sequence[str]] = None,
                   provenance: Optional[Mapping] = None) -> FiniteBiact:
    if not isinstance(right_action, (list, tuple)):
        raise BadEntry("right_action must be a list with one row per carrier element")
    size = len(right_action)
    if size <= 0:
        raise BadEntry("biact carrier must be nonempty")
    left = _grid(left_action, s.order, size, size, "left_action")
    right = _grid(right_action, size, t.order, size, "right_action")
    bad = action_axiom_violation(s, t, left, right)
    if bad is not None:
        raise ActionAxiomViolation(*bad)
    if labels is None:
        labels = tuple(f"a{i}" for i in range(size))
    else:
        labels = _labels(labels, size, "carrier element")
    return _trusted_biact(s, t, left, right, labels, provenance or {"kind": "biact"})


def _trusted_biact(s: FiniteSemigroup, t: FiniteSemigroup,
                   left_action: Sequence[Sequence[int]],
                   right_action: Sequence[Sequence[int]],
                   labels: Sequence[str], provenance: Mapping) -> FiniteBiact:
    """Build a biact without checking it: only for tables that satisfy the
    action axioms by construction (see the module docstring)."""
    return FiniteBiact(left=s, right=t, size=len(right_action),
                       left_action=_frozen(left_action),
                       right_action=_frozen(right_action),
                       labels=tuple(labels), provenance=dict(provenance))


def regular_biact(s: FiniteSemigroup) -> FiniteBiact:
    """The semigroup acting on itself by multiplication on both sides.

    The action axioms are associativity of ``s``, which ``validate_table``
    has already checked, so both actions share ``s.table``.
    """
    return _trusted_biact(s, s, s.table, s.table, s.labels, {"kind": "regular"})


def ideal_biact(s: FiniteSemigroup, ideal: Iterable[int]) -> FiniteBiact:
    """An ideal of S as an S-biact under multiplication: S is its own
    biact, and the ideal is a subact of it."""
    mem = frozenset(ideal)
    if not mem:
        raise NotAnIdeal("an ideal biact needs a nonempty ideal")
    try:
        return Subact(s, mem).sub
    except NotASubact as exc:
        raise NotAnIdeal(f"not an ideal: witness {exc.witness}") from exc


def relative_biact(s: FiniteSemigroup, sub_members: Iterable[int]) -> FiniteBiact:
    """S as a biact over a subsemigroup T, acting by multiplication in S."""
    sub, carrier = subsemigroup(s, sub_members)
    left = [[s.table[carrier[i]][a] for a in range(s.order)] for i in range(sub.order)]
    right = [[s.table[a][carrier[j]] for j in range(sub.order)] for a in range(s.order)]
    return _trusted_biact(sub, sub, left, right, s.labels, {"kind": "relative"})


def is_subact(a: FiniteBiact, members: Iterable[int]) -> Optional[tuple]:
    """A witness that members is not closed under both actions, or None.
    A member that is not an element id of ``a`` raises ``BadEntry``."""
    mem = set(members)
    for x in mem:
        if not (_is_int(x) and 0 <= x < a.size):
            raise BadEntry(f"member {x!r} outside carrier")
    for s in range(a.left.order):
        for x in mem:
            if a.left_action[s][x] not in mem:
                return ("left", s, x, a.left_action[s][x])
    for x in mem:
        for t in range(a.right.order):
            if a.right_action[x][t] not in mem:
                return ("right", x, t, a.right_action[x][t])
    return None


def subact_closure(a: FiniteBiact, seed: Iterable[int]) -> Subact:
    """Smallest subact containing ``seed`` (possibly empty).  A seed
    element outside the carrier raises ``BadEntry``."""
    members = set(seed)
    for x in members:
        if not (_is_int(x) and 0 <= x < a.size):
            raise BadEntry(f"seed element {x!r} outside carrier")
    maps = _translations(a)
    frontier = list(members)
    while frontier:
        fresh = []
        for x in frontier:
            for f in maps:
                y = f[x]
                if y not in members:
                    members.add(y)
                    fresh.append(y)
        frontier = fresh
    return Subact(host=a, members=frozenset(members))


def biact_rees_quotient(a: FiniteBiact, sub: Iterable[int]) -> FiniteBiact:
    """Collapse a subact to a single absorbing zero (the new last element).

    The empty subact is permitted: the quotient is then A with a fresh
    absorbing zero; claim suites quarantine that case.
    """
    mem = frozenset(sub)
    witness = is_subact(a, mem)
    if witness is not None:
        raise NotASubact(witness)
    return _collapse(a, mem)


def _collapse(a: FiniteBiact, mem: frozenset[int],
              pair: Optional[Digraphs] = None) -> FiniteBiact:
    """The Rees quotient of ``a`` by ``mem``, already known to be closed;
    ``pair`` is the host's digraph pair, when the caller holds it."""
    keep = [x for x in range(a.size) if x not in mem]
    idx = {x: i for i, x in enumerate(keep)}
    zero = len(keep)

    def fill():
        to = [idx.get(y, zero) for y in range(a.size)]    # a member goes to the sink
        return ([[to[row[x]] for x in keep] + [zero] for row in a.left_action],
                [[to[y] for y in a.right_action[x]] for x in keep] + [[zero] * a.right.order])

    def merged(succ: tuple[int, ...]) -> tuple[int, ...]:
        # idx keeps the order and the sink is last, so the result is sorted
        out = tuple([idx[y] for y in succ if y in idx])
        return _shared(out if len(out) == len(succ) else out + (zero,))

    pair = tuple(tuple([merged(side[x]) for x in keep]) + (_shared((zero,)),)
                 for side in pair or digraphs(a))
    return _derived(a.left, a.right, zero + 1, fill,
                    tuple(a.labels[x] for x in keep) + ("0",),
                    {"kind": "rees-quotient", "collapsed": tuple(sorted(mem))}, pair)


def _block_quotient(x: FiniteBiact, blocks: Sequence[int],
                    pair: Optional[Digraphs] = None) -> FiniteBiact:
    """The quotient of ``x`` by ``blocks``, already known to be a
    congruence (dense block ids, numbered by least member); ``pair`` is
    the host's digraph pair, when the caller holds it.  Each block acts
    through its least member."""
    k = max(blocks) + 1
    reps = [0] * k
    for e in range(len(blocks) - 1, -1, -1):
        reps[blocks[e]] = e

    def fill():
        return ([[blocks[x.left_action[s][r]] for r in reps] for s in range(x.left.order)],
                [[blocks[x.right_action[r][t]] for t in range(x.right.order)] for r in reps])

    pair = tuple(tuple([_shared(tuple(sorted({blocks[y] for y in side[r]}))) for r in reps])
                 for side in pair or digraphs(x))
    return _derived(x.left, x.right, k, fill, ("{" + x.labels[r] + "}" for r in reps),
                    {"kind": "quotient"}, pair)


def relative_rees(s: FiniteSemigroup, sub_members: Iterable[int]) -> FiniteBiact:
    """Rees quotient of the relative biact of S over T by the copy of T."""
    members = frozenset(sub_members)
    return biact_rees_quotient(relative_biact(s, members), members)


def product_biact(s: FiniteSemigroup, t: FiniteSemigroup,
                  digraphs: Optional[Digraphs] = None) -> FiniteBiact:
    """Carrier S x T with s(a,b) = (sa,b) and (a,b)t = (a,bt).

    Pair (a, b) is interned as a * |T| + b.  A carrier above the closure
    cap is refused before any table is built.  ``digraphs``, when the
    caller holds them, are the left digraph of S and the right digraph of
    T (``_edges``).
    """
    ns, nt = s.order, t.order
    if ns * nt > DEFAULT_CLOSURE_CAP:
        raise SizeLimitExceeded(DEFAULT_CLOSURE_CAP, f"the product of orders {ns} and {nt}")

    def fill():
        return ([[s.table[x][a] * nt + b for a in range(ns) for b in range(nt)]
                 for x in range(ns)],
                [[a * nt + t.table[b][y] for y in range(nt)]
                 for a in range(ns) for b in range(nt)])

    s_left, t_right = digraphs or (_edges(s)[0], _edges(t)[1])
    pair = (tuple([_shared(tuple([y * nt + b for y in s_left[a]]))
                   for a in range(ns) for b in range(nt)]),
            tuple([_shared(tuple([a * nt + y for y in t_right[b]]))
                   for a in range(ns) for b in range(nt)]))
    labels = tuple(f"({s.labels[a]},{t.labels[b]})" for a in range(ns) for b in range(nt))
    return _derived(s, t, ns * nt, fill, labels, {"kind": "product"}, pair)


def pullback_biact(a: FiniteBiact,
                   h_left: tuple[FiniteSemigroup, Sequence[int]],
                   h_right: tuple[FiniteSemigroup, Sequence[int]]) -> FiniteBiact:
    """Restrict the actions along homomorphisms into the acting semigroups.

    ``h_left = (S', f)`` with f : S' -> S; dually for the right side.  The
    carrier is unchanged.  Both maps are checked to be homomorphisms, and
    actions restricted along homomorphisms satisfy the axioms, so the
    result is built without re-checking them.
    """
    s2, f = h_left
    t2, g = h_right
    bad = is_homomorphism(f, s2, a.left)
    if bad is not None:
        raise NotAHomomorphism(bad)
    bad = is_homomorphism(g, t2, a.right)
    if bad is not None:
        raise NotAHomomorphism(bad)
    left = [a.left_action[f[s]] for s in range(s2.order)]
    right = [tuple(a.right_action[x][g[t]] for t in range(t2.order))
             for x in range(a.size)]
    return _trusted_biact(s2, t2, left, right, a.labels, {"kind": "pullback"})
