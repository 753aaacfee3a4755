"""Finite biacts: a carrier with compatible left and right semigroup actions.

A biact over semigroups S and T is a set A with maps (s, a) -> sa and
(a, t) -> at such that

    s(s'a) = (ss')a,    (at)t' = a(tt'),    (sa)t = s(at).

Action tables are dense: ``left_action[s][a]`` and ``right_action[a][t]``.
Carrier ids are their own namespace, disjoint from the semigroup ids.

Trust boundary: ``validate_biact`` is the entry point for raw action
tables (file load, hand-built actions) and checks ranges and all three
axioms (``action_axiom_violation``): the left axiom by the left-axiom
scan ``_left_axiom_violation`` on S, the right one by the same scan on
the opposite of T over the columns of the right action, and the mixed
one by ``_mixed_violation``.  The other constructors check only their own
preconditions -- ideal, subsemigroup, subact, homomorphism -- because
their output satisfies the axioms by construction.  Those that read no
host biact (regular, relative, pullback) build through the unchecked
``_trusted_biact``, and so do the exhaustive census
(``enumeration.all_biacts``), whose candidates pass the same three scans
first, and the random sampler's one-sided recipes
(``enumeration.random_biact``: the maps of a transformation semigroup on
one side, the identity action on the other).  A differential test
re-validates their output over the small census and the random
corpus.  The semigroup side mirrors this with ``core.validate_table`` and
``core._trusted_table``.  A semigroup is already its own regular biact
(see ``core``); ``regular_biact`` builds it as a ``FiniteBiact``, and
``ideal_biact`` is the restriction of S, read as its own biact, to the
ideal (``Subact(s, ideal).sub``); an ideal is exactly a subact of S, so
the subact check is the ideal check.

Parts from digraphs.  This module owns the one-step digraph pair, the
input that fixes a Green structure, and ``digraphs(x)`` is the one way
to read it.  One holder keeps an object's pair at a time: the object
itself, in its ``_PAIR`` slot, until ``green`` builds its structure, and
the structure (``GreenStructure.pair``) from then on;
``green_structure`` pops the slot as it builds.  Every part derived from
a host -- a subact, a Rees quotient, a biact quotient, a product -- is
built by ``_derived`` from a pair derived from ``digraphs(host)``, and
carries it in its slot.  ``green`` takes the part's structure from that
pair, and its action tables are filled on first read.  A subact, a Rees
quotient and a block quotient are one construction, ``_induced(host,
domain, relabel, sink, ...)``: part element i acts as host element
``domain[i]``, a host element y reads as ``relabel[y]``, and ``sink``
adds one last element that every action fixes; the pair and the tables
are both read this way.  The three wrappers only choose the inputs:
``_restrict`` the members, relabelled by their index; ``_collapse`` the
non-members, with every member sent to the sink; ``_block_quotient`` the
least member of each block, relabelled by block id.  Such a part is an
ordinary ``FiniteBiact``: equality, hashing and repr read the tables,
and so fill them; copies and pickles are rebuilt from the tables and
carry no pair.  The derived pairs are exact: a subact is closed under
both actions, so the sub's steps are the host's restricted to the
members; a host step from a non-member into the subact becomes a step
into the Rees quotient's sink, which steps only to itself; a quotient
block's steps are the blocks of its least member's steps, by
compatibility; and in S x T a left step moves the S coordinate only, a
right step the T coordinate.  Every successor tuple of a pair, a host's
(``_edges``, each side's successors read from that side's maps) or a
derived one, passes through the tuple intern ``core._shared``, so equal
successor sets of any hosts and parts are one object (see ``green``).
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
    _first_exit,
    _labels,
    _members,
    _set,
    _shared,
    _translations,
    is_homomorphism,
    opposite,
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
    pair (``digraphs``).  The closure is checked once, on the first
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
    def sub(self) -> FiniteBiact:
        """The subact reindexed as a biact in its own right."""
        return _restrict(self.host, sorted(self._closed))

    @cached_property
    def rees(self) -> FiniteBiact:
        """The Rees quotient of the host by the subact."""
        return _collapse(self.host, self._closed)


Digraph = tuple[tuple[int, ...], ...]    # element -> sorted one-step successors
Digraphs = tuple[Digraph, Digraph]       # the left and the right one

_TABLES = ("left_action", "right_action")
# the instance-dict keys of a part's pending table fill, of an object's
# digraph pair until ``green`` builds its structure, and of that structure
_FILL, _PAIR, _SLOT = "_fill", "_digraphs", "_green_structure"


def _edges(x: Union[FiniteSemigroup, FiniteBiact],
           generators: Optional[Sequence[int]] = None) -> Digraphs:
    """The frozen one-step left and right digraphs, over every acting
    element or only over ``generators``.  A semigroup is read as its own
    biact.  The successors of e on a side are its images under that side's
    maps: column e of the left action's rows, row e of the right action
    (the images under its columns), each restricted to the generators'
    maps when they are given.  The right action is read by rows, not
    transposed into its maps and back."""
    left, right = x.left_action, x.right_action
    if generators is not None:
        left = [left[s] for s in generators]
        right = [[row[t] for t in generators] for row in right]
    return tuple(tuple([_shared(tuple(sorted(set(images)))) for images in side])
                 for side in (zip(*left), right))


def digraphs(x: Union[FiniteSemigroup, FiniteBiact]) -> Digraphs:
    """The one-step left and right digraphs over every acting element: the
    pair that determines the Green structure of ``x``.  Once ``green`` has
    built that structure, the pair it keeps; until then the pair ``x``
    carries, frozen into its slot (``_edges``) on the first call."""
    slots = x.__dict__
    gs = slots.get(_SLOT)
    if gs is not None:
        return gs.pair
    if _PAIR not in slots:
        slots[_PAIR] = _edges(x)
    return slots[_PAIR]


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


def _restrict(b: FiniteBiact, mem: Sequence[int]) -> FiniteBiact:
    """The sorted members ``mem``, already known to be closed under both
    actions, as a biact of their own."""
    idx = {x: i for i, x in enumerate(mem)}
    return _induced(b, mem, idx, False, (b.labels[x] for x in mem), {"kind": "subact"})


def _induced(host: Union[FiniteSemigroup, FiniteBiact], domain: Sequence[int],
             relabel: Union[Sequence[int], Mapping[int, int]], sink: bool,
             labels: Iterable[str], provenance: Mapping) -> FiniteBiact:
    """The part of ``host`` whose element i acts as host element
    ``domain[i]`` and whose element ids are the host's read through
    ``relabel`` (``relabel[y]`` for host element y), with, when ``sink``
    is set, one last element that every action fixes: a subact, a Rees
    quotient or a block quotient.  Its digraph pair is derived from the
    host's, element i stepping to the relabelled host steps of
    ``domain[i]``, and its action tables, read the same way, are filled
    on first read (``_derived``)."""
    n = len(domain)

    def fill():
        left = [[relabel[row[x]] for x in domain] for row in host.left_action]
        right = [[relabel[y] for y in host.right_action[x]] for x in domain]
        if sink:
            for row in left:
                row.append(n)
            right.append([n] * host.right.order)
        return left, right

    get, pair = relabel.__getitem__, []
    for side in digraphs(host):
        steps = [_shared(tuple(sorted(set(map(get, side[x]))))) for x in domain]
        if sink:
            steps.append(_shared((n,)))
        pair.append(tuple(steps))
    return _derived(host.left, host.right, n + 1 if sink else n, fill, labels, provenance,
                    tuple(pair))


def action_axiom_violation(s: FiniteSemigroup, t: FiniteSemigroup,
                           left: Sequence[Sequence[int]],
                           right: Sequence[Sequence[int]]) -> Optional[tuple[str, tuple]]:
    """First violated axiom as (name, witness triple), or None.  The right
    action is checked as a left action of the opposite of ``t`` on its
    columns (as the census enumerates it), so the right triple
    ``(a, t1, t2)`` reported is the first the opposite's scan meets."""
    bad = _left_axiom_violation(s, left, len(right))
    if bad is not None:
        return ("left", bad)
    bad = _left_axiom_violation(opposite(t), list(zip(*right)), len(right))
    if bad is not None:
        t2, t1, a = bad      # (a t1) t2 != a (t1 t2)
        return ("right", (a, t1, t2))
    bad = _mixed_violation(left, right)
    return None if bad is None else ("mixed", bad)


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


def _mixed_violation(left: Sequence[Sequence[int]],
                     right: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """The first (s1, a, t1) with (s1 a)t1 != s1(a t1), or None."""
    for s1, row in enumerate(left):
        for a, images in enumerate(right):
            for t1, at in enumerate(images):
                if right[row[a]][t1] != row[at]:
                    return (s1, a, t1)
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
    mem = _members(ideal, s.order, "member {!r} outside carrier")
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
    mem = _members(members, a.size, "member {!r} outside carrier")
    bad = _first_exit(a.left_action, range(a.left.order), mem, mem)
    if bad is not None:
        return ("left",) + bad
    bad = _first_exit(a.right_action, mem, range(a.right.order), mem)
    return None if bad is None else ("right",) + bad


def subact_closure(a: FiniteBiact, seed: Iterable[int]) -> Subact:
    """Smallest subact containing ``seed`` (possibly empty).  A seed
    element outside the carrier raises ``BadEntry``."""
    members = set(_members(seed, a.size, "seed element {!r} outside carrier"))
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
    mem = _members(sub, a.size, "member {!r} outside carrier")
    witness = is_subact(a, mem)
    if witness is not None:
        raise NotASubact(witness)
    return _collapse(a, mem)


def _collapse(a: FiniteBiact, mem: frozenset[int]) -> FiniteBiact:
    """The Rees quotient of ``a`` by ``mem``, already known to be closed."""
    keep = [x for x in range(a.size) if x not in mem]
    to = [len(keep)] * a.size       # a member goes to the sink
    for i, x in enumerate(keep):
        to[x] = i
    return _induced(a, keep, to, True, [a.labels[x] for x in keep] + ["0"],
                    {"kind": "rees-quotient", "collapsed": tuple(sorted(mem))})


def _block_quotient(x: FiniteBiact, blocks: Sequence[int]) -> FiniteBiact:
    """The quotient of ``x`` by ``blocks``, already known to be a
    congruence (dense block ids, numbered by least member).  Each block
    acts through its least member."""
    reps = [blocks.index(b) for b in range(max(blocks) + 1)]     # least members
    return _induced(x, reps, blocks, False, ("{" + x.labels[r] + "}" for r in reps),
                    {"kind": "quotient"})


def relative_rees(s: FiniteSemigroup, sub_members: Iterable[int]) -> FiniteBiact:
    """Rees quotient of the relative biact of S over T by the copy of T."""
    members = list(sub_members)     # hashed only once checked, by subsemigroup
    return biact_rees_quotient(relative_biact(s, members), members)


def product_biact(s: FiniteSemigroup, t: FiniteSemigroup) -> FiniteBiact:
    """Carrier S x T with s(a,b) = (sa,b) and (a,b)t = (a,bt).

    Pair (a, b) is interned as a * |T| + b.  A carrier above the closure
    cap is refused before any table is built.  The product's digraphs are
    built from the left digraph of S and the right digraph of T.
    """
    ns, nt = s.order, t.order
    if ns * nt > DEFAULT_CLOSURE_CAP:
        raise SizeLimitExceeded(DEFAULT_CLOSURE_CAP, f"the product of orders {ns} and {nt}")

    def fill():
        return ([[s.table[x][a] * nt + b for a in range(ns) for b in range(nt)]
                 for x in range(ns)],
                [[a * nt + t.table[b][y] for y in range(nt)]
                 for a in range(ns) for b in range(nt)])

    s_left, t_right = digraphs(s)[0], digraphs(t)[1]
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
