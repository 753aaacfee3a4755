"""Finite semigroups: validated tables, transformation closures, quotients.

Conventions, fixed once for the whole toolkit:

- Elements are dense integer ids ``0..order-1``; labels are display-only.
- ``table[a][b]`` is the product ``a * b``.
- The product of two transformations ``f * g`` means "apply f, then g"
  (maps act on the right).  This choice is visible in every relative
  Green computation downstream, so it is part of the file-format contract.
- Adjoining an identity or a zero always adds a fresh element, even when
  the semigroup already has one.
- A semigroup S is also the (S, S)-biact of S acting on itself: ``size``,
  ``left``/``right`` and ``left_action``/``right_action`` read its table,
  so Green's relations, minimal conditions and stability need no conversion.
  Its translations (``_translations``) are the rows of the left action and
  the columns of the right one, read the same way for a semigroup and a
  biact.

Trust boundary: ``validate_table`` checks raw tables (file load, census
candidates, the public API).  The derived constructors here check only
their own preconditions (closure, ideal, congruence, degree) and build
through the unchecked ``_trusted_table``: their output is associative by
construction.  A differential test re-validates it over the small census.

Value classes.  The engine's ten record classes (``FiniteSemigroup``,
``SubsetRole`` and ``Congruence`` here, ``FiniteBiact`` and ``Subact`` in
``biact``, ``_Partition``, ``_PreorderData``, ``GreenStructure`` and
``GreenIndexResult`` in ``green``, ``PredicateResult`` in ``props``) are
written by hand over one small base, ``_Frozen``, with the behaviour they
had as frozen data classes: equality and hashing over the same fields, the
same repr, and assignment refused with the same message.  Every file
command loads these four modules, and the standard library's data-class
module would bring ``inspect``, ``ast``, ``dis`` and ``tokenize`` with it,
plus the generated methods of each class.  On a shared 2-vCPU host
(Python 3.11) that made ``import greenstone.props`` about 20 ms slower
and ``analyze`` on an order-133 transformation semigroup about 34 ms
slower, per launch (medians of 30 alternating launches).  ``verify`` and ``symbolic`` keep
that module: they load only under ``verify``, ``probe``, ``catalog`` and
``construct usta/usa``, and the benchmark's tracer rebuilds
``verify.Claim`` records with its ``replace``.

Memos.  The engine's value-keyed memos are one type, ``_Memo``: a plain
dict under a bound, which evicts its oldest key first and counts its
misses for ``cache_info()``.  There are three, each bounded by a module
constant: the tuple intern ``_shared`` here (``SHARED_TUPLES``) and the
preorder and Green-structure memos of ``green`` (3 x 4,096 and 4,096).  A
hit is a dict lookup in C.  Counting hits takes a Python ``__call__``,
which the two ``green`` memos pay (``_CountedMemo``: 27,000 calls in the
seed-0 claim suite, and the benchmark reads their hit rate), and the
intern does not: it took about 300,000 calls there, with the rewrite steps
of the bicyclic oracle, once a memo too, and a Python call on each made
the claim suite's launches about 10% slower in CPU time (medians of 12
alternating launches per side, shared 2-vCPU host).  A
memo keeps its keys' insertion order in a deque beside the dict, so an
evicting insert pops the oldest key in O(1): asking the dict for its
first key walks past every slot that earlier evictions left empty at the
front of its entry table: 3.4 and 5.6 us per evicting insert at 4,096 and
8,192 keys against 1.1 and 1.3 us with the deque (20,000 inserts, Python
3.11.7, shared 2-vCPU x86_64 host).
"""

from __future__ import annotations

import operator
from collections import deque, namedtuple
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .errors import (
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

# 4096 elements: a table of at most 16.8M entries
DEFAULT_CLOSURE_CAP = 4096

# The most distinct tuples ``_shared`` holds: room for the 5,178 that the
# claim suite at max-order 4 meets (see ``green``).
SHARED_TUPLES = 8192

# Above this order the constructor switches from the full triple scan to
# the generator-based test; both remain callable for cross-checks.
TRIPLE_SCAN_LIMIT = 64


_set = object.__setattr__    # how an ``__init__`` writes past the refusal


class _Frozen:
    """Frozen value semantics for the engine's record classes, driven by
    two class attributes: ``_fields``, the constructor's fields in order,
    and ``_hidden``, those left out of equality, hashing and repr.  Objects
    are equal when they are of one class and their other fields are equal,
    and hash as the tuple of those fields; the repr lists them.  Assigning
    or deleting an attribute is refused.  Copies and pickles are rebuilt
    through the constructor from ``_fields``.  Each class writes its own
    ``__init__``, which writes each field with ``_set``, and chooses its own
    storage: an instance dict, or ``__slots__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)
        cls._key = operator.attrgetter(*cls._shown)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class FiniteSemigroup(_Frozen):
    _fields = ("order", "table", "labels", "provenance")
    _hidden = ("provenance",)

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...],
                 labels: tuple[str, ...], provenance: Optional[Mapping] = None):
        _set(self, "order", order)
        _set(self, "table", table)
        _set(self, "labels", labels)
        _set(self, "provenance", {} if provenance is None else provenance)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    # the read-only biact view: S acting on itself on both sides
    size = property(lambda self: self.order)
    left = right = property(lambda self: self)
    left_action = right_action = property(lambda self: self.table)

    def identity(self) -> Optional[int]:
        for e in range(self.order):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(self.order)):
                return e
        return None

    def generator_ids(self) -> Optional[tuple[int, ...]]:
        gens = self.provenance.get("generator_ids")
        return tuple(gens) if gens is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.provenance.get("kind", "table")
        return f"FiniteSemigroup(order={self.order}, kind={kind!r})"


def _default_labels(order: int, prefix: str = "e") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(order))


def scan_triples(order: int, table: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """Full O(n^3) associativity scan; returns a violating triple or None."""
    for a in range(order):
        row_a = table[a]
        for b in range(order):
            ab = row_a[b]
            row_ab = table[ab]
            row_b = table[b]
            for c in range(order):
                if row_ab[c] != row_a[row_b[c]]:
                    return (a, b, c)
    return None


def light_test(order: int, table: Sequence[Sequence[int]],
               generators: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """Light's associativity test over a generating set.

    If ``(a*g)*b == a*(g*b)`` for all a, b and every generator g, the
    operation is associative (induction on the length of the middle
    element as a word in the generators).
    """
    for g in generators:
        col_g = [table[a][g] for a in range(order)]
        row_g = table[g]
        for a in range(order):
            ag = col_g[a]
            row_ag = table[ag]
            row_a = table[a]
            for b in range(order):
                if row_ag[b] != row_a[row_g[b]]:
                    return (a, g, b)
    return None


def subset_closure(table: Sequence[Sequence[int]], seed: Iterable[int]) -> frozenset[int]:
    """Smallest subsemigroup of the table containing ``seed``."""
    members = set(seed)
    frontier = list(members)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                for p in (table[a][b], table[b][a]):
                    if p not in members:
                        members.add(p)
                        nxt.append(p)
        frontier = nxt
    return frozenset(members)


def greedy_generators(order: int, table: Sequence[Sequence[int]]) -> list[int]:
    """A small (not necessarily minimal) generating set, found greedily."""
    gens: list[int] = []
    generated: frozenset[int] = frozenset()
    for x in range(order):
        if x not in generated:
            gens.append(x)
            generated = subset_closure(table, gens)
    return gens


def validate_table(order: int, table: Sequence[Sequence[int]],
                   labels: Optional[Sequence[str]] = None,
                   provenance: Optional[Mapping] = None) -> FiniteSemigroup:
    """Build a semigroup from a multiplication table, or refuse.

    Associativity is checked by the triple scan up to order
    ``TRIPLE_SCAN_LIMIT`` and by Light's test above it.
    """
    if not _is_int(order) or order <= 0:
        raise BadEntry(f"order must be a positive integer, got {order!r}")
    tbl = _grid(table, order, order, order, "table")

    if order <= TRIPLE_SCAN_LIMIT:
        bad = scan_triples(order, tbl)
    else:
        bad = light_test(order, tbl, greedy_generators(order, tbl))
    if bad is not None:
        raise NonAssociative(*bad)

    labels = _default_labels(order) if labels is None else _labels(labels, order, "element")
    return _trusted_table(order, tbl, labels, provenance or {"kind": "table"})


def _is_int(x) -> bool:
    """An integer, and not a bool: JSON ``true`` must not pass as 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def _grid(rows, n_rows: int, n_cols: int, bound: int,
          what: str) -> tuple[tuple[int, ...], ...]:
    """``rows`` frozen, if it is an ``n_rows`` x ``n_cols`` grid of integers
    in ``[0, bound)``; otherwise ``BadEntry`` naming the field ``what``."""
    if (not isinstance(rows, (list, tuple)) or len(rows) != n_rows
            or any(not isinstance(row, (list, tuple)) or len(row) != n_cols
                   for row in rows)):
        raise BadEntry(f"{what} must be {n_rows}x{n_cols}")
    for row in rows:
        for x in row:
            if not _is_int(x) or not 0 <= x < bound:
                raise BadEntry(f"{what} entry {x!r} is not an integer in [0, {bound})")
    return _frozen(rows)


def _labels(labels, n: int, what: str) -> tuple[str, ...]:
    """``labels`` as a tuple, if it holds ``n`` strings; otherwise ``BadEntry``."""
    if (not isinstance(labels, (list, tuple)) or len(labels) != n
            or not all(isinstance(x, str) for x in labels)):
        raise BadEntry(f"labels must be a list of {n} strings, one per {what}")
    return tuple(labels)


def _frozen(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """``table`` as a tuple of tuples, shared rather than copied if it is one."""
    if isinstance(table, tuple) and all(isinstance(row, tuple) for row in table):
        return table
    return tuple(tuple(row) for row in table)


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Memo(dict):
    """A bounded memo of the one-argument function ``fn``: a plain dict from
    key to value.  ``memo(key)`` is the dict lookup itself, in C; a miss
    (``__missing__``) counts, computes ``fn(key)`` and keeps it.  At most
    ``maxsize`` keys are kept: a key that arrives when the memo is full
    evicts the oldest kept key first, in insertion order.  ``cache_info()``
    (hits, misses, bound, size) and ``cache_clear()`` read and reset it as
    they do a ``functools.lru_cache``, but its hits read None: a lookup in C
    counts nothing (``_CountedMemo`` counts them).  An entry costs its dict
    slot alone, where an ``lru_cache`` entry also holds a link node and,
    for a tuple argument, a one-tuple key; ``_order`` holds the kept keys
    oldest first, one pointer each, so an eviction finds the oldest key
    without a walk over the dict."""

    __slots__ = ("fn", "maxsize", "misses", "_order")
    __call__ = dict.__getitem__

    def __init__(self, fn: Callable, maxsize: int):
        self.fn = fn
        self.maxsize = maxsize
        self.misses = 0
        self._order: deque = deque()

    def __missing__(self, key):
        self.misses += 1
        value = self.fn(key)
        if len(self) >= self.maxsize:
            del self[self._order.popleft()]
        self[key] = value
        self._order.append(key)
        return value

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(None, self.misses, self.maxsize, len(self))

    def cache_clear(self) -> None:
        self.clear()
        self._order.clear()
        self.misses = 0


class _CountedMemo(_Memo):
    """A ``_Memo`` that also counts its hits, in a Python ``__call__``: for
    a memo whose hit rate is read and whose calls are few enough that the
    count costs nothing measurable (``green``'s two memos)."""

    __slots__ = ("calls",)

    def __init__(self, fn: Callable, maxsize: int):
        super().__init__(fn, maxsize)
        self.calls = 0

    def __call__(self, key):
        self.calls += 1
        return self[key]

    def cache_info(self) -> _CacheInfo:
        return super().cache_info()._replace(hits=self.calls - self.misses)

    def cache_clear(self) -> None:
        super().cache_clear()
        self.calls = 0


# The first-seen tuple equal to ``t``, among the last ``SHARED_TUPLES``
# distinct ones kept, else ``t`` itself: equal tuples that the Green engine
# freezes and keeps become one object.
_shared = _Memo(lambda t: t, SHARED_TUPLES)


def _trusted_table(order: int, table: Sequence[Sequence[int]],
                   labels: Sequence[str], provenance: Mapping) -> FiniteSemigroup:
    """Build a semigroup without checking it: only for tables that are
    associative by construction (see the module docstring)."""
    return FiniteSemigroup(order=order, table=_frozen(table), labels=tuple(labels),
                           provenance=dict(provenance))


def compose(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """Apply f, then g."""
    return tuple(g[x] for x in f)


def generate_from_transformations(degree: int, generators: Sequence[Sequence[int]],
                                  cap: int = DEFAULT_CLOSURE_CAP,
                                  labels: Optional[Sequence[str]] = None) -> FiniteSemigroup:
    """Close a set of total maps on {0..degree-1} under composition.

    Elements are interned in BFS discovery order (generators first), which
    makes the resulting table reproducible.  Exceeding ``cap`` is an error,
    never a truncation; the default cap bounds the table at 4096**2 entries.

    The table is read off the right Cayley graph, after Froidure and Pin
    (1997): the BFS composes each element with each generator once and
    keeps ``right[i][j] = i * g_j``, and each non-generator b remembers the
    step ``b = p * g_j`` that found it, with ``p < b``.  Row a then fills
    in increasing column order, ``a * b = (a * p) * g_j``, with one list
    lookup per entry and no composition.
    """
    if not _is_int(degree) or degree < 0:
        raise DegreeMismatch(f"degree must be a non-negative integer, got {degree!r}")
    if not isinstance(generators, (list, tuple)):
        raise DegreeMismatch(f"generators must be a list of maps, got {generators!r}")
    if not generators:
        raise EmptyGeneratorSet()
    gens: list[tuple[int, ...]] = []
    for g in generators:
        if not isinstance(g, (list, tuple)) or len(g) != degree:
            raise DegreeMismatch(f"generator {g!r} does not have degree {degree}")
        if any(not _is_int(x) or not 0 <= x < degree for x in g):
            raise DegreeMismatch(f"generator {g!r} has an image that is not an "
                                 f"integer in [0, {degree})")
        gens.append(tuple(g))

    index: dict[tuple[int, ...], int] = {}
    maps: list[tuple[int, ...]] = []
    for t in gens:
        if t not in index:
            index[t] = len(maps)
            maps.append(t)
    gen_maps = list(maps)           # the distinct generators are ids 0..k-1
    right: list[list[int]] = []     # right[i][j] = i * g_j
    steps: list[tuple[int, int]] = []    # (p, j) with b = p * g_j, for b = k, k+1, ...
    i = 0
    while i < len(maps):            # elements are expanded in id order
        edges = []
        for j, g in enumerate(gen_maps):
            prod = compose(maps[i], g)
            b = index.get(prod)
            if b is None:
                if len(maps) >= cap:
                    raise SizeLimitExceeded(cap)
                b = index[prod] = len(maps)
                maps.append(prod)
                steps.append((i, j))
            edges.append(b)
        right.append(edges)
        i += 1

    order = len(maps)
    table = []
    for a in range(order):
        row = list(right[a])        # a * g_j, for the generators
        for p, j in steps:
            row.append(right[row[p]][j])
        table.append(tuple(row))
    if labels is None:
        labels = tuple("t" + "".join(map(str, m)) if degree <= 10 else f"t{i}"
                       for i, m in enumerate(maps))
    else:
        labels = _labels(labels, order, "element")
    provenance = {
        "kind": "transformations",
        "degree": degree,
        "generators": [list(g) for g in gens],
        "generator_ids": sorted({index[t] for t in gens}),
        "maps": tuple(maps),
    }
    return _trusted_table(order, tuple(table), labels, provenance)


def adjoin(s: FiniteSemigroup, kind: str) -> FiniteSemigroup:
    """Adjoin a fresh identity or zero as a new last element."""
    if kind not in ("identity", "zero"):
        raise ValueError("kind must be 'identity' or 'zero'")
    n = s.order
    new = n
    table = [list(row) + [0] for row in s.table] + [[0] * (n + 1)]
    for x in range(n + 1):
        if kind == "identity":
            table[x][new] = x
            table[new][x] = x
        else:
            table[x][new] = new
            table[new][x] = new
    labels = s.labels + (("1" if kind == "identity" else "0"),)
    prov = {"kind": "adjoined", "base": s.provenance.get("kind", "table")}
    return _trusted_table(n + 1, table, labels, prov)


class SubsetRole(_Frozen):
    _fields = ("host", "members", "role")

    def __init__(self, host: FiniteSemigroup, members: frozenset[int], role: str):
        _set(self, "host", host)
        _set(self, "members", members)
        _set(self, "role", role)


_ROLES = ("subsemigroup", "left-ideal", "right-ideal", "ideal", "bi-ideal")


def classify_subset(s: FiniteSemigroup, members: Iterable[int], role: str) -> SubsetRole:
    """Check the closure condition of ``role`` and return the record.

    Raises RoleViolation with the offending product as witness.
    """
    if role not in _ROLES:
        raise ValueError(f"unknown role {role!r}; expected one of {_ROLES}")
    mem = frozenset(members)
    for a in mem:
        if not (0 <= a < s.order):
            raise BadEntry(f"member {a} outside the semigroup")
    t = s.table
    if role == "subsemigroup":
        for a in mem:
            for b in mem:
                if t[a][b] not in mem:
                    raise RoleViolation(role, (a, b, t[a][b]))
    if role in ("left-ideal", "ideal"):
        for x in range(s.order):
            for a in mem:
                if t[x][a] not in mem:
                    raise RoleViolation(role, (x, a, t[x][a]))
    if role in ("right-ideal", "ideal"):
        for a in mem:
            for x in range(s.order):
                if t[a][x] not in mem:
                    raise RoleViolation(role, (a, x, t[a][x]))
    if role == "bi-ideal":
        # B S^1 B subset of B; the u = 1 case is plain closure under products.
        for a in mem:
            for b in mem:
                if t[a][b] not in mem:
                    raise RoleViolation(role, (a, b, t[a][b]))
                for u in range(s.order):
                    p = t[t[a][u]][b]
                    if p not in mem:
                        raise RoleViolation(role, (a, u, b, p))
    return SubsetRole(host=s, members=mem, role=role)


def is_role(s: FiniteSemigroup, members: Iterable[int], role: str) -> bool:
    try:
        classify_subset(s, members, role)
        return True
    except RoleViolation:
        return False


class Congruence(_Frozen):
    """Equivalence compatible with all translations, as block ids per element.

    Block ids are dense and numbered by least member, so the partition
    representation is canonical.  ``over`` keeps a reference to the host
    structure the congruence was built on.
    """
    _fields = ("blocks", "size", "over")
    _hidden = ("over",)

    def __init__(self, blocks: tuple[int, ...], size: int, over: object = None):
        _set(self, "blocks", blocks)
        _set(self, "size", size)
        _set(self, "over", over)

    @property
    def num_blocks(self) -> int:
        return max(self.blocks) + 1 if self.blocks else 0


def _normalize_blocks(block_of: Sequence[Hashable]) -> tuple[int, ...]:
    """Each value as its first-seen number: equal values, equal numbers."""
    seen: dict = {}
    out = []
    for b in block_of:
        if b not in seen:
            seen[b] = len(seen)
        out.append(seen[b])
    return tuple(out)


class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True

    def blocks(self) -> tuple[int, ...]:
        return _normalize_blocks([self.find(x) for x in range(len(self.parent))])


def _translations(x) -> list:
    """The one-sided translation maps, ``f[a]`` being f applied to a: the
    rows of the left action (a -> sa), then the columns of the right
    action (a -> at).  A semigroup is read as its own biact."""
    return list(x.left_action) + list(zip(*x.right_action))


def congruence_closure(x, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Smallest congruence containing ``pairs``: union-find saturation
    under all one-sided translations until fixpoint.  A pair naming an id
    outside the carrier, or that is not a pair, raises ``BadEntry``."""
    return _closure(x, _translations(x), pairs)


def _closure(x, fns: Sequence, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """``congruence_closure`` over the translations ``fns`` of ``x``, for a
    caller that closes many sets of pairs on one ``x``."""
    n = x.size
    dsu = _DSU(n)
    work: list[tuple[int, int]] = []
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise BadEntry(f"congruence pair {pair!r} is not a pair of element ids") from None
        if not (_is_int(a) and _is_int(b) and 0 <= a < n and 0 <= b < n):
            raise BadEntry(f"congruence pair {(a, b)!r} names an element outside 0..{n - 1}")
        if dsu.union(a, b):
            work.append((a, b))
    while work:
        a, b = work.pop()
        for f in fns:
            fa, fb = f[a], f[b]
            if dsu.union(fa, fb):
                work.append((fa, fb))
    return Congruence(blocks=dsu.blocks(), size=n, over=x)


def congruence_violation(x, blocks: Sequence[int]) -> Optional[tuple]:
    """A witness that ``blocks`` is not compatible with translations, or None."""
    classes: dict[int, list[int]] = {}
    for e, b in enumerate(blocks):
        classes.setdefault(b, []).append(e)
    fns = _translations(x)
    for members in classes.values():
        rep = members[0]
        for other in members[1:]:
            for f in fns:
                if blocks[f[rep]] != blocks[f[other]]:
                    return (rep, other, f[rep], f[other])
    return None


def quotient(x, rho: Congruence):
    """Quotient by a congruence; returns (structure, projection).

    For semigroups the result is a FiniteSemigroup; for biacts a
    FiniteBiact over the same acting semigroups.  The projection maps
    element ids to block ids and is a homomorphism.  Block ids must be
    canonical (dense, numbered by least member), as ``Congruence`` says.
    """
    from .biact import _block_quotient
    n = x.size
    for size in (rho.size, len(rho.blocks)):
        if size != n:
            raise IncompatiblePartition(("size", size, n))
    canonical = _normalize_blocks(rho.blocks)
    if tuple(rho.blocks) != canonical:
        raise IncompatiblePartition(("blocks", tuple(rho.blocks), canonical))
    witness = congruence_violation(x, rho.blocks)
    if witness is not None:
        raise IncompatiblePartition(witness)
    # compatibility was checked above, so the induced product or actions
    # satisfy the axioms and need no re-check
    blocks = rho.blocks
    if not isinstance(x, FiniteSemigroup):
        return _block_quotient(x, blocks), blocks
    k = rho.num_blocks
    reps = [0] * k
    for e in range(n - 1, -1, -1):
        reps[blocks[e]] = e
    table = [[blocks[x.table[reps[a]][reps[b]]] for b in range(k)] for a in range(k)]
    labels = tuple("{" + x.labels[reps[i]] + "}" for i in range(k))
    prov = {"kind": "quotient", "base": x.provenance.get("kind", "table")}
    return _trusted_table(k, table, labels, prov), blocks


def rees_quotient(s: FiniteSemigroup, ideal: Iterable[int]) -> FiniteSemigroup:
    """Collapse an ideal to a single absorbing zero (the new last element).

    An empty ideal is permitted and yields the semigroup with a fresh
    zero adjoined; claim suites quarantine that edge case.
    """
    mem = frozenset(ideal)
    if mem:
        try:
            classify_subset(s, mem, "ideal")
        except RoleViolation as exc:
            raise NotAnIdeal(f"not an ideal: witness {exc.witness}") from exc
    keep = [a for a in range(s.order) if a not in mem]
    idx = {a: i for i, a in enumerate(keep)}
    zero = len(keep)
    n = zero + 1
    table = [[zero] * n for _ in range(n)]
    for a in keep:
        for b in keep:
            p = s.table[a][b]
            table[idx[a]][idx[b]] = idx[p] if p in idx else zero
    labels = tuple(s.labels[a] for a in keep) + ("0",)
    prov = {"kind": "rees-quotient", "collapsed": sorted(mem)}
    return _trusted_table(n, table, labels, prov)


def zero_direct_union(s: FiniteSemigroup, t: FiniteSemigroup) -> FiniteSemigroup:
    """Disjoint union of two semigroups with all cross products equal to a
    fresh zero (the new last element)."""
    ns, nt = s.order, t.order
    zero = ns + nt
    n = zero + 1
    table = [[zero] * n for _ in range(n)]
    for a in range(ns):
        for b in range(ns):
            table[a][b] = s.table[a][b]
    for a in range(nt):
        for b in range(nt):
            table[ns + a][ns + b] = ns + t.table[a][b]
    labels = tuple(f"s:{x}" for x in s.labels) + tuple(f"t:{x}" for x in t.labels) + ("0",)
    return _trusted_table(n, table, labels, {"kind": "zero-direct-union"})


def subsemigroup(s: FiniteSemigroup, members: Iterable[int]) -> tuple[FiniteSemigroup, tuple[int, ...]]:
    """Reindex a closed subset as its own semigroup.

    Returns (semigroup, carrier) where carrier[i] is the parent id of the
    i-th element.
    """
    mem = sorted(set(members))
    if not mem:
        raise NotASubsemigroup("a subsemigroup must be nonempty")
    try:
        classify_subset(s, mem, "subsemigroup")
    except RoleViolation as exc:
        raise NotASubsemigroup(f"not closed under products: witness {exc.witness}") from exc
    idx = {a: i for i, a in enumerate(mem)}
    k = len(mem)
    table = [[idx[s.table[a][b]] for b in mem] for a in mem]
    labels = tuple(s.labels[a] for a in mem)
    prov = {"kind": "subsemigroup", "parent_ids": tuple(mem)}
    return _trusted_table(k, table, labels, prov), tuple(mem)


def opposite(s: FiniteSemigroup) -> FiniteSemigroup:
    table = [[s.table[b][a] for b in range(s.order)] for a in range(s.order)]
    return _trusted_table(s.order, table, s.labels, {"kind": "opposite"})


def is_homomorphism(f: Sequence[int], src: FiniteSemigroup, dst: FiniteSemigroup) -> Optional[tuple[int, int]]:
    """Return a violating pair, or None when f is a homomorphism."""
    if len(f) != src.order:
        raise BadEntry("map length must equal the source order")
    for x in f:
        if not (0 <= x < dst.order):
            raise BadEntry(f"image {x} outside the target semigroup")
    for a in range(src.order):
        for b in range(src.order):
            if f[src.table[a][b]] != dst.table[f[a]][f[b]]:
                return (a, b)
    return None
