"""Green's preorders, equivalences and egg-box structure.

For a biact A over (S, T) -- a semigroup S is the biact of S acting on
itself by multiplication, and is read as such without conversion:

    a <=_L b  iff  a in S^1 b      (reachability in the left step digraph)
    a <=_R b  iff  a in b T^1
    a <=_J b  iff  a in S^1 b T^1  (reachability over both step kinds)

The one-step digraph suffices because actions compose: any chain of left
steps collapses to a single left multiplication.  Classes are the strongly
connected components, class posets are the condensations, H = L meet R,
and D is the join of L and R, verified to equal both compositions L o R
and R o L via the egg-box property (every (R, L) cell inside a D-class is
nonempty; an empty cell is a hard engine error).  An element's H-class
is its (L-class, R-class) cell, numbered on first sight, and D is found
by joining the L- and R-classes once per nonempty cell.  The build
checks the egg-box property by counting: the cells of a D-class are all
nonempty exactly when its H-classes, the distinct (R, L) pairs in it,
number its R-classes times its L-classes; only a D-class that fails the
count is laid out as a grid, to name the first empty cell.

Class ids are dense and numbered by least member, so all outputs are
reproducible bit-exactly.

The classes of a preorder come from one iterative pass of Tarjan's
algorithm (Tarjan 1972), each frame an element and the iterator over its
successors, which resumes where the frame last descended.  The pass
emits the classes successors first, so replaying them in that order
builds each class's reach mask (the classes at or below it) as the
union of its members' successors' masks, with no per-class successor
sets.

Each class poset is traversed once, when it is first built (see the
memos below): Kahn's pass over its covers records how many classes it leaves unconsumed (0 exactly when
the condensation is acyclic, which decides the minimal conditions M_L,
M_R and M_J on finite input; ``props.minimal_condition`` reads it) and
the height, the number of classes on the longest cover chain.

The stability verdicts are decided there too, on the one-step digraphs:
a side is unstable exactly when some one-step edge e -> f has e J f but
not e L f (dually R).  A chain of steps from e that stays in the J-class
of e stays in its L-class step by step, so the edges suffice, over all
acting elements or over generators alike.  ``props.left_stable`` and
``props.right_stable`` read the verdicts and scan the side's maps only to
name a witness.

The structure depends on nothing but the one-step digraphs.  Each object
keeps its own in an instance slot, written on first lookup the way
``functools.cached_property`` writes (outside the value fields, so
equality, hashing and repr are untouched); a later lookup is an attribute
read and hashes nothing.  Freezing the digraphs is the only per-object
cost.  Two memos sit behind the slot, each a bounded
``core._CountedMemo`` (a plain dict that evicts its oldest key first when
full, and counts its hits and misses for ``cache_info()``):

- the pair memo (``_green_structure_cached``, 4,096 pairs), keyed on the
  ``(left, right)`` digraph pair, is the one caller of the builder:
  objects with equal digraphs -- relabelled copies, a semigroup and its
  regular biact, equal subacts or quotients of different hosts -- share
  one structure, and generator mode, which keeps no slot, lands in the
  same memo; its misses are the builds;
- the preorder memo (``_preorder_cached``, 3 x 4,096 digraphs), keyed on
  one digraph, is the one caller of ``_preorder_data``: a build takes its
  L and R data from it, and its J data keyed on the union of the two
  digraphs, so pairs that agree on one side decide that side's preorder
  once.  The preorder data are frozen and hold only tuples, so
  structures share them safely.

Below them, three memos hold the parts of a build that depend only on
values ``core._shared`` interns (so equal keys are one object and compare
by identity), each a ``core._Memo`` that counts no hits, its bound a
module constant:

- the partition-pair memo (``_meet_and_join_cached``, ``PARTITION_PAIRS``
  = 4,096 pairs), keyed on ``(L class_of, R class_of)``: H, D and the
  egg-box check depend on the two partitions alone, so a build takes both
  ``_Partition``s from it and checks a pair once.  A refused pair raises
  and is not kept, so every build of it is refused with the same message
  (``_grid``, which ``GreenStructure.eggbox`` also calls, names the first
  empty cell);
- the poset memo (``_poset_cached``, ``CLASS_POSETS`` = 3 x 4,096), keyed
  on a preorder's ``reach`` tuple: the covers, Kahn's unconsumed count and
  the height depend on the reach masks alone.  ``_preorder_data`` still
  runs Tarjan once per distinct digraph;
- the members memo (``_members_cached``, ``MEMBER_LISTS`` = 5 x 4,096),
  keyed on one ``class_of`` tuple: the sorted members of each class.

The stability verdicts are made per build.  The seed-3 claim suite makes
2,409 builds over 269 distinct (L, R) pairs, 2,319 preorder runs over 749
distinct reach tuples, and meets 176 distinct partitions; the suite at
max-order 4 (16,468 builds) fills the three to 633, 1,535 and 499 keys.

A structure stores what the build hands it and nothing more: the size,
the tuple of its five relations (L, R and J as their preorder data, H and
D as ``_Partition``s) and the two stability flags.  Equality, hashing,
repr and copies run over those fields, and ``GreenStructure.relation``
reads one relation.  It holds no dict; the answers ``props`` keeps per
structure sit in two more slots.

Equal tuples are one object.  Each tuple a build keeps passes through
``core._shared``, a bounded intern that hands back the first-seen equal
tuple: the member tuples and the outer tuple of ``_members``, the
``class_of``, ``reach`` and ``covers`` tuples of the preorder data and
each cover pair, the H and D ``class_of`` tuples, and the successor
tuples of the J union (a union equal to the left or the right digraph is
handed over as that digraph).  ``biact`` passes every successor tuple of
a digraph pair through it too.  The intern holds at most
``core.SHARED_TUPLES`` (8,192) distinct tuples and drops the oldest kept
first; the seed-0 claim suite meets 2,136 and the suite at max-order 4
5,304, so neither drops any.  Values, class ids and outputs are
unchanged.  The seed-0 suite keeps 2,366 structures, and sharing their
tuples takes its peak RSS from about 28 to 24 MB.

The pair has one holder at a time, and ``biact.digraphs(x)`` is the one
way to read it: the object carries it in its ``_PAIR`` slot until its
structure is built, and the structure keeps it (``GreenStructure.pair``,
the pair memo's own key) from then on.  A lookup pops the slot, or
freezes the pair (``_edges``) when the object carries none, and
``digraphs`` then reads the structure's.  A part derived from a host (a
subact, a Rees quotient, a biact quotient, a product; see ``biact``)
arrives with its own pair, derived from ``digraphs(host)``, so nothing
is frozen for it, and its action tables stay unbuilt unless something
else reads them.  While the pair memo keeps a structure, every object
with an equal pair reads that one structure's pair tuple.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

from .biact import (_PAIR, _SLOT, Digraphs, FiniteBiact, _edges, biact_rees_quotient,
                    digraphs, relative_biact)  # ``digraphs`` is re-exported
from .core import (FiniteSemigroup, _CountedMemo, _DSU, _Frozen, _is_int, _Memo,
                   _members as _subset, _normalize_blocks, _set, _shared)
from .errors import BadEntry, InvariantViolation, UnknownClass

PREORDERS = ("L", "R", "J")
RELATIONS = ("L", "R", "J", "H", "D")

# the bounds of the memos of a build's parts, in keys: at most three class
# posets, one (L, R) partition pair and five partitions per kept structure
CLASS_POSETS = 3 * 4096
PARTITION_PAIRS = 4096
MEMBER_LISTS = 5 * 4096


class _Partition(_Frozen):
    """The classes of one relation: ``class_of`` maps an element to its
    class id, ``classes`` lists each class's sorted members."""
    __slots__ = _fields = ("class_of", "classes")

    def __init__(self, class_of: tuple[int, ...], classes: tuple[tuple[int, ...], ...]):
        _set(self, "class_of", class_of)
        _set(self, "classes", classes)


class _PreorderData(_Partition):
    """The classes of one preorder and their poset."""
    __slots__ = ("reach", "covers", "unconsumed", "height")
    _fields = _Partition._fields + __slots__

    def __init__(self, class_of: tuple[int, ...], classes: tuple[tuple[int, ...], ...],
                 reach: tuple[int, ...], covers: tuple[tuple[int, int], ...],
                 unconsumed: int, height: int):
        super().__init__(class_of, classes)
        _set(self, "reach", reach)              # class -> bitmask of classes <= it
        _set(self, "covers", covers)            # (upper, lower) covering pairs
        _set(self, "unconsumed", unconsumed)    # classes Kahn's pass left: 0 iff acyclic
        _set(self, "height", height)            # classes on the longest cover chain

    def le(self, a: int, b: int) -> bool:
        """Decide a <= b in this preorder."""
        return bool(self.reach[self.class_of[b]] >> self.class_of[a] & 1)


def _preorder_data(n: int, succ: Sequence[Sequence[int]]) -> _PreorderData:
    # Tarjan's pass, iterative: a frame is an element and the iterator over
    # its successors, which resumes where the frame last descended.  An
    # element is unvisited while its index is 0 and on the stack while its
    # component is -1; components are emitted successors-first.
    index = [0] * n
    low = [0] * n
    comp_of = [-1] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp_of[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    c, comp = len(comps), []
                    while True:
                        w = stack.pop()
                        comp_of[w] = c
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    # classes are numbered by least member, for reproducible output
    class_of = _shared(_normalize_blocks(comp_of))

    # a class reaches itself and whatever its members' successors reach; in
    # Tarjan's order every other class a successor lies in is done already
    reach = [0] * len(comps)
    for comp in comps:
        c = class_of[comp[0]]
        mask = 1 << c
        for x in comp:
            for y in succ[x]:
                mask |= reach[class_of[y]]
        reach[c] = mask
    reach = _shared(tuple(reach))
    return _PreorderData(class_of, _members_cached(class_of), reach, *_poset_cached(reach))


def _poset(reach: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """The class poset of the reach masks ``reach``: its covers, and the
    classes Kahn's pass over them leaves unconsumed and the height."""
    # the covers of c: the classes strictly below c and strictly below no
    # other class strictly below c, listed in (upper, lower) order
    strict = [mask & ~(1 << c) for c, mask in enumerate(reach)]
    covers: list[tuple[int, int]] = []
    for c in range(len(reach)):
        below = 0
        for e in _bits(strict[c]):
            below |= strict[e]
        covers.extend((c, d) for d in _bits(strict[c] & ~below))
    return (_shared(tuple(map(_shared, covers))), *_kahn(len(reach), covers))


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _kahn(n: int, covers: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Kahn's pass over the (upper, lower) cover relation on ``n`` classes.

    Returns the number of classes it leaves unconsumed, 0 exactly when the
    relation is acyclic, and the number of classes on the longest chain of
    covers among the consumed ones, by relaxing depths as classes leave
    the queue.  Iterative, so long chains cannot exhaust the call stack.
    """
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for upper, lower in covers:
        out[upper].append(lower)
        indeg[lower] += 1
    depth = [1] * n
    queue = [c for c in range(n) if indeg[c] == 0]
    seen = height = 0
    while queue:
        c = queue.pop()
        seen += 1
        height = max(height, depth[c])
        for d in out[c]:
            depth[d] = max(depth[d], depth[c] + 1)
            indeg[d] -= 1
            if indeg[d] == 0:
                queue.append(d)
    return n - seen, height


class GreenStructure(_Frozen):
    """The Green data of one digraph pair, stored as the build hands it:
    the size, ``relations``, the two stability flags and ``pair``, the
    (left, right) one-step digraph pair it was built from.  ``relations``
    holds the five relations in ``RELATIONS`` order: L, R and J as their
    preorder data, which also hold the class posets, and H and D as
    partitions.  Equality, hashing and repr run over the first four
    fields, which ``pair`` determines (``_hidden``); copies and pickles
    carry all five.  ``relation(k)`` reads one relation; a loop over one
    relation reads it once and asks it directly (``_PreorderData.le``).
    Slotted, so a structure holds no dict.  Two more slots (``_KEPT``)
    keep the answers ``props`` decides once per structure: None until
    decided, outside equality, hashing, repr and copies, so a new
    structure starts without them."""
    _fields = ("size", "relations", "left_stable", "right_stable", "pair")
    _hidden = ("pair",)
    _KEPT = ("_relation_forms", "_stable_char")
    __slots__ = _fields + _KEPT

    def __init__(self, size: int, relations: tuple[_Partition, ...],
                 left_stable: bool, right_stable: bool, pair: Digraphs):
        _set(self, "size", size)
        _set(self, "relations", relations)
        # no one-step left edge leaves an L-class inside its J-class; dually
        # for right edges and R-classes
        _set(self, "left_stable", left_stable)
        _set(self, "right_stable", right_stable)
        _set(self, "pair", pair)
        for name in self._KEPT:
            _set(self, name, None)

    def relation(self, k: str) -> _Partition:
        """The classes of K in {L, R, J, H, D}: for L, R and J its preorder
        data, which also hold the class poset."""
        try:
            return self.relations[_RELATION[k]]
        except KeyError:
            raise _not_a_relation(k) from None

    def _preorder(self, k: str) -> _PreorderData:
        try:
            return self.relations[_PREORDER[k]]
        except KeyError:
            raise _not_a_preorder(k) from None

    def le(self, a: int, b: int, k: str) -> bool:
        """Decide a <=_K b for K in {L, R, J}."""
        return self._preorder(k).le(a, b)

    def same(self, a: int, b: int, k: str) -> bool:
        try:
            of = self.relations[_RELATION[k]].class_of
        except KeyError:
            raise _not_a_relation(k) from None
        return of[a] == of[b]

    def num_classes(self, k: str) -> int:
        return len(self.relation(k).classes)

    def class_members(self, k: str, cls: int) -> tuple[int, ...]:
        if not 0 <= cls < self.num_classes(k):
            raise UnknownClass(f"{k}-class {cls} does not exist")
        return self.relation(k).classes[cls]

    def covers(self, k: str) -> tuple[tuple[int, int], ...]:
        return self._preorder(k).covers

    def class_le(self, c: int, d: int, k: str) -> bool:
        """Decide C <= D in the K-class poset."""
        reach = self._preorder(k).reach
        for cls in (c, d):
            if not 0 <= cls < len(reach):
                raise UnknownClass(f"{k}-class {cls} does not exist")
        return bool(reach[d] >> c & 1)

    def eggbox(self, d_class: int) -> list[list[tuple[int, ...]]]:
        """The D-class as a grid of H-classes: rows are R-classes, columns
        are L-classes (each sorted by class id)."""
        if not (0 <= d_class < self.num_classes("D")):
            raise UnknownClass(f"D-class {d_class} does not exist")
        return _grid(self.relation("D").classes[d_class], d_class,
                     self.relation("L").class_of, self.relation("R").class_of)

    def to_json(self) -> dict:
        out: dict = {"size": self.size}
        for k in RELATIONS:
            rel = self.relation(k)
            entry: dict = {
                "class_of": list(rel.class_of),
                "classes": [list(c) for c in rel.classes],
            }
            if k in PREORDERS:
                entry["covers"] = [list(e) for e in rel.covers]
            out[k] = entry
        return out


# each relation's index into ``GreenStructure.relations``
_RELATION = {k: i for i, k in enumerate(RELATIONS)}
_PREORDER = {k: _RELATION[k] for k in PREORDERS}


def _not_a_preorder(k: str) -> ValueError:
    return ValueError(f"Green preorders are L, R, J; got {k!r}")


def _not_a_relation(k: str) -> ValueError:
    return ValueError(f"Green relations are L, R, J, H, D; got {k!r}")


def _grid(members: Sequence[int], d_class: int, l_of: Sequence[int],
          r_of: Sequence[int]) -> list[list[tuple[int, ...]]]:
    """The D-class ``d_class``, whose elements are ``members``, as a grid of
    H-classes: rows are R-classes, columns are L-classes (each sorted by
    class id).  An empty cell raises ``InvariantViolation`` naming it."""
    rows = sorted({r_of[x] for x in members})
    cols = sorted({l_of[x] for x in members})
    cell: dict[tuple[int, int], list[int]] = {}
    for x in members:
        cell.setdefault((r_of[x], l_of[x]), []).append(x)
    grid = []
    for r in rows:
        line = []
        for c in cols:
            xs = tuple(sorted(cell.get((r, c), ())))
            if not xs:
                raise InvariantViolation(
                    f"empty egg-box cell (R{r}, L{c}) inside D-class {d_class}")
            line.append(xs)
        grid.append(line)
    return grid


def _meet_and_join(lr: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple[_Partition, _Partition]:
    """H and D of the L- and R-partitions ``lr``, egg-box checked."""
    l_of, r_of = lr
    # H = L meet R: an element's H-class is its (L-class, R-class) cell,
    # numbered on first sight, i.e. by least member
    cells: dict[tuple[int, int], int] = {}
    h_class_of = _shared(tuple([cells.setdefault(cell, len(cells))
                                for cell in zip(l_of, r_of)]))

    # D = join of L and R: the L-classes and R-classes (ids nl, nl + 1, ...)
    # joined once per nonempty cell; the egg-box check below certifies that
    # the join coincides with both compositions L o R and R o L.
    l_classes, r_classes = _members_cached(l_of), _members_cached(r_of)
    nl = len(l_classes)
    dsu = _DSU(nl + len(r_classes))
    for lcls, rcls in cells:
        dsu.union(lcls, nl + rcls)
    root = [dsu.find(lcls) for lcls in range(nl)]
    d_class_of = _shared(_normalize_blocks([root[lcls] for lcls in l_of]))
    h_classes = _members_cached(h_class_of)
    d_classes = _members_cached(d_class_of)

    # every (R, L) cell of a D-class is nonempty iff its H-classes, the
    # nonempty cells in it, number its R-classes times its L-classes
    nd = len(d_classes)
    rows, cols, full = [0] * nd, [0] * nd, [0] * nd
    for cls in r_classes:
        rows[d_class_of[cls[0]]] += 1
    for cls in l_classes:
        cols[d_class_of[cls[0]]] += 1
    for cls in h_classes:
        full[d_class_of[cls[0]]] += 1
    for dcls in range(nd):
        if full[dcls] != rows[dcls] * cols[dcls]:
            _grid(d_classes[dcls], dcls, l_of, r_of)  # raises, naming the first empty cell
    return _Partition(h_class_of, h_classes), _Partition(d_class_of, d_classes)


def _members(class_of: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The sorted members of each class of the partition ``class_of``."""
    out: list[list[int]] = [[] for _ in range(max(class_of, default=-1) + 1)]
    for x, c in enumerate(class_of):
        out[c].append(x)
    return _shared(tuple([_shared(tuple(c)) for c in out]))


# keyed on one frozen digraph: the one caller of ``_preorder_data``; three
# digraphs per kept structure
_preorder_cached = _CountedMemo(lambda succ: _preorder_data(len(succ), succ), 3 * 4096)
# keyed on a preorder's interned reach tuple: the one caller of ``_poset``
_poset_cached = _Memo(_poset, CLASS_POSETS)
# keyed on the interned (L, R) ``class_of`` pair: the one caller of
# ``_meet_and_join``; a refused pair raises and is not kept
_meet_and_join_cached = _Memo(_meet_and_join, PARTITION_PAIRS)
# keyed on an interned ``class_of`` tuple: the one caller of ``_members``
_members_cached = _Memo(_members, MEMBER_LISTS)


def _build(pair: Digraphs) -> GreenStructure:
    """The structure of the (left, right) digraph pair ``pair``, which it
    keeps as its ``pair`` field: the pair memo's own key."""
    left, right = pair
    ldat = _preorder_cached(left)
    rdat = _preorder_cached(right)
    union = tuple(ls if ls == rs else _shared(tuple(sorted({*ls, *rs})))
                  for ls, rs in zip(left, right))
    jdat = _preorder_cached(left if union == left else right if union == right else union)
    hdat, ddat = _meet_and_join_cached((ldat.class_of, rdat.class_of))
    return GreenStructure(len(left), (ldat, rdat, jdat, hdat, ddat),
                          _stable(left, jdat.class_of, ldat.class_of),
                          _stable(right, jdat.class_of, rdat.class_of), pair)


def _stable(succ: Sequence[Sequence[int]], j_of: Sequence[int],
            k_of: Sequence[int]) -> bool:
    """No edge e -> f of the one-step digraph has e J f but not e K f."""
    return not any(j_of[f] == j_of[e] and k_of[f] != k_of[e]
                   for e, fs in enumerate(succ) for f in fs)


# keyed on the (left, right) digraph pair: the one caller of ``_build``,
# looked up on each call so that a wrapper installed later sees every build
_green_structure_cached = _CountedMemo(lambda pair: _build(pair), 4096)


def green_structure(x: Union[FiniteSemigroup, FiniteBiact],
                    use_generators: bool = False) -> GreenStructure:
    """Green data of a finite semigroup or biact.

    With ``use_generators=True`` a generated semigroup is analysed over its
    Cayley graph on generators instead of all-element edges; the results
    must coincide and the cheaper mode is never picked silently.
    """
    if use_generators:
        if not hasattr(x, "generator_ids"):
            raise TypeError("generator mode applies to semigroups")
        gens = x.generator_ids()
        if gens is None:
            raise ValueError("semigroup carries no generator record")
        return _green_structure_cached(_edges(x, gens))
    slots = x.__dict__
    gs = slots.get(_SLOT)
    if gs is None:
        gs = slots[_SLOT] = _green_structure_cached(slots.pop(_PAIR, None) or _edges(x))
    return gs


def le(x, a: int, b: int, k: str) -> bool:
    """Decide the K-preorder between two elements, K in {L, R, J}.  An
    element id outside ``0..size-1`` raises ``BadEntry``."""
    gs = green_structure(x)
    for e in (a, b):
        if not (_is_int(e) and 0 <= e < gs.size):
            raise BadEntry(f"element {e!r} outside 0..{gs.size - 1}")
    return gs.le(a, b, k)


def eggbox(x, d_class: int) -> list[list[tuple[int, ...]]]:
    return green_structure(x).eggbox(d_class)


def class_counts(x) -> dict[str, int]:
    gs = green_structure(x)
    return {k: gs.num_classes(k) for k in RELATIONS}


class GreenIndexResult(_Frozen):
    """Relative H-class census for a subsemigroup T of S."""
    _fields = ("index", "outside_h_classes", "inside_h_classes", "classes_in_sub",
               "classes_outside", "quotient_l_classes", "quotient_r_classes")

    def __init__(self, index: int, outside_h_classes: int, inside_h_classes: int,
                 classes_in_sub: tuple[tuple[int, ...], ...],
                 classes_outside: tuple[tuple[int, ...], ...],
                 quotient_l_classes: int, quotient_r_classes: int):
        _set(self, "index", index)                  # classes outside T, plus one
        _set(self, "outside_h_classes", outside_h_classes)
        _set(self, "inside_h_classes", inside_h_classes)
        _set(self, "classes_in_sub", classes_in_sub)
        _set(self, "classes_outside", classes_outside)
        _set(self, "quotient_l_classes", quotient_l_classes)
        _set(self, "quotient_r_classes", quotient_r_classes)


def green_index(s: FiniteSemigroup, sub_members: Iterable[int]) -> GreenIndexResult:
    """One more than the number of relative H-classes lying outside T.

    Every relative class lies wholly inside or wholly outside T; a
    violation would be an engine bug and raises.  A subset that is not an
    iterable of element ids is refused by name (``BadEntry``).
    """
    members = _subset(sub_members, s.order, "member {!r} outside the semigroup")
    rel = relative_biact(s, members)
    gs = green_structure(rel)
    inside, outside = [], []
    for cls in gs.relation("H").classes:
        flags = {x in members for x in cls}
        if len(flags) != 1:
            raise InvariantViolation(f"relative H-class {cls} straddles the subsemigroup")
        (inside if flags.pop() else outside).append(cls)
    qs = green_structure(biact_rees_quotient(rel, members))
    return GreenIndexResult(
        index=len(outside) + 1,
        outside_h_classes=len(outside),
        inside_h_classes=len(inside),
        classes_in_sub=tuple(inside),
        classes_outside=tuple(outside),
        quotient_l_classes=qs.num_classes("L"),
        quotient_r_classes=qs.num_classes("R"),
    )


def poset_dot(x, k: str) -> str:
    """Deterministic DOT rendering of a class poset (covers only)."""
    gs = green_structure(x)
    covers = gs.covers(k)
    lines = [f"digraph {k}_classes {{", "  rankdir=BT;"]
    for c in range(gs.num_classes(k)):
        members = ",".join(str(m) for m in gs.class_members(k, c))
        lines.append(f'  {k}{c} [label="{k}{c} {{{members}}}"];')
    for upper, lower in covers:
        lines.append(f"  {k}{lower} -> {k}{upper};")
    lines.append("}")
    return "\n".join(lines)


def eggbox_dot(x, d_class: int) -> str:
    """Deterministic DOT rendering of one D-class as an egg-box grid."""
    gs = green_structure(x)
    grid = gs.eggbox(d_class)
    lines = [f"digraph D{d_class}_eggbox {{", "  node [shape=plaintext];",
             f'  box [label=<<TABLE BORDER="1" CELLBORDER="1" CELLSPACING="0">']
    for row in grid:
        cells = "".join("<TD>" + " ".join(str(m) for m in cell) + "</TD>" for cell in row)
        lines.append(f"    <TR>{cells}</TR>")
    lines.append("  </TABLE>>];")
    lines.append("}")
    return "\n".join(lines)
