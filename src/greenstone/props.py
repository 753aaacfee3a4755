"""Predicates on finite semigroups and biacts.

Every predicate returns a PredicateResult carrying a replayable witness on
failure.  A semigroup S is analysed as itself acting on itself, with no
conversion (it carries the biact view, see ``core``), so "stable" for a
semigroup means exactly that S as an (S, S)-biact is stable.

The stability, minimal-condition and periodicity predicates are trivially
true on finite inputs (finite posets satisfy the minimal condition, finite
biacts are stable), but their verdicts are still computed constructively,
never assumed: a false answer from any of them on a finite structure is
an engine bug, and the verification suite leans on that.

Results are immutable (``PredicateResult`` is frozen), so a verdict with
nothing to report is one shared object: every true result without a
witness is a module-level constant, one per predicate and method (one
per kind for the minimal conditions).  Failing, inconclusive and
witness-carrying results are built per call.

The minimal-condition and stability verdicts are computed where the
class posets are built: ``green`` runs Kahn's pass and the stability test
on the one-step digraphs once per Green structure, and every object
sharing that structure reads them.  ``left_stable``/``right_stable`` scan
the actions only on a failed verdict, to name the first witness, and a
failed verdict with no witness raises ``InvariantViolation``.  The
relative predicates (K-preservation, regularity, retracts) genuinely vary.

The periodicity predicates are one orbit scan, ``_periodic``, over the
maps of a side: the left maps a -> sa are the rows of ``left_action``,
the right maps a -> at are the columns of ``right_action``.  It decides
which nodes of each map's functional graph reach a related pair once for
all start points, instead of walking an orbit from each start point.

``left_stable_forms`` evaluates its relation forms (2-5) on one bitmask per
element, built from the class member masks and the class ``reach`` masks
of the Green structure, so each form costs O(n) big-integer operations
rather than O(n^2) pair tests.

Forms 2-8 of ``left_stable_forms`` and the whole of ``stable_char`` read
the Green structure alone, so each is decided once per structure and kept
in a slot of the structure named after it (``_per_structure``,
``GreenStructure._KEPT``): every object sharing the structure reads the
kept answer.  A structure built anew, or copied, starts with none.  Form 1
is ``left_stable`` of the object itself.
"""

from __future__ import annotations

import functools
import itertools
from operator import eq, not_
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from .biact import FiniteBiact
from .core import FiniteSemigroup, _Frozen, _set, subsemigroup
from .errors import InvariantViolation
from .green import GreenStructure, _bits, green_structure

Structure = Union[FiniteSemigroup, FiniteBiact]


class PredicateResult(_Frozen):
    _fields = ("value", "method", "witness")

    def __init__(self, value: Optional[bool], method: str, witness: Any = None):
        _set(self, "value", value)          # None means inconclusive
        _set(self, "method", method)
        _set(self, "witness", witness)

    @property
    def status(self) -> str:
        if self.value is None:
            return "inconclusive"
        return "true" if self.value else "false"

    def __bool__(self) -> bool:
        return self.value is True

    def to_json(self) -> dict:
        return {"value": self.value, "method": self.method, "witness": self.witness}


# the shared true results without a witness, by method
_MINIMAL = {k: PredicateResult(True, method=f"acyclic {k}-class condensation")
            for k in ("L", "R", "J")}
_DEFINITION = PredicateResult(True, method="definition")
_TRACE = PredicateResult(True, method="D=J and trace conditions")
_ORBIT = PredicateResult(True, method="orbit scan")
_POWERS = PredicateResult(True, method="idempotent power search")
_PREORDERS = PredicateResult(True, method="preorder comparison")


def minimal_condition(x: Structure, k: str) -> PredicateResult:
    """Minimal condition on the poset of K-classes.

    On finite structures this reduces to the class condensation being
    acyclic, which is established constructively: Kahn's pass over the
    covering edges, run once when the Green structure is built (see
    ``green``), must consume every class.
    """
    if k not in _MINIMAL:
        raise ValueError(f"minimal conditions exist for L, R, J; got {k!r}")
    left = green_structure(x).relation(k).unconsumed
    if not left:
        return _MINIMAL[k]
    return PredicateResult(False, method=f"acyclic {k}-class condensation",
                           witness={"classes_unconsumed": left})


def left_stable(x: Structure) -> PredicateResult:
    """sa J a implies sa L a, for all s in S and carrier elements a.

    The verdict is the one the Green build decided on the left digraph;
    the action is scanned only when it fails, to name the first witness.
    """
    gs = green_structure(x)
    if gs.left_stable:
        return _DEFINITION
    act = x.left_action
    for s in range(x.left.order):
        for e in range(x.size):
            sa = act[s][e]
            if gs.same(sa, e, "J") and not gs.same(sa, e, "L"):
                return PredicateResult(False, method="definition",
                                       witness={"s": s, "a": e, "sa": sa})
    raise _no_witness("left")


def right_stable(x: Structure) -> PredicateResult:
    gs = green_structure(x)
    if gs.right_stable:
        return _DEFINITION
    act = x.right_action
    for e in range(x.size):
        for t in range(x.right.order):
            at = act[e][t]
            if gs.same(at, e, "J") and not gs.same(at, e, "R"):
                return PredicateResult(False, method="definition",
                                       witness={"a": e, "t": t, "at": at})
    raise _no_witness("right")


def _no_witness(side: str) -> InvariantViolation:
    return InvariantViolation(f"the Green structure says the {side} action is "
                              "unstable, but no action step witnesses it")


def stable(x: Structure) -> PredicateResult:
    lres = left_stable(x)
    if not lres:
        return PredicateResult(False, method="definition",
                               witness={"side": "left", **(lres.witness or {})})
    rres = right_stable(x)
    if not rres:
        return PredicateResult(False, method="definition",
                               witness={"side": "right", **(rres.witness or {})})
    return _DEFINITION


def _relation_masks(gs: GreenStructure, n: int):
    """The relations <=_L, J, L and >=_J as one bitmask per element b: the
    set of elements a with (a, b) in the relation, read off the class
    member masks and the class ``reach`` masks."""
    lrel, jrel = gs.relation("L"), gs.relation("J")
    l_of, j_of = lrel.class_of, jrel.class_of
    l_members = [sum(1 << x for x in c) for c in lrel.classes]
    j_members = [sum(1 << x for x in c) for c in jrel.classes]
    down_l = [_mask_union(l_members, r) for r in lrel.reach]
    up_j = [0] * len(j_members)      # class d -> members of the classes >=_J d
    for c, r in enumerate(jrel.reach):
        for d in _bits(r):
            up_j[d] |= j_members[c]
    le_l = [down_l[l_of[b]] for b in range(n)]
    same_j = [j_members[j_of[b]] for b in range(n)]
    same_l = [l_members[l_of[b]] for b in range(n)]
    ge_j = [up_j[j_of[b]] for b in range(n)]
    return le_l, same_j, same_l, ge_j


def _mask_union(masks, classes: int) -> int:
    """The union of ``masks[c]`` over the classes c set in ``classes``."""
    out = 0
    for c in _bits(classes):
        out |= masks[c]
    return out


def _per_structure(decide: Callable[[GreenStructure], Any]) -> Callable[[GreenStructure], Any]:
    """``decide(gs)``, which must read nothing but the Green structure and
    never answers None, made once per structure and kept in the structure's
    slot of the function's name (``GreenStructure._KEPT``), outside its
    fields."""
    name = decide.__name__
    if name not in GreenStructure._KEPT:
        raise TypeError(f"GreenStructure has no slot to keep {name!r}")

    @functools.wraps(decide)
    def kept(gs: GreenStructure):
        value = getattr(gs, name)
        if value is None:
            value = decide(gs)
            _set(gs, name, value)
        return value
    return kept


def left_stable_forms(x: Structure) -> tuple[bool, bool, bool, bool, bool, bool, bool, bool]:
    """Eight equivalent renderings of left stability, evaluated independently.

    1. the definition (sa J a implies sa L a);
    2. <=_L meet J equals L, as relations;
    3. <=_L meet J is contained in L;
    4. <=_L meet >=_J equals L;
    5. <=_L meet >=_J is contained in L;
    6. within each J-class, every L-class of the restricted poset is minimal;
    7. within each J-class, the restricted L-class poset has the minimal
       condition (finite rendering: its strict order is acyclic);
    8. within each J-class, the restricted poset has a minimal element.

    Forms 2-8 read the Green structure only and are decided once per
    structure (``_relation_forms``).
    """
    return (bool(left_stable(x)),) + _relation_forms(green_structure(x))


@_per_structure
def _relation_forms(gs: GreenStructure) -> tuple[bool, bool, bool, bool, bool, bool, bool]:
    """Forms 2-8 of ``left_stable_forms``."""
    # each relation is a list of per-element masks (see _relation_masks)
    le_l, same_j, same_l, ge_j = _relation_masks(gs, gs.size)
    cap_j = [u & v for u, v in zip(le_l, same_j)]
    cap_gej = [u & v for u, v in zip(le_l, ge_j)]
    f2 = cap_j == same_l
    f3 = all(u & ~v == 0 for u, v in zip(cap_j, same_l))
    f4 = cap_gej == same_l
    f5 = all(u & ~v == 0 for u, v in zip(cap_gej, same_l))

    # L-classes grouped by the J-class containing them
    by_j: dict[int, list[int]] = {}
    j_of = gs.relation("J").class_of
    for lcls, members in enumerate(gs.relation("L").classes):
        by_j.setdefault(j_of[members[0]], []).append(lcls)

    def strictly_below(c: int, d: int) -> bool:
        return gs.class_le(c, d, "L") and not gs.class_le(d, c, "L")

    f6 = f7 = f8 = True
    for lclasses in by_j.values():
        below = {(c, d) for c in lclasses for d in lclasses if strictly_below(c, d)}
        if below:
            f6 = False
        # acyclicity of the restricted strict order
        for c, d in below:
            if (d, c) in below:
                f7 = False
        minimal = [c for c in lclasses
                   if not any((d, c) in below for d in lclasses)]
        if not minimal:
            f8 = False
    return (f2, f3, f4, f5, f6, f7, f8)


def stable_char(x: Structure) -> PredicateResult:
    """D = J together with (<=_L meet R) = H = (L meet <=_R), as relations,
    decided once per Green structure (``_stable_char``)."""
    return _stable_char(green_structure(x))


@_per_structure
def _stable_char(gs: GreenStructure) -> PredicateResult:
    n = gs.size
    le_l, le_r = gs.relation("L").le, gs.relation("R").le
    l_of, r_of, h_of = (gs.relation(k).class_of for k in "LRH")
    if gs.relation("D").class_of != gs.relation("J").class_of:
        return PredicateResult(False, method="D=J and trace conditions",
                               witness={"reason": "D != J"})
    for e in range(n):
        for f in range(n):
            same_h = h_of[e] == h_of[f]
            lhs = le_l(e, f) and r_of[e] == r_of[f]
            if lhs != same_h:
                return PredicateResult(False, method="D=J and trace conditions",
                                       witness={"pair": (e, f), "reason": "<=_L meet R != H"})
            rhs = l_of[e] == l_of[f] and le_r(e, f)
            if rhs != same_h:
                return PredicateResult(False, method="D=J and trace conditions",
                                       witness={"pair": (e, f), "reason": "L meet <=_R != H"})
    return _TRACE


def l_periodic(x: Structure) -> PredicateResult:
    """For each s and a there is 1 <= n <= size with s^n a L s^(n+1) a."""
    return _periodic(x.left_action, green_structure(x).relation("L").class_of, "s")


def r_periodic(x: Structure) -> PredicateResult:
    """For each t and a there is 1 <= n <= size with a t^n R a t^(n+1)."""
    return _periodic(zip(*x.right_action), green_structure(x).relation("R").class_of, "t")


def _periodic(maps, class_of: Sequence[int], letter: str) -> PredicateResult:
    """The orbit scan over one side's maps, ``maps[g][a]`` being g acting on
    a: for each g and a, some g^n a with 1 <= n <= size is related to
    g^(n+1) a.  Within size steps the orbit of g a visits every node it
    will ever visit, so this holds iff ``good[g a]``, where ``good[b]``
    says that some node on the orbit of b is related to its image.  Each
    map's ``good`` is decided once for all start points, and the witness
    is the first (g, a) whose g a is not good."""
    for g, row in enumerate(maps):
        good = _good(row, class_of)
        if all(good):
            continue
        for e, ge in enumerate(row):
            if not good[ge]:
                return PredicateResult(False, method="orbit scan",
                                       witness={letter: g, "a": e})
    return _ORBIT


def _good(row: Sequence[int], class_of: Sequence[int]) -> list[bool]:
    """The least solution of ``good[b] = class_of[b] == class_of[row[b]] or
    good[row[b]]`` on the functional graph of ``row``.  A node related to
    its image is good; each pass over the nodes still pending marks those
    whose image is good by then.  A pass that marks nothing leaves exactly
    the nodes whose orbits stay among unrelated nodes, so a cycle with no
    related pair, and whatever leads into it, is false."""
    good = list(map(eq, class_of, map(class_of.__getitem__, row)))
    pending = list(itertools.compress(range(len(row)), map(not_, good)))
    while pending:
        rest = []
        for b in pending:
            if good[row[b]]:
                good[b] = True
            else:
                rest.append(b)
        if len(rest) == len(pending):
            break
        pending = rest
    return good


def group_bound(s: FiniteSemigroup) -> PredicateResult:
    """Every element has a power inside a subgroup, decided by finding a
    power H-related to an idempotent power."""
    gs = green_structure(s)
    for x in range(s.order):
        powers = [x]
        seen = {x}
        while True:
            nxt = s.table[powers[-1]][x]
            if nxt in seen:
                break
            seen.add(nxt)
            powers.append(nxt)
        idem = next((p for p in powers if s.table[p][p] == p), None)
        if idem is None or not any(gs.same(p, idem, "H") for p in powers):
            return PredicateResult(False, method="idempotent power search",
                                   witness={"element": x})
    return _POWERS


def k_preserving(s: FiniteSemigroup, sub_members: Iterable[int], k: str) -> PredicateResult:
    """The K-preorder of the subsemigroup coincides with the ambient
    K-preorder restricted to it."""
    members = sorted(set(sub_members))
    sub, carrier = subsemigroup(s, members)
    sub_le, amb_le = green_structure(sub)._preorder(k).le, green_structure(s)._preorder(k).le
    for i in range(sub.order):
        for j in range(sub.order):
            inner = sub_le(i, j)
            outer = amb_le(carrier[i], carrier[j])
            if inner != outer:
                return PredicateResult(False, method="preorder comparison",
                                       witness={"pair": (carrier[i], carrier[j]),
                                                "in_sub": inner, "in_host": outer})
    return _PREORDERS


def regular_subsemigroup(s: FiniteSemigroup, sub_members: Iterable[int]) -> PredicateResult:
    """a in aTa for every a in T."""
    members = sorted(set(sub_members))
    subsemigroup(s, members)  # validates
    for a in members:
        if not any(s.table[s.table[a][t]][a] == a for t in members):
            return PredicateResult(False, method="definition", witness={"a": a})
    return _DEFINITION


def retract(s: FiniteSemigroup, sub_members: Iterable[int],
            cap: int = 1_000_000) -> PredicateResult:
    """Exhaustive search for a homomorphism S -> T fixing T pointwise.

    Beyond ``cap`` candidate maps the search is abandoned and the result
    is inconclusive, never coerced to false.
    """
    members = sorted(set(sub_members))
    subsemigroup(s, members)  # validates
    inside = set(members)
    outside = [x for x in range(s.order) if x not in inside]
    if not outside:
        return PredicateResult(True, method="identity retraction",
                               witness={x: x for x in members})
    total = len(members) ** len(outside)
    if total > cap:
        return PredicateResult(None, method=f"search cap {cap} exceeded ({total} candidates)")
    for assignment in itertools.product(members, repeat=len(outside)):
        theta = {x: x for x in members}
        theta.update(zip(outside, assignment))
        if all(theta[s.table[a][b]] == s.table[theta[a]][theta[b]]
               for a in range(s.order) for b in range(s.order)):
            return PredicateResult(True, method="exhaustive map search",
                                   witness={str(k): v for k, v in sorted(theta.items())})
    return PredicateResult(False, method="exhaustive map search")

