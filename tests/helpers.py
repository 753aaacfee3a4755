"""Helpers shared by the test modules: value records rebuilt with changes,
congruences from explicit partitions, and the substructure listings and
isomorphism search that the tests use as oracles."""

from greenstone import core
from greenstone.green import _bits
from greenstone.verify import _subact_keys, nonempty_subsets


def replace(obj, **changes):
    """``obj`` rebuilt through its constructor from its fields
    (``_fields``), with ``changes``: ``dataclasses.replace`` for the
    engine's value classes."""
    return type(obj)(**{**{f: getattr(obj, f) for f in obj._fields}, **changes})


def congruence(x, block_of):
    """The partition ``block_of`` of ``x`` as a ``Congruence``, its blocks
    renumbered by least member; ``core.quotient`` checks compatibility."""
    return core.Congruence(core._normalize_blocks(block_of), x.size, over=x)


def ideals_of(s):
    return [m for m in nonempty_subsets(s.order) if core.is_role(s, m, "ideal")]


def subacts_of(a):
    """The nonempty subacts, in ``nonempty_subsets`` order."""
    return [frozenset(_bits(m)) for m in _subact_keys(a)]


class SearchCapExceeded(Exception):
    """The isomorphism search was abandoned at its order cap."""


def find_isomorphism(s, t, max_order=8):
    """Search for an isomorphism s -> t by permutation backtracking.

    Intended for small cross-checks only (order <= max_order).
    """
    if s.order != t.order:
        return None
    n = s.order
    if n > max_order:
        raise SearchCapExceeded(f"isomorphism search limited to order {max_order}, got {n}")

    def profile(sem, a):
        row = sem.table[a]
        col = tuple(sem.table[x][a] for x in range(n))
        return (row[a] == a, len(set(row)), len(set(col)))

    sp = [profile(s, a) for a in range(n)]
    tp = [profile(t, a) for a in range(n)]
    candidates = [[b for b in range(n) if tp[b] == sp[a]] for a in range(n)]

    img = [-1] * n
    used = [False] * n

    def extend(a):
        if a == n:
            # partial checks skip pairs whose product had no image yet
            return all(t.table[img[x]][img[y]] == img[s.table[x][y]]
                       for x in range(n) for y in range(n))
        for b in candidates[a]:
            if used[b]:
                continue
            img[a] = b
            used[b] = True
            ok = True
            for x in range(a + 1):
                p = s.table[x][a]
                q = s.table[a][x]
                if p <= a and t.table[img[x]][b] != img[p]:
                    ok = False
                if ok and q <= a and t.table[b][img[x]] != img[q]:
                    ok = False
                if not ok:
                    break
            if ok and extend(a + 1):
                return True
            used[b] = False
            img[a] = -1
        return False

    return tuple(img) if extend(0) else None
