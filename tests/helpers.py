"""Helpers shared by the test modules: value records rebuilt with changes,
congruences from explicit partitions, and the substructure listings that
the tests use as oracles."""

from greenstone import core
from greenstone.biact import digraphs
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
    return [frozenset(_bits(m)) for m in _subact_keys(digraphs(a))]
