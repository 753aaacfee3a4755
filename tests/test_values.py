"""The engine's value classes against frozen dataclass twins.

The nine record classes of ``core``, ``biact``, ``green`` and ``props`` are
written by hand, without ``dataclasses`` (see ``core``).  Each twin below is
the frozen dataclass the class used to be, with the same fields and the
same ``compare``/``repr`` flags, written out here rather than read off the
class; the tests check that equality, hashing, repr and refused assignment
agree with it on sample objects.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import pytest

from greenstone import biact as ba
from greenstone import core, green, props


@dataclass(frozen=True)
class FiniteSemigroup:
    order: int
    table: tuple
    labels: tuple
    provenance: Mapping = field(default_factory=dict, compare=False, repr=False)

    __repr__ = core.FiniteSemigroup.__repr__     # hand-written on both sides


@dataclass(frozen=True)
class SubsetRole:
    host: Any
    members: frozenset
    role: str


@dataclass(frozen=True)
class Congruence:
    blocks: tuple
    size: int
    over: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FiniteBiact:
    left: Any
    right: Any
    size: int
    left_action: tuple
    right_action: tuple
    labels: tuple
    provenance: Mapping = field(default_factory=dict, compare=False, repr=False)

    __repr__ = ba.FiniteBiact.__repr__


@dataclass(frozen=True)
class Subact:
    host: Any
    members: frozenset


@dataclass(frozen=True, slots=True)
class _PreorderData:
    class_of: tuple
    classes: tuple
    reach: tuple
    covers: tuple
    unconsumed: int
    height: int


@dataclass(frozen=True)
class GreenStructure:
    size: int
    relations: tuple
    left_stable: bool
    right_stable: bool


@dataclass(frozen=True)
class GreenIndexResult:
    index: int
    outside_h_classes: int
    inside_h_classes: int
    classes_in_sub: tuple
    classes_outside: tuple
    quotient_l_classes: int
    quotient_r_classes: int


@dataclass(frozen=True)
class PredicateResult:
    value: Optional[bool]
    method: str
    witness: Any = None


TWINS = {core.FiniteSemigroup: FiniteSemigroup, core.SubsetRole: SubsetRole,
         core.Congruence: Congruence, ba.FiniteBiact: FiniteBiact, ba.Subact: Subact,
         green._PreorderData: _PreorderData, green.GreenStructure: GreenStructure,
         green.GreenIndexResult: GreenIndexResult, props.PredicateResult: PredicateResult}


def twin(x):
    """The dataclass twin of ``x``, built from the twin's own field list."""
    cls = TWINS[type(x)]
    return cls(**{f.name: getattr(x, f.name) for f in dataclasses.fields(cls)})


def t3():
    return core.generate_from_transformations(3, [(1, 2, 0), (1, 0, 2), (0, 0, 2)])


def derived():
    """A subact of the regular biact of T3, built from the host's digraphs:
    its tables are still unbuilt."""
    x = ba.subact_closure(ba.regular_biact(t3()), [5]).sub
    assert ba._FILL in vars(x)
    return x


def samples() -> list:
    """Two or more objects of each class, some of them equal."""
    s = t3()
    other = core.validate_table(2, [[0, 1], [1, 0]])
    relabelled = core.FiniteSemigroup(s.order, s.table, tuple(f"x{i}" for i in range(s.order)))
    ideal = next(c for c in green.green_structure(s).relation("J").classes
                 if core.is_role(s, c, "ideal"))
    biact = ba.validate_biact(other, core.validate_table(1, [[0]]), [[0, 1], [1, 0]], [[0], [1]])
    filled = derived()
    filled.left_action
    gs = green.green_structure(s)
    fresh = green._build(s.order, *ba.digraphs(s))
    props.left_stable_forms(s)          # gs now holds a memo, fresh none
    witnessed = props.retract(other, {0}, cap=1)
    return [
        s, core.generate_from_transformations(3, [(1, 2, 0), (1, 0, 2), (0, 0, 2)]),
        relabelled, other,
        core.classify_subset(s, ideal, "ideal"), core.classify_subset(s, ideal, "subsemigroup"),
        core.congruence_closure(s, [(0, 1)]), core.Congruence((0, 0, 1), 3),
        core.congruence_closure(ba.regular_biact(s), [(0, 1)]),
        biact, ba.validate_biact(other, core.validate_table(1, [[0]]), [[0, 1], [1, 0]],
                                 [[0], [1]], labels=["p", "q"]),
        filled, ba.regular_biact(s),
        ba.subact_closure(biact, [0]), ba.Subact(biact, frozenset({0, 1})),
        ba.subact_closure(ba.regular_biact(s), [5]),
        gs.relation("L"), gs.relation("R"), fresh.relation("L"),
        gs, fresh, green.green_structure(other),
        green.green_index(s, ideal), green.green_index(s, range(s.order)),
        props.stable(s), props.minimal_condition(s, "L"), witnessed,
        props.PredicateResult(True, "definition"),
        props.PredicateResult(None, "definition", {"a": 1}),
    ]


def _hash(x):
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


def setattr_none(x, name):
    setattr(x, name, None)


def _refusal(act, x, name):
    with pytest.raises(AttributeError) as info:
        act(x, name)
    return str(info.value)


class TestAgainstTwins:
    def test_every_class_has_a_sample(self):
        assert {type(x) for x in samples()} == set(TWINS)

    def test_constructors_take_the_twin_fields(self):
        for x in samples():
            names = [f.name for f in dataclasses.fields(TWINS[type(x)])]
            values = [getattr(x, f) for f in names]
            assert type(x)(*values) == x == type(x)(**dict(zip(names, values)))

    def test_defaults(self):
        s = core.FiniteSemigroup(1, ((0,),), ("e0",))
        assert s.provenance == {} and s.provenance is not core.FiniteSemigroup(
            1, ((0,),), ("e0",)).provenance
        assert core.Congruence((0,), 1).over is None
        assert props.PredicateResult(True, "m").witness is None
        assert ba.FiniteBiact(s, s, 1, ((0,),), ((0,),), ("a0",)).provenance == {}

    def test_equality_and_hash(self):
        xs = samples()
        for x in xs:
            assert _hash(x) == _hash(twin(x))
            for y in xs:
                assert (x == y) == (twin(x) == twin(y)) if type(x) is type(y) else x != y
                assert (x != y) == (not x == y)
        s, gs = xs[0], green.green_structure(xs[0])
        assert s.__eq__(gs) is NotImplemented and s.__eq__(twin(s)) is NotImplemented

    def test_hidden_fields_are_not_compared(self):
        s = t3()
        other = core.FiniteSemigroup(s.order, s.table, s.labels, {"kind": "other"})
        assert other == s and hash(other) == hash(s)
        rho = core.congruence_closure(s, [(0, 1)])
        assert core.Congruence(rho.blocks, rho.size) == rho

    def test_repr(self):
        for x in samples():
            assert repr(x) == repr(twin(x))
        assert repr(t3()) == "FiniteSemigroup(order=27, kind='transformations')"

    def test_a_derived_part_before_and_after_its_tables_fill(self):
        filled = derived()
        tx = twin(filled)                   # reads, and so fills, the tables
        assert repr(derived()) == repr(tx)
        assert _hash(derived()) == _hash(tx)
        assert derived() == filled and twin(derived()) == tx
        x = derived()
        assert x == filled and ba._FILL not in vars(x)
        assert (repr(x), _hash(x)) == (repr(tx), _hash(tx))

    def test_assignment_and_deletion_are_refused(self):
        for x in samples():
            tx = twin(x)
            names = [f.name for f in dataclasses.fields(tx)]
            # a slotted frozen dataclass raises TypeError, not the refusal,
            # for a name that is not a field, so only its fields are compared
            for name in names + (["nosuch", "_memo"] if hasattr(tx, "__dict__") else []):
                for act in (setattr_none, delattr):
                    assert _refusal(act, x, name) == _refusal(act, tx, name)
        assert _refusal(delattr, t3(), "order") == "cannot delete field 'order'"
        assert _refusal(setattr_none, t3(), "order") == "cannot assign to field 'order'"

    def test_a_structure_keeps_its_memo_outside_its_value(self):
        s = t3()
        gs = green.green_structure(s)
        fresh = green._build(s.order, *ba.digraphs(s))
        props.stable_char(s)
        assert gs._stable_char is not None
        assert all(getattr(fresh, name) is None for name in green.GreenStructure._KEPT)
        assert gs == fresh and repr(gs) == repr(fresh)

    def test_equal_structures_hash_equal(self):
        s = t3()
        gs, fresh = green.green_structure(s), green._build(s.order, *ba.digraphs(s))
        assert gs is not fresh and gs == fresh and hash(gs) == hash(fresh)
        assert len({gs, fresh, green.green_structure(core.validate_table(1, [[0]]))}) == 2
