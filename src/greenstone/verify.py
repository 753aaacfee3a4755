"""The claim registry and suite runner.

Every registered claim is a checkable property with an execution scope:

    finite-exhaustive   quantified over enumerated instances and all of
                        their auxiliary substructures within caps
    finite-sampled      additionally over seeded random instances
    symbolic-witness    replayed through the catalog's decision procedures
    derived-decider     a closed-form decider compared against brute force

Most claims transfer a condition between a structure and its
substructures, so they quantify over one corpus that ``Env`` owns: the
semigroups or biacts themselves (the host corpora, whose digraph pairs
are frozen once, when they are built), the subsemigroups, ideals,
bi-ideals and single-pair congruences of the semigroups (built once per
``Env``), or the fixed pool of small biacts whose parts the finite gluing
claims glue.  The subacts and single-pair congruences of the biacts are
not a corpus: the claims over them run host by host (below).  Such a
claim is a per-instance check ``check(instance, tally)`` plus a registry
row naming its corpus; ``_over`` owns the loop, the instance count and
the outcome.  The commonest statement, "the whole has a condition iff
its parts have it", is written once as ``_split``, so such a claim is one
registry row naming the predicate, the whole, the parts, the witness key
and the kinds.
Claims with a symbolic part, or over pairs of semigroups, are functions
of the ``Env``; a symbolic chain is replayed by ``_Tally.chain``.

The host-level pass.  P4.4, P5.1 (subacts, their ``sub`` and Rees
quotient) and P4.1, C4.3 (single-pair congruences, their quotient) are
decided host by host, by one pass (``_over_hosts``).  Each host's
one-step digraph pair is frozen once per ``Env``, when its corpus is
built, and interned as a digraph id.  A host's instances are listed once
per listing key and run, which fixes all that the listing reads: a
host's subacts depend on its pair only, so they are listed once per
digraph id; its single-pair congruences depend on its size and its set
of translation maps only, so they are listed once per such key, which
hosts with different digraphs can share (a biact and its mirror image,
whose left and right maps trade places).  The verdicts live in one table
on the ``Env`` per host corpus, binding of the predicates and binding of
the part builder (``Env.verdicts``).  The host's verdicts are decided
once per host, which is exact for any predicate.  The parts' verdicts
are decided once per (digraph id, key), for every kind at once, on parts
built from the host's pair without action tables (see ``biact``).  That
replay is exact because the key fixes each part's digraph pair: a subact
is closed under both actions, so the sub's steps are the host's
restricted to the members and the Rees quotient's merge them into one
sink, and compatibility makes a quotient block's steps the blocks of its
least member's steps.  A semigroup host is read as its own biact, whose
quotient has its semigroup quotient's steps.  The pair fixes the Green
structure, and the key fixes the part's kind and size, so a predicate
that decides from these, as every predicate of these claims does, gives
the same verdict on each part with that key.  The instances and
violations are then replayed in corpus order.  P4.4 and P5.1 name the
same corpus, predicates and builder, so they share one table: whichever
runs first builds each subact's parts once and the other builds none.
A verdict is read back only under the functions that decided it, so a
planted or traced predicate or builder decides afresh.  R3.14(3) checks
each (left digraph of S, right digraph of T) group of pairs once, on a
product built from those two digraphs.

Must-hold claims must produce zero violations; counterexample-expected
claims must produce a verified witness.  Claims whose finite runs cannot
fail for structural reasons (every finite structure satisfies the minimal
conditions and is stable) are still executed as engine smoke tests and
their reports say so explicitly.

Reports are reproducible bit-exactly for a fixed configuration: every
random draw is seeded per claim, results are sorted by claim id, and no
wall-clock data enters the JSON payload (timings go to the human summary
only).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property, wraps
from typing import Callable, Iterable, Optional

from . import __version__ as _version
from .biact import (
    Digraphs,
    FiniteBiact,
    _PAIR,
    _block_quotient,
    _collapse,
    _restrict,
    biact_rees_quotient,
    digraphs,
    product_biact,
    regular_biact,
    relative_biact,
)
from .core import (
    Congruence,
    FiniteSemigroup,
    _closure,
    _normalize_blocks,
    _shared,
    _translations,
    classify_subset,
    is_role,
    quotient,
    rees_quotient,
    subsemigroup,
    zero_direct_union,
)
from .enumeration import (
    SEMIGROUP_ORDER_CAP,
    all_biacts,
    all_semigroups,
    random_biact_corpus,
    semigroup_pool,
)
from .errors import InvalidSuiteConfig, UnknownClaim
from .green import GreenStructure, _bits, _fill_slot, green_index, green_structure
from .props import (
    group_bound,
    k_preserving,
    l_periodic,
    left_stable,
    left_stable_forms,
    minimal_condition,
    r_periodic,
    regular_subsemigroup,
    retract,
    stable,
    stable_char,
)
from .symbolic import (
    Bicyclic,
    IntPlus,
    SymbolicSemigroup,
    ZERO,
    bicyclic_mul,
    bicyclic_section,
    bicyclic_two_sided_witness,
    build_usa,
    build_usta,
    catalog,
    corollary_4_19_instance,
    corollary_5_12_instance,
    example_4_8,
    free_to_bicyclic,
    instability_witnessed,
    oracle_below,
    pair_to_word,
    verify_chain,
    word_to_pair,
)

KINDS = ("L", "R", "J")


@dataclass(frozen=True)
class SuiteConfig:
    max_order: int = 3          # exhaustive semigroup cap
    exh_semigroup: int = 2      # biact census: acting semigroup order cap
    exh_carrier: int = 3        # biact census: carrier cap
    random_biacts: int = 1000
    depth: int = 100            # chain depth for symbolic witnesses
    samples: int = 200          # sampled pairs for totality/simplicity checks
    seed: int = 42
    chain_seed: int = 100       # the -k seed of the integer chain example

    def __post_init__(self):
        # below these a claim would check nothing and still pass
        for name, least in _LEAST.items():
            value = getattr(self, name)
            if value < least:
                raise InvalidSuiteConfig(f"suite parameter {name} must be at "
                                         f"least {least}, got {value}")
        # above the census cap no semigroup of that order is enumerated
        if self.max_order > SEMIGROUP_ORDER_CAP:
            raise InvalidSuiteConfig(f"suite parameter max_order must be at most "
                                     f"{SEMIGROUP_ORDER_CAP}, got {self.max_order}")

    def to_json(self) -> dict:
        return asdict(self)


_LEAST = {"max_order": 1, "exh_semigroup": 1, "exh_carrier": 1, "random_biacts": 0,
          "depth": 1, "samples": 1, "chain_seed": 0}


@dataclass
class ClaimOutcome:
    ok: bool
    instances: int = 0
    vacuous: bool = False
    witnesses: list = field(default_factory=list)
    notes: str = ""


@dataclass(frozen=True)
class Claim:
    id: str
    summary: str
    scope: str     # finite-exhaustive | finite-sampled | symbolic-witness | derived-decider
    expected: str  # must-hold | counterexample-expected
    checker: Callable[["Env"], ClaimOutcome]


# ---------------------------------------------------------------------------
# corpus instances


@dataclass(eq=False)
class Substructure:
    """A semigroup with one of its subsemigroups, ideals or bi-ideals.  The
    derived objects are built on first use and kept.  ``pair`` is the
    host's digraph pair, when the caller holds it (``Env`` does)."""
    host: FiniteSemigroup
    members: frozenset[int]
    pair: Optional[Digraphs] = None

    @cached_property
    def rel(self) -> FiniteBiact:
        """The host as a biact over the subsemigroup."""
        return relative_biact(self.host, self.members)

    @cached_property
    def sub(self) -> FiniteSemigroup:
        """The members reindexed as a semigroup: the one acting in ``rel``,
        so that every derived biact shares a single copy."""
        return self.rel.left

    @cached_property
    def rel_rees(self) -> FiniteBiact:
        """The relative Rees quotient: ``rel`` with the subsemigroup collapsed."""
        return biact_rees_quotient(self.rel, self.members)

    @cached_property
    def ideal_biact(self) -> FiniteBiact:
        """An ideal as a biact over the host: the restriction of the host,
        read as its own biact, to the ideal, a subact of it.  Read on
        ideals only (``Env.ideals``), which are closed by construction."""
        return _restrict(self.host, sorted(self.members), self.pair)

    @cached_property
    def rees(self) -> FiniteSemigroup:
        """The Rees quotient of the host by an ideal."""
        return rees_quotient(self.host, self.members)


def _kept(build: Callable[["Env"], object]) -> Callable[["Env"], object]:
    """A corpus method that builds its corpus on the first call per ``Env``
    and returns the same object on every later call.  The result is a plain
    function, so a wrapper installed on ``Env`` later (a tracer) sees every
    call."""
    @wraps(build)
    def corpus(env: "Env"):
        if build.__name__ not in env._kept:
            env._kept[build.__name__] = build(env)
        return env._kept[build.__name__]
    return corpus


def _hosts(build: Callable[["Env"], list]) -> Callable[["Env"], list]:
    """A kept corpus (``_kept``) of hosts, whose one-step digraph pairs are
    frozen when it is built (``Env._freeze``)."""
    @wraps(build)
    def hosts(env: "Env") -> list:
        return env._freeze(build(env))
    return _kept(hosts)


class Env:
    """Shared corpora for the claim checkers, and the verdicts of the
    host-level pass.

    The semigroup-side corpora are small and built once.  The biact-side
    substructures are not kept: holding the thousands of subact
    restrictions and quotients at once would raise the suite's peak memory
    by megabytes.  What the host pass decides on them is kept instead, as
    bits (``verdicts``), keyed by the predicate functions and the part
    builder bound when they were decided, so a planted or traced function
    decides afresh.
    """

    def __init__(self, config: SuiteConfig):
        self.config = config
        self._kept: dict[str, object] = {}
        self._interned: dict[Digraphs, Digraphs] = {}
        self._pairs: dict[int, Digraphs] = {}      # id(host) -> its interned pair
        self._digraph_ids: dict[str, tuple[list[Digraphs], list[int]]] = {}
        self._verdicts: dict[tuple, tuple[list, dict]] = {}

    def rng(self, key: str) -> random.Random:
        return random.Random(f"{self.config.seed}:{key}")

    @_hosts
    def semigroups(self) -> list[FiniteSemigroup]:
        """Exhaustive census up to max_order plus the named order-4 pool."""
        out = []
        for n in range(1, self.config.max_order + 1):
            out.extend(all_semigroups(n))
        out.extend(s for s in semigroup_pool() if s.order > self.config.max_order)
        return out

    @_hosts
    def biacts_exhaustive(self) -> list[FiniteBiact]:
        pool = [s for n in range(1, self.config.exh_semigroup + 1)
                for s in all_semigroups(n)]
        return [b for s, t in itertools.product(pool, pool)
                for m in range(1, self.config.exh_carrier + 1) for b in all_biacts(s, t, m)]

    @_hosts
    def biacts_random(self) -> list[FiniteBiact]:
        return random_biact_corpus(self.config.random_biacts, self.config.seed)

    def biacts(self) -> list[FiniteBiact]:
        return self.biacts_exhaustive() + self.biacts_random()

    @_kept
    def catalog(self) -> dict[str, SymbolicSemigroup]:
        """The symbolic catalog, built and gated once.  Its entries carry
        mutable property sheets, so it is kept per Env, not per process."""
        return catalog()

    @_kept
    def subsemigroups(self) -> list[Substructure]:
        """Every subsemigroup of every semigroup, host by host."""
        return [Substructure(s, m, self._pairs[id(s)])
                for s in self.semigroups() for m in subsemigroups_of(s)]

    @_kept
    def ideals(self) -> list[Substructure]:
        """The subsemigroups that are ideals; they share the derived objects."""
        return [x for x in self.subsemigroups() if is_role(x.host, x.members, "ideal")]

    @_kept
    def bi_ideals(self) -> list[Substructure]:
        """The subsemigroups that are bi-ideals; they share the derived objects."""
        return [x for x in self.subsemigroups() if is_role(x.host, x.members, "bi-ideal")]

    @_kept
    def congruences(self) -> list[Congruence]:
        """The congruence generated by each pair of distinct elements of
        each semigroup; ``rho.over`` is the semigroup."""
        return [rho for s in self.semigroups() for rho in single_pair_congruences(s)]

    @_kept
    def gluings(self) -> list[FiniteBiact]:
        """The biacts of the semigroups of order 1 and 2 on one and two
        points, the parts of the finite gluings U(S,T;A) and U(S,A).  Fixed,
        not read from the census caps, so the gluing claims check the same
        instances at every config."""
        pool = [s for n in (1, 2) for s in all_semigroups(n)]
        return [a for s, t in itertools.product(pool, pool)
                for m in (1, 2) for a in all_biacts(s, t, m)]

    def _freeze(self, hosts: list) -> list:
        """Freeze each host's one-step digraph pair, once per ``Env``, and
        intern it, so that equal pairs share one tuple.  A derived host (a
        random corpus part, ``biact._derived``) carries its pair, which is
        taken as it is, not recomputed from its tables, which would fill
        them.  The host's Green slot is filled from the pair at once
        (``green._fill_slot``), unless the host already holds a structure:
        the pool semigroups are shared across ``Env``s."""
        for x in hosts:
            pair = vars(x).get(_PAIR) or digraphs(x)
            pair = self._pairs[id(x)] = self._interned.setdefault(pair, pair)
            _fill_slot(x, pair)
        return hosts

    def digraph_ids(self, hosts: str) -> tuple[list[Digraphs], list[int]]:
        """The distinct one-step digraph pairs of the host corpus named
        ``hosts``, in first-seen order, and each host's digraph id, its
        index into them: read off the pairs frozen with the corpus, on the
        first call per corpus."""
        if hosts not in self._digraph_ids:
            ids: dict[Digraphs, int] = {}
            hids = [ids.setdefault(self._pairs[id(x)], len(ids))
                    for x in getattr(self, hosts)()]
            self._digraph_ids[hosts] = (list(ids), hids)
        return self._digraph_ids[hosts]

    def verdicts(self, hosts: str, preds: tuple, parts: Callable) -> tuple[list, dict]:
        """The verdict table of the host pass over the host corpus named
        ``hosts``, the predicates ``preds`` as this module binds them now
        and the part builder ``parts``, made on the first call per binding:
        each host's verdict bits by its place in the corpus, and each
        part's by digraph id and then instance key, both filled on first
        use.  Keyed by id first, the table keeps no (id, key) tuple per
        part, which more than halves its memory at seed 7100."""
        table = (hosts, preds, tuple(globals()[pred] for pred, _ in preds), parts)
        if table not in self._verdicts:
            self._verdicts[table] = ([None] * len(getattr(self, hosts)()), {})
        return self._verdicts[table]


# ---------------------------------------------------------------------------
# substructure enumeration (within caps; empty substructures are quarantined)


def nonempty_subsets(n: int) -> Iterable[frozenset[int]]:
    return (frozenset(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r))


def subsemigroups_of(s: FiniteSemigroup) -> list[frozenset[int]]:
    return [m for m in nonempty_subsets(s.order) if is_role(s, m, "subsemigroup")]


def _subact_keys(pair: Digraphs) -> list[int]:
    """The nonempty subacts of a biact whose one-step digraph pair is
    ``pair``, as member bitmasks, in ``nonempty_subsets`` order: a subset
    is closed under both actions iff it holds the left and right one-step
    successors of each of its members."""
    succ = [sum(1 << y for y in {*ls, *rs}) for ls, rs in zip(*pair)]
    out = []
    for r in range(1, len(succ) + 1):
        for c in itertools.combinations(range(len(succ)), r):
            mask = reach = 0
            for x in c:
                mask |= 1 << x
                reach |= succ[x]
            if not reach & ~mask:
                out.append(mask)
    return out


def single_pair_congruences(x) -> list:
    fns = _translations(x)
    return [_closure(x, fns, [pair]) for pair in itertools.combinations(range(x.size), 2)]


# ---------------------------------------------------------------------------
# the runner and small shared helpers


def _as_json(value):
    if isinstance(value, (list, tuple)):
        return [_as_json(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_as_json(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _as_json(v) for k, v in value.items()}
    return value


_SMOKE = ("finite structures satisfy every minimal condition and are stable, "
          "so the finite run is an engine smoke test; zero conclusion "
          "failures is the pass condition")


_KEEP = 5   # violations a report shows per claim


class _Tally:
    """The checks one claim has made and the violations it has found."""

    def __init__(self):
        self.instances = 0
        self.count = 0
        self.samples: list = []

    def add(self, payload) -> None:
        self.count += 1
        if len(self.samples) < _KEEP:
            self.samples.append(_as_json(payload))

    def merge(self, other: "_Tally") -> None:
        """Count ``other``'s checks and violations here, as if made here."""
        self.instances += other.instances
        self.count += other.count
        self.samples.extend(other.samples[:_KEEP - len(self.samples)])

    def chain(self, x, chain, k: str, depth: int, payload: dict) -> None:
        """One check: ``chain`` descends strictly in the ``k`` preorder of
        ``x`` for ``depth`` steps, or ``payload`` is added with the reason."""
        self.instances += 1
        res = verify_chain(x, chain, k, depth)
        if not res.ok:
            self.add({**payload, "reason": res.reason})

    def over(self, corpus: Iterable, check) -> "_Tally":
        """Run ``check(instance, self)`` on every instance of ``corpus``.  A
        check returns the number of checks it made, or None for one."""
        for x in corpus:
            made = check(x, self)
            self.instances += 1 if made is None else made
        return self

    def outcome(self, smoke: bool = False, notes: str = "") -> ClaimOutcome:
        """A smoke outcome is vacuous and leads its notes with ``_SMOKE``."""
        if smoke:
            notes = "; ".join(filter(None, (_SMOKE, notes)))
        return ClaimOutcome(ok=self.count == 0, instances=self.instances,
                            vacuous=smoke, witnesses=self.samples,
                            notes=notes if self.count == 0
                            else f"{self.count} violations; {notes}".strip("; "))


def _over(corpus: str, check, smoke: bool = False,
          notes: str = "") -> Callable[[Env], ClaimOutcome]:
    """The checker of a claim that is ``check`` on every instance of the
    Env corpus named ``corpus``.  The corpus method is looked up on each
    run, so a wrapper installed on ``Env`` later (a tracer) is called."""
    def checker(env: Env) -> ClaimOutcome:
        return _Tally().over(getattr(env, corpus)(), check).outcome(smoke, notes)
    return checker


def _over_hosts(hosts: str, preds: tuple, listing: Callable, keys: Callable,
                parts: str, check: Callable, smoke: bool = False,
                notes: str = "") -> Callable[[Env], ClaimOutcome]:
    """The checker of a claim that compares the predicates ``preds``, as
    (name, kinds) pairs, on each host of the Env corpus named ``hosts``
    and on the derived parts of its instances, host by host.

    - Each host's one-step digraph pair is frozen once per ``Env`` and
      interned as a digraph id (``Env.digraph_ids``), so the claims over
      one corpus share it.
    - ``keys(host, pair)`` lists the host's instances as hashable keys, in
      order.  It is called once per listing key ``listing(host, hid)`` and
      run, which must fix everything ``keys`` reads: the digraph id for
      subacts (``_by_digraph``), the translation maps for congruences
      (``_by_translations``).
    - The verdicts come from the ``Env``'s table for this corpus, these
      predicates and the part builder of this module named ``parts``, all
      looked up on each run (``Env.verdicts``), so claims that name the
      same three share their verdicts.  The host's are decided once per
      host, on its first instance, which is exact for any predicate.
    - The builder named ``parts`` builds an instance's parts from the
      pair, as ``parts(host, pair, key)``, and their verdicts are decided
      once per (digraph id, key).  This is
      exact because the key fixes each part's digraph pair, hence its
      Green structure, and its kind and size: the predicates must decide
      from these, as every predicate of the claims does.
    - ``check(host, key, whole, part, v)`` then makes the instance's checks
      from the two verdicts (``_verdicts``) and returns their number, so
      instances and violations come in corpus order.
    """
    def checker(env: Env) -> ClaimOutcome:
        build = globals()[parts]
        whole, part = env.verdicts(hosts, preds, build)
        v, listed = _Tally(), {}
        pairs, hids = env.digraph_ids(hosts)
        for i, (host, hid) in enumerate(zip(getattr(env, hosts)(), hids)):
            pair = pairs[hid]
            by = listing(host, hid)
            if by not in listed:
                listed[by] = keys(host, pair)
            known = part.setdefault(hid, {})
            for key in listed[by]:
                if whole[i] is None:
                    whole[i] = _verdicts(preds, (host,))
                if key not in known:
                    known[key] = _verdicts(preds, build(host, pair, key))
                v.instances += check(host, key, whole[i], known[key], v)
        return v.outcome(smoke, notes)
    return checker


def _by_digraph(host, hid: int) -> int:
    """The listing key of subacts: the digraph id, which fixes all that
    ``_subact_keys`` reads."""
    return hid


def _closed_masks(host: FiniteBiact, pair: Digraphs) -> list[int]:
    """The subacts of ``host``, whose pair is ``pair``, as member bitmasks."""
    return _subact_keys(pair)


def _by_translations(host, hid: int) -> tuple:
    """The listing key of single-pair congruences: the size and the set of
    translation maps, all that ``core._closure`` reads (in any order: the
    closure is the least congruence, whatever the order of its unions)."""
    return host.size, frozenset(_translations(host))


_BIT = {None: 1, "L": 1, "R": 2, "J": 4}   # a kind's bit in ``_verdicts``


def _verdicts(preds: tuple, xs: Iterable) -> int:
    """For each (name, kinds) of ``preds``, whether the predicate holds on
    every object of ``xs``, as one bit per kind (``_BIT``; None, for a
    predicate asked without a kind, is bit 1), the i-th predicate's bits
    shifted by 3i (``_bit``)."""
    xs = tuple(xs)
    return sum(_BIT[k] << 3 * i for i, (pred, kinds) in enumerate(preds)
               for k in kinds if all(_holds(pred, x, k) for x in xs))


def _bit(preds: tuple, pred: str, k: Optional[str] = None) -> int:
    """The bit of ``pred`` for the kind ``k`` in ``_verdicts(preds, ...)``."""
    return _BIT[k] << 3 * [name for name, _ in preds].index(pred)


def _split(pred: str, whole: str, parts: tuple[str, ...], key: str,
           kinds: tuple = KINDS) -> Callable[[object, _Tally], int]:
    """The per-instance check of "the whole has the condition iff every
    part has it", once per kind.  ``whole`` and ``parts`` name attributes of
    the instance; ``pred`` names a predicate of this module, looked up on
    each call so that a wrapper installed later is called, and a kind of
    None calls it with no kind.  A violation names the instance's members
    under ``key``, and the kind when there are several."""
    def check(x, v: _Tally) -> int:
        for k in kinds:
            whole_holds = _holds(pred, getattr(x, whole), k)
            parts_hold = all(_holds(pred, getattr(x, p), k) for p in parts)
            if whole_holds != parts_hold:
                v.add({key: x.members, "k": k} if len(kinds) > 1 else {key: x.members})
        return len(kinds)
    return check


def _holds(pred: str, x, k: Optional[str]) -> bool:
    """Whether the predicate of this module named ``pred`` holds on ``x``,
    for the kind ``k`` unless it is None.  The name is looked up on each
    call, so that a wrapper installed later is called."""
    holds = globals()[pred]
    return bool(holds(x) if k is None else holds(x, k))


def _subact_parts(host: FiniteBiact, pair: Digraphs, mask: int) -> tuple:
    """The sub and the Rees quotient of the subact ``mask`` of ``host``,
    built from the host's digraph pair."""
    members = list(_bits(mask))
    return (_restrict(host, members, pair), _collapse(host, frozenset(members), pair))


_MINIMAL = (("minimal_condition", KINDS),)
# the predicates of P4.4 and P5.1, whose verdicts on the biact hosts and on
# their subacts' parts the two claims share (``Env.verdicts``)
_SUBACT = _MINIMAL + (("stable", (None,)), ("left_stable", (None,)))


def _p4_4(host: FiniteBiact, mask: int, whole: int, part: int, v: _Tally) -> int:
    """A biact has a minimal condition iff a subact and its Rees quotient
    do."""
    for k in KINDS:
        if (whole ^ part) & _BIT[k]:
            v.add({"subact": frozenset(_bits(mask)), "k": k})
    return len(KINDS)


def _same_preorders(p, q, v: _Tally) -> int:
    """Two objects on one carrier have the same three preorders."""
    gp, gq = green_structure(p), green_structure(q)
    for k in KINDS:
        lp, lq = gp.relation(k).le, gq.relation(k).le
        for a, b in itertools.product(range(p.size), repeat=2):
            if lp(a, b) != lq(a, b):
                v.add({"k": k, "pair": (a, b)})
    return len(KINDS) * p.size ** 2


def _ab_words() -> list[str]:
    """The nonempty words over {a, b} of at most six letters, shortest first."""
    return ["".join(w) for n in range(1, 7) for w in itertools.product("ab", repeat=n)]


def _null_part(u, a, rng: random.Random, v: _Tally, failure: str) -> None:
    """Products of sampled elements of the null part of the gluing ``u``
    over the biact ``a`` are zero."""
    for _ in range(50):
        v.instances += 1
        if u.mul(("x", a.sample(rng)), ("x", a.sample(rng))) != ZERO:
            v.add({"failure": failure})


def _j_trivial(free, pairs: Iterable, v: _Tally, failure: str) -> None:
    """Distinct words of a free semigroup are never J-related."""
    for a, b in pairs:
        v.instances += 1
        if free.le("J", a, b) and free.le("J", b, a) and a != b:
            v.add({"failure": failure, "pair": (a, b)})


# ---------------------------------------------------------------------------
# section 3 claims


def check_L3_3(env: Env) -> ClaimOutcome:
    # finite side: the minimal condition holds via acyclic condensations and
    # the longest strict class chain stays within the class count, so every
    # descending chain stabilises
    v = _Tally().over(env.biacts_exhaustive(), _l3_3)
    # symbolic side: every entry that denies a minimal condition exhibits a
    # strictly descending chain of the advertised depth
    for name, entry in sorted(env.catalog().items()):
        for mk, k in (("M_L", "L"), ("M_R", "R"), ("M_J", "J")):
            claim = entry.sheet.get(mk)
            if claim and not claim.value:
                v.chain(entry, entry.chain(k), k, env.config.depth, {"entry": name, "k": k})
    return v.outcome()


def _l3_3(b: FiniteBiact, v: _Tally) -> int:
    gs = green_structure(b)
    for k in KINDS:
        if not minimal_condition(b, k):
            v.add({"object": "biact", "k": k})
        # longest strict chain in the class poset is bounded by #classes
        depth = gs.relation(k).height
        if depth >= gs.num_classes(k) + 1:
            v.add({"chain too long": depth})
    return len(KINDS)


def check_P3_4(env: Env) -> ClaimOutcome:
    v = _Tally().over(env.biacts_exhaustive(), _p3_4)
    # symbolic consistency: bicyclic fails M_L and so does a biact over it
    # (itself, acting regularly): the same chain descends
    b = Bicyclic()
    v.chain(b, b.chain("L"), "L", env.config.depth, {"entry": "bicyclic"})
    return v.outcome(smoke=True)


def _p3_4(b: FiniteBiact, v: _Tally) -> None:
    # finite: the acting semigroup satisfies M_L, hence so must the biact
    if bool(minimal_condition(b.left, "L")) and not minimal_condition(b, "L"):
        v.add({"biact": b.size})


def _p3_5(b: FiniteBiact, v: _Tally) -> None:
    forms = left_stable_forms(b)
    if len(set(forms)) != 1:
        v.add({"forms": list(forms)})


def _p3_6(b: FiniteBiact, v: _Tally) -> None:
    if bool(stable_char(b)) != bool(stable(b)):
        v.add({"stable": bool(stable(b)), "char": bool(stable_char(b))})


def check_L3_7(env: Env) -> ClaimOutcome:
    v = _Tally().over(env.biacts(), _l3_7)
    # the catalog gate enforces the same implications on the sheets
    env.catalog()
    return v.outcome(smoke=True)


def _l3_7(b: FiniteBiact, v: _Tally) -> None:
    m_l = bool(minimal_condition(b, "L"))
    per = bool(l_periodic(b))
    st = bool(left_stable(b))
    if m_l and not per:
        v.add({"failure": "M_L without l-periodicity"})
    if per and not st:
        v.add({"failure": "l-periodicity without left stability"})


def _c3_8(b: FiniteBiact, v: _Tally) -> None:
    if not stable(b):
        v.add({"failure": "unstable finite biact", "witness": stable(b).witness})
    mks = {k: bool(minimal_condition(b, k)) for k in KINDS}
    if not all(mks.values()):
        v.add({"failure": "finite biact missing a minimal condition", **mks})


def check_C3_9(env: Env) -> ClaimOutcome:
    v = _Tally().over(env.biacts_exhaustive(), _c3_9)
    # symbolic: the max semilattice is l-periodic and its regular biact is
    # left stable on sampled action pairs
    entry = env.catalog()["nat-max"]
    rng = env.rng("C3.9")
    for _ in range(env.config.samples):
        v.instances += 1
        s, a = entry.sample(rng), entry.sample(rng)
        sa = entry.mul(s, a)
        if entry.le("J", sa, a) and entry.le("J", a, sa):
            if not (entry.le("L", sa, a) and entry.le("L", a, sa)):
                v.add({"s": s, "a": a})
    return v.outcome(smoke=True)


def _c3_9(b: FiniteBiact, v: _Tally) -> None:
    if bool(l_periodic(b.left)) and not left_stable(b):
        v.add({"failure": "l-periodic acting semigroup, unstable biact"})


def check_L3_10(env: Env) -> ClaimOutcome:
    v = _Tally().over(env.biacts(), _l3_10)
    # symbolic consistency on the bicyclic sheet: M_J holds and M_L agrees
    # with left stability (both false)
    sheet = env.catalog()["bicyclic"].sheet
    v.instances += 1
    if sheet.value("M_J") and sheet.value("M_L") != sheet.value("left_stable"):
        v.add({"entry": "bicyclic"})
    return v.outcome(smoke=True)


def _l3_10(b: FiniteBiact, v: _Tally) -> None:
    if bool(minimal_condition(b, "J")):
        if bool(minimal_condition(b, "L")) != bool(left_stable(b)):
            v.add({"failure": "M_J present but M_L and left stability differ"})


def check_P3_11(env: Env) -> ClaimOutcome:
    v = _Tally().over(env.biacts(), _p3_11)
    # symbolic: the three renderings agree on every sheet
    for name, entry in sorted(env.catalog().items()):
        v.instances += 1
        s = entry.sheet
        both = s.value("M_L") and s.value("M_R")
        via_periodic = s.value("M_J") and s.value("l_periodic") and s.value("r_periodic")
        via_stable = s.value("stable") and s.value("M_J")
        if not (both == via_periodic == via_stable):
            v.add({"entry": name})
    return v.outcome()


def _p3_11(b: FiniteBiact, v: _Tally) -> None:
    both = bool(minimal_condition(b, "L")) and bool(minimal_condition(b, "R"))
    via_periodic = (bool(minimal_condition(b, "J"))
                    and bool(l_periodic(b)) and bool(r_periodic(b)))
    via_stable = bool(stable(b)) and bool(minimal_condition(b, "J"))
    if not (both == via_periodic == via_stable):
        v.add({"both": both, "periodic": via_periodic, "stable": via_stable})


def _c3_12(b: FiniteBiact, v: _Tally) -> None:
    if bool(minimal_condition(b.left, "L")) and bool(minimal_condition(b.right, "R")):
        if not (minimal_condition(b, "L") and minimal_condition(b, "R")):
            v.add({"failure": "hypotheses hold, conclusion fails"})


def _c3_13(s: FiniteSemigroup, v: _Tally) -> None:
    both = bool(minimal_condition(s, "L")) and bool(minimal_condition(s, "R"))
    gb = bool(group_bound(s))
    via_gb = gb and bool(minimal_condition(s, "J"))
    via_stable = bool(stable(s)) and bool(minimal_condition(s, "J"))
    if not (both == via_gb == via_stable):
        v.add({"order": s.order})
    # group-bound coincides with two-sided periodicity of s acting on itself
    if gb != (bool(l_periodic(s)) and bool(r_periodic(s))):
        v.add({"order": s.order, "failure": "group-bound vs periodicity"})


def check_R3_14_2(env: Env) -> ClaimOutcome:
    """The bicyclic witness suite: bisimple yet no one-sided minimal
    condition, with deciders certified against the rewriting oracle."""
    v = _Tally()
    b = Bicyclic()
    cfg = env.config

    for k in ("L", "R"):
        v.chain(b, b.chain(k), k, cfg.depth, {"chain": k})

    rng = env.rng("R3.14(2)")
    for _ in range(cfg.samples):
        v.instances += 1
        x, y = b.sample(rng), b.sample(rng)
        if not (b.le("J", x, y) and b.le("J", y, x)):
            v.add({"pair": (x, y), "failure": "not mutually J-related"})
            continue
        s, t = bicyclic_two_sided_witness(x, y)
        if bicyclic_mul(bicyclic_mul(s, x), t) != y:
            v.add({"pair": (x, y), "failure": "witness replay"})
        # bisimplicity: an explicit middle element joins the L and R classes
        mid = (y[0], x[1])
        if not (b.le("L", x, mid) and b.le("L", mid, x)
                and b.le("R", mid, y) and b.le("R", y, mid)):
            v.add({"pair": (x, y), "failure": "no L-R middle element"})

    for side in ("left", "right"):
        v.instances += 1
        if not instability_witnessed(b, side):
            v.add({"failure": f"{side} instability witness"})

    # decider vs rewriting oracle on all words of length <= 6
    pairs = {w: word_to_pair(w) for w in [""] + _ab_words()}
    for u, w in itertools.product(pairs, repeat=2):
        v.instances += 1
        if word_to_pair(u + w) != bicyclic_mul(pairs[u], pairs[w]):
            v.add({"mul mismatch": (u, w)})
    # one oracle search per (kind, upper word) answers all its lower words
    words = {x: pair_to_word(x) for x in sorted(set(pairs.values()))}
    below = {(k, y): oracle_below(k, w, words.values()) for y, w in words.items() for k in KINDS}
    for x, y, k in itertools.product(words, words, KINDS):
        v.instances += 1
        if b.le(k, x, y) != (words[x] in below[k, y]):
            v.add({"le mismatch": (k, x, y)})
    return v.outcome()


def check_R3_14_3(env: Env) -> ClaimOutcome:
    """Product biacts: (a,b) <=_J (c,d) iff a <=_L c and b <=_R d, and the
    J-class count is the product of the L- and R-class counts.

    The check of a pair (S, T) reads only element ids, the L data of S, the
    R data of T and the Green data of S x T, whose digraphs are S_left x id
    and id x T_right.  So it is made once per (left digraph of S, right
    digraph of T) group, on a product built from those two digraphs, and
    each pair replays its group's checks and violations in pair order."""
    sems = env.semigroups()
    distinct, hids = env.digraph_ids("semigroups")
    pairs = [distinct[h] for h in hids]
    lefts = _normalize_blocks([p[0] for p in pairs])
    rights = _normalize_blocks([p[1] for p in pairs])
    v, groups = _Tally(), {}
    for (i, s), (j, t) in itertools.product(enumerate(sems), repeat=2):
        group = (lefts[i], rights[j])
        if group not in groups:
            prod = product_biact(s, t, (pairs[i][0], pairs[j][1]))
            groups[group] = _Tally().over([(s, t, prod)], _r3_14_3)
        v.merge(groups[group])
    return v.outcome()


def _r3_14_3(group: tuple[FiniteSemigroup, FiniteSemigroup, FiniteBiact], v: _Tally) -> int:
    s, t, prod = group
    pgs = green_structure(prod)
    sgs = green_structure(s)
    tgs = green_structure(t)
    le_j, le_l, le_r = pgs.relation("J").le, sgs.relation("L").le, tgs.relation("R").le
    nt = t.order
    carrier = list(itertools.product(range(s.order), range(nt)))
    for (a, bb), (c, d) in itertools.product(carrier, repeat=2):
        if le_j(a * nt + bb, c * nt + d) != (le_l(a, c) and le_r(bb, d)):
            v.add({"pair": ((a, bb), (c, d))})
    if pgs.num_classes("J") != sgs.num_classes("L") * tgs.num_classes("R"):
        v.add({"counts": (pgs.num_classes("J"),
                          sgs.num_classes("L"), tgs.num_classes("R"))})
    return (s.order * nt) ** 2


# ---------------------------------------------------------------------------
# section 4 claims


def _congruence_keys(host, pair: Digraphs) -> list[tuple[int, ...]]:
    """The blocks of each single-pair congruence of ``host``, interned
    (``core._shared``), as they key the verdict table: the default config's
    2,289 (digraph id, blocks) keys of P4.1 hold 222 distinct blocks."""
    return [_shared(rho.blocks) for rho in single_pair_congruences(host)]


def _quotient_part(host, pair: Digraphs, blocks: tuple[int, ...]) -> tuple:
    """The quotient by ``blocks``, built from the host's digraph pair.  A
    semigroup's is its quotient as its own biact, whose Green data are its
    semigroup quotient's (L4.2): a block [e] steps to the blocks [s e] in
    both."""
    return (_block_quotient(host, blocks, pair),)


def _p4_1(host, blocks: tuple[int, ...], whole: int, part: int, v: _Tally) -> int:
    """Minimal conditions pass to the quotient by a congruence: P4.1 for
    biact hosts, C4.3 for semigroup hosts."""
    for k in KINDS:
        if whole & ~part & _BIT[k]:
            v.add({"k": k})
    return len(KINDS)


def _l4_2(rho: Congruence, v: _Tally) -> int:
    """Semigroup quotients and regular-biact quotients carry the same
    preorders, hence the same minimal conditions."""
    sq, _ = quotient(rho.over, rho)
    bq, _ = quotient(regular_biact(rho.over), rho)
    made = _same_preorders(sq, bq, v)
    for k in KINDS:
        if bool(minimal_condition(sq, k)) != bool(minimal_condition(bq, k)):
            v.add({"k": k, "failure": "minimal conditions differ"})
    return made


def check_T4_6(env: Env) -> ClaimOutcome:
    v = _Tally().over(env.subsemigroups(), _t4_6)
    # boundary: for the integers over the naturals the hypothesis fails
    # (infinitely many relative L-classes in the quotient) and so does the
    # equivalence; pairwise L-inequivalent quotient elements certify this
    quot = example_4_8()["quotient"]
    for i, j in itertools.combinations(range(min(env.config.depth, 50)), 2):
        v.instances += 1
        if quot.le("L", -i, -j) and quot.le("L", -j, -i):
            v.add({"pair": (-i, -j), "failure": "quotient L-classes collapse"})
    return v.outcome(smoke=True, notes="the integer example certifies that the "
                                       "finiteness hypothesis cannot be dropped")


def _t4_6(x: Substructure, v: _Tally) -> None:
    vals = {bool(minimal_condition(x.host, "L")),
            bool(minimal_condition(x.sub, "L")),
            bool(minimal_condition(x.rel, "L"))}
    if len(vals) != 1:
        v.add({"sub": x.members})


def _c4_7(x: Substructure, v: _Tally) -> None:
    gi = green_index(x.host, x.members)
    _t4_6(x, v)
    # the H-class census of the quotient is exactly the index
    if green_structure(x.rel_rees).num_classes("H") != gi.index:
        v.add({"sub": x.members, "failure": "index vs quotient census"})


def check_Ex4_8(env: Env) -> ClaimOutcome:
    v = _Tally()
    pair = example_4_8()
    biact, quot = pair["biact"], pair["quotient"]
    cfg = env.config

    chain = biact.chain("J")
    for k in KINDS:
        v.chain(biact, chain, k, cfg.depth, {"k": k})
    for k, steps in enumerate(quot.longest_strict_descents(cfg.chain_seed)):
        v.instances += 1
        if steps != k + 1:
            v.add({"seed": -k, "steps": steps})
    # the integers form a group: sampled elements are all mutually related
    z = IntPlus()
    rng = env.rng("Ex4.8")
    for _ in range(cfg.samples):
        v.instances += 1
        x, y = z.sample(rng), z.sample(rng)
        if not (z.le("J", x, y) and z.le("J", y, x)):
            v.add({"pair": (x, y)})
    v.instances += 1
    if not (z.le("J", 5, -7) and z.le("J", -7, 5)):
        v.add({"pair": (5, -7)})
    return v.outcome()


def _l4_10(x: Substructure, v: _Tally) -> int:
    for k in KINDS:
        if bool(k_preserving(x.host, x.members, k)):
            if bool(minimal_condition(x.host, k)) and not minimal_condition(x.sub, k):
                v.add({"sub": x.members, "k": k})
    return len(KINDS)


def _c4_11(x: Substructure, v: _Tally) -> None:
    s, members, sub = x.host, x.members, x.sub
    complement = frozenset(range(s.order)) - members
    # regular subsemigroups are L- and R-preserving
    if bool(regular_subsemigroup(s, members)):
        if not (k_preserving(s, members, "L") and k_preserving(s, members, "R")):
            v.add({"sub": members, "failure": "regular but not LR-preserving"})
        if bool(minimal_condition(s, "L")) and not minimal_condition(sub, "L"):
            v.add({"sub": members, "failure": "regular M_L transfer"})
    # a right-ideal complement makes the subsemigroup L-preserving
    if complement and is_role(s, complement, "right-ideal"):
        if not k_preserving(s, members, "L"):
            v.add({"sub": members, "failure": "right-ideal complement not L-preserving"})
        if bool(minimal_condition(s, "L")) and not minimal_condition(sub, "L"):
            v.add({"sub": members, "failure": "complement M_L transfer"})
    if complement and is_role(s, complement, "left-ideal"):
        if not k_preserving(s, members, "R"):
            v.add({"sub": members, "failure": "left-ideal complement not R-preserving"})
    if complement and is_role(s, complement, "ideal"):
        if not k_preserving(s, members, "J"):
            v.add({"sub": members, "failure": "ideal complement not J-preserving"})
        if bool(minimal_condition(s, "J")) and not minimal_condition(sub, "J"):
            v.add({"sub": members, "failure": "complement M_J transfer"})


def _t4_13(x: Substructure, v: _Tally) -> None:
    if bool(minimal_condition(x.host, "L")) and not minimal_condition(x.sub, "L"):
        v.add({"bi-ideal": x.members})


def _c4_14(x: Substructure, v: _Tally) -> None:
    if bool(stable(x.host)) and bool(minimal_condition(x.host, "J")):
        if not minimal_condition(x.sub, "J"):
            v.add({"bi-ideal": x.members})


def _con4_17(a: FiniteBiact, v: _Tally) -> None:
    """The gluing U(S,T;A) of a biact A over (S, T): associativity, the
    ideal structure, and the derived deciders against brute force."""
    s, t = a.left, a.right
    u, parts = build_usta(s, t, a)   # validates associativity
    ideal = set(parts.ideal_ids)
    null = set(parts.null_ids)
    classify_subset(u, ideal, "ideal")
    _null_ideal(u, parts, v, "null part has a nonzero product")
    gs_u, gs_a = green_structure(u), green_structure(a)
    isub, icarrier = subsemigroup(u, ideal)
    ipos = {x: i for i, x in enumerate(icarrier)}
    # the null part is an ideal of the ideal itself
    classify_subset(isub, {ipos[x] for x in null}, "ideal")
    _x_deciders(gs_u, parts.x_ids, gs_a, v, " in U")
    _x_deciders(green_structure(isub), [ipos[x] for x in parts.x_ids], gs_a, v, " in I",
                kinds=(("J", "L"),))
    # the class census adds the parts plus the zero
    expected = (green_structure(s).num_classes("J") + green_structure(t).num_classes("J")
                + gs_a.num_classes("J") + 1)
    if gs_u.num_classes("J") != expected:
        v.add({"failure": "J census", "got": gs_u.num_classes("J"), "want": expected})
    # U/N is the zero-direct union of S and T, element for element: the
    # gluing lays out S and T first, and the quotient keeps them in order
    if rees_quotient(u, null) != zero_direct_union(s, t):
        v.add({"failure": "U/N is not the zero-direct union"})
    # the extension equivalences for the two-sided condition
    if bool(minimal_condition(u, "J")) != all(minimal_condition(p, "J") for p in (s, t, a)):
        v.add({"failure": "U equivalence"})
    if bool(minimal_condition(isub, "J")) != (bool(minimal_condition(s, "J"))
                                              and bool(minimal_condition(a, "L"))):
        v.add({"failure": "I equivalence"})


def _null_ideal(u: FiniteSemigroup, parts, v: _Tally, failure: str) -> None:
    """The null part of a finite gluing is an ideal with zero products."""
    null = set(parts.null_ids)
    classify_subset(u, null, "ideal")
    if any(u.table[x][y] != parts.zero_id for x in null for y in null):
        v.add({"failure": failure})


def _x_deciders(gs: GreenStructure, ids, gs_a: GreenStructure, v: _Tally, where: str,
                kinds=tuple((k, k) for k in KINDS)) -> None:
    """For each pair ``(kg, ka)`` of ``kinds``, the ``kg`` preorder of a
    gluing on its x-part (carrier element x sits at ``ids[x]``) is the
    ``ka`` preorder of the biact whose Green structure is ``gs_a``."""
    for kg, ka in kinds:
        le_g, le_a = gs.relation(kg).le, gs_a.relation(ka).le
        for x, y in itertools.product(range(gs_a.size), repeat=2):
            if le_g(ids[x], ids[y]) != le_a(x, y):
                v.add({"failure": f"{kg} decider{where}", "pair": (x, y)})


check_Con4_17 = _over("gluings", _con4_17)


def check_C4_19(env: Env) -> ClaimOutcome:
    """The ideal I of U(B, Bbar; A) has no J-minimal condition although U,
    N and I/N all do."""
    v = _Tally()
    inst = corollary_4_19_instance()
    cfg = env.config

    chain = inst.ideal_chain()
    v.chain(inst.ideal_order(), chain, "J", cfg.depth, {"failure": "ideal chain"})
    for i in range(cfg.depth):
        v.instances += 1
        s = inst.chain_step_witness(i)
        if inst.u.mul(s, chain(i)) != chain(i + 1):
            v.add({"failure": "chain step replay", "i": i})

    rng = env.rng("C4.19")
    b = inst.bicyclic
    for _ in range(cfg.samples):
        v.instances += 1
        w, vv = b.sample(rng), b.sample(rng)
        xu, xv = ("x", w), ("x", vv)
        if not (inst.u.le("J", xu, xv) and inst.u.le("J", xv, xu)):
            v.add({"failure": "x-part not J-total", "pair": (w, vv)})
            continue
        u1, u2 = inst.mutual_j_witness(w, vv)
        if inst.u.mul(inst.u.mul(u1, xu), u2) != xv:
            v.add({"failure": "J witness replay", "pair": (w, vv)})

    v.instances += 1
    poset = inst.u_j_poset(env.rng("C4.19:poset"), samples=50)
    if len(poset["parts"]) != 4:
        v.add({"failure": "J poset parts"})

    _null_part(inst.u, b, rng, v, "null part product")

    # I/N is the bicyclic monoid with a zero: exactly two J-classes
    over = inst.i_over_n()
    for _ in range(50):
        v.instances += 1
        x, y = b.sample(rng), b.sample(rng)
        if not (over.le("J", x, y) and over.le("J", y, x)):
            v.add({"failure": "I/N nonzero part not one class"})
        if over.le("J", x, "zero") or not over.le("J", "zero", x):
            v.add({"failure": "I/N zero class misplaced"})
    return v.outcome()


# ---------------------------------------------------------------------------
# section 5 claims


def check_S5_0(env: Env) -> ClaimOutcome:
    """Stability does not pass to quotients: the free semigroup on two
    letters is stable and maps onto the bicyclic monoid, which is not."""
    v = _Tally()
    cfg = env.config
    free = env.catalog()["free2"]
    b = Bicyclic()

    # free words of length <= 6: mutual factorship forces equality
    _j_trivial(free, itertools.product(_ab_words(), repeat=2), v, "free J-triviality")
    rng = env.rng("S5.0")
    sampled = ((free.sample(rng), free.sample(rng)) for _ in range(cfg.samples))
    _j_trivial(free, sampled, v, "free J-triviality (sampled)")

    # the projection is a homomorphism and is onto
    for _ in range(cfg.samples):
        v.instances += 1
        u, w = free.sample(rng), free.sample(rng)
        if free_to_bicyclic(u + w) != bicyclic_mul(free_to_bicyclic(u), free_to_bicyclic(w)):
            v.add({"failure": "projection morphism", "pair": (u, w)})
        x = b.sample(rng)
        if free_to_bicyclic(bicyclic_section(x)) != x:
            v.add({"failure": "projection section", "x": x})

    # the image is not left stable
    v.instances += 1
    if not instability_witnessed(b, "left"):
        v.add({"failure": "bicyclic instability witness"})
    return v.outcome()


# P5.1's two stability checks: the verdict bit each compares and the
# payload of its violation
_P5_1 = ((_bit(_SUBACT, "stable"), {}), (_bit(_SUBACT, "left_stable"), {"failure": "left form"}))


def _p5_1(host: FiniteBiact, mask: int, whole: int, part: int, v: _Tally) -> int:
    """A biact is stable iff a subact and its Rees quotient are (also in
    the left form), and no J-class of the host straddles a subact."""
    for bit, failure in _P5_1:
        if (whole ^ part) & bit:
            v.add({"subact": frozenset(_bits(mask)), **failure})
    for cls in green_structure(host).relation("J").classes:
        # a one-element class cannot straddle, and most classes have one
        if len(cls) > 1 and 0 < sum(mask >> y & 1 for y in cls) < len(cls):
            v.add({"subact": frozenset(_bits(mask)), "failure": "J-class straddles subact"})
    return 1


def _p5_3(x: Substructure, v: _Tally) -> None:
    if bool(left_stable(x.host)) and not left_stable(x.sub):
        v.add({"sub": x.members, "failure": "host to subsemigroup"})
    if bool(left_stable(x.sub)) != bool(left_stable(x.rel)):
        v.add({"sub": x.members, "failure": "subsemigroup vs relative"})


def _t5_4(x: Substructure, v: _Tally) -> None:
    green_index(x.host, x.members)  # the hypothesis: a finite index exists
    vals = {bool(stable(x.host)), bool(stable(x.sub)), bool(stable(x.rel))}
    if len(vals) != 1:
        v.add({"sub": x.members})


def _l5_5(x: Substructure, v: _Tally) -> None:
    s, members = x.host, x.members
    if bool(k_preserving(s, members, "L")):
        if bool(left_stable(s)) and not left_stable(x.sub):
            v.add({"sub": members, "failure": "left transfer"})
        if bool(k_preserving(s, members, "R")) and bool(stable(s)):
            if not stable(x.sub):
                v.add({"sub": members, "failure": "two-sided transfer"})


def _c5_6(x: Substructure, v: _Tally) -> None:
    s, members = x.host, x.members
    complement = frozenset(range(s.order)) - members
    ret = retract(s, members)
    if ret.value is True:
        # retracts are L- and R-preserving: contentful
        if not (k_preserving(s, members, "L") and k_preserving(s, members, "R")):
            v.add({"sub": members, "failure": "retract not LR-preserving"})
    hypo = (bool(regular_subsemigroup(s, members))
            or ret.value is True
            or (bool(complement) and is_role(s, complement, "ideal")))
    if hypo and bool(stable(s)) and not stable(x.sub):
        v.add({"sub": members, "failure": "stability transfer"})


def _t5_7(x: Substructure, v: _Tally) -> None:
    if bool(left_stable(x.host)) and not left_stable(x.sub):
        v.add({"bi-ideal": x.members})
    if bool(stable(x.host)) and not stable(x.sub):
        v.add({"bi-ideal": x.members, "failure": "two-sided"})


def _l5_8(x: Substructure, v: _Tally) -> int:
    """Rees quotients of semigroups and of their regular biacts agree, as
    preorders and hence as stability verdicts."""
    sq = x.rees
    bq = _collapse(x.host, x.members, x.pair)   # an ideal is closed by construction
    # both collapse to the same carrier: survivors in order, then 0
    made = _same_preorders(sq, bq, v)
    if bool(stable(sq)) != bool(stable(bq)):
        v.add({"ideal": x.members, "failure": "stability verdicts differ"})
    return made


def _con5_10(a: FiniteBiact, v: _Tally) -> int:
    """The gluing U(S, A) of a biact A over (S, S): associativity, the null
    ideal, the derived deciders for all three relations, and the stability
    equivalence.  A biact over two different semigroups makes no check."""
    if a.left is not a.right:
        return 0
    u, parts = build_usa(a.left, a)
    _null_ideal(u, parts, v, "null ideal has a nonzero product")
    _x_deciders(green_structure(u), parts.x_ids, green_structure(a), v, "")
    if bool(stable(u)) != (bool(stable(a)) and bool(stable(a.left))):
        v.add({"failure": "stability equivalence"})
    return 1


check_Con5_10 = _over(
    "gluings", _con5_10,
    notes="the deciders compare the wrapped carrier elements inside U "
          "against the biact's own preorders for every relation; the "
          "comparison against the acting semigroup instead is not even "
          "well-typed once the carrier differs from it, and the biact "
          "reading matches brute force on every instance")


def check_C5_12(env: Env) -> ClaimOutcome:
    """U(free2, pullback-bicyclic) is not stable although the null ideal
    and the quotient by it both are."""
    v = _Tally()
    inst = corollary_5_12_instance()
    cfg = env.config
    u = inst.u
    free = inst.free

    s, x = inst.witness
    sx = u.mul(s, x)
    v.instances += 1
    if sx != ("x", (0, 1)):
        v.add({"failure": "witness product"})
    if not (u.le("J", sx, x) and u.le("J", x, sx)):
        v.add({"failure": "witness J-relatedness"})
    if u.le("L", sx, x) and u.le("L", x, sx):
        v.add({"failure": "witness unexpectedly L-related"})
    # replay the J-relatedness through explicit word multiplications
    for src, dst in ((sx[1], x[1]), (x[1], sx[1])):
        v.instances += 1
        w1, w2 = inst.mutual_j_witness_words(src, dst)
        if u.mul(u.mul(("s", w1), ("x", src)), ("s", w2)) != ("x", dst):
            v.add({"failure": "witness word replay", "pair": (src, dst)})

    # free words of length <= 6 are exactly J-trivial; larger samples too
    _j_trivial(free, itertools.product(_ab_words(), repeat=2), v, "free J-triviality")
    rng = env.rng("C5.12")
    sampled = ((free.sample(rng), free.sample(rng)) for _ in range(500))
    _j_trivial(free, sampled, v, "free J-triviality (sampled)")

    # the ideal is null, hence trivially stable
    _null_part(u, inst.biact, rng, v, "ideal not null")

    # the quotient by the ideal is the free semigroup with a zero: stable
    over = inst.quotient_by_ideal()
    for _ in range(cfg.samples):
        v.instances += 1
        a, bb = free.sample(rng), free.sample(rng)
        sa = over.mul(a, bb)
        if over.le("J", sa, bb) and over.le("J", bb, sa):
            if not (over.le("L", sa, bb) and over.le("L", bb, sa)):
                v.add({"failure": "quotient stability", "pair": (a, bb)})
    return v.outcome()


# ---------------------------------------------------------------------------
# registry


REGISTRY: dict[str, Claim] = {c.id: c for c in [
    Claim("L3.3", "minimal conditions match stabilising descending chains",
          "finite-exhaustive", "must-hold", check_L3_3),
    Claim("P3.4", "a left minimal acting semigroup forces left minimal biacts",
          "finite-exhaustive", "must-hold", check_P3_4),
    Claim("P3.5", "the eight left-stability forms agree",
          "finite-sampled", "must-hold", _over("biacts", _p3_5)),
    Claim("P3.6", "stability is D=J plus the two trace conditions",
          "finite-sampled", "must-hold", _over("biacts", _p3_6)),
    Claim("L3.7", "left minimality implies l-periodicity implies left stability",
          "finite-sampled", "must-hold", check_L3_7),
    Claim("C3.8", "every finite biact is stable with all minimal conditions",
          "finite-sampled", "must-hold", _over("biacts", _c3_8)),
    Claim("C3.9", "an l-periodic acting semigroup forces left stable biacts",
          "finite-exhaustive", "must-hold", check_C3_9),
    Claim("L3.10", "under M_J, left minimality equals left stability",
          "finite-sampled", "must-hold", check_L3_10),
    Claim("P3.11", "M_L+M_R equals M_J+periodicity equals stability+M_J",
          "finite-sampled", "must-hold", check_P3_11),
    Claim("C3.12", "one-sided minimal acting semigroups force both conditions",
          "finite-exhaustive", "must-hold",
          _over("biacts_exhaustive", _c3_12, smoke=True)),
    Claim("C3.13", "the semigroup equivalences including group-boundedness",
          "finite-exhaustive", "must-hold", _over("semigroups", _c3_13)),
    Claim("R3.14(2)", "the bicyclic monoid is bisimple with no one-sided minimality",
          "symbolic-witness", "counterexample-expected", check_R3_14_2),
    Claim("R3.14(3)", "product biacts order componentwise by L and R",
          "finite-exhaustive", "must-hold", check_R3_14_3),
    Claim("P4.1", "minimal conditions pass to biact quotients",
          "finite-exhaustive", "must-hold",
          _over_hosts("biacts", _MINIMAL, _by_translations, _congruence_keys,
                      "_quotient_part", _p4_1, smoke=True)),
    Claim("L4.2", "semigroup quotients agree with regular-biact quotients",
          "finite-exhaustive", "must-hold", _over("congruences", _l4_2)),
    Claim("C4.3", "minimal conditions pass to semigroup quotients",
          "finite-exhaustive", "must-hold",
          _over_hosts("semigroups", _MINIMAL, _by_translations, _congruence_keys,
                      "_quotient_part", _p4_1, smoke=True)),
    Claim("P4.4", "a biact is minimal iff a subact and its quotient are",
          "finite-exhaustive", "must-hold",
          _over_hosts("biacts", _SUBACT, _by_digraph, _closed_masks, "_subact_parts",
                      _p4_4, smoke=True)),
    Claim("P4.5", "relative minimality splits into the subsemigroup and quotient",
          "finite-exhaustive", "must-hold",
          _over("subsemigroups",
                _split("minimal_condition", "rel", ("sub", "rel_rees"), "sub"), smoke=True)),
    Claim("T4.6", "with finitely many relative L-classes, M_L is three-way equivalent",
          "finite-exhaustive", "must-hold", check_T4_6),
    Claim("C4.7", "finite index subsemigroups share the left minimal condition",
          "finite-exhaustive", "must-hold",
          _over("subsemigroups", _c4_7, smoke=True,
                notes="the index censuses carry the content")),
    Claim("Ex4.8", "the integers over the naturals descend without bound",
          "symbolic-witness", "counterexample-expected", check_Ex4_8),
    Claim("L4.10", "K-preserving subsemigroups inherit the minimal condition",
          "finite-exhaustive", "must-hold", _over("subsemigroups", _l4_10, smoke=True)),
    Claim("C4.11", "regular and ideal-complement subsemigroups inherit minimality",
          "finite-exhaustive", "must-hold",
          _over("subsemigroups", _c4_11,
                notes="the preservation facts are contentful; the "
                      "minimal-condition transfers are smoke tests")),
    Claim("T4.13", "bi-ideals inherit the left minimal condition",
          "finite-exhaustive", "must-hold", _over("bi_ideals", _t4_13, smoke=True)),
    Claim("C4.14", "bi-ideals of stable M_J semigroups inherit M_J",
          "finite-exhaustive", "must-hold", _over("bi_ideals", _c4_14, smoke=True)),
    Claim("P4.15", "a semigroup is minimal iff its ideal biact and Rees quotient are",
          "finite-exhaustive", "must-hold",
          _over("ideals", _split("minimal_condition", "host", ("ideal_biact", "rees"), "ideal"),
                smoke=True)),
    Claim("T4.16", "left minimality passes between a semigroup, an ideal and the quotient",
          "finite-exhaustive", "must-hold",
          _over("ideals", _split("minimal_condition", "host", ("sub", "rees"), "ideal", ("L",)),
                smoke=True,
                notes="the reverse direction genuinely fails for the "
                      "two-sided condition, which is claim C4.19")),
    Claim("Con4.17/P4.18", "the two-semigroup gluing and its derived deciders",
          "derived-decider", "must-hold", check_Con4_17),
    Claim("C4.19", "an ideal without M_J inside a gluing whose other parts have it",
          "symbolic-witness", "counterexample-expected", check_C4_19),
    Claim("S5.0", "stability does not pass to quotients: free onto bicyclic",
          "symbolic-witness", "counterexample-expected", check_S5_0),
    Claim("P5.1", "a biact is stable iff a subact and its quotient are",
          "finite-exhaustive", "must-hold",
          _over_hosts("biacts", _SUBACT, _by_digraph, _closed_masks, "_subact_parts",
                      _p5_1, smoke=True, notes="the straddle check is contentful")),
    Claim("P5.2", "relative stability splits into the subsemigroup and quotient",
          "finite-exhaustive", "must-hold",
          _over("subsemigroups", _split("stable", "rel", ("sub", "rel_rees"), "sub", (None,)),
                smoke=True)),
    Claim("P5.3", "with finitely many relative L-classes, stability transfers down",
          "finite-exhaustive", "must-hold", _over("subsemigroups", _p5_3, smoke=True)),
    Claim("T5.4", "finite index subsemigroups share stability",
          "finite-exhaustive", "must-hold", _over("subsemigroups", _t5_4, smoke=True)),
    Claim("L5.5", "preserving subsemigroups of stable semigroups are stable",
          "finite-exhaustive", "must-hold", _over("subsemigroups", _l5_5, smoke=True)),
    Claim("C5.6", "retracts, regular subsemigroups and ideal complements inherit stability",
          "finite-exhaustive", "must-hold",
          _over("subsemigroups", _c5_6,
                notes="the retract/regular preservation facts are "
                      "contentful; the stability transfer is smoke")),
    Claim("T5.7", "bi-ideals inherit stability",
          "finite-exhaustive", "must-hold", _over("bi_ideals", _t5_7, smoke=True)),
    Claim("L5.8", "semigroup and biact Rees quotients share stability",
          "finite-exhaustive", "must-hold", _over("ideals", _l5_8)),
    Claim("P5.9", "a semigroup is stable iff its ideal biact and Rees quotient are",
          "finite-exhaustive", "must-hold",
          _over("ideals", _split("stable", "host", ("ideal_biact", "rees"), "ideal", (None,)),
                smoke=True)),
    Claim("Con5.10/P5.11", "the one-semigroup gluing and its derived deciders",
          "derived-decider", "must-hold", check_Con5_10),
    Claim("C5.12", "an unstable semigroup whose ideal and quotient are stable",
          "symbolic-witness", "counterexample-expected", check_C5_12),
]}


@dataclass
class ClaimResult:
    claim: Claim
    outcome: ClaimOutcome
    seconds: float

    @property
    def status(self) -> str:
        if self.claim.expected == "counterexample-expected":
            return "witness-verified" if self.outcome.ok else "witness-failed"
        return "passed" if self.outcome.ok else "failed"

    @property
    def passed(self) -> bool:
        return self.outcome.ok

    def to_json(self) -> dict:
        return {
            "id": self.claim.id,
            "summary": self.claim.summary,
            "scope": self.claim.scope,
            "expected": self.claim.expected,
            "status": self.status,
            "instances": self.outcome.instances,
            "vacuous": self.outcome.vacuous,
            "witnesses": self.outcome.witnesses,
            "notes": self.outcome.notes,
        }


@dataclass
class VerificationReport:
    config: SuiteConfig
    results: list[ClaimResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self, include_timings: bool = False) -> dict:
        out = {
            "toolkit_version": _version,
            "config": self.config.to_json(),
            "all_passed": self.all_passed,
            "claims": [r.to_json() for r in self.results],
        }
        if include_timings:
            out["timings"] = {r.claim.id: round(r.seconds, 3) for r in self.results}
        return out

    def to_json_text(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_json(include_timings), indent=2, sort_keys=True) + "\n"

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            flag = "PASS" if r.passed else "FAIL"
            vac = " (vacuous finite pass)" if r.outcome.vacuous and r.passed else ""
            lines.append(f"{flag} {r.claim.id}: {r.claim.summary} "
                         f"[{r.outcome.instances} checks, {r.seconds:.2f}s]{vac}")
        lines.append(f"{'ALL CLAIMS HOLD' if self.all_passed else 'CLAIM FAILURES PRESENT'}"
                     f" ({len(self.results)} claims)")
        return lines


def run_suite(selection, config: Optional[SuiteConfig] = None) -> VerificationReport:
    """Execute a set of claim ids (or "all") and build the report."""
    config = config or SuiteConfig()
    if selection in ("all", None):
        ids = sorted(REGISTRY)
    else:
        ids = sorted(set(selection))
        unknown = [i for i in ids if i not in REGISTRY]
        if unknown:
            raise UnknownClaim(f"unknown claim ids: {', '.join(unknown)}")
    env = Env(config)
    results = []
    for cid in ids:
        claim = REGISTRY[cid]
        start = time.perf_counter()
        outcome = claim.checker(env)
        results.append(ClaimResult(claim, outcome, time.perf_counter() - start))
    return VerificationReport(config=config, results=results)


# ---------------------------------------------------------------------------
# the open-problem probe


def probe_open_problem(config: Optional[SuiteConfig] = None) -> dict:
    """Search for a finite-index subsemigroup breaking the two-sided
    minimal condition transfer.

    Finite instances can never falsify this (every finite semigroup has
    the minimal conditions), so the finite scope is recorded as vacuous
    and the probe only exercises the symbolic search surface.  The result
    is always a bounded "no counterexample found", never a proof claim.
    """
    config = config or SuiteConfig()
    report: dict = {"finite": {}, "symbolic": [], "conclusion": ""}

    checked = 0
    for x in Env(config).subsemigroups():
        if x.host.order > 3:
            continue
        checked += 1
        if bool(minimal_condition(x.host, "J")) and not minimal_condition(x.sub, "J"):
            report["finite"]["counterexample"] = True
    report["finite"]["instances"] = checked
    report["finite"]["vacuous"] = True
    report["finite"]["note"] = ("finite semigroups always satisfy the two-sided "
                                "minimal condition, so no finite counterexample exists")

    # symbolic candidates: coordinate-shifted subsemigroups of the bicyclic
    # monoid; all turn out to have unboundedly many relative H-classes in a
    # bounded window, so the finite-index hypothesis already fails
    b = Bicyclic()
    window = [(m, n) for m in range(4) for n in range(4)]
    for c in (1, 2):
        members_in_window = [(m, n) for (m, n) in window if m >= c and n >= c]
        outside = [x for x in window if x not in members_in_window]

        def rel_h_key(x):
            # relative one-sided orbits under translations from the shifted
            # subsemigroup, restricted to the window (bounded decision)
            left = frozenset(y for y in window
                             if _in_shifted_orbit(x, y, c, side="L")
                             and _in_shifted_orbit(y, x, c, side="L"))
            right = frozenset(y for y in window
                              if _in_shifted_orbit(x, y, c, side="R")
                              and _in_shifted_orbit(y, x, c, side="R"))
            return (left, right)

        distinct = {rel_h_key(x) for x in outside}
        report["symbolic"].append({
            "candidate": f"bicyclic pairs with both coordinates >= {c}",
            "window": len(window),
            "outside_elements": len(outside),
            "distinct_relative_h_keys": len(distinct),
            "finite_index_plausible": len(distinct) < 4,
            "note": "relative H-classes outside already proliferate in a "
                    "4x4 window, so the index is not finite at this scale",
        })
    report["conclusion"] = ("no counterexample found at this scale; the probe's "
                            "candidates fail the finite-index hypothesis and the "
                            "question stays open")
    return report


def _in_shifted_orbit(y, x, c: int, side: str) -> bool:
    """Bounded decision of y in T^1 x (or x T^1) for the shifted
    subsemigroup T of bicyclic pairs with both coordinates >= c."""
    if y == x:
        return True
    bound = max(x[0], x[1], y[0], y[1]) + c + 2
    for p in range(c, bound):
        for q in range(c, bound):
            t = (p, q)
            if side == "L" and bicyclic_mul(t, x) == y:
                return True
            if side == "R" and bicyclic_mul(x, t) == y:
                return True
    return False
