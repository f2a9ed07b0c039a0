"""Homotopy of continuous maps: one-step relation, classes, rigidity, contractibility.

Two maps are one-step homotopic when they are pointwise equal or adjacent;
general homotopy is reachability under that relation through continuous
maps, so a homotopy class is a breadth-first closure and every membership
question comes with an explicit chain of one-step moves as a witness.

One engine (``_Homotopy``) builds every class an operation asks for on a
pair (X, Y), so those classes share one index of Hom(X, Y) and one budget.

A class is every map into one component of Y in two cases, and one
restricted enumeration lists it then (``_Homotopy._component_maps``).  If
every two points of Y are adjacent, every function is continuous and any
two are one step apart.  If a greedy chain of one-step moves carries id_X
to a constant, X is contractible, so every f: X -> Y is homotopic to a
constant, and its class is every map into the component of Y that holds
f's image.  Whether a greedy chain contracts a component is a fact of the
image, computed once and charged to no budget
(``DigitalImage._greedy_contractible``); it also answers
``is_nullhomotopic`` for a map into such a component with no search.

Otherwise a breadth-first closure (``_Homotopy.closure``) lists the class,
and it answers every homotopy question and every nullhomotopy question the
greedy chain leaves open, which need shortest chains and early stops.  It
finds a member's one-step neighbors either by a backtracking search
restricted to the closed neighborhoods of the member's values, or, once
Hom(X, Y) has been enumerated, by intersecting bitsets over that indexed
Hom space.  One resumable enumeration of Hom(X, Y) per engine races the
per-member searches: after each expansion it runs until its nodes match
all the others on the meter.  The first source suits a small class in a
huge Hom space (a rigid map needs one search), the second a class that
fills much of its Hom space.  Both give the same members, parents and
chains.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Collection
from functools import cached_property

from ._record import Record
from .enumeration import (
    EnumerationBudget,
    Meter,
    _Codes,
    _Search,
    assignments_in_context,
    code_layout,
    value_bitsets,
)
from .errors import InvalidInputError
from .images import DigitalImage
from .maps import (
    DigitalMap,
    _enumerated,
    _fixed_mask,
    identity,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Literal

    Ternary = Literal["yes", "no", "unknown"]


def one_step_homotopic(f: DigitalMap, g: DigitalMap) -> bool:
    """True iff f(x) and g(x) are equal or adjacent at every point."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise InvalidInputError("maps must share domain and codomain")
    cod = f.codomain
    return all(
        a == b or cod.adjacent(a, b) for a, b in zip(f.assignment, g.assignment)
    )


class HomotopyWitness(Record):
    """A chain of maps, consecutive entries one-step homotopic."""

    _fields = ("chain",)
    chain: tuple[DigitalMap, ...]

    def __init__(self, chain):
        chain = tuple(chain)
        if not chain:
            raise InvalidInputError("a witness chain has at least one map")
        for a, b in zip(chain, chain[1:]):
            if not one_step_homotopic(a, b):
                raise InvalidInputError("witness chain entries must be one-step homotopic")
        object.__setattr__(self, "chain", chain)

    def __len__(self) -> int:
        return len(self.chain)


class HomotopyClass(Record):
    """All maps reachable from the representative; complete=False iff truncated.

    A class stores ``assignments``, its members' assignments in ascending
    order, the one form every search over classes reads.  ``members`` wraps
    them as maps on first read, ``in`` bisects them, and equality and the
    hash compare them, so none of the three builds a map or a copy.  A
    class keeps its members as packed map codes once an equalizer search
    over maps has read them (``_codes``, one C-level conversion a member,
    ``enumeration.code_layout``), and a class of self-maps keeps its
    members' distinct fixed-point sets once a common-fixed-point search
    has read them, so repeated searches encode or collapse the class
    once.  The constructor takes the members as maps, which must
    share the representative's domain and codomain; the homotopy engine
    builds its classes from the assignments it found (``_of_assignments``).
    Either way every stored assignment is continuous.
    """

    _fields = ("representative", "assignments", "complete")
    representative: DigitalMap
    assignments: tuple[tuple[int, ...], ...]
    complete: bool

    def __init__(
        self, representative: DigitalMap, members: tuple[DigitalMap, ...], complete: bool
    ):
        members = tuple(members)
        if any(
            m.domain != representative.domain or m.codomain != representative.codomain
            for m in members
        ):
            raise InvalidInputError("members must share the representative's domain and codomain")
        self._fill(representative, tuple(sorted(m.assignment for m in members)), complete)

    @classmethod
    def _of_assignments(
        cls, representative: DigitalMap, assignments: tuple[tuple[int, ...], ...], complete: bool
    ) -> HomotopyClass:
        """A class of continuous assignments, given in ascending order."""
        self = object.__new__(cls)
        self._fill(representative, assignments, complete)
        return self

    def _fill(self, representative, assignments, complete) -> None:
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "assignments", assignments)
        object.__setattr__(self, "complete", complete)

    @cached_property
    def members(self) -> tuple[DigitalMap, ...]:
        """The members as maps, in ascending assignment order."""
        rep = self.representative
        return tuple(_enumerated(rep.domain, rep.codomain, a) for a in self.assignments)

    @cached_property
    def _codes(self) -> _Codes:
        """The members as map codes (``enumeration.code_layout``), in member order."""
        rep = self.representative
        return code_layout(rep.domain.n_points, rep.codomain.n_points).encode(self.assignments)

    @cached_property
    def _fixed_masks(self) -> tuple[int, ...]:
        """The distinct fixed-point sets of the members (self-maps), in member order."""
        return tuple(dict.fromkeys(map(_fixed_mask, self.assignments)))

    def __contains__(self, f: DigitalMap) -> bool:
        rep = self.representative
        same_pair = f.domain == rep.domain and f.codomain == rep.codomain
        i = bisect_left(self.assignments, f.assignment)
        return same_pair and self.assignments[i : i + 1] == (f.assignment,)


class _HomIndex:
    """Hom(X, Y) enumerated once, with bitsets that give one-step neighbors.

    Members are numbered in enumeration order.  ``at[p][v]`` has bit i set
    iff member i sends p to v, ``cover[p][u]`` iff it sends p into N[u], so
    the one-step neighbors of an assignment a are AND_p cover[p][a[p]].
    ``seen`` marks the members the running closure has reached; the index
    serves every closure on its pair, and each ``mark``s its own first.
    """

    def __init__(self, domain: DigitalImage, codomain: DigitalImage, pool):
        self.pool = pool
        self.at = value_bitsets(pool, domain.n_points, codomain.n_points)
        # disjoint in v, so sums are unions; N[u] is u and its neighbors
        nbrs = codomain._neighbors
        self.cover = [
            [at_p[u] + sum(at_p[w] for w in nbrs[u]) for u in range(len(at_p))] for at_p in self.at
        ]
        self.seen = 0

    def mark(self, reached) -> None:
        """Set ``seen`` to the members whose assignments are in reached."""
        self.seen = 0
        for a in reached:
            bit = -1
            for at_p, v in zip(self.at, a):
                bit &= at_p[v]
            self.seen |= bit

    def new_neighbors(self, a: tuple[int, ...]) -> list[tuple[int, ...]]:
        """One-step neighbors of a not yet seen, in enumeration order; marks them seen."""
        bits = ~self.seen
        for cover_p, v in zip(self.cover, a):
            bits &= cover_p[v]
        self.seen |= bits
        found = []
        while bits:
            low = bits & -bits
            found.append(self.pool[low.bit_length() - 1])
            bits ^= low
        return found


class _Homotopy:
    """The homotopy engine of one operation on one pair (X, Y).

    One meter pays for every closure and enumeration, and for the one
    enumeration of Hom(X, Y) that the closures resume in turn
    (``_race_index``); once it is exhausted, its maps are the ``index``
    every later closure starts on.  The operations of ``homotopy_spectra``
    charge their equalizer searches to it too.  A class is listed one of
    two ways: by one enumeration of a codomain component
    (``_component_maps``) when Y is ``complete`` or X ``contractible``, or
    by the closure.  Neither test charges a node.  Every search reads the
    structures X and Y keep for it, so the engine builds none of its own.
    """

    def __init__(self, domain: DigitalImage, codomain: DigitalImage, budget):
        self.domain, self.codomain = domain, codomain
        # every two points of Y are adjacent
        self.complete = 2 * len(codomain.edges) == codomain.n_points * (codomain.n_points - 1)
        self.meter = Meter(budget)
        self.max_results = budget.max_results if budget else None
        self.index: _HomIndex | None = None
        self.classes: list[HomotopyClass] = []
        # the one enumeration of Hom(X, Y), its paused generator and the nodes it charged
        self._hom: _Search | None = None
        self._batches = None
        self._hom_nodes = 0

    @property
    def contractible(self) -> bool:
        """True iff X is connected and a greedy chain contracts it; charges no node."""
        return self.domain._greedy_contractible == (True,)

    def class_of(self, f: DigitalMap) -> HomotopyClass:
        """f's class: one already built that holds f, else a new one (see homotopy_class)."""
        for cls in self.classes:
            if f in cls:
                return cls
        if self.complete or self.contractible:
            found, complete = self._component_maps(f)
        else:
            found, complete, _ = self.closure(f)
        self.classes.append(HomotopyClass._of_assignments(f, tuple(sorted(found)), complete))
        return self.classes[-1]

    def _race_index(self) -> bool:
        """Resume Hom(X, Y)'s enumeration until its nodes reach all others on the meter.

        Builds ``index`` when the enumeration is exhausted; False iff the
        meter tripped it.
        """
        meter = self.meter
        if self._hom is None:
            self._hom = _Search(self.domain, self.codomain, None, meter, "maps")
            self._batches = self._hom.batches()
        while self._hom_nodes < meter.nodes - self._hom_nodes:
            start = meter.nodes
            ended = next(self._batches, True)  # a batch yields None
            self._hom_nodes += meter.nodes - start
            if ended:
                if not self._hom.exhausted:
                    return False
                self.index = _HomIndex(self.domain, self.codomain, self._hom.results)
                return True
        return True

    def closure(
        self, f: DigitalMap, stop_at: Collection[tuple[int, ...]] = frozenset()
    ) -> tuple[dict[tuple[int, ...], tuple[int, ...] | None], bool, bool]:
        """Breadth-first closure of {f} under one-step neighbors.

        Returns (parents keyed by assignment, complete, found_stop).  parents[a]
        is the predecessor assignment on a shortest chain from f, None for f.
        ``stop_at`` is a set of assignments; the closure stops at the first one
        it reaches.  Works on raw assignments, and a class keeps them as they
        are (``HomotopyClass``); only a witness chain wraps its maps.  Into a
        complete codomain a stop is one step from f, and that is the answer;
        ``class_of`` never asks the closure for such a class.

        A member's neighbors come from one of two sources, raced on the shared
        meter.  The per-member search enumerates the maps inside the closed
        neighborhoods of its values, a fresh backtracking run per member.  The
        index (``_HomIndex``) reads them off Hom(X, Y) as bitset
        intersections.  A closure starts on the index if an earlier closure
        built it, and otherwise with the per-member search.  After each
        per-member expansion that leaves the queue non-empty, it resumes the
        engine's one enumeration of Hom(X, Y), batch by batch, until that
        enumeration's nodes reach all the other nodes on the meter
        (``_race_index``); once it is exhausted, the closure finishes over the
        index from the same parents and queue.  So a rigid map finishes before
        any resumption, a small class in a huge Hom space pays at most about
        twice the per-member nodes, and a class that fills its Hom space costs
        one enumeration and as many per-member nodes.  Both sources yield new
        members in enumeration order, so the parents, the shortest chains and
        a ``max_results`` cut are the same whichever answers.  The cap reports
        truncation only once a member past it exists.  A search trips a spent
        meter at its first node; an index expansion charges none, so only it
        checks the deadline first.
        """
        meter, max_results = self.meter, self.max_results
        parents: dict[tuple[int, ...], tuple[int, ...] | None] = {f.assignment: None}
        if f.assignment in stop_at:
            return parents, True, True
        if stop_at and self.complete:
            # any two functions into a complete codomain are one step apart
            parents[min(stop_at)] = f.assignment
            return parents, True, True
        domain, codomain = self.domain, self.codomain
        closed = codomain._closed
        queue = deque([f.assignment])
        index: _HomIndex | None = None
        while queue:
            if index is None and self.index is not None:
                index = self.index
                index.mark(parents)
            current = queue.popleft()
            if index is not None:
                if meter.over():
                    return parents, False, False
                found = index.new_neighbors(current)
            else:
                allowed = tuple(closed[v] for v in current)
                found, exhausted, _ = assignments_in_context(domain, codomain, meter, allowed)
                if not exhausted:
                    return parents, False, False
            for a in found:
                if a in parents:
                    continue
                if len(parents) == max_results:
                    return parents, False, False
                parents[a] = current
                if a in stop_at:
                    return parents, False, True
                queue.append(a)
            if index is None and queue and not self._race_index():
                return parents, False, False
        return parents, True, False

    def _component_maps(self, f: DigitalMap) -> tuple[list[tuple[int, ...]], bool]:
        """Hom(X, K) for the component K of Y holding f's image: (assignments, complete).

        This is f's class when X is contractible.  A chain from id_X to the
        constant at x0 composes with f to a chain from f to the constant at
        f(x0); constants into the connected K are homotopic, and a one-step move
        never leaves K.  It is also f's class when Y is complete: then K is Y,
        and any two functions X -> Y are continuous and one step apart.  A
        truncated list still holds f.
        """
        labels = self.codomain._bfs[1]
        component = sum(1 << v for v, c in enumerate(labels) if c == labels[f.assignment[0]])
        allowed = (component,) * self.domain.n_points
        found, complete, _ = assignments_in_context(
            self.domain, self.codomain, self.meter, allowed, self.max_results
        )
        if not complete and f.assignment not in found:
            if len(found) == self.max_results:
                found.pop()
            found.append(f.assignment)
        return found, complete


def homotopy_class(f: DigitalMap, budget: EnumerationBudget | None = None) -> HomotopyClass:
    """Every map homotopic to f (up to budget), in canonical assignment order.

    If every two codomain points are adjacent, or a greedy chain contracts
    the domain, the class is every map into the component of the codomain
    that holds f's image, listed by one restricted enumeration; otherwise
    it is the breadth-first closure.  The domain decides the chain once,
    and the budget pays only for the enumeration or the closure.
    """
    return _Homotopy(f.domain, f.codomain, budget).class_of(f)


class HomotopyAnswer(Record):
    _fields = ("verdict", "witness")
    verdict: Ternary
    witness: HomotopyWitness | None

    def __init__(self, verdict: Ternary, witness: HomotopyWitness | None = None):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)


def are_homotopic(
    f: DigitalMap, g: DigitalMap, budget: EnumerationBudget | None = None
) -> HomotopyAnswer:
    """Decide f ~ g; yes carries a shortest one-step chain from f to g."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise InvalidInputError("maps must share domain and codomain")
    engine = _Homotopy(f.domain, f.codomain, budget)
    parents, complete, found = engine.closure(f, stop_at={g.assignment})
    if found:
        chain_assignments = [g.assignment]
        while parents[chain_assignments[-1]] is not None:
            chain_assignments.append(parents[chain_assignments[-1]])
        chain = tuple(
            _enumerated(f.domain, f.codomain, a) for a in reversed(chain_assignments)
        )
        return HomotopyAnswer("yes", HomotopyWitness(chain))
    if complete:
        return HomotopyAnswer("no")
    return HomotopyAnswer("unknown")


def is_rigid_map(f: DigitalMap) -> bool:
    """Exact: f is homotopic only to itself iff its one-step neighborhood is {f}."""
    return _rigid_within(f, Meter())


def _rigid_within(f: DigitalMap, meter: Meter) -> bool | None:
    """is_rigid_map paid from meter; None when the meter trips before the answer.

    The neighborhood search stops at a second neighbor.  That stop and a
    tripped meter both leave the search unexhausted, but only a trip is
    recorded on the meter (``Meter.stop``): the cap is tested after the
    node's own check.
    """
    closed = f.codomain._closed
    allowed = tuple(closed[v] for v in f.assignment)
    _, exhausted, _ = assignments_in_context(f.domain, f.codomain, meter, allowed, max_results=1)
    if exhausted:
        return True
    return None if meter.stop else False


def is_rigid_image(image: DigitalImage) -> bool:
    return is_rigid_map(identity(image))


def is_nullhomotopic(f: DigitalMap, budget: EnumerationBudget | None = None) -> Ternary:
    """Is f homotopic to some constant map?

    Yes with no search when f's values lie in one component of the codomain
    that a greedy chain contracts: that chain composed with f ends at a
    constant.  Otherwise the closure decides, under the budget.
    """
    labels = f.codomain._bfs[1]
    held = {labels[v] for v in f.assignment}
    if len(held) == 1 and f.codomain._greedy_contractible[held.pop()]:
        return "yes"
    engine = _Homotopy(f.domain, f.codomain, budget)
    n = f.domain.n_points
    constants = {(y,) * n for y in range(f.codomain.n_points)}
    _, complete, found = engine.closure(f, stop_at=constants)
    if found:
        return "yes"
    return "no" if complete else "unknown"


def is_contractible(image: DigitalImage, budget: EnumerationBudget | None = None) -> Ternary:
    """Can the identity be deformed to a constant?"""
    return is_nullhomotopic(identity(image), budget)
