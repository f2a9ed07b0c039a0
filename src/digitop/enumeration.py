"""Exhaustive, budgeted enumeration of continuous maps.

The core is a backtracking search over domain points in per-component BFS
order: each point after the first in its component is adjacent to some
earlier point, so every partial assignment is constrained immediately and
dead branches die at the first violated edge.  A search reads the domain's
order and earlier neighbors and the codomain's closed neighborhoods, which
each image builds once, on first use, and keeps (``DigitalImage._bfs``,
``_earlier`` and ``_closed``).

Candidate sets are Python ``int`` bitmasks over the codomain's points: a
point's candidates are its ``allowed`` mask ANDed with the closed
neighborhood masks of the values at its earlier neighbors, and values are
read off lowest bit first, so maps come out in ascending order.  At the
last point a search first keeps the values of the batch that its limits
allow, charging them in one addition whenever no limit can trip inside the
batch, and then one leaf records them.  A search writes one list,
``results``: its maps, or for self-maps only their distinct fixed-point
sets, at most two per batch; or it only counts.

The search is one iterative depth-first loop in a generator that pauses
after each last-position batch.  Collecting callers run it to the end; a
caller that reads the results as they come (the spectra's equalizer
closure, the homotopy engine's race to index Hom(X, Y)) resumes it only
while it needs more, so a search it stops charges no further node.  Either
way the results, their order and the node counts are the same.
"""

from __future__ import annotations

import time

from ._record import Record
from .errors import InvalidInputError
from .images import DigitalImage, _require_at_least
from .maps import DigitalMap, _enumerated


class EnumerationBudget(Record):
    """Optional limits on a search; None means unlimited.

    ``max_nodes`` counts candidate values tried; ``time_budget`` is in
    seconds and checked every few hundred nodes.  The counts must be
    integers and the time an int or a float, never a bool.  A limit must
    be > 0, so a NaN time is rejected: a NaN deadline would never trip.
    """

    _fields = ("max_results", "max_nodes", "time_budget")
    max_results: int | None
    max_nodes: int | None
    time_budget: float | None

    def __init__(
        self,
        max_results: int | None = None,
        max_nodes: int | None = None,
        time_budget: float | None = None,
    ):
        for label, v in (("max_results", max_results), ("max_nodes", max_nodes)):
            if v is not None:
                _require_at_least(v, 1, label)
        if time_budget is not None and (
            isinstance(time_budget, bool)
            or not isinstance(time_budget, (int, float))
            or not time_budget > 0
        ):
            raise InvalidInputError(f"time_budget must be a positive number, got {time_budget!r}")
        object.__setattr__(self, "max_results", max_results)
        object.__setattr__(self, "max_nodes", max_nodes)
        object.__setattr__(self, "time_budget", time_budget)


UNLIMITED = EnumerationBudget()
_NEVER = 1 << 62  # a node count no search reaches


class EnumerationOutcome(Record):
    """Results plus an honesty flag: exhausted=False iff some budget tripped."""

    _fields = ("maps", "exhausted", "nodes_used")
    maps: tuple[DigitalMap, ...]
    exhausted: bool
    nodes_used: int

    def __init__(self, maps: tuple[DigitalMap, ...], exhausted: bool, nodes_used: int = 0):
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "exhausted", exhausted)
        object.__setattr__(self, "nodes_used", nodes_used)


def value_bitsets(pool, n_points: int, n_values: int) -> list[list[int]]:
    """``at[p][v]``: the bitset of the members of pool (assignments) that send p to v.

    Members are numbered in pool order, bit i for the i-th; the bitsets of
    one point are disjoint, and together they hold every member.
    """
    size = (len(pool) + 7) // 8
    rows = [[bytearray(size) for _ in range(n_values)] for _ in range(n_points)]
    for i, a in enumerate(pool):
        byte, bit = i >> 3, 1 << (i & 7)
        for row, v in zip(rows, a):
            row[v][byte] |= bit
    return [[int.from_bytes(b, "little") for b in row] for row in rows]


class Meter:
    """The node count and limits of one operation's budget, shared by every search it runs.

    An operation builds one meter and hands it to each search it runs (map
    enumerations, class closures, the equalizer closure), so a node or time
    budget bounds the operation as a whole.  A search charges each node
    with ``meter.nodes += 1`` and asks ``meter.nodes >= meter.check_at and
    meter.over()``: ``check_at`` is the next node at which a limit can
    trip, the node past ``max_nodes`` or the next time check (every 256
    nodes), so the common node costs one compare.  No search asks first
    whether a node still fits: its first node trips a spent meter.  Only
    work that charges no node (an expansion over the homotopy engine's
    index) asks ``over()`` first; there it can trip only on the deadline,
    since a search that passes ``max_nodes`` ends its operation.

    The meter is the one record of whether a budget stopped its operation:
    the first ``over()`` that finds a limit passed sets ``stop`` to
    ``"node budget"`` or ``"time budget"``, and from then on ``over()`` is
    True and ``stop`` stays as it is.  An operation reads it once, when
    it is done: its answer is exact iff ``stop`` is None and nothing else
    (a capped class) was cut.
    """

    __slots__ = ("nodes", "max_nodes", "deadline", "check_at", "stop")

    def __init__(self, budget: EnumerationBudget | None = None):
        budget = budget or UNLIMITED
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = (
            time.monotonic() + budget.time_budget if budget.time_budget else None
        )
        self.check_at = self._next_check()
        self.stop: str | None = None

    def _next_check(self) -> int:
        at = _NEVER
        if self.deadline is not None:
            at = (self.nodes // 256 + 1) * 256
        if self.max_nodes is not None:
            at = min(at, self.max_nodes + 1)
        return at

    def over(self) -> bool:
        """True iff a limit stopped the operation, at this node or an earlier one."""
        if self.stop is None:
            if self.max_nodes is not None and self.nodes > self.max_nodes:
                self.stop = "node budget"
            elif self.deadline is not None and time.monotonic() > self.deadline:
                self.stop = "time budget"
            else:
                self.check_at = self._next_check()
        return self.stop is not None


class _Search:
    """One backtracking run over maps domain -> codomain.

    ``allowed[x]``, if given, is the bitmask of candidate values at point
    x; otherwise every codomain point is a candidate.  Its nodes are charged
    to ``meter``, the meter of the operation it runs for, and
    ``max_results``, if set, caps the maps it emits.

    A node's candidates are ``allowed[v] & closed[assign[u]] & ...`` over
    the earlier neighbors u of v (the domain's ``_earlier``), with
    ``closed`` the codomain's closed-neighborhood masks, read off in
    ascending order; ``pending``
    holds the untried candidates of each position, so the depth-first
    search needs no recursion.

    ``output`` says what the one list ``results`` holds: ``"maps"``, the
    maps as assignment tuples; ``"fixed"`` (self-maps only), each distinct
    fixed-point set as a bitmask over the points, in the order of its
    first map; or ``"count"``, nothing, with the maps only counted in
    ``count``.  The last position first keeps the values of its batch
    that the meter and the cap allow, then one leaf records them with no
    call per map.  When the batch ends before ``meter.check_at`` and there
    is no result cap, its nodes are charged in one addition; otherwise one
    per value up to the stop, so the node counts and stops are the same
    either way.  A batch shares the fixed points of its prefix and differs
    only in whether the last point v is fixed, so it adds at most two
    sets with no loop over its maps: the set of its first map (its lowest
    value), then, when it holds both v and another value, that set with
    v's bit flipped.
    """

    def __init__(
        self,
        domain: DigitalImage,
        codomain: DigitalImage,
        allowed: tuple[int, ...] | None,
        meter: Meter,
        output: str,
        max_results: int | None = None,
    ):
        self.order = order = domain._bfs[0]
        self.earlier = domain._earlier
        full = (1 << codomain.n_points) - 1
        self.allowed = [full if allowed is None else allowed[v] for v in order]  # by position
        self.closed = codomain._closed
        self.n = domain.n_points
        self.meter = meter
        self.max_results = max_results
        self.output = output
        self.assign = [0] * self.n
        self.results: list = []
        self._seen: set[int] = set()  # the fixed-point sets in results
        self.count = 0
        self.exhausted = True

    def run(self):
        """Search to the end (or the first stop); the node count is in ``nodes``."""
        start = self.meter.nodes
        for _ in self.batches():
            pass
        self.nodes = self.meter.nodes - start
        return self

    def batches(self):
        """The search as a generator that pauses after each last-position batch.

        Between two resumptions the new maps or fixed-point sets are at the
        end of ``results``; a search that is never resumed again charges no
        further node.  The generator ends when the search is exhausted or
        stopped (``exhausted`` is False).
        """
        n = self.n
        order, earlier, allowed, closed = self.order, self.earlier, self.allowed, self.closed
        assign, meter, max_results = self.assign, self.meter, self.max_results
        results, seen, output = self.results, self._seen, self.output
        last = n - 1
        v = order[last]
        bit = 1 << v
        pending = [0] * n  # the untried candidates at each position
        k = 0
        cands = allowed[0]  # the first point has no earlier neighbor
        while True:
            if k < last:
                if cands:
                    low = cands & -cands
                    pending[k] = cands ^ low
                    meter.nodes += 1
                    if meter.nodes >= meter.check_at and meter.over():
                        self.exhausted = False
                        return
                    assign[order[k]] = low.bit_length() - 1
                    k += 1
                    cands = allowed[k]
                    for u in earlier[k]:
                        cands &= closed[assign[u]]
                    continue
            elif cands:
                # the last position: each value completes a map; keep the
                # values charged before any stop, then record them
                stopped = False
                batch = cands.bit_count()
                if max_results is None and meter.nodes + batch < meter.check_at:
                    meter.nodes += batch
                    self.count += batch
                else:
                    rest, cands = cands, 0
                    while rest:
                        meter.nodes += 1
                        # at the cap a result past it exists, so the cap truncated the run
                        if (meter.nodes >= meter.check_at and meter.over()) or (
                            self.count == max_results
                        ):
                            stopped = True
                            break
                        low = rest & -rest
                        cands |= low
                        rest ^= low
                        self.count += 1
                if output == "maps":
                    while cands:
                        low = cands & -cands
                        cands ^= low
                        assign[v] = low.bit_length() - 1
                        results.append(tuple(assign))
                elif output == "fixed" and cands:
                    # the fixed-point set of the batch's first map
                    assign[v] = (cands & -cands).bit_length() - 1
                    fixed = 0
                    for x in order:
                        if assign[x] == x:
                            fixed |= 1 << x
                    if fixed not in seen:
                        seen.add(fixed)
                        results.append(fixed)
                    if cands & bit and cands != bit and fixed ^ bit not in seen:
                        seen.add(fixed ^ bit)
                        results.append(fixed ^ bit)
                if stopped:
                    self.exhausted = False
                    return
                yield
            # backtrack to the deepest position with a candidate left
            k -= 1
            if k < 0:
                return
            cands = pending[k]


def assignments_in_context(
    domain: DigitalImage,
    codomain: DigitalImage,
    meter: Meter,
    allowed: tuple[int, ...] | None = None,
    max_results: int | None = None,
) -> tuple[list[tuple[int, ...]], bool, int]:
    """As enumerate_assignments, for a search inside an operation: charged to its ``meter``.

    ``allowed``, if given, restricts each point x to the values whose bits
    are set in ``allowed[x]``.  The meter may be shared with other searches
    of the same operation; the node count returned is this search's own.
    """
    search = _Search(domain, codomain, allowed, meter, "maps", max_results).run()
    return search.results, search.exhausted, search.nodes


def enumerate_assignments(
    domain: DigitalImage,
    codomain: DigitalImage,
    budget: EnumerationBudget | None = None,
) -> tuple[list[tuple[int, ...]], bool, int]:
    """All continuous assignments as raw tuples: (assignments, exhausted, nodes).

    The deterministic order is fixed by the search: domain points in
    per-component BFS order, candidate values ascending.
    """
    budget = budget or UNLIMITED
    return assignments_in_context(domain, codomain, Meter(budget), None, budget.max_results)


def enumerate_continuous_maps(
    domain: DigitalImage,
    codomain: DigitalImage,
    budget: EnumerationBudget | None = None,
) -> EnumerationOutcome:
    """Every continuous map domain -> codomain, each exactly once, up to budget."""
    assignments, exhausted, nodes = enumerate_assignments(domain, codomain, budget)
    maps = tuple(_enumerated(domain, codomain, a) for a in assignments)
    return EnumerationOutcome(maps=maps, exhausted=exhausted, nodes_used=nodes)


def count_continuous_maps(
    domain: DigitalImage,
    codomain: DigitalImage,
    budget: EnumerationBudget | None = None,
) -> tuple[int, bool]:
    """Number of continuous maps, without materializing them."""
    budget = budget or UNLIMITED
    search = _Search(domain, codomain, None, Meter(budget), "count", budget.max_results).run()
    return search.count, search.exhausted


def one_step_neighbors(
    f: DigitalMap, budget: EnumerationBudget | None = None
) -> EnumerationOutcome:
    """Every continuous g with g(x) in the closed neighborhood of f(x) for all x.

    Includes f itself; the relation is symmetric because closed
    neighborhoods are.
    """
    budget = budget or UNLIMITED
    closed = f.codomain._closed
    allowed = tuple(closed[v] for v in f.assignment)
    assignments, exhausted, nodes = assignments_in_context(
        f.domain, f.codomain, Meter(budget), allowed, budget.max_results
    )
    maps = tuple(_enumerated(f.domain, f.codomain, a) for a in assignments)
    return EnumerationOutcome(maps=maps, exhausted=exhausted, nodes_used=nodes)
