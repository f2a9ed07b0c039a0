"""Homotopy of continuous maps: one-step relation, classes, rigidity, contractibility.

Two maps are one-step homotopic when they are pointwise equal or adjacent;
general homotopy is reachability under that relation through continuous
maps, so a homotopy class is a breadth-first closure and every membership
question comes with an explicit chain of one-step moves as a witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

from .enumeration import (
    EnumerationBudget,
    MapSpaceContext,
    Meter,
    assignments_in_context,
    one_step_neighbors,
)
from .errors import ContinuityError, InvalidInputError
from .images import DigitalImage
from .maps import DigitalMap, constant, identity

Ternary = Literal["yes", "no", "unknown"]


def one_step_homotopic(f: DigitalMap, g: DigitalMap) -> bool:
    """True iff f(x) and g(x) are equal or adjacent at every point."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise InvalidInputError("maps must share domain and codomain")
    cod = f.codomain
    return all(
        a == b or cod.adjacent(a, b) for a, b in zip(f.assignment, g.assignment)
    )


@dataclass(frozen=True)
class HomotopyWitness:
    """A chain of maps, consecutive entries one-step homotopic."""

    chain: tuple[DigitalMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "chain", tuple(self.chain))
        if not self.chain:
            raise InvalidInputError("a witness chain has at least one map")
        for a, b in zip(self.chain, self.chain[1:]):
            if not one_step_homotopic(a, b):
                raise InvalidInputError("witness chain entries must be one-step homotopic")

    def __len__(self) -> int:
        return len(self.chain)


@dataclass(frozen=True)
class HomotopyClass:
    """All maps reachable from the representative; complete=False iff truncated."""

    representative: DigitalMap
    members: tuple[DigitalMap, ...]
    complete: bool

    @cached_property
    def _member_set(self) -> frozenset[DigitalMap]:
        return frozenset(self.members)

    def __contains__(self, f: DigitalMap) -> bool:
        return f in self._member_set


def _bfs_closure(
    f: DigitalMap, budget: EnumerationBudget | None, stop_at: DigitalMap | None = None
) -> tuple[dict[tuple[int, ...], tuple[int, ...] | None], bool, bool]:
    """Breadth-first closure of {f} under one-step neighbors.

    Returns (parents keyed by assignment, complete, found_stop).  parents[a]
    is the predecessor assignment on a shortest chain from f, None for f.
    Works on raw assignments; members are only wrapped by the callers.
    """
    meter = Meter(budget)
    max_results = budget.max_results if budget else None
    parents: dict[tuple[int, ...], tuple[int, ...] | None] = {f.assignment: None}
    target = stop_at.assignment if stop_at is not None else None
    if target is not None and target == f.assignment:
        return parents, True, True
    context = MapSpaceContext(f.domain, f.codomain)
    if context.codomain_is_complete():
        # every function is continuous and any two are pointwise equal or
        # adjacent, so the class is the whole function space in one step
        if target is not None:
            parents[target] = f.assignment
            return parents, True, True
        assignments, exhausted, _ = assignments_in_context(context, meter)
        for a in assignments:
            if a not in parents:
                parents[a] = f.assignment
                if max_results is not None and len(parents) >= max_results:
                    return parents, False, False
        return parents, exhausted, False
    queue = deque([f.assignment])
    complete = True
    while queue:
        current = queue.popleft()
        if meter.spent():
            complete = False
            break
        allowed = tuple(context.closed[v] for v in current)
        assignments, exhausted, _ = assignments_in_context(context, meter, allowed)
        if not exhausted:
            complete = False
            break
        for a in assignments:
            if a in parents:
                continue
            parents[a] = current
            if max_results is not None and len(parents) >= max_results:
                return parents, False, target is not None and target in parents
            if target is not None and a == target:
                return parents, False, True
            queue.append(a)
    return parents, complete, target is not None and target in parents


def homotopy_class(f: DigitalMap, budget: EnumerationBudget | None = None) -> HomotopyClass:
    """Every map homotopic to f (up to budget), in canonical assignment order."""
    parents, complete, _ = _bfs_closure(f, budget)
    members = tuple(
        DigitalMap(f.domain, f.codomain, a) for a in sorted(parents)
    )
    return HomotopyClass(representative=f, members=members, complete=complete)


@dataclass(frozen=True)
class HomotopyAnswer:
    verdict: Ternary
    witness: HomotopyWitness | None = None


def are_homotopic(
    f: DigitalMap, g: DigitalMap, budget: EnumerationBudget | None = None
) -> HomotopyAnswer:
    """Decide f ~ g; yes carries a shortest one-step chain from f to g."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise InvalidInputError("maps must share domain and codomain")
    parents, complete, found = _bfs_closure(f, budget, stop_at=g)
    if found:
        chain_assignments = [g.assignment]
        while parents[chain_assignments[-1]] is not None:
            chain_assignments.append(parents[chain_assignments[-1]])
        chain = tuple(
            DigitalMap(f.domain, f.codomain, a) for a in reversed(chain_assignments)
        )
        return HomotopyAnswer("yes", HomotopyWitness(chain))
    if complete:
        return HomotopyAnswer("no")
    return HomotopyAnswer("unknown")


def is_rigid_map(f: DigitalMap) -> bool:
    """Exact: f is homotopic only to itself iff its one-step neighborhood is {f}."""
    outcome = one_step_neighbors(f, EnumerationBudget(max_results=2))
    return len(outcome.maps) == 1


def is_rigid_image(image: DigitalImage) -> bool:
    return is_rigid_map(identity(image))


def _graph_distances(image: DigitalImage, target: int) -> list[int | None]:
    dist: list[int | None] = [None] * image.n_points
    dist[target] = 0
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for w in image.neighbor_sets()[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _greedy_pull(f: DigitalMap, target: int) -> tuple[DigitalMap, ...] | None:
    """Chain from f to the constant at target by stepping every value toward it.

    Each step moves each point to its lowest-index neighbor strictly closer
    to the target; gives up when a step breaks continuity or stalls.
    """
    cod = f.codomain
    dist = _graph_distances(cod, target)
    if any(dist[v] is None for v in f.assignment):
        return None
    chain = [f]
    current = f.assignment
    while any(v != target for v in current):
        step = []
        for v in current:
            if v == target:
                step.append(v)
                continue
            closer = [w for w in cod.neighbor_sets()[v] if dist[w] is not None and dist[w] < dist[v]]
            step.append(min(closer) if closer else v)
        step_t = tuple(step)
        if step_t == current:
            return None
        try:
            chain.append(DigitalMap(f.domain, f.codomain, step_t))
        except ContinuityError:
            return None
        current = step_t
    return tuple(chain)


def is_nullhomotopic(f: DigitalMap, budget: EnumerationBudget | None = None) -> Ternary:
    """Is f homotopic to some constant map?  Greedy chain first, then BFS."""
    for target in range(f.codomain.n_points):
        if _greedy_pull(f, target) is not None:
            return "yes"
    constants = {constant(f.domain, f.codomain, y).assignment for y in range(f.codomain.n_points)}
    parents, complete, _ = _bfs_closure(f, budget)
    if constants & parents.keys():
        return "yes"
    return "no" if complete else "unknown"


def is_contractible(image: DigitalImage, budget: EnumerationBudget | None = None) -> Ternary:
    """Can the identity be deformed to a constant?"""
    return is_nullhomotopic(identity(image), budget)
