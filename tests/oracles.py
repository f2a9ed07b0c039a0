"""Independent brute-force reference implementations.

Everything here is deliberately naive: full function spaces filtered by a
direct edge check, homotopy as connected components of the explicit
one-step graph over that whole space, spectra as loops over tuples.  Only
usable on tiny images.
"""

from __future__ import annotations

import functools
import itertools

from digitop import DigitalImage


def continuous_oracle(x_img: DigitalImage, y_img: DigitalImage, assignment) -> bool:
    for i, j in x_img.edges:
        a, b = assignment[i], assignment[j]
        if a != b and not y_img.adjacent(a, b):
            return False
    return True


def all_maps_oracle(x_img: DigitalImage, y_img: DigitalImage) -> list[tuple[int, ...]]:
    m = y_img.n_points
    return [
        a
        for a in itertools.product(range(m), repeat=x_img.n_points)
        if continuous_oracle(x_img, y_img, a)
    ]


def one_step_oracle(y_img: DigitalImage, a, b) -> bool:
    return all(u == v or y_img.adjacent(u, v) for u, v in zip(a, b))


def homotopy_class_oracle(
    x_img: DigitalImage, y_img: DigitalImage, assignment
) -> set[tuple[int, ...]]:
    """Connected component of the one-step graph over all continuous maps."""
    return set(_one_step_components(x_img, y_img)[tuple(assignment)])


@functools.lru_cache(maxsize=4)
def _one_step_components(
    x_img: DigitalImage, y_img: DigitalImage
) -> dict[tuple[int, ...], frozenset[tuple[int, ...]]]:
    """Every continuous map's component of the one-step graph, by breadth-first search.

    Maps are numbered in pool order; near[p][u] has bit i set iff map i
    sends p to u or a neighbor of u, so the maps one step from a are the
    AND over p of near[p][a[p]].
    """
    pool = all_maps_oracle(x_img, y_img)
    near = [
        [
            sum(1 << i for i, a in enumerate(pool) if one_step_oracle(y_img, (a[p],), (u,)))
            for u in range(y_img.n_points)
        ]
        for p in range(x_img.n_points)
    ]
    component_of = {}
    unseen = (1 << len(pool)) - 1
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        unseen ^= 1 << start
        members, frontier = [start], [start]
        while frontier:
            a = pool[frontier.pop()]
            step = unseen
            for p, v in enumerate(a):
                step &= near[p][v]
            unseen &= ~step
            while step:
                low = step & -step
                step ^= low
                members.append(low.bit_length() - 1)
                frontier.append(members[-1])
        component = frozenset(pool[i] for i in members)
        component_of.update((a, component) for a in component)
    return component_of


def one_step_distance(x_img: DigitalImage, y_img: DigitalImage, a, b) -> int | None:
    """Fewest one-step moves from a to b through continuous maps; None if none."""
    pool = all_maps_oracle(x_img, y_img)
    target = tuple(b)
    dist = {tuple(a): 0}
    layer = [tuple(a)]
    while layer:
        if target in layer:
            return dist[target]
        following = []
        for current in layer:
            for other in pool:
                if other not in dist and one_step_oracle(y_img, current, other):
                    dist[other] = dist[current] + 1
                    following.append(other)
        layer = following
    return None


def equalizer_size(assignments) -> int:
    return sum(1 for values in zip(*assignments) if len(set(values)) == 1)


def cs_oracle(x_img: DigitalImage, y_img: DigitalImage, i: int) -> set[int]:
    """Coincidence sizes over i-tuples; tuples reduce to subsets of size <= i.

    Stops once every size 0..#X has been seen, since no other size exists.
    """
    pool = all_maps_oracle(x_img, y_img)
    full = set(range(x_img.n_points + 1))
    sizes = set()
    for k in range(1, i + 1):
        for subset in itertools.combinations(pool, k):
            sizes.add(equalizer_size(subset))
            if sizes == full:
                return sizes
    return sizes


def fixed_spectrum_oracle(x_img: DigitalImage) -> set[int]:
    return {
        sum(1 for x, v in enumerate(a) if v == x)
        for a in all_maps_oracle(x_img, x_img)
    }


def cfs_oracle(x_img: DigitalImage, i: int) -> set[int]:
    """Common fixed-point sizes over i-tuples, stopping once all of 0..#X are seen."""
    pool = all_maps_oracle(x_img, x_img)
    ident = tuple(range(x_img.n_points))
    full = set(range(x_img.n_points + 1))
    sizes = set()
    for k in range(1, i + 1):
        for subset in itertools.combinations(pool, k):
            sizes.add(equalizer_size(subset + (ident,)))
            if sizes == full:
                return sizes
    return sizes


def hcs_oracle(x_img: DigitalImage, y_img: DigitalImage, assignments) -> set[int]:
    """Coincidence sizes with each map ranging over its full homotopy class.

    The choices are walked depth-first, one class at a time, in the order
    of their product.  The maps chosen so far matter to the rest only
    through where they agree, and on what (the common value at each point,
    or None), so a prefix that agrees like one already walked is skipped.
    Stops once every size 0..#X has been seen, since no other size exists.
    """
    classes = [homotopy_class_oracle(x_img, y_img, a) for a in assignments]
    n = x_img.n_points
    walked = [set() for _ in classes]
    sizes = set()

    def walk(depth, agreed) -> bool:
        if depth == len(classes):
            sizes.add(n - agreed.count(None))
            return len(sizes) == n + 1
        for m in classes[depth]:
            new = m if agreed is None else tuple(v if v == w else None for v, w in zip(agreed, m))
            if new not in walked[depth]:
                walked[depth].add(new)
                if walk(depth + 1, new):
                    return True
        return False

    walk(0, None)
    return sizes


def hfs_oracle(x_img: DigitalImage, assignments) -> set[int]:
    """Common fixed-point sizes with each map ranging over its class.

    Only a member's fixed-point set matters, so each class is reduced to
    its distinct fixed-point sets before the loop over choices.
    """
    classes = [
        {
            frozenset(x for x, v in enumerate(m) if v == x)
            for m in homotopy_class_oracle(x_img, x_img, a)
        }
        for a in assignments
    ]
    return {len(frozenset.intersection(*choice)) for choice in itertools.product(*classes)}


def mj_oracle(x_img: DigitalImage, j: int) -> int:
    ident = tuple(range(x_img.n_points))
    if j == 1:
        return x_img.n_points
    cls = sorted(homotopy_class_oracle(x_img, x_img, ident))
    best = x_img.n_points
    for k in range(1, j + 1):
        for subset in itertools.combinations(cls, k):
            best = min(best, equalizer_size(subset))
            if best == 0:
                return 0
    return best


def greedy_chain_oracle(x_img: DigitalImage) -> bool:
    """Does stepping id_X toward some target, one checked step at a time, reach a constant?

    A step sends every value to its lowest-index neighbor one step closer
    to the target.  Each map of the chain is checked for continuity before
    the next step, until every value is the target.  A target that some
    point cannot reach fails.
    """
    n = x_img.n_points
    for target in range(n):
        dist = {target: 0}
        while True:
            reached = {
                w: d + 1
                for v, d in dist.items()
                for w in range(n)
                if w not in dist and x_img.adjacent(v, w)
            }
            if not reached:
                break
            dist.update(reached)
        if len(dist) < n:
            continue
        toward = [
            target if v == target
            else min(w for w in range(n) if x_img.adjacent(v, w) and dist[w] == dist[v] - 1)
            for v in range(n)
        ]
        current = tuple(range(n))
        while any(v != target for v in current):
            current = tuple(toward[v] for v in current)
            if not continuous_oracle(x_img, x_img, current):
                break
        else:
            return True
    return False


def isomorphic_oracle(x_img: DigitalImage, y_img: DigitalImage) -> bool:
    """Does some permutation of the points carry the edges of X onto those of Y?"""
    n = x_img.n_points
    if y_img.n_points != n:
        return False
    y_edges = set(y_img.edges)
    return any(
        {tuple(sorted((perm[i], perm[j]))) for i, j in x_img.edges} == y_edges
        for perm in itertools.permutations(range(n))
    )
