"""Finite digital images: point sets in Z^n with a symmetric, antireflexive adjacency.

An image is a pair (point set, adjacency rule) and doubles as a finite simple
graph whose vertices carry grid coordinates.  Points are stored in canonical
lexicographic order; everything downstream refers to points by their index in
that order.  An image also holds what map searches read of it: one
breadth-first search gives the search order and the components, the
closed neighborhoods are bitmasks, and each component knows whether a
greedy chain contracts it, each built once, on first use.
"""

from __future__ import annotations

from functools import cached_property

from ._record import Record
from .errors import InvalidInputError

Point = tuple[int, ...]


def _require_int(value, what: str):
    """value itself if it is an int (a bool is not); a number is never coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    return value


def _require_at_least(value, low: int, what: str):
    """value itself if it is an int (as ``_require_int``) of at least ``low``."""
    if _require_int(value, what) < low:
        raise InvalidInputError(f"{what} must be at least {low}, got {value}")
    return value


def ct_adjacent(p: Point, q: Point, t: int) -> bool:
    """Coordinate adjacency: between 1 and ``t`` coordinates differ by exactly 1, the rest agree.

    Equal points are never adjacent (the relation is antireflexive).
    """
    if len(p) != len(q):
        raise InvalidInputError(f"points {p} and {q} have different dimensions")
    if not 1 <= t <= len(p):
        raise InvalidInputError(f"t={t} out of range for dimension {len(p)}")
    changed = 0
    for a, b in zip(p, q):
        d = abs(a - b)
        if d > 1:
            return False
        changed += d
    return 1 <= changed <= t


class CT(Record):
    """Adjacency derived from coordinates via :func:`ct_adjacent`."""

    _fields = ("t",)
    t: int

    def __init__(self, t: int):
        object.__setattr__(self, "t", t)


class Explicit(Record):
    """Adjacency given directly as unordered pairs of point indices."""

    _fields = ("edges",)
    edges: frozenset[tuple[int, int]]

    def __init__(self, edges):
        norm = set()
        for e in edges:
            if len(e) != 2:
                raise InvalidInputError(f"edge {e!r} is not a pair of point indices")
            i, j = e
            if type(i) is not int or type(j) is not int:
                i, j = (_require_int(v, "an edge endpoint") for v in e)
            if i == j:
                raise InvalidInputError(f"edge ({i}, {j}) is reflexive")
            norm.add((j, i) if j < i else (i, j))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def _checked(cls, edges: frozenset[tuple[int, int]]) -> Explicit:
        """An adjacency of edges already checked: distinct index pairs (i, j), i < j."""
        self = object.__new__(cls)
        object.__setattr__(self, "edges", edges)
        return self


AdjacencySpec = CT | Explicit


class DigitalImage(Record):
    """An immutable finite digital image.

    The constructor canonicalizes: points are sorted lexicographically,
    duplicates rejected, and explicit edges re-indexed to the sorted order.
    ``source_order`` records the permutation (input position -> canonical
    index) so loaders can report how a file's indices were renumbered.

    Equality and hashing are semantic: two images are equal when they have
    the same dimension, the same canonical point sequence, and the same
    derived edge set, regardless of how the adjacency was specified.  The
    optional name is a label and never participates in equality.

    The structures every map search reads (``_bfs``, ``_earlier`` and
    ``_closed``) and the homotopy engine's contractibility certificate
    (``_greedy_contractible``) are built on first use and kept with the
    image, so an image that no search reads never builds them.
    """

    points: tuple[Point, ...]
    adjacency: AdjacencySpec
    name: str | None
    dimension: int
    source_order: tuple[int, ...]
    _neighbors: tuple[frozenset[int], ...]
    _edges: frozenset[tuple[int, int]]
    _sorted_edges: tuple[tuple[int, int], ...]
    _hash: int

    def __init__(
        self,
        points,
        adjacency: AdjacencySpec,
        name: str | None = None,
        dimension: int | None = None,
    ):
        pts = [tuple(p) for p in points]
        if not all(type(c) is int for p in pts for c in p):
            pts = [tuple(_require_int(c, "a coordinate") for c in p) for p in pts]
        if not pts:
            raise InvalidInputError("an image must contain at least one point")
        dim = _require_int(dimension, "dimension") if dimension is not None else len(pts[0])
        if dim < 1:
            raise InvalidInputError(f"dimension must be positive, got {dim}")
        for p in pts:
            if len(p) != dim:
                raise InvalidInputError(f"point {p} does not have dimension {dim}")
        if len(set(pts)) != len(pts):
            raise InvalidInputError("points must be pairwise distinct")

        order = sorted(range(len(pts)), key=lambda i: pts[i])
        perm = [0] * len(pts)  # input position -> canonical index
        for new, old in enumerate(order):
            perm[old] = new
        canonical = tuple(pts[i] for i in order)

        adj = adjacency
        n = len(canonical)
        if isinstance(adj, CT):
            if not 1 <= _require_int(adj.t, "t") <= dim:
                raise InvalidInputError(f"CT(t={adj.t}) invalid for dimension {dim}")
            edges = frozenset(
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if ct_adjacent(canonical[i], canonical[j], adj.t)
            )
        else:
            for i, j in adj.edges:
                if not (0 <= i < n and 0 <= j < n):
                    raise InvalidInputError(f"edge ({i}, {j}) references a missing point")
            edges = frozenset(
                (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in adj.edges
            )
            adj = Explicit._checked(edges)

        nbrs = [set() for _ in range(n)]
        for i, j in edges:
            nbrs[i].add(j)
            nbrs[j].add(i)

        object.__setattr__(self, "points", canonical)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dimension", dim)
        object.__setattr__(self, "source_order", tuple(perm))
        object.__setattr__(self, "_neighbors", tuple(frozenset(s) for s in nbrs))
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_sorted_edges", tuple(sorted(edges)))
        object.__setattr__(self, "_hash", hash((dim, canonical, edges)))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, DigitalImage):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.points == other.points
            and self._edges == other._edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        label = self.name or f"{len(self.points)}-point image"
        return f"DigitalImage({label}, dim={self.dimension}, edges={len(self._edges)})"

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted (i, j) pairs with i < j."""
        return self._sorted_edges

    def adjacent(self, i: int, j: int) -> bool:
        return j in self._neighbors[i]

    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return self._neighbors

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(s) for s in self._neighbors))

    @cached_property
    def _bfs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(order, labels) from one breadth-first search per component.

        ``order`` visits the components from their lowest points, each
        breadth-first with neighbors in ascending order, so every point after
        the first of its component is adjacent to an earlier point, which is
        what backtracking searches rely on.  ``labels[v]`` numbers v's
        component, in the order of their smallest members.
        """
        nbrs = self._neighbors
        order: list[int] = []
        labels = [-1] * len(nbrs)
        label = -1
        k = 0  # order[k:] is the queue
        for start in range(len(nbrs)):
            if labels[start] < 0:
                label += 1
                labels[start] = label
                order.append(start)
            while k < len(order):
                for w in sorted(nbrs[order[k]]):
                    if labels[w] < 0:
                        labels[w] = label
                        order.append(w)
                k += 1
        return tuple(order), tuple(labels)

    @cached_property
    def _earlier(self) -> tuple[tuple[int, ...], ...]:
        """By position in the search order, the point's neighbors that come earlier."""
        order = self._bfs[0]
        pos = {v: k for k, v in enumerate(order)}
        nbrs = self._neighbors
        return tuple(tuple(u for u in nbrs[v] if pos[u] < k) for k, v in enumerate(order))

    @cached_property
    def _closed(self) -> tuple[int, ...]:
        """Each point's closed neighborhood N[u] as a bitmask: bit w set iff w is u or adjacent."""
        nbrs = self._neighbors
        return tuple(sum(1 << w for w in nbrs_u) | 1 << u for u, nbrs_u in enumerate(nbrs))

    @cached_property
    def _greedy_contractible(self) -> tuple[bool, ...]:
        """By component label, whether a greedy chain contracts that component.

        The greedy step toward a target t sends each point of t's component
        to its lowest-index neighbor one step closer to t, and fixes t and
        every point off that component.  No point moves more than one step, so id, step,
        step^2, ... are one step apart and reach the constant at t on the
        component.  Powers of a continuous map are continuous, so every map
        of that chain is continuous iff the step is.  A component has the
        flag iff the step toward one of its points (tried in index order)
        is continuous; then every map into it is homotopic to a constant.
        """
        labels = self._bfs[1]
        nbrs, edges = self._neighbors, self._sorted_edges
        flags = [False] * (max(labels) + 1)
        for t, label in enumerate(labels):
            if not flags[label]:
                flags[label] = _greedy_step_is_continuous(nbrs, edges, t)
        return tuple(flags)

    def to_json_dict(self) -> dict:
        """Serializable form; see the image file format in the README."""
        if isinstance(self.adjacency, CT):
            adj = {"type": "ct", "t": self.adjacency.t}
        else:
            adj = {"type": "explicit", "edges": [list(e) for e in sorted(self.adjacency.edges)]}
        out = {
            "dimension": self.dimension,
            "points": [list(p) for p in self.points],
            "adjacency": adj,
        }
        if self.name is not None:
            out["name"] = self.name
        return out


def _greedy_step_is_continuous(
    nbrs: tuple[frozenset[int], ...], edges: tuple[tuple[int, int], ...], target: int
) -> bool:
    """True iff the greedy step toward target is continuous.

    One breadth-first search from target gives the step: each layer is
    walked in ascending order, so a point's first discoverer is its
    lowest-index neighbor one step closer.  One pass over the edges checks
    it; the step fixes every point off target's component, so only that
    component's edges can break.
    """
    step = list(range(len(nbrs)))
    seen = {target}
    layer = [target]
    while layer:
        following = []
        for v in sorted(layer):
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    step[w] = v
                    following.append(w)
        layer = following
    return all(step[i] == step[j] or step[j] in nbrs[step[i]] for i, j in edges)


def image_from_json_dict(data: dict) -> DigitalImage:
    """Build an image from its JSON form (points may arrive in any order)."""
    try:
        dimension = data["dimension"]
        points = [tuple(p) for p in data["points"]]
        adj_data = data["adjacency"]
        kind = adj_data["type"]
        if kind == "ct":
            adjacency: AdjacencySpec = CT(adj_data["t"])
        elif kind == "explicit":
            adjacency = Explicit(adj_data["edges"])
        else:
            raise InvalidInputError(f"unknown adjacency type {kind!r}")
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed image object: {exc}") from exc
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidInputError(f"an image name must be a string, got {name!r}")
    return DigitalImage(
        points=tuple(points),
        adjacency=adjacency,
        name=name,
        dimension=dimension,
    )


def neighbors(image: DigitalImage, x: int, closed: bool = False) -> frozenset[int]:
    """Neighbors of point ``x``; the closed variant includes ``x`` itself."""
    if not 0 <= x < image.n_points:
        raise InvalidInputError(f"point index {x} out of range")
    open_set = image._neighbors[x]
    return open_set | {x} if closed else open_set


def components(image: DigitalImage) -> tuple[tuple[int, ...], ...]:
    """Connectivity components as sorted index blocks, ordered by smallest member."""
    labels = image._bfs[1]
    blocks: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for v, label in enumerate(labels):
        blocks[label].append(v)
    return tuple(map(tuple, blocks))


def is_connected(image: DigitalImage) -> bool:
    return max(image._bfs[1]) == 0


def is_totally_disconnected(image: DigitalImage) -> bool:
    """True when every component is a singleton, i.e. the image has no edges."""
    return not image._edges


class Isomorphism(Record):
    """An adjacency-preserving bijection between two images (both directions).

    The constructor checks edges, not all pairs: a bijection maps distinct
    edges of X to distinct pairs of Y, so when X and Y have as many edges
    and every edge of X lands on an edge of Y, the edges of X cover those
    of Y and no non-edge lands on an edge.
    """

    _fields = ("domain", "codomain", "forward")
    domain: DigitalImage
    codomain: DigitalImage
    forward: tuple[int, ...]

    def __init__(self, domain: DigitalImage, codomain: DigitalImage, forward):
        forward = tuple(forward)
        n = domain.n_points
        if codomain.n_points != n or sorted(forward) != list(range(n)):
            raise InvalidInputError("forward must be a bijection between the point sets")
        if len(domain.edges) != len(codomain.edges):
            raise InvalidInputError("the images have different numbers of edges")
        for i, j in domain.edges:
            if not codomain.adjacent(forward[i], forward[j]):
                raise InvalidInputError(f"bijection does not preserve adjacency at edge ({i}, {j})")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "forward", forward)

    def apply(self, x: int) -> int:
        return self.forward[x]

    def inverse(self) -> Isomorphism:
        inv = [0] * len(self.forward)
        for i, y in enumerate(self.forward):
            inv[y] = i
        return Isomorphism(self.codomain, self.domain, tuple(inv))


def find_isomorphism(x_img: DigitalImage, y_img: DigitalImage) -> Isomorphism | None:
    """Exhaustive isomorphism search with degree and neighborhood pruning.

    Returns the first match in deterministic order, or None.  The points
    of X are placed in search order; a position's candidates are a
    bitmask of the unused points of Y with the same degree, adjacent to
    the image of each earlier neighbor, tried ascending.  A candidate is
    taken only if the used points it is adjacent to are exactly those
    images, so it is adjacent to no image of an earlier non-neighbor;
    that is checked as it is tried, so a position costs one mask per
    earlier neighbor, not one per earlier point.  ``pending`` holds the
    untried candidates of each position, so the depth-first search needs
    no recursion.
    """
    n = x_img.n_points
    if y_img.n_points != n or x_img.degree_sequence() != y_img.degree_sequence():
        return None

    x_nbrs = x_img.neighbor_sets()
    y_nbrs = y_img.neighbor_sets()
    y_mask = [c ^ 1 << w for w, c in enumerate(y_img._closed)]  # open neighborhoods
    of_degree: dict[int, int] = {}
    for w, s in enumerate(y_nbrs):
        of_degree[len(s)] = of_degree.get(len(s), 0) | 1 << w
    order, earlier = x_img._bfs[0], x_img._earlier
    assign = [0] * n
    pending = [0] * n  # the untried candidates at each position
    wanted = [0] * n  # the images of each position's earlier neighbors
    used = 0
    k = 0
    while True:
        v = order[k]
        cands = of_degree[len(x_nbrs[v])] & ~used
        wanted[k] = 0
        for u in earlier[k]:
            cands &= y_mask[assign[u]]
            wanted[k] |= 1 << assign[u]
        while True:
            while not cands:
                # backtrack to the deepest position with a candidate left
                k -= 1
                if k < 0:
                    return None
                used ^= 1 << assign[order[k]]
                cands = pending[k]
            low = cands & -cands
            cands ^= low
            w = low.bit_length() - 1
            if y_mask[w] & used == wanted[k]:
                break
        pending[k] = cands
        assign[order[k]] = w
        used |= low
        k += 1
        if k == n:
            return Isomorphism(x_img, y_img, assign)
