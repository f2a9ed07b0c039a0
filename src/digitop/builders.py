"""Constructors for the stock images used throughout the package and CLI.

Named builtins resolve via :func:`builtin`, which also understands the
parameterized forms ``cycle:<n>``, ``interval:<a>:<b>`` and ``discrete:<m>``.
"""

from __future__ import annotations

import itertools

from .errors import InvalidInputError
from .images import CT, DigitalImage, Explicit, Point, _require_int

TYPE_CHECKING = False
if TYPE_CHECKING:
    import random


def interval(a: int, b: int) -> DigitalImage:
    """The digital interval [a, b] in Z with 2-adjacency."""
    if _require_int(a, "an interval end") > _require_int(b, "an interval end"):
        raise InvalidInputError(f"empty interval [{a}, {b}]")
    return DigitalImage(
        points=tuple((k,) for k in range(a, b + 1)),
        adjacency=CT(1),
        name=f"interval:{a}:{b}",
    )


def cycle(n: int) -> DigitalImage:
    """The digital cycle C_n: points 0..n-1 with i adjacent to i +- 1 mod n.

    For n <= 2 the wrap-around edges coincide or collapse, so C_1 is a
    singleton and C_2 a single edge.
    """
    if _require_int(n, "a cycle length") < 1:
        raise InvalidInputError(f"cycle needs at least one point, got n={n}")
    edges = set()
    for i in range(n):
        j = (i + 1) % n
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return DigitalImage(
        points=tuple((i,) for i in range(n)),
        adjacency=Explicit(edges),
        name=f"cycle:{n}",
    )


def discrete(m: int) -> DigitalImage:
    """m isolated points: no adjacencies at all."""
    if _require_int(m, "a point count") < 1:
        raise InvalidInputError(f"discrete image needs at least one point, got m={m}")
    return DigitalImage(
        points=tuple((i,) for i in range(m)),
        adjacency=Explicit(()),
        name=f"discrete:{m}",
    )


def singleton() -> DigitalImage:
    return DigitalImage(points=((0,),), adjacency=Explicit(()), name="singleton")


def figure1() -> DigitalImage:
    """An 18-point planar image with 4-adjacency: two horizontal rails y=0 and
    y=2 over x in [0, 6], joined by rungs at x = 0, 2, 4, 6.

    Every self-map homotopic to the identity equals the identity, which makes
    this the stock rigid example.
    """
    pts = [(x, 0) for x in range(7)] + [(x, 2) for x in range(7)]
    pts += [(0, 1), (2, 1), (4, 1), (6, 1)]
    return DigitalImage(points=tuple(pts), adjacency=CT(1), name="figure1")


def cube() -> DigitalImage:
    """The unit cube vertices {0,1}^3 with 6-adjacency (edges of the cube)."""
    pts = tuple(itertools.product((0, 1), repeat=3))
    return DigitalImage(points=pts, adjacency=CT(1), name="cube")


def cube_minus_vertex() -> DigitalImage:
    """The cube with one corner removed; still connected, 7 points."""
    pts = tuple(p for p in itertools.product((0, 1), repeat=3) if p != (1, 1, 1))
    return DigitalImage(points=pts, adjacency=CT(1), name="cube_minus_vertex")


def square4() -> DigitalImage:
    """Four points in a 4-cycle: 0-1-2-3-0.

    Kept one-dimensional with explicit edges so the point labels match the
    usual x_0..x_3 walk around the square; adjacency is what matters, not
    the embedding.
    """
    return DigitalImage(
        points=((0,), (1,), (2,), (3,)),
        adjacency=Explicit(((0, 1), (1, 2), (2, 3), (0, 3))),
        name="square4",
    )


def tee4() -> DigitalImage:
    """Four points in a T: center 1 adjacent to 0, 2, 3."""
    return DigitalImage(
        points=((0,), (1,), (2,), (3,)),
        adjacency=Explicit(((0, 1), (1, 2), (1, 3))),
        name="tee4",
    )


_FIXED_BUILTINS = {
    "figure1": figure1,
    "cube": cube,
    "cube_minus_vertex": cube_minus_vertex,
    "square4": square4,
    "tee4": tee4,
    "singleton": singleton,
}


def builtin(name: str) -> DigitalImage:
    """Resolve a builtin image name, including parameterized forms."""
    if name in _FIXED_BUILTINS:
        return _FIXED_BUILTINS[name]()
    head, _, rest = name.partition(":")
    makers = {"cycle": (cycle, 1), "discrete": (discrete, 1), "interval": (interval, 2)}
    if head in makers and rest:
        maker, arity = makers[head]
        parts = rest.split(":")
        try:
            params = [int(p) for p in parts]
        except ValueError as exc:
            raise InvalidInputError(f"bad parameter in builtin name {name!r}") from exc
        if len(params) != arity:
            raise InvalidInputError(f"bad parameter in builtin name {name!r}")
        return maker(*params)
    raise InvalidInputError(
        f"unknown builtin {name!r}; expected one of {sorted(_FIXED_BUILTINS)} "
        "or cycle:<n>, interval:<a>:<b>, discrete:<m>"
    )


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXED_BUILTINS)) + ("cycle:<n>", "interval:<a>:<b>", "discrete:<m>")


def random_connected_image(
    rng: random.Random, n_points: int, extra_edge_prob: float = 0.35
) -> DigitalImage:
    """A random connected image on ``n_points`` points.

    A random spanning tree guarantees connectivity; each remaining pair is
    then added independently with probability ``extra_edge_prob``.
    """
    if _require_int(n_points, "a point count") < 1:
        raise InvalidInputError("need at least one point")
    edges: set[tuple[int, int]] = set()
    order = list(range(n_points))
    rng.shuffle(order)
    for k in range(1, n_points):
        v = order[k]
        w = order[rng.randrange(k)]
        edges.add((min(v, w), max(v, w)))
    for i in range(n_points):
        for j in range(i + 1, n_points):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    return DigitalImage(
        points=tuple((i,) for i in range(n_points)),
        adjacency=Explicit(edges),
    )
