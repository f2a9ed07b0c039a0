"""Digitally continuous maps and their coincidence and fixed-point sets.

A map is continuous when every adjacent pair of domain points lands on
equal or adjacent codomain points.  Every ``DigitalMap`` in circulation is
continuous: the constructor and ``from_assignment`` validate what they are
given, and ``_enumerated`` wraps enumerator output, which was edge-checked
while it was built, without checking it again.
"""

from __future__ import annotations

from ._record import Record
from .errors import ContinuityError, InvalidInputError
from .images import DigitalImage, Isomorphism, _require_int

PointSet = tuple[int, ...]


def _check_assignment(domain: DigitalImage, codomain: DigitalImage, assignment) -> tuple[int, ...]:
    """The assignment as a tuple of codomain indices; a number is never coerced."""
    try:
        values = tuple(assignment)
    except TypeError as exc:
        raise InvalidInputError(f"an assignment is a list of indices, got {assignment!r}") from exc
    if len(values) != domain.n_points:
        raise InvalidInputError(
            f"assignment has length {len(values)}, domain has {domain.n_points} points"
        )
    m = codomain.n_points
    for v in values:
        if not 0 <= _require_int(v, "an assignment value") < m:
            raise InvalidInputError(f"assignment value {v} is not a codomain index")
    return values


def continuity_violation(
    domain: DigitalImage, codomain: DigitalImage, assignment
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """First domain edge broken by the assignment, as (edge, values), or None."""
    return _broken_edge(domain, codomain, _check_assignment(domain, codomain, assignment))


def _broken_edge(
    domain: DigitalImage, codomain: DigitalImage, values: tuple[int, ...]
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """As continuity_violation, for values ``_check_assignment`` has already checked."""
    for i, j in domain.edges:
        a, b = values[i], values[j]
        if a != b and not codomain.adjacent(a, b):
            return (i, j), (a, b)
    return None


def is_continuous(domain: DigitalImage, codomain: DigitalImage, assignment) -> bool:
    """True iff every domain edge maps to equal or adjacent codomain points."""
    return continuity_violation(domain, codomain, assignment) is None


class DigitalMap(Record):
    """A validated continuous map, stored as a tuple of codomain indices.

    Equality is structural (domain, codomain, assignment); maps carry no
    name so bulk enumeration can deduplicate them by hashing.
    """

    _fields = ("domain", "codomain", "assignment")
    domain: DigitalImage
    codomain: DigitalImage
    assignment: tuple[int, ...]

    def __init__(self, domain: DigitalImage, codomain: DigitalImage, assignment):
        values = _check_assignment(domain, codomain, assignment)
        witness = _broken_edge(domain, codomain, values)
        if witness is not None:
            raise ContinuityError(*witness)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "assignment", values)

    def __call__(self, x: int) -> int:
        return self.assignment[x]

    def __repr__(self):
        return f"DigitalMap({self.assignment})"

    def is_self_map(self) -> bool:
        return self.domain == self.codomain

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain.to_json_dict(),
            "codomain": self.codomain.to_json_dict(),
            "assignment": list(self.assignment),
        }


def _enumerated(
    domain: DigitalImage, codomain: DigitalImage, assignment: tuple[int, ...]
) -> DigitalMap:
    """Wrap an assignment an enumeration produced, skipping the continuity re-check.

    Only for assignments from ``enumeration`` searches and the homotopy
    closures over them, which admit a value only after checking its edges.
    """
    f = object.__new__(DigitalMap)
    object.__setattr__(f, "domain", domain)
    object.__setattr__(f, "codomain", codomain)
    object.__setattr__(f, "assignment", assignment)
    return f


def from_assignment(domain: DigitalImage, codomain: DigitalImage, assignment) -> DigitalMap:
    """Validate an assignment into a map; raises ContinuityError with a witness edge."""
    return DigitalMap(domain, codomain, assignment)


def identity(image: DigitalImage) -> DigitalMap:
    return DigitalMap(image, image, tuple(range(image.n_points)))


def constant(domain: DigitalImage, codomain: DigitalImage, value: int) -> DigitalMap:
    if not 0 <= value < codomain.n_points:
        raise InvalidInputError(f"constant value {value} is not a codomain index")
    return DigitalMap(domain, codomain, (value,) * domain.n_points)


def compose(outer: DigitalMap, inner: DigitalMap) -> DigitalMap:
    """The map x -> outer(inner(x)); continuous whenever both factors are."""
    if inner.codomain != outer.domain:
        raise InvalidInputError("composition requires codomain(inner) = domain(outer)")
    return DigitalMap(
        inner.domain,
        outer.codomain,
        tuple(outer.assignment[v] for v in inner.assignment),
    )


def conjugate(f: DigitalMap, phi: Isomorphism) -> DigitalMap:
    """Transport a self-map across an isomorphism: returns phi o f o phi^-1."""
    if not f.is_self_map():
        raise InvalidInputError("conjugation is defined for self-maps only")
    if phi.domain != f.domain:
        raise InvalidInputError("isomorphism domain must match the map's image")
    inv = phi.inverse().forward
    assignment = tuple(phi.forward[f.assignment[inv[y]]] for y in range(len(inv)))
    return DigitalMap(phi.codomain, phi.codomain, assignment)


def _require_common_images(maps) -> tuple[DigitalMap, ...]:
    maps = tuple(maps)
    if not maps:
        raise InvalidInputError("need at least one map")
    first = maps[0]
    for m in maps[1:]:
        if m.domain != first.domain or m.codomain != first.codomain:
            raise InvalidInputError("all maps must share domain and codomain")
    return maps


def coincidence_set(maps) -> PointSet:
    """Points where all maps agree.  A single map agrees with itself everywhere."""
    maps = _require_common_images(maps)
    first = maps[0]
    return tuple(
        x
        for x in range(first.domain.n_points)
        if all(m.assignment[x] == first.assignment[x] for m in maps[1:])
    )


def fixed_point_set(f: DigitalMap) -> PointSet:
    if not f.is_self_map():
        raise InvalidInputError("fixed points are defined for self-maps only")
    return tuple(x for x in range(f.domain.n_points) if f.assignment[x] == x)


def _fixed_mask(assignment: tuple[int, ...]) -> int:
    """The fixed points of a self-map's assignment, as a bitmask over the points."""
    return sum(1 << x for x, v in enumerate(assignment) if v == x)


def common_fixed_set(maps) -> PointSet:
    """Points fixed by every map; equals coincidence_set(maps + [identity])."""
    maps = _require_common_images(maps)
    if not maps[0].is_self_map():
        raise InvalidInputError("common fixed points are defined for self-maps only")
    return tuple(
        x
        for x in range(maps[0].domain.n_points)
        if all(m.assignment[x] == x for m in maps)
    )
