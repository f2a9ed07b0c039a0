"""Spectra over homotopy classes: HCS, HFS, MC, MCF, and the sequence m_j.

Each argument map may be deformed within its homotopy class, so the search
ranges over selections from the classes.  Tuples again reduce to sets: a
set S of distinct maps is realizable iff one member per class can be picked
(with repetition up to that class's multiplicity in the argument list)
whose union is S.  Repeats of one class object are merged first into
groups with multiplicities (one engine returns one object per class, so
the repeated maps of an operation share a group), and one call of the
spectra module's breadth-first closure over equalizer restrictions
(``spectra._equalizer_closure``; for common fixed points, over the
bitmasks of the classes' fixed-point sets) runs over those groups,
reading each class's sorted assignments as they are.

An operation on maps makes one homotopy engine (``_Homotopy``) and asks it
whether every two points of the codomain Y are adjacent, or a greedy chain
contracts the domain X, which X decides once and charges to no budget.  If
either holds, every class is all of Hom(X, K) for the component K of Y
that holds the map's image, and no class is built: HCS and MC follow from
Y's component labels alone (``_contractible_sizes``), and HFS and MCF are
CFS_k(X), answered by the same streamed search as CFS
(``spectra._streamed_picks``).  Otherwise the same engine builds the
classes.  The engine's meter pays for everything the operation does, the
equalizer search included, so a node or time budget bounds the whole
operation.  ``hcs_of_classes`` and ``hfs_of_classes``
always search the classes they are given, on a meter of their own.
"""

from __future__ import annotations

from ._record import Record
from .enumeration import EnumerationBudget, Meter
from .errors import InvalidInputError
from .homotopy import HomotopyClass, _Homotopy
from .images import DigitalImage
from .maps import DigitalMap, _fixed_mask, _require_common_images, identity
from .spectra import Spectrum, _equalizer_closure, _streamed_picks


class HomotopySpectrumResult(Record):
    """values as a Spectrum; classes_complete=False iff any class BFS truncated.

    When inexact, values form a lower approximation (every listed size is
    realizable) and min_value is an upper bound on the true minimum.
    """

    _fields = ("values", "classes_complete", "min_value")
    values: Spectrum
    classes_complete: bool
    min_value: int | None

    def __init__(self, values: Spectrum, classes_complete: bool, min_value: int | None):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "classes_complete", classes_complete)
        object.__setattr__(self, "min_value", min_value)


class SelfCoincidenceSequence(Record):
    """Entries (j, m_j, exact); non-increasing in j when all entries are exact.

    Every entry has a value: the search of m_j has one group, whose first
    layer records #X before any node is charged, so an entry the budget
    cut is an upper bound.
    """

    _fields = ("entries",)
    entries: tuple[tuple[int, int, bool], ...]

    def __init__(self, entries: tuple[tuple[int, int, bool], ...]):
        object.__setattr__(self, "entries", entries)


def _merge_classes(classes, fixed: bool) -> tuple[list[tuple[tuple, int]], bool, int, int]:
    """Group repeats of one class object with multiplicities; returns (groups, complete, #X, #Y).

    This builds every class pool the equalizer closure reads.  A group's
    pool is its class's ``assignments``, as they are, so no map is built
    and no member is read.  One engine returns one object per class, so
    the repeated maps of an operation make one group.  Equal but distinct
    class objects make two groups of one pool; those admit the same sets
    of distinct maps as one group with the summed multiplicity, so every
    value and minimum is the same, and only node counts can differ.  With
    ``fixed`` the pool is instead the class's distinct fixed-point sets as
    bitmasks, which the class keeps, so a class is collapsed once however
    many searches read it.  A class with no member is rejected: the
    public ``HomotopyClass`` constructor accepts one, and the closure
    needs every pool nonempty.
    """
    first = classes[0].representative
    for cls in classes:
        rep = cls.representative
        if rep.domain != first.domain or rep.codomain != first.codomain:
            raise InvalidInputError("all classes must share domain and codomain")
        if not cls.assignments:
            raise InvalidInputError("every class needs a member")
    groups: dict[int, list] = {}
    for cls in classes:
        groups.setdefault(id(cls), [cls, 0])[1] += 1
    pools = [
        (cls._fixed_masks if fixed else cls.assignments, count) for cls, count in groups.values()
    ]
    complete = all(cls.complete for cls, _ in groups.values())
    return pools, complete, first.domain.n_points, first.codomain.n_points


def _require_self_maps(f: DigitalMap) -> None:
    if not f.is_self_map():
        raise InvalidInputError("common fixed points are defined for self-maps only")


def _search_classes(
    classes: tuple[HomotopyClass, ...],
    meter: Meter,
    fixed: bool,
    min_mode: bool,
) -> tuple[tuple[int, ...], bool, bool]:
    """Equalizer closure over one map drawn from each class, charged to ``meter``.

    Returns (sizes found, classes complete, search exact).  With ``fixed``
    the identity joins every equalizer (common fixed points); ``min_mode``
    stops at the first empty equalizer.
    """
    if not classes:
        raise InvalidInputError("need at least one homotopy class")
    if fixed:
        _require_self_maps(classes[0].representative)
    groups, complete, n, n_values = _merge_classes(classes, fixed)
    min_picks, search_exact = _equalizer_closure(groups, n, n_values, fixed, meter, min_mode)
    return tuple(min_picks), complete, search_exact


def _engine_of(
    maps, budget: EnumerationBudget | None, fixed: bool
) -> tuple[tuple[DigitalMap, ...], _Homotopy]:
    """The maps, checked to share one pair, and the one engine of their operation."""
    maps = _require_common_images(maps)
    if fixed:
        _require_self_maps(maps[0])
    return maps, _Homotopy(maps[0].domain, maps[0].codomain, budget)


def _classes_of(
    maps, budget: EnumerationBudget | None, fixed: bool
) -> tuple[HomotopyClass, ...]:
    maps, engine = _engine_of(maps, budget, fixed)
    return tuple(engine.class_of(f) for f in maps)


def _contractible_sizes(maps: tuple[DigitalMap, ...]) -> tuple[int, ...]:
    """HCS of maps out of a contractible X or into a complete Y, with no class and no search.

    Each class is every map into the component of Y that holds the map's
    image: X is connected, so that image lies in one component, or Y is
    complete, so it has one component and every function is continuous.
    Maps into two components agree nowhere; one map, or maps into one
    one-point component, agree everywhere.  Otherwise the component has an
    edge {a, b}: every map into it lies in the one class, so the constant at
    a with the map sending a chosen set of points to a and the rest to b
    realizes every size.  The component is read from Y's labels.
    """
    n = maps[0].domain.n_points
    if len(maps) == 1:
        return (n,)
    labels = maps[0].codomain._bfs[1]
    held = {labels[f.assignment[0]] for f in maps}
    if len(held) > 1:
        return (0,)
    if labels.count(held.pop()) == 1:
        return (n,)
    return tuple(range(n + 1))


def _sizes(
    engine: _Homotopy, maps: tuple[DigitalMap, ...], fixed: bool, min_mode: bool
) -> tuple[tuple[int, ...], bool, bool]:
    """As ``_search_classes`` for the classes of maps; no class if Y is complete or X contracts.

    There every class is every map into one component of Y, so HCS and MC
    take the closed form (``_contractible_sizes``), which charges no node,
    and every class of a self-map is Hom(X, X), so HFS is CFS_k(X): the
    streamed CFS search, on the engine's meter and result cap, with the
    arguments' own fixed-point sets, as bitmasks, added last if the map
    search is cut.
    """
    if engine.complete or engine.contractible:
        if fixed:
            own = [_fixed_mask(f.assignment) for f in maps]
            min_picks, complete, search_exact = _streamed_picks(
                engine.domain, engine.codomain, engine.meter, engine.max_results, len(maps),
                True, min_mode, own,
            )
            return tuple(min_picks), complete, search_exact
        return _contractible_sizes(maps), True, True
    classes = tuple(engine.class_of(f) for f in maps)
    return _search_classes(classes, engine.meter, fixed, min_mode)


def _result(
    sizes: tuple[int, ...], complete: bool, search_exact: bool, arity: int
) -> HomotopySpectrumResult:
    values = Spectrum(values=sizes, exact=complete and search_exact, i=arity)
    return HomotopySpectrumResult(
        values=values,
        classes_complete=complete,
        min_value=min(values.values) if values.values else None,
    )


def _spectrum_of_classes(
    classes, budget: EnumerationBudget | None, fixed: bool
) -> HomotopySpectrumResult:
    classes = tuple(classes)
    sizes = _search_classes(classes, Meter(budget), fixed, min_mode=False)
    return _result(*sizes, len(classes))


def _spectrum(maps, budget: EnumerationBudget | None, fixed: bool) -> HomotopySpectrumResult:
    maps, engine = _engine_of(maps, budget, fixed)
    return _result(*_sizes(engine, maps, fixed, min_mode=False), len(maps))


def _minimum(
    engine: _Homotopy, maps: tuple[DigitalMap, ...], fixed: bool
) -> tuple[int | None, bool]:
    """(least equalizer size, exact) for mc, mcf and m_j; stops at the first 0."""
    sizes, complete, search_exact = _sizes(engine, maps, fixed, min_mode=True)
    value = min(sizes) if sizes else None
    return value, (complete and search_exact) or value == 0


def hcs_of_classes(classes, budget: EnumerationBudget | None = None) -> HomotopySpectrumResult:
    """Achievable coincidence-set sizes with one map drawn from each class."""
    return _spectrum_of_classes(classes, budget, fixed=False)


def hfs_of_classes(classes, budget: EnumerationBudget | None = None) -> HomotopySpectrumResult:
    """As hcs_of_classes for common fixed points: the identity joins every equalizer."""
    return _spectrum_of_classes(classes, budget, fixed=True)


def hcs(maps, budget: EnumerationBudget | None = None) -> HomotopySpectrumResult:
    """Achievable coincidence-set sizes with every map free to move in its class."""
    return _spectrum(maps, budget, fixed=False)


def hfs(maps, budget: EnumerationBudget | None = None) -> HomotopySpectrumResult:
    """As hcs, but for common fixed points."""
    return _spectrum(maps, budget, fixed=True)


def mc(maps, budget: EnumerationBudget | None = None) -> tuple[int | None, bool]:
    """Minimum coincidence count over the classes; stops as soon as 0 is found.

    Returns (value, exact); an inexact value is an upper bound.
    """
    maps, engine = _engine_of(maps, budget, fixed=False)
    return _minimum(engine, maps, fixed=False)


def mcf(maps, budget: EnumerationBudget | None = None) -> tuple[int | None, bool]:
    """Minimum common-fixed-point count; the identity itself is never deformed."""
    maps, engine = _engine_of(maps, budget, fixed=True)
    return _minimum(engine, maps, fixed=True)


def m_j_of_map(
    f: DigitalMap, j: int, budget: EnumerationBudget | None = None
) -> tuple[int | None, bool]:
    """MC of j copies of f; for j = 1 this is #X by the singleton convention."""
    if j < 1:
        raise InvalidInputError(f"j must be >= 1, got {j}")
    if j == 1:
        return f.domain.n_points, True
    return mc([f] * j, budget)


def self_coincidence_sequence(
    x_img: DigitalImage, j_max: int, budget: EnumerationBudget | None = None
) -> SelfCoincidenceSequence:
    """m_j(X) = MC of j copies of the identity, for j = 1..j_max.

    One engine answers every j, so the identity's class, when X does not
    contract, is built once; its meter pays for every entry, so the budget
    bounds the whole sequence.  On a greedy-contractible X with #X >= 2,
    m_2 is 0 by the closed form of mc (the identity's class holds two
    distinct constants), which charges no node, so it is exact under any
    budget.  Once an exact 0
    appears the remaining entries are 0 (the witnessing selection still
    fits any larger j), so the search is not repeated.
    """
    if j_max < 1:
        raise InvalidInputError(f"j_max must be >= 1, got {j_max}")
    entries: list[tuple[int, int, bool]] = [(1, x_img.n_points, True)]
    engine = _Homotopy(x_img, x_img, budget)
    ident = identity(x_img)
    for j in range(2, j_max + 1):
        prev_j, prev_value, prev_exact = entries[-1]
        if prev_j >= 2 and prev_exact and prev_value == 0:
            entries.append((j, 0, True))
            continue
        value, exact = _minimum(engine, (ident,) * j, fixed=False)
        entries.append((j, value, exact))
    return SelfCoincidenceSequence(entries=tuple(entries))
