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

An operation on maps makes one homotopy engine (``_Homotopy``).  HCS and
MC of one map are {#X}, since a lone map agrees with itself everywhere,
and the engine builds no class for them.  Otherwise the operation asks
the engine whether every two points of the codomain Y are adjacent, or a
greedy chain contracts the domain X, which X decides once and charges to
no budget.  If either holds, every class is all of Hom(X, K) for the component K of Y that
holds the map's image, and no class is built: HCS and MC follow from Y's
component labels alone (``_contractible_sizes``), and HFS and MCF are
CFS_k(X), answered by the same streamed search as CFS
(``spectra._streamed_picks``), which no result cap cuts.  Otherwise the
same engine builds the classes.  The engine's meter pays for everything
the operation does, the equalizer search included, so a node or time
budget bounds the whole operation, and it is the one record of whether
the budget stopped it (``Meter.stop``): the helpers here return sizes and
whether the classes are complete, and the operation reads its meter once,
at the end, for ``exact``.  ``hcs_of_classes`` and ``hfs_of_classes``
always search the classes they are given, on a meter of their own.
"""

from __future__ import annotations

from ._record import Record
from .enumeration import EnumerationBudget, Meter
from .errors import InvalidInputError
from .homotopy import HomotopyClass, _Homotopy
from .images import DigitalImage, _require_at_least
from .maps import DigitalMap, _require_common_images, identity
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


def _require_self_maps(f: DigitalMap) -> None:
    if not f.is_self_map():
        raise InvalidInputError("common fixed points are defined for self-maps only")


def _search_classes(
    classes: tuple[HomotopyClass, ...],
    meter: Meter,
    fixed: bool,
    min_mode: bool,
) -> tuple[tuple[int, ...], bool]:
    """Equalizer closure over one map drawn from each class, charged to ``meter``.

    Returns (sizes found, classes complete); a trip of ``meter`` cuts the
    search, and the meter records it.  With ``fixed`` the identity joins
    every equalizer (common fixed points); ``min_mode`` stops at the first
    empty equalizer.

    This builds every class pool the equalizer closure reads.  Repeats of
    one class object make one group, with their count as its multiplicity;
    one engine returns one object per class, so the repeated maps of an
    operation make one group.  Equal but distinct class objects make two
    groups of one pool; those admit the same sets of distinct maps as one
    group with the summed multiplicity, so every value and minimum is the
    same, and only node counts can differ.  A group's pool is its class's
    ``assignments``, as they are, so no map is built and no member is
    read; with ``fixed`` it is instead the class's distinct fixed-point
    sets as bitmasks, which the class keeps, so a class is collapsed once
    however many searches read it.  A class with no member is rejected:
    the public ``HomotopyClass`` constructor accepts one, and the closure
    needs every listed pool nonempty.
    """
    if not classes:
        raise InvalidInputError("need at least one homotopy class")
    first = classes[0].representative
    if fixed:
        _require_self_maps(first)
    counts: dict[int, list] = {}
    for cls in classes:
        rep = cls.representative
        if rep.domain != first.domain or rep.codomain != first.codomain:
            raise InvalidInputError("all classes must share domain and codomain")
        if not cls.assignments:
            raise InvalidInputError("every class needs a member")
        counts.setdefault(id(cls), [cls, 0])[1] += 1
    groups = [(cls._fixed_masks if fixed else cls.assignments, k) for cls, k in counts.values()]
    min_picks = _equalizer_closure(
        groups,
        first.domain.n_points,
        first.codomain.n_points,
        first.domain if fixed else None,
        meter,
        min_mode,
    )
    return tuple(min_picks), all(cls.complete for cls in classes)


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
    Maps into two components agree nowhere; maps into one one-point
    component agree everywhere.  Otherwise the component has an edge
    {a, b}: every map into it lies in the one class, so with two maps or
    more the constant at a with the map sending a chosen set of points to
    a and the rest to b realizes every size.  The component is read from
    Y's labels.  ``_sizes`` answers one map before it gets here.
    """
    n = maps[0].domain.n_points
    labels = maps[0].codomain._bfs[1]
    held = {labels[f.assignment[0]] for f in maps}
    if len(held) > 1:
        return (0,)
    if labels.count(held.pop()) == 1:
        return (n,)
    return tuple(range(n + 1))


def _sizes(
    engine: _Homotopy, maps: tuple[DigitalMap, ...], fixed: bool, min_mode: bool
) -> tuple[tuple[int, ...], bool]:
    """As ``_search_classes`` for the classes of maps, with no class where none is needed.

    One map agrees with itself everywhere, so its HCS and MC are {#X}, with
    no class and no node.  If Y is complete or X contracts, every class is
    every map into one component of Y, so HCS and MC take the closed form
    (``_contractible_sizes``), which charges no node, and every class of a
    self-map is Hom(X, X), so HFS is CFS_k(X): the streamed CFS search on
    the engine's meter.  These routes list no class, so they report the
    classes complete, and the engine's result cap, which caps a class's
    members, does not apply to them.
    """
    if len(maps) == 1 and not fixed:
        return (engine.domain.n_points,), True
    if engine.complete or engine.contractible:
        if fixed:
            x_img, meter = engine.domain, engine.meter
            return tuple(_streamed_picks(x_img, x_img, meter, len(maps), True, min_mode)), True
        return _contractible_sizes(maps), True
    classes = tuple(engine.class_of(f) for f in maps)
    return _search_classes(classes, engine.meter, fixed, min_mode)


def _result(
    sizes: tuple[int, ...], complete: bool, meter: Meter, arity: int
) -> HomotopySpectrumResult:
    """An operation's spectrum; exact iff every class is whole and the meter never tripped."""
    values = Spectrum(values=sizes, exact=complete and meter.stop is None, i=arity)
    return HomotopySpectrumResult(
        values=values,
        classes_complete=complete,
        min_value=min(values.values) if values.values else None,
    )


def _spectrum_of_classes(
    classes, budget: EnumerationBudget | None, fixed: bool
) -> HomotopySpectrumResult:
    classes = tuple(classes)
    meter = Meter(budget)
    return _result(*_search_classes(classes, meter, fixed, min_mode=False), meter, len(classes))


def _spectrum(maps, budget: EnumerationBudget | None, fixed: bool) -> HomotopySpectrumResult:
    maps, engine = _engine_of(maps, budget, fixed)
    return _result(*_sizes(engine, maps, fixed, min_mode=False), engine.meter, len(maps))


def _minimum(
    engine: _Homotopy, maps: tuple[DigitalMap, ...], fixed: bool
) -> tuple[int | None, bool]:
    """(least equalizer size, exact) for mc, mcf and m_j; stops at the first 0."""
    sizes, complete = _sizes(engine, maps, fixed, min_mode=True)
    value = min(sizes) if sizes else None
    return value, (complete and engine.meter.stop is None) or value == 0


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
    _require_at_least(j, 1, "j")
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
    _require_at_least(j_max, 1, "j_max")
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
