"""Spectra over homotopy classes: HCS, HFS, MC, MCF, and the sequence m_j.

Each argument map may be deformed within its homotopy class, so the search
ranges over selections from the classes.  Tuples again reduce to sets: a
set S of distinct maps is realizable iff one member per class can be picked
(with repetition up to that class's multiplicity in the argument list)
whose union is S.  Equal classes are merged first into groups with
multiplicities, and the spectra module's breadth-first closure over
equalizer restrictions runs over those groups.
"""

from __future__ import annotations

from ._record import Record
from .enumeration import EnumerationBudget
from .errors import InvalidInputError
from .homotopy import HomotopyClass, _Homotopy
from .images import DigitalImage
from .maps import DigitalMap, identity
from .spectra import Spectrum, _EqualizerSearch


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

    A None value means the budget tripped before anything was recorded.
    """

    _fields = ("entries",)
    entries: tuple[tuple[int, int | None, bool], ...]

    def __init__(self, entries: tuple[tuple[int, int | None, bool], ...]):
        object.__setattr__(self, "entries", entries)


def _merge_classes(classes) -> tuple[list[tuple[tuple, int]], bool, int]:
    """Group equal classes with multiplicities; returns (groups, complete, #X).

    A class object repeated in the list has its assignment pool built once.
    """
    first = classes[0].representative
    for cls in classes[1:]:
        rep = cls.representative
        if rep.domain != first.domain or rep.codomain != first.codomain:
            raise InvalidInputError("all classes must share domain and codomain")
    repeats: dict[int, list] = {}
    for cls in classes:
        entry = repeats.setdefault(id(cls), [cls, 0])
        entry[1] += 1
    groups: dict[tuple, int] = {}
    for cls, count in repeats.values():
        pool = tuple(m.assignment for m in cls.members)
        groups[pool] = groups.get(pool, 0) + count
    complete = all(cls.complete for cls, _ in repeats.values())
    return list(groups.items()), complete, first.domain.n_points


def _require_self_maps(f: DigitalMap) -> None:
    if not f.is_self_map():
        raise InvalidInputError("common fixed points are defined for self-maps only")


def _search_classes(
    classes: tuple[HomotopyClass, ...],
    budget: EnumerationBudget | None,
    fixed: bool,
    min_mode: bool,
) -> tuple[dict[int, int], bool, bool]:
    """Equalizer search over one map drawn from each class.

    Returns ({size: fewest picks}, classes complete, search exact).  With
    ``fixed`` the identity joins every equalizer (common fixed points);
    ``min_mode`` stops at the first empty equalizer.
    """
    if not classes:
        raise InvalidInputError("need at least one homotopy class")
    if fixed:
        _require_self_maps(classes[0].representative)
    groups, complete, n = _merge_classes(classes)
    search = _EqualizerSearch(groups, n, fixed, budget, min_mode)
    min_picks, search_exact = search.run()
    return min_picks, complete, search_exact


def _classes_of(
    maps, budget: EnumerationBudget | None, fixed: bool
) -> tuple[HomotopyClass, ...]:
    maps = tuple(maps)
    if not maps:
        raise InvalidInputError("need at least one map")
    if fixed:
        _require_self_maps(maps[0])
    if any(f.domain != maps[0].domain or f.codomain != maps[0].codomain for f in maps):
        raise InvalidInputError("all classes must share domain and codomain")
    engine = _Homotopy(maps[0].domain, maps[0].codomain, budget)
    return tuple(engine.class_of(f) for f in maps)


def _spectrum_of_classes(
    classes, budget: EnumerationBudget | None, fixed: bool
) -> HomotopySpectrumResult:
    classes = tuple(classes)
    min_picks, complete, search_exact = _search_classes(
        classes, budget, fixed, min_mode=False
    )
    values = Spectrum(
        values=tuple(min_picks), exact=complete and search_exact, i=len(classes)
    )
    return HomotopySpectrumResult(
        values=values,
        classes_complete=complete,
        min_value=min(values.values) if values.values else None,
    )


def _minimum_of_classes(
    classes, budget: EnumerationBudget | None, fixed: bool
) -> tuple[int | None, bool]:
    """(least equalizer size, exact) for mc, mcf and m_j; stops at the first 0."""
    min_picks, complete, search_exact = _search_classes(
        tuple(classes), budget, fixed, min_mode=True
    )
    value = min(min_picks) if min_picks else None
    return value, (complete and search_exact) or value == 0


def hcs_of_classes(classes, budget: EnumerationBudget | None = None) -> HomotopySpectrumResult:
    """Achievable coincidence-set sizes with one map drawn from each class."""
    return _spectrum_of_classes(classes, budget, fixed=False)


def hfs_of_classes(classes, budget: EnumerationBudget | None = None) -> HomotopySpectrumResult:
    """As hcs_of_classes for common fixed points: the identity joins every equalizer."""
    return _spectrum_of_classes(classes, budget, fixed=True)


def hcs(maps, budget: EnumerationBudget | None = None) -> HomotopySpectrumResult:
    """Achievable coincidence-set sizes with every map free to move in its class."""
    return hcs_of_classes(_classes_of(maps, budget, fixed=False), budget)


def hfs(maps, budget: EnumerationBudget | None = None) -> HomotopySpectrumResult:
    """As hcs, but for common fixed points."""
    return hfs_of_classes(_classes_of(maps, budget, fixed=True), budget)


def mc(maps, budget: EnumerationBudget | None = None) -> tuple[int | None, bool]:
    """Minimum coincidence count over the classes; stops as soon as 0 is found.

    Returns (value, exact); an inexact value is an upper bound.
    """
    return _minimum_of_classes(_classes_of(maps, budget, fixed=False), budget, fixed=False)


def mcf(maps, budget: EnumerationBudget | None = None) -> tuple[int | None, bool]:
    """Minimum common-fixed-point count; the identity itself is never deformed."""
    return _minimum_of_classes(_classes_of(maps, budget, fixed=True), budget, fixed=True)


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

    If a greedy chain contracts X and #X >= 2, every m_j with j >= 2 is 0
    with no class and no search: the identity's class holds two distinct
    constants, whose equalizer is empty.  The chain is charged to the
    budget.  Otherwise the same engine builds the identity's class on the
    same meter, so that search runs once.  Once an
    exact 0 appears the remaining entries are 0 (the witnessing selection
    still fits any larger j), so the search is not repeated.
    """
    if j_max < 1:
        raise InvalidInputError(f"j_max must be >= 1, got {j_max}")
    entries: list[tuple[int, int | None, bool]] = [(1, x_img.n_points, True)]
    engine = _Homotopy(x_img, x_img, budget)
    if x_img.n_points >= 2 and engine.contractible:
        entries += [(j, 0, True) for j in range(2, j_max + 1)]
        return SelfCoincidenceSequence(entries=tuple(entries))
    cls = engine.class_of(identity(x_img))
    for j in range(2, j_max + 1):
        prev_j, prev_value, prev_exact = entries[-1]
        if prev_j >= 2 and prev_exact and prev_value == 0:
            entries.append((j, 0, True))
            continue
        value, exact = _minimum_of_classes([cls] * j, budget, fixed=False)
        entries.append((j, value, exact))
    return SelfCoincidenceSequence(entries=tuple(entries))
