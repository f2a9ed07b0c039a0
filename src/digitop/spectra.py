"""Coincidence, fixed-point, and common-fixed-point spectra.

A coincidence set depends only on the *set* of distinct maps involved, so
instead of ranging over i-tuples the search ranges over selections of at
most i maps.  Its state is the running equalizer restriction: the agreed
value at each point, or None once agreement is broken.  For common fixed
points the identity joins every equalizer, so the state is the set of
common fixed points, a bitmask over the points that each pick ANDs with
its map's fixed-point set.  One breadth-first closure expands these
states in layers of total picks and keeps each distinct one once, so the
first layer that reaches a size gives the fewest picks realizing it,
which answers every arity up to the largest at once.  The closure is one
function, ``_equalizer_closure``: every spectrum here and in
``homotopy_spectra`` calls it once, and it keeps nothing past its
return.  It stops once every size it has not found is known
unreachable: at the full range 0..#X; when only #X is missing and no
selection can agree everywhere (the ceiling stop); and, for common fixed
points, when #X - 1 is missing (alone, or with an #X the ceiling
settles) and no continuous self-map fixes all points but one.  A common
fixed-point set of #X - 1 points needs such a map among its picks: they
all fix those points, and not all of them fix the last one, x.  A
self-map that fixes all but x and sends x to y is continuous iff y lies
in N[z] for every neighbor z of x, as every other edge joins two fixed
points, so X decides this once (``DigitalImage._fixes_all_but_one``),
charged to no meter.  F(cube) = 0..6, 8 then stops after 1 940 of the
15 488 self-maps.  A spectrum with a gap below #X - 1 stops at none of
these, so its closure exhausts.  Over a pool listed in full (the class
pools of ``homotopy_spectra``), the children of a state come from the
pool's value bitsets (``enumeration.value_bitsets``): the members are
split by whether they agree with the state at each point where it still
agrees, and each part is one distinct child, so no duplicate is built.
The groups are searched smallest pool first.

The closure reads its pool from the Hom-space search as it goes (a
``_Pool``, which is the ``results`` list of a resumable
``enumeration._Search``), not from a list built first: the search runs
only as far as the closure has walked, so every stop of the closure also
ends the enumeration, and a budgeted spectrum that stops before its
budget trips is exact.  The search and the closure are charged to one
meter, the operation's, so a node or time budget bounds the whole
spectrum.  The stream has one stop rule: it ends where the closure stops
or the meter trips, and no result cap cuts it.  The meter records a trip
(``Meter.stop``), and the operation reads it once, when it is done, so
no helper here reports whether it was stopped.  One function
(``_streamed_picks``) runs this for CS and CFS, and for HFS and MCF where
a greedy chain contracts X.  A pool of maps is not read to record #X,
which the constants of Hom(X, Y) always realize, so a budget that trips
before the first map still leaves CS_i at least {#X}.

The self-map spectra F(X) and CFS_i(X) depend only on each self-map's
fixed-point set, so they read the distinct fixed-point sets straight from
the map search, as the bitmasks it records, and build no self-map: the
CFS closure ANDs those masks, and F is CFS_1, their sizes, read until
every size not seen is known unreachable.
"""

from __future__ import annotations

from ._record import Record
from .enumeration import EnumerationBudget, Meter, _Search, value_bitsets
from .images import DigitalImage, _require_at_least, _require_int, is_totally_disconnected


class Spectrum(Record):
    """A set of achievable cardinalities; exact=False iff some budget tripped.

    ``i`` is the arity the spectrum was computed for (None for unions over
    i); ``stabilized_at`` is the smallest arity at which a union stopped
    growing, when that was established.
    """

    _fields = ("values", "exact", "i", "stabilized_at")
    values: tuple[int, ...]
    exact: bool
    i: int | None
    stabilized_at: int | None

    def __init__(
        self, values, exact: bool, i: int | None = None, stabilized_at: int | None = None
    ):
        object.__setattr__(self, "values", tuple(sorted(set(values))))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "stabilized_at", stabilized_at)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.values)


class _Stop(Exception):
    pass


class _Pool:
    """The members of one group, read from a map search as readers need them.

    The pool is the search's ``results`` (an ``enumeration._Search``), the
    one list it writes: the maps, or the distinct fixed-point sets as
    bitmasks, as the search records them.  A reader that walks past the
    end of that list resumes the search, one batch at a time, until the
    list grows or the search ends.  Each reader walks from a position of
    its own, so the search runs only as far as the furthest reader, and a
    closure that stops also stops the search.  Once the search has ended,
    readers walk the list itself.  The search has no result cap, so it
    ends cut only where the operation's meter trips, and the meter records
    that (``Meter.stop``): the pool keeps only the search's batches and
    list, holds no meter and reads no clock.  The search charges the
    operation's meter, as the closure that walks the pool does.
    """

    __slots__ = ("members", "done", "_batches")

    def __init__(self, search):
        self.done = False
        self._batches = search.batches()
        self.members = search.results

    def __iter__(self):
        return iter(self.members) if self.done else self._walk()

    def _walk(self):
        members = self.members
        i = 0
        while True:
            while i < len(members):
                yield members[i]
                i += 1
            if self.done:
                return
            self.done = next(self._batches, True) is True  # a batch yields None


def _equalizer_closure(
    groups,
    n_points: int,
    n_values: int,
    fixed: DigitalImage | None,
    meter: Meter,
    min_mode: bool = False,
) -> dict[int, int]:
    """Breadth-first closure of equalizer restrictions over groups of maps.

    Returns {achievable size: fewest picks realizing it}, cut short where
    ``meter`` trips, which the meter records (``Meter.stop``) for the
    operation to read.  ``groups`` is a sequence of (pool,
    multiplicity), each listed pool nonempty; a ``_Pool`` may end empty when
    the budget trips before its first member.  A valid selection picks
    between 1 and multiplicity maps from every group, and the value recorded
    is the size of the equalizer of everything picked (points where all
    picked maps agree).  Picks may repeat, since the equalizer of a multiset
    is that of its set.  The maps send ``n_points`` points to values below
    ``n_values``, the sizes of their domain and codomain, which the caller
    knows, so no member is read to find them.  ``fixed``, given for
    common fixed points, is the X whose continuous self-maps' fixed-point
    sets the pools hold: the identity joins every equalizer, so a map
    counts only through its agreement with the identity, its fixed-point
    set, and every pool then holds fixed-point sets as bitmasks over the
    points rather than maps.  The closure reads the pools as given and
    never copies or rewrites them, but searches the groups smallest pool
    first: group order changes no fewest picks, and layer one is the first
    pool.

    A state is what the picks so far agree on: without ``fixed`` a
    restriction, the agreed value at each point or None once agreement is
    broken; with ``fixed`` the bitmask of their common fixed points, so a
    pick is one ``&`` and a size one ``bit_count``.  States are expanded in
    layers of total picks, so the first layer that records a value holds its
    fewest picks, and the full-range, ceiling and min-mode stops are sound
    wherever they fire.  The closure stops once every size of 0..#X it has
    not recorded is known unreachable.  The ceiling stop settles #X: size
    #X needs every pick equal (or, with ``fixed``, every pick fixing every
    point), so it needs one state that agrees everywhere lying in every
    pool.  Pools may overlap (truncated classes, or classes a caller passes
    in), so this is tested, once, when nothing but #X and a settled #X - 1
    is missing (``_agree_everywhere``).  With ``fixed``, X settles #X - 1
    where no continuous self-map fixes all points but one
    (``DigitalImage._fixes_all_but_one``, read only when nothing but
    #X - 1 and #X is missing): a common fixed-point set of #X - 1 points
    needs one among its picks, since every pick fixes those points and
    not every pick fixes the last.  Coincidences of #X - 1 points need no
    such map, so a closure over maps never settles #X - 1.  Layer one is
    the first pool itself; with one group and no ``fixed``, its members
    are maps, each agreeing with itself everywhere, so it records #X
    without reading a member.  A pool may be a ``_Pool`` read from a map
    search, walked by every loop from a position of its own; it is then
    the only group.  A state reached again in its group with no fewer
    picks in that group is dropped: its first arrival came with no more
    picks in total and completes every selection the second would.

    The first state that expands against a pool walks its members, one
    child each.  Without ``fixed``, a later state against a listed pool of
    maps splits the pool by its value bitsets, built then (``_children``),
    into one part per distinct child, and walks one member of each part: a
    closure that stops inside its first expansion builds no bitset.  A
    ``_Pool`` and the fixed-point sets (one ``&`` a child) are always
    walked.  When the meter trips in layer one of a ``_Pool`` of
    fixed-point sets, the sets its search wrote before the trip are
    recorded with no node: their maps paid for them.  Each member of the
    pool costs one node on ``meter``, the meter of the operation, which a
    ``_Pool``'s search charges too: a walked state charges its members one
    at a time, a split state its whole pool in one addition before any
    child is recorded.  So a closure that exhausts, or stops between
    states, charges the same nodes either way, and a budget trips at the
    same total.
    """
    if len(groups) > 1:
        # the smallest pool first (a _Pool is always alone); group order
        # changes no fewest picks
        groups = sorted(groups, key=lambda group: len(group[0]))
    pools = [pool for pool, _ in groups]
    mults = [mult for _, mult in groups]
    min_picks: dict[int, int] = {}

    def record(value: int, picks: int) -> None:
        """Called only for a value not yet recorded, so ``picks`` is its fewest."""
        min_picks[value] = picks
        if min_mode and value == 0:
            raise _Stop
        # stop once every size not recorded is known unreachable: only #X - 1
        # and #X can be, and #X is tested last, as only it reads the pools
        found = len(min_picks)
        if found >= n_points - 1:
            low, top = n_points - 1 in min_picks, n_points in min_picks
            if (
                # the sizes not recorded are among #X - 1 and #X
                found + (not low) + (not top) == n_points + 1
                and (low or (fixed is not None and not fixed._fixes_all_but_one))
                and (top or not _agree_everywhere(pools, n_points, fixed is not None))
            ):
                raise _Stop

    last = len(pools) - 1
    # per group: state -> fewest picks in that group it was reached with
    seen: list[dict] = [{} for _ in pools]
    # listed pools of maps split their children from value bitsets, built
    # at the second state that expands against the pool
    split = fixed is None and not isinstance(pools[0], _Pool)
    expanded = [0] * len(pools)
    bitsets: list = [None] * len(pools)
    layer = {(0, 1): pools[0]}
    picks = 1
    try:
        if last == 0 and fixed is None:
            # one group of maps: every member agrees with itself everywhere
            record(n_points, picks)
        elif last == 0:
            # one group of fixed-point sets: layer one is recorded as it
            # stands, a node a member
            for r in pools[0]:
                meter.nodes += 1
                if meter.nodes >= meter.check_at and meter.over():
                    if isinstance(pools[0], _Pool):
                        # the sets the search wrote before it tripped, which
                        # their maps paid for, are recorded with no node
                        for size in map(int.bit_count, pools[0].members):
                            if size not in min_picks:
                                record(size, picks)
                    return min_picks
                size = r.bit_count()
                if size not in min_picks:
                    record(size, picks)
        while layer:
            picks += 1
            following: dict[tuple[int, int], list] = {}
            for (g, k), states in layer.items():
                targets = [(g + 1, 1)] if g < last else []
                if k < mults[g]:
                    targets.append((g, k + 1))
                for h, j in targets:
                    pool, group_seen = pools[h], seen[h]
                    records = h == last
                    # a state with no pick left anywhere is only recorded
                    keep = not (records and j == mults[h])
                    out = following.setdefault((h, j), [])
                    for r in states:
                        # a pick in the same group that breaks no agreement
                        # leaves r itself, already reached with fewer picks
                        unchanged = r if h == g else None
                        walk, charge = pool, 1
                        expanded[h] += 1
                        if split and expanded[h] > 1:
                            if bitsets[h] is None:
                                bitsets[h] = value_bitsets(pool, n_points, n_values)
                            # one member per distinct child, the pool charged in
                            # one addition
                            walk, charge = _children(r, pool, bitsets[h]), 0
                            meter.nodes += len(pool)
                        for m in walk:
                            meter.nodes += charge
                            if meter.nodes >= meter.check_at and meter.over():
                                return min_picks
                            if fixed is not None:
                                new = r & m
                                size = new.bit_count()
                            else:
                                new = tuple([v if v == w else None for v, w in zip(r, m)])
                                size = n_points - new.count(None)
                            if new == unchanged:
                                continue
                            if keep:
                                if group_seen.get(new, j + 1) <= j:
                                    continue
                                group_seen[new] = j
                                out.append(new)
                            if records and size not in min_picks:
                                record(size, picks)
            layer = {key: states for key, states in following.items() if states}
    except _Stop:
        pass
    return min_picks


def _agree_everywhere(pools: list, n: int, fixed: bool) -> bool:
    """Whether some state that agrees everywhere lies in every pool (size #X is reachable).

    A map agrees with itself everywhere; a fixed-point set agrees with
    the identity everywhere only if it holds every point.
    """
    rest = [set(pool) for pool in pools[1:]]
    full = (1 << n) - 1
    return any(
        (not fixed or r == full) and all(r in pool for pool in rest) for r in pools[0]
    )


def _children(r: tuple, pool: tuple, at: list[list[int]]) -> list[tuple]:
    """One member of pool per distinct equalizer restriction it leaves of r.

    ``at[p][v]`` is the bitset of the members that send p to v.  Splitting
    the members by whether they agree with r, at each point where r still
    agrees, leaves one part per distinct agreement set, so per distinct
    child; the lowest member of each part stands for it, and no other
    member is read.
    """
    parts = [(1 << len(pool)) - 1]
    for p, v in enumerate(r):
        if v is None:
            continue
        agree = at[p][v]
        halves = []
        for part in parts:
            inside = part & agree
            if inside and inside != part:
                halves += (inside, part ^ inside)
            else:
                halves.append(part)
        parts = halves
    return [pool[(part & -part).bit_length() - 1] for part in parts]


def _streamed_picks(
    domain: DigitalImage,
    codomain: DigitalImage,
    meter: Meter,
    arity: int,
    fixed: bool,
    min_mode: bool = False,
) -> dict[int, int]:
    """Search selections of at most ``arity`` maps in Hom(X, Y), read as the closure goes.

    Returns {achievable size: fewest picks realizing it}.  The pool is the
    search's one list, ``results``, read only as far as the closure walks
    it, so any stop of the closure (full range, ceiling, or with
    ``min_mode`` the first 0) also ends the enumeration.  No result cap
    cuts the search: the stream ends where the closure stops or ``meter``
    trips, and the meter records a trip (``Meter.stop``).  With
    ``fixed`` (Y is X) the identity joins every equalizer (common fixed
    points), so only the maps' distinct fixed-point sets matter: that list
    then holds those sets, as bitmasks, and no map is built.  The
    enumeration and the closure share the operation's meter, so its budget
    bounds their sum.  The fewest picks stay exact at a stop: layer one is
    #X alone for maps, which Hom(X, Y) always realizes since it holds the
    constants, and is read in full for fixed-point sets, and the first
    state of layer two reads the whole pool before the next starts.

    This is CS and CFS, and HFS and MCF where a greedy chain contracts X
    (every class is then Hom(X, X)).
    """
    search = _Search(domain, codomain, None, meter, "fixed" if fixed else "maps")
    return _equalizer_closure(
        [(_Pool(search), arity)],
        domain.n_points,
        codomain.n_points,
        domain if fixed else None,
        meter,
        min_mode,
    )


def _fewest_picks(
    x_img: DigitalImage,
    y_img: DigitalImage,
    arity: int,
    budget: EnumerationBudget | None,
    fixed: bool = False,
) -> tuple[dict[int, int], bool]:
    """``_streamed_picks`` on Hom(X, Y), or with ``fixed`` on Hom(X, X), under one budget.

    Returns ({achievable size: fewest picks realizing it}, exact); exact
    iff the budget stopped nothing, as the operation's meter records.  The
    result cap stops nothing here.
    """
    meter = Meter(budget)
    min_picks = _streamed_picks(x_img, x_img if fixed else y_img, meter, arity, fixed)
    return min_picks, meter.stop is None


def _within(min_picks: dict[int, int], i: int) -> tuple[int, ...]:
    """The sizes realized by at most i picks: CS_i (or CFS_i) from fewest picks."""
    return tuple(v for v, picks in min_picks.items() if picks <= i)


def _union(min_picks: dict[int, int], exact: bool, lowest: int, i_max: int) -> Spectrum:
    """The union over arities lowest..i_max, with the arity where it stops growing.

    The stabilization arity is only claimed when the search was exact.
    """
    values = _within(min_picks, i_max)
    stabilized = None
    if exact:
        full = set(values)
        stabilized = i_max
        while stabilized > lowest and set(_within(min_picks, stabilized - 1)) == full:
            stabilized -= 1
    return Spectrum(values=values, exact=exact, i=None, stabilized_at=stabilized)


def coincidence_spectrum(
    x_img: DigitalImage,
    y_img: DigitalImage,
    i: int,
    budget: EnumerationBudget | None = None,
) -> Spectrum:
    """CS_i: achievable coincidence-set sizes over i-tuples of maps X -> Y.

    For i = 1 the answer is {#X} (a lone map agrees with itself everywhere).
    When Y contains an adjacent pair {a, b}, every function into {a, b} is
    continuous, so pairing the constant at a with the map sending an
    arbitrary k-subset to a realizes every size; the spectrum is all of
    {0, ..., #X} for every i >= 2 and no search is needed.
    """
    if _require_int(i, "arity") >= 2 and not is_totally_disconnected(y_img):
        return Spectrum(values=tuple(range(x_img.n_points + 1)), exact=True, i=i)
    return coincidence_spectrum_by_search(x_img, y_img, i, budget)


def coincidence_spectrum_by_search(
    x_img: DigitalImage,
    y_img: DigitalImage,
    i: int,
    budget: EnumerationBudget | None = None,
) -> Spectrum:
    """CS_i by the equalizer closure, with no structural shortcut."""
    _require_at_least(i, 1, "arity")
    min_picks, exact = _fewest_picks(x_img, y_img, i, budget)
    return Spectrum(values=_within(min_picks, i), exact=exact, i=i)


def coincidence_spectrum_union(
    x_img: DigitalImage,
    y_img: DigitalImage,
    i_max: int,
    budget: EnumerationBudget | None = None,
) -> Spectrum:
    """CS(X,Y) up to arity i_max, with the stabilization arity when established.

    With an adjacent pair in Y all arities >= 2 coincide at {0, ..., #X},
    so the union stabilizes at 2.  Otherwise one search at arity i_max
    tracks the fewest picks realizing each value, which recovers every
    CS_i <= i_max and hence the first arity where the union stops growing.
    """
    _require_at_least(i_max, 2, "i_max")
    if not is_totally_disconnected(y_img):
        values = tuple(range(x_img.n_points + 1))
        return Spectrum(values=values, exact=True, i=None, stabilized_at=2)
    min_picks, exact = _fewest_picks(x_img, y_img, i_max, budget)
    return _union(min_picks, exact, 2, i_max)


def coincidence_spectra_by_arity(
    x_img: DigitalImage,
    y_img: DigitalImage,
    i_max: int,
    budget: EnumerationBudget | None = None,
) -> dict[int, Spectrum]:
    """CS_i for every 2 <= i <= i_max from one stratified search, no shortcut.

    A value realized by a k-map selection belongs to CS_i for every i >= k,
    so tracking the fewest picks per value recovers the whole family.
    """
    _require_at_least(i_max, 2, "i_max")
    min_picks, exact = _fewest_picks(x_img, y_img, i_max, budget)
    return {
        i: Spectrum(values=_within(min_picks, i), exact=exact, i=i)
        for i in range(2, i_max + 1)
    }


def fixed_point_spectrum(
    x_img: DigitalImage, budget: EnumerationBudget | None = None
) -> Spectrum:
    """F(X): achievable fixed-point counts over continuous self-maps.

    F is CFS_1: the sizes of the distinct fixed-point sets the map search
    records, read until every size not seen is known unreachable; no
    self-map is built.  An answer that holds every size a self-map can
    reach is exact even when a budget cut the search short: all of 0..#X,
    or all but #X - 1 where no self-map fixes all points but one
    (``DigitalImage._fixes_all_but_one``).
    """
    min_picks, exact = _fewest_picks(x_img, x_img, 1, budget, fixed=True)
    values = _within(min_picks, 1)
    if not exact:
        # every size of 0..#X, but #X - 1 where no self-map fixes all points but one
        exact = len(values) == x_img.n_points + x_img._fixes_all_but_one
    return Spectrum(values=values, exact=exact)


def common_fixed_spectrum(
    x_img: DigitalImage,
    i: int,
    budget: EnumerationBudget | None = None,
) -> Spectrum:
    """CFS_i: achievable common-fixed-point counts over i-tuples of self-maps.

    The identity is baked into every equalizer, so only fixed-point sets of
    the chosen maps matter.
    """
    _require_at_least(i, 1, "arity")
    min_picks, exact = _fewest_picks(x_img, x_img, i, budget, fixed=True)
    return Spectrum(values=_within(min_picks, i), exact=exact, i=i)


def common_fixed_spectrum_union(
    x_img: DigitalImage, i_max: int, budget: EnumerationBudget | None = None
) -> Spectrum:
    """CFS(X) up to arity i_max, with the stabilization arity when established."""
    _require_at_least(i_max, 1, "i_max")
    min_picks, exact = _fewest_picks(x_img, x_img, i_max, budget, fixed=True)
    return _union(min_picks, exact, 1, i_max)
