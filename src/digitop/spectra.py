"""Coincidence, fixed-point, and common-fixed-point spectra.

A coincidence set depends only on the *set* of distinct maps involved, so
instead of ranging over i-tuples the search ranges over selections of at
most i maps.  Its state is the running equalizer restriction: the agreed
value at each point, or None once agreement is broken.  One breadth-first
closure expands these restrictions in layers of total picks and keeps each
distinct one once, so the first layer that reaches a size gives the fewest
picks realizing it, which answers every arity up to the largest at once.
The closure stops once nothing larger can be found: at the full range
0..#X, or at 0..#X - 1 when no selection can agree everywhere (the
ceiling stop; see ``_EqualizerSearch``).

The closure reads its pool from the Hom-space search as it goes (a
``_Pool`` on a resumable ``enumeration._Search``), not from a list built
first: the search runs only as far as the closure has walked, so every
stop of the closure also ends the enumeration, and a budgeted spectrum
that stops before its budget trips is exact.  The search and the closure
are charged to one meter, the operation's, so a node or time budget
bounds the whole spectrum.  One driver (``_streamed_picks``) runs this for
CS and CFS, and for HFS and MCF where a greedy chain contracts X.

The self-map spectra F(X) and CFS_i(X) depend only on each self-map's
fixed-point set, so they read the distinct fixed-point sets straight from
the map search and build no self-map: the CFS closure starts from their
restrictions, and F is CFS_1, their sizes, read until all of 0..#X is seen.
"""

from __future__ import annotations

from itertools import islice

from ._record import Record
from .enumeration import UNLIMITED, EnumerationBudget, Meter, _Search
from .errors import InvalidInputError
from .images import DigitalImage, is_totally_disconnected

Restriction = tuple  # per-point agreed value, None once agreement is broken


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

    The pool holds what its search (an ``enumeration._Search``) has emitted
    so far: the maps, or with ``fixed_sets`` the restrictions of the
    distinct fixed-point sets, and it resumes the search whenever a reader
    walks past its end.  Each reader walks from a position of its own, so
    the search runs only as far as the furthest reader, and a closure that
    stops also stops the search.  Once the search has ended, readers walk
    the list itself.  If it ended cut by its budget or result cap, the
    restrictions of ``tail`` (fixed-point sets as bitmasks) not yet read
    join last, and ``exact`` is False.  The pool holds no meter and reads
    no clock: the search charges the operation's meter, as the closure
    that walks the pool does.
    """

    __slots__ = ("members", "done", "_search", "_batches", "_n", "_read", "_tail")

    def __init__(self, search, n_points: int, tail=()):
        self.done = False
        self._search = search
        self._batches = search.batches()
        self._n = n_points
        self._read = 0  # fixed-point sets already read
        self._tail = tail
        # the maps of a collecting search are its members as they stand
        self.members = search.results if search.fixed_sets is None else []

    @property
    def exact(self) -> bool:
        """False iff the search was cut short."""
        return self._search.exhausted

    @property
    def restrictions(self) -> bool:
        """True iff the members are fixed-point restrictions rather than maps."""
        return self._search.fixed_sets is not None

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
            self._grow()

    def _grow(self) -> None:
        """Resume the search until it emits something new, or ends, and read it."""
        search = self._search
        sets = search.fixed_sets
        emitted = search.results if sets is None else sets
        before = len(emitted)
        for _ in self._batches:
            if len(emitted) > before:
                break
        else:
            self.done = True
        if sets is None:
            return
        new = list(islice(reversed(sets), len(sets) - self._read))[::-1]
        if self.done and not search.exhausted:
            new += [s for s in dict.fromkeys(self._tail) if s not in sets]
        self._read = len(sets)
        self.members += _fixed_restrictions(new, self._n)


class _EqualizerSearch:
    """Breadth-first closure of equalizer restrictions over groups of maps.

    ``groups`` is a sequence of (pool, multiplicity): a valid selection picks
    between 1 and multiplicity maps from every group, and the value recorded
    is the size of the equalizer of everything picked (points where all
    picked maps agree).  Picks may repeat, since the equalizer of a multiset
    is that of its set.  With ``fixed`` the identity joins every equalizer,
    so a map counts only through its agreement with the identity, and every
    pool must hold fixed-point restrictions (each fixed point kept, the
    rest None) rather than maps; the search reads its pools as given and
    never rewrites them.  A ``_Pool`` is checked to hold restrictions
    exactly when ``fixed`` is set.

    A state is a restriction: the agreed value at each point, or None once
    agreement is broken.  States are expanded in layers of total picks, so
    the first layer that records a value holds its fewest picks, and the
    full-range, ceiling and min-mode stops are sound wherever they fire.
    The ceiling stop: size #X needs every pick equal (or, with ``fixed``,
    every pick the identity's restriction), so it needs one unbroken
    restriction lying in every pool.  With none, 0..#X - 1 is everything
    reachable.  Pools may overlap (truncated classes, or classes a caller
    passes in), so this is tested, once, when only #X is missing.  Layer one
    is the first pool itself; with one group and ``fixed`` off, its members
    are maps, each agreeing with itself everywhere, so it records #X and is
    not walked.  A pool may be a ``_Pool`` read from a map search,
    walked by every loop from a position of its own.  A state reached again
    in its group with no fewer picks in that group is dropped: its first
    arrival came with no more picks in total and completes every selection
    the second would.  Every state built costs one node on ``meter``, the
    meter of the operation, which a ``_Pool``'s search charges too.
    """

    def __init__(
        self,
        groups,
        n_points: int,
        fixed: bool,
        meter: Meter,
        min_mode: bool = False,
    ):
        self.pools: list = []  # tuples of members, or _Pools
        self.mults: list[int] = []
        for pool, mult in groups:
            if isinstance(pool, _Pool):
                if pool.restrictions != fixed:
                    raise InvalidInputError(
                        "a pool of fixed-point sets needs fixed, and a pool of maps needs it off"
                    )
            else:
                pool = tuple(pool)
                if not pool:
                    raise InvalidInputError("every group needs a nonempty pool")
            self.pools.append(pool)
            self.mults.append(mult)
        self.n = n_points
        self.fixed = fixed
        self.min_mode = min_mode
        self.meter = meter
        self.exact = True
        self.min_picks: dict[int, int] = {}

    def run(self) -> tuple[dict[int, int], bool]:
        """Returns ({achievable size: fewest picks realizing it}, exact)."""
        try:
            self._close()
        except _Stop:
            pass
        return self.min_picks, self.exact

    def _record(self, value: int, picks: int):
        """Called only for a value not yet recorded, so ``picks`` is its fewest."""
        min_picks, n = self.min_picks, self.n
        min_picks[value] = picks
        if (self.min_mode and value == 0) or len(min_picks) == n + 1:
            raise _Stop
        if len(min_picks) == n and n not in min_picks and not self._agree_everywhere():
            raise _Stop

    def _agree_everywhere(self) -> bool:
        """Whether some unbroken restriction lies in every pool (size #X is reachable)."""
        rest = [set(pool) for pool in self.pools[1:]]
        return any(
            None not in r and all(r in pool for pool in rest) for r in self.pools[0]
        )

    def _close(self):
        pools, mults, meter, min_picks, n = (
            self.pools, self.mults, self.meter, self.min_picks, self.n
        )
        last = len(pools) - 1
        # per group: restriction -> fewest picks in that group it was reached with
        seen: list[dict[Restriction, int]] = [{} for _ in pools]
        layer = {(0, 1): pools[0]}
        picks = 1
        if last == 0 and not self.fixed:
            # one group of maps: every member agrees with itself everywhere
            self._record(n, picks)
        elif last == 0:
            # one group of fixed-point restrictions: layer one is recorded
            # as it stands, a node a member
            for r in pools[0]:
                meter.nodes += 1
                if meter.nodes >= meter.check_at and meter.over():
                    self.exact = False
                    raise _Stop
                size = n - r.count(None)
                if size not in min_picks:
                    self._record(size, picks)
        while layer:
            picks += 1
            following: dict[tuple[int, int], list[Restriction]] = {}
            for (g, k), states in layer.items():
                targets = [(g + 1, 1)] if g < last else []
                if k < mults[g]:
                    targets.append((g, k + 1))
                for h, j in targets:
                    pool, group_seen = pools[h], seen[h]
                    record = h == last
                    # a state with no pick left anywhere is only recorded
                    keep = not (record and j == mults[h])
                    out = following.setdefault((h, j), [])
                    for r in states:
                        # a pick in the same group that breaks no agreement
                        # leaves r itself, already reached with fewer picks
                        unchanged = r.count(None) if h == g else -1
                        for m in pool:
                            meter.nodes += 1
                            if meter.nodes >= meter.check_at and meter.over():
                                self.exact = False
                                raise _Stop
                            new = tuple([v if v == w else None for v, w in zip(r, m)])
                            broken = new.count(None)
                            if broken == unchanged:
                                continue
                            if keep:
                                if group_seen.get(new, j + 1) <= j:
                                    continue
                                group_seen[new] = j
                                out.append(new)
                            if record and n - broken not in min_picks:
                                self._record(n - broken, picks)
            layer = {key: states for key, states in following.items() if states}


def _fixed_restrictions(sets, n_points: int) -> list[Restriction]:
    """Fixed-point sets (bitmasks) as restrictions: each fixed point kept, the rest None."""
    points = range(n_points)
    return [tuple([x if s >> x & 1 else None for x in points]) for s in sets]


def _streamed_picks(
    domain: DigitalImage,
    codomain: DigitalImage,
    meter: Meter,
    max_results: int | None,
    arity: int,
    fixed: bool,
    min_mode: bool = False,
    tail=(),
) -> tuple[dict[int, int], bool, bool]:
    """Search selections of at most ``arity`` maps in Hom(X, Y), read as the closure goes.

    Returns ({achievable size: fewest picks realizing it}, pool complete,
    closure exact).  The pool is read from the map search only as far as
    the closure walks it, so any stop of the closure (full range, ceiling,
    or with ``min_mode`` the first 0) also ends the enumeration, and
    ``max_results`` caps the maps it reads.  With ``fixed`` (Y is X) the
    identity joins every equalizer (common fixed points), so only the
    maps' distinct fixed-point sets matter: the search records those sets
    and builds no map, and the pool is their restrictions.  A cut search
    then adds the sets of ``tail`` (bitmasks) last.  The enumeration and
    the closure share the operation's meter, so its budget bounds their
    sum.  The fewest picks stay exact at a stop: layer one is #X alone for
    maps and is read in full for fixed-point sets, and the first state of
    layer two reads the whole pool before the next starts.

    This is CS and CFS, and HFS and MCF where a greedy chain contracts X
    (every class is then Hom(X, X)).
    """
    search = _Search(
        domain, codomain, None, meter, collect=not fixed, max_results=max_results,
        fixed_sets=fixed,
    )
    n = domain.n_points
    pool = _Pool(search, n, tail)
    if next(iter(pool), None) is None:
        # constants always exist, so an empty pool means the budget tripped
        return {}, False, True
    min_picks, search_exact = _EqualizerSearch(
        [(pool, arity)], n, fixed, meter, min_mode
    ).run()
    return min_picks, pool.exact, search_exact


def _fewest_picks(
    x_img: DigitalImage,
    y_img: DigitalImage,
    arity: int,
    budget: EnumerationBudget | None,
    fixed: bool = False,
) -> tuple[dict[int, int], bool]:
    """``_streamed_picks`` on Hom(X, Y), or with ``fixed`` on Hom(X, X), under one budget.

    Returns ({achievable size: fewest picks realizing it}, exact); exact
    iff neither the enumeration nor the closure was cut.
    """
    budget = budget or UNLIMITED
    min_picks, complete, search_exact = _streamed_picks(
        x_img, x_img if fixed else y_img, Meter(budget), budget.max_results, arity, fixed
    )
    return min_picks, complete and search_exact


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
    if i >= 2 and not is_totally_disconnected(y_img):
        return Spectrum(values=tuple(range(x_img.n_points + 1)), exact=True, i=i)
    return coincidence_spectrum_by_search(x_img, y_img, i, budget)


def coincidence_spectrum_by_search(
    x_img: DigitalImage,
    y_img: DigitalImage,
    i: int,
    budget: EnumerationBudget | None = None,
) -> Spectrum:
    """CS_i by the equalizer closure, with no structural shortcut."""
    if i < 1:
        raise InvalidInputError(f"arity must be >= 1, got {i}")
    if i == 1:
        return Spectrum(values=(x_img.n_points,), exact=True, i=1)
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
    if i_max < 2:
        raise InvalidInputError(f"i_max must be >= 2, got {i_max}")
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
    if i_max < 2:
        raise InvalidInputError(f"i_max must be >= 2, got {i_max}")
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
    records, read until all of 0..#X is seen; no self-map is built.  All
    of 0..#X is exact even when a budget cut the search short.
    """
    min_picks, exact = _fewest_picks(x_img, x_img, 1, budget, fixed=True)
    values = _within(min_picks, 1)
    return Spectrum(values=values, exact=exact or len(values) == x_img.n_points + 1)


def common_fixed_spectrum(
    x_img: DigitalImage,
    i: int,
    budget: EnumerationBudget | None = None,
) -> Spectrum:
    """CFS_i: achievable common-fixed-point counts over i-tuples of self-maps.

    The identity is baked into every equalizer, so only fixed-point sets of
    the chosen maps matter.
    """
    if i < 1:
        raise InvalidInputError(f"arity must be >= 1, got {i}")
    min_picks, exact = _fewest_picks(x_img, x_img, i, budget, fixed=True)
    return Spectrum(values=_within(min_picks, i), exact=exact, i=i)


def common_fixed_spectrum_union(
    x_img: DigitalImage, i_max: int, budget: EnumerationBudget | None = None
) -> Spectrum:
    """CFS(X) up to arity i_max, with the stabilization arity when established."""
    if i_max < 1:
        raise InvalidInputError(f"i_max must be >= 1, got {i_max}")
    min_picks, exact = _fewest_picks(x_img, x_img, i_max, budget, fixed=True)
    return _union(min_picks, exact, 1, i_max)
