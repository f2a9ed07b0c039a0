"""Coincidence, fixed-point, and common-fixed-point spectra.

A coincidence set depends only on the *set* of distinct maps involved, so
instead of ranging over i-tuples the search ranges over nonempty sets of at
most i maps.  The search state is the running equalizer: the points where
all chosen maps still agree, together with the agreed value at each.  Two
candidate maps that shrink the state identically are interchangeable, which
collapses most of the branching.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import EnumerationBudget, Meter, enumerate_assignments
from .errors import InvalidInputError
from .images import DigitalImage, is_totally_disconnected

Assignment = tuple[int, ...]
Restriction = tuple  # per-point agreed value, None once agreement is broken


@dataclass(frozen=True)
class Spectrum:
    """A set of achievable cardinalities; exact=False iff some budget tripped.

    ``i`` is the arity the spectrum was computed for (None for unions over
    i); ``stabilized_at`` is the smallest arity at which a union stopped
    growing, when that was established.
    """

    values: tuple[int, ...]
    exact: bool
    i: int | None = None
    stabilized_at: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(sorted(set(self.values))))

    def as_set(self) -> frozenset[int]:
        return frozenset(self.values)


class _Stop(Exception):
    pass


class _EqualizerSearch:
    """Subset search over groups of candidate maps.

    ``groups`` is a sequence of (pool, multiplicity): a valid selection picks
    between 1 and multiplicity distinct maps from every group, and the value
    recorded is the size of the equalizer of everything picked (points where
    all picked maps agree, and agree with ``initial`` when one is given).
    ``initial`` of None means the first picked map sets the agreed values;
    an explicit initial restriction (e.g. the identity) bakes a fixed map
    into every equalizer.
    """

    def __init__(
        self,
        groups,
        n_points: int,
        initial: Restriction | None,
        budget: EnumerationBudget | None,
        min_mode: bool = False,
        full_range_stop: bool = True,
    ):
        self.groups = [(tuple(pool), int(mult)) for pool, mult in groups]
        for pool, mult in self.groups:
            if not pool:
                raise InvalidInputError("every group needs a nonempty pool")
            if mult < 1:
                raise InvalidInputError("every group multiplicity must be >= 1")
        self.n = n_points
        self.initial = initial
        self.min_mode = min_mode
        self.full_range_stop = full_range_stop
        self.meter = Meter(budget)
        self.exact = True
        self.min_picks: dict[int, int] = {}
        self.memo: dict = {}

    def run(self) -> tuple[dict[int, int], bool]:
        """Returns ({achievable size: fewest picks realizing it}, exact)."""
        try:
            self._seed()
            self._dfs(0, 0, 0, self.initial, 0)
        except _Stop:
            pass
        return self.min_picks, self.exact

    # -- state transitions ------------------------------------------------

    def _apply(self, r: Restriction | None, m: Assignment) -> Restriction:
        meter = self.meter
        meter.nodes += 1
        if meter.nodes >= meter.check_at and meter.over():
            self.exact = False
            raise _Stop
        if r is None:
            return m
        return tuple(v if v is not None and m[x] == v else None for x, v in enumerate(r))

    @staticmethod
    def _size(r: Restriction) -> int:
        return sum(v is not None for v in r)

    def _record(self, value: int, picks: int):
        prev = self.min_picks.get(value)
        if prev is None or picks < prev:
            self.min_picks[value] = picks
        if self.min_mode and value == 0:
            raise _Stop
        if self.full_range_stop and len(self.min_picks) == self.n + 1:
            raise _Stop

    # -- seeding -----------------------------------------------------------
    def _seed(self):
        """Record values of cheap structured selections before the full search.

        Scanning each pool against a handful of anchors (the first member
        and every constant present) reaches the extreme values early, so
        the full-range and min-mode stops usually fire before any deep
        branching: pairing the constant at y with a map sending a k-subset
        into {y, neighbor of y} already realizes every size.
        """
        anchors = [pool[0] for pool, _ in self.groups]
        diag = self.initial
        for a in anchors:
            diag = self._apply(diag, a)
        self._record(self._size(diag), len(self.groups))
        for g, (pool, mult) in enumerate(self.groups):
            base = self.initial
            for h, a in enumerate(anchors):
                if h != g:
                    base = self._apply(base, a)
            for m in pool:
                self._record(self._size(self._apply(base, m)), len(self.groups))
            if mult >= 2:
                pair_anchors = [pool[0]]
                pair_anchors += [
                    m for m in pool if len(set(m)) == 1 and m != pool[0]
                ]
                for a in pair_anchors:
                    based = self._apply(base, a)
                    for m in pool:
                        if m == a:
                            continue
                        self._record(self._size(self._apply(based, m)), len(self.groups) + 1)

    # -- exhaustive search ---------------------------------------------------
    def _dfs(self, g: int, start: int, picked: int, r: Restriction | None, total: int):
        key = (g, start, picked, r)
        seen_total = self.memo.get(key)
        if seen_total is not None and seen_total <= total:
            return
        self.memo[key] = total
        pool, mult = self.groups[g]
        if picked >= 1:
            if g == len(self.groups) - 1:
                self._record(self._size(r), total)
            else:
                self._dfs(g + 1, 0, 0, r, total)
        if picked < mult:
            seen_here = set()
            for idx in range(start, len(pool)):
                new_r = self._apply(r, pool[idx])
                if new_r in seen_here:
                    continue
                seen_here.add(new_r)
                if self._size(new_r) == 0:
                    # every completion of an empty equalizer scores 0
                    self._record(0, total + 1 + (len(self.groups) - 1 - g))
                    continue
                self._dfs(g, idx + 1, picked + 1, new_r, total + 1)


def _fewest_picks(
    x_img: DigitalImage,
    y_img: DigitalImage,
    arity: int,
    budget: EnumerationBudget | None,
    fixed: bool = False,
    full_range_stop: bool = True,
) -> tuple[dict[int, int], bool]:
    """Enumerate the maps X -> Y, then search selections of at most ``arity``.

    Returns ({achievable size: fewest picks realizing it}, exact).  With
    ``fixed`` the identity joins every equalizer (common fixed points).
    The pool enumeration and the search each get the whole budget.
    """
    pool, pool_exact, _ = enumerate_assignments(x_img, y_img, budget)
    if not pool:
        # constants always exist, so an empty pool means the budget tripped
        return {}, False
    n = x_img.n_points
    search = _EqualizerSearch(
        [(pool, arity)],
        n,
        initial=tuple(range(n)) if fixed else None,
        budget=budget,
        full_range_stop=full_range_stop,
    )
    min_picks, search_exact = search.run()
    return min_picks, pool_exact and search_exact


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
    n = x_img.n_points
    if i < 1:
        raise InvalidInputError(f"arity must be >= 1, got {i}")
    if i == 1:
        return Spectrum(values=(n,), exact=True, i=1)
    if not is_totally_disconnected(y_img):
        return Spectrum(values=tuple(range(n + 1)), exact=True, i=i)
    return coincidence_spectrum_by_search(x_img, y_img, i, budget)


def coincidence_spectrum_by_search(
    x_img: DigitalImage,
    y_img: DigitalImage,
    i: int,
    budget: EnumerationBudget | None = None,
    full_range_stop: bool = True,
) -> Spectrum:
    """CS_i by the subset search, with no structural shortcut."""
    if i < 1:
        raise InvalidInputError(f"arity must be >= 1, got {i}")
    if i == 1:
        return Spectrum(values=(x_img.n_points,), exact=True, i=1)
    min_picks, exact = _fewest_picks(
        x_img, y_img, i, budget, full_range_stop=full_range_stop
    )
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
    min_picks, exact = _fewest_picks(
        x_img, y_img, i_max, budget, full_range_stop=False
    )
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
    min_picks, exact = _fewest_picks(
        x_img, y_img, i_max, budget, full_range_stop=False
    )
    return {
        i: Spectrum(values=_within(min_picks, i), exact=exact, i=i)
        for i in range(2, i_max + 1)
    }


def fixed_point_spectrum(
    x_img: DigitalImage, budget: EnumerationBudget | None = None
) -> Spectrum:
    """F(X): achievable fixed-point counts over continuous self-maps."""
    n = x_img.n_points
    assignments, exhausted, _ = enumerate_assignments(x_img, x_img, budget)
    values = set()
    for a in assignments:
        values.add(sum(1 for x, v in enumerate(a) if v == x))
        if len(values) == n + 1:
            return Spectrum(values=tuple(values), exact=True, i=None)
    return Spectrum(values=tuple(values), exact=exhausted, i=None)


def common_fixed_spectrum(
    x_img: DigitalImage,
    i: int,
    budget: EnumerationBudget | None = None,
    full_range_stop: bool = True,
) -> Spectrum:
    """CFS_i: achievable common-fixed-point counts over i-tuples of self-maps.

    The identity is baked into every equalizer, so only fixed-point sets of
    the chosen maps matter.
    """
    if i < 1:
        raise InvalidInputError(f"arity must be >= 1, got {i}")
    min_picks, exact = _fewest_picks(
        x_img, x_img, i, budget, fixed=True, full_range_stop=full_range_stop
    )
    return Spectrum(values=_within(min_picks, i), exact=exact, i=i)


def common_fixed_spectrum_union(
    x_img: DigitalImage, i_max: int, budget: EnumerationBudget | None = None
) -> Spectrum:
    """CFS(X) up to arity i_max, with the stabilization arity when established."""
    if i_max < 1:
        raise InvalidInputError(f"i_max must be >= 1, got {i_max}")
    min_picks, exact = _fewest_picks(
        x_img, x_img, i_max, budget, fixed=True, full_range_stop=False
    )
    return _union(min_picks, exact, 1, i_max)
