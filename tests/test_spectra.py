from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitop import (
    DigitalImage,
    EnumerationBudget,
    Explicit,
    InvalidInputError,
    builtin,
    coincidence_spectra_by_arity,
    coincidence_spectrum,
    coincidence_spectrum_by_search,
    coincidence_spectrum_union,
    common_fixed_spectrum,
    common_fixed_spectrum_union,
    cube,
    cycle,
    discrete,
    fixed_point_spectrum,
    from_assignment,
    hcs,
    hfs,
    interval,
    mc,
    mcf,
    random_connected_image,
    singleton,
    square4,
    tee4,
)
from digitop import spectra
from digitop.enumeration import Meter, _Search, code_layout, enumerate_assignments
from digitop.spectra import _equalizer_closure, _fewest_picks, _Pool
from oracles import (
    all_maps_oracle,
    cfs_oracle,
    cs_oracle,
    equalizer_size,
    fixed_spectrum_oracle,
    hcs_oracle,
    hfs_oracle,
)


def _tiny_images():
    return [
        singleton(),
        discrete(2),
        discrete(3),
        interval(0, 1),
        interval(0, 2),
        interval(0, 3),
        cycle(3),
        cycle(4),
        square4(),
        tee4(),
    ]


def test_cs_matches_oracle_on_all_tiny_pairs():
    for x_img, y_img in itertools.product(_tiny_images(), repeat=2):
        for i in (2, 3):
            s = coincidence_spectrum(x_img, y_img, i)
            assert s.exact
            assert s.as_set() == cs_oracle(x_img, y_img, i), (x_img.name, y_img.name, i)


def test_search_route_agrees_with_shortcut_route():
    pairs = [
        (interval(0, 3), interval(0, 2)),
        (cycle(4), cycle(3)),
        (square4(), tee4()),
        (tee4(), square4()),
    ]
    for x_img, y_img in pairs:
        fast = coincidence_spectrum(x_img, y_img, 2)
        slow = coincidence_spectrum_by_search(x_img, y_img, 2)
        assert slow.exact
        assert fast.as_set() == slow.as_set()


def test_cs_arity_one_is_the_point_count():
    s = coincidence_spectrum(cycle(5), tee4(), 1)
    assert s.as_set() == {5}
    assert s.exact


def test_cs_rejects_bad_arity():
    with pytest.raises(InvalidInputError):
        coincidence_spectrum(cycle(3), cycle(3), 0)
    with pytest.raises(InvalidInputError):
        coincidence_spectrum_union(cycle(3), cycle(3), 1)


def test_full_range_when_codomain_has_an_edge():
    for x_img in (interval(0, 4), cycle(6), cube()):
        for y_img in (interval(0, 1), cycle(4)):
            s = coincidence_spectrum(x_img, y_img, 2)
            assert s.as_set() == set(range(x_img.n_points + 1))


def test_connected_domain_edgeless_codomain_two_values():
    for x_img in (interval(0, 3), cycle(5), cube()):
        for m in (2, 3):
            for i in (2, 3, 4):
                s = coincidence_spectrum(x_img, discrete(m), i)
                assert s.exact
                assert s.as_set() == {0, x_img.n_points}


def test_union_stabilization_on_disconnected_domain():
    # two components of sizes 2 and 1: subset sums {0, 1, 2, 3}
    x_img = DigitalImage(points=((0,), (1,), (5,)), adjacency=Explicit({(0, 1)}))
    u = coincidence_spectrum_union(x_img, discrete(2), 4)
    assert u.exact
    assert u.as_set() == {0, 1, 2, 3}
    assert u.stabilized_at == 2
    by_arity = coincidence_spectra_by_arity(x_img, discrete(2), 4)
    assert by_arity[2].as_set() == {0, 1, 2, 3}
    assert all(by_arity[i].as_set() == {0, 1, 2, 3} for i in (3, 4))


def test_by_arity_is_monotone_everywhere():
    # oracle agreement at arity <= 3 is covered above; arity 4 brute force
    # over 84-map pools is too slow to be worth repeating here
    for x_img, y_img in itertools.product(_tiny_images(), repeat=2):
        by_arity = coincidence_spectra_by_arity(x_img, y_img, 4)
        chain = [by_arity[i].as_set() for i in (2, 3, 4)]
        assert chain[0] <= chain[1] <= chain[2]
        assert chain[0] == cs_oracle(x_img, y_img, 2), (x_img.name, y_img.name)


def test_fixed_point_spectra_of_cycles():
    assert fixed_point_spectrum(cycle(1)).as_set() == {1}
    for n in (2, 3, 4):
        assert fixed_point_spectrum(cycle(n)).as_set() == set(range(n + 1))
    for n in (5, 6, 7):
        expected = set(range(n // 2 + 2)) | {n}
        assert fixed_point_spectrum(cycle(n)).as_set() == expected


def test_fixed_point_spectrum_of_cube():
    assert fixed_point_spectrum(cube()).as_set() == {0, 1, 2, 3, 4, 5, 6, 8}
    # 7 is unreachable, so the search stops at 3 690 nodes, inside this budget
    s = fixed_point_spectrum(cube(), EnumerationBudget(max_nodes=4_000))
    assert (s.as_set(), s.exact) == ({0, 1, 2, 3, 4, 5, 6, 8}, True)


@pytest.mark.parametrize(
    "image, arity, sizes, nodes",
    [
        # F(cube) and CFS_3(cube) lack only 7, and no self-map of the cube
        # fixes all points but one, so both stop at 3 690 nodes, where
        # reading all 15 488 self-maps charged 29 006 and 83 952
        ("cube", 1, {0, 1, 2, 3, 4, 5, 6, 8}, 3_690),
        ("cube", 3, {0, 1, 2, 3, 4, 5, 6, 8}, 3_690),
        # reading all of Hom(C6, C6) charged 3 266
        ("cycle:6", 3, {0, 1, 2, 3, 4, 6}, 285),
        # C7 lacks 5 as well, so its closure still exhausts
        ("cycle:7", 1, {0, 1, 2, 3, 4, 7}, 5_343),
    ],
)
def test_a_closure_stops_where_only_an_unreachable_all_but_one_is_missing(
    image, arity, sizes, nodes
):
    x_img = builtin(image)
    n = x_img.n_points
    assert not x_img._fixes_all_but_one
    meter = Meter()
    search = _Search(x_img, x_img, None, meter, "fixed")
    min_picks = _equalizer_closure([(_Pool(search), arity)], n, n, x_img, meter)
    assert meter.stop is None and set(min_picks) == sizes
    assert meter.nodes == nodes


@pytest.mark.parametrize(
    "image, max_nodes", [("cycle:4", 4), ("cube", 8), ("tee4", 4), ("interval:0:3", 4)]
)
def test_a_node_budget_keeps_the_fixed_sets_its_search_wrote(image, max_nodes):
    # the budget trips inside the map search's first batch, whose fixed-point
    # set of size 1 is already in the search's results
    s = fixed_point_spectrum(builtin(image), EnumerationBudget(max_nodes=max_nodes))
    assert (s.values, s.exact) == ((1,), False)


@pytest.mark.parametrize(
    "x_img, max_nodes, arity, values",
    [
        # two edges, (0, 1) and (2, 3): every size 0..4 is read before the budget trips
        (DigitalImage(points=((0,), (1,), (2,), (3,)), adjacency=Explicit({(0, 1), (2, 3)})),
         40, 1, (0, 1, 2, 3, 4)),
        # no self-map of C5 fixes all points but one, so 4 is unreachable
        (cycle(5), 105, 2, (0, 1, 2, 3, 5)),
    ],
)
def test_a_budgeted_fixed_point_spectrum_holding_every_reachable_size_is_exact(
    x_img, max_nodes, arity, values
):
    budget = EnumerationBudget(max_nodes=max_nodes)
    meter = Meter(budget)
    assert sorted(spectra._streamed_picks(x_img, x_img, meter, arity, True)) == list(values)
    assert meter.stop == "node budget"
    results = [
        common_fixed_spectrum(x_img, arity, budget),
        common_fixed_spectrum_union(x_img, arity, budget),
    ]
    if arity == 1:
        results.append(fixed_point_spectrum(x_img, budget))
    for s in results:
        assert (s.values, s.exact) == (values, True)


def test_fixed_point_spectrum_matches_oracle():
    for x_img in _tiny_images():
        assert fixed_point_spectrum(x_img).as_set() == fixed_spectrum_oracle(x_img)


def test_cfs_matches_oracle():
    for x_img in (interval(0, 2), interval(0, 3), cycle(3), cycle(4), tee4()):
        for i in (1, 2, 3):
            s = common_fixed_spectrum(x_img, i)
            assert s.exact
            assert s.as_set() == cfs_oracle(x_img, i), (x_img.name, i)


def test_cfs_union_stabilizes():
    u = common_fixed_spectrum_union(cycle(4), 3)
    assert u.exact
    assert u.as_set() == {0, 1, 2, 3, 4}


def _disjoint_union(a: DigitalImage, b: DigitalImage) -> DigitalImage:
    """a and b side by side, b's points shifted past a's, with no edge between them."""
    n = a.n_points
    edges = {(i, j) for i, nbrs in enumerate(a.neighbor_sets()) for j in nbrs if i < j}
    edges |= {(n + i, n + j) for i, nbrs in enumerate(b.neighbor_sets()) for j in nbrs if i < j}
    return DigitalImage(
        points=tuple((i,) for i in range(n + b.n_points)), adjacency=Explicit(edges)
    )


def _fixed_digest_images():
    """Fixtures plus seeded connected, disconnected and one-point images."""
    rng = random.Random(11)
    images = [builtin(name) for name in (
        "cube", "cube_minus_vertex", "square4", "tee4", "singleton",
        "cycle:5", "cycle:6", "interval:0:3", "discrete:3",
    )]
    images += [random_connected_image(rng, rng.randint(2, 7)) for _ in range(12)]
    images += [
        _disjoint_union(
            random_connected_image(rng, rng.randint(1, 4)),
            random_connected_image(rng, rng.randint(1, 3)),
        )
        for _ in range(12)
    ]
    images.append(random_connected_image(rng, 1))
    return images


_FIXED_DIGEST_BUDGETS = (None, 5, 40, 300, 2000)


def _fixed_rows():
    """F, the fewest picks of CFS_1..3 and the CFS union, per image and node budget."""
    # figure1 has too many self-maps for an unbudgeted search here
    pairs = [(x_img, nodes) for x_img in _fixed_digest_images() for nodes in _FIXED_DIGEST_BUDGETS]
    pairs += [(builtin("figure1"), nodes) for nodes in _FIXED_DIGEST_BUDGETS[1:]]
    for x_img, nodes in pairs:
        budget = EnumerationBudget(max_nodes=nodes) if nodes else None
        f = fixed_point_spectrum(x_img, budget)
        yield [list(f.values), f.exact]
        for i in (1, 2, 3):
            min_picks, exact = _fewest_picks(x_img, x_img, i, budget, fixed=True)
            yield [list(min_picks.items()), exact]
        u = common_fixed_spectrum_union(x_img, 3, budget)
        yield [list(u.values), u.exact, u.stabilized_at]


def test_fixed_spectra_are_pinned():
    # values, exact flags, fewest picks in the order they were found and
    # stabilization arities, unbudgeted and under four node budgets; the
    # unbudgeted rows are those of the search that built every self-map
    # before reading its fixed points.  On the budgeted rows the map search
    # and the closure pay from one meter; each exact one equals its
    # unbudgeted row and each inexact one is a subset of it
    digest = hashlib.sha256(json.dumps(list(_fixed_rows())).encode()).hexdigest()[:16]
    assert digest == "8b834fcd542db342"


def test_budget_marks_inexact():
    s = coincidence_spectrum_by_search(cycle(4), cycle(4), 2, EnumerationBudget(max_nodes=2))
    assert not s.exact


def test_a_budget_spent_before_the_first_map_still_gives_the_point_count():
    # a lone map agrees with itself everywhere, and Hom(X, Y) always holds
    # the constants, so #X is recorded without reading the pool; the budget
    # trips before the first map of Hom(C4, D2), so nothing else is found
    budget = EnumerationBudget(max_nodes=1)
    s = coincidence_spectrum_by_search(cycle(4), discrete(2), 2, budget)
    assert (s.values, s.exact) == ((4,), False)


def test_all_of_the_range_is_exact_under_a_result_cap():
    # the cap cuts the map search of Hom(C4, C4) after 0..4 are all seen, so
    # the search is not exhausted, yet nothing is missing
    s = fixed_point_spectrum(cycle(4), EnumerationBudget(max_results=22))
    assert (s.values, s.exact) == (tuple(range(5)), True)


def test_a_stop_ends_the_enumeration_within_its_budget():
    # CS_2(cube, cube) reaches the full range after 2 584 of the 15 488
    # maps, so the closure's stop ends the enumeration at 4 814 of its
    # 28 840 nodes; with the closure's 2 582 nodes that is 7 396 in all,
    # and a budget the whole enumeration overruns still gives an exact
    # spectrum
    c = cube()
    budget = EnumerationBudget(max_nodes=10_000)
    assert not enumerate_assignments(c, c, budget)[1]
    s = coincidence_spectrum_by_search(c, c, 2, budget)
    assert s.exact
    assert s.values == tuple(range(9))
    search = _Search(c, c, None, Meter(), "codes")
    meter = Meter()
    min_picks = _equalizer_closure([(_Pool(search), 2)], 8, 8, None, meter)
    assert meter.stop is None and sorted(min_picks) == list(range(9))
    assert (len(search.results), search.meter.nodes, meter.nodes) == (2584, 4814, 2582)


@st.composite
def tiny_images(draw, max_points):
    """A random image of 1 to max_points points, connected or not."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return DigitalImage(points=tuple((i,) for i in range(n)), adjacency=Explicit(edges))


def tiny_pairs():
    """(X, Y) with X of at most 4 points and Y of at most 3."""
    return st.tuples(tiny_images(4), tiny_images(3))


def _state_code(layout, state):
    """The code of a closure state: value + 1 at each agreeing point, 0 where agreement broke."""
    return sum((v + 1) << layout.shifts[p] for p, v in enumerate(state) if v is not None)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_a_coded_child_is_the_tuple_rule(data):
    # r is a state with broken fields (None), m and the probe w are maps;
    # the closure over the groups [r], [m] records the size of r's child by
    # m, and over [r], [m], [w] the size of that child's own child by w, so
    # the child agrees with every probe exactly where the tuple rule does
    n_values = data.draw(st.sampled_from((1, 2, 127, 128, 300)))
    n = data.draw(st.integers(1, 6))
    value = st.integers(0, n_values - 1)
    r = data.draw(st.lists(st.one_of(st.none(), value), min_size=n, max_size=n))
    # each point of m and w either takes the agreed value or any value
    m = [data.draw(st.sampled_from([v, u]) if v is not None else value) for v, u in
         zip(r, data.draw(st.lists(value, min_size=n, max_size=n)))]
    want = tuple(v if v == u else None for v, u in zip(r, m))
    w = [data.draw(st.sampled_from([v, u]) if v is not None else value) for v, u in
         zip(want, data.draw(st.lists(value, min_size=n, max_size=n)))]
    layout = code_layout(n, n_values)

    def size(*states):
        meter = Meter()
        groups = [([_state_code(layout, state)], 1) for state in states]
        (recorded,) = _equalizer_closure(groups, n, n_values, None, meter)
        return recorded

    assert size(r, m) == n - want.count(None)
    assert size(r, m, w) == sum(v is not None and v == u for v, u in zip(want, w))


@given(tiny_pairs())
@settings(max_examples=50)
def test_cs2_search_matches_oracle_on_random_pairs(pair):
    x_img, y_img = pair
    s = coincidence_spectrum_by_search(x_img, y_img, 2)
    assert s.exact
    assert s.as_set() == cs_oracle(x_img, y_img, 2)


# Differential tests of the equalizer closure: values, fewest picks (through
# the arities they fall in) and stabilization arities against the oracles.


def _stabilized(spectra: dict[int, set[int]]) -> int:
    """The least arity whose spectrum equals that of the largest arity."""
    top = spectra[max(spectra)]
    return min(i for i, values in spectra.items() if values == top)


@given(tiny_pairs())
@settings(max_examples=40, deadline=None)
def test_cs_by_arity_and_union_match_oracle(pair):
    x_img, y_img = pair
    truth = {i: cs_oracle(x_img, y_img, i) for i in (1, 2, 3)}
    for i, values in truth.items():
        s = coincidence_spectrum_by_search(x_img, y_img, i)
        assert s.exact
        assert s.as_set() == values, i
    by_arity = coincidence_spectra_by_arity(x_img, y_img, 3)
    assert sorted(by_arity) == [2, 3]
    for i, s in by_arity.items():
        assert s.exact
        assert s.as_set() == truth[i], i
    union = coincidence_spectrum_union(x_img, y_img, 3)
    assert union.exact
    assert union.as_set() == truth[3]
    assert union.stabilized_at == _stabilized({i: truth[i] for i in (2, 3)})


@given(tiny_images(4))
@settings(max_examples=40, deadline=None)
def test_cfs_and_union_match_oracle(x_img):
    # the oracle's triples over the 256 self-maps of a 4-point image take
    # seconds, so arity 3 is checked up to 3 points
    i_max = 3 if x_img.n_points <= 3 else 2
    truth = {i: cfs_oracle(x_img, i) for i in range(1, i_max + 1)}
    for i, values in truth.items():
        s = common_fixed_spectrum(x_img, i)
        assert s.exact
        assert s.as_set() == values, i
    union = common_fixed_spectrum_union(x_img, i_max)
    assert union.exact
    assert union.as_set() == truth[i_max]
    assert union.stabilized_at == _stabilized(truth)


# The labelled-graph oracle sweeps cover every graph of up to this many
# points: 4 by default, and CI sets 5 in a step of its own.
SWEEP_POINTS = int(os.environ.get("DIGITOP_SWEEP_POINTS", "4"))


def _labelled_graphs(max_points):
    """Every graph on the points 0..n-1 for n = 1..max_points, as an image."""
    for n in range(1, max_points + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            edges = {pair for bit, pair in enumerate(pairs) if chosen >> bit & 1}
            yield DigitalImage(points=tuple((i,) for i in range(n)), adjacency=Explicit(edges))


def test_fixed_spectra_match_oracle_on_every_labelled_graph():
    # 75 graphs up to 4 points; the 1 024 graphs on 5 points take minutes
    # against the oracles, so only the CI step of DIGITOP_SWEEP_POINTS=5 runs them
    graphs = list(_labelled_graphs(SWEEP_POINTS))
    assert len(graphs) == sum(2 ** math.comb(n, 2) for n in range(1, SWEEP_POINTS + 1))
    for x_img in graphs:
        edges = sorted(x_img.adjacency.edges)
        f = fixed_point_spectrum(x_img)
        assert f.exact
        assert f.as_set() == fixed_spectrum_oracle(x_img), edges
        # the lemma that lets the closure stop short of an unreachable #X - 1
        assert (x_img.n_points - 1 in f.as_set()) == x_img._fixes_all_but_one, edges
        truth = {i: cfs_oracle(x_img, i) for i in (1, 2, 3)}
        for i, values in truth.items():
            s = common_fixed_spectrum(x_img, i)
            assert s.exact
            assert s.as_set() == values, (edges, i)
        union = common_fixed_spectrum_union(x_img, 3)
        assert union.exact
        assert union.as_set() == truth[3], edges
        assert union.stabilized_at == _stabilized(truth), edges


@st.composite
def sparse_images(draw, max_points):
    """A random image of 1 to max_points points whose self-maps stay few enough to list.

    The points make two runs, each a path or a cycle, and up to three more
    edges join any two points: every point but a one-point run has a
    neighbor, and the edges are few.
    """
    n = draw(st.integers(min_value=1, max_value=max_points))
    cut = draw(st.integers(min_value=1, max_value=n))
    edges = set()
    for lo, hi in ((0, cut), (cut, n)):
        edges |= {(i, i + 1) for i in range(lo, hi - 1)}
        if hi - lo >= 3 and draw(st.booleans()):
            edges.add((lo, hi - 1))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs), max_size=3))
    return DigitalImage(points=tuple((i,) for i in range(n)), adjacency=Explicit(edges))


@given(sparse_images(8))
@settings(max_examples=150, deadline=None)
def test_the_all_but_one_lemma_matches_every_fixed_point_set(x_img):
    # the exhaustive search lists every distinct fixed-point set and has no stop
    sets = _Search(x_img, x_img, None, Meter(), "fixed").run().results
    sizes = {r.bit_count() for r in sets}
    assert (x_img.n_points - 1 in sizes) == x_img._fixes_all_but_one
    f = fixed_point_spectrum(x_img)
    assert f.exact and f.as_set() == sizes


def test_cs_search_matches_oracle_on_every_labelled_pair():
    # every X up to SWEEP_POINTS points against every Y of 1-3 points
    codomains = list(_labelled_graphs(3))
    for x_img in _labelled_graphs(SWEEP_POINTS):
        for y_img in codomains:
            truth = {i: cs_oracle(x_img, y_img, i) for i in (2, 3)}
            pair = (sorted(x_img.adjacency.edges), x_img.n_points, sorted(y_img.adjacency.edges))
            by_arity = coincidence_spectra_by_arity(x_img, y_img, 3)
            for i, values in truth.items():
                for s in (by_arity[i], coincidence_spectrum(x_img, y_img, i)):
                    assert s.exact
                    assert s.as_set() == values, (pair, i)


def _search(x_img, y_img, meter, budget, fixed):
    """The map search of X -> Y, or of X's fixed-point sets, charged to meter."""
    max_results = budget.max_results if budget else None
    return _Search(x_img, y_img, None, meter, "fixed" if fixed else "maps", max_results)


def _fixed_sets(x_img, budget):
    """The fixed-set search of the self-maps of x_img, run to its end."""
    return _search(x_img, x_img, Meter(budget), budget, fixed=True).run()


def _eager_fewest_picks(x_img, y_img, arity, budget, fixed):
    """The reference for the streamed pool: enumerate it whole, then close over it.

    The enumeration and the closure are charged to one meter, in turn.  The
    enumeration has no result cap, as the stream it models reads none.
    """
    meter = Meter(budget)
    search = _Search(x_img, y_img, None, meter, "fixed" if fixed else "codes").run()
    pool = search.results
    if not pool:
        return {}, False
    n, n_values = x_img.n_points, y_img.n_points
    min_picks = _equalizer_closure([(pool, arity)], n, n_values, x_img if fixed else None, meter)
    return min_picks, meter.stop is None


_BUDGETS = st.one_of(
    st.none(),
    st.builds(lambda k: EnumerationBudget(max_results=k), st.integers(1, 60)),
    st.builds(lambda k: EnumerationBudget(max_nodes=k), st.integers(1, 300)),
)


@given(
    tiny_images(5),
    tiny_images(5),
    st.integers(1, 3),
    st.booleans(),
    st.one_of(_BUDGETS, st.builds(lambda k: EnumerationBudget(max_nodes=k), st.integers(1, 5000))),
)
@settings(max_examples=80, deadline=None)
def test_streamed_pool_keeps_the_eager_answers(x_img, y_img, arity, fixed, budget):
    if fixed:
        y_img = x_img
    got, exact = _fewest_picks(x_img, y_img, arity, budget, fixed)
    want, want_exact = _eager_fewest_picks(x_img, y_img, arity, budget, fixed)
    if budget is None:
        assert exact and want_exact
        assert got == want
    # the stream reads the eager pool's maps in its order and stops only where
    # the closure stops or the same budget trips, and the closure is the same
    assert want.items() <= got.items()
    if want_exact:
        assert exact
        assert got == want


@given(tiny_images(5), _BUDGETS)
@settings(max_examples=80, deadline=None)
def test_fixed_sets_are_those_of_the_enumerated_maps(x_img, budget):
    maps, exhausted, nodes = enumerate_assignments(x_img, x_img, budget)
    search = _fixed_sets(x_img, budget)
    fixed = (sum(1 << x for x, v in enumerate(a) if v == x) for a in maps)
    assert search.results == list(dict.fromkeys(fixed))
    assert (search.exhausted, search.nodes) == (exhausted, nodes)


def test_a_time_budget_bounds_the_stream_and_the_closure_together(monkeypatch):
    # On a fake clock each batch of the map search takes a second, and each
    # time check of the meter (every 256 nodes) a hundred, charged to the
    # phase that makes it.  The search and the closure share one meter, so
    # a time budget that fits each phase alone, but not both together,
    # gives an inexact lower approximation, and one that fits their sum
    # gives the exact spectrum.  The operation's meter records which limit
    # stopped it.
    now = [0.0]
    phase = ["closure"]
    spent = {"search": 0, "closure": 0}

    def tick(seconds):
        now[0] += seconds
        spent[phase[0]] += seconds

    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    batches = _Search.batches

    def slow_batches(self):
        inner = batches(self)
        while True:
            phase[0] = "search"
            try:
                next(inner)
                tick(1)
            except StopIteration:
                return
            finally:
                phase[0] = "closure"
            yield

    meters = []

    class SlowMeter(Meter):
        def __init__(self, budget):
            super().__init__(budget)
            meters.append(self)

        def over(self):
            tick(100)
            return super().over()

    monkeypatch.setattr(_Search, "batches", slow_batches)
    monkeypatch.setattr(spectra, "Meter", SlowMeter)
    # the fixed-point closure of C7 exhausts its stream (it lacks 5 and 6),
    # where that of the cube stops once only the unreachable 7 is missing
    for c, fixed in ((cube(), False), (cycle(7), True)):

        def spectrum(seconds):
            now[0] = 0.0
            spent.update(search=0, closure=0)
            got = _fewest_picks(c, c, 2, EnumerationBudget(time_budget=seconds), fixed)
            return got, dict(spent)

        want, spent_alone = spectrum(1e9)
        assert want[1]
        fits_each = max(spent_alone.values()) + 0.5
        fits_both = sum(spent_alone.values()) + 0.5
        assert fits_each < fits_both - 1
        (min_picks, exact), _ = spectrum(fits_each)
        assert not exact, fixed
        assert min_picks.keys() <= want[0].keys(), fixed
        assert meters[-1].stop == "time budget", fixed
        assert spectrum(fits_both) == (want, spent_alone), fixed
        assert meters[-1].stop is None, fixed
        _, exact = _fewest_picks(c, c, 2, EnumerationBudget(max_nodes=500), fixed)
        assert not exact and meters[-1].stop == "node budget", fixed


def test_the_meter_keeps_the_first_limit_that_stopped_it(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    meter = Meter(EnumerationBudget(max_nodes=1000, time_budget=5))
    meter.nodes = 256
    assert not meter.over() and meter.stop is None
    now[0] = 6.0
    meter.nodes = 512
    assert meter.over() and meter.stop == "time budget"
    meter.nodes = 1001
    assert meter.over() and meter.stop == "time budget"
    meter = Meter(EnumerationBudget(max_nodes=1000, time_budget=5))
    meter.nodes = 1001
    assert meter.over() and meter.stop == "node budget"
    now[0] = 12.0
    assert meter.over() and meter.stop == "node budget"


@given(tiny_pairs(), st.data())
@settings(max_examples=30, deadline=None)
def test_class_spectra_and_minima_match_oracle(pair, data):
    x_img, y_img = pair

    def pick(codomain):
        pool = all_maps_oracle(x_img, codomain)
        index = data.draw(st.integers(min_value=0, max_value=len(pool) - 1))
        return from_assignment(x_img, codomain, pool[index])

    f, g = pick(y_img), pick(y_img)
    for maps in ([f], [f, g], [f, g, g]):
        truth = hcs_oracle(x_img, y_img, [m.assignment for m in maps])
        result = hcs(maps)
        assert result.values.exact
        assert result.values.as_set() == truth
        assert result.min_value == min(truth)
        assert mc(maps) == (min(truth), True)
    h, k = pick(x_img), pick(x_img)
    for maps in ([h], [h, k], [h, h]):
        truth = hfs_oracle(x_img, [m.assignment for m in maps])
        result = hfs(maps)
        assert result.values.exact
        assert result.values.as_set() == truth
        assert result.min_value == min(truth)
        assert mcf(maps) == (min(truth), True)


def _fewest_picks_oracle(groups) -> dict[int, int]:
    """{size: fewest picks} over every selection of 1..mult members of each pool.

    Picks may repeat, so a selection is a set of members per group; its
    picks are the sum of those sets' sizes, and its value the equalizer of
    their union.
    """
    choices = [
        [set(c) for k in range(1, mult + 1) for c in itertools.combinations(pool, k)]
        for pool, mult in groups
    ]
    best: dict[int, int] = {}
    for selection in itertools.product(*choices):
        size = equalizer_size(set().union(*selection))
        picks = sum(map(len, selection))
        if picks < best.get(size, picks + 1):
            best[size] = picks
    return best


@given(tiny_pairs(), st.data())
@settings(max_examples=80, deadline=None)
def test_equalizer_search_matches_brute_force_in_any_group_order(pair, data):
    # pools of at most four maps, so the brute force stays small; the later
    # states against a pool split their children from its value bitsets
    x_img, y_img = pair
    maps = all_maps_oracle(x_img, y_img)
    pool = st.lists(st.sampled_from(maps), min_size=1, max_size=4, unique=True)
    groups = data.draw(st.lists(st.tuples(pool, st.integers(1, 3)), min_size=1, max_size=3))
    min_mode = data.draw(st.booleans())
    truth = _fewest_picks_oracle(groups)

    def search(order):
        meter = Meter()
        layout = code_layout(x_img.n_points, y_img.n_points)
        coded = [(layout.encode(pool), mult) for pool, mult in order]
        min_picks = _equalizer_closure(
            coded, x_img.n_points, y_img.n_points, None, meter, min_mode
        )
        return min_picks, meter.stop is None

    min_picks, exact = search(groups)
    assert exact
    if min_mode and 0 in truth:
        # the first 0 stops the search, so what it recorded is part of the truth
        assert min_picks[0] == truth[0]
        assert min_picks.items() <= truth.items()
    else:
        assert min_picks == truth
    permuted, permuted_exact = search(data.draw(st.permutations(groups)))
    assert permuted_exact
    if min_mode and 0 in truth:
        assert permuted[0] == truth[0]
    else:
        assert permuted == min_picks
