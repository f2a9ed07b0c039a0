from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from digitop import (
    DigitalImage,
    EnumerationBudget,
    Explicit,
    HomotopyClass,
    HomotopyWitness,
    InvalidInputError,
    are_homotopic,
    coincidence_spectra_by_arity,
    coincidence_spectrum_by_search,
    common_fixed_spectrum,
    common_fixed_spectrum_union,
    constant,
    cube,
    cycle,
    discrete,
    disjoint_paths,
    figure1,
    from_assignment,
    hcs,
    hcs_of_classes,
    hfs,
    hfs_of_classes,
    homotopy_class,
    identity,
    interval,
    is_connected,
    m_j_of_map,
    mc,
    mcf,
    self_coincidence_sequence,
    singleton,
    square4,
    tee4,
)
import digitop.enumeration as enumeration
import digitop.homotopy as homotopy
import digitop.homotopy_spectra as homotopy_spectra
import digitop.images as images
import digitop.spectra as spectra
from digitop.enumeration import Meter, code_layout, enumerate_assignments
from digitop.homotopy_spectra import _classes_of, _search_classes
from digitop.spectra import _equalizer_closure
from oracles import hcs_oracle, hfs_oracle, mj_oracle
from test_spectra import SWEEP_POINTS, _labelled_graphs


def test_hcs_of_identities_on_rigid_image():
    fig = figure1()
    result = hcs([identity(fig), identity(fig)])
    assert result.values.exact
    assert result.values.as_set() == {18}
    assert result.min_value == 18


def test_hcs_of_constants_on_contractible_image():
    iv = interval(0, 3)
    c = constant(iv, iv, 0)
    result = hcs([c, c])
    assert result.values.as_set() == {0, 1, 2, 3, 4}


def _labeled(n: int, edges) -> DigitalImage:
    return DigitalImage(points=tuple((i,) for i in range(n)), adjacency=Explicit(set(edges)))


def test_hcs_matches_oracle_on_tiny_spaces():
    edge = _labeled(3, [(0, 1)])
    cases = [
        (interval(0, 2), interval(0, 2), [(0, 0, 0), (0, 1, 2)]),
        (cycle(4), cycle(4), [(0, 1, 2, 3), (1, 2, 3, 0)]),
        (square4(), tee4(), [(1, 0, 1, 2), (3, 3, 3, 3)]),
        (cycle(5), cycle(5), [(0, 1, 2, 3, 4), (1, 1, 1, 1, 1)]),
        # two classes share no map, so the ceiling stop ends the search at 0..2
        (edge, edge, [(0, 0, 0), (0, 0, 2)]),
    ]
    for x_img, y_img, assignments in cases:
        maps = [from_assignment(x_img, y_img, a) for a in assignments]
        result = hcs(maps)
        assert result.values.exact
        assert result.values.as_set() == hcs_oracle(x_img, y_img, assignments)


def test_complete_codomains_take_the_closed_form():
    # into K1, K2 and K3 every function is continuous and any two are one
    # step apart, so HCS and MC charge no node, whatever the domain
    domains = (cycle(4), cycle(5), discrete(2), discrete(3), disjoint_paths((2, 1)), singleton())
    budget = EnumerationBudget(max_nodes=1)
    for x_img in domains:
        points = range(x_img.n_points)
        for y_img in (singleton(), interval(0, 1), cycle(3)):
            m = y_img.n_points
            assignments = [(0,) * len(points), tuple(x % m for x in points)]
            assignments.append(tuple((x + 1) % m for x in points))
            for count in (1, 2, 3):
                picked = assignments[:count]
                maps = [from_assignment(x_img, y_img, a) for a in picked]
                truth = hcs_oracle(x_img, y_img, picked)
                result = hcs(maps, budget)
                assert result.values.exact, (x_img, y_img, count)
                assert result.values.as_set() == truth, (x_img, y_img, count)
                assert mc(maps, budget) == (min(truth), True)


def _distinct_classes():
    """Two self-maps of a 6-point image whose classes (3 175 and 635 members) share no map."""
    x_img = _labeled(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (2, 3), (3, 5)])
    f = from_assignment(x_img, x_img, (2, 1, 1, 1, 3, 1))
    g = from_assignment(x_img, x_img, (0, 0, 0, 2, 4, 2))
    return f, g


def test_distinct_classes_stop_below_the_full_range():
    # with no ceiling stop the closure built all pairs of the two classes,
    # some 2 million nodes
    f, g = _distinct_classes()
    budget = EnumerationBudget(max_nodes=50_000)
    for maps in ([f, g], [f, g, g]):
        result = hcs(maps, budget)
        assert result.values.exact
        assert result.values.values == (0, 1, 2, 3, 4, 5)


def _hcs_and_nodes(monkeypatch, maps):
    """hcs of maps, and the nodes charged to the meter of its one engine."""
    engines = []

    class Recorded(homotopy._Homotopy):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(homotopy_spectra, "_Homotopy", Recorded)
    result = hcs(maps)
    assert len(engines) == 1
    return result, engines[0].meter.nodes


def test_split_children_keep_the_node_counts_of_the_member_walk(monkeypatch):
    # Each closure here exhausts, or stops in the first state against its
    # pool, which is walked member by member: splitting the later states
    # charges each its pool, so every count is that of a walk over all
    # members, one node each.  The groups are given smallest pool first,
    # the order the search sorts them into.
    f, g = _distinct_classes()
    c6 = cycle(6)
    for maps, nodes in (
        ([g, f], 10_636),
        ([g, g, f], 10_636),
        ([identity(c6), constant(c6, c6, 0)], 8_332),
    ):
        result, charged = _hcs_and_nodes(monkeypatch, maps)
        assert result.values.exact
        assert charged == nodes
    # the equalizer search alone, in either order of the classes
    for maps in ([f, g], [g, f]):
        classes = _classes_of(maps, None, fixed=False)
        meter = Meter()
        sizes, complete = _search_classes(classes, meter, False, False)
        assert complete and meter.stop is None
        assert sorted(sizes) == [0, 1, 2, 3, 4, 5]
        assert meter.nodes == 1_102


def test_a_gap_in_the_spectrum_is_searched_exhaustively():
    # X is connected but not contractible, and the classes hold 58 948 and
    # 69 maps.  HCS is 0..6: size 7 is never reached, so neither the
    # full-range nor the ceiling stop fires and the closure exhausts, at
    # 69 * 58 948 nodes for arity 2
    x_img = _labeled(8, [
        (0, 1), (0, 2), (0, 4), (0, 5), (0, 7), (1, 2), (1, 3), (1, 5), (3, 5), (3, 6),
        (3, 7), (4, 6),
    ])
    f = from_assignment(x_img, x_img, (5, 1, 3, 3, 3, 5, 1, 5))
    g = from_assignment(x_img, x_img, (3, 1, 1, 0, 6, 1, 4, 1))
    cls_f, cls_g = _classes_of([f, g], None, fixed=False)
    assert (len(cls_f.assignments), len(cls_g.assignments)) == (58_948, 69)
    meter = Meter()
    sizes, complete = _search_classes((cls_f, cls_g), meter, False, False)
    assert complete and meter.stop is None
    assert sorted(sizes) == list(range(7))
    assert meter.nodes == 58_948 * 69
    result = hcs_of_classes([cls_f, cls_g, cls_g])
    assert result.values.exact
    assert result.values.values == tuple(range(7))


@pytest.mark.parametrize("n_values, bits", [(127, 8), (128, 16), (300, 16)])
def test_classes_into_a_large_codomain_split_on_wider_fields(monkeypatch, n_values, bits):
    # C6 into itself padded with isolated points: the classes of the
    # identity and of a constant hold the maps into C6, and the closure
    # splits them by the fields of codes as wide as the padded codomain
    # makes them, with the answer and node count of C6 into C6
    c6 = cycle(6)
    padded = DigitalImage(
        points=tuple((i,) for i in range(n_values)), adjacency=Explicit(set(c6.adjacency.edges))
    )
    widths = []
    children = spectra._children

    def counted(r, pool, at, layout):
        widths.append(layout.bits)
        return children(r, pool, at, layout)

    monkeypatch.setattr(spectra, "_children", counted)
    for y_img in (c6, padded):
        maps = [from_assignment(c6, y_img, a) for a in (tuple(range(6)), (0,) * 6)]
        for picks, nodes, splits in ((maps, 5_076, 5), (maps + maps[1:], 127_746, 150)):
            widths.clear()
            classes = _classes_of(picks, None, fixed=False)
            assert [len(cls.assignments) for cls in classes] == [6, 846, 846][: len(picks)]
            meter = Meter()
            sizes, complete = _search_classes(classes, meter, False, False)
            assert complete and sorted(sizes) == [0, 1, 2, 3, 4]
            assert meter.nodes == nodes
            assert widths == [8 if y_img is c6 else bits] * splits
            result = hcs_of_classes(classes)
            assert result.values.exact and result.values.values == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("x_img, max_nodes", [(interval(0, 3), 29), (tee4(), 38)])
def test_a_budgeted_hfs_holding_every_reachable_size_is_exact(x_img, max_nodes):
    # X contracts, so HFS of k copies of the identity is CFS_k(X), streamed,
    # and the budget trips after the search has read every size 0..4
    budget = EnumerationBudget(max_nodes=max_nodes)
    for k in (1, 2, 3):
        meter = Meter(budget)
        assert sorted(spectra._streamed_picks(x_img, x_img, meter, k, True)) == [0, 1, 2, 3, 4]
        assert meter.stop == "node budget"
        result = hfs([identity(x_img)] * k, budget)
        assert result.values == common_fixed_spectrum(x_img, k, budget)
        assert (result.values.values, result.values.exact) == ((0, 1, 2, 3, 4), True)


@pytest.mark.parametrize("n, nodes", [(5, 7), (6, 11)])
def test_a_class_pool_stops_where_only_unreachable_sizes_are_missing(n, nodes):
    # The class of a constant on C5 or C6 holds no identity, so the ceiling
    # settles n, and no self-map of a cycle of 5 points or more fixes all
    # points but one, which settles n - 1: once 0..n - 2 are found the
    # closure stops, where reading every pair of the class charged 272 and
    # 650 nodes
    c = cycle(n)
    f = constant(c, c, 0)
    (cls,) = set(_classes_of([f, f], None, fixed=True))
    meter = Meter()
    sizes, complete = _search_classes((cls, cls), meter, True, False)
    assert complete and sorted(sizes) == list(range(n - 1))
    assert meter.nodes == nodes
    result = hfs([f, f])
    assert result.values.exact and result.values.values == tuple(range(n - 1))


def test_classes_of_one_pair_share_one_index(monkeypatch):
    built = []

    class Counted(homotopy._HomIndex):
        def __init__(self, domain, codomain, pool):
            built.append(len(pool))
            super().__init__(domain, codomain, pool)

    monkeypatch.setattr(homotopy, "_HomIndex", Counted)
    result = hcs(list(_distinct_classes()))
    assert result.values.exact
    assert result.values.values == (0, 1, 2, 3, 4, 5)
    # the second closure starts on the index the first one built
    assert len(built) == 1


def test_two_closures_of_one_engine_enumerate_hom_once(monkeypatch):
    # the identity's class (its 5 rotations) leaves the enumeration of
    # Hom(C5, C5) paused, and the constant's class (255 maps) resumes it
    unrestricted = []
    init = enumeration._Search.__init__

    def recording(search, domain, codomain, allowed, *args, **kwargs):
        unrestricted.append(allowed is None)
        init(search, domain, codomain, allowed, *args, **kwargs)

    monkeypatch.setattr(enumeration._Search, "__init__", recording)
    c5 = cycle(5)
    classes = _classes_of([identity(c5), constant(c5, c5, 0)], None, fixed=False)
    assert [len(cls.assignments) for cls in classes] == [5, 255]
    assert all(cls.complete for cls in classes)
    assert sum(unrestricted) == 1


@pytest.mark.parametrize(
    "pools, fixed, expected, nodes",
    [
        # the groups share (1, 1), so #X = 2 is reachable even though 0 and 1 come first
        ((((0, 0), (1, 1)), ((0, 1), (1, 1))), False, {0, 1, 2}, 4),
        # fixed-point sets, as bitmasks, of the maps (0, 0), (1, 1) and (0, 0), (0, 1):
        # the pools share {0}, but only the second holds the identity's {0, 1}
        (((0b01, 0b10), (0b01, 0b11)), True, {0, 1}, 3),
    ],
)
def test_ceiling_stop_with_overlapping_pools(pools, fixed, expected, nodes):
    meter = Meter()
    x_img = interval(0, 1) if fixed else None  # the 2 points the fixed-point sets lie in
    if not fixed:
        pools = [code_layout(2, 2).encode(pool) for pool in pools]
    min_picks = _equalizer_closure([(pool, 1) for pool in pools], 2, 2, x_img, meter)
    assert meter.stop is None and set(min_picks) == expected
    assert meter.nodes == nodes


def test_a_class_is_collapsed_to_fixed_point_sets_once(monkeypatch):
    # C5 does not contract, so both classes are built and searched
    c5 = cycle(5)
    cls_f, cls_g = _classes_of([identity(c5), constant(c5, c5, 0)], None, fixed=True)
    calls = []
    mask = homotopy._fixed_mask

    def counted(assignment):
        calls.append(assignment)
        return mask(assignment)

    monkeypatch.setattr(homotopy, "_fixed_mask", counted)
    shorter = hfs_of_classes([cls_f, cls_g])
    longer = hfs_of_classes([cls_f, cls_g, cls_g])
    assert shorter.values.exact and longer.values.exact
    assert set(shorter.values.values) <= set(longer.values.values)
    assert len(calls) == len(cls_f.assignments) + len(cls_g.assignments)


def test_hfs_matches_oracle_on_tiny_spaces():
    for x_img in (interval(0, 2), cycle(4), cycle(5), tee4()):
        a = (0,) * x_img.n_points
        result = hfs([constant(x_img, x_img, 0)])
        assert result.values.exact
        assert result.values.as_set() == hfs_oracle(x_img, [a])


C4, I4 = cycle(4), interval(0, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hcs_of_classes([]),
        lambda: hcs_of_classes([homotopy_class(identity(C4)), homotopy_class(identity(I4))]),
        lambda: hcs_of_classes([HomotopyClass(identity(C4), (), True)]),
        lambda: self_coincidence_sequence(C4, 0),
        lambda: coincidence_spectra_by_arity(C4, C4, 1),
        lambda: common_fixed_spectrum(C4, 0),
        lambda: common_fixed_spectrum_union(C4, 0),
        lambda: are_homotopic(identity(C4), identity(I4)),
        lambda: HomotopyWitness((identity(I4), constant(I4, I4, 3))),
    ],
    ids=[
        "no-classes",
        "classes-of-two-pairs",
        "class-with-no-members",
        "sequence-to-0",
        "by-arity-to-1",
        "cfs-arity-0",
        "cfs-union-to-0",
        "homotopic-across-pairs",
        "witness-not-one-step",
    ],
)
def test_public_inputs_are_checked(call):
    with pytest.raises(InvalidInputError):
        call()


def test_hfs_requires_self_maps():
    with pytest.raises(InvalidInputError):
        hfs([constant(cycle(3), cycle(4), 0)])
    with pytest.raises(InvalidInputError):
        mcf([constant(cycle(3), cycle(4), 0)])


def test_maps_on_different_pairs_are_rejected():
    # the same assignment on two 4-point domains
    for spectrum in (hcs, mc):
        with pytest.raises(InvalidInputError):
            spectrum([identity(cycle(4)), identity(interval(0, 3))])


def test_equal_maps_merge_into_one_class_group():
    c4 = cycle(4)
    ident = identity(c4)
    two = hcs([ident, ident])
    three = hcs([ident, ident, ident])
    assert two.values.as_set() <= three.values.as_set()
    # C_4 has a single class, so HCS is the full range already at arity 2
    assert two.values.as_set() == {0, 1, 2, 3, 4}


def test_hcs_of_classes_reuses_precomputed_classes():
    c5 = cycle(5)
    cls = homotopy_class(identity(c5))
    result = hcs_of_classes([cls, cls])
    # rotations only: two rotations agree nowhere unless equal
    assert result.values.as_set() == {0, 5}
    assert result.min_value == 0


def test_mc_and_mcf_minima():
    iv = interval(0, 3)
    assert mc([identity(iv), identity(iv)]) == (0, True)
    fig = figure1()
    assert mc([identity(fig), identity(fig)]) == (18, True)
    assert mcf([identity(fig), identity(fig)]) == (18, True)
    c5 = cycle(5)
    assert mcf([identity(c5), identity(c5)]) == (0, True)


_C5 = cycle(5)
_FIG = figure1()
_NODE = EnumerationBudget(max_nodes=1)


@pytest.mark.parametrize(
    "call, answer, builds_a_class",
    [
        # a lone map agrees with itself everywhere: {#X}, with no class and no node
        pytest.param(
            lambda: hcs([constant(_FIG, _FIG, 0)], EnumerationBudget(time_budget=2)), (18,), False,
            id="hcs-figure1-constant-time",
        ),
        pytest.param(
            lambda: mc([constant(_FIG, _FIG, 0)], EnumerationBudget(time_budget=2)), 18, False,
            id="mc-figure1-constant-time",
        ),
        pytest.param(lambda: hcs([identity(_C5)], _NODE), (5,), False, id="hcs-c5-id-node"),
        pytest.param(lambda: mc([identity(_C5)], _NODE), 5, False, id="mc-c5-id-node"),
        pytest.param(lambda: m_j_of_map(identity(_FIG), 1, _NODE), 18, False, id="m1-figure1-node"),
        pytest.param(lambda: hcs([constant(_C5, discrete(2), 1)]), (5,), False, id="hcs-c5-d2"),
        # the identity joins every equalizer, so HFS and MCF of one map need its class
        pytest.param(lambda: hfs([identity(_C5)]), (0, 5), True, id="hfs-c5-id"),
        pytest.param(lambda: mcf([identity(_C5)]), 0, True, id="mcf-c5-id"),
        pytest.param(lambda: hfs([identity(_FIG)]), (18,), True, id="hfs-figure1-id"),
        pytest.param(lambda: mcf([identity(_FIG)], _NODE), None, True, id="mcf-figure1-id-node"),
    ],
)
def test_one_map_needs_no_class(monkeypatch, call, answer, builds_a_class):
    built = []
    class_of = homotopy._Homotopy.class_of
    monkeypatch.setattr(
        homotopy._Homotopy, "class_of", lambda engine, f: built.append(f) or class_of(engine, f)
    )
    result = call()
    if isinstance(result, tuple):
        value, exact = result
    else:
        value, exact = result.values.values, result.values.exact
    assert value == answer
    assert exact == (answer is not None)
    assert bool(built) == builds_a_class


def test_mj_values_and_convention():
    fig = figure1()
    assert m_j_of_map(identity(fig), 1) == (18, True)
    for j in (2, 3, 4):
        assert m_j_of_map(identity(fig), j) == (18, True)
    for n in (4, 5, 6):
        for j in (2, 3, 4):
            assert m_j_of_map(identity(cycle(n)), j) == (0, True)
    with pytest.raises(InvalidInputError):
        m_j_of_map(identity(fig), 0)


def _invariants(x_img: DigitalImage, base: int) -> list:
    """Spectra of x_img that relabelling carries along; the constants sit at ``base``."""
    ident, const = identity(x_img), constant(x_img, x_img, base)
    return [
        *(common_fixed_spectrum(x_img, i) for i in (1, 2, 3)),
        coincidence_spectrum_by_search(x_img, discrete(2), 2),
        coincidence_spectrum_by_search(x_img, x_img, 3),
        hcs([ident, const]),
        hfs([ident, const]),
        hcs([ident, const, const]),
        self_coincidence_sequence(x_img, 3),
    ]


def test_relabelling_a_graph_changes_no_spectrum():
    # Every quantity is invariant under isomorphism: relabelling X by a
    # permutation p carries each map f to p f p^-1, so the constant at 0
    # becomes the constant at p(0), and the identity stays the identity.
    # The search order and the greedy tie-break depend on the labels, so
    # this is what lets one graph stand for its isomorphism class.
    rng = random.Random(13)
    graphs = list(_labelled_graphs(4))
    assert len(graphs) == 75
    for x_img in graphs:
        n = x_img.n_points
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {(perm[a], perm[b]) for a, b in x_img.adjacency.edges}
        relabelled = DigitalImage(points=tuple((i,) for i in range(n)), adjacency=Explicit(edges))
        assert _invariants(relabelled, perm[0]) == _invariants(x_img, 0), (
            sorted(x_img.adjacency.edges), perm,
        )


def test_self_coincidence_sequence_matches_oracle():
    for x_img in (interval(0, 2), interval(0, 3), cycle(4), cycle(5), tee4(), discrete(3)):
        seq = self_coincidence_sequence(x_img, 3)
        assert all(exact for _, _, exact in seq.entries)
        for j, value, _ in seq.entries:
            assert value == mj_oracle(x_img, j), (x_img.name, j)


def test_self_coincidence_sequence_is_non_increasing():
    for x_img in (figure1(), interval(0, 4), cycle(6), square4()):
        seq = self_coincidence_sequence(x_img, 4)
        values = [v for _, v, _ in seq.entries]
        assert values[0] == x_img.n_points
        assert all(a >= b for a, b in zip(values, values[1:]))


def _count_greedy_targets(monkeypatch) -> list[int]:
    """The targets whose greedy step the images check, in the order checked."""
    targets = []
    step_is_continuous = images._greedy_step_is_continuous

    def counted(nbrs, target):
        targets.append(target)
        return step_is_continuous(nbrs, target)

    monkeypatch.setattr(images, "_greedy_step_is_continuous", counted)
    return targets


def test_a_failed_chain_search_runs_once(monkeypatch):
    targets = _count_greedy_targets(monkeypatch)
    fig = figure1()
    seq = self_coincidence_sequence(fig, 3)
    assert seq.entries == ((1, 18, True), (2, 18, True), (3, 18, True))
    # one failed step toward each point, kept by the image for the class
    assert targets == list(range(fig.n_points))
    targets.clear()
    c5 = cycle(5)
    assert hcs([identity(c5), constant(c5, c5, 0)]).values.exact
    assert targets == list(range(c5.n_points))
    targets.clear()
    # the image computes its flags once, whatever the operations
    assert mc([identity(c5), identity(c5)]) == (0, True)
    assert self_coincidence_sequence(c5, 3).entries[1] == (2, 0, True)
    assert targets == []


def test_budget_propagates_to_inexact_entries():
    seq = self_coincidence_sequence(cycle(6), 3, EnumerationBudget(max_nodes=2))
    assert seq.entries[0] == (1, 6, True)
    assert not seq.entries[1][2]


# A codomain with a one-point component {0} and a two-point component {1, 2}.
SPLIT = _labeled(3, [(1, 2)])


def test_closed_forms_match_oracle_on_every_connected_labelled_graph():
    graphs = [x_img for x_img in _labelled_graphs(SWEEP_POINTS) if is_connected(x_img)]
    # connected labelled graphs on 1, 2, 3, 4 and 5 points
    assert len(graphs) == sum((1, 1, 4, 38, 728)[:SWEEP_POINTS])
    for x_img in graphs:
        edges = sorted(x_img.adjacency.edges)
        n = x_img.n_points
        ident, first, last = tuple(range(n)), (0,) * n, (n - 1,) * n
        one, into_edge = (1,) * n, tuple(1 + x % 2 for x in range(n))
        cases = [
            (x_img, [ident]),
            (x_img, [ident, first]),
            (x_img, [first, last, ident]),
            (SPLIT, [first]),
            (SPLIT, [first, first, first]),
            (SPLIT, [first, one]),
            (SPLIT, [one, into_edge]),
            (SPLIT, [one, into_edge, first]),
        ]
        for y_img, assignments in cases:
            maps = [from_assignment(x_img, y_img, a) for a in assignments]
            truth = hcs_oracle(x_img, y_img, assignments)
            result = hcs(maps)
            assert result.values.exact, (edges, assignments)
            assert result.values.as_set() == truth, (edges, assignments)
            assert mc(maps) == (min(truth), True), (edges, assignments)
        for assignments in ([ident], [first], [ident, first], [first, last]):
            maps = [from_assignment(x_img, x_img, a) for a in assignments]
            truth = hfs_oracle(x_img, assignments)
            result = hfs(maps)
            assert result.values.exact, (edges, assignments)
            assert result.values.as_set() == truth, (edges, assignments)
            assert mcf(maps) == (min(truth), True), (edges, assignments)
        entries = self_coincidence_sequence(x_img, 3).entries
        assert entries == tuple((j, mj_oracle(x_img, j), True) for j in (1, 2, 3)), edges


def test_searched_classes_match_oracle_on_every_labelled_graph():
    # the graphs whose classes are built and searched: X is not complete and
    # no greedy chain contracts it (disconnected X included)
    graphs = []
    for x_img in _labelled_graphs(SWEEP_POINTS):
        engine = homotopy._Homotopy(x_img, x_img, None)
        if not (engine.complete or engine.contractible):
            graphs.append(x_img)
    # on 1, 2, 3, 4 and 5 points
    assert len(graphs) == sum((0, 1, 4, 26, 308)[:SWEEP_POINTS])
    for x_img in graphs:
        graph = (x_img.n_points, sorted(x_img.adjacency.edges))
        ident, first = tuple(range(x_img.n_points)), (0,) * x_img.n_points
        cls_id, cls_first = (
            homotopy_class(from_assignment(x_img, x_img, a)) for a in (ident, first)
        )
        for assignments, classes in (
            ([ident, first], [cls_id, cls_first]),
            ([ident, first, ident], [cls_id, cls_first, cls_id]),
        ):
            for searched, oracle in (
                (hcs_of_classes(classes), hcs_oracle(x_img, x_img, assignments)),
                (hfs_of_classes(classes), hfs_oracle(x_img, assignments)),
            ):
                assert searched.values.exact, (graph, assignments)
                assert searched.values.as_set() == oracle, (graph, assignments)
        entries = self_coincidence_sequence(x_img, 3).entries
        assert entries == tuple((j, mj_oracle(x_img, j), True) for j in (1, 2, 3)), graph


@st.composite
def contractible_images(draw, max_points):
    """A connected image of 1 to max_points points that a greedy chain contracts."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    # a spanning tree, each point joined to an earlier one, plus any other pairs
    edges = {(draw(st.integers(min_value=0, max_value=k - 1)), k) for k in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs)))
    x_img = _labeled(n, edges)
    assume(homotopy._Homotopy(x_img, x_img, None).contractible)
    return x_img


@given(contractible_images(6), st.data())
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_the_class_search(x_img, data):
    def pick(codomain, count):
        # the first maps of the enumeration: any 6-point pool is too large to list
        pool, _, _ = enumerate_assignments(x_img, codomain, EnumerationBudget(max_results=300))
        indices = st.integers(min_value=0, max_value=len(pool) - 1)
        return [from_assignment(x_img, codomain, pool[data.draw(indices)]) for _ in range(count)]

    for codomain in (x_img, SPLIT):
        maps = pick(codomain, data.draw(st.integers(min_value=1, max_value=3)))
        searched = hcs_of_classes(_classes_of(maps, None, fixed=False))
        assert hcs(maps) == searched
        assert mc(maps) == (searched.min_value, True)
    maps = pick(x_img, data.draw(st.integers(min_value=1, max_value=2)))
    searched = hfs_of_classes(_classes_of(maps, None, fixed=True))
    assert hfs(maps) == searched
    assert mcf(maps) == (searched.min_value, True)


def test_contractible_domains_build_no_class(monkeypatch):
    def refuse(engine, f):
        raise AssertionError("a class was built")

    monkeypatch.setattr(homotopy._Homotopy, "class_of", refuse)
    targets = _count_greedy_targets(monkeypatch)
    # the greedy step toward 0 is not continuous and toward 1 is
    x_img = _labeled(5, [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)])
    f, g = identity(x_img), constant(x_img, x_img, 2)
    operations = [
        lambda: hcs([f, g]),
        lambda: hfs([f, g]),
        lambda: mc([f, g, g]),
        lambda: mcf([g]),
        lambda: m_j_of_map(f, 3),
        lambda: self_coincidence_sequence(x_img, 4),
    ]
    for k, operation in enumerate(operations):
        operation()
        # the image stops at the first continuous step, and keeps its flag
        assert targets == [0, 1], k


@pytest.mark.parametrize("img", [interval(0, 3), tee4(), cube()], ids=["interval", "tee4", "cube"])
@pytest.mark.parametrize("cap", [1, 2, 3, 5, 8])
def test_a_result_cap_does_not_cut_a_contractible_hfs(img, cap):
    # HFS and MCF of a greedy-contractible X read Hom(X, X) and list no
    # class, so the cap on a class's members does not apply to them
    maps = [identity(img), constant(img, img, img.n_points - 1)]
    budget = EnumerationBudget(max_results=cap)
    capped, full = hfs(maps, budget), hfs(maps)
    assert capped.values == full.values and capped.values.exact
    assert mcf(maps, budget) == mcf(maps) == (0, True)


def test_an_exact_zero_ends_the_sequence_search(monkeypatch):
    # m_2(C6) is 0 (the identity is homotopic to a rotation), and a selection
    # that agrees nowhere still fits every larger j, so m_3 and m_4 are read
    # from it with no search
    calls = []
    minimum = homotopy_spectra._minimum

    def counted(*args, **kwargs):
        calls.append(args)
        return minimum(*args, **kwargs)

    monkeypatch.setattr(homotopy_spectra, "_minimum", counted)
    seq = self_coincidence_sequence(cycle(6), 4)
    assert seq.entries == ((1, 6, True), (2, 0, True), (3, 0, True), (4, 0, True))
    assert len(calls) == 1


def test_class_spectra_build_no_maps(monkeypatch):
    # a class is a pool of assignments for the equalizer search; its members
    # are wrapped as maps only when read, once each
    wrapped = []
    enumerated = homotopy._enumerated

    def counted(domain, codomain, assignment):
        wrapped.append(assignment)
        return enumerated(domain, codomain, assignment)

    monkeypatch.setattr(homotopy, "_enumerated", counted)
    c5 = cycle(5)
    f, rotation = identity(c5), from_assignment(c5, c5, (1, 2, 3, 4, 0))
    assert hcs([f, rotation]).values.values == (0, 5)
    assert mc([f, rotation]) == (0, True)
    assert self_coincidence_sequence(c5, 3).entries == ((1, 5, True), (2, 0, True), (3, 0, True))
    assert hcs_of_classes(_classes_of([f, rotation], None, fixed=False)).values.values == (0, 5)
    cls = homotopy_class(f)
    assert wrapped == []
    members = cls.members
    assert [m.assignment for m in members] == wrapped == list(cls.assignments)
    assert len(wrapped) == 5
    assert cls.members is members and len(wrapped) == 5


def test_equal_but_distinct_class_objects_give_the_same_spectra():
    # a and b are two groups of one pool, which admit the same sets of
    # distinct maps as one group of a with the summed multiplicity
    a, b = homotopy_class(identity(cycle(5))), homotopy_class(identity(cycle(5)))
    c = homotopy_class(constant(cycle(5), cycle(5), 0))
    assert a == b and a is not b
    for spectrum_of in (hcs_of_classes, hfs_of_classes):
        for distinct, repeated in (([a, b], [a, a]), ([a, b, c], [a, a, c])):
            got, want = spectrum_of(distinct), spectrum_of(repeated)
            assert got.values.exact and got == want
