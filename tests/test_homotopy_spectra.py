from __future__ import annotations

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
from digitop.enumeration import Meter, enumerate_assignments
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
        sizes, complete, exact = _search_classes(classes, meter, False, False)
        assert complete and exact
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
    sizes, complete, exact = _search_classes((cls_f, cls_g), meter, False, False)
    assert complete and exact
    assert sorted(sizes) == list(range(7))
    assert meter.nodes == 58_948 * 69
    result = hcs_of_classes([cls_f, cls_g, cls_g])
    assert result.values.exact
    assert result.values.values == tuple(range(7))


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
    min_picks, exact = _equalizer_closure([(pool, 1) for pool in pools], 2, 2, fixed, meter)
    assert exact and set(min_picks) == expected
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

    def counted(nbrs, edges, target):
        targets.append(target)
        return step_is_continuous(nbrs, edges, target)

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
