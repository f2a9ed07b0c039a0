from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from digitop import (
    DigitalImage,
    EnumerationBudget,
    Explicit,
    HomotopyClass,
    InvalidInputError,
    are_homotopic,
    constant,
    cube,
    cube_minus_vertex,
    cycle,
    discrete,
    disjoint_paths,
    enumerate_continuous_maps,
    figure1,
    from_assignment,
    homotopy_class,
    identity,
    interval,
    is_contractible,
    is_nullhomotopic,
    is_rigid_image,
    is_rigid_map,
    one_step_homotopic,
    random_connected_image,
    self_coincidence_sequence,
    singleton,
    square4,
    tee4,
)
from digitop import components, homotopy
from digitop.enumeration import Meter
from digitop.homotopy import _Homotopy, _rigid_within
from oracles import (
    all_maps_oracle,
    greedy_chain_oracle,
    homotopy_class_oracle,
    mj_oracle,
    one_step_distance,
)
from test_spectra import SWEEP_POINTS, _labelled_graphs, tiny_pairs


def test_one_step_homotopic_basics():
    iv = interval(0, 3)
    f = identity(iv)
    g = from_assignment(iv, iv, (0, 1, 2, 2))
    h = constant(iv, iv, 0)
    assert one_step_homotopic(f, g)
    assert one_step_homotopic(g, f)
    assert not one_step_homotopic(f, h)
    with pytest.raises(InvalidInputError):
        one_step_homotopic(f, identity(cycle(4)))


def test_class_sizes_on_cycles():
    assert len(homotopy_class(identity(cycle(4))).members) == 84
    assert len(homotopy_class(identity(cycle(5))).members) == 5
    assert len(homotopy_class(identity(cycle(6))).members) == 6
    assert len(homotopy_class(identity(interval(0, 3))).members) == 68


def test_membership_compares_domain_and_codomain():
    cls = homotopy_class(identity(cycle(4)))
    assert identity(cycle(4)) in cls
    # the same assignment on another 4-point image
    assert identity(interval(0, 3)) not in cls
    assert constant(cycle(4), interval(0, 3), 0) not in cls


def test_class_sizes_of_contractible_domains():
    # listed by one restricted enumeration each, with no closure
    for image, size in ((cube(), 15_488), (interval(0, 8), 40_503)):
        cls = homotopy_class(identity(image))
        assert cls.complete
        assert len(cls.members) == size


def test_contractible_domain_skips_the_closure(monkeypatch):
    def closure(*args, **kwargs):
        raise AssertionError("closure run on a contractible domain")

    monkeypatch.setattr(homotopy._Homotopy, "closure", closure)
    cls = homotopy_class(constant(tee4(), cycle(5), 0))
    assert cls.complete
    assert len(cls.members) == len(enumerate_continuous_maps(tee4(), cycle(5)).maps)
    sequence = self_coincidence_sequence(square4(), 4)
    assert sequence.entries == ((1, 4, True), (2, 0, True), (3, 0, True), (4, 0, True))


def test_class_matches_oracle_on_tiny_spaces():
    cases = [
        (interval(0, 2), interval(0, 2)),
        (cycle(4), cycle(4)),
        (square4(), tee4()),
        (cycle(3), cycle(4)),
        (discrete(3), interval(0, 1)),
    ]
    for x_img, y_img in cases:
        pool = [constant(x_img, y_img, 0)]
        if x_img == y_img:
            pool.append(identity(x_img))
        for f in pool:
            cls = homotopy_class(f)
            assert cls.complete
            got = {m.assignment for m in cls.members}
            assert got == homotopy_class_oracle(x_img, y_img, f.assignment)


def test_are_homotopic_yes_carries_valid_chain():
    iv = interval(0, 3)
    answer = are_homotopic(identity(iv), constant(iv, iv, 3))
    assert answer.verdict == "yes"
    chain = answer.witness.chain
    assert chain[0].assignment == (0, 1, 2, 3)
    assert chain[-1].assignment == (3, 3, 3, 3)
    for a, b in zip(chain, chain[1:]):
        assert one_step_homotopic(a, b)


def test_are_homotopic_no_between_rotation_classes():
    c5 = cycle(5)
    rot = from_assignment(c5, c5, (1, 2, 3, 4, 0))
    assert are_homotopic(identity(c5), rot).verdict == "yes"
    assert are_homotopic(identity(c5), constant(c5, c5, 0)).verdict == "no"


def test_are_homotopic_unknown_under_budget():
    c6 = cycle(6)
    answer = are_homotopic(
        identity(c6), constant(c6, c6, 0), EnumerationBudget(max_nodes=3)
    )
    assert answer.verdict == "unknown"


def test_max_results_equal_to_the_class_size_is_complete():
    edge = interval(0, 1)
    cls = homotopy_class(identity(edge), EnumerationBudget(max_results=4))
    assert len(cls.members) == 4
    assert cls.complete
    for f, size in ((identity(cycle(5)), 5), (identity(cycle(4)), 84)):
        cls = homotopy_class(f, EnumerationBudget(max_results=size))
        assert len(cls.members) == size
        assert cls.complete
        cut = homotopy_class(f, EnumerationBudget(max_results=size - 1))
        assert len(cut.members) == size - 1
        assert not cut.complete
        assert set(cut.members) <= set(cls.members)


def test_closure_stops_at_the_first_target_of_a_set():
    iv = interval(0, 3)
    constants = {constant(iv, iv, y).assignment for y in range(4)}
    parents, complete, found = _Homotopy(iv, iv, None).closure(identity(iv), stop_at=constants)
    assert found
    assert not complete
    assert len(constants & parents.keys()) == 1
    assert len(parents) < len(homotopy_class(identity(iv)).members)


def test_small_class_in_a_huge_hom_space_is_not_indexed_eagerly():
    # the per-member closure answers within this budget; enumerating
    # Hom(C20, C20) first would not
    assert is_contractible(cycle(20), EnumerationBudget(max_nodes=1_000_000)) == "no"


def test_rigid_map_closes_before_any_index():
    cls = homotopy_class(identity(figure1()), EnumerationBudget(max_nodes=1000))
    assert cls.complete
    assert len(cls.members) == 1


def test_a_closure_over_the_index_stops_at_the_deadline(monkeypatch):
    # an expansion over the index charges no node, so only the clock stops it
    now = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    c5 = cycle(5)
    engine = _Homotopy(c5, c5, EnumerationBudget(time_budget=10))
    assert len(engine.class_of(constant(c5, c5, 0)).assignments) == 255
    assert engine.index is not None
    now[0] = 11.0
    cls = engine.class_of(identity(c5))
    assert not cls.complete
    assert identity(c5) in cls


def test_rigidity():
    assert is_rigid_image(figure1())
    assert is_rigid_image(singleton())
    assert not is_rigid_image(cycle(4))
    assert not is_rigid_image(interval(0, 2))
    c5 = cycle(5)
    assert not is_rigid_map(identity(c5))
    assert is_rigid_image(discrete(3))


def test_a_decided_rigidity_is_not_read_as_a_budget_stop():
    # a second neighbor of the identity turns up within a few nodes, long
    # before the first time check (at node 256), so the search is cut by its
    # stop at the second neighbor and the passed deadline stopped nothing
    for image in (cycle(4), interval(0, 3), cube()):
        meter = Meter(EnumerationBudget(time_budget=1e-9))
        assert _rigid_within(identity(image), meter) is False
        assert meter.stop is None
    # figure1 is rigid, but three nodes cannot show it
    meter = Meter(EnumerationBudget(max_nodes=3))
    assert _rigid_within(identity(figure1()), meter) is None
    assert meter.stop == "node budget"


def test_contractibility_verdicts():
    assert is_contractible(singleton()) == "yes"
    assert is_contractible(interval(0, 4)) == "yes"
    assert is_contractible(cycle(4)) == "yes"
    assert is_contractible(cube()) == "yes"
    assert is_contractible(cube_minus_vertex()) == "yes"
    for n in (5, 6, 7):
        assert is_contractible(cycle(n)) == "no"
    assert is_contractible(figure1()) == "no"
    assert is_contractible(discrete(2)) == "no"


def test_the_closure_finds_a_contraction_the_greedy_chain_misses():
    x_img = DigitalImage(
        points=tuple((i,) for i in range(7)),
        adjacency=Explicit(
            [(0, 2), (0, 3), (0, 6), (1, 3), (1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (4, 5)]
        ),
    )
    ident = identity(x_img)
    assert x_img._greedy_contractible == (False,)
    assert not greedy_chain_oracle(x_img)
    assert is_contractible(x_img) == "yes"
    answer = are_homotopic(ident, constant(x_img, x_img, 3))
    assert answer.verdict == "yes"
    assert len(answer.witness) == 3
    cls = homotopy_class(ident)
    assert cls.complete and len(cls.members) == 7980  # all of Hom(X, X)
    entries = self_coincidence_sequence(x_img, 3).entries
    assert entries == ((1, 7, True), (2, 0, True), (3, 0, True))


def _component_image(image, block) -> DigitalImage:
    """The component on the points of block, renumbered 0.. in index order."""
    position = {v: k for k, v in enumerate(block)}
    edges = {(position[i], position[j]) for i, j in image.edges if i in position}
    return DigitalImage(points=tuple((k,) for k in range(len(block))), adjacency=Explicit(edges))


def _assert_flags_match_the_stepwise_chain(image):
    flags = image._greedy_contractible
    blocks = components(image)
    assert len(flags) == len(blocks)
    for flag, block in zip(flags, blocks):
        assert flag == greedy_chain_oracle(_component_image(image, block)), (image.edges, block)
    # the chain on the whole image pulls every point to one target
    assert greedy_chain_oracle(image) == (flags == (True,))


def test_greedy_flags_match_the_stepwise_chain_on_every_labelled_graph():
    # every graph up to SWEEP_POINTS points, disconnected ones included,
    # each component against the chain on it as an image of its own
    for image in _labelled_graphs(SWEEP_POINTS):
        _assert_flags_match_the_stepwise_chain(image)


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=150, deadline=None)
def test_greedy_flags_match_the_stepwise_chain_on_random_images(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    image = DigitalImage(points=tuple((i,) for i in range(n)), adjacency=Explicit(edges))
    _assert_flags_match_the_stepwise_chain(image)


def test_a_union_has_the_greedy_flags_of_its_components():
    # each component's steps check that component's edges alone: 400
    # copies of C5, never contracted, each beside a 3-point path, contracted
    copies = 400
    edges = [(8 * c + i, 8 * c + (i + 1) % 5) for c in range(copies) for i in range(5)]
    edges += [(8 * c + i, 8 * c + i + 1) for c in range(copies) for i in (5, 6)]
    union = DigitalImage(points=tuple((k,) for k in range(8 * copies)), adjacency=Explicit(edges))
    flags = cycle(5)._greedy_contractible + interval(0, 2)._greedy_contractible
    assert flags == (False, True)
    assert union._greedy_contractible == flags * copies


def test_a_map_into_a_contracted_component_is_nullhomotopic_with_no_search(monkeypatch):
    def closure(*args, **kwargs):
        raise AssertionError("closure run for a map into a contracted component")

    monkeypatch.setattr(homotopy._Homotopy, "closure", closure)
    c5, paths = cycle(5), disjoint_paths((3, 2))
    # C5 wraps onto the 3-point path (0, 1, 2) of the codomain
    f = from_assignment(c5, paths, (0, 1, 2, 1, 0))
    one_node = EnumerationBudget(max_nodes=1)
    assert is_nullhomotopic(f, one_node) == "yes"
    assert is_nullhomotopic(identity(cube()), one_node) == "yes"
    assert is_contractible(cube_minus_vertex(), one_node) == "yes"
    assert is_contractible(singleton(), one_node) == "yes"


def test_maps_across_components_or_into_uncontracted_ones_go_to_the_closure():
    # the identity of a disconnected image spans its components, and the
    # rotation of C5 and the path into C5 lie in a component no greedy chain
    # contracts, so only the closure answers, and one node does not let it
    c5 = cycle(5)
    for f, verdict in (
        (identity(discrete(2)), "no"),
        (identity(disjoint_paths((2, 2))), "no"),
        (from_assignment(c5, c5, (1, 2, 3, 4, 0)), "no"),
        (from_assignment(interval(0, 2), c5, (0, 1, 2)), "yes"),
    ):
        assert is_nullhomotopic(f) == verdict
        assert is_nullhomotopic(f, EnumerationBudget(max_nodes=1)) == "unknown"


def test_nullhomotopic_constants():
    c5 = cycle(5)
    assert is_nullhomotopic(constant(c5, c5, 2)) == "yes"
    assert is_nullhomotopic(identity(c5)) == "no"


def test_complete_codomain_collapses_to_one_class():
    k3 = cycle(3)
    cls = homotopy_class(constant(discrete(3), k3, 0))
    assert cls.complete
    assert len(cls.members) == 27
    assert are_homotopic(
        constant(discrete(3), k3, 0), constant(discrete(3), k3, 2)
    ).verdict == "yes"


@pytest.mark.parametrize("k", [1, 2, 50, 242, 243, 244])
def test_complete_codomain_class_under_max_results(k):
    # C5 does not contract, but every function into K3 is continuous and any
    # two are one step apart, so the class is all 3**5 = 243 maps
    c5, k3 = cycle(5), cycle(3)
    f = constant(c5, k3, 2)  # the last map in enumeration order
    cls = homotopy_class(f, EnumerationBudget(max_results=k))
    assert len(cls.members) == min(k, 243)
    assert f in cls
    assert cls.complete == (k >= 243)


def test_verdicts_into_a_complete_codomain():
    c5, k3 = cycle(5), cycle(3)
    f = constant(c5, k3, 0)
    g = from_assignment(c5, k3, (0, 1, 2, 0, 1))
    answer = are_homotopic(f, g)
    assert answer.verdict == "yes"
    assert answer.witness.chain == (f, g)
    assert is_nullhomotopic(g) == "yes"
    assert is_nullhomotopic(identity(k3)) == "yes"


def test_a_chain_into_a_complete_codomain_costs_no_node():
    # any two functions into a complete image are one step apart, so the
    # closure answers at once: here no one-step search fits in one node
    c8 = cycle(8)
    k6 = DigitalImage(
        points=tuple((i,) for i in range(6)),
        adjacency=Explicit({(i, j) for i in range(6) for j in range(i + 1, 6)}),
    )
    f = from_assignment(c8, k6, (0, 1, 2, 3, 4, 5, 0, 1))
    g = constant(c8, k6, 5)
    answer = are_homotopic(f, g, EnumerationBudget(max_nodes=1))
    assert answer.verdict == "yes"
    assert answer.witness.chain == (f, g)


_POOLS = {
    name: enumerate_continuous_maps(img, img).maps
    for name, img in (("interval", interval(0, 2)), ("cycle", cycle(4)), ("tee", tee4()))
}


@st.composite
def small_self_maps(draw):
    pool = _POOLS[draw(st.sampled_from(sorted(_POOLS)))]
    return pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]


@given(small_self_maps())
@settings(max_examples=40)
def test_class_membership_is_symmetric(f):
    cls = homotopy_class(f)
    for member in itertools.islice(cls.members, 0, 6):
        back = homotopy_class(member)
        assert {m.assignment for m in back.members} == {m.assignment for m in cls.members}


@st.composite
def random_map_pairs(draw):
    """(f, g) drawn from Hom(X, Y) for random connected X and Y of 1-5 points."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x_img = random_connected_image(rng, draw(st.integers(min_value=1, max_value=5)))
    y_img = random_connected_image(rng, draw(st.integers(min_value=1, max_value=5)))
    pool = all_maps_oracle(x_img, y_img)
    index = st.integers(min_value=0, max_value=len(pool) - 1)
    f, g = pool[draw(index)], pool[draw(index)]
    return from_assignment(x_img, y_img, f), from_assignment(x_img, y_img, g)


@given(random_map_pairs())
@settings(max_examples=60, deadline=None)
def test_class_matches_oracle_on_random_pairs(pair):
    f, _ = pair
    cls = homotopy_class(f)
    assert cls.complete
    assert {m.assignment for m in cls.members} == homotopy_class_oracle(
        f.domain, f.codomain, f.assignment
    )


@given(random_map_pairs())
@settings(max_examples=60, deadline=None)
def test_homotopic_and_nullhomotopic_agree_with_oracle_class(pair):
    f, g = pair
    cls = homotopy_class_oracle(f.domain, f.codomain, f.assignment)
    assert are_homotopic(f, g).verdict == ("yes" if g.assignment in cls else "no")
    constants = {(y,) * f.domain.n_points for y in range(f.codomain.n_points)}
    assert is_nullhomotopic(f) == ("yes" if constants & cls else "no")


@given(random_map_pairs(), st.integers(min_value=0))
@settings(max_examples=60, deadline=None)
def test_homotopy_chains_are_shortest(pair, pick):
    f, _ = pair
    cls = sorted(homotopy_class_oracle(f.domain, f.codomain, f.assignment))
    g = from_assignment(f.domain, f.codomain, cls[pick % len(cls)])
    answer = are_homotopic(f, g)
    assert answer.verdict == "yes"
    chain = answer.witness.chain
    assert chain[0] == f and chain[-1] == g
    assert len(chain) - 1 == one_step_distance(f.domain, f.codomain, f.assignment, g.assignment)


@st.composite
def certified_map_pairs(draw):
    """f: X -> Y with X of 1-5 points certified contractible by a greedy chain.

    Y has 1-4 points and is sometimes a union of paths, so that the class
    must stay inside the component of f's image.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x_img = random_connected_image(rng, draw(st.integers(min_value=1, max_value=5)))
    assume(greedy_chain_oracle(x_img))
    if draw(st.booleans()):
        y_img = random_connected_image(rng, draw(st.integers(min_value=1, max_value=4)))
    else:
        sizes = st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (3, 1)])
        y_img = disjoint_paths(draw(sizes))
    pool = all_maps_oracle(x_img, y_img)
    return from_assignment(x_img, y_img, pool[draw(st.integers(0, len(pool) - 1))])


@given(certified_map_pairs())
@settings(max_examples=80, deadline=None)
def test_certified_class_matches_the_closure_and_oracle(f):
    cls = homotopy_class(f)
    assert cls.complete
    got = [m.assignment for m in cls.members]
    assert got == sorted(got)
    parents, complete, _ = _Homotopy(f.domain, f.codomain, None).closure(f)
    assert complete
    assert set(got) == parents.keys()
    if f.domain.n_points <= 4:
        assert set(got) == homotopy_class_oracle(f.domain, f.codomain, f.assignment)


@given(
    certified_map_pairs(),
    st.integers(min_value=1, max_value=120),
    st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
)
@settings(max_examples=80, deadline=None)
def test_budgeted_certified_class_holds_f(f, max_nodes, max_results):
    truth = {m.assignment for m in homotopy_class(f).members}
    cls = homotopy_class(f, EnumerationBudget(max_results=max_results, max_nodes=max_nodes))
    got = {m.assignment for m in cls.members}
    assert f.assignment in got
    assert got <= truth
    if cls.complete:
        assert got == truth
    if max_results is not None:
        assert len(got) <= max_results


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_self_coincidence_sequence_of_certified_images_matches_oracle(seed, n):
    x_img = random_connected_image(random.Random(seed), n)
    assume(greedy_chain_oracle(x_img))
    entries = self_coincidence_sequence(x_img, 4).entries
    assert entries == tuple((j, mj_oracle(x_img, j), True) for j in range(1, 5))


@pytest.mark.parametrize(
    "f, probes_in",
    [(identity(cycle(5)), [False, True]), (constant(interval(0, 3), cube(), 0), [True, False])],
    ids=["closure", "contractible"],
)
def test_a_class_built_from_its_members_equals_the_engine_class(f, probes_in):
    # the public constructor, given the members in any order, and the
    # engine's own route give the same class
    cls = homotopy_class(f)
    assert cls.assignments == tuple(sorted(cls.assignments))
    probes = [constant(f.domain, f.codomain, 0), identity(f.domain)]
    for members in (cls.members, cls.members[::-1]):
        rebuilt = HomotopyClass(f, members, cls.complete)
        assert rebuilt == cls and hash(rebuilt) == hash(cls)
        assert rebuilt.assignments == cls.assignments
        assert rebuilt.members == cls.members
        for g in list(cls.members) + probes:
            assert (g in rebuilt) == (g in cls)
    assert [g in cls for g in probes] == probes_in


def test_a_class_rejects_members_of_another_pair():
    f = identity(cycle(5))
    with pytest.raises(InvalidInputError):
        HomotopyClass(f, (f, constant(cycle(5), cycle(4), 0)), True)


@given(tiny_pairs(), st.data())
@settings(max_examples=60, deadline=None)
def test_membership_reads_the_sorted_assignments(pair, data):
    # every map of the pair is in the class iff its assignment is; a map of
    # another pair is not, even with an assignment the class holds
    x_img, y_img = pair
    maps = [from_assignment(x_img, y_img, a) for a in all_maps_oracle(x_img, y_img)]
    cls = homotopy_class(data.draw(st.sampled_from(maps)))
    members = set(cls.assignments)
    assert [f in cls for f in maps] == [f.assignment in members for f in maps]
    wider_y = DigitalImage(
        points=y_img.points + ((y_img.n_points,),), adjacency=Explicit(set(y_img.edges))
    )
    wider_x = DigitalImage(
        points=x_img.points + ((x_img.n_points,),), adjacency=Explicit(set(x_img.edges))
    )
    for a in cls.assignments:
        assert from_assignment(x_img, wider_y, a) not in cls
        assert from_assignment(wider_x, y_img, a + a[:1]) not in cls
