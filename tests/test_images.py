from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitop import (
    CT,
    DigitalImage,
    Explicit,
    InvalidInputError,
    Isomorphism,
    components,
    ct_adjacent,
    cube,
    cycle,
    discrete,
    figure1,
    find_isomorphism,
    image_from_json_dict,
    interval,
    is_connected,
    is_totally_disconnected,
    neighbors,
    singleton,
    square4,
    tee4,
)
from oracles import isomorphic_oracle
from test_spectra import _labelled_graphs


def test_ct_adjacent_basic():
    assert ct_adjacent((0, 0), (0, 1), 1)
    assert not ct_adjacent((0, 0), (1, 1), 1)
    assert ct_adjacent((0, 0), (1, 1), 2)
    assert not ct_adjacent((0, 0), (0, 0), 2)
    assert not ct_adjacent((0, 0), (0, 2), 2)


def test_ct_adjacent_validates():
    with pytest.raises(InvalidInputError):
        ct_adjacent((0,), (0, 1), 1)
    with pytest.raises(InvalidInputError):
        ct_adjacent((0, 0), (0, 1), 0)
    with pytest.raises(InvalidInputError):
        ct_adjacent((0, 0), (0, 1), 3)


def test_points_are_canonicalized():
    img = DigitalImage(points=((2,), (0,), (1,)), adjacency=CT(1))
    assert img.points == ((0,), (1,), (2,))
    # source_order maps input positions to canonical indices
    assert img.source_order == (2, 0, 1)


def test_explicit_edges_follow_relabeling():
    img = DigitalImage(points=((5,), (3,)), adjacency=Explicit({(0, 1)}))
    # input index 0 is point (5,), canonical index 1
    assert img.adjacent(0, 1)
    assert img.points == ((3,), (5,))


def test_validation_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        DigitalImage(points=(), adjacency=CT(1))
    with pytest.raises(InvalidInputError):
        DigitalImage(points=((0,), (0,)), adjacency=CT(1))
    with pytest.raises(InvalidInputError):
        DigitalImage(points=((0,), (0, 1)), adjacency=CT(1))
    with pytest.raises(InvalidInputError):
        Explicit({(0, 0)})
    with pytest.raises(InvalidInputError):
        DigitalImage(points=((0,), (1,)), adjacency=Explicit({(0, 2)}))
    with pytest.raises(InvalidInputError, match="dimension must be positive"):
        DigitalImage(points=((0,),), adjacency=CT(1), dimension=0)
    with pytest.raises(InvalidInputError, match="invalid for dimension 1"):
        DigitalImage(points=((0,), (1,)), adjacency=CT(2))
    data = interval(0, 1).to_json_dict()
    data["adjacency"] = {"type": "nonesuch"}
    with pytest.raises(InvalidInputError, match="unknown adjacency type"):
        image_from_json_dict(data)
    with pytest.raises(InvalidInputError, match="out of range"):
        neighbors(interval(0, 1), 2)


def test_adjacency_is_symmetric_and_antireflexive():
    img = cube()
    for i in range(img.n_points):
        assert not img.adjacent(i, i)
        for j in range(img.n_points):
            assert img.adjacent(i, j) == img.adjacent(j, i)


def test_neighbors_open_and_closed():
    iv = interval(0, 2)
    assert neighbors(iv, 1) == {0, 2}
    assert neighbors(iv, 1, closed=True) == {0, 1, 2}
    assert neighbors(iv, 0) == {1}


def test_components_and_connectivity():
    assert is_connected(cycle(5))
    assert not is_connected(discrete(3))
    assert is_totally_disconnected(discrete(3))
    assert not is_totally_disconnected(interval(0, 1))
    two = DigitalImage(points=((0,), (1,), (5,), (6,)), adjacency=CT(1))
    comps = components(two)
    assert sorted(len(c) for c in comps) == [2, 2]


def test_degree_sequences():
    assert cube().degree_sequence() == (3,) * 8
    assert figure1().degree_sequence().count(3) == 4
    assert interval(0, 3).degree_sequence() == (1, 1, 2, 2)


def test_semantic_equality_ignores_name():
    a = DigitalImage(points=((0,), (1,)), adjacency=CT(1), name="a")
    b = DigitalImage(points=((0,), (1,)), adjacency=Explicit({(0, 1)}), name="b")
    assert a == b
    assert hash(a) == hash(b)
    assert a != interval(0, 2)


def test_json_round_trip():
    for img in (cube(), figure1(), square4(), discrete(3)):
        again = image_from_json_dict(img.to_json_dict())
        assert again == img
        assert again.name == img.name


def test_square4_is_cycle4_but_not_tee4():
    assert find_isomorphism(square4(), cycle(4)) is not None
    assert find_isomorphism(square4(), tee4()) is None
    assert find_isomorphism(interval(0, 3), tee4()) is None


def test_equal_degrees_do_not_make_an_isomorphism():
    # C6 and two disjoint triangles are both 2-regular on six points, so only
    # the search, backtracking through every candidate, can tell them apart
    triangles = DigitalImage(
        points=tuple((i,) for i in range(6)),
        adjacency=Explicit({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}),
    )
    assert cycle(6).degree_sequence() == triangles.degree_sequence()
    assert find_isomorphism(cycle(6), triangles) is None
    assert find_isomorphism(triangles, cycle(6)) is None


def _explicit_line(n: int, edges) -> DigitalImage:
    return DigitalImage(points=tuple((i,) for i in range(n)), adjacency=Explicit(set(edges)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: interval(0, 1499),
        lambda: cycle(1500),
        lambda: _explicit_line(4000, [(i, i + 1) for i in range(3999)]),
        lambda: _explicit_line(4000, [(i, (i + 1) % 4000) for i in range(4000)]),
        lambda: _explicit_line(4000, []),
    ],
    ids=["path", "cycle", "path-4000", "cycle-4000", "edgeless-4000"],
)
def test_isomorphism_search_takes_no_frame_per_point(build):
    # 1 500 points are past Python's recursion limit, so the search may not
    # take a frame per point; the first match of an image with itself is the
    # identity.  A position is checked against its earlier neighbours only,
    # not every earlier point, so 4 000 points take milliseconds
    img = build()
    start = time.perf_counter()
    phi = find_isomorphism(img, img)
    assert time.perf_counter() - start < 0.5
    assert phi is not None and phi.forward == tuple(range(img.n_points))


def test_isomorphism_search_matches_oracle_on_every_pair_of_labelled_graphs():
    # the constructor checks edges only; every bijection between two graphs
    # must still be accepted exactly when it preserves adjacency at all pairs
    graphs = list(_labelled_graphs(4))
    for x_img in graphs:
        n = x_img.n_points
        pairs = list(itertools.combinations(range(n), 2))
        for y_img in graphs:
            if y_img.n_points != n:
                continue
            phi = find_isomorphism(x_img, y_img)
            assert (phi is not None) == isomorphic_oracle(x_img, y_img), (x_img.edges, y_img.edges)
            for perm in itertools.permutations(range(n)):
                preserves = all(
                    x_img.adjacent(i, j) == y_img.adjacent(perm[i], perm[j]) for i, j in pairs
                )
                try:
                    Isomorphism(x_img, y_img, perm)
                except InvalidInputError:
                    assert not preserves, (x_img.edges, y_img.edges, perm)
                else:
                    assert preserves, (x_img.edges, y_img.edges, perm)


def test_isomorphism_apply_and_inverse():
    phi = find_isomorphism(square4(), cycle(4))
    assert phi is not None
    assert sorted(phi.apply(i) for i in range(4)) == [0, 1, 2, 3]
    inv = phi.inverse()
    assert all(inv.apply(phi.apply(i)) == i for i in range(4))


def test_isomorphism_validates():
    with pytest.raises(InvalidInputError):
        Isomorphism(square4(), tee4(), (0, 1, 2, 3))
    with pytest.raises(InvalidInputError):
        Isomorphism(square4(), cycle(4), (0, 0, 1, 2))


def test_singleton_and_builtin_shapes():
    assert singleton().n_points == 1
    assert figure1().n_points == 18
    assert len(figure1().edges) == 20
    assert cube().n_points == 8 and len(cube().edges) == 12


@st.composite
def explicit_images(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return DigitalImage(points=tuple((i,) for i in range(n)), adjacency=Explicit(edges))


@given(explicit_images())
@settings(max_examples=60)
def test_random_image_json_round_trip(img):
    assert image_from_json_dict(img.to_json_dict()) == img


@given(explicit_images(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_random_image_isomorphic_to_shuffled_self(img, rng):
    perm = list(range(img.n_points))
    rng.shuffle(perm)
    edges = {(perm[i], perm[j]) for i, j in img.edges}
    shuffled = DigitalImage(
        points=tuple((i,) for i in range(img.n_points)), adjacency=Explicit(edges)
    )
    phi = find_isomorphism(img, shuffled)
    assert phi is not None
    for i in range(img.n_points):
        for j in range(img.n_points):
            assert img.adjacent(i, j) == shuffled.adjacent(phi.apply(i), phi.apply(j))
