from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitop import (
    InvalidInputError,
    builtin,
    builtin_names,
    cube,
    cube_minus_vertex,
    cycle,
    discrete,
    disjoint_paths,
    interval,
    is_connected,
    is_totally_disconnected,
    random_connected_image,
)


def test_interval_shape():
    iv = interval(-2, 2)
    assert iv.n_points == 5
    assert len(iv.edges) == 4
    with pytest.raises(InvalidInputError):
        interval(3, 1)


def test_cycle_shapes():
    assert cycle(1).n_points == 1 and not cycle(1).edges
    assert len(cycle(2).edges) == 1
    for n in (3, 5, 8):
        cn = cycle(n)
        assert cn.n_points == n
        assert len(cn.edges) == n
        assert cn.degree_sequence() == (2,) * n
    with pytest.raises(InvalidInputError):
        cycle(0)


def test_discrete_has_no_edges():
    d = discrete(4)
    assert d.n_points == 4
    assert is_totally_disconnected(d)


def test_cube_minus_vertex():
    cmv = cube_minus_vertex()
    assert cmv.n_points == 7
    assert (1, 1, 1) not in cmv.points
    assert sorted(cmv.degree_sequence()) == [2, 2, 2, 3, 3, 3, 3]
    assert is_connected(cmv)


def test_builtin_resolution():
    assert builtin("cube") == cube()
    assert builtin("cycle:6") == cycle(6)
    assert builtin("interval:0:4") == interval(0, 4)
    assert builtin("discrete:2") == discrete(2)
    with pytest.raises(InvalidInputError):
        builtin("nonesuch")
    with pytest.raises(InvalidInputError):
        builtin("cycle:x")
    assert "figure1" in builtin_names()


def test_builtin_reports_the_constructor_reason():
    for name in ("cycle:0", "discrete:0"):
        with pytest.raises(InvalidInputError, match="at least one point"):
            builtin(name)
    with pytest.raises(InvalidInputError, match="at least one point"):
        random_connected_image(random.Random(0), 0)
    with pytest.raises(InvalidInputError, match="empty interval"):
        builtin("interval:3:1")
    for name in ("cycle:x", "interval:1", "interval:0:x", "discrete:1:2"):
        with pytest.raises(InvalidInputError, match="bad parameter"):
            builtin(name)


@pytest.mark.parametrize(
    "call",
    [
        lambda: cycle(4.0),
        lambda: cycle(True),
        lambda: discrete(2.5),
        lambda: interval(0, 2.5),
        lambda: interval(0.0, 2),
        lambda: disjoint_paths([2, 2.0]),
        lambda: random_connected_image(random.Random(1), 4.0),
    ],
    ids=[
        "cycle-float",
        "cycle-bool",
        "discrete-float",
        "interval-float-end",
        "interval-float-start",
        "disjoint-paths-float-size",
        "random-connected-float-count",
    ],
)
def test_builder_counts_are_checked(call):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call()


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_random_connected_image_is_connected(n_points, seed):
    img = random_connected_image(random.Random(seed), n_points)
    assert img.n_points == n_points
    assert is_connected(img)
