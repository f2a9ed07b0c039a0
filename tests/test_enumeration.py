from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitop import (
    DigitalImage,
    EnumerationBudget,
    Explicit,
    InvalidInputError,
    count_continuous_maps,
    cube,
    cycle,
    discrete,
    enumerate_continuous_maps,
    identity,
    interval,
    one_step_neighbors,
    singleton,
    square4,
    tee4,
)
from oracles import all_maps_oracle, one_step_oracle


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


def test_enumeration_matches_oracle_on_all_tiny_pairs():
    for x_img, y_img in itertools.product(_tiny_images(), repeat=2):
        outcome = enumerate_continuous_maps(x_img, y_img)
        assert outcome.exhausted
        got = [m.assignment for m in outcome.maps]
        assert sorted(got) == sorted(all_maps_oracle(x_img, y_img))
        assert len(set(got)) == len(got)


def test_known_self_map_counts():
    expected = {1: 1, 2: 4, 3: 27, 4: 84, 5: 265, 6: 858, 7: 2765}
    for n, count in expected.items():
        assert count_continuous_maps(cycle(n), cycle(n)) == (count, True)
    assert count_continuous_maps(interval(0, 3), interval(0, 3)) == (68, True)
    assert count_continuous_maps(cube(), cube()) == (15488, True)


def test_count_agrees_with_enumeration():
    for x_img, y_img in ((cycle(4), tee4()), (tee4(), cycle(4))):
        count, exhausted = count_continuous_maps(x_img, y_img)
        assert exhausted
        assert count == len(enumerate_continuous_maps(x_img, y_img).maps)


def test_max_results_truncates():
    c4 = cycle(4)
    outcome = enumerate_continuous_maps(c4, c4, EnumerationBudget(max_results=10))
    assert len(outcome.maps) == 10
    assert not outcome.exhausted


def test_max_results_equal_to_the_count_is_exhaustive():
    c4 = cycle(4)
    outcome = enumerate_continuous_maps(c4, c4, EnumerationBudget(max_results=84))
    assert len(outcome.maps) == 84
    assert outcome.exhausted
    outcome = enumerate_continuous_maps(c4, c4, EnumerationBudget(max_results=83))
    assert len(outcome.maps) == 83
    assert not outcome.exhausted
    assert count_continuous_maps(c4, c4, EnumerationBudget(max_results=84)) == (84, True)


def test_max_nodes_truncates():
    c4 = cycle(4)
    outcome = enumerate_continuous_maps(c4, c4, EnumerationBudget(max_nodes=5))
    assert not outcome.exhausted
    assert len(outcome.maps) <= 5


def test_budget_validates():
    with pytest.raises(InvalidInputError):
        EnumerationBudget(max_results=0)
    with pytest.raises(InvalidInputError):
        EnumerationBudget(max_nodes=0)
    with pytest.raises(InvalidInputError):
        EnumerationBudget(time_budget=-1.0)


@pytest.mark.parametrize("field", ["max_results", "max_nodes", "time_budget"])
def test_budget_rejects_nan(field):
    # a NaN deadline compares false with every clock reading, so it never trips
    with pytest.raises(InvalidInputError):
        EnumerationBudget(**{field: float("nan")})


def test_enumeration_order_is_deterministic():
    a = enumerate_continuous_maps(tee4(), cycle(3)).maps
    b = enumerate_continuous_maps(tee4(), cycle(3)).maps
    assert [m.assignment for m in a] == [m.assignment for m in b]


def test_one_step_neighbors_match_definition():
    c5 = cycle(5)
    f = identity(c5)
    outcome = one_step_neighbors(f)
    assert outcome.exhausted
    got = {m.assignment for m in outcome.maps}
    expected = {
        a
        for a in all_maps_oracle(c5, c5)
        if one_step_oracle(c5, f.assignment, a)
    }
    assert got == expected
    assert f.assignment in got


@st.composite
def image_pairs(draw):
    def build(n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        return DigitalImage(points=tuple((i,) for i in range(n)), adjacency=Explicit(edges))

    return (
        build(draw(st.integers(min_value=1, max_value=4))),
        build(draw(st.integers(min_value=1, max_value=4))),
    )


@given(image_pairs())
@settings(max_examples=60)
def test_enumeration_matches_oracle_on_random_pairs(pair):
    x_img, y_img = pair
    outcome = enumerate_continuous_maps(x_img, y_img)
    assert outcome.exhausted
    assert sorted(m.assignment for m in outcome.maps) == sorted(all_maps_oracle(x_img, y_img))
