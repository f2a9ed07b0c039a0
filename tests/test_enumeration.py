from __future__ import annotations

import hashlib
import itertools
import json
import random

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
    cube_minus_vertex,
    cycle,
    discrete,
    enumerate_continuous_maps,
    from_assignment,
    identity,
    interval,
    one_step_neighbors,
    singleton,
    square4,
    tee4,
)
from digitop.enumeration import (
    MapSpaceContext,
    Meter,
    assignments_in_context,
    enumerate_assignments,
)
from digitop.verify import random_image
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


_KERNEL_BUDGETS = (
    None,
    EnumerationBudget(max_nodes=37),
    EnumerationBudget(max_nodes=1000),
    EnumerationBudget(max_results=5),
    EnumerationBudget(max_results=858),
)


def _kernel_pairs():
    pairs = list(itertools.product(_tiny_images(), repeat=2))
    pairs += [(cycle(6), cycle(6)), (cycle(7), cycle(5)), (cube(), cube_minus_vertex())]
    rng = random.Random(8)
    pairs += [(random_image(rng, 6), random_image(rng, 6)) for _ in range(40)]
    return pairs


def _kernel_rows():
    """Everything the search reports, per (X, Y) and budget, as JSON-ready rows."""
    for x_img, y_img in _kernel_pairs():
        for budget in _KERNEL_BUDGETS:
            assignments, exhausted, nodes = enumerate_assignments(x_img, y_img, budget)
            yield [assignments, exhausted, nodes, count_continuous_maps(x_img, y_img, budget)]
            first = enumerate_continuous_maps(x_img, y_img, EnumerationBudget(max_results=3))
            for f in first.maps:
                outcome = one_step_neighbors(f, budget)
                yield [[m.assignment for m in outcome.maps], outcome.exhausted, outcome.nodes_used]


def test_search_output_is_pinned():
    # assignments in order, exhausted flags and node counts under five
    # budgets, plus counts and budgeted one-step searches; pinned from the
    # frozenset backtracking search that the bitmask search replaced
    digest = hashlib.sha256(json.dumps(list(_kernel_rows())).encode()).hexdigest()[:16]
    assert digest == "1afa9c353324f54e"


def test_allowed_masks_restrict_the_search():
    # a one-step search is the enumeration restricted to the closed
    # neighborhoods of f's values, so it keeps the unrestricted order
    c6 = cycle(6)
    f = from_assignment(c6, c6, (0, 1, 2, 2, 1, 0))
    closed = [sum(1 << w for w in c6.neighbor_sets()[u]) | 1 << u for u in range(6)]
    allowed = tuple(closed[v] for v in f.assignment)
    context = MapSpaceContext(c6, c6)
    got, exhausted, _ = assignments_in_context(context, Meter(), allowed)
    assert exhausted
    everything, _, _ = enumerate_assignments(c6, c6)
    assert got == [a for a in everything if one_step_oracle(c6, f.assignment, a)]
    assert got == [m.assignment for m in one_step_neighbors(f).maps]
    # a point allowed no value leaves no map
    assert assignments_in_context(context, Meter(), (0,) + allowed[1:]) == ([], True, 0)
