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
    RunConfig,
    coincidence_spectra_by_arity,
    coincidence_spectrum,
    coincidence_spectrum_by_search,
    coincidence_spectrum_union,
    common_fixed_spectrum,
    common_fixed_spectrum_union,
    conjecture_search,
    count_continuous_maps,
    cube,
    cube_minus_vertex,
    cycle,
    discrete,
    enumerate_continuous_maps,
    from_assignment,
    identity,
    interval,
    m_j_of_map,
    one_step_neighbors,
    self_coincidence_sequence,
    singleton,
    square4,
    tee4,
)
from digitop.enumeration import (
    Meter,
    _Search,
    assignments_in_context,
    code_layout,
    enumerate_assignments,
)
from digitop.verify import random_image
from oracles import all_maps_oracle, one_step_oracle
from test_spectra import tiny_pairs


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: EnumerationBudget(max_results=2.5),
        lambda: EnumerationBudget(max_nodes="5"),
        lambda: EnumerationBudget(max_nodes=True),
        lambda: EnumerationBudget(time_budget=True),
        lambda: EnumerationBudget(time_budget="1"),
        lambda: RunConfig(i_max=2.5),
        lambda: RunConfig(random_instances=4.0),
        lambda: conjecture_search(2.5),
        lambda: conjecture_search(4, 2.5),
        lambda: conjecture_search(4, 2, 3.0),
        lambda: coincidence_spectrum(cycle(4), discrete(2), 2.5),
        lambda: coincidence_spectrum(cycle(4), cycle(4), 2.5),
        lambda: coincidence_spectrum_by_search(cycle(4), discrete(2), True),
        lambda: coincidence_spectrum_union(cycle(4), discrete(2), 2.5),
        lambda: coincidence_spectra_by_arity(cycle(4), discrete(2), 2.5),
        lambda: common_fixed_spectrum(cycle(4), 1.5),
        lambda: common_fixed_spectrum_union(cycle(4), "2"),
        lambda: m_j_of_map(identity(cycle(4)), 2.5),
        lambda: self_coincidence_sequence(cycle(4), 2.5),
    ],
    ids=[
        "budget-results-float",
        "budget-nodes-str",
        "budget-nodes-bool",
        "budget-time-bool",
        "budget-time-str",
        "config-i-max-float",
        "config-instances-float",
        "conjecture-x-float",
        "conjecture-y-float",
        "conjecture-i-max-float",
        "cs-float-into-edgeless",
        "cs-float-past-the-shortcut",
        "cs-search-bool",
        "cs-union-float",
        "cs-by-arity-float",
        "cfs-float",
        "cfs-union-str",
        "m-j-float",
        "sequence-float",
    ],
)
def test_every_count_is_an_integer(call):
    # a float cap never equals the result count, so it would never trip, and
    # a float arity would come back as the spectrum's i
    with pytest.raises(InvalidInputError):
        call()


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
    got, exhausted, _ = assignments_in_context(c6, c6, Meter(), allowed)
    assert exhausted
    everything, _, _ = enumerate_assignments(c6, c6)
    assert got == [a for a in everything if one_step_oracle(c6, f.assignment, a)]
    assert got == [m.assignment for m in one_step_neighbors(f).maps]
    # a point allowed no value leaves no map
    assert assignments_in_context(c6, c6, Meter(), (0,) + allowed[1:]) == ([], True, 0)


def _maps_and_codes(x_img, y_img, budget):
    """The "maps" and "codes" searches of X -> Y under budget, with the result count at each pause."""
    max_results = budget.max_results if budget else None
    runs = []
    for output in ("maps", "codes"):
        search = _Search(x_img, y_img, None, Meter(budget), output, max_results)
        pauses = [len(search.results) for _ in search.batches()]
        runs.append((search, pauses))
    return runs


def _decoded(x_img, y_img, codes):
    """Map codes as assignment tuples: each field holds its point's value + 1."""
    layout = code_layout(x_img.n_points, y_img.n_points)
    return [tuple(field - 1 for field in layout.fields(code)) for code in codes]


@given(
    tiny_pairs(),
    st.one_of(
        st.none(),
        st.builds(lambda k: EnumerationBudget(max_results=k), st.integers(1, 60)),
        st.builds(lambda k: EnumerationBudget(max_nodes=k), st.integers(1, 300)),
    ),
)
@settings(max_examples=100, deadline=None)
def test_the_code_output_is_the_map_output_encoded(pair, budget):
    x_img, y_img = pair
    (maps, maps_pauses), (codes, codes_pauses) = _maps_and_codes(x_img, y_img, budget)
    assert _decoded(x_img, y_img, codes.results) == maps.results
    assert codes_pauses == maps_pauses
    assert (codes.exhausted, codes.meter.nodes, codes.count) == (
        maps.exhausted,
        maps.meter.nodes,
        maps.count,
    )


@pytest.mark.parametrize("n_values, bits", [(127, 8), (128, 16), (200, 16)])
def test_codes_into_a_large_codomain_take_wider_fields(n_values, bits):
    # a 3-point path into a cycle: 127 values fit 8-bit fields below their
    # guard bit, 128 and 200 need 16
    x_img, y_img = interval(0, 2), cycle(n_values)
    assert code_layout(3, n_values).bits == bits
    (maps, maps_pauses), (codes, codes_pauses) = _maps_and_codes(x_img, y_img, None)
    assert len(maps.results) == 9 * n_values
    assert _decoded(x_img, y_img, codes.results) == maps.results
    assert codes_pauses == maps_pauses
    assert codes.meter.nodes == maps.meter.nodes
