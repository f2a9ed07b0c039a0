from __future__ import annotations

import pytest

from digitop import (
    EnumerationBudget,
    InvalidInputError,
    constant,
    cycle,
    discrete,
    figure1,
    from_assignment,
    hcs,
    hcs_of_classes,
    hfs,
    homotopy_class,
    identity,
    interval,
    m_j_of_map,
    mc,
    mcf,
    self_coincidence_sequence,
    square4,
    tee4,
)
import digitop.homotopy as homotopy
from oracles import hcs_oracle, hfs_oracle, mj_oracle


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


def test_hcs_matches_oracle_on_tiny_spaces():
    cases = [
        (interval(0, 2), interval(0, 2), [(0, 0, 0), (0, 1, 2)]),
        (cycle(4), cycle(4), [(0, 1, 2, 3), (1, 2, 3, 0)]),
        (square4(), tee4(), [(1, 0, 1, 2), (3, 3, 3, 3)]),
        (cycle(5), cycle(5), [(0, 1, 2, 3, 4), (1, 1, 1, 1, 1)]),
    ]
    for x_img, y_img, assignments in cases:
        maps = [from_assignment(x_img, y_img, a) for a in assignments]
        result = hcs(maps)
        assert result.values.exact
        assert result.values.as_set() == hcs_oracle(x_img, y_img, assignments)


def test_hfs_matches_oracle_on_tiny_spaces():
    for x_img in (interval(0, 2), cycle(4), cycle(5), tee4()):
        a = (0,) * x_img.n_points
        result = hfs([constant(x_img, x_img, 0)])
        assert result.values.exact
        assert result.values.as_set() == hfs_oracle(x_img, [a])


def test_hfs_requires_self_maps():
    with pytest.raises(InvalidInputError):
        hfs([constant(cycle(3), cycle(4), 0)])
    with pytest.raises(InvalidInputError):
        mcf([constant(cycle(3), cycle(4), 0)])


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


def test_a_failed_chain_search_runs_once(monkeypatch):
    targets = []
    greedy_pull = homotopy._greedy_pull

    def counted(f, target, meter):
        targets.append(target)
        return greedy_pull(f, target, meter)

    monkeypatch.setattr(homotopy, "_greedy_pull", counted)
    fig = figure1()
    seq = self_coincidence_sequence(fig, 3)
    assert seq.entries == ((1, 18, True), (2, 18, True), (3, 18, True))
    # one failed pull toward each point; the class reuses the verdict
    assert targets == list(range(fig.n_points))


def test_budget_propagates_to_inexact_entries():
    seq = self_coincidence_sequence(cycle(6), 3, EnumerationBudget(max_nodes=2))
    assert seq.entries[0] == (1, 6, True)
    assert not seq.entries[1][2]
