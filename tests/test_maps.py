from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitop import (
    ContinuityError,
    DigitalMap,
    InvalidInputError,
    are_homotopic,
    coincidence_set,
    common_fixed_set,
    compose,
    conjugate,
    constant,
    cube,
    cycle,
    disjoint_paths,
    enumerate_continuous_maps,
    find_isomorphism,
    fixed_point_set,
    from_assignment,
    homotopy_class,
    identity,
    interval,
    is_continuous,
    one_step_neighbors,
    random_connected_image,
    square4,
    tee4,
)
from oracles import continuous_oracle


def test_identity_and_constant_are_continuous():
    c4 = cycle(4)
    assert identity(c4).assignment == (0, 1, 2, 3)
    assert constant(c4, c4, 2).assignment == (2, 2, 2, 2)
    with pytest.raises(InvalidInputError):
        constant(c4, c4, 4)


def test_discontinuity_carries_a_witness():
    iv = interval(0, 3)
    with pytest.raises(ContinuityError) as err:
        from_assignment(iv, iv, (0, 2, 0, 0))
    assert err.value.edge == (0, 1)
    assert err.value.values == (0, 2)


def test_assignment_validation():
    iv = interval(0, 2)
    with pytest.raises(InvalidInputError):
        from_assignment(iv, iv, (0, 1))
    with pytest.raises(InvalidInputError):
        from_assignment(iv, iv, (0, 1, 7))


def test_both_constructors_keep_an_assignment_given_as_an_iterator():
    iv = interval(0, 2)
    for construct in (DigitalMap, from_assignment):
        f = construct(iv, iv, iter([0, 1, 2]))
        assert f.assignment == (0, 1, 2)
        assert f == identity(iv)
        with pytest.raises(ContinuityError):
            construct(iv, iv, iter([0, 2, 2]))


def test_compose_and_shape_checks():
    iv = interval(0, 2)
    c3 = cycle(3)
    f = from_assignment(iv, c3, (0, 1, 2))
    g = from_assignment(c3, c3, (1, 2, 0))
    assert compose(g, f).assignment == (1, 2, 0)
    with pytest.raises(InvalidInputError):
        compose(f, f)
    with pytest.raises(InvalidInputError, match="self-maps only"):
        conjugate(f, find_isomorphism(iv, iv))
    with pytest.raises(InvalidInputError, match="domain must match"):
        conjugate(g, find_isomorphism(iv, iv))


def test_conjugate_preserves_fixed_points():
    sq = square4()
    phi = find_isomorphism(sq, cycle(4))
    f = from_assignment(sq, sq, (1, 2, 3, 0))
    moved = conjugate(f, phi)
    assert len(fixed_point_set(moved)) == len(fixed_point_set(f))
    assert moved.domain == cycle(4)


def test_coincidence_set_shrinks():
    sq, tee = square4(), tee4()
    f = from_assignment(sq, tee, (1, 0, 1, 2))
    g = from_assignment(sq, tee, (0, 1, 3, 1))
    c = constant(sq, tee, 3)
    assert coincidence_set([f]) == (0, 1, 2, 3)
    assert coincidence_set([f, g]) == ()
    assert coincidence_set([f, g, c]) == ()
    assert coincidence_set([f, f, f]) == (0, 1, 2, 3)


def test_coincidence_requires_shared_images():
    with pytest.raises(InvalidInputError):
        coincidence_set([])
    with pytest.raises(InvalidInputError):
        coincidence_set([identity(cycle(3)), identity(cycle(4))])


def test_fixed_and_common_fixed_sets():
    c4 = cycle(4)
    rot = from_assignment(c4, c4, (1, 2, 3, 0))
    assert fixed_point_set(identity(c4)) == (0, 1, 2, 3)
    assert fixed_point_set(rot) == ()
    assert common_fixed_set([identity(c4), rot]) == ()
    near = from_assignment(c4, c4, (0, 1, 2, 1))
    assert common_fixed_set([near]) == (0, 1, 2)
    with pytest.raises(InvalidInputError):
        fixed_point_set(constant(c4, cube(), 0))
    with pytest.raises(InvalidInputError, match="self-maps only"):
        common_fixed_set([constant(c4, cube(), 0)])


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4))
@settings(max_examples=200)
def test_continuity_matches_oracle_on_square_to_tee(values):
    sq, tee = square4(), tee4()
    assert is_continuous(sq, tee, tuple(values)) == continuous_oracle(sq, tee, tuple(values))


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=5))
@settings(max_examples=200)
def test_continuity_matches_oracle_on_cycle5(values):
    c5 = cycle(5)
    assert is_continuous(c5, c5, tuple(values)) == continuous_oracle(c5, c5, tuple(values))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_enumerated_maps_are_continuous(seed, split_domain):
    """Maps wrapped from enumerator output skip the re-check, so test them here."""
    rng = random.Random(seed)
    if split_domain:
        x_img = disjoint_paths(tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3))))
    else:
        x_img = random_connected_image(rng, rng.randint(1, 4))
    y_img = random_connected_image(rng, rng.randint(1, 4))
    pool = enumerate_continuous_maps(x_img, y_img).maps
    f, g = rng.choice(pool), rng.choice(pool)
    produced = list(pool)
    produced += one_step_neighbors(f).maps
    produced += homotopy_class(f).members
    witness = are_homotopic(f, g).witness
    produced += witness.chain if witness else ()
    for m in produced:
        assert (m.domain, m.codomain) == (x_img, y_img)
        assert type(m.assignment) is tuple
        assert is_continuous(x_img, y_img, m.assignment), m
