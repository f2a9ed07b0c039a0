"""Result and parameter records: immutable, compared field by field, validated."""

from __future__ import annotations

import pytest

from digitop import (
    CT,
    DigitalImage,
    DigitalMap,
    EnumerationBudget,
    EnumerationOutcome,
    Explicit,
    HomotopyAnswer,
    HomotopyClass,
    HomotopySpectrumResult,
    HomotopyWitness,
    InvalidInputError,
    SelfCoincidenceSequence,
    Spectrum,
    builders,
    constant,
    find_isomorphism,
    identity,
)
from digitop.verify import RunConfig, VerificationReport


def _records():
    iv = builders.interval(0, 2)
    f = identity(iv)
    witness = HomotopyWitness([f])
    spectrum = Spectrum((1, 0), True, 2)
    return [
        CT(1),
        Explicit([(0, 1)]),
        iv,
        find_isomorphism(iv, iv),
        f,
        EnumerationBudget(max_nodes=3),
        EnumerationOutcome((f,), True),
        witness,
        HomotopyClass(f, (f,), True),
        HomotopyAnswer("yes", witness),
        spectrum,
        HomotopySpectrumResult(spectrum, True, 0),
        SelfCoincidenceSequence(((1, 3, True),)),
        VerificationReport("check", "instance", "pass", 0.0),
        RunConfig(),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    field = next(iter(vars(record)))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_name_their_type_and_equal_no_other_object(record):
    assert repr(record).startswith(f"{type(record).__name__}(")
    assert record != object()


def test_equal_records_compare_and_hash_equal():
    iv = builders.interval(0, 2)
    f, g = identity(iv), identity(builders.interval(0, 2))
    assert f == g and hash(f) == hash(g)
    assert len({f, g, constant(iv, iv, 0)}) == 2
    assert f != f.assignment

    s, t = Spectrum((2, 0), True, 2), Spectrum([0, 2, 2], True, i=2)
    assert s == t and hash(s) == hash(t)
    assert s != Spectrum((0, 2), True, 3)

    b, c = EnumerationBudget(max_nodes=5), EnumerationBudget(None, 5)
    assert b == c and hash(b) == hash(c)
    assert b != EnumerationBudget(max_results=5)


def test_constructors_take_keywords_and_defaults():
    budget = EnumerationBudget(time_budget=2.5)
    assert (budget.max_results, budget.max_nodes, budget.time_budget) == (None, None, 2.5)
    spectrum = Spectrum(values=[3, 1, 3], exact=False)
    assert (spectrum.values, spectrum.exact, spectrum.i, spectrum.stabilized_at) == (
        (1, 3), False, None, None,
    )
    assert EnumerationOutcome(maps=(), exhausted=True).nodes_used == 0
    assert HomotopyAnswer(verdict="no").witness is None
    img = DigitalImage(points=[(1,), (0,)], adjacency=CT(t=1))
    assert (img.points, img.name, img.dimension, img.source_order) == (((0,), (1,)), None, 1, (1, 0))
    f = DigitalMap(domain=img, codomain=img, assignment=[1, 1])
    assert f.assignment == (1, 1)
    config = RunConfig(seed=3)
    assert (config.budget, config.i_max, config.j_max, config.seed) == (None, 4, 4, 3)
    assert (config.random_instances, config.max_random_points) == (40, 6)


def test_reports_without_details_do_not_share_a_dict():
    a = VerificationReport("check", "one", "pass", 0.0)
    b = VerificationReport(check_id="check", instance="two", verdict="pass", elapsed=0.0)
    a.details["seed"] = 1
    assert b.details == {}


@pytest.mark.parametrize(
    "settings",
    [{"i_max": 1}, {"i_max": 0}, {"j_max": 0}, {"random_instances": -1}, {"max_random_points": 0}],
)
def test_run_config_rejects_out_of_range_settings(settings):
    with pytest.raises(InvalidInputError):
        RunConfig(**settings)


def test_witness_chain_must_be_nonempty():
    with pytest.raises(InvalidInputError):
        HomotopyWitness(())
