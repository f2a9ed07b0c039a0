"""The built-in verification suites and the conjecture sweep."""

import hashlib
import json
import time
from functools import partial

import pytest

from digitop import (
    EnumerationBudget,
    HomotopySpectrumResult,
    InvalidInputError,
    RunConfig,
    SelfCoincidenceSequence,
    Spectrum,
    builders,
    check_figure_examples,
    conjecture_search,
    conjugate,
    constant,
    disjoint_paths,
    fixed_point_spectrum,
    hcs_of_classes,
    iso_invariance_reports,
    mj_reports,
    random_pair_property_reports,
    run_suite,
    self_coincidence_sequence,
    subset_sums,
)
import digitop.verify as verify
from digitop.images import components
from digitop.verify import _partitions


def _verdicts(reports):
    return {r.verdict for r in reports}


def test_unknown_suite_rejected():
    with pytest.raises(InvalidInputError):
        run_suite("nonesuch")


def test_fixture_suite_all_pass():
    reports = run_suite("paper-fixtures")
    assert reports
    assert _verdicts(reports) == {"pass"}


def test_random_suite_all_pass():
    reports = run_suite("random-small", RunConfig(random_instances=6))
    assert reports
    assert _verdicts(reports) == {"pass"}


def test_reports_sorted_and_serializable():
    reports = run_suite("random-small", RunConfig(random_instances=4))
    keys = [(r.check_id, r.instance) for r in reports]
    assert keys == sorted(keys)
    row = reports[0].to_json_dict()
    assert {"check_id", "instance", "verdict", "elapsed", "details"} <= set(row)


def test_corrupted_fixture_is_caught():
    # swap in a non-contractible 8-point image for the cube; the figure
    # checks must notice rather than rubber-stamp
    reports = check_figure_examples(RunConfig(), cube_img=builders.cycle(8))
    by_name = {r.instance: r for r in reports}
    assert by_name["contractible(cube)"].verdict == "fail"
    assert by_name["F(cube)"].verdict == "fail"
    assert "expected" in by_name["F(cube)"].details
    # untouched fixtures still pass
    assert by_name["rigid(figure1)"].verdict == "pass"


def test_random_reports_are_deterministic():
    a = random_pair_property_reports(seed=3, count=5)
    b = random_pair_property_reports(seed=3, count=5)
    assert [(r.check_id, r.instance, r.verdict) for r in a] == [
        (r.check_id, r.instance, r.verdict) for r in b
    ]


def test_random_batches_pass_at_five_points():
    assert _verdicts(random_pair_property_reports(seed=11, count=8, max_points=5)) == {"pass"}
    assert _verdicts(iso_invariance_reports(seed=11, count=8, max_points=5)) == {"pass"}
    assert _verdicts(mj_reports(seed=11, count=4, max_points=5)) == {"pass"}


def test_six_point_batches_never_fail():
    # dense 6-point instances have classes of thousands of members; the
    # equalizer's ceiling stop keeps their class-restricted checks exact
    assert _verdicts(random_pair_property_reports(seed=11, count=12)) == {"pass"}


def test_partitions_of_four():
    got = {tuple(p) for p in _partitions(4)}
    assert got == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}


def test_disjoint_paths_components():
    img = disjoint_paths((3, 2, 1))
    assert img.n_points == 6
    assert sorted(len(c) for c in components(img)) == [1, 2, 3]


def test_subset_sums_values():
    assert subset_sums((2, 1)) == frozenset({0, 1, 2, 3})
    assert subset_sums((3, 3)) == frozenset({0, 3, 6})


def test_conjecture_search_small_sweep():
    reports = conjecture_search(max_x_points=4, max_y_points=3, i_max=3)
    assert _verdicts(reports) == {"pass"}
    assert any(r.instance == "reduction-note" for r in reports)
    # partitions of 2..4 with >=2 parts: 1+1, 2+1, 1+1+1, 3+1, 2+2, 2+1+1,
    # 1+1+1+1 -> 7, each against two codomain sizes, plus the note
    assert len(reports) == 7 * 2 + 1
    spectra = {r.instance: r.details for r in reports if r.instance != "reduction-note"}
    row = spectra["X=paths:2+1 Y=discrete:2 i_max=3"]
    assert row["observed"]["2"] == [0, 1, 2, 3]
    assert row["subset_sums"] == [0, 1, 2, 3]


def _digest(reports):
    """First 16 hex digits of the SHA-256 of the reports' JSON without elapsed."""
    rows = [{k: v for k, v in r.to_json_dict().items() if k != "elapsed"} for r in reports]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def test_fixture_suite_reports_are_pinned():
    reports = run_suite("paper-fixtures")
    assert len(reports) == 394
    assert _digest(reports) == "51c43cd53996cffe"


def test_random_suite_reports_are_pinned():
    # The random monotone check runs up to the default i_max of 4 and lists
    # the spectra it compared in its details.
    reports = run_suite("random-small", RunConfig(seed=1, random_instances=20))
    assert len(reports) == 105
    assert _verdicts(reports) == {"pass"}
    assert _digest(reports) == "235e30aa78e89846"


def test_random_monotone_check_runs_to_i_max():
    def monotone(i_max):
        config = RunConfig(i_max=i_max, seed=4, random_instances=4)
        return [r for r in run_suite("random-small", config) if r.check_id == "monotone"]

    for i_max in (2, 3, 5):
        reports = monotone(i_max)
        assert len(reports) == 4 and _verdicts(reports) == {"pass"}
        assert {len(r.details["chain"]) for r in reports} == {i_max - 1}
    assert _digest(monotone(2)) != _digest(monotone(3))


@pytest.mark.parametrize("max_nodes", [5, 30, 200])
def test_a_tripped_budget_skips_and_never_fails(max_nodes):
    def suite(budget):
        return run_suite("all", RunConfig(budget, random_instances=10, max_random_points=5))

    reports = suite(EnumerationBudget(max_nodes=max_nodes))
    # each body draws from an rng of its own, so a skip changes no later instance
    assert [(r.check_id, r.instance) for r in reports] == [
        (r.check_id, r.instance) for r in suite(None)
    ]
    assert not [(r.check_id, r.instance) for r in reports if r.verdict == "fail"]
    skipped = [r for r in reports if r.verdict == "skipped"]
    assert any(r.check_id == "figure-examples" for r in skipped)
    assert all(r.details["reason"] for r in skipped)
    if max_nodes == 5:
        # their map enumerations and F(X) are budgeted like every other answer
        checks = {r.check_id for r in skipped}
        assert {"iso-invariance", "nested-coincidence"} <= checks


def test_rigidity_checks_are_budgeted():
    config = RunConfig(budget=EnumerationBudget(max_nodes=5))
    # C6 in place of the contractible cube minus a vertex: its closure trips
    by_name = {r.instance: r for r in check_figure_examples(config, cube_minus=builders.cycle(6))}
    for name in ("F(cube)", "rigid(figure1)", "contractible(cube_minus_vertex)"):
        assert by_name[name].verdict == "skipped", name
        assert by_name[name].details["reason"] == "budget tripped"
    reports = [r for r in run_suite("paper-fixtures", config) if r.check_id == "rigid-hcs"]
    assert {r.instance: r.verdict for r in reports} == {
        "X=figure1": "skipped",
        "X=singleton": "pass",
    }
    # a rigid identity and a movable one, each within a budget that fits it
    assert verify._rigid(builders.figure1(), RunConfig()) is True
    assert verify._rigid(builders.cycle(4), config) is False


def test_figure_examples_time_their_own_computation(monkeypatch):
    def slow_spectrum(*args):
        time.sleep(0.01)
        return fixed_point_spectrum(*args)

    monkeypatch.setattr(verify, "fixed_point_spectrum", slow_spectrum)
    by_name = {r.instance: r for r in check_figure_examples(RunConfig())}
    assert by_name["F(cube)"].verdict == "pass"
    assert by_name["F(cube)"].elapsed >= 0.01
    assert by_name["rigid(figure1)"].elapsed < 0.01


def test_conjecture_search_rejects_arity_below_two():
    with pytest.raises(InvalidInputError):
        conjecture_search(max_x_points=3, i_max=1)


# Each check below is run on a fixture with the engine call it reads swapped
# for one that drops or adds a value, and must fail on the image it read.


def _check_reports(names, check_id, body):
    """The reports of one check body on the builtin images named."""
    return verify._run_checks(verify._fixtures(names), ((check_id, body),), RunConfig())


def _failed_on(reports, x_img):
    assert [r.verdict for r in reports] == ["fail"]
    assert reports[0].details["x_image"] == x_img.to_json_dict()
    return reports[0].details


def _with_values(result, values):
    """result with the values of its spectrum replaced."""
    spectrum = result.values
    return HomotopySpectrumResult(
        Spectrum(values, spectrum.exact, spectrum.i), result.classes_complete, min(values)
    )


def test_hcs_inclusion_fails_when_the_longer_spectrum_drops_a_value(monkeypatch):
    def dropping(classes, budget=None):
        result = hcs_of_classes(classes, budget)
        if len(classes) == 3:
            return _with_values(result, result.values.values[1:])
        return result

    monkeypatch.setattr(verify, "hcs_of_classes", dropping)
    details = _failed_on(
        _check_reports("cycle:4", "hcs-monotone", verify._hcs_monotone), builders.cycle(4)
    )
    assert set(details["hcs_2"]) - set(details["hcs_3"]) == {0}


def test_rigid_hcs_fails_when_a_value_is_added(monkeypatch):
    def adding(classes, budget=None):
        result = hcs_of_classes(classes, budget)
        return _with_values(result, (0, *result.values.values))

    monkeypatch.setattr(verify, "hcs_of_classes", adding)
    details = _failed_on(
        _check_reports("singleton", "rigid-hcs", verify._rigid_hcs), builders.singleton()
    )
    assert (details["i"], details["values"]) == (2, [0, 1])


def test_mj_monotone_fails_when_the_sequence_grows(monkeypatch):
    def growing(x_img, j_max, budget=None):
        entries = list(self_coincidence_sequence(x_img, j_max, budget).entries)
        j, value, exact = entries[-1]
        entries[-1] = (j, value + 1, exact)
        return SelfCoincidenceSequence(tuple(entries))

    monkeypatch.setattr(verify, "self_coincidence_sequence", growing)
    details = _failed_on(
        _check_reports("cycle:5", "mj-monotone", verify._mj_monotone), builders.cycle(5)
    )
    assert [value for _, value, _ in details["entries"]] == [5, 0, 0, 1]


def _edit(spectrum, edit):
    """spectrum with edit applied to its values."""
    return Spectrum(edit(spectrum.values), spectrum.exact, spectrum.i, spectrum.stabilized_at)


def _edited(fn, edit):
    """fn with edit applied to the values of the spectrum it returns."""
    return lambda *args: _edit(fn(*args), edit)


def _edited_last_arity(fn, edit):
    """fn, returning spectra by arity, with edit applied to the largest arity's values."""
    def wrong(*args):
        by_arity = fn(*args)
        last = max(by_arity)
        by_arity[last] = _edit(by_arity[last], edit)
        return by_arity

    return wrong


def _drop_top(values):
    return values[:-1]


def _drop_bottom(values):
    return values[1:]


def _add_above(values):
    return (*values, values[-1] + 1)


def _conjugate_ignoring_the_map(f, phi):
    """Not the conjugate of f: the conjugate of a constant, whatever f is."""
    return conjugate(constant(f.domain, f.domain, 0), phi)


# (check body, X names, Y names or None, {verify attribute: wrong call}, a detail of the branch)
FAILING_CHECKS = {
    "lemma-cardinality": (
        verify._lemma_cardinality, "interval:0:2", "interval:0:1",
        {"coincidence_spectrum": _edited(verify.coincidence_spectrum, _drop_top)}, "values",
    ),
    "lemma-full-range": (
        verify._lemma_full_range, "interval:0:2", "interval:0:1",
        {"coincidence_spectrum": _edited(verify.coincidence_spectrum, _drop_bottom)}, "values",
    ),
    "lemma-full-range/search": (
        verify._lemma_full_range, "interval:0:2", "interval:0:1",
        {
            "coincidence_spectrum_by_search":
                _edited(verify.coincidence_spectrum_by_search, _drop_bottom),
        },
        "search_values",
    ),
    "monotone/adjacent-pair": (
        verify._monotone, "interval:0:2", "interval:0:1",
        {
            "coincidence_spectra_by_arity":
                _edited_last_arity(verify.coincidence_spectra_by_arity, _drop_bottom),
        },
        "reason",
    ),
    "monotone/shrinking-chain": (
        verify._monotone, "discrete:2", "discrete:2",
        {
            "coincidence_spectra_by_arity":
                _edited_last_arity(verify.coincidence_spectra_by_arity, _drop_bottom),
        },
        "chain",
    ),
    "monotone/public": (
        verify._monotone, "discrete:2", "discrete:2",
        {"coincidence_spectrum": _edited(verify.coincidence_spectrum, _drop_bottom)}, "public",
    ),
    "monotone-search": (
        verify._monotone_search, "discrete:2", "discrete:2",
        {
            "coincidence_spectrum": _edited(verify.coincidence_spectrum, _drop_top),
            "coincidence_spectrum_by_search":
                _edited(verify.coincidence_spectrum_by_search, _drop_top),
        },
        "values",
    ),
    "monotone-search/public": (
        verify._monotone_search, "discrete:2", "discrete:2",
        {"coincidence_spectrum": _edited(verify.coincidence_spectrum, _drop_bottom)}, "public",
    ),
    "fx-subset": (
        verify._fx_subset, "interval:0:2", None,
        {"fixed_point_spectrum": _edited(verify.fixed_point_spectrum, _add_above)}, "cs2_values",
    ),
    "fx-subset-search": (
        verify._fx_subset_search, "interval:0:2", None,
        {
            "coincidence_spectrum_by_search":
                _edited(verify.coincidence_spectrum_by_search, _drop_top),
        },
        "cs2_values",
    ),
    "totally-disconnected": (
        verify._totally_disconnected, "interval:0:2", "discrete:2",
        {"coincidence_spectrum": _edited(verify.coincidence_spectrum, _add_above)}, "values",
    ),
    "nested-coincidence": (
        verify._nested, "interval:0:2", "interval:0:2",
        # a longer tuple agrees at more points
        {"coincidence_set": lambda maps: frozenset(range(len(maps)))}, "tuple",
    ),
    # no call is swapped: the fixture itself is wrong, since C4 is not rigid
    "rigid-hcs": (verify._rigid_hcs, "cycle:4", None, {}, "reason"),
    "iso-invariance": (
        verify._iso_invariance, "cycle:4", None,
        {"conjugate": _conjugate_ignoring_the_map}, "coincidence_sizes",
    ),
    "conjecture": (
        partial(verify._conjecture, i_max=3), "discrete:2", "discrete:2",
        {
            "coincidence_spectra_by_arity":
                _edited_last_arity(verify.coincidence_spectra_by_arity, _add_above),
        },
        "observed",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILING_CHECKS))
def test_each_check_fails_when_its_engine_call_is_wrong(monkeypatch, case):
    body, xs, ys, swaps, branch_detail = FAILING_CHECKS[case]
    for name, wrong in swaps.items():
        monkeypatch.setattr(verify, name, wrong)
    check_id = case.split("/")[0]
    reports = verify._run_checks(verify._fixtures(xs, ys), ((check_id, body),), RunConfig())
    details = _failed_on(reports, builders.builtin(xs))
    assert branch_detail in details
    if ys is not None:
        assert details["y_image"] == builders.builtin(ys).to_json_dict()
