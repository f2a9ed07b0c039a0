"""Budget honesty: a node budget may cut a search short but never falsify it.

Every budgeted entry point is swept over ``max_nodes`` in 1..60 on 2- to
5-point images, chosen so that each sweep sees both tripped and completed
searches; a case that cannot finish within 60 nodes names a wider range in
``WIDE_BUDGETS``.  At each step an exact result equals the unbudgeted one, an
inexact spectrum or map set is a subset of it, and an inexact minimum is an
upper bound.  The class spectra are swept both on greedy-contractible domains,
where HCS and MC take a closed form that charges no node, so every budget
gives the exact answer, and on C5, where the classes are built and searched
on one meter.
"""

from __future__ import annotations

from functools import partial

import pytest

from digitop import homotopy
from digitop import (
    EnumerationBudget,
    are_homotopic,
    coincidence_spectra_by_arity,
    coincidence_spectrum_by_search,
    coincidence_spectrum_union,
    common_fixed_spectrum,
    common_fixed_spectrum_union,
    constant,
    cube,
    cycle,
    discrete,
    disjoint_paths,
    enumerate_continuous_maps,
    fixed_point_spectrum,
    from_assignment,
    hcs,
    hcs_of_classes,
    hfs,
    homotopy_class,
    identity,
    interval,
    mc,
    mcf,
    self_coincidence_sequence,
    square4,
    tee4,
)
from digitop.homotopy_spectra import _classes_of

NODE_BUDGETS = range(1, 61)

EDGE = interval(0, 1)
PATH = interval(0, 2)
TRIANGLE = cycle(3)
FLIP = from_assignment(PATH, PATH, (2, 1, 0))
C5 = cycle(5)
# C5 has no contracting chain, so its classes are built by the closure; the
# constants at 0 and 1 into the edge of disjoint_paths((2, 1)) share a class
C5_CONSTANTS = [constant(C5, disjoint_paths((2, 1)), v) for v in (0, 1)]


def _enumerate(budget):
    outcome = enumerate_continuous_maps(PATH, PATH, budget)
    return {m.assignment for m in outcome.maps}, outcome.exhausted


def _class(budget):
    cls = homotopy_class(constant(EDGE, PATH, 0), budget)
    return {m.assignment for m in cls.members}, cls.complete


def _class_index(budget):
    # the class is all of Hom(D2, P3), so an exact closure ends over the index
    cls = homotopy_class(constant(discrete(2), PATH, 2), budget)
    return {m.assignment for m in cls.members}, cls.complete


def _class_cycle(budget):
    # C5 has no contracting chain, so the closure answers, and stays inside
    # the edge of the codomain; the class is all of Hom(C5, edge), so an
    # exact closure ends over the index
    cls = homotopy_class(constant(cycle(5), disjoint_paths((2, 1)), 0), budget)
    return {m.assignment for m in cls.members}, cls.complete


def _class_complete_codomain(budget):
    cls = homotopy_class(identity(TRIANGLE), budget)
    return {m.assignment for m in cls.members}, cls.complete


def _class_complete_codomain_cycle(budget):
    # C5 has no contracting chain, but K3 is complete, so one enumeration
    # lists the class: all 243 maps C5 -> K3
    cls = homotopy_class(constant(C5, TRIANGLE, 0), budget)
    return {m.assignment for m in cls.members}, cls.complete


def _homotopic(budget):
    f, g = constant(PATH, PATH, 0), constant(PATH, PATH, 1)
    verdict = are_homotopic(f, g, budget).verdict
    return verdict, verdict != "unknown"


def _cs(budget):
    s = coincidence_spectrum_by_search(PATH, PATH, 2, budget)
    return set(s.values), s.exact


def _cs_disconnected(budget):
    s = coincidence_spectrum_by_search(tee4(), discrete(2), 2, budget)
    return set(s.values), s.exact


def _by_arity(budget):
    # PATH -> D3 realizes only {0, 3}, so the closure runs to exhaustion
    spectra = coincidence_spectra_by_arity(PATH, discrete(3), 3, budget)
    return {i: set(s.values) for i, s in spectra.items()}, spectra[2].exact


def _cfs(budget):
    s = common_fixed_spectrum(PATH, 2, budget)
    return set(s.values), s.exact


def _cfs_union(budget):
    s = common_fixed_spectrum_union(EDGE, 3, budget)
    return (set(s.values), s.stabilized_at), s.exact


def _hcs(budget):
    # PATH contracts by a greedy chain, which PATH decides once and charges
    # to no budget, so the closed form answers with no node
    maps = [identity(PATH), constant(PATH, PATH, 0)]
    result = hcs(maps, budget)
    return set(result.values.values), result.values.exact


def _hfs(budget):
    maps = [constant(PATH, PATH, 1), constant(PATH, PATH, 2)]
    result = hfs(maps, budget)
    return set(result.values.values), result.values.exact


def _hcs_searched(budget):
    result = hcs(C5_CONSTANTS, budget)
    return set(result.values.values), result.values.exact


def _mc(budget):
    return mc([identity(PATH), FLIP], budget)


def _mc_searched(budget):
    return mc(C5_CONSTANTS, budget)


def _mcf(budget):
    return mcf([identity(PATH), constant(PATH, PATH, 0)], budget)


def _mj(image, budget):
    entries = self_coincidence_sequence(image, 3, budget).entries
    return [(j, value) for j, value, _ in entries], [exact for _, _, exact in entries]


def _subset(part, whole):
    return part <= whole


def _each_subset(part, whole):
    return part.keys() == whole.keys() and all(part[i] <= whole[i] for i in part)


def _cfs_below(part, whole):
    return part[0] <= whole[0]


def _upper_bound(part, whole):
    return part is None or part >= whole


def _unknown(part, whole):
    return part == "unknown"


# name -> (run, how an inexact answer must relate to the exact one)
CASES = {
    "enumerate_continuous_maps": (_enumerate, _subset),
    "homotopy_class": (_class, _subset),
    "homotopy_class/complete-codomain": (_class_complete_codomain, _subset),
    "homotopy_class/complete-codomain-cycle": (_class_complete_codomain_cycle, _subset),
    "homotopy_class/cycle": (_class_cycle, _subset),
    "homotopy_class/index": (_class_index, _subset),
    "are_homotopic": (_homotopic, _unknown),
    "coincidence_spectrum_by_search": (_cs, _subset),
    "coincidence_spectrum_by_search/disconnected": (_cs_disconnected, _subset),
    "coincidence_spectra_by_arity": (_by_arity, _each_subset),
    "common_fixed_spectrum": (_cfs, _subset),
    "common_fixed_spectrum_union": (_cfs_union, _cfs_below),
    "hcs": (_hcs, _subset),
    "hcs/searched": (_hcs_searched, _subset),
    "hfs": (_hfs, _subset),
    "mc": (_mc, _upper_bound),
    "mc/searched": (_mc_searched, _upper_bound),
    "mcf": (_mcf, _upper_bound),
}


# cases whose closed form charges no node, so every budget gives the exact answer
NO_NODES = {"hcs", "mc"}

# name -> node budgets, for cases that need more than NODE_BUDGETS to finish
WIDE_BUDGETS = {
    "homotopy_class/complete-codomain-cycle": range(1, 401),
    "homotopy_class/cycle": range(1, 201),
    "hcs/searched": range(1, 301),
    "mc/searched": range(1, 301),
}


def sweep(run, budgets=NODE_BUDGETS):
    """[(max_nodes, answer, exact)] over the budgets, for the record."""
    return [(k, *run(EnumerationBudget(max_nodes=k))) for k in budgets]


@pytest.mark.parametrize("name", sorted(CASES))
def test_budgeted_answers_are_honest(name):
    run, relation = CASES[name]
    truth, exact = run(None)
    assert exact
    outcomes = sweep(run, WIDE_BUDGETS.get(name, NODE_BUDGETS))
    for k, answer, exact in outcomes:
        if exact:
            assert answer == truth, k
        else:
            assert relation(answer, truth), k
    assert {exact for _, _, exact in outcomes} == ({True} if name in NO_NODES else {False, True})


def test_budgeted_self_coincidence_sequence_is_honest():
    # square4 contracts by a greedy chain, so m_j takes the closed form of mc
    # and charges no node; C5's identity class is searched
    for image, budgets, flags_seen in (
        (square4(), NODE_BUDGETS, {True}),
        (C5, range(1, 601), {False, True}),
    ):
        run = partial(_mj, image)
        truth, exact = run(None)
        assert all(exact)
        outcomes = sweep(run, budgets)
        for k, entries, flags in outcomes:
            for (j, value), (_, true_value), entry_exact in zip(entries, truth, flags):
                if entry_exact:
                    assert value == true_value, (image, k, j)
                else:
                    assert value is None or value >= true_value, (image, k, j)
        assert {all(flags) for _, _, flags in outcomes} == flags_seen, image


def test_class_sweeps_reach_the_index(monkeypatch):
    """Some exact run in each class sweep finishes over the indexed Hom space."""
    built = []
    init = homotopy._HomIndex.__init__

    def recording(index, domain, codomain, pool):
        init(index, domain, codomain, pool)
        built.append(True)

    monkeypatch.setattr(homotopy._HomIndex, "__init__", recording)
    for name in ("homotopy_class/cycle", "homotopy_class/index"):
        run, _ = CASES[name]
        indexed_exact = []
        for k in WIDE_BUDGETS.get(name, NODE_BUDGETS):
            built.clear()
            _, exact = run(EnumerationBudget(max_nodes=k))
            indexed_exact.append(exact and any(built))
        assert any(indexed_exact), name


def test_classes_of_one_operation_share_one_budget():
    # X = [0, 3] is contractible, so each class is one enumeration into a
    # component of Y; each fits the budget alone, but not both in turn
    y_img = disjoint_paths((3, 3))
    maps = [constant(interval(0, 3), y_img, 0), constant(interval(0, 3), y_img, 3)]
    budget = EnumerationBudget(max_nodes=100)
    assert all(homotopy_class(f, budget).complete for f in maps)
    first, second = _classes_of(maps, budget, fixed=False)
    assert first.complete and len(first.members) == 41
    assert not second.complete and maps[1] in second
    assert len(second.members) < 41


def test_the_classes_and_the_equalizer_search_share_one_budget():
    # on C5 the identity's class (its five rotations, which hold the second
    # map) takes 334 nodes and the equalizer search 25 more, so a budget
    # that fits the classes but not the search is inexact
    maps = [identity(C5), from_assignment(C5, C5, (1, 2, 3, 4, 0))]
    result = hcs(maps, EnumerationBudget(max_nodes=346))
    assert result.classes_complete
    assert not result.values.exact
    assert not hcs(maps, EnumerationBudget(max_nodes=333)).classes_complete
    for nodes in (359, 366, 1000):
        result = hcs(maps, EnumerationBudget(max_nodes=nodes))
        assert result.values.exact
        assert result.values.values == (0, 5)


def test_classes_complete_reports_the_classes_not_the_search():
    classes = [homotopy_class(identity(PATH)), homotopy_class(FLIP)]
    assert all(cls.complete for cls in classes)
    result = hcs_of_classes(classes, EnumerationBudget(max_nodes=1))
    assert result.classes_complete is True
    assert result.values.exact is False


@pytest.mark.parametrize(
    "x_img, y_img",
    [(cube(), cube()), (cycle(5), discrete(2)), (tee4(), tee4()), (C5, C5), (PATH, EDGE)],
    ids=["cube-cube", "c5-d2", "tee4-tee4", "c5-c5", "path-edge"],
)
def test_a_result_cap_cuts_no_spectrum_stream(x_img, y_img):
    # CS_i, F, CFS_i and their unions read Hom(X, Y) as a stream that ends
    # only where its closure stops or the operation's meter trips, so a cap
    # of one result changes no answer
    runs = [
        partial(coincidence_spectrum_by_search, x_img, y_img, 2),
        partial(coincidence_spectrum_by_search, x_img, y_img, 3),
        partial(coincidence_spectrum_union, x_img, y_img, 3),
        partial(coincidence_spectra_by_arity, x_img, y_img, 3),
        partial(fixed_point_spectrum, x_img),
        partial(common_fixed_spectrum, x_img, 1),
        partial(common_fixed_spectrum, x_img, 2),
        partial(common_fixed_spectrum_union, x_img, 3),
    ]
    cap = EnumerationBudget(max_results=1)
    for run in runs:
        assert run(budget=cap) == run(budget=None), run
    # HFS of (id, const) on the contractible cube streams the same search
    if x_img == cube():
        pair = [identity(x_img), constant(x_img, x_img, 0)]
        cfs_2 = common_fixed_spectrum(x_img, 2, cap)
        assert cfs_2.exact and cfs_2.values == (0, 1, 2, 3, 4, 5, 6, 8)
        assert hfs(pair, cap).values == cfs_2
