"""Machine checks for the mathematical laws the package computes with.

Two suites: ``paper-fixtures`` runs every check on the builtin images;
``random-small`` re-checks the universally quantified laws on seeded
random instances.  ``conjecture_search`` sweeps disconnected domains
against edgeless codomains looking for a spectrum that keeps growing
with arity; none is expected, but the sweep reports whatever it finds.

``_run_checks`` runs a list of (check id, body) on the instances of one
source; the fixture suite is a table of (check id, source, body) rows.
A body returns a pass or fail verdict with details, and raises ``_Skip``
when an answer it needs is not exact, so a tripped budget is reported the
same way by every check.  Every report is reproducible from its instance
description plus the seed recorded in its details.
"""

from __future__ import annotations

import itertools
import random
import time
from functools import partial

from . import builders
from ._record import Record
from .enumeration import EnumerationBudget, Meter, enumerate_assignments
from .errors import InvalidInputError
from .homotopy import _rigid_within, homotopy_class, is_contractible
from .homotopy_spectra import (
    _classes_of,
    hcs_of_classes,
    hfs_of_classes,
    self_coincidence_sequence,
)
from .images import (
    CT,
    DigitalImage,
    Explicit,
    Isomorphism,
    _require_at_least,
    _require_int,
    components,
)
from .maps import (
    DigitalMap,
    _enumerated,
    coincidence_set,
    conjugate,
    constant,
    fixed_point_set,
    from_assignment,
    identity,
)
from .spectra import (
    coincidence_spectra_by_arity,
    coincidence_spectrum,
    coincidence_spectrum_by_search,
    fixed_point_spectrum,
)


class VerificationReport(Record):
    _fields = ("check_id", "instance", "verdict", "elapsed", "details")
    check_id: str
    instance: str
    verdict: str  # pass, fail, or skipped (budget)
    elapsed: float
    details: dict

    def __init__(
        self,
        check_id: str,
        instance: str,
        verdict: str,
        elapsed: float,
        details: dict | None = None,
    ):
        object.__setattr__(self, "check_id", check_id)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "elapsed", elapsed)
        object.__setattr__(self, "details", {} if details is None else details)

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "instance": self.instance,
            "verdict": self.verdict,
            "elapsed": round(self.elapsed, 6),
            "details": self.details,
        }


class RunConfig(Record):
    """Settings of a verification run; random instances have 1..max_random_points points."""

    _fields = (
        "budget", "i_max", "j_max", "seed", "random_instances", "max_random_points"
    )
    budget: EnumerationBudget | None
    i_max: int
    j_max: int
    seed: int
    random_instances: int
    max_random_points: int

    def __init__(
        self,
        budget: EnumerationBudget | None = None,
        i_max: int = 4,
        j_max: int = 4,
        seed: int = 0,
        random_instances: int = 40,
        max_random_points: int = 6,
    ):
        # CS_1 is always {#X}, so the laws about CS_i start at arity 2
        _require_at_least(i_max, 2, "i_max")
        _require_at_least(j_max, 1, "j_max")
        _require_at_least(random_instances, 0, "random_instances")
        _require_at_least(max_random_points, 1, "max_random_points")
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "i_max", i_max)
        object.__setattr__(self, "j_max", j_max)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "random_instances", random_instances)
        object.__setattr__(self, "max_random_points", max_random_points)


SUITES = ("paper-fixtures", "random-small", "all")


class _Skip(Exception):
    """Raised by a check body whose answer is not exact; details say why."""

    def __init__(self, details: dict):
        super().__init__(details)
        self.details = details


def _exact(result):
    """The result itself when it is exact; otherwise skip the check."""
    if not result.exact:
        raise _Skip({"reason": "budget tripped"})
    return result


def _all_assignments(x_img, y_img, config):
    """Every continuous assignment X -> Y within the run's budget; skip the check if it trips.

    A check wraps only the maps it picks from them.
    """
    assignments, exhausted, _ = enumerate_assignments(x_img, y_img, config.budget)
    if not exhausted:
        raise _Skip({"reason": "budget tripped"})
    return assignments


def _draw(x_img, y_img, pool, rng) -> DigitalMap:
    """One map X -> Y drawn with rng from pool, a list of continuous assignments."""
    return _enumerated(x_img, y_img, pool[rng.randrange(len(pool))])


def _rigid(img: DigitalImage, config) -> bool:
    """Whether id_img is rigid, within the run's budget; skip the check if it trips."""
    answer = _rigid_within(identity(img), Meter(config.budget))
    if answer is None:
        raise _Skip({"reason": "budget tripped"})
    return answer


def _run(check_id: str, instance: str, seed: int, fn) -> VerificationReport:
    """Time one check body; fn returns (verdict, details) or raises _Skip."""
    started = time.perf_counter()
    try:
        verdict, details = fn()
    except _Skip as skip:
        verdict, details = "skipped", skip.details
    details = dict(details)
    details.setdefault("seed", seed)
    return VerificationReport(
        check_id=check_id,
        instance=instance,
        verdict=verdict,
        elapsed=time.perf_counter() - started,
        details=details,
    )


def _fail(x_img: DigitalImage, y_img: DigitalImage | None = None, **details):
    """A fail verdict whose details carry the images it was found on."""
    details["x_image"] = x_img.to_json_dict()
    if y_img is not None:
        details["y_image"] = y_img.to_json_dict()
    return "fail", details


def _label(head: str, x_img: DigitalImage, y_img: DigitalImage | None = None) -> str:
    def describe(img):
        return img.name or f"{img.n_points}p/{len(img.edges)}e"

    label = f"{head}X={describe(x_img)}"
    return label if y_img is None else f"{label} Y={describe(y_img)}"


def _run_checks(source, checks, config: RunConfig) -> list[VerificationReport]:
    """Run every (check id, body) of checks on each instance source yields.

    The source is called as source(rng, config) with rng = Random(config.seed)
    and yields (label, X, Y or None); only the source draws from that rng.
    Each body gets an rng of its own, seeded from its check id and the
    instance label, so the instances and every body's draws are the same
    whether or not a budget trips.
    """
    rng = random.Random(config.seed)
    return [
        _run(check_id, label, config.seed, partial(body, x_img, y_img, config, own_rng))
        for label, x_img, y_img in source(rng, config)
        for check_id, body in checks
        for own_rng in (random.Random(f"{check_id} {label}"),)
    ]


# ---------------------------------------------------------------------------
# instance sources

_TINY = (  # every fixture with at most 4 points; small enough for any brute force
    "singleton discrete:2 discrete:3 interval:0:1 interval:0:2 interval:0:3 "
    "cycle:3 cycle:4 square4 tee4"
)
_CONNECTED = (
    "singleton interval:0:1 interval:0:2 interval:0:3 interval:0:4 "
    "cycle:3 cycle:4 cycle:5 cycle:6 square4 tee4 cube_minus_vertex cube"
)


def _fixture_pairs(pairs):
    """Builtin images: each (X name, Y name or None) of pairs."""
    def source(rng, config):
        for x_name, y_name in pairs:
            x_img = builders.builtin(x_name)
            y_img = None if y_name is None else builders.builtin(y_name)
            yield _label("", x_img, y_img), x_img, y_img

    return source


def _fixtures(xs: str, ys: str | None = None):
    """Builtin images: each X named in xs, or each (X, Y) of xs by ys."""
    return _fixture_pairs(tuple(itertools.product(xs.split(), ys.split() if ys else [None])))


def random_image(rng: random.Random, max_points: int) -> DigitalImage:
    """Either a labeled graph with edge probability 1/2 or a CT image on [0,2]^n."""
    if rng.random() < 0.5:
        k = rng.randint(1, max_points)
        edges = {
            (i, j)
            for i in range(k)
            for j in range(i + 1, k)
            if rng.random() < 0.5
        }
        return DigitalImage(
            points=tuple((i,) for i in range(k)), adjacency=Explicit(edges)
        )
    dim = rng.randint(1, 3)
    grid = list(itertools.product((0, 1, 2), repeat=dim))
    k = rng.randint(1, min(max_points, len(grid)))
    points = tuple(rng.sample(grid, k))
    return DigitalImage(points=points, adjacency=CT(rng.randint(1, dim)))


def _random_images(rng, config):
    for k in range(config.random_instances):
        x_img = random_image(rng, config.max_random_points)
        yield _label(f"seed={config.seed} k={k} ", x_img), x_img, None


def _random_pairs(rng, config):
    for k in range(config.random_instances):
        x_img = random_image(rng, config.max_random_points)
        y_img = random_image(rng, config.max_random_points)
        yield _label(f"seed={config.seed} k={k} ", x_img, y_img), x_img, y_img


# ---------------------------------------------------------------------------
# check bodies: body(x_img, y_img, config, rng) -> (verdict, details)

def _lemma_cardinality(x_img, y_img, config, rng):
    """#X is always achievable, and 0 is whenever the codomain has two points."""
    n = x_img.n_points
    for i in (2, config.i_max):
        values = _exact(coincidence_spectrum(x_img, y_img, i, config.budget)).as_set()
        bad = (
            n not in values
            or (y_img.n_points > 1 and 0 not in values)
            or not values <= set(range(n + 1))
        )
        if bad:
            return _fail(x_img, y_img, i=i, values=sorted(values))
    return "pass", {}


def _lemma_full_range(x_img, y_img, config, rng):
    """With an adjacent pair in Y, CS_2 is all of {0..#X}.

    Small instances are confirmed by the exhaustive subset search; larger
    ones by the witness construction the public operation uses.
    """
    expected = list(range(x_img.n_points + 1))
    values = sorted(_exact(coincidence_spectrum(x_img, y_img, 2, config.budget)).values)
    if values != expected:
        return _fail(x_img, y_img, values=values, expected=expected)
    if x_img.n_points <= 4 and y_img.n_points <= 4:
        searched = coincidence_spectrum_by_search(x_img, y_img, 2, config.budget)
        searched = sorted(_exact(searched).values)
        if searched != expected:
            return _fail(x_img, y_img, search_values=searched, expected=expected)
    return "pass", {}


def _chain_verdict(chain, x_img, y_img, config):
    """Fail if the sets CS_2, CS_3, ... in chain shrink or CS_2 is not the public one."""
    if any(not a <= b for a, b in zip(chain, chain[1:])):
        return _fail(x_img, y_img, chain=[sorted(c) for c in chain])
    public = _exact(coincidence_spectrum(x_img, y_img, 2, config.budget))
    if public.as_set() != chain[0]:
        return _fail(
            x_img,
            y_img,
            reason="search route disagrees with the public operation",
            search=sorted(chain[0]),
            public=sorted(public.values),
        )
    return None


def _monotone(x_img, y_img, config, rng):
    """CS_i grows with i, and is constant once the codomain has an edge."""
    i_max = max(3, min(config.i_max, 4))
    by_arity = coincidence_spectra_by_arity(x_img, y_img, i_max, config.budget)
    chain = [_exact(by_arity[i]).as_set() for i in range(2, i_max + 1)]
    if y_img.edges and any(c != chain[0] for c in chain):
        return _fail(
            x_img,
            y_img,
            reason="expected equality with an adjacent pair in Y",
            chain=[sorted(c) for c in chain],
        )
    return _chain_verdict(chain, x_img, y_img, config) or ("pass", {})


def _monotone_search(x_img, y_img, config, rng):
    """As _monotone, from one subset search per arity, plus the cardinality lemma."""
    chain = [
        _exact(coincidence_spectrum_by_search(x_img, y_img, i, config.budget)).as_set()
        for i in range(2, config.i_max + 1)
    ]
    verdict = _chain_verdict(chain, x_img, y_img, config)
    if verdict:
        return verdict
    n = x_img.n_points
    if not chain[0] <= set(range(n + 1)) or n not in chain[0]:
        return _fail(x_img, y_img, values=sorted(chain[0]))
    return "pass", {"chain": [sorted(c) for c in chain]}


def _fx_subset(x_img, y_img, config, rng):
    """Every achievable fixed-point count is an achievable coincidence count."""
    f_values = sorted(_exact(fixed_point_spectrum(x_img, config.budget)).values)
    cs2 = _exact(coincidence_spectrum(x_img, x_img, 2, config.budget))
    if not set(f_values) <= cs2.as_set():
        return _fail(x_img, f_values=f_values, cs2_values=list(cs2.values))
    return "pass", {"f_values": f_values}


def _fx_subset_search(x_img, y_img, config, rng):
    """As _fx_subset, with CS_2 from the subset search."""
    f_spec = _exact(fixed_point_spectrum(x_img, config.budget))
    cs2 = _exact(coincidence_spectrum_by_search(x_img, x_img, 2, config.budget))
    if not f_spec.as_set() <= cs2.as_set():
        return _fail(x_img, f_values=list(f_spec.values), cs2_values=list(cs2.values))
    return "pass", {}


def _totally_disconnected(x_img, y_img, config, rng):
    """Connected domain, edgeless codomain: only 0 and #X are achievable."""
    expected = sorted({0, x_img.n_points})
    for i in range(2, config.i_max + 1):
        values = sorted(_exact(coincidence_spectrum(x_img, y_img, i, config.budget)).values)
        if values != expected:
            return _fail(x_img, y_img, i=i, values=values, expected=expected)
    return "pass", {}


def _nested_verdict(x_img, y_img, tuples):
    """Adding a map to a tuple can only shrink the coincidence set."""
    for tup in tuples:
        sets = [set(coincidence_set(tup[: k + 1])) for k in range(4)]
        if any(not smaller <= bigger for bigger, smaller in zip(sets, sets[1:])):
            return _fail(x_img, y_img, tuple=[list(m.assignment) for m in tup])
    return "pass", {}


def _nested(x_img, y_img, config, rng):
    """Tuples of four from the first, last and constant maps X -> Y."""
    pool = _all_assignments(x_img, y_img, config)
    picked = [_enumerated(x_img, y_img, a) for a in pool[:6] + pool[-2:]]
    picked += [constant(x_img, y_img, y) for y in range(y_img.n_points)]
    maps = list({m.assignment: m for m in picked}.values())
    tuples = itertools.islice(itertools.product(maps, repeat=4), 0, 256)
    return _nested_verdict(x_img, y_img, tuples)


def _nested_random(x_img, y_img, config, rng):
    """Eight tuples of four maps X -> Y drawn with rng."""
    pool = _all_assignments(x_img, y_img, config)
    tuples = ([_draw(x_img, y_img, pool, rng) for _ in range(4)] for _ in range(8))
    return _nested_verdict(x_img, y_img, tuples)


def _relabel(img: DigitalImage, perm: list[int]) -> tuple[DigitalImage, Isomorphism]:
    """A fresh image with point i renamed perm[i], plus the isomorphism onto it."""
    edges = {(perm[i], perm[j]) for i, j in img.edges}
    relabeled = DigitalImage(
        points=tuple((i,) for i in range(img.n_points)),
        adjacency=Explicit(edges),
    )
    return relabeled, Isomorphism(img, relabeled, tuple(perm))


def _iso_invariance(x_img, y_img, config, rng):
    """Conjugation by an isomorphism preserves every coincidence count."""
    perm = list(range(x_img.n_points))
    rng.shuffle(perm)
    relabeled, phi = _relabel(x_img, perm)
    pool = _all_assignments(x_img, x_img, config)
    picked = [_draw(x_img, x_img, pool, rng) for _ in range(3)]
    moved = [conjugate(f, phi) for f in picked]
    sizes = [len(coincidence_set(picked)), len(coincidence_set(moved))]
    fix_ok = all(
        len(fixed_point_set(f)) == len(fixed_point_set(g)) for f, g in zip(picked, moved)
    )
    spectra_ok = (
        _exact(fixed_point_spectrum(x_img, config.budget)).as_set()
        == _exact(fixed_point_spectrum(relabeled, config.budget)).as_set()
    )
    if sizes[0] == sizes[1] and fix_ok and spectra_ok:
        return "pass", {}
    maps = [list(f.assignment) for f in picked]
    return _fail(x_img, perm=perm, maps=maps, coincidence_sizes=sizes)


def _hcs_inclusion(f, g, budget):
    """HCS(f, g) lies in HCS(f, g, g), and HFS(f, g) in HFS(f, g, g)."""
    cls_f, cls_g = _classes_of([f, g], budget, fixed=False)
    details = {"f": list(f.assignment), "g": list(g.assignment)}
    for name, spectrum_of in (("hcs", hcs_of_classes), ("hfs", hfs_of_classes)):
        shorter = _exact(spectrum_of([cls_f, cls_g], budget).values)
        longer = _exact(spectrum_of([cls_f, cls_g, cls_g], budget).values)
        details[f"{name}_2"], details[f"{name}_3"] = list(shorter.values), list(longer.values)
        if not shorter.as_set() <= longer.as_set():
            return _fail(f.domain, **details)
    return "pass", {}


def _hcs_monotone(x_img, y_img, config, rng):
    """Repeating the last argument can only enlarge a homotopy spectrum."""
    return _hcs_inclusion(identity(x_img), constant(x_img, x_img, 0), config.budget)


def _hcs_random(x_img, y_img, config, rng):
    """As _hcs_monotone for two self-maps drawn with rng."""
    pool = _all_assignments(x_img, x_img, config)
    f = _draw(x_img, x_img, pool, rng)
    g = _draw(x_img, x_img, pool, rng)
    return _hcs_inclusion(f, g, config.budget)


def _rigid_hcs(x_img, y_img, config, rng):
    """On a rigid image nothing can move: HCS of identities is exactly {#X}."""
    if not _rigid(x_img, config):
        return _fail(x_img, reason="fixture is not rigid")
    cls = homotopy_class(identity(x_img), config.budget)
    for i in range(2, config.i_max + 1):
        values = _exact(hcs_of_classes([cls] * i, config.budget).values)
        if values.as_set() != {x_img.n_points}:
            return _fail(x_img, i=i, values=list(values.values))
    return "pass", {}


def _mj_monotone(x_img, y_img, config, rng):
    """The self-coincidence sequence never increases."""
    entries = list(self_coincidence_sequence(x_img, config.j_max, config.budget).entries)
    if not all(exact for _, _, exact in entries):
        raise _Skip({"reason": "budget tripped", "entries": entries})
    values = [value for _, value, _ in entries]
    if values[0] != x_img.n_points or any(a < b for a, b in zip(values, values[1:])):
        return _fail(x_img, entries=entries)
    return "pass", {"entries": entries}


def _conjecture(x_img, y_img, config, rng, i_max):
    """CS_2 = ... = CS_{i_max}, and CS_2 is the subset sums of the component sizes."""
    by_arity = coincidence_spectra_by_arity(x_img, y_img, i_max, config.budget)
    observed = {i: _exact(s).as_set() for i, s in by_arity.items()}
    predicted = subset_sums(len(c) for c in components(x_img))
    details = {
        "observed": {str(i): sorted(v) for i, v in observed.items()},
        "subset_sums": sorted(predicted),
    }
    if all(v == observed[2] for v in observed.values()) and observed[2] == predicted:
        return "pass", details
    return _fail(x_img, y_img, **details)


# ---------------------------------------------------------------------------
# the check table

_FIXTURE_ROWS = (
    ("lemma-cardinality", _fixtures(_TINY, _TINY), _lemma_cardinality),
    (
        "lemma-full-range",
        _fixtures(
            _TINY + " cube_minus_vertex cube figure1",
            "interval:0:1 interval:0:2 interval:0:3 cycle:3 cycle:4 square4 tee4 cube",
        ),
        _lemma_full_range,
    ),
    ("monotone", _fixtures(_TINY, _TINY), _monotone),
    ("fx-subset", _fixtures(_CONNECTED + " discrete:2 discrete:3"), _fx_subset),
    (
        "totally-disconnected",
        _fixtures(_CONNECTED + " figure1", "discrete:2 discrete:3"),
        _totally_disconnected,
    ),
    (
        "nested-coincidence",
        _fixture_pairs((
            ("interval:0:2", "interval:0:2"),
            ("interval:0:3", "cycle:4"),
            ("cycle:4", "tee4"),
            ("square4", "tee4"),
            ("discrete:3", "discrete:2"),
        )),
        _nested,
    ),
    # every tiny fixture with two points or more
    ("iso-invariance", _fixtures(_TINY.removeprefix("singleton ")), _iso_invariance),
    (
        "hcs-monotone",
        _fixtures("interval:0:2 interval:0:3 cycle:3 cycle:4 square4 tee4"),
        _hcs_monotone,
    ),
    ("rigid-hcs", _fixtures("figure1 singleton"), _rigid_hcs),
    (
        "mj-monotone",
        _fixtures(
            "interval:0:2 interval:0:3 interval:0:4 cycle:3 cycle:4 cycle:5 cycle:6 "
            "square4 tee4 figure1"
        ),
        _mj_monotone,
    ),
)

# run on each random (X, Y) in this order
_RANDOM_PAIR_CHECKS = (
    ("monotone", _monotone_search),
    ("fx-subset", _fx_subset_search),
    ("nested-coincidence", _nested_random),
    ("hcs-monotone", _hcs_random),
)


def _cycle_fixed_spectrum(n: int) -> list[int]:
    if n == 1:
        return [1]
    if n <= 4:
        return list(range(n + 1))
    return list(range(n // 2 + 2)) + [n]


def _expect(compute, expected):
    value = compute()
    if value == expected:
        return "pass", {"value": value}
    return "fail", {"value": value, "expected": expected}


def check_figure_examples(
    config: RunConfig,
    cube_img: DigitalImage | None = None,
    cube_minus: DigitalImage | None = None,
    fig1: DigitalImage | None = None,
) -> list[VerificationReport]:
    """The concrete numbers attached to the stock figures.

    Fixtures are injectable so tests can confirm a corrupted image is
    actually caught.
    """
    cube_img = cube_img or builders.cube()
    cube_minus = cube_minus or builders.cube_minus_vertex()
    fig1 = fig1 or builders.figure1()
    budget = config.budget

    def fixed(img):
        return sorted(_exact(fixed_point_spectrum(img, budget)).values)

    def cs2(y_img):
        return sorted(_exact(coincidence_spectrum(cube_img, y_img, 2, budget)).values)

    def contractible(img):
        answer = is_contractible(img, budget)
        if answer == "unknown":
            raise _Skip({"reason": "budget tripped"})
        return answer

    def coincidences():
        square, tee = builders.square4(), builders.tee4()
        f_map = from_assignment(square, tee, (1, 0, 1, 2))
        g_map = from_assignment(square, tee, (0, 1, 3, 1))
        return list(coincidence_set([f_map, g_map, constant(square, tee, 3)]))

    items = [
        ("F(cube)", partial(fixed, cube_img), [0, 1, 2, 3, 4, 5, 6, 8]),
        ("CS_2(cube,cube)", partial(cs2, cube_img), list(range(9))),
        ("CS_2(cube,cube_minus_vertex)", partial(cs2, cube_minus), list(range(9))),
        ("CS_2(cube,singleton)", partial(cs2, builders.singleton()), [cube_img.n_points]),
        ("contractible(cube)", partial(contractible, cube_img), "yes"),
        ("contractible(cube_minus_vertex)", partial(contractible, cube_minus), "yes"),
        ("rigid(figure1)", partial(_rigid, fig1, config), True),
        ("C(f,g,c) on square4->tee4", coincidences, []),
    ]
    items += [
        (f"F(cycle:{n})", partial(fixed, builders.cycle(n)), _cycle_fixed_spectrum(n))
        for n in range(1, 8)
    ]
    return [
        _run("figure-examples", name, config.seed, partial(_expect, compute, expected))
        for name, compute, expected in items
    ]


# ---------------------------------------------------------------------------
# suites

def _random_batch(source, checks, seed, count, max_points, budget, **settings):
    config = RunConfig(
        budget, seed=seed, random_instances=count, max_random_points=max_points, **settings
    )
    return _run_checks(source, checks, config)


def random_pair_property_reports(
    seed: int,
    count: int,
    max_points: int = 6,
    i_max: int = 3,
    budget: EnumerationBudget | None = None,
) -> list[VerificationReport]:
    """Per random (X, Y): spectrum monotonicity, F(X) within CS_2, nested
    coincidence sets, and homotopy-spectrum inclusion under repetition."""
    return _random_batch(
        _random_pairs, _RANDOM_PAIR_CHECKS, seed, count, max_points, budget, i_max=i_max
    )


def iso_invariance_reports(
    seed: int,
    count: int,
    max_points: int = 6,
    budget: EnumerationBudget | None = None,
) -> list[VerificationReport]:
    checks = (("iso-invariance", _iso_invariance),)
    return _random_batch(_random_images, checks, seed, count, max_points, budget)


def mj_reports(
    seed: int,
    count: int,
    max_points: int = 6,
    j_max: int = 4,
    budget: EnumerationBudget | None = None,
) -> list[VerificationReport]:
    checks = (("mj-monotone", _mj_monotone),)
    return _random_batch(_random_images, checks, seed, count, max_points, budget, j_max=j_max)


def run_suite(suite_id: str, config: RunConfig | None = None) -> list[VerificationReport]:
    config = config or RunConfig()
    if suite_id not in SUITES:
        raise InvalidInputError(f"unknown suite {suite_id!r}; expected one of {SUITES}")
    reports: list[VerificationReport] = []
    if suite_id in ("paper-fixtures", "all"):
        for check_id, source, body in _FIXTURE_ROWS:
            reports += _run_checks(source, ((check_id, body),), config)
        reports += check_figure_examples(config)
    if suite_id in ("random-small", "all"):
        n, points, budget = config.random_instances, config.max_random_points, config.budget
        reports += random_pair_property_reports(config.seed, n, points, config.i_max, budget)
        reports += iso_invariance_reports(config.seed + 1, n, points, budget=budget)
        reports += mj_reports(config.seed + 2, max(1, n // 4), points, config.j_max, budget)
    reports.sort(key=lambda r: (r.check_id, r.instance))
    return reports


# ---------------------------------------------------------------------------
# conjecture sweep

def _partitions(total: int, max_part: int | None = None):
    if total == 0:
        yield ()
        return
    cap = max_part if max_part is not None else total
    for part in range(min(total, cap), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part, *rest)


def disjoint_paths(sizes) -> DigitalImage:
    """One path component per entry of sizes, separated by gaps."""
    points: list[tuple[int]] = []
    offset = 0
    for s in sizes:
        points.extend((offset + k,) for k in range(s))
        offset += s + 1
    return DigitalImage(
        points=tuple(points),
        adjacency=CT(1),
        name="paths:" + "+".join(str(s) for s in sizes),
    )


def subset_sums(sizes) -> frozenset[int]:
    sums = {0}
    for s in sizes:
        sums |= {v + s for v in sums}
    return frozenset(sums)


def conjecture_search(
    max_x_points: int = 6,
    max_y_points: int = 3,
    i_max: int = 4,
    config: RunConfig | None = None,
) -> list[VerificationReport]:
    """Does CS_i keep growing with i for disconnected X and edgeless Y?

    Maps into an edgeless codomain are constant on each component, so only
    the multiset of component sizes matters; every disconnected X up to
    max_x_points is realized as disjoint paths.  Each instance checks that
    CS_2 = ... = CS_{i_max} and that CS_2 is exactly the subset sums of the
    component sizes.
    """
    _require_int(max_x_points, "max_x_points")
    _require_int(max_y_points, "max_y_points")
    _require_at_least(i_max, 2, "i_max")
    config = config or RunConfig()

    def sweep(*_):
        for total in range(2, max_x_points + 1):
            for sizes in _partitions(total):
                if len(sizes) < 2:
                    continue
                x_img = disjoint_paths(sizes)
                for m in range(2, max_y_points + 1):
                    y_img = builders.discrete(m)
                    yield f"{_label('', x_img, y_img)} i_max={i_max}", x_img, y_img

    note = (
        "maps to an edgeless codomain are constant per component, "
        "so instances are exhausted by component-size multisets"
    )
    reports = [_run("conjecture", "reduction-note", config.seed, lambda: ("pass", {"note": note}))]
    reports += _run_checks(sweep, (("conjecture", partial(_conjecture, i_max=i_max)),), config)
    reports.sort(key=lambda r: (r.check_id, r.instance))
    return reports
